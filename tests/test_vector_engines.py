"""NoC router equivalence and big-device scaling tests.

:class:`NetworkSimulator` steps small trees on the scalar router — the
golden reference — and trees of at least ``BATCHED_MIN_LEAVES`` leaves
on the batched numpy router.  The contract is **bit identity**: same
cycles, same delivered records, same deflections, under any seed.
These tests force each router by patching the threshold, sweep that
contract with hypothesis, and pin the scaled multi-SLR fabrics (U280,
VU19P) with content digests.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FabricError, NoCError
from repro.fabric import (Overlay, XCU50, XCU280, XCVU19P,
                          scaled_floorplan)
from repro.noc import netsim
from repro.noc.bft import BFTopology
from repro.noc.leaf import LeafInterface
from repro.noc.netsim import NetworkSimulator


def _sha16(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _router(batched: bool):
    """Force every simulator built in the block onto one router."""
    return mock.patch.object(netsim, "BATCHED_MIN_LEAVES",
                             0 if batched else 1 << 30)


# --------------------------------------------------------------------------
# NoC: scalar vs batched router
# --------------------------------------------------------------------------


def _drain_observables(batched: bool, n_leaves: int, n_ports: int,
                       per_leaf: int, seed: int,
                       reliable: bool = False, faults=None) -> Dict:
    rng = random.Random(seed)
    kwargs = dict(reliable=True, retransmit_timeout=32) if reliable else {}
    leaves = {i: LeafInterface(i, n_ports=n_ports, **kwargs)
              for i in range(n_leaves)}
    with _router(batched):
        sim = NetworkSimulator(BFTopology(n_leaves), leaves,
                               faults=faults)
    assert sim.batched == batched
    for i in range(n_leaves):
        for p in range(n_ports):
            leaves[i].bind(p, rng.randrange(n_leaves), p)
    for i in range(n_leaves):
        for k in range(per_leaf):
            leaves[i].send(k % n_ports, (i * 1000 + k) & 0xFFFFFFFF)
    cycles = sim.run(max_cycles=500_000)
    records = sim.delivered
    if records and not isinstance(records[0], tuple):
        records = [(r.payload, r.latency, r.hops) for r in records]
    return {
        "cycles": cycles,
        "records": list(records),
        "deflections": sim.total_deflections,
        "dropped": sim.faults_dropped,
        "tokens": {(leaf, p): leaves[leaf].tokens(p)
                   for leaf in sorted(leaves) for p in range(n_ports)},
        "stats": {leaf: (iface.received, iface.bounced, iface.sent,
                         iface.retransmissions, iface.acks_sent)
                  for leaf, iface in sorted(leaves.items())},
    }


class TestNoCEngineEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(n_leaves=st.sampled_from([4, 8, 16]),
           n_ports=st.integers(min_value=1, max_value=4),
           per_leaf=st.integers(min_value=1, max_value=25),
           seed=st.integers(min_value=0, max_value=9999))
    def test_drain_bit_identical(self, n_leaves, n_ports, per_leaf, seed):
        scalar = _drain_observables(False, n_leaves, n_ports,
                                    per_leaf, seed)
        batched = _drain_observables(True, n_leaves, n_ports,
                                     per_leaf, seed)
        assert scalar == batched
        assert len(scalar["records"]) == n_leaves * per_leaf

    def test_reliable_drain_bit_identical(self):
        from repro.faults import FaultPlan

        def plan():
            return FaultPlan(seed=13, noc_drop_rate=0.02,
                             noc_corrupt_rate=0.01).noc_faults()

        scalar = _drain_observables(False, 8, 2, 15, seed=13,
                                    reliable=True, faults=plan())
        batched = _drain_observables(True, 8, 2, 15, seed=13,
                                     reliable=True, faults=plan())
        assert scalar == batched
        assert len(scalar["records"]) == 8 * 15

    def test_load_sweep_bit_identical(self):
        from repro.noc.traffic import bit_complement, characterize

        sweeps = {}
        for batched in (False, True):
            with _router(batched):
                sweeps[batched] = characterize(
                    bit_complement, n_leaves=8, rates=(0.2, 0.8),
                    packets_per_leaf=10)
        assert sweeps[False] == sweeps[True]

    def test_router_picked_from_leaf_count(self):
        assert netsim.BATCHED_MIN_LEAVES == 128
        assert not NetworkSimulator(BFTopology(64)).batched
        assert NetworkSimulator(BFTopology(128)).batched


# --------------------------------------------------------------------------
# scaled fabrics: U280 / VU19P
# --------------------------------------------------------------------------


class TestScaledFabrics:
    def test_u280_floorplan_pinned(self):
        overlay = Overlay.for_device(XCU280)
        plan = [(p.number, p.page_type.name, p.page_type.luts,
                 p.page_type.ffs, p.page_type.brams, p.page_type.dsps,
                 p.slr) for p in overlay.pages]
        assert len(plan) == 40
        assert _sha16(plan) == "d979ce7d3a0c36c6"

    def test_vu19p_floorplan_pinned(self):
        overlay = Overlay.for_device(XCVU19P)
        plan = [(p.number, p.page_type.name, p.page_type.luts,
                 p.page_type.ffs, p.page_type.brams, p.page_type.dsps,
                 p.slr) for p in overlay.pages]
        assert len(plan) == 80
        assert _sha16(plan) == "f113107a1e39a3f1"

    def test_vu19p_pages_bigger_but_ram_lean(self):
        # Eq. 1: bigger devices amortise per-page interface overhead,
        # so the VU19P floorplan picks *larger* pages; its BRAM budget
        # is proportionally tighter than the U50's, so pages carry
        # fewer RAMs.
        u50 = Overlay().pages[0].page_type
        vu = Overlay.for_device(XCVU19P).pages[0].page_type
        assert vu.luts > u50.luts
        assert vu.brams < u50.brams

    def test_floorplans_fit_their_device(self):
        for device in (XCU280, XCVU19P):
            overlay = Overlay.for_device(device)
            total = overlay.total_page_resources()
            assert device.fits(total.luts, total.brams, total.dsps)

    def test_slrs_contiguous_and_complete(self):
        for device in (XCU280, XCVU19P):
            slrs = [p.slr for p in Overlay.for_device(device).pages]
            assert slrs == sorted(slrs)
            assert set(slrs) == set(range(len(device.slrs)))

    def test_for_device_u50_is_default_overlay(self):
        assert Overlay.for_device(XCU50).name == Overlay().name

    def test_for_device_unknown_needs_page_count(self):
        from repro.fabric.device import Device, SLR
        mystery = Device(name="mystery", luts=500_000, ffs=1_000_000,
                         brams=1_000, dsps=1_000,
                         slrs=(SLR(0, 500_000, 1_000, 1_000),))
        with pytest.raises(FabricError):
            Overlay.for_device(mystery)
        overlay = Overlay.for_device(mystery, n_pages=10)
        assert len(overlay.pages) == 10

    def test_scaled_floorplan_rejects_tiny_page_count(self):
        with pytest.raises(FabricError):
            scaled_floorplan(XCU280, 1)


class TestMultiSLRTopology:
    def test_u280_cut_links_pinned(self):
        topo = BFTopology.for_overlay(Overlay.for_device(XCU280))
        assert topo.n_leaves == 41
        cuts = topo.slr_cut_links()
        assert len(cuts) == 8
        assert _sha16([(c.level, c.index, n)
                       for c, n in cuts]) == "93714429e25d0c80"

    def test_vu19p_cut_links_pinned(self):
        topo = BFTopology.for_overlay(Overlay.for_device(XCVU19P))
        assert topo.n_leaves == 81
        cuts = topo.slr_cut_links()
        assert len(cuts) == 16
        assert _sha16([(c.level, c.index, n)
                       for c, n in cuts]) == "99d3014ecc682a35"

    def test_dma_leaf_sits_on_slr0(self):
        topo = BFTopology.for_overlay(Overlay.for_device(XCU280))
        assert topo.slr_of(0) == 0

    def test_crossings_are_absolute_die_distance(self):
        topo = BFTopology.for_overlay(Overlay.for_device(XCVU19P))
        first = topo.slr_of(1)
        last = topo.slr_of(topo.n_leaves - 1)
        assert topo.slr_crossings(1, topo.n_leaves - 1) == last - first
        assert topo.slr_crossings(5, 5) == 0

    def test_padding_leaves_inherit_last_slr(self):
        topo = BFTopology.for_overlay(Overlay.for_device(XCU280))
        # Tree is padded to 64 leaves; the padding inherits SLR 2.
        assert topo.slr_of(topo.size - 1) == topo.slr_of(topo.n_leaves - 1)

    def test_no_slr_map_means_one_die(self):
        topo = BFTopology(8)
        assert topo.slr_of(3) == 0
        assert topo.slr_cut_links() == []

    def test_slr_map_length_validated(self):
        with pytest.raises(NoCError):
            BFTopology(8, leaf_slr=(0, 0, 1))

    def test_scaled_drain_on_overlay_topology(self):
        # End-to-end: a non-power-of-two leaf count (41) drains cleanly
        # on both routers with identical observables.
        topo = BFTopology.for_overlay(Overlay.for_device(XCU280))
        results = {}
        for batched in (False, True):
            rng = random.Random(7)
            leaves = {i: LeafInterface(i, n_ports=2)
                      for i in range(topo.n_leaves)}
            with _router(batched):
                sim = NetworkSimulator(topo, leaves)
            for i in range(topo.n_leaves):
                for p in range(2):
                    leaves[i].bind(p, rng.randrange(topo.n_leaves), p)
            for i in range(topo.n_leaves):
                for k in range(5):
                    leaves[i].send(k % 2, (i * 100 + k) & 0xFFFFFFFF)
            cycles = sim.run(max_cycles=200_000)
            records = sim.delivered
            if records and not isinstance(records[0], tuple):
                records = [(r.payload, r.latency, r.hops)
                           for r in records]
            results[batched] = (cycles, list(records),
                                sim.total_deflections)
        assert results[False] == results[True]
        assert len(results[False][1]) == topo.n_leaves * 5
