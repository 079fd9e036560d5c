"""Synthetic traffic patterns and load-latency characterisation.

Standard NoC-evaluation machinery for the linking network: classic
traffic patterns (uniform random, bit-reversal/complement, hotspot,
neighbour) and a load sweep that measures delivered throughput and mean
latency at increasing injection rates — the curve whose saturation
point tells you how much stream bandwidth the modest BFT really offers
(the paper's Sec. 7.4 bandwidth discussion, measured).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List

from repro.errors import NoCError
from repro.noc.bft import BFTopology
from repro.noc.leaf import LeafInterface
from repro.noc.netsim import NetworkSimulator

Pattern = Callable[[int, int], int]


def uniform_random(seed: int = 1) -> Pattern:
    """Each source sends to a uniformly random other leaf."""
    rng = random.Random(seed)

    def dest(src: int, n: int) -> int:
        choice = rng.randrange(n - 1)
        return choice if choice < src else choice + 1

    return dest


def bit_reversal(src: int, n: int) -> int:
    """Destination = bit-reversed source (adversarial for trees)."""
    bits = max(1, (n - 1).bit_length())
    rev = int(format(src, f"0{bits}b")[::-1], 2)
    return rev % n


def bit_complement(src: int, n: int) -> int:
    """Destination = complemented source (all traffic crosses the root)."""
    return (n - 1) ^ src


def neighbour(src: int, n: int) -> int:
    """Destination = next leaf (best case: one switch hop)."""
    return (src + 1) % n


def hotspot(target: int = 0) -> Pattern:
    """Everyone sends to one leaf (the DMA-interface worst case)."""

    def dest(src: int, n: int) -> int:
        return target if target != src else (target + 1) % n

    return dest


@dataclass
class LoadPoint:
    """One point on the load-latency curve."""

    offered_rate: float        # packets / leaf / cycle attempted
    delivered_rate: float      # packets / cycle network-wide
    mean_latency: float
    deflections: int


def characterize(pattern: Pattern, n_leaves: int = 16,
                 rates: List[float] = (0.05, 0.1, 0.2, 0.4, 0.8),
                 packets_per_leaf: int = 60,
                 seed: int = 7) -> List[LoadPoint]:
    """Sweep injection rate; measure throughput/latency per point.

    Injection pacing is approximated by interleaving idle cycles: at
    offered rate r, each leaf queues one packet every ``1/r`` cycles'
    worth of simulation (packets are pre-staged; the single up-link
    already limits injection to 1/cycle, so r is capped at 1).
    """
    points: List[LoadPoint] = []
    for rate in rates:
        if not (0 < rate <= 1.0):
            raise NoCError(f"offered rate {rate} outside (0, 1]")
        topo = BFTopology(n_leaves)
        leaves = {i: LeafInterface(i, n_ports=2) for i in range(n_leaves)}
        sim = NetworkSimulator(topo, leaves)
        # Bind every source port once, then stage the packets.
        for src in range(n_leaves):
            leaves[src].bind(0, dest_leaf=pattern(src, n_leaves),
                             dest_port=0)
        # Interleave injection with pacing: run the clock while
        # queueing packets at the offered rate.
        interval = max(1, round(1.0 / rate))
        remaining = {src: packets_per_leaf for src in range(n_leaves)}
        cycle = 0
        while any(remaining.values()) or sim._has_in_flight() or any(
                leaves[i].outbox for i in range(n_leaves)):
            if cycle % interval == 0:
                for src in range(n_leaves):
                    if remaining[src]:
                        leaves[src].send(0, (src << 16) | remaining[src])
                        remaining[src] -= 1
            sim.step()
            cycle += 1
            if cycle > 2_000_000:
                raise NoCError("traffic characterisation did not drain")
        # Drain stragglers.
        sim.run(max_cycles=2_000_000)
        total = len(sim.delivered)
        points.append(LoadPoint(
            offered_rate=rate,
            delivered_rate=total / max(1, sim.cycle),
            mean_latency=sim.mean_latency(),
            deflections=sim.total_deflections))
    return points


def saturation_throughput(points: List[LoadPoint]) -> float:
    """Highest delivered rate across the sweep (packets/cycle)."""
    return max(p.delivered_rate for p in points) if points else 0.0
