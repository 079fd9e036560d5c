"""Content keys stay byte-identical under the per-spec encoding cache.

``content_key`` encodes each OperatorSpec once and joins the parts'
encodings; the reference below is the one-shot canonicalisation every
key used to be.  Any divergence would silently split the artifact store
(keys are stable across processes and persisted), so the identity is
property-tested over builder-made specs, ``touch_spec`` edit chains,
pickled copies and mixed scalar parts.
"""

import gc
import hashlib
import json
import pickle

from hypothesis import example, given, settings, strategies as st

from repro.core import touch_spec
from repro.core import build
from repro.core.build import _stable, content_key
from repro.hls import OperatorBuilder

BINARY = ("add", "sub", "mul", "and_", "or_", "xor", "min_", "max_",
          "lt", "eq")


def reference_key(*parts) -> str:
    payload = json.dumps(_stable(list(parts)), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@st.composite
def specs(draw):
    """A small random kernel: vars, an optional array, a loop body of
    binary ops over the input, an optional if, one output write."""
    name = draw(st.sampled_from(["k", "knn_0", "flow-calc", "é"]))
    width = draw(st.integers(1, 64))
    b = OperatorBuilder(name, inputs=[("x", width)], outputs=[("y", 32)])
    for i in range(draw(st.integers(0, 3))):
        b.variable(f"v{i}", draw(st.integers(1, 32)), draw(st.booleans()),
                   init=draw(st.integers(-8, 8)))
    table = None
    if draw(st.booleans()):
        depth = draw(st.integers(1, 8))
        init = draw(st.none() | st.lists(st.integers(-(2 ** 31), 2 ** 31),
                                         min_size=depth, max_size=depth))
        table = b.array("t", depth, draw(st.integers(1, 32)),
                        signed=draw(st.booleans()), init=init,
                        partition=draw(st.booleans()))
    with b.loop("L", draw(st.integers(0, 1000)),
                pipeline=draw(st.booleans()),
                unroll=draw(st.integers(1, 4))) as i:
        acc = b.read("x")
        for kind in draw(st.lists(st.sampled_from(BINARY), max_size=4)):
            acc = getattr(b, kind)(acc, draw(st.integers(-300, 300)))
        if table is not None:
            acc = b.add(acc, b.load(table, b.and_(i, 0)))
        if draw(st.booleans()):
            with b.if_(b.gt(acc, 0)):
                b.write("y", b.cast(acc, 32))
            with b.orelse():
                b.write("y", b.cast(b.neg(acc), 32))
        else:
            b.write("y", b.cast(acc, 32))
    return b.build()


SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=8))
MIXED = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def key_parts(draw):
    """Build-step-shaped parts: a step name, then specs and scalars in
    any order, with specs also nested inside lists, tuples and dicts."""
    pool = draw(st.lists(specs(), min_size=1, max_size=3))
    spec_ref = st.sampled_from(pool)
    part = (spec_ref | MIXED | st.lists(spec_ref | SCALARS, max_size=3)
            | st.tuples(spec_ref, SCALARS)
            | st.dictionaries(st.text(max_size=4), spec_ref, max_size=2))
    name = draw(st.sampled_from(["hls:k", "impl:k", "sched:k",
                                 "riscv:k"]))
    return (name,) + tuple(draw(st.lists(part, max_size=5)))


class TestContentKeyIdentity:
    @settings(max_examples=60, deadline=None)
    @given(key_parts())
    @example(("hls:k",))
    @example(("impl:k", [], (), {}, "", 0, -0.0, 1e300))
    def test_memoized_key_matches_reference(self, parts):
        first = content_key(*parts)
        assert first == reference_key(*parts)
        assert content_key(*parts) == first        # the cached path

    @settings(max_examples=40, deadline=None)
    @given(specs(), st.integers(1, 4), st.floats(allow_nan=False))
    def test_touch_chains_never_reuse_the_parent_encoding(
            self, spec, depth, clock):
        parent = spec
        content_key("hls:k", parent, clock)
        for n in range(depth):
            child = touch_spec(parent, tag=f"e{n}")
            assert id(child) not in build._ENCODINGS
            key = content_key("hls:k", child, clock)
            assert key == reference_key("hls:k", child, clock)
            assert key != content_key("hls:k", parent, clock)
            assert build._ENCODINGS[id(child)][0] != \
                build._ENCODINGS[id(parent)][0]
            parent = child

    @settings(max_examples=40, deadline=None)
    @given(specs(), SCALARS)
    def test_the_spec_position_is_part_of_the_memo(self, spec, scalar):
        """The memo keys on the encoding of the other parts with the
        spec blanked out, so where the spec sat must count too."""
        for parts in [("k", spec, None), ("k", None, spec),
                      ("k", spec, spec), ("k", scalar, spec),
                      ("k", spec, scalar), ("k", [spec], spec)]:
            assert content_key(*parts) == reference_key(*parts)
        assert content_key("k", spec, None) != \
            content_key("k", None, spec)

    @settings(max_examples=40, deadline=None)
    @given(specs(), st.text(max_size=6))
    def test_pickled_specs_key_identically(self, spec, page_type):
        shipped = pickle.loads(pickle.dumps(spec))
        assert content_key("impl:k", shipped, page_type) == \
            content_key("impl:k", spec, page_type) == \
            reference_key("impl:k", spec, page_type)
        again = pickle.loads(pickle.dumps(spec))   # after spec is cached
        assert content_key("impl:k", again, page_type) == \
            content_key("impl:k", spec, page_type)


class TestEncodingCacheLifetime:
    def test_entries_die_with_their_spec(self):
        b = OperatorBuilder("gone", inputs=[("x", 32)], outputs=[("y", 32)])
        b.write("y", b.read("x"))
        spec = b.build()
        content_key("hls:gone", spec)
        ident = id(spec)
        assert ident in build._ENCODINGS
        del spec
        gc.collect()
        assert ident not in build._ENCODINGS

    def test_edit_chain_does_not_grow_the_cache(self):
        b = OperatorBuilder("edited", inputs=[("x", 32)],
                            outputs=[("y", 32)])
        b.write("y", b.read("x"))
        spec = b.build()
        content_key("hls:edited", spec)
        gc.collect()
        size = len(build._ENCODINGS)
        for n in range(50):
            spec = touch_spec(spec, tag=f"e{n}")
            content_key("hls:edited", spec)
        gc.collect()
        assert len(build._ENCODINGS) <= size

    def test_memoized_keys_per_spec_stay_bounded(self):
        b = OperatorBuilder("served", inputs=[("x", 32)],
                            outputs=[("y", 32)])
        b.write("y", b.read("x"))
        spec = b.build()
        for effort in range(3 * build.MEMO_KEYS_PER_SPEC):
            key = content_key("impl:served", spec, "small", effort / 7, 1)
            assert key == reference_key("impl:served", spec, "small",
                                        effort / 7, 1)
        assert len(build._ENCODINGS[id(spec)][1]) <= \
            build.MEMO_KEYS_PER_SPEC
