"""digit-recognition's bulk training-shard draw is the per-bit loop.

``_training_shard`` decides every bit from one bulk ``getrandbits`` and
a byte translate instead of one ``random()`` call per bit.  The shards
are array inits inside every knn stage's spec, so they feed content
keys, manifests and the golden model: they must not change by a bit.
The per-bit loop lives here, as the reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rosetta import digit_recognition as dr
from repro.rosetta.base import deterministic_rng


def per_bit_shard(stage, shard, words):
    """One ``random() < density`` draw per bit, LSB first."""
    rng = deterministic_rng(f"digit-train-{stage}")
    data, labels = [], []
    for vec in range(shard):
        label = (stage + vec) % 10
        density = 0.2 + 0.06 * label
        for _w in range(words):
            word = 0
            for bit in range(32):
                if rng.random() < density:
                    word |= 1 << bit
            data.append(word)
        labels.append(label)
    return data, labels


@pytest.mark.parametrize("shard,words", [
    (dr.PAPER_SHARD, dr.PAPER_DIGIT_WORDS), (dr.SHARD, dr.DIGIT_WORDS)])
def test_every_stage_matches_the_per_bit_loop(shard, words):
    for stage in range(dr.STAGES):
        assert dr._training_shard(stage, shard, words) == \
            per_bit_shard(stage, shard, words), f"stage {stage}"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=4))
def test_small_shards_match_the_per_bit_loop(stage, shard, words):
    assert dr._training_shard(stage, shard, words) == \
        per_bit_shard(stage, shard, words)
