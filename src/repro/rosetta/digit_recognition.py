"""Digit recognition: KNN over a training set as a systolic pipeline.

The paper refactors the Rosetta KNN classifier into a systolic pipeline
where each stage holds a shard of the training set (Sec. 7.2).  A test
digit (bit-packed pixels) flows down the pipeline together with the
best (distance, label) found so far; every stage compares the candidate
against its shard with XOR + popcount Hamming distances and updates the
running best; a final vote operator emits the label.

20 operators: ``unpack`` + 18 ``knn_stage_*`` + ``vote``.

Notably DSP-free (Tab. 4 reports 0-1 DSPs): distances use table-based
popcounts and adds only.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Tuple

from repro.dataflow.graph import DataflowGraph
from repro.hls.frontend import OperatorBuilder
from repro.rosetta.base import (
    POPCOUNT8,
    RosettaApp,
    add_spec_operator,
    declare_popcount_table,
    deterministic_rng,
    emit_popcount32,
    finish_app,
)

#: Pipeline stages (training-set shards).
STAGES = 18

#: Words per digit (paper: 196-bit 14x14 digits -> 7 words).
PAPER_DIGIT_WORDS, DIGIT_WORDS = 7, 2

#: Training vectors per stage (paper: 18,000 total / 18 stages).
PAPER_SHARD, SHARD = 1_000, 4

#: Test digits per input batch.
PAPER_TESTS, TESTS = 2_000, 3

#: Sentinel distance (larger than any real Hamming distance).
MAX_DIST = 0xFFFF

PAPER_TOKENS = PAPER_TESTS * PAPER_DIGIT_WORDS


def _training_shard(stage: int, shard: int, words: int
                    ) -> Tuple[List[int], List[int]]:
    """Deterministic synthetic training data: (packed words, labels).

    Bit ``i`` of word ``w`` of vector ``v`` is set when the next draw
    of ``random() < density`` holds, drawn in (vector, word, bit) order
    from the stage's RNG.  The draws are taken in bulk, bit-identically:

    * ``random()`` consumes two MT19937 words ``a``, ``b`` and returns
      ``x / 2**53`` with ``x = (a >> 5) << 26 | (b >> 6)``, an exact
      float.  ``getrandbits(64 * n)`` consumes the same ``2n`` words in
      the same order and packs them least-significant word first.
    * ``density * 2**53`` is exact (a power-of-two scaling), so
      ``x / 2**53 < density`` holds exactly when the integer ``x`` is
      below ``threshold = ceil(density * 2**53)``.
    * ``x`` and ``threshold`` are below ``2**53``, and the top byte of
      ``x`` (bits 45..52) is the top byte of ``a``.  A top byte below
      the threshold's sets the bit and one above clears it, so a
      ``bytes.translate`` over those bytes decides every draw except
      the equal ones (1 in 256), which get the exact compare.
    """
    rng = deterministic_rng(f"digit-train-{stage}")
    bits = 32 * words
    raw = rng.getrandbits(64 * shard * bits).to_bytes(8 * shard * bits,
                                                       "little")
    tops = raw[3::8]                    # the top byte of each draw's a
    labels = [(stage + vec) % 10 for vec in range(shard)]
    # Each class has a distinct bit density so KNN is meaningful.
    thresholds = [math.ceil((0.2 + 0.06 * label) * 2 ** 53)
                  for label in range(10)]
    # Top byte below, equal to or above the threshold's: b"1", b"=", b"0".
    tables = [b"1" * (t >> 45) + b"=" + b"0" * (255 - (t >> 45))
              for t in thresholds]
    decided = bytearray(b"".join([
        tops[vec * bits:(vec + 1) * bits].translate(tables[label])
        for vec, label in enumerate(labels)]))
    tie = decided.find(b"=")
    while tie >= 0:
        at = 8 * tie
        x = ((int.from_bytes(raw[at:at + 4], "little") >> 5) << 26
             | int.from_bytes(raw[at + 4:at + 8], "little") >> 6)
        decided[tie] = 49 if x < thresholds[labels[tie // bits]] else 48
        tie = decided.find(b"=", tie)
    # Draw k is bit k of the shard: word w holds draws 32w .. 32w+31.
    packed = int(decided[::-1] or b"0", 2)
    data = struct.unpack(f"<{shard * words}I",
                         packed.to_bytes(4 * shard * words, "little"))
    return list(data), labels


def _unpack(tests: int, words: int):
    b = OperatorBuilder("unpack", inputs=[("Input_1", 32)],
                        outputs=[("cand", 32)])
    with b.loop("TEST", tests, pipeline=True):
        for _ in range(words):
            b.write("cand", b.read("Input_1", signed=False))
        # Seed the running best: (distance, label).
        b.write("cand", MAX_DIST)
        b.write("cand", 10)                 # invalid label sentinel
    return b.build()


def _knn_stage(stage: int, tests: int, shard: int, words: int,
               unroll: int):
    name = f"knn_{stage:02d}"
    b = OperatorBuilder(name, inputs=[("in", 32)], outputs=[("out", 32)])
    data, labels = _training_shard(stage, shard, words)
    b.array("train", shard * words, 32, signed=False, init=data,
            partition=True)
    b.array("labels", shard, 8, signed=False, init=labels,
            partition=True)
    table = declare_popcount_table(b)
    for w in range(words):
        b.variable(f"d{w}", 32, signed=False)
    b.variable("best", 16, signed=False)
    b.variable("best_label", 8, signed=False)
    b.variable("dist", 16, signed=False)
    b.variable("vbase", 24, signed=False)     # running word index
    addr_bits = max(4, (shard * words - 1).bit_length())
    lbl_bits = max(2, (shard - 1).bit_length())
    with b.loop("TEST", tests):
        for w in range(words):
            b.set(f"d{w}", b.read("in", signed=False))
        b.set("best", b.cast(b.read("in", signed=False), 16,
                             signed=False))
        b.set("best_label", b.cast(b.read("in", signed=False), 8,
                                   signed=False))
        b.set("vbase", 0)
        with b.loop("VEC", shard, pipeline=True, unroll=unroll) as v:
            b.set("dist", 0)
            for w in range(words):
                # Multiplier-free addressing (the kernel must stay
                # DSP-free, Tab. 4): a running base replaces v * words.
                idx = b.cast(b.add(b.get("vbase"), w), addr_bits,
                             signed=False)
                tw = b.load("train", idx)
                diff = b.xor(b.get(f"d{w}"), tw)
                pc = emit_popcount32(b, table, diff)
                b.set("dist", b.cast(b.add(b.get("dist"), pc), 16,
                                     signed=False))
            closer = b.lt(b.get("dist"), b.get("best"))
            lbl = b.load("labels", b.cast(v, lbl_bits, signed=False))
            b.set("best", b.cast(
                b.select(closer, b.get("dist"), b.get("best")), 16,
                signed=False))
            b.set("best_label", b.cast(
                b.select(closer, lbl, b.get("best_label")), 8,
                signed=False))
            b.set("vbase", b.cast(b.add(b.get("vbase"), words), 24,
                                  signed=False))
        for w in range(words):
            b.write("out", b.get(f"d{w}"))
        b.write("out", b.cast(b.get("best"), 32))
        b.write("out", b.cast(b.get("best_label"), 32))
    return b.build()


def _vote(tests: int, words: int):
    b = OperatorBuilder("vote", inputs=[("in", 32)],
                        outputs=[("Output_1", 32)])
    with b.loop("TEST", tests, pipeline=True):
        for _ in range(words):
            b.read("in", signed=False)         # drop the digit payload
        b.read("in", signed=False)             # drop the distance
        label = b.read("in", signed=False)
        b.write("Output_1", label)
    return b.build()


def build_graph() -> DataflowGraph:
    g = DataflowGraph("digit-recognition")
    add_spec_operator(g, _unpack(PAPER_TESTS, PAPER_DIGIT_WORDS),
                      sample_spec=_unpack(TESTS, DIGIT_WORDS))
    previous = "unpack.cand"
    for stage in range(STAGES):
        paper = _knn_stage(stage, PAPER_TESTS, PAPER_SHARD,
                           PAPER_DIGIT_WORDS, unroll=2)
        sample = _knn_stage(stage, TESTS, SHARD, DIGIT_WORDS, unroll=1)
        add_spec_operator(g, paper, sample_spec=sample)
        g.connect(previous, f"knn_{stage:02d}.in")
        previous = f"knn_{stage:02d}.out"
    add_spec_operator(g, _vote(PAPER_TESTS, PAPER_DIGIT_WORDS),
                      sample_spec=_vote(TESTS, DIGIT_WORDS))
    g.connect(previous, "vote.in")
    g.expose_input("Input_1", "unpack.Input_1")
    g.expose_output("Output_1", "vote.Output_1")
    return g


def sample_inputs() -> Dict[str, List[int]]:
    rng = deterministic_rng("digit-tests")
    tokens: List[int] = []
    for _t in range(TESTS):
        for _w in range(DIGIT_WORDS):
            tokens.append(rng.randrange(1 << 32))
    return {"Input_1": tokens}


def reference(inputs: Dict[str, List[int]]) -> Dict[str, List[int]]:
    """Pure-Python golden model of the systolic KNN."""
    tokens = inputs["Input_1"]
    out: List[int] = []
    for t in range(TESTS):
        digit = tokens[t * DIGIT_WORDS:(t + 1) * DIGIT_WORDS]
        best = MAX_DIST
        best_label = 10
        for stage in range(STAGES):
            data, labels = _training_shard(stage, SHARD, DIGIT_WORDS)
            for v in range(SHARD):
                dist = 0
                for w in range(DIGIT_WORDS):
                    diff = digit[w] ^ data[v * DIGIT_WORDS + w]
                    dist += sum(POPCOUNT8[(diff >> (8 * k)) & 0xFF]
                                for k in range(4))
                if dist < best:
                    best = dist
                    best_label = labels[v]
        out.append(best_label)
    return {"Output_1": out}


def build() -> RosettaApp:
    return finish_app(
        "digit-recognition",
        "systolic KNN digit classifier over training-set shards",
        build_graph(), sample_inputs(), PAPER_TOKENS,
        reference=reference)
