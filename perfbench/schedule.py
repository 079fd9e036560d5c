"""Seeded inputs: request streams, edit targets and arrival times.

Everything here is a pure function of its ``random.Random`` argument,
so one seed always yields the same inputs and the program under test
receives only what these functions generate.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple


def zipf_weights(n: int, s: float = 1.1) -> List[float]:
    """Zipf weights over ranks 1..n: rank ``k`` weighs ``1 / k**s``."""
    return [1.0 / (k ** s) for k in range(1, n + 1)]


def jittered_arrivals(rng: random.Random, rate: float,
                      seconds: float) -> List[float]:
    """Send offsets of an open-loop stream of ``rate`` requests/second.

    The window is cut into ``round(rate * seconds)`` slots of
    ``1 / rate`` seconds and one request is sent at a uniform offset
    inside each slot.  The mean rate and the seeded randomness of a
    Poisson stream remain, but its bursts do not: over a 30 s window a
    Poisson draw at 0.3 req/s put six requests into five seconds for
    one seed and spread them evenly for the next, which moved the
    median latency by 2x from seed to seed.  Fixing the count also
    keeps the number of samples per run equal.
    """
    count = max(1, round(rate * seconds))
    return [(slot + rng.random()) / rate for slot in range(count)]


def stratified_kinds(rng: random.Random, count: int,
                     mix: Sequence[Tuple[str, float]]) -> List[str]:
    """``count`` request kinds in the given proportions, seeded order.

    Each kind gets its rounded share (largest remainders first, so the
    shares sum to ``count``) and the list is shuffled.  Exact shares
    keep the mix equal across seeds; only the order varies.
    """
    exact = [(kind, share * count) for kind, share in mix]
    counts: Dict[str, int] = {kind: int(value) for kind, value in exact}
    leftover = count - sum(counts.values())
    by_remainder = sorted(exact, key=lambda kv: kv[1] - int(kv[1]),
                          reverse=True)
    for kind, _ in by_remainder[:leftover]:
        counts[kind] += 1
    kinds = [kind for kind, _ in mix for _ in range(counts[kind])]
    rng.shuffle(kinds)
    return kinds


def zipf_draws(rng: random.Random, items: Sequence[str], count: int,
               s: float = 1.1) -> List[str]:
    """``count`` zipf-distributed picks from ``items``, seeded order.

    Earlier items are edited more often, the way a developer keeps
    returning to the operator under work.  Each item gets its zipf
    share of ``count`` exactly (as :func:`stratified_kinds` rounds
    them), so seeds change which edit comes when but not how many
    edits each operator gets.  Operators differ in recompile cost by
    2x or more, and independent draws made a run's median edit time
    follow which operators its seed happened to pick.
    """
    weights = zipf_weights(len(items), s)
    total = sum(weights)
    return stratified_kinds(rng, count, [(item, w / total)
                                         for item, w in zip(items, weights)])


def edit_stream(rng: random.Random, blocks: int, edits_per_warm: int = 3
                ) -> List[str]:
    """Closed-loop request kinds: blocks of ``edits_per_warm`` session
    edits plus one warm one-shot, each block in seeded order."""
    kinds: List[str] = []
    for _ in range(blocks):
        block = ["edit"] * edits_per_warm + ["warm"]
        rng.shuffle(block)
        kinds.extend(block)
    return kinds


def cli_pass(rng: random.Random, o1_apps: Sequence[str],
             o0_apps: Sequence[str], warm_reruns: int, colds: int
             ) -> List[Tuple[str, str]]:
    """One ``cli`` pass as ``(kind, app)`` steps, kind in cold/warm/o0.

    Each -O1 app contributes ``colds`` chains — one cold compile on a
    fresh cache, then ``warm_reruns`` warm reruns — and each -O0 app one
    run.  The chains are merged in a seeded uniformly random order that
    keeps every chain's own order.  Spreading an app's samples across
    the pass keeps their median from being set by whatever the machine
    did in one five-second stretch.
    """
    chains = [[("cold", app)] + [("warm", app)] * warm_reruns
              for app in o1_apps for _ in range(colds)] + [
                  [("o0", app)] for app in o0_apps]
    steps: List[Tuple[str, str]] = []
    while chains:
        # Picking a chain with probability proportional to its remaining
        # length draws every order-preserving merge equally often.
        chain = rng.choices(chains, weights=[len(c) for c in chains])[0]
        steps.append(chain.pop(0))
        if not chain:
            chains.remove(chain)
    return steps


def cycle(rng: random.Random, items: Sequence[str], count: int
          ) -> List[str]:
    """``count`` items taken round-robin from a seeded permutation, so
    every item appears equally often (within one) in any run."""
    order = list(items)
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(count)]
