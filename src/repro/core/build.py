"""Incremental build engine (the paper's Makefile discipline, Sec. 6).

PLD sets up Makefiles so only pages whose logic changed are recompiled.
Here the same effect comes from content hashing: every build step is a
node keyed by a hash of its inputs (operator IR, target, page type,
tool options).  Unchanged keys hit the :class:`BuildCache`; changed
keys rebuild and record what work was done — tests assert the paper's
claim that a one-operator edit recompiles exactly one page.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import BuildError
from repro.hls.ir import Block, If, Instr, Loop, OperatorSpec, Value
from repro.trace import NULL_TRACER


def _stable(obj) -> object:
    """Convert IR / arbitrary structures to hashable JSON-safe values."""
    if isinstance(obj, OperatorSpec):
        return {
            "name": obj.name,
            "inputs": obj.inputs,
            "outputs": obj.outputs,
            "vars": [(v.name, v.width, v.signed, v.init)
                     for v in obj.variables],
            "arrays": [(a.name, a.depth, a.width, a.signed,
                        list(a.init) if a.init else None, a.partition)
                       for a in obj.arrays],
            "body": _stable(obj.body),
        }
    if isinstance(obj, Block):
        return [_stable(item) for item in obj.items]
    if isinstance(obj, Loop):
        return ["loop", obj.name, obj.trip, obj.var, obj.pipeline,
                obj.unroll, _stable(obj.body)]
    if isinstance(obj, If):
        return ["if", _stable(obj.cond), _stable(obj.then),
                _stable(obj.orelse)]
    if isinstance(obj, Instr):
        return [obj.kind, _stable(obj.result),
                [_stable(a) for a in obj.args],
                {k: _stable(v) for k, v in sorted(obj.attrs.items())}]
    if isinstance(obj, Value):
        return ["v", obj.name, obj.width, obj.signed]
    if isinstance(obj, (list, tuple)):
        return [_stable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _stable(v) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise BuildError(f"unhashable build input of type {type(obj).__name__}")


#: id(spec) -> (that OperatorSpec object's canonical JSON text, the
#: content keys already computed with it).  Each entry is removed by a
#: ``weakref.finalize`` when its spec is collected, so the map only
#: ever holds live specs; an edited copy (``dataclasses.replace``) is a
#: new object and starts without one.  Sound because specs are never
#: mutated in place once built.
_ENCODINGS: Dict[int, Tuple[str, Dict[Tuple, str]]] = {}


def _spec_entry(spec: OperatorSpec) -> Tuple[str, Dict[Tuple, str]]:
    entry = _ENCODINGS.get(id(spec))
    if entry is None:
        entry = (json.dumps(_stable(spec), sort_keys=True), {})
        _ENCODINGS[id(spec)] = entry
        weakref.finalize(spec, _ENCODINGS.pop, id(spec), None)
    return entry


def _encode(obj) -> str:
    """``json.dumps(_stable(obj), sort_keys=True)``, computed once per
    OperatorSpec object.

    Lists and tuples are joined from their items' encodings with the
    separators ``json.dumps`` uses, so the text is byte-identical to
    encoding the whole structure at once.
    """
    if isinstance(obj, OperatorSpec):
        return _spec_entry(obj)[0]
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(item) for item in obj) + "]"
    return json.dumps(_stable(obj), sort_keys=True)


#: Cap on the keys memoized per spec.  Registry specs live as long as
#: the process, and each distinct (effort, seed, ...) a client sends
#: adds a key, so a long-lived daemon's memo must stay bounded.
MEMO_KEYS_PER_SPEC = 64


def content_key(*parts) -> str:
    """Hash arbitrary build inputs into a cache key.

    A step's parts are one operator spec plus a few scalars.  The key
    is memoized on the spec's entry under the spec's positions and the
    encoding of the other parts, so a warm step does not re-hash the
    spec's (possibly ~100 KB) text.
    """
    spec = next((p for p in parts if isinstance(p, OperatorSpec)), None)
    if spec is None:
        return _digest(parts)
    slot = (tuple(i for i, p in enumerate(parts) if p is spec),
            _encode(tuple(None if p is spec else p for p in parts)))
    memo = _spec_entry(spec)[1]
    key = memo.get(slot)
    if key is None:
        if len(memo) >= MEMO_KEYS_PER_SPEC:
            memo.clear()
        key = memo[slot] = _digest(parts)
    return key


def _digest(parts) -> str:
    return hashlib.sha256(_encode(parts).encode()).hexdigest()[:24]


class BuildCache:
    """Bounded in-memory content-addressed cache (LRU eviction).

    Args:
        max_entries: cap on cached artefacts (None = unbounded).
        max_bytes: cap on the summed pickled size of cached artefacts
            (None = no byte accounting; sizes are only computed when a
            byte limit is set).

    A lookup counts a hit or a miss in :meth:`get`; :meth:`put` only
    inserts, so warming the cache externally never inflates the miss
    count (hit-rate stats stay honest).
    """

    def __init__(self, max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None):
        self.entries: "OrderedDict[str, Any]" = OrderedDict()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.total_bytes = 0
        self._sizes: Dict[str, int] = {}

    def peek(self, key: str):
        """Lookup without touching the hit/miss counters (LRU still
        refreshes, so the entry stays warm)."""
        if key in self.entries:
            self.entries.move_to_end(key)
            return self.entries[key]
        return None

    def get(self, key: str):
        artefact = self.peek(key)
        if artefact is not None:
            self.hits += 1
            return artefact
        self.misses += 1
        return None

    def put(self, key: str, artefact) -> None:
        if key in self.entries:
            self.total_bytes -= self._sizes.pop(key, 0)
            del self.entries[key]
        self.entries[key] = artefact
        if self.max_bytes is not None:
            size = len(pickle.dumps(artefact,
                                    protocol=pickle.HIGHEST_PROTOCOL))
            self._sizes[key] = size
            self.total_bytes += size
        self._evict()

    def _evict(self) -> None:
        while ((self.max_entries is not None
                and len(self.entries) > self.max_entries)
               or (self.max_bytes is not None
                   and self.total_bytes > self.max_bytes
                   and len(self.entries) > 1)):
            victim, _ = self.entries.popitem(last=False)
            self.total_bytes -= self._sizes.pop(victim, 0)
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counters for reports: hits/misses/evictions/entries."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self.entries)}

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class BuildRecord:
    """What one engine invocation actually did."""

    built: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    #: Subset of ``reused`` skipped via the build journal of a resumed
    #: invocation (the crash-recovery "what --resume saved you" set).
    resumed: List[str] = field(default_factory=list)
    #: step name -> content key it resolved to (the build manifest's
    #: raw material; keys are stable across processes).
    keys: Dict[str, str] = field(default_factory=dict)
    #: step name -> wall seconds the builder ran (cache hits absent;
    #: for process-parallel execution this is the parent-observed wait,
    #: so concurrent steps overlap).
    build_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def rebuild_count(self) -> int:
        return len(self.built)


@dataclass(frozen=True)
class BatchStep:
    """One entry of :meth:`BuildEngine.step_batch`.

    Unlike the closure passed to :meth:`BuildEngine.step`, the work is
    described as ``fn(*args, **kwargs)`` with a module-level ``fn`` so a
    process-parallel engine can ship it to a worker (everything must
    pickle); the base engine simply calls it in-process.
    """

    name: str
    key_parts: Tuple
    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)


class BuildEngine:
    """Runs build steps through a cache.

    A *step* is ``(name, key_parts, builder)``; the builder only runs
    when the content key misses.  The engine records which names were
    rebuilt vs. reused so flows can report incremental behaviour.

    ``cache`` is anything with the ``get(key)/put(key, artefact)``
    contract: the in-memory :class:`BuildCache` (default) or a
    persistent :class:`repro.store.ArtifactStore`, which makes cache
    hits survive across processes.

    ``tracer`` is an optional :class:`repro.trace.Tracer`: every step
    then becomes a wall-clock span (cache hits become instants) on the
    ``build`` lane, and the flows pick the tracer up from the engine to
    trace their own phases and cluster schedules.

    The remaining arguments form the supervision layer
    (:mod:`repro.resilience`); all default to None, and the disabled
    path is a strict no-op:

    * ``journal`` — a :class:`~repro.resilience.BuildJournal`; every
      cache-miss step is journaled begin/end (fail on a raising
      builder), and a resumed journal turns matching cache hits into
      ``resume-skip`` instants plus :attr:`BuildRecord.resumed` entries.
    * ``deadline`` — a :class:`~repro.resilience.Deadline`; checked
      before each builder runs, so expiry raises a structured
      :class:`~repro.errors.DeadlineExceeded` carrying the partial
      results while every finished artefact stays banked in the cache.
    * ``breaker`` — a :class:`~repro.resilience.CircuitBreaker`; a step
      whose builder keeps crashing fast-fails with
      :class:`~repro.errors.CircuitOpenError` instead of rerunning.
    * ``crash_plan`` — a :class:`repro.faults.CrashPlan`; the
      crash-injection harness for the resume tests.
    """

    def __init__(self, cache=None, tracer=None, journal=None,
                 deadline=None, breaker=None, crash_plan=None,
                 owns_cache: bool = True):
        self.cache = cache if cache is not None else BuildCache()
        #: Whether close() may close the cache.  A service sharing one
        #: store across many per-request engines passes False so a
        #: request ending never tears down the shared store.
        self.owns_cache = owns_cache
        self.record = BuildRecord()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal
        self.deadline = deadline
        self.breaker = breaker
        self.crash_plan = crash_plan
        self._closed = False

    def _hit(self, name: str, key: str, artefact):
        """Bookkeeping for one cache hit (shared with the parallel
        engine): record reuse, resume-skip accounting, trace instant."""
        self.record.reused.append(name)
        if self.journal is not None and self.journal.can_skip(name, key):
            self.record.resumed.append(name)
            self.tracer.instant(f"resume-skip:{name}", category="build",
                                lane="build", cache="hit", key=key,
                                resumed=True)
        else:
            self.tracer.instant(name, category="build", lane="build",
                                cache="hit", key=key)
        return artefact

    def _check_supervision(self, name: str, key: str) -> None:
        """Deadline and breaker gates before a builder may run."""
        if self.deadline is not None:
            self.deadline.check(
                name,
                completed=self.record.built + self.record.reused,
                pending=[name])
        if self.breaker is not None:
            try:
                self.breaker.check(name)
            except Exception:
                self.tracer.instant(f"breaker-open:{name}",
                                    category="build", lane="build",
                                    key=key,
                                    failures=self.breaker.failures(name))
                raise

    def step(self, name: str, key_parts: Tuple, builder: Callable[[], Any]):
        key = content_key(name, *key_parts)
        self.record.keys[name] = key
        artefact = self.cache.get(key)
        if artefact is not None:
            return self._hit(name, key, artefact)
        self._check_supervision(name, key)
        if self.crash_plan is not None:
            self.crash_plan.maybe_crash("begin", name)
        if self.journal is not None:
            self.journal.begin_step(name, key)
        try:
            with self.tracer.span(name, category="build", lane="build",
                                  cache="miss", key=key):
                start = time.perf_counter()
                artefact = builder()
                self.record.build_seconds[name] = \
                    time.perf_counter() - start
        except Exception as exc:
            if self.breaker is not None:
                self.breaker.record_failure(name)
            if self.journal is not None:
                self.journal.fail_step(name, key, error=repr(exc))
            raise
        if artefact is None:
            raise BuildError(f"builder for {name!r} returned None")
        if self.crash_plan is not None:
            self.crash_plan.maybe_crash("mid", name)
        self.cache.put(key, artefact)
        if self.crash_plan is not None:
            self.crash_plan.maybe_crash("end", name)
        if self.journal is not None:
            self.journal.end_step(name, key)
        if self.breaker is not None:
            self.breaker.record_success(name)
        self.record.built.append(name)
        return artefact

    def step_batch(self, steps: Iterable[Union[BatchStep, Tuple]]
                   ) -> List[Any]:
        """Run independent build steps; return their artefacts in order.

        Steps must not depend on one another's artefacts — flows batch
        one dependency layer at a time (all front-end steps, then all
        page-implementation steps).  The base engine runs them serially
        in list order, so records and cache traffic are identical to a
        loop of :meth:`step` calls; :class:`repro.core.parallel.
        ParallelBuildEngine` overrides this to fan misses out to worker
        processes.
        """
        out: List[Any] = []
        for s in steps:
            if not isinstance(s, BatchStep):
                s = BatchStep(*s)
            out.append(self.step(
                s.name, s.key_parts,
                lambda s=s: s.fn(*s.args, **s.kwargs)))
        return out

    def cache_stats(self) -> Dict[str, int]:
        """The cache's counters, whatever its implementation."""
        stats = getattr(self.cache, "stats", None)
        if callable(stats):
            return dict(stats())
        return {"hits": getattr(self.cache, "hits", 0),
                "misses": getattr(self.cache, "misses", 0),
                "evictions": getattr(self.cache, "evictions", 0)}

    def fresh_record(self) -> None:
        """Start a new invocation record (same cache)."""
        self.record = BuildRecord()

    def close(self) -> None:
        """Release engine resources (idempotent).

        The base engine only owns its cache; a cache with a ``close``
        of its own — the remote :class:`repro.store.remote.
        ShardedStoreClient` and its socket pools — is shut down here,
        so every CLI path that closes its engine also closes the
        store's connections.  A second close is a strict no-op (a
        long-running service opens and closes engines per request).
        """
        if self._closed:
            return
        self._closed = True
        if not self.owns_cache:
            return
        close = getattr(self.cache, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "BuildEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
