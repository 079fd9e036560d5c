"""Process-parallel build execution.

The paper's cluster runs independent page compiles on separate machines
(Sec. 6); :class:`ParallelBuildEngine` does the same on one machine with
a ``concurrent.futures.ProcessPoolExecutor``.  Only the *execution* is
parallel: step keys, cache traffic and artefacts are exactly those of
the serial :class:`~repro.core.build.BuildEngine`, and the *modeled*
compile time still comes from the :class:`~repro.core.cluster.
CompileCluster` schedule — the reported makespan is unchanged while the
real wall-clock drops with the worker count.

Dependency layering is the caller's job: a ``step_batch`` must contain
mutually independent steps (flows batch the front end, then the page
implementations), which is why the engine never needs a scheduler — the
step-key graph already partitioned the work.

A crashed or poisoned worker is not fatal: the failed step is retried
in-process (``worker_retries`` counts these), so deterministic builder
errors surface with a clean parent traceback instead of a hang, and a
``BrokenProcessPool`` just degrades the batch to serial execution.
"""

from __future__ import annotations

import os
import time
from typing import (TYPE_CHECKING, Any, Iterable, List, Optional, Tuple,
                    Union)

from repro.errors import BuildError
from repro.core.build import BatchStep, BuildEngine, content_key

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


def _run_step(fn, args, kwargs):
    """Module-level trampoline so only (fn, args, kwargs) must pickle."""
    return fn(*args, **kwargs)


class ParallelBuildEngine(BuildEngine):
    """A :class:`BuildEngine` whose batches run on worker processes.

    Args:
        cache: same contract as :class:`BuildEngine` (in-memory cache or
            a persistent :class:`repro.store.ArtifactStore`).  Lookups
            and inserts happen in the parent only, so a store's files
            are never written concurrently.
        workers: worker process count (default ``os.cpu_count()``).
            ``workers <= 1`` keeps everything in-process.

    The pool is created lazily on the first batch with cache misses and
    survives across batches; call :meth:`close` (or use the engine as a
    context manager) to reap the workers.
    """

    def __init__(self, cache=None, workers: Optional[int] = None,
                 tracer=None, journal=None, deadline=None, breaker=None,
                 crash_plan=None, pool: Optional[ProcessPoolExecutor] = None,
                 owns_cache: bool = True):
        super().__init__(cache, tracer=tracer, journal=journal,
                         deadline=deadline, breaker=breaker,
                         crash_plan=crash_plan, owns_cache=owns_cache)
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        #: Steps that failed on a worker and were re-run in-process.
        self.worker_retries = 0
        self._pool: Optional[ProcessPoolExecutor] = pool
        #: A pool passed in is *borrowed* (the compile service shares
        #: one pool across per-request engines): close() leaves it
        #: running, and a poisoned borrowed pool is dropped without a
        #: shutdown wait (the owner reaps it).
        self._owns_pool = pool is None

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # Imported here: only a batch with misses and ``workers > 1``
        # needs ``multiprocessing``, so a serial engine never loads it.
        from concurrent.futures import ProcessPoolExecutor

        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._owns_pool = True
        return self._pool

    def _drop_pool(self) -> None:
        if self._pool is not None:
            if self._owns_pool:
                self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the worker pool down if owned (idempotent); also closes
        a closeable cache via the base engine."""
        if self._pool is not None:
            if self._owns_pool:
                self._pool.shutdown()
            self._pool = None
        super().close()

    def __enter__(self) -> "ParallelBuildEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- batched execution -------------------------------------------------

    def step_batch(self, steps: Iterable[Union[BatchStep, Tuple]]
                   ) -> List[Any]:
        steps = [s if isinstance(s, BatchStep) else BatchStep(*s)
                 for s in steps]
        if self.workers <= 1 or len(steps) <= 1:
            return super().step_batch(steps)

        results: List[Any] = [None] * len(steps)
        misses: List[Tuple[int, BatchStep, str]] = []
        followers: List[Tuple[int, BatchStep, str]] = []
        pending = set()
        for pos, s in enumerate(steps):
            key = content_key(s.name, *s.key_parts)
            self.record.keys[s.name] = key
            if key in pending:
                # A duplicate key inside one batch: the serial engine
                # would hit the cache once the first build lands, so
                # resolve it after the gather instead of building twice.
                followers.append((pos, s, key))
                continue
            artefact = self.cache.get(key)
            if artefact is not None:
                results[pos] = self._hit(s.name, key, artefact)
            else:
                pending.add(key)
                misses.append((pos, s, key))

        if misses:
            self._gather(misses, results)
        for pos, s, key in followers:
            artefact = self.cache.get(key)
            if artefact is None:           # evicted between put and get
                artefact = self._build_local(s)
                self.cache.put(key, artefact)
                self.record.built.append(s.name)
            else:
                self.record.reused.append(s.name)
            results[pos] = artefact
        return results

    def _gather(self, misses, results) -> None:
        from concurrent.futures.process import BrokenProcessPool

        # Supervision gates fire before any work ships: an expired
        # deadline or an open breaker fails the batch with no futures
        # in flight, and the journal records every step about to build.
        for _pos, s, key in misses:
            self._check_supervision(s.name, key)
            if self.crash_plan is not None:
                self.crash_plan.maybe_crash("begin", s.name)
            if self.journal is not None:
                self.journal.begin_step(s.name, key)
        futures = None
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(_run_step, s.fn, s.args, s.kwargs)
                       for _pos, s, _key in misses]
        except Exception:
            # Submission itself failed (unpicklable work, dead pool):
            # everything falls back to in-process execution below.
            self._drop_pool()
            futures = None
        for i, (pos, s, key) in enumerate(misses):
            artefact = None
            retried = False
            trace_t0 = self.tracer.now() if self.tracer.enabled else 0.0
            start = time.perf_counter()
            if futures is not None:
                try:
                    artefact = futures[i].result()
                except BrokenProcessPool:
                    # The pool is poisoned; every remaining future fails
                    # instantly, and each step retries in-process.
                    self.worker_retries += 1
                    retried = True
                    self._drop_pool()
                except Exception:
                    self.worker_retries += 1
                    retried = True
            if artefact is None:
                try:
                    artefact = self._build_local(s)
                except Exception as exc:
                    if self.breaker is not None:
                        self.breaker.record_failure(s.name)
                    if self.journal is not None:
                        self.journal.fail_step(s.name, key,
                                               error=repr(exc))
                    raise
            elapsed = time.perf_counter() - start
            self.record.build_seconds[s.name] = elapsed
            if self.tracer.enabled:
                # Parent-observed wait on the worker's lane; concurrent
                # steps overlap, so the lanes read like the pool did.
                self.tracer.wall_span(
                    s.name, trace_t0, elapsed, category="build",
                    lane=f"worker-{i % max(1, self.workers)}",
                    cache="miss", key=key, worker_retry=retried)
            if artefact is None:
                raise BuildError(
                    f"builder for {s.name!r} returned None")
            if self.crash_plan is not None:
                self.crash_plan.maybe_crash("mid", s.name)
            self.cache.put(key, artefact)
            if self.crash_plan is not None:
                self.crash_plan.maybe_crash("end", s.name)
            if self.journal is not None:
                self.journal.end_step(s.name, key)
            if self.breaker is not None:
                self.breaker.record_success(s.name)
            self.record.built.append(s.name)
            results[pos] = artefact

    @staticmethod
    def _build_local(s: BatchStep):
        """In-process retry: deterministic builder errors raise here
        with an ordinary traceback."""
        return s.fn(*s.args, **s.kwargs)
