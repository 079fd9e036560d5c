"""Span recording and self-time arithmetic for the traced run.

A :class:`Recorder` lives in each traced program process (see
``bootstrap.py``).  It keeps one stack of open spans per thread, so a
span's parent is the span that was open on the same thread when it
started.  Spans are kept in memory and written as JSON when the
process ends.

Work that resumes many times — a softcore ISS generator yielding at
every stream token — is recorded as *slices*: their durations are
summed per (parent, layer) and written as one record each, which keeps
memory bounded however many tokens flow.

:func:`self_times` turns records into per-record self time: a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

#: One clock for every process: spans from the daemon and the client's
#: send/receive times are compared, and CLOCK_MONOTONIC is system-wide.
clock = time.monotonic


class Recorder:
    """In-memory span store for one process."""

    def __init__(self):
        self.records: List[Dict[str, Any]] = []
        self._slices: Dict[tuple, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> int:
        stack = self._stack()
        record = {"layer": layer, "start": clock(), "end": None,
                  "parent": stack[-1] if stack else None,
                  "thread": threading.get_ident()}
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        return index

    def exit(self, index: int, **attrs) -> None:
        record = self.records[index]
        record["end"] = clock()
        if attrs:
            record.update(attrs)
        stack = self._stack()
        if index in stack:
            del stack[stack.index(index):]

    def add_slice(self, layer: str, seconds: float) -> None:
        """Charge one slice of ``layer`` time to the open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            total = self._slices.setdefault((parent, layer), [0.0, 0])
            total[0] += seconds
            total[1] += 1

    def export(self) -> List[Dict[str, Any]]:
        """Finished spans plus one record per slice aggregate, each with
        ``id``, ``parent``, ``layer`` and ``dur``."""
        out = []
        for index, record in enumerate(self.records):
            if record["end"] is None:
                continue
            item = dict(record)
            item["id"] = index
            item["dur"] = record["end"] - record["start"]
            out.append(item)
        for n, ((parent, layer), (seconds, count)) in enumerate(
                sorted(self._slices.items(), key=lambda kv: str(kv[0]))):
            out.append({"id": f"slice{n}", "parent": parent,
                        "layer": layer, "dur": seconds, "calls": count,
                        "slice": True})
        return out


def namespaced(records: Iterable[Dict[str, Any]], prefix: str
               ) -> List[Dict[str, Any]]:
    """Copies of one process's records with ids made unique by
    ``prefix``, so records of several processes can be mixed."""
    out = []
    for record in records:
        item = dict(record)
        item["id"] = f"{prefix}:{record['id']}"
        if record.get("parent") is not None:
            item["parent"] = f"{prefix}:{record['parent']}"
        out.append(item)
    return out


def self_times(records: Iterable[Dict[str, Any]]) -> Dict[Any, float]:
    """Self time per record id: duration minus direct children's.

    Children are the records naming the record as ``parent``.  A child
    whose parent is unknown (it started on a thread with no open span)
    is a root and subtracts from nothing.
    """
    records = list(records)
    child_time: Dict[Any, float] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + record["dur"]
    return {record["id"]: record["dur"] - child_time.get(record["id"], 0.0)
            for record in records}


def roots(records: Iterable[Dict[str, Any]]) -> Dict[Any, Any]:
    """Map each record id to the id of its outermost ancestor."""
    records = list(records)
    parent_of = {r["id"]: r.get("parent") for r in records}
    found: Dict[Any, Any] = {}
    for rid in parent_of:
        chain = [rid]
        node = rid
        while parent_of.get(node) is not None and node not in found:
            node = parent_of[node]
            chain.append(node)
        top = found.get(node, node)
        for item in chain:
            found[item] = top
    return found


def layer_totals(records: Iterable[Dict[str, Any]],
                 selves: Optional[Dict[Any, float]] = None
                 ) -> Dict[str, Dict[str, float]]:
    """Per-layer self seconds and call counts over ``records``."""
    records = list(records)
    if selves is None:
        selves = self_times(records)
    totals: Dict[str, Dict[str, float]] = {}
    for record in records:
        entry = totals.setdefault(record["layer"],
                                  {"self_s": 0.0, "calls": 0})
        entry["self_s"] += selves[record["id"]]
        entry["calls"] += record.get("calls", 1)
    return totals


def write(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


def load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)
