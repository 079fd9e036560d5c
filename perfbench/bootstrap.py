"""Traced entry point: ``python3 perfbench/bootstrap.py SPANS pld-args...``.

Runs ``repro.cli.main(pld-args)`` in this process after wrapping each
layer's public functions with a span, and writes the spans to the JSON
file ``SPANS`` when ``main`` returns.  Functions are rebound wherever
their callers bound them: in the defining module, on the class for
methods, and in every loaded ``repro`` module that imported the
function by name.

The program's own code is not touched; the spans sit at the calls
into each layer.  The cost of one span is calibrated at exit, so the
reader can tell how much of the traced time the tracing itself added.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (layer, module, attribute path) of every wrapped entry point.
TARGETS = [
    ("rosetta.get_app", "repro.rosetta.base", "get_app"),
    ("core.content_key", "repro.core.build", "content_key"),
    ("core.step", "repro.core.build", "BuildEngine.step"),
    ("store.get", "repro.store.artifact", "ArtifactStore.get"),
    ("store.put", "repro.store.artifact", "ArtifactStore.put"),
    ("store.get", "repro.store.remote.client", "ShardedStoreClient.get"),
    ("store.put", "repro.store.remote.client", "ShardedStoreClient.put"),
    ("hls", "repro.hls.estimate", "estimate_operator"),
    ("hls", "repro.hls.schedule", "schedule_operator"),
    ("hls", "repro.hls.netlist", "synthesize_netlist"),
    ("hls", "repro.hls.verilog", "emit_verilog"),
    ("pnr", "repro.pnr.compile_model", "implement_design"),
    ("pnr.place", "repro.pnr.placer", "place"),
    ("pnr.route", "repro.pnr.router", "route"),
    ("softcore.compile", "repro.softcore.compiler", "compile_operator"),
    ("softcore.iss", "repro.softcore.cpu", "PicoRV32.run"),
    ("softcore.iss", "repro.softcore.cpu", "PicoRV32.run_as_operator"),
    ("noc", "repro.noc.netsim", "NetworkSimulator.run"),
    ("dataflow", "repro.dataflow.simulator", "FunctionalSimulator.run"),
    ("dataflow", "repro.dataflow.cycle_sim", "CycleSimulator.run"),
    ("service.submit", "repro.service.core", "CompileService.submit"),
    ("service.exec", "repro.service.core", "CompileService._execute"),
]

#: Entry points that are generator functions: each resume is a slice.
GENERATORS = {"PicoRV32.run_as_operator"}


def _details(layer, args, result, before):
    """Per-layer attributes recorded on a finished span."""
    if layer == "store.get":
        return {"hit": result is not None}
    if layer == "core.step":
        return {"hit": len(args[0].record.built) == before}
    if layer == "service.submit":
        return {"ticket": str(result)}
    return {}


def _before(layer, args):
    if layer == "core.step":
        return len(args[0].record.built)
    if layer == "service.exec":
        ticket = args[1]
        started = ticket.started if ticket.started is not None \
            else time.monotonic()
        return {"ticket": ticket.id,
                "queue_wait": max(0.0, started - ticket.submitted),
                "brownout": bool(ticket.brownout),
                "tenant": ticket.request.tenant}
    return None


def wrap_call(fn, layer, recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = _before(layer, args)
        index = recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.exit(index, error=type(exc).__name__)
            raise
        attrs = _details(layer, args, result, before)
        if isinstance(before, dict):
            attrs.update(before)
        recorder.exit(index, **attrs)
        return result
    return wrapper


def wrap_generator(fn, layer, recorder):
    """Wrap a generator function: time only the generator's own running
    between resumes, charged as slices to the span open at resume."""
    clock = time.monotonic

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        value, error = None, None
        while True:
            start = clock()
            try:
                request = inner.throw(error) if error is not None \
                    else inner.send(value)
            except StopIteration as stop:
                recorder.add_slice(layer, clock() - start)
                return stop.value
            except BaseException:
                recorder.add_slice(layer, clock() - start)
                raise
            recorder.add_slice(layer, clock() - start)
            value, error = None, None
            try:
                value = yield request
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:
                error = exc
    return wrapper


def install(recorder):
    """Wrap every target where it is defined and where it was imported."""
    for layer, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        make = wrap_generator if path in GENERATORS else wrap_call
        wrapped = make(original, layer, recorder)
        setattr(owner, attr, wrapped)
        if owner_name:
            continue                     # methods resolve via the class
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is module:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def calibrate(rounds: int = 4000):
    """Seconds one span and one slice add, measured in this process."""
    from perfbench.spans import Recorder, clock

    def noop():
        return None

    recorder = Recorder()
    wrapped = wrap_call(noop, "calibration", recorder)
    start = clock()
    for _ in range(rounds):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(rounds):
        wrapped()
    per_span = max(0.0, (clock() - start - bare) / rounds)
    start = clock()
    for _ in range(rounds):
        t = clock()
        recorder.add_slice("calibration", clock() - t)
    per_slice = (clock() - start) / rounds
    return per_span, per_slice


def main(argv):
    if len(argv) < 2:
        print("usage: bootstrap.py SPANS_FILE pld-args...", file=sys.stderr)
        return 2
    spans_path, pld_args = argv[0], argv[1:]
    script_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path
                   if os.path.abspath(p or ".") != script_dir]
    sys.path.insert(0, ROOT)
    from perfbench.spans import Recorder, clock, write

    start = clock()
    import repro.cli
    imported = clock()
    recorder = Recorder()
    install(recorder)
    code = 1
    try:
        code = repro.cli.main(pld_args)
    finally:
        main_end = clock()
        per_span, per_slice = calibrate()
        write(spans_path, {
            "import_start": start, "import_end": imported,
            "main_end": main_end, "records": recorder.export(),
            "per_span_s": per_span, "per_slice_s": per_slice})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
