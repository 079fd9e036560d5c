"""The per-process Rosetta app registry and the rule that makes it safe.

``get_app`` builds each app once per process and hands every caller —
CLI verbs, daemon requests, tenants — the same object.  That is only
sound if no compile, edit or run ever mutates an app, so the guard
below fingerprints every spec and every sample input *without* the
build engine's encoding cache, runs each flow over the shared app, and
checks that nothing moved.
"""

import hashlib
import json
import threading
import time

import pytest

from repro.cli import main
from repro.core import (
    BuildEngine,
    IncrementalSession,
    O0Flow,
    O1Flow,
    O3Flow,
    touch_spec,
)
from repro.core.build import _stable
from repro.errors import FlowError
from repro.rosetta import all_apps, get_app
from repro.rosetta import base
from repro.rosetta.base import APP_MODULES
from repro.trace import Tracer

APP = "3d-rendering"
EFFORT = 0.05
NAMES = ("3d-rendering", "digit-recognition", "spam-filter",
         "optical-flow", "face-detection", "bnn")


def fingerprint(app):
    """Uncached digests of every spec, the mapping and the inputs."""
    def digest(obj):
        return hashlib.sha256(
            json.dumps(_stable(obj), sort_keys=True).encode()).hexdigest()

    ops = {name: (digest(op.hls_spec), digest(op.sample_spec),
                  op.target, op.page)
           for name, op in app.project.graph.operators.items()}
    return ops, digest(app.project.sample_inputs)


class TestRegistry:
    def test_same_object_every_call(self):
        assert get_app(APP) is get_app(APP)
        assert all_apps()[APP] is get_app(APP)

    def test_unknown_name_lists_all_six(self):
        with pytest.raises(FlowError) as info:
            get_app("not-an-app")
        for name in NAMES:
            assert repr(name) in str(info.value)

    def test_all_apps_keeps_its_order(self):
        assert tuple(all_apps()) == NAMES == tuple(APP_MODULES)

    def test_each_module_builds_its_registered_name(self):
        for name, app in all_apps().items():
            assert app.name == name

    def test_app_construction_is_a_traced_span(self, monkeypatch):
        monkeypatch.setattr(base, "_BUILT", {})
        tracer = Tracer()
        first = get_app(APP, tracer=tracer)
        assert get_app(APP, tracer=tracer) is first
        spans = [e for e in tracer.events if e.kind == "span"]
        assert [(e.name, e.category, e.attrs["cache"]) for e in spans] == [
            (f"app:{APP}", "app", "miss"), (f"app:{APP}", "app", "hit")]

    def test_concurrent_first_requests_build_once(self, monkeypatch):
        import repro.rosetta.rendering as rendering

        monkeypatch.setattr(base, "_BUILT", {})
        calls = []
        original = rendering.build

        def slow_build():
            calls.append(1)
            time.sleep(0.05)
            return original()

        monkeypatch.setattr(rendering, "build", slow_build)
        got = []
        threads = [threading.Thread(target=lambda: got.append(get_app(APP)))
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert len(got) == 4 and all(app is got[0] for app in got)


def run_o0(capsys):
    assert main(["run", APP, "--flow", "o0", "--effort", str(EFFORT)]) == 0
    return capsys.readouterr().out


class TestSharedAppsAreNeverMutated:
    def test_compiles_edits_and_runs_leave_the_app_unchanged(self, capsys):
        app = get_app(APP)
        before = fingerprint(app)
        engine = BuildEngine()
        for flow in (O0Flow, O1Flow, O3Flow):
            flow(effort=EFFORT).compile(app.project, engine)
        with IncrementalSession(effort=EFFORT) as session:
            session.compile(app.project)
            name, op = next(iter(app.project.graph.operators.items()))
            session.apply_edit(name, touch_spec(op.hls_spec),
                               op.sample_spec)
        first = run_o0(capsys)
        assert fingerprint(app) == before
        assert get_app(APP) is app
        assert run_o0(capsys) == first
