"""Regression tests for the bench harness fixes.

Each of these failed before the fixes landed: a corrupt ``--check``
baseline crashed with a raw traceback, an empty or unmatched baseline
was silently skipped, and one crashing suite aborted the whole run
without writing any results.
"""

import io
import json

import pytest

import repro.perf.bench as bench
from repro.trace import Tracer


def _ok_suite(quick=False, registry=None):
    return 0.001, {"metric": 1}


def _boom_suite(quick=False, registry=None):
    raise RuntimeError("synthetic suite crash")


class TestBaselineHandling:
    def test_corrupt_baseline_is_one_line_error(self, capsys, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text("{definitely not json")
        rc = bench.main(["--check", str(baseline), "--no-write"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_non_mapping_baseline_is_rejected(self, capsys, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text("[1, 2, 3]")
        rc = bench.main(["--check", str(baseline), "--no-write"])
        assert rc == 2
        assert "suite -> result mapping" in capsys.readouterr().err

    def test_empty_baseline_warns(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "SUITES", {"ok": _ok_suite})
        baseline = tmp_path / "base.json"
        baseline.write_text("{}")
        rc = bench.main(["--check", str(baseline), "--no-write",
                         "--repeats", "1"])
        assert rc == 0
        assert "is empty" in capsys.readouterr().err

    def test_missing_baseline_still_skips(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setattr(bench, "SUITES", {"ok": _ok_suite})
        rc = bench.main(["--check", str(tmp_path / "none.json"),
                         "--no-write", "--repeats", "1"])
        assert rc == 0
        assert "regression check skipped" in capsys.readouterr().out


class TestCheckRegressions:
    def test_unmatched_baseline_suite_warns(self):
        out = io.StringIO()
        failed = bench.check_regressions(
            {"present": {"wall_seconds": 0.1}},
            {"present": {"wall_seconds": 0.1},
             "ghost": {"wall_seconds": 1.0}},
            out=out)
        assert failed == []
        assert "baseline suite 'ghost' not in results" in out.getvalue()

    def test_errored_suite_with_baseline_number_fails(self):
        out = io.StringIO()
        failed = bench.check_regressions(
            {"s": {"error": "RuntimeError: boom"}},
            {"s": {"wall_seconds": 0.5}},
            out=out)
        assert failed == ["s"]
        assert "suite errored" in out.getvalue()

    def test_regression_ratio_still_enforced(self):
        out = io.StringIO()
        failed = bench.check_regressions(
            {"s": {"wall_seconds": 1.0}},
            {"s": {"wall_seconds": 0.1}},
            ratio=2.0, out=out)
        assert failed == ["s"]
        assert "REGRESSION" in out.getvalue()


class TestCrashTolerantRun:
    def test_one_crashing_suite_does_not_abort(self, monkeypatch):
        monkeypatch.setattr(bench, "SUITES",
                            {"boom": _boom_suite, "ok": _ok_suite})
        out = io.StringIO()
        results = bench.run_suites(repeats=1, out=out)
        assert results["boom"] == {
            "error": "RuntimeError: synthetic suite crash"}
        assert results["ok"]["wall_seconds"] == pytest.approx(0.001)
        assert "boom: ERROR RuntimeError" in out.getvalue()

    def test_results_file_written_and_exit_nonzero(self, capsys,
                                                   monkeypatch,
                                                   tmp_path):
        monkeypatch.setattr(bench, "SUITES",
                            {"boom": _boom_suite, "ok": _ok_suite})
        out_file = tmp_path / "BENCH.json"
        rc = bench.main(["--output", str(out_file), "--repeats", "1"])
        assert rc == 1
        written = json.loads(out_file.read_text())
        assert "error" in written["boom"]
        assert "wall_seconds" in written["ok"]
        assert "1 suite(s) failed: boom" in capsys.readouterr().err

    def test_unknown_suite_still_exits(self):
        with pytest.raises(SystemExit, match="unknown bench suite"):
            bench.run_suites(["no-such-suite"], repeats=1,
                             out=io.StringIO())

    def test_unknown_suite_rejected_before_any_suite_runs(self,
                                                          monkeypatch):
        ran = []

        def counting_suite(quick=False, registry=None):
            ran.append(1)
            return 0.001, {}

        monkeypatch.setattr(bench, "SUITES", {"ok": counting_suite})
        with pytest.raises(SystemExit, match="'kernel_annealer'"):
            bench.run_suites(["ok", "kernel_annealer"], repeats=1,
                             out=io.StringIO())
        assert ran == []

    def test_traced_run_spans_each_repeat(self, monkeypatch):
        monkeypatch.setattr(bench, "SUITES", {"ok": _ok_suite})
        tracer = Tracer()
        bench.run_suites(repeats=2, out=io.StringIO(), tracer=tracer)
        spans = [e for e in tracer.events if e.kind == "span"]
        assert [s.name for s in spans] == ["suite:ok", "suite:ok"]
        assert [s.attrs["repeat"] for s in spans] == [0, 1]
        assert all("suite_wall_s" in s.attrs for s in spans)
