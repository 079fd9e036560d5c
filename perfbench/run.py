"""The user-path benchmark: ``python3 perfbench/run.py --workload NAME``.

Modes:

* one run (the default)::

      python3 perfbench/run.py --workload cli --seed 1 --seconds 30 --trace 0

  prints every metric by name with its unit (``metric`` lines), the
  operations attempted and failed, and as its last line one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` holding the
  end-to-end metrics (``--trace 0``) or the per-layer ones
  (``--trace 1``).  Several workloads may be named, comma-separated;
  each prints its own block and JSON line.
* steadiness::

      python3 perfbench/run.py --steadiness --workload serve_open --runs 5

  runs each workload ``--runs`` times with different seeds, each in a
  fresh process, and prints every end-to-end metric's run-to-run
  spread (inter-quartile range over the median) against its bound in
  ``BENCHMARK.json``.
* ``--record-expected`` rewrites ``perfbench/expected/expected.json``
  from the program: the output checks compare against that file.

Exits non-zero, printing no result, when the program cannot be run
(for instance when ``src/`` is missing) or a run cannot be completed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("cli", "edit_session", "serve_open")


def _prepare_imports() -> None:
    """Make ``perfbench`` and the checkout's ``repro`` importable."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        raise SystemExit(f"perfbench: no program at {ROOT}/src/repro; "
                         f"run from a full checkout")
    sys.path[:] = [p for p in sys.path
                   if os.path.abspath(p or ".") != HERE]
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> int:
    from perfbench import checks, workloads
    from perfbench.workloads import Run, SetupError

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
    try:
        run = Run(seed, seconds, traced, work, checks.load_expected())
        try:
            end_to_end, layers = getattr(workloads, workload)(run)
        except SetupError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            for problem in run.problems[:10]:
                print(f"  {problem}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = _benchmark_spec()
    group = spec["per_layer"] if traced else spec["end_to_end"]
    produced = layers if traced else end_to_end
    missing = [m["name"] for m in group if m["name"] not in produced]
    if missing:
        print(f"perfbench: {workload} produced no {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
               for m in group}

    print(f"workload {workload} seed {seed} seconds {seconds:g} "
          f"trace {int(traced)}")
    print(f"attempted {run.attempted} failed {run.failed}")
    for problem in run.problems[:20]:
        print(f"problem {problem}")
    for name, item in metrics.items():
        print(f"metric {name} {item['value']!r} {item['unit']}")
    for name, (value, unit, note) in run.report.items():
        if name in metrics:
            continue
        print(f"metric {name} {value!r} {unit} # {note}")
    correct = run.failed == 0 and not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def steadiness(names, runs: int, seconds: float, seed_base: int,
               traced: bool) -> int:
    """Run each workload ``runs`` times in fresh processes and print each
    metric's median, quartiles and spread against its bound."""
    from perfbench.stats import summary

    spec = _benchmark_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    worst = 0
    for name in names:
        values = {}
        for k in range(runs):
            seed = seed_base + k
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", f"{seconds:g}", "--trace", str(int(traced))]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                print(f"{name} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: output checks failed")
                worst = 1
            for line in lines:
                if line.startswith("metric "):
                    _, metric, value, _rest = line.split(" ", 3)
                    values.setdefault(metric, []).append(float(value))
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}"
                for m, v in result["metrics"].items()), flush=True)
        print(f"== {name}: {runs} runs of {seconds:g}s ==")
        print(f"{'metric':28s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>8s} {'bound':>6s}")
        for metric, series in values.items():
            s = summary(series)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and not traced:
                flag = " ok" if s["spread"] < bound / 3 else (
                    " within bound" if s["spread"] <= bound else " WIDE")
            print(f"{metric:28s} {s['median']:10.4g} {s['q1']:10.4g} "
                  f"{s['q3']:10.4g} {s['spread']:8.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
    return worst


def record_expected() -> int:
    """Record the expected outputs the checks compare against."""
    from perfbench import checks
    from perfbench.procs import Program
    from perfbench.workloads import EFFORT, O0_APPS, O1_APPS

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT)
    program = Program(work, traced=False)
    expected = {"o1": {}, "o0_run": {}, "o0_served": {}}
    try:
        for app in O1_APPS:
            cache = os.path.join(work, f"cache-{app}")
            entry = {}
            for label in ("cold", "warm"):
                path = os.path.join(work, f"{app}-{label}.json")
                done = program.cli(["compile", app, "--flow", "o1",
                                    "--effort", EFFORT, "--cache-dir", cache,
                                    "--manifest", path])
                if done.code:
                    raise SystemExit(done.stderr)
                with open(path) as handle:
                    manifest = json.load(handle)
                if entry.setdefault("manifest", manifest) != manifest:
                    raise SystemExit(f"{app}: warm manifest differs")
                entry[f"{label}_modeled"] = checks.modeled_line(done.stdout)
            expected["o1"][app] = entry
        for app in O0_APPS:
            done = program.cli(["run", app, "--flow", "o0",
                                "--effort", EFFORT])
            if done.code:
                raise SystemExit(done.stderr)
            expected["o0_run"][app] = checks.output_lines(done.stdout)
        daemon = program.daemon(os.path.join(work, "state"), [])
        try:
            daemon.wait_ready()
            with daemon.client() as client:
                _, payload = client.compile("spam-filter", flow="o0",
                                            effort=float(EFFORT))
                expected["o0_served"]["spam-filter"] = json.loads(payload)
                for app in O1_APPS:
                    _, payload = client.compile(app, flow="o1",
                                                effort=float(EFFORT))
                    if json.loads(payload) != expected["o1"][app]["manifest"]:
                        raise SystemExit(f"{app}: served manifest differs "
                                         f"from the CLI's")
        finally:
            daemon.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {checks.EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="cli",
                        help=f"comma-separated, from {', '.join(WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    names = [n for n in args.workload.split(",") if n]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or not names:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"choose from {', '.join(WORKLOADS)}")
    _prepare_imports()
    # A terminated run unwinds, so its cleanup stops the children it
    # started before the process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.record_expected:
        return record_expected()
    seconds = args.seconds if args.seconds is not None \
        else float(_benchmark_spec()["run_seconds"])
    if args.steadiness:
        return steadiness(names, args.runs, seconds, args.seed,
                          bool(args.trace))
    for name in names:
        try:
            code = run_once(name, args.seed, seconds, bool(args.trace))
        except Exception:
            traceback.print_exc()
            return 1
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
