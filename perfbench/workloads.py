"""The three workloads: ``cli``, ``edit_session`` and ``serve_open``.

Each workload function takes a :class:`Run` and returns
``(end_to_end, layers)``: the contract metrics measured with tracing
off, and — in a traced run — the per-layer metrics built from the
program's spans.  Along the way it fills ``run.report`` with the
named metrics a reader of README.md expects (``cli_cold_o1_s``,
``edit_tail_s``, ``serve_goodput``, ...), which ``run.py`` prints.

Every operation's output is checked (:mod:`perfbench.checks`); a wrong
output, a refusal or a shed request counts as a failed operation.  A
refused or shed request has no latency; a wrong answer is still timed,
since the user waited for it.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import checks, schedule, spans
from perfbench.procs import Program
from perfbench.spans import clock
from perfbench.stats import geomean, median, tail

EFFORT = "0.05"
#: -O1 apps: the three whose cold compile fits a run (face-detection's
#: takes ~89 s; 3d-rendering and bnn are left to the -O0 path).
O1_APPS = ("digit-recognition", "optical-flow", "spam-filter")
#: -O0 ``pld run`` apps: one with a golden model, one softcore-bound.
O0_APPS = ("digit-recognition", "bnn")
#: Cold compiles of each -O1 app in a ``cli`` pass, each on its own
#: fresh cache dir, and the warm reruns on that dir after each.
COLD_COMPILES = 2
WARM_RERUNS = 2
#: Runs do a fixed amount of work, sized so that it takes about
#: ``--seconds`` on a 2-core container: a ``cli`` pass takes ~50 s and
#: an ``edit_session`` request ~1 s.  A time-bounded loop would do more
#: work on a fast stretch of a shared machine than on a slow one, and
#: the daemon's resident set grows ~1 MB per request, so its peak would
#: follow the machine's speed rather than the program's.
CLI_PASS_S = 50.0
EDIT_REQUESTS_PER_S = 1.0
#: A run stops sending after this many times ``--seconds``, so a much
#: slower program still ends within the run's time limit.
OVERRUN = 2.5
#: Daemon set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``serve_open`` arrival rate (requests/second) and its request mix.
SERVE_RATE = 0.3
SERVE_MIX = (("warm", 0.55), ("edit", 0.35), ("batch", 0.10))
SERVE_MAX_QUEUED = "8"
#: A served request counts toward goodput if it completes OK this fast.
GOOD_LATENCY_S = 3.0
#: Seconds between status sweeps of the ``serve_open`` poller.
POLL_S = 0.01
#: Wait for stragglers this long after the last scheduled send.
DRAIN_S = 60.0
REQUEST_TIMEOUT_S = 120.0


class SetupError(RuntimeError):
    """The program could not be brought up; the run prints no result."""


class Run:
    """One benchmark run: its seed, clock budget, program and tallies."""

    def __init__(self, seed: int, seconds: float, traced: bool, work: str,
                 expected: Dict[str, Any]):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.expected = expected
        self.rng = random.Random(seed)
        self.program = Program(work, traced)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: name -> (value, unit, note) for the human-readable report.
        self.report: Dict[str, Tuple[float, str, str]] = {}

    def record(self, what: str, problem: Optional[str]) -> bool:
        """Tally one operation; returns True when it succeeded."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")
            return False
        return True

    def note(self, name: str, value: float, unit: str, note: str = ""):
        self.report[name] = (value, unit, note)

    def note_tail(self, name: str, samples: List[float]) -> float:
        info = tail(samples)
        self.note(name, info["value"], "s",
                  f"p{info['percentile']} of {info['samples']} samples, "
                  f"{info['beyond']} beyond")
        return info["value"]


def _require(samples: List[float], what: str) -> List[float]:
    if not samples:
        raise SetupError(f"no successful {what} to time")
    return samples


def _app_geomean(by_app: Dict[str, List[float]], apps, what: str) -> float:
    """Geomean over ``apps`` of each app's median latency.

    Apps differ in cost by up to 1.5x, so a median pooled over apps
    jumps between apps' clusters as the seeded mix shifts by one
    request; weighting every app equally keeps the mix out of it.
    """
    return geomean(median(_require(by_app.get(app, []), f"{what} of {app}"))
                   for app in apps)


def _manifest_at(path: str) -> Any:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _golden_runs(run: Run) -> Dict[str, List[str]]:
    """Expected ``pld run --flow o0`` lines: digit-recognition from its
    pure-Python reference model, bnn (no reference) from the file."""
    from repro.rosetta import get_app

    golden = dict(run.expected["o0_run"])
    for name in O0_APPS:
        app = get_app(name)
        if app.reference is not None:
            golden[name] = checks.format_outputs(
                app.reference(app.project.sample_inputs))
    return golden


# -- cli ---------------------------------------------------------------------

def cli(run: Run):
    """A developer at a terminal: each ``pld`` command is a process."""
    golden = _golden_runs(run)
    latency = {kind: {} for kind in ("cold", "warm", "o0")}
    caches = {app: [] for app in O1_APPS}
    measured = []
    startups = []
    children = []
    passes = max(1, round(run.seconds / CLI_PASS_S))
    for _ in range(passes):
        for kind, app in schedule.cli_pass(run.rng, O1_APPS, O0_APPS,
                                           WARM_RERUNS, COLD_COMPILES):
            probe = _import_cli(run, len(startups))
            startups.append(probe.wall)
            if kind == "o0":
                done = run.program.cli(["run", app, "--flow", "o0",
                                        "--effort", EFFORT])
                problem = checks.check_run(done.stdout, golden[app])
            else:
                if kind == "cold":
                    caches[app].append(os.path.join(
                        run.work, f"cache-{app}-{len(caches[app])}"))
                cache = caches[app][-1]
                path = os.path.join(run.work, f"m-{len(measured)}")
                done = run.program.cli(
                    ["compile", app, "--flow", "o1", "--effort", EFFORT,
                     "--cache-dir", cache, "--manifest", path])
                problem = checks.check_compile(
                    done.stdout, _manifest_at(path),
                    run.expected["o1"][app], cold=kind == "cold")
            if done.code:
                problem = f"exit {done.code}: {done.stderr[-300:]}"
            measured.append(done)
            children += [probe, done]
            run.record(f"{kind} {app}", problem)
            latency[kind].setdefault(app, []).append(done.wall)

    cold_s = _app_geomean(latency["cold"], O1_APPS, "cold compile")
    warm_s = _app_geomean(latency["warm"], O1_APPS, "warm compile")
    run.note("cli_cold_o1_s", cold_s, "s",
             f"geomean over {len(O1_APPS)} apps of the median cold "
             f"compile, {passes} pass(es)")
    run.note("cli_warm_o1_s", warm_s, "s",
             "geomean over apps of the median warm rerun")
    run.note("cli_o0_run_s", _app_geomean(latency["o0"], O0_APPS, "-O0 run"),
             "s", "geomean of pld run --flow o0 over digit-recognition, bnn")
    gaps = [b.spawn - a.end for a, b in zip(children, children[1:])]
    lag = sum(gaps) / len(gaps) if gaps else 0.0
    run.note("generator.lag_s", lag, "s",
             "mean harness gap between one child process and the next")
    startup_s = median(startups)
    run.note("cli.startup_s", startup_s, "s",
             f"median of {len(startups)} import repro.cli, one before "
             f"each command")
    slowest_warm = geomean(max(latency["warm"][app]) for app in O1_APPS)
    run.note("tail_s", slowest_warm, "s",
             "geomean over apps of the slowest warm rerun")
    end_to_end = {
        "setup_s": startup_s,
        "peak_rss_mb": max(done.maxrss_mb for done in measured),
        "warm_s": warm_s,
        "change_s": cold_s,
        "tail_s": slowest_warm,
    }
    layers = None
    if run.traced:
        layers = _cli_layers(run, measured, startup_s, lag)
    return end_to_end, layers


def _import_cli(run: Run, number: int):
    """Time ``python -c "import repro.cli"``, untraced: the process start
    and import every ``pld`` command pays before its own work.  Their
    median is the ``cli`` set-up and, in a traced run,
    ``cli.startup_s``.  One probe before each command spreads them over
    the run, like the commands, rather than into its first second."""
    done = run.program.python([sys.executable, "-c", "import repro.cli"],
                              os.path.join(run.work, f"import-{number}"),
                              60.0)
    if done.code:
        raise SetupError(f"import repro.cli failed: {done.stderr}")
    return done


def _cli_layers(run: Run, measured, startup_s: float,
                lag: float) -> Dict[str, float]:
    ops = []
    for k, done in enumerate(measured):
        data = spans.load(done.spans)
        ops.append({
            "latency": data["main_end"] - done.spawn,
            "startup": data["import_end"] - done.spawn,
            "records": spans.namespaced(data["records"], str(k)),
            "wire": 0.0,
            "queue": sum(r.get("queue_wait", 0.0) for r in data["records"]
                         if r["layer"] == "service.exec"),
            "per_span_s": data["per_span_s"],
            "per_slice_s": data["per_slice_s"]})
    return layer_metrics(ops, startup_s=startup_s, lag=lag, shed=0)


# -- served workloads --------------------------------------------------------

def _start_daemon(run: Run, extra: List[str]):
    """Start the daemon ``SETUP_REPEATS`` times on fresh state; keep the
    last one.  Returns ``(daemon, median seconds to ready)``."""
    readies = []
    daemon = None
    for attempt in range(SETUP_REPEATS):
        state = os.path.join(run.work, f"state-{attempt}")
        daemon = run.program.daemon(state, extra)
        try:
            readies.append(daemon.wait_ready())
            if attempt < SETUP_REPEATS - 1:
                daemon.stop()
        except BaseException as exc:
            daemon.kill()
            if isinstance(exc, Exception):
                raise SetupError(f"pld serve did not come up: {exc}") \
                    from exc
            raise
    return daemon, median(readies)


def _seed_sessions(run: Run, client, owners: List[Tuple[str, str, str]]):
    """Cold one-shot then session compile for each (tenant, app, session);
    returns each session's baseline manifest."""
    from repro.errors import PLDError

    baselines = {}
    for tenant, app, session in owners:
        for label, fields in (("cold one-shot", {}),
                              ("session compile", {"session": session})):
            try:
                summary, payload = client.compile(
                    app, timeout=REQUEST_TIMEOUT_S, flow="o1",
                    effort=float(EFFORT), tenant=tenant, **fields)
                manifest = json.loads(payload)
                problem = checks.check_manifest(
                    manifest, run.expected["o1"][app]["manifest"])
            except (PLDError, ValueError) as exc:
                problem, manifest = f"{type(exc).__name__}: {exc}", None
            if not run.record(f"{label} {app}", problem):
                raise SetupError(f"seeding {label} of {app}: {problem}")
            baselines[session] = manifest
    return baselines


def _check_served(run: Run, kind: str, app: str, summary, payload,
                  previous=None, operator=None, edited=None):
    try:
        manifest = json.loads(payload)
    except ValueError:
        return "result carried no JSON manifest", None
    if kind == "edit":
        return checks.check_edit(summary, manifest, previous, operator,
                                 edited=edited), manifest
    if kind == "batch":
        return checks.check_manifest(
            manifest, run.expected["o0_served"][app]), manifest
    problem = checks.check_manifest(manifest,
                                    run.expected["o1"][app]["manifest"])
    dedup = summary.get("dedup") or {}
    if problem is None and dedup.get("hits") != dedup.get("steps"):
        problem = (f"warm one-shot hit {dedup.get('hits')} of "
                   f"{dedup.get('steps')} steps")
    return problem, manifest


def edit_session(run: Run):
    """The refinement loop: one client, closed loop, 3 edits : 1 warm."""
    from repro.errors import PLDError

    daemon, ready_s = _start_daemon(run, [])
    try:
        with daemon.client(REQUEST_TIMEOUT_S) as client:
            seed_start = clock()
            owners = [("dev", app, f"dev-{app}") for app in O1_APPS]
            previous = _seed_sessions(run, client, owners)
            setup_s = ready_s + (clock() - seed_start)
            operators = {app: sorted(run.expected["o1"][app]["manifest"]
                                     ["pages"]) for app in O1_APPS}
            plan = _edit_plan(run, operators)
            latency = {"edit": {}, "warm": {}}
            ops = []
            last_end = None
            gaps = []
            start = clock()
            for index, (kind, app, operator) in enumerate(plan):
                if clock() - start >= OVERRUN * run.seconds:
                    run.problems.append(f"stopped after {index} of "
                                        f"{len(plan)} requests: over time")
                    break
                session = f"dev-{app}"
                fields = {"flow": "o1", "effort": float(EFFORT),
                          "tenant": "dev"}
                if kind == "edit":
                    fields.update(session=session, edit_operator=operator,
                                  edit_tag=f"s{run.seed}e{index}")
                sent = clock()
                if last_end is not None:
                    gaps.append(sent - last_end)
                try:
                    summary, payload = client.compile(
                        app, timeout=REQUEST_TIMEOUT_S, **fields)
                except PLDError as exc:
                    last_end = clock()
                    run.record(f"{kind} {app}",
                               f"{type(exc).__name__}: {exc}")
                    continue
                done = last_end = clock()
                latency[kind].setdefault(app, []).append(done - sent)
                ops.append({"ticket": summary.get("ticket"),
                            "sent": sent, "done": done})
                problem, manifest = _check_served(
                    run, kind, app, summary, payload,
                    previous.get(session), operator)
                if run.record(f"{kind} {app}", problem) and kind == "edit":
                    previous[session] = manifest
            peak = daemon.peak_rss_mb()
    finally:
        daemon_stop(run, daemon)

    edits = [t for values in latency["edit"].values() for t in values]
    warms = [t for values in latency["warm"].values() for t in values]
    run.note("edit_p50_s", median(_require(edits, "session edit")), "s",
             f"{len(edits)} one-operator session edits")
    run.note_tail("edit_tail_s", edits)
    run.note("warm_p50_s", median(_require(warms, "warm one-shot")), "s",
             f"{len(warms)} warm one-shot -O1 requests")
    run.note_tail("warm_tail_s", warms)
    lag = sum(gaps) / len(gaps) if gaps else 0.0
    run.note("generator.lag_s", lag, "s",
             "mean harness time from a result to the next submit")
    end_to_end = {
        "setup_s": setup_s, "peak_rss_mb": peak,
        "warm_s": _app_geomean(latency["warm"], O1_APPS, "warm one-shot"),
        "change_s": _app_geomean(latency["edit"], O1_APPS, "session edit"),
        "tail_s": run.note_tail("tail_s", edits + warms),
    }
    layers = None
    if run.traced:
        layers = _daemon_layers(run, daemon, ops, lag, shed=0)
    return end_to_end, layers


def _edit_plan(run: Run, operators: Dict[str, List[str]]):
    """The seeded closed-loop stream as ``(kind, app, operator)``."""
    # At least one block of four per app, so every app has a warm sample.
    count = max(4 * len(O1_APPS), round(run.seconds * EDIT_REQUESTS_PER_S))
    kinds = schedule.edit_stream(run.rng, blocks=-(-count // 4))[:count]
    apps = {kind: schedule.cycle(run.rng, O1_APPS, kinds.count(kind))
            for kind in ("edit", "warm")}
    edited = {app: iter(schedule.zipf_draws(run.rng, operators[app],
                                            apps["edit"].count(app)))
              for app in O1_APPS}
    order = {kind: iter(apps[kind]) for kind in apps}
    plan = []
    for kind in kinds:
        app = next(order[kind])
        plan.append((kind, app, next(edited[app]) if kind == "edit"
                     else None))
    return plan


class _Request:
    __slots__ = ("index", "kind", "tenant", "app", "operator", "due",
                 "sent", "done", "ticket", "summary", "payload", "error",
                 "shed")

    def __init__(self, index, kind, tenant, app, operator, due):
        self.index, self.kind, self.tenant = index, kind, tenant
        self.app, self.operator, self.due = app, operator, due
        self.sent = self.done = None
        self.ticket = self.summary = self.payload = self.error = None
        self.shed = False


def serve_open(run: Run):
    """Three tenants, open loop at a fixed arrival rate."""
    from repro.errors import OverloadedError, PLDError

    tenants = [(f"t{k}", app, f"t{k}-session")
               for k, app in enumerate(O1_APPS)]
    daemon, ready_s = _start_daemon(run, ["--max-queued", SERVE_MAX_QUEUED])
    try:
        with daemon.client(REQUEST_TIMEOUT_S) as submitter:
            seed_start = clock()
            baselines = _seed_sessions(run, submitter, tenants)
            setup_s = ready_s + (clock() - seed_start)
            requests = _serve_plan(run, tenants)
            outstanding: List[_Request] = []
            lock = threading.Lock()
            finished_sending = threading.Event()
            failure: List[BaseException] = []
            poller = threading.Thread(
                target=_poll, name="perfbench-poller",
                args=(daemon, outstanding, lock, finished_sending, failure))
            poller.start()
            start = clock()
            try:
                for req in requests:
                    due = start + req.due
                    while clock() < due:
                        time.sleep(min(0.05, max(0.0, due - clock())))
                    req.due = due
                    req.sent = clock()
                    fields = {"flow": "o1", "effort": float(EFFORT),
                              "tenant": req.tenant}
                    if req.kind == "edit":
                        fields.update(session=f"{req.tenant}-session",
                                      edit_operator=req.operator,
                                      edit_tag=f"s{run.seed}r{req.index}")
                    elif req.kind == "batch":
                        fields.update(flow="o0", priority="batch")
                    try:
                        req.ticket = submitter.submit(req.app, **fields)
                    except OverloadedError as exc:
                        req.shed, req.error = True, f"shed: {exc}"
                    except PLDError as exc:
                        req.error = f"{type(exc).__name__}: {exc}"
                    if req.ticket is not None:
                        with lock:
                            outstanding.append(req)
            finally:
                finished_sending.set()
                poller.join(timeout=run.seconds + DRAIN_S + 30.0)
            if poller.is_alive() or failure:
                raise SetupError(f"result poller failed: {failure}")
            peak = daemon.peak_rss_mb()
    finally:
        daemon_stop(run, daemon)

    latency = {"warm": [], "edit": [], "batch": []}
    good = 0
    ops = []
    edited: Dict[str, set] = {}
    for req in requests:
        if req.kind == "edit":
            edited.setdefault(f"{req.tenant}-session", set()).add(
                req.operator)
    for req in requests:
        problem = req.error
        if problem is None and req.done is None:
            problem = "no result before the drain deadline"
        if problem is not None:
            run.record(f"{req.kind} {req.app}", problem)
            continue
        seconds = req.done - req.due
        latency[req.kind].append(seconds)
        ops.append({"ticket": req.ticket, "sent": req.sent,
                    "done": req.done, "due": req.due})
        session = f"{req.tenant}-session"
        problem, _ = _check_served(
            run, req.kind, req.app, req.summary, req.payload,
            baselines[session], req.operator, edited=edited.get(session))
        if run.record(f"{req.kind} {req.app}", problem):
            good += seconds <= GOOD_LATENCY_S
    everything = [s for values in latency.values() for s in values]
    serve_p50 = median(_require(everything, "served request"))
    run.note("serve_p50_s", serve_p50, "s",
             f"{len(everything)} requests, from scheduled send time")
    serve_tail = run.note_tail("serve_tail_s", everything)
    run.note("serve_goodput", good / len(requests), "fraction",
             f"OK within {GOOD_LATENCY_S:g}s of {len(requests)} scheduled")
    lag = max(req.sent - req.due for req in requests)
    run.note("generator.lag_s", lag, "s", "latest send behind schedule")
    shed = sum(req.shed for req in requests)
    end_to_end = {
        "setup_s": setup_s, "peak_rss_mb": peak,
        "warm_s": median(_require(latency["warm"], "warm one-shot")),
        "change_s": median(_require(latency["edit"], "session edit")),
        "tail_s": serve_tail,
    }
    layers = None
    if run.traced:
        layers = _daemon_layers(run, daemon, ops, lag, shed=shed)
    return end_to_end, layers


def _serve_plan(run: Run, tenants) -> List[_Request]:
    """The seeded open-loop schedule: offsets, kinds, tenants, edits."""
    offsets = schedule.jittered_arrivals(run.rng, SERVE_RATE, run.seconds)
    kinds = schedule.stratified_kinds(run.rng, len(offsets), SERVE_MIX)
    owners = {kind: schedule.cycle(run.rng, range(len(tenants)),
                                   kinds.count(kind)) for kind, _ in SERVE_MIX}
    edits = {k: iter(schedule.zipf_draws(
        run.rng, sorted(run.expected["o1"][app]["manifest"]["pages"]),
        owners["edit"].count(k))) for k, (_, app, _) in enumerate(tenants)}
    order = {kind: iter(owners[kind]) for kind in owners}
    plan = []
    for index, (offset, kind) in enumerate(zip(offsets, kinds)):
        owner = next(order[kind])
        tenant, app, _ = tenants[owner]
        operator = None
        if kind == "batch":
            app = "spam-filter"
        elif kind == "edit":
            operator = next(edits[owner])
        plan.append(_Request(index, kind, tenant, app, operator, offset))
    return plan


def _poll(daemon, outstanding, lock, finished_sending, failure):
    """Second connection: poll ``status``, fetch each finished result,
    in completion order, so one slow request delays no other."""
    from repro.errors import PLDError

    deadline = None
    try:
        with daemon.client(REQUEST_TIMEOUT_S) as client:
            while True:
                with lock:
                    pending = list(outstanding)
                if not pending and finished_sending.is_set():
                    return
                if finished_sending.is_set() and deadline is None:
                    deadline = clock() + DRAIN_S
                if deadline is not None and clock() > deadline:
                    return
                progressed = False
                for req in pending:
                    state = client.status(req.ticket).get("state")
                    if state not in ("done", "failed"):
                        continue
                    try:
                        req.summary, req.payload = client.result(
                            req.ticket, timeout=REQUEST_TIMEOUT_S)
                    except PLDError as exc:
                        req.error = f"{type(exc).__name__}: {exc}"
                    req.done = clock()
                    with lock:
                        outstanding.remove(req)
                    progressed = True
                if not progressed:
                    time.sleep(POLL_S)
    except BaseException as exc:       # surfaced by the submitting thread
        failure.append(exc)


def daemon_stop(run: Run, daemon) -> None:
    try:
        code = daemon.stop()
    except Exception as exc:
        raise SetupError(f"pld serve did not stop cleanly: {exc}") from exc
    if code != 0:
        run.problems.append(f"pld serve exited with {code}")


# -- per-layer metrics -------------------------------------------------------

def _daemon_layers(run: Run, daemon, ops, lag: float, shed: int):
    data = spans.load(daemon.spans)
    records = data["records"]
    top = spans.roots(records)
    by_root: Dict[Any, List[Dict[str, Any]]] = {}
    for record in records:
        by_root.setdefault(top[record["id"]], []).append(record)
    root_of_ticket: Dict[str, List[Any]] = {}
    for record in records:
        if record.get("parent") is None and record.get("ticket"):
            root_of_ticket.setdefault(record["ticket"], []).append(
                record["id"])
    traced_ops = []
    for op in ops:
        roots = root_of_ticket.get(op["ticket"], [])
        mine = [r for root in roots for r in by_root.get(root, [])]
        execs = [r for r in mine if r["layer"] == "service.exec"
                 and r.get("parent") is None]
        submits = [r for r in mine if r["layer"] == "service.submit"]
        if not execs:
            continue
        exec_s = execs[0]["dur"]
        queue = execs[0].get("queue_wait", 0.0)
        submit_s = sum(r["dur"] for r in submits)
        latency = op["done"] - op["sent"]
        traced_ops.append({
            "latency": latency, "startup": 0.0, "records": mine,
            "wire": max(0.0, latency - exec_s - queue - submit_s),
            "queue": queue,
            "per_span_s": data["per_span_s"],
            "per_slice_s": data["per_slice_s"]})
    if not traced_ops:
        raise SetupError("no measured request left spans in the daemon")
    startup = data["import_end"] - data["import_start"]
    return layer_metrics(traced_ops, startup_s=startup, lag=lag, shed=shed)


#: Layers whose self time is named work; ``service.exec`` is the request
#: container, so its self time is the untraced remainder.
_CONTAINERS = {"service.exec"}


def layer_metrics(ops: List[Dict[str, Any]], startup_s: float, lag: float,
                  shed: int) -> Dict[str, float]:
    """Per-layer metrics from per-operation span records.

    Times ending ``_s`` are mean self seconds per operation (``s/op``);
    counts are totals over the run; ratios are hits over attempts.
    ``untraced_frac`` is the share of client-observed time that no
    named layer covers, and ``trace_overhead_frac`` the share the span
    bookkeeping itself added, from the per-span cost calibrated in
    each traced process.
    """
    n = len(ops)
    records = [r for op in ops for r in op["records"]]
    selves = spans.self_times(records)
    totals = spans.layer_totals(records, selves)

    def self_s(layer):
        return totals.get(layer, {}).get("self_s", 0.0) / n

    def calls(layer):
        return int(totals.get(layer, {}).get("calls", 0))

    def ratio(layer):
        mine = [r for r in records if r["layer"] == layer]
        return sum(1 for r in mine if r.get("hit")) / len(mine) \
            if mine else 0.0

    total_latency = sum(op["latency"] for op in ops)
    covered = 0.0
    overhead = 0.0
    for op in ops:
        named = sum(selves[r["id"]] for r in op["records"]
                    if r["layer"] not in _CONTAINERS)
        covered += min(op["latency"],
                       named + op["startup"] + op["wire"] + op["queue"])
        slices = [r for r in op["records"] if r.get("slice")]
        spans_n = len(op["records"]) - len(slices)
        overhead += spans_n * op["per_span_s"] + \
            sum(r["calls"] for r in slices) * op["per_slice_s"]
    return {
        "cli.startup_s": startup_s,
        "rosetta.get_app_s": self_s("rosetta.get_app"),
        "rosetta.get_app_calls": calls("rosetta.get_app"),
        "core.content_key_s": self_s("core.content_key"),
        "core.content_key_calls": calls("core.content_key"),
        "core.steps": calls("core.step"),
        "core.step_hit_ratio": ratio("core.step"),
        "store.get_s": self_s("store.get"),
        "store.put_s": self_s("store.put"),
        "store.gets": calls("store.get"),
        "store.puts": calls("store.put"),
        "store.hit_ratio": ratio("store.get"),
        "hls.s": self_s("hls"),
        "hls.calls": calls("hls"),
        "pnr.place_s": self_s("pnr.place"),
        "pnr.route_s": self_s("pnr.route"),
        "pnr.calls": calls("pnr"),
        "softcore.compile_s": self_s("softcore.compile"),
        "softcore.iss_s": self_s("softcore.iss"),
        "dataflow.s": self_s("dataflow"),
        "service.submit_s": self_s("service.submit"),
        "service.queue_wait_s": sum(op["queue"] for op in ops) / n,
        "service.exec_s": sum(r["dur"] for r in records
                              if r["layer"] == "service.exec") / n,
        "service.shed": shed,
        "service.brownout_routed": sum(
            1 for r in records
            if r["layer"] == "service.exec" and r.get("brownout")),
        "wire.s": sum(op["wire"] for op in ops) / n,
        "generator.lag_s": lag,
        "untraced_frac": max(0.0, 1.0 - covered / total_latency)
        if total_latency else 0.0,
        "trace_overhead_frac": overhead / total_latency
        if total_latency else 0.0,
    }
