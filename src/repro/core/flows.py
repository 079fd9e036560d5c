"""The PLD compile flows: -O0, -O1, -O3 and the Vitis baseline (Sec. 6).

All four flows compile the *same project* — the paper's single-source
property — and produce a :class:`FlowBuild`: loadable images, linking
configuration, a Tab. 2-style compile-time breakdown, a Tab. 3-style
performance estimate and a Tab. 4-style area summary, plus a functional
``execute`` whose outputs are identical across flows.

Flow summary:

* :class:`O0Flow` — every ``RISCV``-targeted operator cross-compiles to
  a PicoRV32 binary in seconds (Fig. 5); execution runs the real
  binaries on instruction-set simulators.
* :class:`O1Flow` — every ``HW`` operator synthesises and
  places-and-routes *separately* into one page against its abstract
  shell (Fig. 6); the cluster runs page compiles in parallel, so the
  reported time is the slowest page, and linking is a packet burst.
  Mixed projects (some RISCV, some HW) are the normal case.
* :class:`O3Flow` — operators are stitched with hardware FIFOs at the
  RTL level and the whole kernel is placed-and-routed monolithically
  (Fig. 7).
* :class:`VitisFlow` — the undecomposed baseline: one monolithic HLS +
  implementation run of the original kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import CapacityError, FlowError, RetryExhaustedError
from repro.dataflow.graph import (
    DataflowGraph,
    Operator,
    TARGET_HW,
    TARGET_RISCV,
)
from repro.fabric.bitstream import Bitstream
from repro.fabric.device import XCU50
from repro.simengine import resolve_engine
from repro.fabric.page import Page
from repro.fabric.shell import Overlay
from repro.hls import tech
from repro.hls.estimate import ResourceEstimate, estimate_operator
from repro.hls.netlist import Netlist, synthesize_netlist
from repro.hls.schedule import Schedule, schedule_operator
from repro.hls.verilog import emit_verilog
from repro.noc.linking import LinkConfiguration, build_link_configuration
from repro.noc.perfmodel import Bottleneck, NoCPerformanceModel
from repro.pnr.compile_model import (
    CompileTimeModel,
    DEFAULT_MODEL,
    StageTimes,
    implement_design,
)
from repro.trace import NULL_TRACER
from repro.core.build import BatchStep, BuildEngine
from repro.core.cluster import CompileCluster, Job
from repro.core.dfg import extract_dfg
from repro.core.project import Project

if TYPE_CHECKING:
    # The softcore and the simulators are imported where they run: a
    # warm all-HW compile never touches them.
    from repro.softcore.compiler import CompiledOperator

#: LUTs of one PicoRV32 softcore (Sec. 5.1: ~2K with the multiplier).
PICORV_LUTS = 2_000

#: Usable program bytes per BRAM18 (2 KiB data bits).
BYTES_PER_BRAM18 = 2_048


@dataclass
class PerformanceSummary:
    """One Tab. 3 cell group: clock and per-input latency."""

    flow: str
    fmax_mhz: float
    cycles_per_sample: float
    seconds_per_input: float           # extrapolated to paper scale
    bottleneck: str = ""

    def per_input_text(self) -> str:
        value = self.seconds_per_input
        if value >= 1.0:
            return f"{value:.1f} s"
        if value >= 1e-3:
            return f"{value * 1e3:.1f} ms"
        return f"{value * 1e6:.1f} us"


@dataclass
class AreaSummary:
    """One Tab. 4 row fragment."""

    luts: int = 0
    ffs: int = 0
    brams: int = 0
    dsps: int = 0
    pages: int = 0


@dataclass
class OperatorArtifacts:
    """Everything one operator produced on its way through a flow."""

    name: str
    target: str
    schedule: Optional[Schedule] = None
    estimate: Optional[ResourceEstimate] = None
    verilog: str = ""
    netlist: Optional[Netlist] = None
    page: Optional[int] = None
    stage_times: Optional[StageTimes] = None
    riscv: Optional[CompiledOperator] = None
    fmax_mhz: float = tech.FMAX_CEILING_MHZ


@dataclass
class FlowBuild:
    """The output of one flow invocation."""

    flow: str
    project: Project
    monolithic: bool
    overlay: Optional[Overlay]
    overlay_image: Bitstream
    page_images: Dict[int, Tuple[Bitstream, str, bool]]
    link_packets: List
    compile_times: StageTimes
    riscv_seconds: float
    operators: Dict[str, OperatorArtifacts]
    performance: PerformanceSummary
    area: AreaSummary
    page_of: Dict[str, int] = field(default_factory=dict)
    rebuilt: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    #: Subset of ``reused`` whose cache hits were journaled by an
    #: interrupted invocation — what ``pld compile --resume`` saved.
    resumed: List[str] = field(default_factory=list)
    #: step name -> content key (stable across processes): the raw
    #: material of :meth:`manifest` and the session's dirty-set diff.
    step_keys: Dict[str, str] = field(default_factory=dict)
    #: Cache counters of the engine this build ran through (hits /
    #: misses / evictions, plus disk tiers for a persistent store).
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Pages whose occupant was actually recompiled this invocation
    #: (empty on a fully warm build).
    recompiled_pages: List[int] = field(default_factory=list)
    #: Fault-free makespan of compiling *every* page job — the cold
    #: reference ``compile_times`` (dirty jobs only) is compared to.
    cold_compile_times: Optional[StageTimes] = None
    #: The full link configuration (None for monolithic flows); delta
    #: relinks diff two of these.
    link_config: Optional[LinkConfiguration] = None
    dfg: Dict = field(default_factory=dict)
    impl_fmax_mhz: float = 0.0         # routed clock of monolithic impls
    #: Operators whose page compile exhausted its retries and were
    #: transparently remapped to the -O0 softcore (name -> reason).
    remapped: Dict[str, str] = field(default_factory=dict)
    #: Compile attempts per page job (1 = first try succeeded).
    compile_attempts: Dict[str, int] = field(default_factory=dict)
    #: Wasted seconds on failed attempts/backoff, charged into makespan.
    retry_seconds: float = 0.0
    #: Page jobs that ran a speculative backup attempt (hedged retries).
    hedged_jobs: List[str] = field(default_factory=list)
    #: Time burned by cancelled hedge attempts (losers of the race).
    hedge_seconds: float = 0.0
    #: The fault plan this build compiled under, if any (its log holds
    #: every injected fault; see ``format_failure_report``).
    fault_plan: Optional[object] = None
    _exec_graph: Optional[DataflowGraph] = None
    _telemetry: Dict[str, object] = field(default_factory=dict)

    def execute(self, inputs: Dict[str, List[int]]) -> Dict[str, List[int]]:
        """Functional execution under this mapping.

        HW operators run through the IR interpreter; RISCV operators run
        their actual compiled binaries on instruction-set simulators.
        Results are identical across flows (the latency-insensitive
        guarantee), which the integration tests assert.
        """
        if self._exec_graph is None:
            raise FlowError("build has no executable graph")
        from repro.dataflow.simulator import FunctionalSimulator

        sim = FunctionalSimulator(self._exec_graph)
        return sim.run(inputs)

    def describe(self) -> str:
        text = f"{self.project.name} via {self.flow}"
        if self.cache_stats:
            stats = self.cache_stats
            text += (f" (cache: {stats.get('hits', 0)} hits, "
                     f"{stats.get('misses', 0)} misses, "
                     f"{stats.get('evictions', 0)} evictions)")
        return text

    def manifest(self) -> Dict[str, object]:
        """A diffable description of what this build is made of.

        Two manifests of the same project differ exactly where an edit
        changed a step's content key; :func:`diff_manifests` turns that
        into changed/added/removed step lists.
        """
        return {
            "flow": self.flow,
            "project": self.project.name,
            "steps": dict(self.step_keys),
            "pages": dict(sorted(self.page_of.items())),
            "images": {
                page: {"name": image.name,
                       "digest": image.content_digest,
                       "occupant": occupant,
                       "softcore": softcore}
                for page, (image, occupant, softcore)
                in sorted(self.page_images.items())},
        }

    def estimated_seconds_per_input(self) -> float:
        return self.performance.seconds_per_input

    def softcore_cycles(self) -> Dict[str, int]:
        """Cycle counters of the ISS cores from the last execution."""
        return {name: cpu.cycles
                for name, cpu in self._telemetry.items()}

    def write_artifacts(self, directory) -> List[str]:
        """Write the flow's on-disk artefacts, as the paper's tools do.

        Produces the files a developer finds after a PLD run (Fig. 5-7):
        per-operator Verilog (``<op>.v``), the dataflow intermediate
        (``dfg.ir``), the generated driver source (``driver.c``) and a
        build manifest.  Returns the written file names.
        """
        import json
        import pathlib

        out = pathlib.Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        written: List[str] = []

        def emit(name: str, text: str) -> None:
            (out / name).write_text(text)
            written.append(name)

        for name, art in self.operators.items():
            if art.verilog:
                emit(f"{name}.v", art.verilog)
        emit("dfg.ir", json.dumps(self.dfg, indent=2, sort_keys=True))
        emit("driver.c", self._driver_source())
        from repro.core.makeflow import generate_makefile
        emit("Makefile", generate_makefile(self.project))
        manifest = {
            "flow": self.flow,
            "project": self.project.name,
            "pages": {name: page for name, page in self.page_of.items()},
            "compile_seconds": round(self.compile_times.total, 1),
            "riscv_seconds": round(self.riscv_seconds, 2),
            "performance": {
                "fmax_mhz": self.performance.fmax_mhz,
                "seconds_per_input": self.performance.seconds_per_input,
                "bottleneck": self.performance.bottleneck,
            },
            "area": {"luts": self.area.luts, "brams": self.area.brams,
                     "dsps": self.area.dsps, "pages": self.area.pages},
        }
        emit("manifest.json", json.dumps(manifest, indent=2))
        return written

    def _driver_source(self) -> str:
        """The generated ``driver.c`` that configures the overlay."""
        lines = [
            "/* Generated by pld (pre-linker/loader) — do not edit. */",
            '#include "pld_runtime.h"',
            "",
            "void pld_configure(pld_card_t *card) {",
        ]
        if self.monolithic:
            lines.append(f'    pld_load_kernel(card, '
                         f'"{self.overlay_image.name}");')
        else:
            lines.append(f'    pld_load_overlay(card, '
                         f'"{self.overlay_image.name}");')
            for page, (image, occupant, softcore) in sorted(
                    self.page_images.items()):
                loader = "pld_load_elf" if softcore \
                    else "pld_load_bitstream"
                lines.append(f'    {loader}(card, {page}, '
                             f'"{image.name}"); /* {occupant} */')
            lines.append(f"    pld_send_link_packets(card, link_table, "
                         f"{len(self.link_packets)});")
        lines.append("}")
        return "\n".join(lines) + "\n"


def diff_manifests(old: Dict[str, object],
                   new: Dict[str, object]) -> Dict[str, List[str]]:
    """Compare two build manifests step-by-step.

    Returns ``{"changed": [...], "added": [...], "removed": [...]}`` of
    step names; a step is *changed* when both manifests name it but its
    content key differs (i.e. an edit reached it).
    """
    old_steps: Dict[str, str] = dict(old.get("steps", {}))  # type: ignore
    new_steps: Dict[str, str] = dict(new.get("steps", {}))  # type: ignore
    return {
        "changed": sorted(name for name, key in new_steps.items()
                          if name in old_steps and old_steps[name] != key),
        "added": sorted(set(new_steps) - set(old_steps)),
        "removed": sorted(set(old_steps) - set(new_steps)),
    }


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def _hls_build(spec, clock_mhz: float, name: str, n_ports: int
               ) -> Tuple[Schedule, ResourceEstimate, str, Netlist]:
    """C-to-RTL work: schedule, estimate, Verilog, netlist.

    Module-level (not a closure) so :class:`~repro.core.parallel.
    ParallelBuildEngine` can ship it to a worker process.
    """
    schedule = schedule_operator(spec, clock_mhz)
    estimate = estimate_operator(spec)
    verilog = emit_verilog(spec)
    netlist = synthesize_netlist(name, estimate, n_ports=n_ports)
    return (schedule, estimate, verilog, netlist)


def _hls_step(engine: BuildEngine, op: Operator,
              clock_mhz: float) -> Tuple[Schedule, ResourceEstimate, str,
                                         Netlist]:
    """Cacheable C-to-RTL stage: schedule, estimate, Verilog, netlist."""
    return engine.step(
        f"hls:{op.name}", (op.hls_spec, clock_mhz),
        lambda: _hls_build(op.hls_spec, clock_mhz, op.name,
                           len(op.inputs) + len(op.outputs)))


def _ir_size(op: Operator) -> int:
    return sum(op.hls_spec.count_instructions().values())


def _assign_pages(graph: DataflowGraph, overlay: Overlay,
                  estimates: Dict[str, ResourceEstimate],
                  softcore_ops: Dict[str, CompiledOperator]
                  ) -> Dict[str, int]:
    """First-fit-decreasing page assignment honouring pragma hints."""
    free: Dict[int, Page] = {p.number: p for p in overlay.pages}
    assignment: Dict[str, int] = {}

    def claim(name: str, page_no: int) -> None:
        assignment[name] = page_no
        del free[page_no]

    # Pass 1: explicit p_num pragmas.
    for name, op in graph.operators.items():
        if op.page is not None:
            if op.page not in free:
                raise FlowError(
                    f"operator {name!r}: page {op.page} unavailable")
            _check_page_fit(overlay.page(op.page), name, op,
                            estimates.get(name), softcore_ops.get(name))
            claim(name, op.page)

    # Pass 2: HW operators, biggest first, smallest page that fits.
    hw = [(estimates[name].luts, name) for name, op in
          graph.operators.items()
          if op.target == TARGET_HW and name not in assignment]
    for _luts, name in sorted(hw, reverse=True):
        candidates = sorted(
            (page for page in free.values()
             if page.fits(estimates[name])),
            key=lambda p: p.luts)
        if not candidates:
            estimate = estimates[name]
            raise CapacityError(
                f"operator {name!r} ({estimate.luts} LUTs, "
                f"{estimate.brams} BRAMs, {estimate.dsps} DSPs) fits no "
                f"free page; decompose it further (Sec. 7.3)",
                resource="luts", need=estimate.luts,
                have=max((p.luts for p in free.values()), default=0))
        claim(name, candidates[0].number)

    # Pass 3: softcore operators — any page with enough BRAM memory.
    for name, op in graph.operators.items():
        if name in assignment:
            continue
        compiled = softcore_ops[name]
        candidates = sorted(
            (page for page in free.values()
             if page.brams * BYTES_PER_BRAM18 >= compiled.memory_bytes),
            key=lambda p: p.brams)
        if not candidates:
            raise CapacityError(
                f"softcore operator {name!r} needs "
                f"{compiled.memory_bytes} bytes of page memory",
                resource="brams",
                need=compiled.memory_bytes // BYTES_PER_BRAM18,
                have=max((p.brams for p in free.values()), default=0))
        claim(name, candidates[0].number)
    return assignment


def _check_page_fit(page: Page, name: str, op: Operator,
                    estimate: Optional[ResourceEstimate],
                    compiled: Optional[CompiledOperator]) -> None:
    if op.target == TARGET_HW:
        if estimate is None:
            raise FlowError(f"operator {name!r}: no estimate for fit check")
        page.check_fit(estimate, name)
    else:
        if compiled is None:
            raise FlowError(f"operator {name!r}: no binary for fit check")
        if page.brams * BYTES_PER_BRAM18 < compiled.memory_bytes:
            raise CapacityError(
                f"softcore {name!r} needs {compiled.memory_bytes} B on "
                f"page {page.number}", resource="brams",
                need=compiled.memory_bytes // BYTES_PER_BRAM18,
                have=page.brams)


def _engine_tracer(engine: BuildEngine):
    """The tracer riding on the engine (flows trace through it)."""
    tracer = getattr(engine, "tracer", None)
    return tracer if tracer is not None else NULL_TRACER


def _trace_flow_phases(tracer, flow_name: str, base: float,
                       stages: StageTimes, riscv_seconds: float) -> None:
    """Modeled hls/syn/pnr/bit (+riscv) phase spans on the 'phases' lane.

    The phases overlap the cluster's node lanes on the modeled clock:
    both views describe the same Tab. 2 interval, one per stage, one
    per node.
    """
    if not tracer.enabled:
        return
    end = tracer.modeled_phases(
        [("phase:hls", stages.hls), ("phase:syn", stages.syn),
         ("phase:pnr", stages.pnr), ("phase:bit", stages.bit)],
        base=base, lane="phases", flow=flow_name)
    if riscv_seconds > 0:
        tracer.modeled_span("phase:riscv", base, riscv_seconds,
                            category="phase", lane="phases",
                            flow=flow_name)
    tracer.advance_modeled(max(end, base + riscv_seconds))


def _overlay_bitstream(overlay: Overlay) -> Bitstream:
    total = overlay.total_page_resources()
    return Bitstream("overlay.xclbin", total.luts + overlay.network_luts(),
                     total.brams, total.dsps, partial=True)


def _softcore_page_image(page: Page, compiled: CompiledOperator,
                         digest: str = "") -> Bitstream:
    """The RISC-V page L2 image plus the packed program payload."""
    from repro.softcore.elf import pack_binary

    payload = pack_binary(compiled, page.number).serialize()
    return Bitstream(f"page_{page.number}_riscv.xclbin",
                     PICORV_LUTS + tech.LEAF_INTERFACE_LUTS,
                     brams=min(page.brams,
                               compiled.memory_bytes // BYTES_PER_BRAM18),
                     partial=True, payload_bytes=len(payload),
                     content_digest=digest)


def _build_exec_graph(project: Project,
                      riscv_builds: Dict[str, CompiledOperator],
                      telemetry: Dict[str, object],
                      cycle_profile=None,
                      sim_engine: Optional[str] = None) -> DataflowGraph:
    """Graph whose bodies reflect the mapping (interpreter vs. ISS)."""
    graph = project.graph
    out = DataflowGraph(graph.name)
    for name, op in graph.operators.items():
        if name in riscv_builds:
            body = riscv_builds[name].make_body(telemetry=telemetry,
                                                cycles=cycle_profile,
                                                engine=sim_engine)
        else:
            body = op.body           # sample-scale interpreter body
        out.add(Operator(name, body, op.inputs, op.outputs, op.target,
                         op.page, op.hls_spec, dict(op.port_widths),
                         op.sample_spec))
    for link in graph.links.values():
        out.connect(f"{link.source.operator}.{link.source.name}",
                    f"{link.sink.operator}.{link.sink.name}", link.name)
    for ext in graph.external_inputs.values():
        out.expose_input(ext.name,
                         f"{ext.inner.operator}.{ext.inner.name}")
    for ext in graph.external_outputs.values():
        out.expose_output(ext.name,
                          f"{ext.inner.operator}.{ext.inner.name}")
    return out


def _profile_softcores(build_graph: DataflowGraph,
                       inputs: Dict[str, List[int]],
                       telemetry: Dict[str, object]) -> Dict[str, int]:
    """Run once functionally and collect ISS cycles per softcore op."""
    from repro.dataflow.simulator import FunctionalSimulator

    telemetry.clear()
    sim = FunctionalSimulator(build_graph)
    sim.run({name: list(tokens) for name, tokens in inputs.items()})
    return {name: cpu.cycles for name, cpu in telemetry.items()}


# --------------------------------------------------------------------------
# -O1: separate compilation to pages (+ -O0 operators mixed in)
# --------------------------------------------------------------------------


class O1Flow:
    """Separate compilation and linkage (Fig. 6) with mixed targets.

    Args:
        overlay: the page overlay to compile against.
        cluster: compile cluster for parallel page jobs.
        model: compile-time calibration.
        effort: annealer effort (tests pass < 1 for speed).
        seed: placement seed.
        faults: optional :class:`repro.faults.FaultPlan`; page-compile
            jobs then fail/hang per the plan, the cluster retries with
            backoff, and an operator whose retries exhaust is remapped
            to the preloaded -O0 softcore so the design still links and
            produces correct output (graceful degradation, Fig. 10).
    """

    name = "PLD -O1"

    def __init__(self, overlay: Optional[Overlay] = None,
                 cluster: Optional[CompileCluster] = None,
                 model: CompileTimeModel = DEFAULT_MODEL,
                 effort: float = 1.0, seed: int = 1,
                 softcore_cycles: Optional[Dict[str, int]] = None,
                 faults=None, sim_engine: Optional[str] = None):
        self.overlay = overlay or Overlay()
        self.cluster = cluster or CompileCluster()
        self.model = model
        self.effort = effort
        self.seed = seed
        #: Softcore cycle profile for -O0/mixed operators (None = the
        #: unpipelined PicoRV32; see ``softcore.cpu.PIPELINED_CYCLES``).
        self.softcore_cycles = softcore_cycles
        self.faults = faults
        #: Simulation engine (``scalar``/``vector``) for the placer and
        #: ISS; ``None`` resolves ambient state at compile time.  Both
        #: engines are bit-identical, so this is deliberately *not*
        #: part of any step content key.
        self.sim_engine = sim_engine

    def compile(self, project: Project,
                engine: Optional[BuildEngine] = None) -> FlowBuild:
        engine = engine or BuildEngine()
        engine.fresh_record()
        graph = project.graph
        tracer = _engine_tracer(engine)
        wall_t0 = tracer.now() if tracer.enabled else 0.0
        flow_base = tracer.modeled_time()
        # Resolve once so the choice survives the pickle boundary into
        # ParallelBuildEngine workers (which have their own ambient
        # engine state) and body execution on scheduler threads.
        sim_engine = resolve_engine(self.sim_engine)

        artifacts: Dict[str, OperatorArtifacts] = {}
        estimates: Dict[str, ResourceEstimate] = {}
        schedules: Dict[str, Schedule] = {}
        riscv_builds: Dict[str, CompiledOperator] = {}
        riscv_seconds = 0.0

        # Front end per operator.  All front-end steps are mutually
        # independent, so they go through one step_batch: with the base
        # engine this is the same serial loop as before, while a
        # ParallelBuildEngine fans the cache misses out to workers.
        front_steps: List[BatchStep] = []
        if any(op.target != TARGET_HW for op in graph.operators.values()):
            from repro.softcore.compiler import compile_operator
        for name, op in graph.operators.items():
            if op.target == TARGET_HW:
                front_steps.append(BatchStep(
                    f"hls:{name}", (op.hls_spec, tech.OVERLAY_CLOCK_MHZ),
                    _hls_build,
                    (op.hls_spec, tech.OVERLAY_CLOCK_MHZ, name,
                     len(op.inputs) + len(op.outputs))))
            else:
                front_steps.append(BatchStep(
                    f"riscv:{name}", (op.sample_spec,),
                    compile_operator, (op.sample_spec,)))
                # Softcores still occupy the II story: schedule for token
                # accounting only.
                front_steps.append(BatchStep(
                    f"sched:{name}", (op.hls_spec, "riscv"),
                    schedule_operator, (op.hls_spec,)))
        front = dict(zip((s.name for s in front_steps),
                         engine.step_batch(front_steps)))
        for name, op in graph.operators.items():
            art = OperatorArtifacts(name, op.target)
            if op.target == TARGET_HW:
                schedule, estimate, verilog, netlist = front[f"hls:{name}"]
                art.schedule, art.estimate = schedule, estimate
                art.verilog, art.netlist = verilog, netlist
                estimates[name] = estimate
                schedules[name] = schedule
            else:
                compiled = front[f"riscv:{name}"]
                art.riscv = compiled
                riscv_builds[name] = compiled
                riscv_seconds = max(
                    riscv_seconds,
                    self.model.riscv_seconds(compiled.ir_instructions))
                schedules[name] = front[f"sched:{name}"]
            artifacts[name] = art

        page_of = _assign_pages(graph, self.overlay, estimates,
                                riscv_builds)
        for name, art in artifacts.items():
            art.page = page_of[name]

        # Circuit-breaker pre-check: an impl step whose builder has
        # crashed repeatedly in this engine's lifetime fast-fails here —
        # the operator goes straight to the -O0 softcore degradation
        # path below instead of burning another full page compile.
        breaker = getattr(engine, "breaker", None)
        tripped: Dict[str, str] = {}
        if breaker is not None:
            for name, op in graph.operators.items():
                if op.target == TARGET_HW \
                        and breaker.is_open(f"impl:{name}"):
                    tripped[name] = (
                        f"circuit breaker open after "
                        f"{breaker.failures(f'impl:{name}')} consecutive "
                        f"failures; remapped to -O0 softcore")
                    if tracer.enabled:
                        tracer.instant(
                            f"breaker-open:impl:{name}", category="build",
                            lane="build",
                            failures=breaker.failures(f"impl:{name}"))

        # Back end per HW operator: separate P&R against abstract
        # shells.  Page implementations are independent of one another
        # (the paper's page-parallel cluster compile), so they form the
        # second — and by far the most expensive — batch.
        impl_steps: List[BatchStep] = []
        for name, op in graph.operators.items():
            if op.target != TARGET_HW or name in tripped:
                continue
            page = self.overlay.page(page_of[name])
            shell = self.overlay.abstract_shell(page.number)
            impl_steps.append(BatchStep(
                f"impl:{name}", (op.hls_spec, page.page_type.name,
                                 self.effort, self.seed),
                implement_design,
                (artifacts[name].netlist, page.page_type.grid()),
                {"context_luts": shell.context_luts,
                 "threads": self.cluster.threads_per_node,
                 "seed": self.seed, "effort": self.effort,
                 "engine": sim_engine}))
        impls = dict(zip((s.name for s in impl_steps),
                         engine.step_batch(impl_steps)))

        jobs: List[Job] = []
        page_images: Dict[int, Tuple[Bitstream, str, bool]] = {}
        for name, op in graph.operators.items():
            art = artifacts[name]
            page = self.overlay.page(page_of[name])
            if name in tripped:
                continue                   # degraded to -O0 below
            if op.target == TARGET_HW:
                impl = impls[f"impl:{name}"]
                art.fmax_mhz = min(impl.timing.fmax_mhz,
                                   art.schedule.fmax_mhz)
                stage = StageTimes(
                    hls=self.model.hls_seconds(
                        _ir_size(op), self.cluster.threads_per_node),
                    syn=self.model.syn_seconds(
                        art.estimate.luts, self.cluster.threads_per_node),
                    pnr=impl.pnr_seconds,
                    bit=self.model.bit_seconds(page.luts))
                art.stage_times = stage
                jobs.append(Job(name, stage))
                page_images[page.number] = (
                    Bitstream(f"page_{page.number}_{name}.xclbin",
                              page.luts, page.brams, page.dsps,
                              content_digest=engine.record.keys[
                                  f"impl:{name}"]),
                    name, False)
            else:
                page_images[page.number] = (
                    _softcore_page_image(
                        page, art.riscv,
                        digest=engine.record.keys.get(
                            f"riscv:{name}", "")),
                    name, True)

        injector = self.faults.compile_faults() \
            if self.faults is not None and self.faults.any_compile_faults \
            else None
        # Incremental scheduling: only jobs whose content key missed the
        # cache (i.e. the engine actually reran their impl step) go to
        # the cluster — the paper's Makefile discipline.  A warm cache
        # means zero jobs and a zero makespan; the cold schedule prices
        # the full rebuild for comparison.
        built_steps = set(engine.record.built)
        dirty_names = [job.name for job in jobs
                       if f"impl:{job.name}" in built_steps]
        schedule_result, cold_schedule = self.cluster.incremental_schedule(
            jobs, dirty_names, faults=injector, tracer=tracer,
            deadline=getattr(engine, "deadline", None))
        compile_times = schedule_result.stage_maxima

        # Graceful degradation (the paper's mixed-flow capability): an
        # operator whose -O1 page compile exhausted its retries — or
        # whose impl step tripped the circuit breaker — falls back to
        # the preloaded -O0 softcore on the same page, so the design
        # still links and produces identical output; only that operator
        # runs slower until a later recompile succeeds.
        degraded: Dict[str, str] = dict(tripped)
        for name in schedule_result.failed:
            degraded[name] = (
                f"page compile failed after "
                f"{schedule_result.attempts.get(name, 0)} attempts; "
                f"remapped to -O0 softcore")
        remapped: Dict[str, str] = {}
        if degraded:
            from repro.softcore.compiler import compile_operator
        for name, reason in degraded.items():
            op = graph.operators[name]
            page = self.overlay.page(page_of[name])
            compiled = engine.step(
                f"riscv:{name}", (op.sample_spec,),
                lambda op=op: compile_operator(op.sample_spec))
            if page.brams * BYTES_PER_BRAM18 < compiled.memory_bytes:
                raise RetryExhaustedError(
                    f"operator {name!r}: {reason.split(';')[0]}, and the "
                    f"-O0 fallback needs {compiled.memory_bytes} bytes, "
                    f"more than page {page.number} holds",
                    attempts=schedule_result.attempts.get(name, 0))
            art = artifacts[name]
            art.riscv = compiled
            art.target = TARGET_RISCV
            riscv_builds[name] = compiled
            riscv_seconds = max(
                riscv_seconds,
                self.model.riscv_seconds(compiled.ir_instructions))
            page_images[page.number] = (
                _softcore_page_image(
                    page, compiled,
                    digest=engine.record.keys.get(f"riscv:{name}", "")),
                name, True)
            remapped[name] = reason
            if self.faults is not None:
                self.faults.record("compile", "remap-to-o0", name, reason)

        config = build_link_configuration(graph, page_of)
        telemetry: Dict[str, object] = {}
        exec_graph = _build_exec_graph(project, riscv_builds, telemetry,
                                       self.softcore_cycles,
                                       sim_engine=sim_engine)

        performance = self._estimate_performance(
            project, schedules, config, riscv_builds, exec_graph,
            telemetry)
        area = self._area(graph, artifacts)

        # Pages whose occupant actually recompiled this invocation —
        # the incremental report's "what did the edit cost" set.
        built_now = set(engine.record.built)
        recompiled_pages = sorted(
            {page_of[name] for name in page_of
             if f"impl:{name}" in built_now
             or f"riscv:{name}" in built_now})

        if tracer.enabled:
            _trace_flow_phases(tracer, self.name, flow_base,
                               compile_times, riscv_seconds)
            tracer.wall_span(
                f"compile:{project.name}", wall_t0,
                tracer.now() - wall_t0, category="flow", lane="flow",
                flow=self.name, rebuilt=len(engine.record.built),
                reused=len(engine.record.reused),
                pages_recompiled=len(recompiled_pages),
                makespan_s=round(compile_times.total, 1))

        return FlowBuild(
            flow=self.name, project=project, monolithic=False,
            overlay=self.overlay,
            overlay_image=_overlay_bitstream(self.overlay),
            page_images=page_images,
            link_packets=config.config_packets(),
            compile_times=compile_times,
            riscv_seconds=riscv_seconds,
            operators=artifacts,
            performance=performance,
            area=area,
            page_of=page_of,
            rebuilt=list(engine.record.built),
            reused=list(engine.record.reused),
            resumed=list(engine.record.resumed),
            step_keys=dict(engine.record.keys),
            cache_stats=engine.cache_stats(),
            recompiled_pages=recompiled_pages,
            cold_compile_times=cold_schedule.stage_maxima,
            link_config=config,
            dfg=extract_dfg(graph),
            remapped=remapped,
            compile_attempts=dict(schedule_result.attempts),
            retry_seconds=schedule_result.retry_seconds,
            hedged_jobs=list(schedule_result.hedged),
            hedge_seconds=schedule_result.hedge_seconds,
            fault_plan=self.faults,
            _exec_graph=exec_graph,
            _telemetry=telemetry,
        )

    def _estimate_performance(self, project: Project,
                              schedules: Dict[str, Schedule],
                              config: LinkConfiguration,
                              riscv_builds: Dict[str, CompiledOperator],
                              exec_graph: DataflowGraph,
                              telemetry: Dict[str, object]
                              ) -> PerformanceSummary:
        # Operator specs are paper scale: the model's cycle counts are
        # already per paper-scale input.  Softcore cycles are measured
        # on the sample workload and extrapolated by the token ratio.
        model = NoCPerformanceModel(project.graph, schedules, config)
        ranked = [b for b in model.bottlenecks()
                  if not (b.kind == "compute" and b.where in riscv_builds)]
        if riscv_builds and project.sample_inputs:
            iss_cycles = _profile_softcores(exec_graph,
                                            project.sample_inputs,
                                            telemetry)
            for name, cycles in iss_cycles.items():
                ranked.append(Bottleneck(
                    "softcore", name,
                    float(cycles) * project.scale_factor
                    * tech.AP_LIBRARY_O0_OVERHEAD))
            ranked.sort(key=lambda b: -b.cycles)
        top = ranked[0] if ranked else Bottleneck("compute", "-", 0.0)
        cycles = top.cycles
        seconds = cycles / (tech.OVERLAY_CLOCK_MHZ * 1e6)
        flow_name = self.name if not riscv_builds else (
            "PLD -O0" if len(riscv_builds) == len(project.graph.operators)
            else "PLD -O1/-O0 mix")
        return PerformanceSummary(
            flow=flow_name,
            fmax_mhz=tech.OVERLAY_CLOCK_MHZ,
            cycles_per_sample=cycles,
            seconds_per_input=seconds,
            bottleneck=f"{top.kind}:{top.where}")

    @staticmethod
    def _area(graph: DataflowGraph,
              artifacts: Dict[str, OperatorArtifacts]) -> AreaSummary:
        area = AreaSummary(pages=len(artifacts))
        for name, art in artifacts.items():
            op = graph.operators[name]
            n_ports = len(op.inputs) + len(op.outputs)
            if art.target == TARGET_HW:
                area.luts += art.estimate.luts + tech.LEAF_INTERFACE_LUTS
                area.ffs += art.estimate.ffs + tech.LEAF_INTERFACE_LUTS
                # Deep stream FIFOs per port plus the leaf buffers: the
                # paper notes these "consume a large number of BRAMs".
                area.brams += art.estimate.brams + 4 * n_ports
                area.dsps += art.estimate.dsps
            else:
                # One-size-fits-all softcore page: count the whole page
                # (the paper's Tab. 4 -O0 accounting).
                from repro.fabric.page import page_by_number
                page = page_by_number(art.page)
                area.luts += page.luts + tech.LINK_NET_LUTS_PER_ENDPOINT
                area.ffs += page.ffs
                area.brams += page.brams
                area.dsps += page.dsps
        return area


# --------------------------------------------------------------------------
# -O0: everything on softcores
# --------------------------------------------------------------------------


class O0Flow(O1Flow):
    """All operators on softcores (Fig. 5): seconds-scale compiles."""

    name = "PLD -O0"

    def compile(self, project: Project,
                engine: Optional[BuildEngine] = None) -> FlowBuild:
        build = super().compile(project.all_riscv(), engine)
        build.flow = self.name
        # -O0 has no backend stages: Tab. 2 reports just the RISC-V
        # compile seconds.
        build.compile_times = StageTimes()
        return build


# --------------------------------------------------------------------------
# -O3: monolithic compile of the decomposed source
# --------------------------------------------------------------------------


class O3Flow:
    """Monolithic linking (Fig. 7): full-device P&R, full performance."""

    name = "PLD -O3"
    monolithic_threads = 30
    #: Channel wires per device-grid node.  A grid node is a 64-LUT
    #: cluster (~8 CLBs), so the real fabric offers hundreds of wires;
    #: 64 keeps PathFinder honest without starving dense placements.
    channel_capacity = 64
    #: PathFinder iterations for device-scale routes.  Commercial
    #: routers bound cleanup passes similarly; residual overuse at this
    #: scale is a hot spot the timing model already penalises.
    route_iterations = 5
    #: -O3 adds a deep hardware FIFO per link (BRAMs + glue LUTs).
    fifo_luts_per_link = 60
    fifo_brams_per_link = 6

    #: Relay stations (Sec. 7.5 future work): two-deep register pairs
    #: replacing the deep BRAM FIFOs between operators.
    relay_luts_per_link = 16
    relay_capacity = 2

    def __init__(self, model: CompileTimeModel = DEFAULT_MODEL,
                 effort: float = 1.0, seed: int = 1,
                 device=XCU50, relay_stations: bool = False,
                 sim_engine: Optional[str] = None):
        self.model = model
        self.effort = effort
        self.seed = seed
        self.device = device
        self.relay_stations = relay_stations
        #: See :attr:`O1Flow.sim_engine` — same knob, same contract.
        self.sim_engine = sim_engine

    def compile(self, project: Project,
                engine: Optional[BuildEngine] = None) -> FlowBuild:
        engine = engine or BuildEngine()
        engine.fresh_record()
        graph = project.graph
        tracer = _engine_tracer(engine)
        wall_t0 = tracer.now() if tracer.enabled else 0.0
        flow_base = tracer.modeled_time()

        artifacts: Dict[str, OperatorArtifacts] = {}
        schedules: Dict[str, Schedule] = {}
        merged: Optional[Netlist] = None
        total_estimate = ResourceEstimate()
        hls_seconds = 0.0
        for name, op in graph.operators.items():
            schedule, estimate, verilog, netlist = _hls_step(
                engine, op, tech.FMAX_CEILING_MHZ)
            art = OperatorArtifacts(name, TARGET_HW, schedule=schedule,
                                    estimate=estimate, verilog=verilog,
                                    netlist=netlist,
                                    fmax_mhz=schedule.fmax_mhz)
            artifacts[name] = art
            schedules[name] = schedule
            total_estimate = total_estimate + estimate
            hls_seconds = max(hls_seconds, self.model.hls_seconds(
                _ir_size(op), self.monolithic_threads))
            merged = netlist if merged is None \
                else merged.merged_with(netlist)

        if merged is None:
            raise FlowError(f"project {project.name!r} has no operators")

        sim_engine = resolve_engine(self.sim_engine)
        impl = engine.step(
            "impl:monolithic",
            tuple(op.hls_spec for op in graph.operators.values())
            + (self.effort, self.seed, "o3", self.device.name),
            lambda: implement_design(
                merged, self.device.grid(),
                context_luts=self.device.luts,
                threads=self.monolithic_threads, monolithic=True,
                seed=self.seed, effort=self.effort, spans_slrs=True,
                channel_capacity=self.channel_capacity,
                route_iterations=self.route_iterations,
                engine=sim_engine))

        n_links = len(graph.links)
        if self.relay_stations:
            # Sec. 7.5: relay stations instead of stream FIFOs save the
            # BRAMs and most of the glue LUTs — but shallow buffers can
            # deadlock token patterns the FIFOs absorbed, so prove the
            # application still drains at the relay capacity first.
            self._check_relay_deadlock(project, schedules)
            area = AreaSummary(
                luts=total_estimate.luts
                + self.relay_luts_per_link * n_links,
                ffs=total_estimate.ffs + 64 * n_links,
                brams=total_estimate.brams,
                dsps=total_estimate.dsps,
                pages=0)
        else:
            area = AreaSummary(
                luts=total_estimate.luts
                + self.fifo_luts_per_link * n_links,
                ffs=total_estimate.ffs + 32 * n_links,
                brams=total_estimate.brams
                + self.fifo_brams_per_link * n_links,
                dsps=total_estimate.dsps,
                pages=0)

        compile_times = StageTimes(
            hls=hls_seconds,
            syn=self.model.syn_seconds(area.luts,
                                       self.monolithic_threads,
                                       monolithic=True),
            pnr=impl.pnr_seconds,
            bit=self.model.bit_seconds(area.luts, monolithic=True))

        performance = self._estimate_performance(project, schedules,
                                                 artifacts)
        telemetry: Dict[str, object] = {}
        exec_graph = _build_exec_graph(project, {}, telemetry)

        if tracer.enabled:
            _trace_flow_phases(tracer, self.name, flow_base,
                               compile_times, 0.0)
            tracer.wall_span(
                f"compile:{project.name}", wall_t0,
                tracer.now() - wall_t0, category="flow", lane="flow",
                flow=self.name, rebuilt=len(engine.record.built),
                reused=len(engine.record.reused),
                makespan_s=round(compile_times.total, 1))

        image = Bitstream("kernel.xclbin", self.device.luts,
                          self.device.brams, self.device.dsps,
                          partial=True,
                          content_digest=engine.record.keys.get(
                              "impl:monolithic", ""))
        return FlowBuild(
            flow=self.name, project=project, monolithic=True,
            overlay=None, overlay_image=image, page_images={},
            link_packets=[], compile_times=compile_times,
            riscv_seconds=0.0, operators=artifacts,
            performance=performance, area=area,
            rebuilt=list(engine.record.built),
            reused=list(engine.record.reused),
            resumed=list(engine.record.resumed),
            step_keys=dict(engine.record.keys),
            cache_stats=engine.cache_stats(),
            cold_compile_times=compile_times,
            dfg=extract_dfg(graph),
            impl_fmax_mhz=impl.timing.fmax_mhz,
            _exec_graph=exec_graph, _telemetry=telemetry)

    def _check_relay_deadlock(self, project: Project,
                              schedules: Dict[str, Schedule]) -> None:
        """Prove the graph drains with relay-depth buffers (Sec. 7.5).

        Runs the timed simulator with every link capped at the relay
        capacity; a deadlock here means the original design relied on
        FIFO slack, and the flow refuses rather than build broken
        hardware — the "care to set the buffer sizes appropriately"
        the paper calls out.
        """
        from repro.dataflow.cycle_sim import CycleSimulator
        from repro.errors import DeadlockError

        sim = CycleSimulator(project.graph,
                             fifo_capacity=self.relay_capacity)
        try:
            sim.run({name: list(tokens)
                     for name, tokens in project.sample_inputs.items()})
        except DeadlockError as exc:
            raise FlowError(
                f"{project.name}: relay stations of depth "
                f"{self.relay_capacity} deadlock this token pattern "
                f"({exc}); size explicit FIFOs on the affected links or "
                f"keep the stream-FIFO -O3 flow") from exc

    def _fmax(self, artifacts: Dict[str, OperatorArtifacts]) -> float:
        """Decomposed -O3: FIFOs isolate operators, so the clock is set
        by the slowest operator's internal path, not the global wires."""
        return min((art.fmax_mhz for art in artifacts.values()),
                   default=tech.FMAX_CEILING_MHZ)

    def _estimate_performance(self, project: Project,
                              schedules: Dict[str, Schedule],
                              artifacts: Dict[str, OperatorArtifacts]
                              ) -> PerformanceSummary:
        """Steady-state pipeline model at paper scale.

        The decomposed design is a pipeline of operators joined by
        direct FIFOs: per-input latency is set by the slowest stage
        (schedules carry paper-scale cycle counts), plus the pipeline
        fill, at the clock the slowest operator sustains.
        """
        if not schedules:
            raise FlowError("cannot estimate performance of empty design")
        bottleneck_name, bottleneck = max(
            schedules.items(), key=lambda kv: kv[1].total_cycles)
        fill = sum(s.pipeline_depth for s in schedules.values())
        cycles = bottleneck.total_cycles + fill
        fmax = self._fmax(artifacts)
        seconds = cycles / (fmax * 1e6)
        return PerformanceSummary(self.name, round(fmax, 0), cycles,
                                  seconds, f"compute:{bottleneck_name}")


# --------------------------------------------------------------------------
# Vitis baseline: monolithic compile of the undecomposed kernel
# --------------------------------------------------------------------------


class VitisFlow(O3Flow):
    """The paper's baseline: the original, undecomposed Vitis design.

    Differences from -O3: HLS compiles the whole kernel sequentially
    (no per-operator parallelism); there are no inter-operator FIFOs,
    so the area is lower but long wires and SLR crossings set the clock
    (the Tab. 3 monolithic Fmax drops).
    """

    name = "Vitis"
    #: Cross-module optimisation shrinks the undecomposed design.
    monolithic_area_factor = 0.72

    def compile(self, project: Project,
                engine: Optional[BuildEngine] = None) -> FlowBuild:
        build = super().compile(project, engine)
        build.flow = self.name
        total_instrs = sum(_ir_size(op)
                           for op in project.graph.operators.values())
        build.compile_times = StageTimes(
            hls=self.model.hls_seconds(total_instrs, threads=1),
            syn=build.compile_times.syn,
            pnr=build.compile_times.pnr,
            bit=build.compile_times.bit)
        n_links = len(project.graph.links)
        build.area = AreaSummary(
            luts=max(1, int((build.area.luts
                             - self.fifo_luts_per_link * n_links)
                            * self.monolithic_area_factor)),
            ffs=int(build.area.ffs * self.monolithic_area_factor),
            brams=max(0, build.area.brams
                      - self.fifo_brams_per_link * n_links),
            dsps=build.area.dsps,
            pages=0)
        build.performance = self._vitis_performance(project, build)
        return build

    def _vitis_performance(self, project: Project,
                           build: FlowBuild) -> PerformanceSummary:
        # Reuse the cycle counts of -O3 (same dataflow), but at the
        # *routed* clock of the monolithic implementation: without the
        # inter-operator FIFOs of the decomposed design, long wires and
        # SLR crossings set the frequency (Sec. 7.4).
        base = build.performance
        # Floor at 150 MHz: commercial physical optimisation keeps even
        # the worst monolithic Rosetta design there (Tab. 3), while the
        # plain annealer can be more pessimistic on sparse placements.
        fmax = min(max(build.impl_fmax_mhz, 150.0),
                   tech.FMAX_CEILING_MHZ)
        cycles = base.cycles_per_sample
        seconds = cycles / (fmax * 1e6)
        return PerformanceSummary(self.name, round(fmax, 0), cycles,
                                  seconds, base.bottleneck)


#: The flow registry: one canonical name -> flow class map, shared by
#: the CLI and the compile service (both construct ``cls(effort=...)``).
FLOWS = {
    "o0": O0Flow,
    "o1": O1Flow,
    "o3": O3Flow,
    "vitis": VitisFlow,
}
