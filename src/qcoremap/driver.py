"""End-to-end mapping pipeline and sweep experiments.

For each distinct kernel (structural duplicates map once): build the
dependency graph, partition it k ways, derive the core geometry and routing
delays from the fabric parameters, bind parts to cores, and list-schedule
under the per-core ancilla budget. `map_program` and `sweep_budget` prepare
kernels through one path. Stages execute serially, so program latency is the
sum over stages of repetition count times the mapped kernel latency. The
renderers return text; writing it is left to the caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .binding import Binding, bind_parts
from .errors import ConfigError
from .fabric import (
    CoreGeometry,
    FabricParams,
    QecProfile,
    compute_dmax,
    compute_geometry,
    delay_matrix,
    grid_layout,
)
from .ir import KernelCatalog, KernelProgram, identify_kernels
from .partition import Partition, kway_partition
from .qodg import Qodg, build_qodg
from .scheduling import (
    LevelizedDurations,
    MappedSchedule,
    ScheduleConfig,
    ancilla_peak,
    list_schedule,
    quantize,
    verify_schedule,
)

ASSUMPTIONS = (
    "inter-stage qubit handoff latency is not modeled; stage latencies sum serially",
    "interconnect bandwidth is not contended",
    "each distinct kernel is mapped once and replayed for every repetition",
)


@dataclass
class KernelMapping:
    qodg: Qodg
    partition: Partition
    geometry: CoreGeometry
    dmat: np.ndarray            # k x k routing delays, us
    binding: Binding
    lev: LevelizedDurations
    timings_ms: dict[str, float]
    schedule: MappedSchedule | None = None  # set once a budget is chosen


@dataclass
class MappingReport:
    catalog: KernelCatalog
    profile: QecProfile
    params: FabricParams
    cfg: ScheduleConfig
    kernel_maps: dict[str, KernelMapping]
    program_latency_us: float


def _prepare_kernel(kernel, profile, params, cfg, eps) -> KernelMapping:
    """Every budget-independent step: dependency graph, partition, geometry,
    delays, binding and quantized durations. The schedule is left unset."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    g = build_qodg(kernel, profile)
    timings["qodg"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    part = kway_partition(g, params.core_count, eps)
    timings["partition"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    geom = compute_geometry(profile, params, compute_dmax(g, part))
    dmat = delay_matrix(geom, params, grid_layout(params.core_count))
    bnd = bind_parts(part.traffic, dmat)
    timings["bind"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    lev = quantize(g, dmat, cfg)
    timings["quantize"] = (time.perf_counter() - t0) * 1e3
    return KernelMapping(g, part, geom, dmat, bnd, lev, timings)


def _prepare_program(program: KernelProgram, profile: QecProfile, params: FabricParams,
                     cfg: ScheduleConfig, eps: float
                     ) -> tuple[KernelCatalog, dict[str, KernelMapping]]:
    """Check the program and the budget, identify its distinct kernels and
    prepare each one, in representative id order."""
    if not program.sequence.stages:
        raise ConfigError("program contains no operations to map")
    params.validate_against(profile)
    catalog = identify_kernels(program)
    needed = sorted({rep for _, rep, _ in catalog.stage_instances})
    return catalog, {
        rep: _prepare_kernel(catalog.representatives[rep], profile, params, cfg, eps)
        for rep in needed
    }


def _schedule_kernel(km: KernelMapping, budget_per_core: int) -> MappedSchedule:
    """List-schedule a prepared kernel under one per-core budget and check
    the result with the independent verifier."""
    sched = list_schedule(km.qodg, km.partition, km.binding, budget_per_core, km.lev)
    ok, violations = verify_schedule(sched, km.qodg, km.partition, km.binding,
                                     budget_per_core, km.lev)
    if not ok:
        raise RuntimeError(
            f"schedule for kernel '{km.qodg.kernel_id}' at per-core budget {budget_per_core} "
            "failed verification: " + "; ".join(violations[:5])
        )
    return sched


def _program_latency(catalog: KernelCatalog, kernel_latency_us) -> float:
    """Stages run serially: the sum, in stage order, of each stage's
    repetition count times kernel_latency_us(representative id)."""
    return float(sum(count * kernel_latency_us(rep) for _, rep, count in catalog.stage_instances))


def map_program(program: KernelProgram, profile: QecProfile, params: FabricParams,
                cfg: ScheduleConfig | None = None, eps: float = 0.1) -> MappingReport:
    """Run the whole pipeline; each distinct kernel is mapped exactly once
    and every schedule is verified."""
    cfg = cfg or ScheduleConfig()
    catalog, kernel_maps = _prepare_program(program, profile, params, cfg, eps)
    for km in kernel_maps.values():
        t0 = time.perf_counter()
        km.schedule = _schedule_kernel(km, params.budget_per_core)
        km.timings_ms["schedule"] = (time.perf_counter() - t0) * 1e3
    total = _program_latency(catalog, lambda rep: kernel_maps[rep].schedule.latency_us)
    return MappingReport(catalog, profile, params, cfg, kernel_maps, total)


# ----------------------------------------------------------------------
# report rendering

def _us(v: float) -> str:
    s = f"{v:.3f}".rstrip("0").rstrip(".")
    return s if s else "0"


def render_report(report: MappingReport, include_timings: bool = False) -> str:
    out: list[str] = []
    p = report.params
    out.append("FABRIC")
    out.append(f"  cores: {p.core_count}")
    layout = grid_layout(p.core_count)
    rows = int(layout[:, 0].max()) + 1
    cols = int(layout[:, 1].max()) + 1
    out.append(f"  grid: {rows}x{cols}")
    out.append(f"  ancilla_budget: {p.ancilla_budget}")
    out.append(f"  budget_per_core: {p.budget_per_core}")
    out.append(f"  beta_pmd_us: {_us(p.beta_pmd)}")
    out.append(f"  alpha_int: {p.alpha_int}")
    out.append(f"  gamma_mem: {p.gamma_mem:g}")
    out.append(f"  cycle_time_us: {_us(report.cfg.cycle_time)}")
    out.append(f"  qec_code: {report.profile.code_name} (length {report.profile.code_length})")
    for rep_id, km in sorted(report.kernel_maps.items()):
        geo = km.geometry
        out.append(f"  kernel {rep_id}:")
        out.append(f"    d_max: {geo.d_max}")
        out.append(
            f"    alpha_compute: {geo.alpha_compute}  alpha_core: {geo.alpha_core}"
            f"  alpha_cache: {geo.alpha_cache}  alpha_mem: {geo.alpha_mem}"
        )
        out.append("    d_us:")
        for x in range(p.core_count):
            row = " ".join(_us(km.dmat[x, y]) for y in range(p.core_count))
            out.append(f"      {row}")
    out.append("")
    out.append("KERNELS")
    for rep_id, km in sorted(report.kernel_maps.items()):
        sched = km.schedule
        out.append(f"  kernel {rep_id}: ops={len(km.qodg)} constraints={km.partition.n_con}")
        out.append("    partition:")
        for part_idx, members in enumerate(km.partition.parts()):
            ids = " ".join(str(m) for m in members)
            out.append(f"      part {part_idx}: {ids}")
        cut_w = int(km.partition.traffic.sum())
        out.append(f"    cut_qubits: {cut_w}")
        perm = " ".join(str(c) for c in km.binding.part_to_core)
        mode = "exhaustive" if km.binding.exhaustive else "greedy"
        out.append(f"    binding: [{perm}] cost_us_qubits={_us(km.binding.cost)} ({mode})")
        out.append(
            f"    schedule: makespan={sched.makespan} levels latency_us={_us(sched.latency_us)}"
        )
        out.append("      op_id kind core start dur")
        for op in sched.ops:
            out.append(f"      {op.node} {op.kind} {op.core} {op.start} {op.dur_levels}")
        if include_timings:
            t = " ".join(f"{k}={v:.1f}ms" for k, v in km.timings_ms.items())
            out.append(f"    timings: {t}")
    out.append("")
    out.append("PROGRAM")
    out.append("  stage kernel rep repeat latency_us")
    for idx, (kid, rep, count) in enumerate(report.catalog.stage_instances):
        lat = report.kernel_maps[rep].schedule.latency_us
        out.append(f"  {idx} {kid} {rep} {count} {_us(count * lat)}")
    out.append(f"  total_latency_us: {_us(report.program_latency_us)}")
    out.append("")
    out.append("ASSUMPTIONS")
    for a in ASSUMPTIONS:
        out.append(f"  - {a}")
    out.append(f"  provenance: qcoremap {__version__}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepPoint:
    axis_value: int
    latency_us: float
    runtime_ms: float


@dataclass
class SweepResult:
    points: list[SweepPoint]
    skipped: list[tuple[int, str]]
    saturation_value: int | None = None
    saturation_latency_us: float | None = None


def sweep_budget(program: KernelProgram, profile: QecProfile, params: FabricParams,
                 budgets, cfg: ScheduleConfig | None = None, eps: float = 0.1) -> SweepResult:
    """Latency as a function of total ancilla budget.

    A budget that `FabricParams.validate_against` rejects is skipped with
    its reason. The kernels are prepared once, at the largest feasible
    budget, so the fabric geometry (and with it the routing-delay matrix,
    partition and binding) is pinned and the curve isolates the
    ancilla-sharing trade-off; only the scheduler's per-core budget varies
    between points. The saturation point -- the smallest budget
    whose latency matches an unbounded-budget schedule -- is reported.

    The unbounded point is scheduled first, once per stage instance, and
    each kernel's schedule there gives its ancilla peak, the most ancilla
    one core holds at once. At a budget point, a kernel whose peak is at
    most the per-core budget reuses its unbounded schedule; every other
    kernel is scheduled and verified at that budget. The reuse is exact
    (`scheduling.ancilla_peak` gives the proof). A feasible budget is at
    least every op's ancilla, so a reused point hides no error
    `list_schedule` would raise. A point's
    `runtime_ms` covers the schedules made for it, and for a point that
    reuses every kernel only the summation.
    """
    cfg = cfg or ScheduleConfig()
    feasible = []
    skipped = []
    for a in sorted(set(int(a) for a in budgets)):
        try:
            pa = replace(params, ancilla_budget=a)
            pa.validate_against(profile)
        except ConfigError as exc:
            skipped.append((a, str(exc)))
        else:
            feasible.append(pa)
    if not feasible and program.sequence.stages:
        return SweepResult([], skipped)
    # with no feasible budget only an empty program gets here, and
    # _prepare_program rejects it before it looks at the budget
    pinned = feasible[-1] if feasible else params
    catalog, prepared = _prepare_program(program, profile, pinned, cfg, eps)

    unbounded = int(max(int(km.qodg.ancilla.sum()) for km in prepared.values())) + 1
    unbounded_sched: dict[str, MappedSchedule] = {}

    def unbounded_latency(rep: str) -> float:
        unbounded_sched[rep] = _schedule_kernel(prepared[rep], unbounded)
        return unbounded_sched[rep].latency_us

    sat_latency = _program_latency(catalog, unbounded_latency)
    peak = {rep: ancilla_peak(sched, prepared[rep].qodg)
            for rep, sched in unbounded_sched.items()}

    def program_latency(budget_per_core: int) -> float:
        return _program_latency(catalog, lambda rep: (
            unbounded_sched[rep] if peak[rep] <= budget_per_core
            else _schedule_kernel(prepared[rep], budget_per_core)).latency_us)

    points = []
    for pa in feasible:
        t0 = time.perf_counter()
        lat = program_latency(pa.budget_per_core)
        points.append(SweepPoint(pa.ancilla_budget, lat, (time.perf_counter() - t0) * 1e3))

    sat_value = next((pt.axis_value for pt in points if pt.latency_us == sat_latency), None)
    return SweepResult(points, skipped, sat_value, sat_latency)


def sweep_cores(program: KernelProgram, profile: QecProfile, params: FabricParams,
                k_values, cfg: ScheduleConfig | None = None, eps: float = 0.1) -> SweepResult:
    """Latency as a function of core count; k = 1 is always included as the
    baseline. Kernels with fewer operations than cores still map, leaving
    some cores empty. A core count the budget cannot support (per-core
    budget below the most expensive operation) is skipped with a reason;
    any other configuration error ends the sweep."""
    cfg = cfg or ScheduleConfig()
    values = sorted(set(int(k) for k in k_values) | {1})
    points = []
    skipped = []
    for k in values:
        pk = replace(params, core_count=k)
        try:
            pk.validate_against(profile)
        except ConfigError as exc:
            skipped.append((k, str(exc)))
            continue
        t0 = time.perf_counter()
        rep = map_program(program, profile, pk, cfg, eps)
        points.append(SweepPoint(k, rep.program_latency_us, (time.perf_counter() - t0) * 1e3))
    return SweepResult(points, skipped)


def render_sweep_csv(result: SweepResult) -> str:
    lines = ["axis,latency_us,runtime_ms"]
    for pt in result.points:
        lines.append(f"{pt.axis_value},{_us(pt.latency_us)},{pt.runtime_ms:.3f}")
    return "\n".join(lines) + "\n"
