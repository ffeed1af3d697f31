"""End-to-end mapping pipeline and sweep experiments.

For each distinct kernel (structural duplicates map once): build the
dependency graph, partition it k ways, derive the core geometry and routing
delays, bind parts to cores, and list-schedule under the per-core ancilla
budget. Stages execute serially, so program latency is the sum over stages
of repetition count times the mapped kernel latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from . import __version__
from .binding import Binding, bind_parts
from .errors import ConfigError
from .fabric import (
    CoreGeometry,
    DelayMatrix,
    FabricParams,
    QecProfile,
    compute_dmax,
    compute_geometry,
    delay_matrix,
    grid_layout,
)
from .ir import KernelCatalog, KernelProgram, identify_kernels
from .partition import Partition, WeightAnnotation, assign_weight_vectors, kway_partition
from .qodg import Qodg, build_qodg, level_graph
from .scheduling import (
    LevelizedDurations,
    MappedSchedule,
    ScheduleConfig,
    list_schedule,
    quantize,
    verify_schedule,
)

ASSUMPTIONS = (
    "inter-stage qubit handoff latency is not modeled; stage latencies sum serially",
    "interconnect bandwidth is not contended; routes are recorded for reporting only",
    "each distinct kernel is mapped once and replayed for every repetition",
)


@dataclass
class KernelMapping:
    rep_id: str
    qodg: Qodg
    weights: WeightAnnotation
    partition: Partition
    d_max: int
    geometry: CoreGeometry
    dmat: DelayMatrix
    binding: Binding
    lev: LevelizedDurations
    timings_ms: dict[str, float]
    schedule: MappedSchedule | None = None  # set once a budget is chosen


@dataclass
class MappingReport:
    program: KernelProgram
    catalog: KernelCatalog
    profile: QecProfile
    params: FabricParams
    cfg: ScheduleConfig
    eps: float
    seed: int
    geometry_budget: int
    kernel_maps: dict[str, KernelMapping]
    stages: tuple[tuple[str, str, int, float], ...]  # (kernel, rep, count, latency_us)
    program_latency_us: float

    @property
    def assumptions(self) -> tuple[str, ...]:
        return ASSUMPTIONS


def _prepare_kernel(rep_id, kernel, profile, params, cfg, eps, seed,
                    geometry_budget) -> KernelMapping:
    """Every budget-independent step: dependency graph, partition, geometry,
    delays, binding and quantized durations. The schedule is left unset."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    g = level_graph(build_qodg(kernel, profile))
    timings["qodg"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    ann = assign_weight_vectors(g, params.core_count)
    part = kway_partition(g, params.core_count, eps, ann, seed)
    timings["partition"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    d_max = compute_dmax(g, part)
    geom = compute_geometry(profile, params, d_max, budget=geometry_budget)
    layout = grid_layout(params.core_count)
    dmat = delay_matrix(geom, params, layout)
    bnd = bind_parts(part.traffic, dmat.d)
    timings["bind"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    lev = quantize(g, dmat, cfg)
    timings["quantize"] = (time.perf_counter() - t0) * 1e3
    return KernelMapping(rep_id, g, ann, part, d_max, geom, dmat, bnd, lev, timings)


def _schedule_kernel(km: KernelMapping, budget_per_core: int) -> MappedSchedule:
    """List-schedule a prepared kernel under one per-core budget and check
    the result with the independent verifier."""
    sched = list_schedule(km.qodg, km.partition, km.binding, budget_per_core, km.lev, km.dmat.grid)
    ok, violations = verify_schedule(sched, km.qodg, km.partition, km.binding,
                                     budget_per_core, km.lev)
    if not ok:
        raise RuntimeError(
            f"schedule for kernel '{km.rep_id}' at per-core budget {budget_per_core} "
            "failed verification: " + "; ".join(violations[:5])
        )
    return sched


def _program_latency(catalog: KernelCatalog, kernel_latency_us) -> float:
    """Stages run serially: the sum, in stage order, of each stage's
    repetition count times kernel_latency_us(representative id)."""
    return float(sum(count * kernel_latency_us(rep) for _, rep, count in catalog.stage_instances))


def map_program(program: KernelProgram, profile: QecProfile, params: FabricParams,
                cfg: ScheduleConfig | None = None, eps: float = 0.1, seed: int = 0,
                geometry_budget: int | None = None) -> MappingReport:
    """Run the whole pipeline; each distinct kernel is mapped exactly once
    and every schedule is verified."""
    cfg = cfg or ScheduleConfig()
    if not program.sequence.stages:
        raise ConfigError("program contains no operations to map")
    params.validate_against(profile)
    catalog = identify_kernels(program)
    needed = {rep for _, rep, _ in catalog.stage_instances}
    kernel_maps: dict[str, KernelMapping] = {}
    for rep_id in sorted(needed):
        km = _prepare_kernel(rep_id, catalog.representatives[rep_id], profile, params, cfg,
                             eps, seed, geometry_budget)
        t0 = time.perf_counter()
        km.schedule = _schedule_kernel(km, params.budget_per_core)
        km.timings_ms["schedule"] = (time.perf_counter() - t0) * 1e3
        kernel_maps[rep_id] = km
    stages = tuple(
        (kid, rep, count, kernel_maps[rep].schedule.latency_us)
        for kid, rep, count in catalog.stage_instances
    )
    total = _program_latency(catalog, lambda rep: kernel_maps[rep].schedule.latency_us)
    return MappingReport(
        program, catalog, profile, params, cfg, eps, seed,
        geometry_budget if geometry_budget is not None else params.ancilla_budget,
        kernel_maps, stages, total,
    )


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
    if report.geometry_budget != p.ancilla_budget:
        out.append(f"  geometry_budget: {report.geometry_budget}")
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
            row = " ".join(_us(km.dmat.d[x, y]) for y in range(p.core_count))
            out.append(f"      {row}")
    out.append("")
    out.append("KERNELS")
    for rep_id, km in sorted(report.kernel_maps.items()):
        sched = km.schedule
        out.append(f"  kernel {rep_id}: ops={len(km.qodg)} constraints={km.weights.n_con}")
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
    for idx, (kid, rep, count, lat) in enumerate(report.stages):
        out.append(f"  {idx} {kid} {rep} {count} {_us(count * lat)}")
    out.append(f"  total_latency_us: {_us(report.program_latency_us)}")
    out.append("")
    out.append("ASSUMPTIONS")
    for a in report.assumptions:
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
    axis: str
    points: list[SweepPoint]
    skipped: list[tuple[int, str]]
    saturation_value: int | None = None
    saturation_latency_us: float | None = None


def sweep_budget(program: KernelProgram, profile: QecProfile, params: FabricParams,
                 budgets, cfg: ScheduleConfig | None = None, eps: float = 0.1,
                 seed: int = 0) -> SweepResult:
    """Latency as a function of total ancilla budget.

    The fabric geometry (and with it the routing-delay matrix, partition and
    binding) is pinned at the largest feasible swept budget so the curve
    isolates the ancilla-sharing trade-off; only the scheduler's per-core
    budget varies between points. The saturation point -- the smallest budget
    whose latency matches an unbounded-budget schedule -- is reported.
    """
    cfg = cfg or ScheduleConfig()
    if not program.sequence.stages:
        raise ConfigError("program contains no operations to map")
    k = params.core_count
    values = sorted(set(int(a) for a in budgets))
    feasible = []
    skipped = []
    for a in values:
        if a // k < profile.max_ancilla:
            skipped.append((a, f"per-core budget {a // k} below max operation ancilla "
                               f"{profile.max_ancilla}"))
        else:
            feasible.append(a)
    if not feasible:
        return SweepResult("A", [], skipped)
    pin = max(feasible)

    catalog = identify_kernels(program)
    needed = sorted({rep for _, rep, _ in catalog.stage_instances})
    prepared = {
        rep_id: _prepare_kernel(rep_id, catalog.representatives[rep_id], profile, params, cfg,
                                eps, seed, pin)
        for rep_id in needed
    }

    def program_latency(budget_per_core: int) -> float:
        return _program_latency(
            catalog, lambda rep: _schedule_kernel(prepared[rep], budget_per_core).latency_us
        )

    points = []
    for a in feasible:
        t0 = time.perf_counter()
        lat = program_latency(a // k)
        points.append(SweepPoint(a, lat, (time.perf_counter() - t0) * 1e3))

    unbounded = int(max(int(km.qodg.ancilla().sum()) for km in prepared.values())) + 1
    sat_latency = program_latency(unbounded)
    sat_value = next((pt.axis_value for pt in points if pt.latency_us == sat_latency), None)
    return SweepResult("A", points, skipped, sat_value, sat_latency)


def sweep_cores(program: KernelProgram, profile: QecProfile, params: FabricParams,
                k_values, cfg: ScheduleConfig | None = None, eps: float = 0.1,
                seed: int = 0) -> SweepResult:
    """Latency as a function of core count; k = 1 is always included as the
    baseline. Kernels with fewer operations than cores still map, leaving
    some cores empty. A core count the budget cannot support (per-core
    budget below the most expensive operation) is skipped with a reason."""
    cfg = cfg or ScheduleConfig()
    values = sorted(set(int(k) for k in k_values) | {1})
    points = []
    skipped = []
    for k in values:
        pk = replace(params, core_count=k)
        t0 = time.perf_counter()
        try:
            rep = map_program(program, profile, pk, cfg, eps, seed)
        except ConfigError as exc:
            skipped.append((k, str(exc)))
            continue
        points.append(SweepPoint(k, rep.program_latency_us, (time.perf_counter() - t0) * 1e3))
    return SweepResult("k", points, skipped)


def write_sweep_csv(result: SweepResult, target) -> None:
    lines = ["axis,latency_us,runtime_ms"]
    for pt in result.points:
        lines.append(f"{pt.axis_value},{_us(pt.latency_us)},{pt.runtime_ms:.3f}")
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
