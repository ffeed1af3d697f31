"""Ancilla-budgeted list scheduling of a bound dependency graph.

Durations and routing delays are quantized to integer scheduling levels:
the ceiling of delay / cycle time, computed exactly on the decimal values
as written (so 2.1 us at a 0.3 us cycle is 7 levels, not the 8 that float
division gives). Operations are processed in critical-path priority order
(longest path to any sink, ties by seq) and each takes the earliest start
level at which its predecessors have finished, routing lags have elapsed,
and its core's ancilla occupancy stays within the per-core budget for its
whole duration window. One plain Python loop over numpy arrays does this
(`_schedule_impl`).

Every same-core dependency pays the intra-core cache-load lag (the delay
matrix diagonal); cross-core dependencies pay the mesh transfer delay and
get an xy route recorded for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .fabric import DelayMatrix, xy_route
from .partition import Partition
from .binding import Binding
from .qodg import Qodg


@dataclass(frozen=True)
class ScheduleConfig:
    cycle_time: float = 1.0     # us per scheduling level

    def __post_init__(self):
        if self.cycle_time <= 0:
            raise ConfigError("cycle time must be positive")


@dataclass(frozen=True)
class LevelizedDurations:
    dur_levels: np.ndarray      # per node, ceil(delay / cycle)
    route_levels: np.ndarray    # k x k, ceil(d / cycle)
    l_init: int                 # serial bound: no schedule needs more levels
    cycle_time: float


def _decimal(us: float) -> Fraction:
    """The decimal a float prints as, exactly: 0.3 is 3/10, not the nearest
    binary fraction (which is slightly below it)."""
    return Fraction(repr(float(us)))


def quantize(g: Qodg, dmat: DelayMatrix, cfg: ScheduleConfig) -> LevelizedDurations:
    """Convert microsecond delays to integer level counts."""
    cyc = _decimal(cfg.cycle_time)
    delays = [nd.delay_us for nd in g.nodes]
    d = dmat.d.tolist()
    levels = {v: math.ceil(_decimal(v) / cyc) for v in set(delays).union(*d)}
    dur = np.array([levels[v] for v in delays], dtype=np.int64)
    route = np.array([[levels[v] for v in row] for row in d], dtype=np.int64)
    k = len(d)
    max_r = int(route.max()) if k else 0
    l_init = int(dur.sum()) + len(g) * max_r + 1
    return LevelizedDurations(dur, route, l_init, cfg.cycle_time)


@dataclass(frozen=True)
class ScheduledOp:
    node: int
    kind: str
    core: int
    start: int
    dur_levels: int


@dataclass(frozen=True)
class QubitRoute:
    edge: tuple[int, int]
    path: tuple[tuple[int, int], ...]
    start: int
    dur_levels: int


@dataclass(frozen=True)
class MappedSchedule:
    ops: tuple[ScheduledOp, ...]
    makespan: int
    latency_us: float
    occupancy: np.ndarray       # (k, makespan + 1); column 0 unused
    routes: tuple[QubitRoute, ...]


def _schedule_impl(order, dur, anc, core, pred_ptr, pred_idx, pred_lag, n_cores, budget, l_init):
    """Greedy earliest-feasible-start scheduling in a fixed priority order.

    Levels are 1-based. occ[c, z] accumulates ancilla in use on core c at
    level z. Returns (start, occ, status); status nonzero means the level
    bound was exceeded (never happens when l_init is the serial bound).
    """
    n = order.shape[0]
    start = np.zeros(n, dtype=np.int64)
    occ = np.zeros((n_cores, l_init + 2), dtype=np.int64)
    for k in range(n):
        x = order[k]
        ready = np.int64(1)
        for e in range(pred_ptr[x], pred_ptr[x + 1]):
            p = pred_idx[e]
            cand = start[p] + dur[p] + pred_lag[e]
            if cand > ready:
                ready = cand
        c = core[x]
        a = anc[x]
        t = dur[x]
        s = ready
        while True:
            if s + t - 1 > l_init:
                return start, occ, 1
            ok = True
            z = s
            while z < s + t:
                if occ[c, z] + a > budget:
                    s = z + 1
                    ok = False
                    break
                z += 1
            if ok:
                break
        start[x] = s
        for z in range(s, s + t):
            occ[c, z] += a
    return start, occ, 0


def _priorities(g: Qodg, dur: np.ndarray) -> np.ndarray:
    prio = dur.copy()
    for u in range(len(g) - 1, -1, -1):
        best = 0
        for v in g.succs[u]:
            if prio[v] > best:
                best = prio[v]
        prio[u] = dur[u] + best
    return prio


def list_schedule(g: Qodg, partition: Partition, binding: Binding,
                  budget_per_core: int, lev: LevelizedDurations,
                  grid: np.ndarray | None = None) -> MappedSchedule:
    """Schedule every operation once, honoring precedence+routing lags and
    the per-core ancilla budget at every level it occupies."""
    n = len(g)
    core = np.array(
        [binding.part_to_core[int(partition.assignment[i])] for i in range(n)],
        dtype=np.int64,
    )
    anc = g.ancilla()
    if n and int(anc.max()) > budget_per_core:
        raise ConfigError(
            f"operation needs {int(anc.max())} ancilla, exceeding the per-core budget {budget_per_core}"
        )
    dur = lev.dur_levels
    if n == 0:
        return MappedSchedule((), 0, 0.0, np.zeros((len(binding.part_to_core), 1), dtype=np.int64), ())

    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        pred_ptr[v + 1] = pred_ptr[v] + len(g.preds[v])
    pred_idx = np.empty(pred_ptr[-1], dtype=np.int64)
    pred_lag = np.empty(pred_ptr[-1], dtype=np.int64)
    pos = 0
    for v in range(n):
        for u in g.preds[v]:
            pred_idx[pos] = u
            pred_lag[pos] = lev.route_levels[core[u], core[v]]
            pos += 1

    prio = _priorities(g, dur)
    seq = np.arange(n, dtype=np.int64)
    order = np.lexsort((seq, -prio)).astype(np.int64)

    n_cores = len(binding.part_to_core)
    # numpy scalars throughout: the inner loop compares against budget and
    # l_init, and numpy-to-Python-int comparisons cost about 1.6x more
    start, occ, status = _schedule_impl(
        order, dur, anc, core, pred_ptr, pred_idx, pred_lag,
        np.int64(n_cores), np.int64(budget_per_core), np.int64(lev.l_init),
    )
    if status != 0:
        raise RuntimeError("level bound exceeded during scheduling (internal bug)")

    makespan = int((start + dur - 1).max())
    ops = tuple(
        ScheduledOp(i, g.nodes[i].op.kind, int(core[i]), int(start[i]), int(dur[i]))
        for i in range(n)
    )
    routes = []
    for e in g.edges:
        cu, cv = int(core[e.src]), int(core[e.dst])
        if cu != cv:
            path = tuple(xy_route(cu, cv, grid)) if grid is not None else ()
            routes.append(QubitRoute(
                (e.src, e.dst), path,
                int(start[e.src] + dur[e.src]),
                int(lev.route_levels[cu, cv]),
            ))
    latency = makespan * lev.cycle_time
    return MappedSchedule(ops, makespan, latency, occ[:, : makespan + 1].copy(), tuple(routes))


def verify_schedule(sched: MappedSchedule, g: Qodg, partition: Partition,
                    binding: Binding, budget_per_core: int,
                    lev: LevelizedDurations) -> tuple[bool, list[str]]:
    """Independent re-check of the schedule constraints.

    Verifies: each op scheduled exactly once at level >= 1; precedence with
    routing lags; per-core per-level ancilla occupancy within budget; and
    the makespan covering every op's finish. Violations are returned as
    human-readable strings; empty list means pass.
    """
    violations: list[str] = []
    n = len(g)
    by_node: dict[int, ScheduledOp] = {}
    for op in sched.ops:
        if op.node in by_node:
            violations.append(f"op {op.node} scheduled more than once")
        by_node[op.node] = op
    for i in range(n):
        if i not in by_node:
            violations.append(f"op {i} never scheduled")
        elif by_node[i].start < 1:
            violations.append(f"op {i} starts before level 1")

    def core_of(i: int) -> int:
        return binding.part_to_core[int(partition.assignment[i])]

    for e in g.edges:
        if e.src not in by_node or e.dst not in by_node:
            continue
        a, b = by_node[e.src], by_node[e.dst]
        lag = int(lev.route_levels[core_of(e.src), core_of(e.dst)])
        if a.start + a.dur_levels + lag > b.start:
            violations.append(
                f"dependency {e.src}->{e.dst} violated: "
                f"{a.start}+{a.dur_levels}+{lag} > {b.start}"
            )

    usage: dict[tuple[int, int], int] = {}
    for op in by_node.values():
        want_core = core_of(op.node)
        if op.core != want_core:
            violations.append(f"op {op.node} on core {op.core}, bound to {want_core}")
        for z in range(op.start, op.start + op.dur_levels):
            key = (op.core, z)
            usage[key] = usage.get(key, 0) + g.nodes[op.node].ancilla
    for (c, z), a in sorted(usage.items()):
        if a > budget_per_core:
            violations.append(f"core {c} level {z}: ancilla {a} > budget {budget_per_core}")

    finish = [op.start + op.dur_levels - 1 for op in by_node.values()]
    if finish and max(finish) != sched.makespan:
        violations.append(f"makespan {sched.makespan} != max finish {max(finish)}")
    return (not violations, violations)
