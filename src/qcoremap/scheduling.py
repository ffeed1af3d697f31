"""Ancilla-budgeted list scheduling of a bound dependency graph.

Durations and routing delays are quantized to integer scheduling levels:
the ceiling of delay / cycle time, computed exactly in integers on the
decimal values as written, each read by `fabric.decimal_ratio` as a
(numerator, denominator) pair (so 2.1 us at a 0.3 us cycle is 7 levels, not
the 8 that float division gives). Operations are processed in critical-path priority order
(longest path to any sink, ties to the lower node index), which `quantize`
computes once per kernel, and each takes the earliest start level at which
its predecessors have finished, routing lags have elapsed, and its core's
ancilla occupancy stays within the per-core budget for its whole duration
window.

Each core's ancilla pool is tracked as a timetable, the cumulative-resource
profile of RCPSP scheduling: a sorted list of breakpoint levels and the
ancilla in use from each breakpoint to the next (`list_schedule`). Placing
an operation walks and splits only the segments its window touches, so the
cost depends on the number of operations, not on how many levels a fine
cycle time makes them span. `verify_schedule` re-checks the schedule
against the graph and the quantized durations, and the budget from the
schedule's own operations, with a sorted sweep over their start and end
events.

Every same-core dependency pays the intra-core cache-load lag (the delay
matrix diagonal); cross-core dependencies pay the mesh transfer delay.
The schedule holds each operation's core, start and duration, its makespan
and its latency; per-core ancilla use and inter-core transfers follow from
those operations and the bound partition. A budget at or above a
schedule's `ancilla_peak` leaves that schedule unchanged (proved there).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import add

import numpy as np

from .errors import ConfigError
from .fabric import decimal_ratio
from .partition import Partition
from .binding import Binding
from .qodg import Qodg


@dataclass(frozen=True)
class ScheduleConfig:
    cycle_time: float = 1.0     # us per scheduling level

    def __post_init__(self):
        if not math.isfinite(self.cycle_time) or self.cycle_time <= 0:
            raise ConfigError("cycle time must be positive and finite")


@dataclass(frozen=True)
class LevelizedDurations:
    dur_levels: np.ndarray      # per node, ceil(delay / cycle)
    route_levels: np.ndarray    # k x k, ceil(d / cycle)
    cycle_time: float
    order: tuple[int, ...]      # node ids, highest priority first


# level counts, start levels and ends are stored as int64
_LEVEL_LIMIT = 2**63 - 1


def quantize(g: Qodg, dmat: np.ndarray, cfg: ScheduleConfig) -> LevelizedDurations:
    """Convert microsecond node delays and k x k routing delays to integer
    level counts, and order the nodes by priority for `list_schedule`."""
    c_num, c_den = decimal_ratio(cfg.cycle_time)
    delays = g.delay_us.tolist()
    d = dmat.tolist()
    levels = {}
    for v in set(delays).union(*d):
        v_num, v_den = decimal_ratio(v)
        levels[v] = -(-(v_num * c_den) // (v_den * c_num))
    longest = max(levels)  # the longest delay takes the most levels
    if levels[longest] > _LEVEL_LIMIT:
        raise ConfigError(f"a delay of {longest:g} us at cycle time {cfg.cycle_time:g} us "
                          "exceeds 2**63 - 1 levels")
    dur = [levels[v] for v in delays]
    route = np.array([[levels[v] for v in row] for row in d], dtype=np.int64)
    # highest priority first; the sort is stable, so ties go to the lower index
    order = sorted(range(len(dur)), key=_priorities(g.preds, dur).__getitem__, reverse=True)
    return LevelizedDurations(np.array(dur, dtype=np.int64), route, cfg.cycle_time, tuple(order))


# not frozen: a frozen dataclass sets each field through object.__setattr__,
# which made building a schedule's ops cost a third of a list_schedule call
@dataclass
class ScheduledOp:
    node: int
    kind: str
    core: int
    start: int
    dur_levels: int


@dataclass(frozen=True)
class MappedSchedule:
    """A kernel's schedule; ops[i] is the op of node i, for every node."""
    ops: tuple[ScheduledOp, ...]
    makespan: int
    latency_us: float


def _priorities(preds, dur: list[int]) -> list[int]:
    """Longest duration path from each node to any sink, itself included."""
    # in reverse index order every successor of v is final before v, and
    # prio[v] holds the best of them until dur[v] is added
    prio = [0] * len(dur)
    for v in range(len(dur) - 1, -1, -1):
        p = prio[v] = prio[v] + dur[v]
        for u in preds[v]:
            if p > prio[u]:
                prio[u] = p
    return prio


def list_schedule(g: Qodg, partition: Partition, binding: Binding,
                  budget_per_core: int, lev: LevelizedDurations) -> MappedSchedule:
    """Schedule every operation once, honoring precedence+routing lags and
    the per-core ancilla budget at every level it occupies. Op i of the
    schedule is node i.

    Greedy earliest-feasible-start scheduling in the priority order
    `lev.order`. Levels are 1-based. Core c's timetable is bps[c], sorted
    breakpoint levels starting at 1, and uses[c][i], the ancilla in use
    from level bps[c][i] until the next breakpoint; the last segment runs
    on forever and stays empty. An op starts no earlier than its inputs
    arrive; each segment of its window that is too full for it moves the
    start to that segment's end. That is the earliest feasible start, the
    same one a level-by-level occupancy scan finds (`tests/oracles.py`
    keeps that scan as the reference). A zero-level op starts when its
    inputs arrive and holds no ancilla.
    """
    n = len(g)
    core = [binding.part_to_core[p] for p in partition.assignment.tolist()]
    if n and int(g.ancilla.max()) > budget_per_core:
        raise ConfigError(
            f"operation needs {int(g.ancilla.max())} ancilla, exceeding the per-core budget {budget_per_core}"
        )
    if n == 0:
        return MappedSchedule((), 0, 0.0)

    # the loop reads Python ints, not numpy scalars, which compare slower
    dur = lev.dur_levels.tolist()
    anc = g.ancilla.tolist()
    route = lev.route_levels.tolist()
    start = [0] * n
    bps = [[1] for _ in binding.part_to_core]
    uses = [[0] for _ in binding.part_to_core]
    for x in lev.order:
        c = core[x]
        ready = 1
        for p in g.preds[x]:
            cand = start[p] + dur[p] + route[core[p]][c]
            if cand > ready:
                ready = cand
        t = dur[x]
        if t == 0:
            start[x] = ready
            continue
        bp, use = bps[c], uses[c]
        cap = budget_per_core - anc[x]
        s = ready
        i = bisect_right(bp, s) - 1
        while True:
            if use[i] > cap:
                s = bp[i + 1]
            elif i + 1 == len(bp) or bp[i + 1] >= s + t:
                break
            i += 1
        start[x] = s
        # split the timetable at s + t, then at s, and add the op's ancilla
        # between them. Segment i is the window's last: bp[i] < s + t <=
        # bp[i + 1]. The walk may have moved i past the segment holding s,
        # so s is searched from the front.
        j = i + 1
        if j == len(bp) or bp[j] != s + t:
            bp.insert(j, s + t)
            use.insert(j, use[i])
        h = bisect_left(bp, s)
        if bp[h] != s:
            bp.insert(h, s)
            use.insert(h, use[h - 1])
            j += 1
        a = anc[x]
        for m in range(h, j):
            use[m] += a

    ops = tuple(map(ScheduledOp, range(n), [op.kind for op in g.ops], core, start, dur))
    makespan = max(map(add, start, dur)) - 1
    if makespan >= _LEVEL_LIMIT:
        raise ConfigError(f"the schedule at cycle time {lev.cycle_time:g} us "
                          "ends beyond 2**63 - 2 levels")
    return MappedSchedule(ops, makespan, makespan * lev.cycle_time)


def _ancilla_segments(ops, ancilla: np.ndarray):
    """Per-core ancilla profile of a non-empty sequence of ops: the core,
    start level and ancilla in use of every segment, as int64 arrays in
    (core, level) order. Each segment runs to the next one's start; a
    core's last segment holds 0. An op of zero levels adds nothing."""
    # +ancilla at each op's start, -ancilla at its end, swept in (core,
    # level) order; each core's events sum to zero, so one running sum
    # serves all cores, read after the last event at each level
    cores = np.array([op.core for op in ops], dtype=np.int64)
    lo = np.array([op.start for op in ops], dtype=np.int64)
    hi = lo + np.maximum([op.dur_levels for op in ops], 0)
    anc = ancilla[[op.node for op in ops]]
    ev_core = np.concatenate([cores, cores])
    ev_level = np.concatenate([lo, hi])
    order = np.lexsort((ev_level, ev_core))
    ev_core, ev_level = ev_core[order], ev_level[order]
    in_use = np.cumsum(np.concatenate([anc, -anc])[order])
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (ev_core[1:] != ev_core[:-1]) | (ev_level[1:] != ev_level[:-1])
    return ev_core[last], ev_level[last], in_use[last]


def ancilla_peak(sched: MappedSchedule, g: Qodg) -> int:
    """The most ancilla any one core holds at any level of the schedule (0
    for an empty one), read from its ops and g's ancilla counts alone with
    the verifier's event sweep.

    A budget at or above a schedule's peak changes nothing in that
    schedule. The priority order does not depend on the budget, and if the
    schedule at budget B never holds more than b <= B ancilla on a core,
    then scheduling at b places every operation where B placed it. By
    induction over the order, the operation's window at B in the partial
    timetable, plus its own ancilla, is at most the final profile at B, so
    at most b: it fits there, and the smaller budget admits no earlier
    start. Below the peak the schedule at B breaks the budget, so the
    threshold is tight. `sweep_budget` schedules each kernel at an
    unbounded budget and reuses that schedule at every budget from its
    peak up.
    """
    if not sched.ops:
        return 0
    return int(_ancilla_segments(sched.ops, g.ancilla)[2].max())


def verify_schedule(sched: MappedSchedule, g: Qodg, partition: Partition,
                    binding: Binding, budget_per_core: int,
                    lev: LevelizedDurations) -> tuple[bool, list[str]]:
    """Independent re-check of the schedule constraints.

    A schedule whose ops are not nodes 0..n-1 in order (one too many or
    too few, or op i holding another node) gets that one violation and no
    other check. Otherwise verifies: each op at level >= 1, for its
    quantized duration, on its bound core; precedence with routing lags;
    per-core ancilla occupancy within budget at every level, reported once
    per over-budget run of levels at one occupancy; and the makespan
    covering every op's finish. Violations are returned as human-readable
    strings; empty list means pass.
    """
    ops = sched.ops
    if len(ops) != len(g):
        return (False, [f"{len(ops)} ops for {len(g)} nodes"])
    misplaced = next((i for i, op in enumerate(ops) if op.node != i), None)
    if misplaced is not None:
        return (False, [f"op {misplaced} holds node {ops[misplaced].node}"])

    violations: list[str] = []
    dur = lev.dur_levels.tolist()
    route = lev.route_levels.tolist()
    core = [binding.part_to_core[p] for p in partition.assignment.tolist()]
    for i, op in enumerate(ops):
        if op.start < 1:
            violations.append(f"op {i} starts before level 1")
        if op.dur_levels != dur[i]:
            violations.append(f"op {i} lasts {op.dur_levels} levels, "
                              f"quantized duration is {dur[i]}")
        if op.core != core[i]:
            violations.append(f"op {i} on core {op.core}, bound to {core[i]}")

    for u, v, _ in g.edges.tolist():
        a, b = ops[u], ops[v]
        lag = route[core[u]][core[v]]
        if a.start + a.dur_levels + lag > b.start:
            violations.append(
                f"dependency {u}->{v} violated: "
                f"{a.start}+{a.dur_levels}+{lag} > {b.start}"
            )

    if ops:
        seg_core, seg_start, seg_use = _ancilla_segments(ops, g.ancilla)
        # an over-budget segment is never its core's last, which holds 0
        for j in np.flatnonzero(seg_use > budget_per_core):
            violations.append(
                f"core {seg_core[j]} levels {seg_start[j]}-{seg_start[j + 1] - 1}: "
                f"ancilla {seg_use[j]} > budget {budget_per_core}"
            )
        finish = max(op.start + op.dur_levels - 1 for op in ops)
        if finish != sched.makespan:
            violations.append(f"makespan {sched.makespan} != max finish {finish}")
    return (not violations, violations)
