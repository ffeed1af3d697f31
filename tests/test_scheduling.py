import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ops_to_netlist, random_ops
from oracles import levelwise_reference, optimal_makespan

from qcoremap import (
    ConfigError,
    FabricParams,
    ScheduleConfig,
    build_qodg,
    list_schedule,
    map_program,
    parse_program,
    quantize,
    verify_schedule,
)
from qcoremap.binding import Binding
from qcoremap.fabric import OpCost, QecProfile
from qcoremap.generators import walk_step_netlist
from qcoremap.ir import Kernel
from qcoremap.partition import Partition
from qcoremap.scheduling import MappedSchedule, ScheduledOp, ancilla_peak


def _one_op_graph(delay_us):
    profile = QecProfile("flat", 7, {"H": OpCost(10, delay_us, False)})
    return build_qodg(parse_program("qubit a\nH a\n").kernels["_top0"], profile)


def _levels(delay_us, cycle_time):
    lev = quantize(_one_op_graph(delay_us), np.array([[delay_us]]), ScheduleConfig(cycle_time))
    return int(lev.dur_levels[0]), int(lev.route_levels[0, 0])


def test_quantize_divides_the_decimals_as_written():
    # float division gives 2.1 / 0.3 = 7.000000000000001, so ceil says 8
    assert _levels(2.1, 0.3) == (7, 7)


@pytest.mark.parametrize("cycle_tenths", [1, 2, 3, 7, 11, 25])
def test_quantize_grid_of_fractional_cycles(cycle_tenths):
    cycle = cycle_tenths / 10
    for tenths in range(1, 61):
        want = -(-tenths // cycle_tenths)
        assert _levels(tenths / 10, cycle) == (want, want), (tenths / 10, cycle)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(delay=_positive | st.just(0.0), route=_positive, cycle=_positive)
@example(delay=2.1, route=2.4, cycle=0.3)
@example(delay=5e-324, route=1e308, cycle=5e-324)     # past 2**63 - 1 levels
@example(delay=1e308, route=1.0, cycle=1e-300)
def test_quantize_levels_are_the_exact_decimal_ceiling(delay, route, cycle):
    want = [math.ceil(Fraction(repr(v)) / Fraction(repr(cycle))) for v in (delay, route)]
    g = _one_op_graph(delay)
    if max(want) > 2**63 - 1:
        with pytest.raises(ConfigError, match="exceeds 2\\*\\*63 - 1 levels$"):
            quantize(g, np.array([[route]]), ScheduleConfig(cycle))
        return
    lev = quantize(g, np.array([[route]]), ScheduleConfig(cycle))
    assert [int(lev.dur_levels[0]), int(lev.route_levels[0, 0])] == want


@pytest.mark.parametrize("cycle", [math.nan, math.inf])
def test_schedule_config_rejects_a_non_finite_cycle(cycle):
    with pytest.raises(ConfigError, match="cycle time must be positive and finite"):
        ScheduleConfig(cycle)


@pytest.mark.parametrize("seed", range(12))
def test_tiny_schedules_verify_and_respect_the_optimum(seed, steane):
    rng = np.random.default_rng(seed)
    n_qubits = int(rng.integers(2, 5))
    text = ops_to_netlist(random_ops(rng, int(rng.integers(2, 7)), n_qubits), n_qubits)
    k = int(rng.integers(1, 3))
    budget = int(rng.choice([100, 156, 200]))
    report = map_program(parse_program(text), steane, FabricParams(k, budget * k))
    km = next(iter(report.kernel_maps.values()))
    g, lev, sched = km.qodg, km.lev, km.schedule
    ok, violations = verify_schedule(sched, g, km.partition, km.binding, budget, lev)
    assert ok, violations
    core = [km.binding.part_to_core[int(p)] for p in km.partition.assignment]
    lag = {(u, v): int(lev.route_levels[core[u], core[v]]) for v in range(len(g)) for u in g.preds[v]}
    best = optimal_makespan(len(g), g.preds, [int(t) for t in lev.dur_levels],
                            g.ancilla.tolist(), core, lag, k, budget)
    assert sched.makespan >= best


_KINDS = ("H", "S", "T", "Tdg", "X", "Y", "Z", "CNOT")
_DELAYS_US = (0.1, 0.3, 0.5, 1.0, 2.1, 4.0, 7.5, 40.0)


def _bound_schedule(seed, k, cycle, zero_delay_kind=None):
    """A random graph on a random profile with mixed durations, bound to k
    cores at random, scheduled with a per-core budget equal to its largest
    op ancilla so that ops queue. Returns (g, core, lev, budget, schedule)."""
    rng = np.random.default_rng(seed)
    rows = {kind: OpCost(int(rng.integers(1, 60)), float(rng.choice(_DELAYS_US)), True)
            for kind in _KINDS}
    if zero_delay_kind is not None:
        rows[zero_delay_kind] = OpCost(rows[zero_delay_kind].ancilla, 0.0, True)
    profile = QecProfile("mixed", 7, rows)
    n_qubits = int(rng.integers(2, 6))
    text = ops_to_netlist(random_ops(rng, int(rng.integers(1, 30)), n_qubits), n_qubits)
    g = build_qodg(parse_program(text).kernels["_top0"], profile)
    part = Partition(rng.integers(0, k, size=len(g)), k, np.zeros((k, k), dtype=np.int64),
                     n_con=0)
    binding = Binding(tuple(int(c) for c in rng.permutation(k)), 0.0, True)
    dmat = rng.choice(_DELAYS_US, size=(k, k))
    lev = quantize(g, dmat, ScheduleConfig(cycle))
    budget = int(g.ancilla.max())
    core = [binding.part_to_core[int(p)] for p in part.assignment]
    sched = list_schedule(g, part, binding, budget, lev)
    ok, violations = verify_schedule(sched, g, part, binding, budget, lev)
    assert ok, violations
    return g, core, lev, budget, sched


def _assert_matches_levelwise(g, core, lev, budget, sched, k):
    start, _ = levelwise_reference(
        g.preds, lev.dur_levels.tolist(), g.ancilla.tolist(), core,
        lev.route_levels.tolist(), k, budget,
    )
    assert [op.start for op in sched.ops] == start


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 4]),
       cycle=st.sampled_from([0.1, 0.2, 0.3, 1.0, 10.0]))
def test_timetable_starts_equal_the_levelwise_scan(seed, k, cycle):
    g, core, lev, budget, sched = _bound_schedule(seed, k, cycle)
    _assert_matches_levelwise(g, core, lev, budget, sched, k)
    assert [op.node for op in sched.ops] == list(range(len(g)))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 4]),
       cycle=st.sampled_from([0.1, 0.3, 1.0, 10.0]))
def test_budgets_from_the_ancilla_peak_up_keep_the_unbounded_schedule(seed, k, cycle):
    g, core, lev, largest, _ = _bound_schedule(seed, k, cycle)
    # node v on core core[v], as a partition bound by the identity
    part = Partition(np.array(core), k, np.zeros((k, k), dtype=np.int64), n_con=0)
    binding = Binding(tuple(range(k)), 0.0, True)
    unbounded = int(g.ancilla.sum()) + 1
    free = list_schedule(g, part, binding, unbounded, lev)
    peak = ancilla_peak(free, g)
    _, occ = levelwise_reference(g.preds, lev.dur_levels.tolist(), g.ancilla.tolist(), core,
                                 lev.route_levels.tolist(), k, unbounded)
    assert peak == int(occ.max())
    assert peak >= largest    # every op lasts at least one level
    for budget in [*range(peak, peak + 4), unbounded]:
        assert list_schedule(g, part, binding, budget, lev).ops == free.ops, budget
    if peak - 1 >= largest:
        assert list_schedule(g, part, binding, peak - 1, lev).ops != free.ops


def test_ancilla_peak_of_an_empty_schedule_is_zero():
    assert ancilla_peak(MappedSchedule((), 0, 0.0), _one_op_graph(1.0)) == 0


@pytest.mark.parametrize("seed", range(6))
def test_zero_level_ops_start_when_ready_and_hold_no_ancilla(seed):
    g, core, lev, budget, sched = _bound_schedule(seed, 2, 0.3, zero_delay_kind="H")
    _assert_matches_levelwise(g, core, lev, budget, sched, 2)


def _one_core(g):
    """A one-core partition and binding of g, and its durations at a 1 us
    cycle."""
    part = Partition(np.zeros(len(g), dtype=np.int64), 1, np.zeros((1, 1), dtype=np.int64), 0)
    return part, Binding((0,), 0.0, True), quantize(g, np.array([[1.0]]), ScheduleConfig(1.0))


def test_zero_level_op_between_two_ops():
    rows = {"H": OpCost(5, 0.0, True), "T": OpCost(9, 2.0, True)}
    g = build_qodg(parse_program("qubit a\nT a\nH a\nT a\n").kernels["_top0"],
                   QecProfile("zero", 7, rows))
    part, binding, lev = _one_core(g)
    sched = list_schedule(g, part, binding, 9, lev)
    # T at 1-2, lag 1, H at 4 with no levels, lag 1, T at 5-6
    assert [(op.start, op.dur_levels) for op in sched.ops] == [(1, 2), (4, 0), (5, 2)]
    assert sched.makespan == 6
    assert verify_schedule(sched, g, part, binding, 9, lev) == (True, [])


def test_budget_below_an_operations_ancilla_is_rejected(uniform_profile):
    g = build_qodg(parse_program("qubit a\nH a\nT a\n").kernels["_top0"], uniform_profile)
    part, binding, lev = _one_core(g)
    with pytest.raises(ConfigError, match="needs 10 ancilla, exceeding the per-core budget 9"):
        list_schedule(g, part, binding, 9, lev)


def test_empty_kernel_schedules_to_nothing(uniform_profile):
    # the parser makes no empty kernel, but a hand-built one still schedules
    g = build_qodg(Kernel("empty", ()), uniform_profile)
    part, binding, lev = _one_core(g)
    assert list_schedule(g, part, binding, 1, lev) == MappedSchedule((), 0, 0.0)


# ----------------------------------------------------------------------
# the verifier must catch broken schedules, not only pass good ones

@pytest.fixture(scope="module")
def walk_map(steane):
    report = map_program(parse_program(walk_step_netlist(8, 3, reps=1, seed=3)), steane,
                         FabricParams(2, 400), ScheduleConfig(0.2))
    km = report.kernel_maps["step"]
    return km, report.params.budget_per_core


def _verify(km, sched, budget):
    return verify_schedule(sched, km.qodg, km.partition, km.binding, budget, km.lev)


def test_verifier_passes_the_unchanged_schedule(walk_map):
    km, budget = walk_map
    assert _verify(km, km.schedule, budget) == (True, [])


def test_verifier_flags_an_op_moved_before_a_tight_predecessor(walk_map):
    km, budget = walk_map
    ops, lev = km.schedule.ops, km.lev
    tight = [
        (u, v) for u, v, _ in km.qodg.edges.tolist()
        if ops[u].start + ops[u].dur_levels
        + int(lev.route_levels[ops[u].core, ops[v].core]) == ops[v].start
    ]
    assert tight
    u, v = tight[0]
    moved = list(ops)
    moved[v] = replace(ops[v], start=ops[v].start - 1)
    ok, violations = _verify(km, replace(km.schedule, ops=tuple(moved)), budget)
    assert not ok
    assert any(msg.startswith(f"dependency {u}->{v} violated:") for msg in violations)


def test_verifier_flags_every_level_over_a_budget_one_below_the_peak(walk_map):
    km, budget = walk_map
    usage = {}
    for op in km.schedule.ops:
        for z in range(op.start, op.start + op.dur_levels):
            usage[op.core, z] = usage.get((op.core, z), 0) + int(km.qodg.ancilla[op.node])
    peak = max(usage.values())
    ok, violations = _verify(km, km.schedule, peak - 1)
    assert not ok
    # one line per over-budget run of levels, so the count does not grow
    # with the levels a fine cycle time gives each op
    assert len(violations) <= 2 * len(km.schedule.ops)
    flagged = set()
    for msg in violations:
        c, lo, hi, a = map(int, re.fullmatch(
            rf"core (\d+) levels (\d+)-(\d+): ancilla (\d+) > budget {peak - 1}", msg).groups())
        assert lo <= hi
        assert all(usage[c, z] == a for z in range(lo, hi + 1))
        flagged.update((c, z) for z in range(lo, hi + 1))
    assert flagged == {cz for cz, a in usage.items() if a > peak - 1}


def test_verifier_flags_ops_shorter_than_their_quantized_duration(walk_map):
    km, budget = walk_map
    # one level per op keeps every dependency and the budget, and the
    # makespan is patched to the shortened finish
    short = tuple(replace(op, dur_levels=1) for op in km.schedule.ops)
    makespan = max(op.start for op in short)
    want = [f"op {op.node} lasts 1 levels, quantized duration is {km.lev.dur_levels[op.node]}"
            for op in short]
    assert all(km.lev.dur_levels > 1)
    assert _verify(km, replace(km.schedule, ops=short, makespan=makespan), budget) == (
        False, want)


def test_verifier_flags_a_duplicated_op(walk_map):
    km, budget = walk_map
    ops = km.schedule.ops
    n = len(km.qodg)
    assert _verify(km, replace(km.schedule, ops=ops + (ops[3],)), budget) == (
        False, [f"{n + 1} ops for {n} nodes"])


def test_verifier_reports_an_op_not_in_the_graph(uniform_profile):
    g = build_qodg(parse_program("qubit a\nH a\nT a\n").kernels["_top0"], uniform_profile)
    part, binding, lev = _one_core(g)
    sched = list_schedule(g, part, binding, 10, lev)
    assert len(sched.ops) == 2
    for node in (5, -1):
        extra = replace(sched, ops=sched.ops + (ScheduledOp(node, "H", 0, 1, 1),))
        assert verify_schedule(extra, g, part, binding, 10, lev) == (False, ["3 ops for 2 nodes"])


def test_verifier_flags_an_op_never_scheduled(walk_map):
    km, budget = walk_map
    ops = km.schedule.ops
    # an op that ends before the makespan, so the makespan still holds
    i = next(op.node for op in ops if op.start + op.dur_levels - 1 < km.schedule.makespan)
    kept = tuple(op for op in ops if op.node != i)
    n = len(km.qodg)
    assert _verify(km, replace(km.schedule, ops=kept), budget) == (
        False, [f"{n - 1} ops for {n} nodes"])


def test_verifier_rejects_ops_out_of_node_order(walk_map):
    km, budget = walk_map
    ops = list(km.schedule.ops)
    # a complete, otherwise valid schedule: only the order is wrong
    ops[3], ops[4] = ops[4], ops[3]
    assert _verify(km, replace(km.schedule, ops=tuple(ops)), budget) == (
        False, ["op 3 holds node 4"])


def test_verifier_flags_an_op_starting_before_level_1(walk_map):
    km, budget = walk_map
    ops = km.schedule.ops
    # an op with no predecessor that starts at level 1; one level earlier
    # it holds its ancilla alone at level 0 and delays no successor
    has_pred = set(km.qodg.edges[:, 1].tolist())
    i = next(op.node for op in ops if op.start == 1 and op.node not in has_pred
             and op.start + op.dur_levels - 1 < km.schedule.makespan)
    moved = tuple(replace(op, start=0) if op.node == i else op for op in ops)
    assert _verify(km, replace(km.schedule, ops=moved), budget) == (
        False, [f"op {i} starts before level 1"])


def test_verifier_flags_an_op_on_another_core(walk_map):
    km, _ = walk_map
    ops = km.schedule.ops
    bound = ops[5].core
    moved = list(ops)
    moved[5] = replace(ops[5], core=1 - bound)
    # a budget no core can exceed leaves the core check alone to fail
    unbounded = int(km.qodg.ancilla.sum())
    assert _verify(km, replace(km.schedule, ops=tuple(moved)), unbounded) == (
        False, [f"op 5 on core {1 - bound}, bound to {bound}"])


def test_verifier_flags_a_wrong_makespan(walk_map):
    km, budget = walk_map
    m = km.schedule.makespan
    assert _verify(km, replace(km.schedule, makespan=m + 1), budget) == (
        False, [f"makespan {m + 1} != max finish {m}"])


# ----------------------------------------------------------------------
# cycle-time invariance: whole-microsecond delays at a 100x finer cycle

def test_a_hundred_times_finer_cycle_scales_every_level(steane):
    program = parse_program(walk_step_netlist(16, 4, seed=1))
    params = FabricParams(2, 400)
    coarse = map_program(program, steane, params, ScheduleConfig(1.0))
    fine = map_program(program, steane, params, ScheduleConfig(0.01))
    assert coarse.kernel_maps.keys() == fine.kernel_maps.keys()
    for rep, km in coarse.kernel_maps.items():
        a, b = km.schedule, fine.kernel_maps[rep].schedule
        assert b.makespan == a.makespan * 100
        assert [op.start for op in b.ops] == [(op.start - 1) * 100 + 1 for op in a.ops]
        ok, violations = verify_schedule(b, fine.kernel_maps[rep].qodg, km.partition,
                                         km.binding, params.budget_per_core,
                                         fine.kernel_maps[rep].lev)
        assert ok, violations
