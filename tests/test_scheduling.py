import numpy as np
import pytest

from conftest import ops_to_netlist, random_ops
from oracles import optimal_makespan

from qcoremap import (
    DelayMatrix,
    FabricParams,
    ScheduleConfig,
    build_qodg,
    level_graph,
    map_program,
    parse_program,
    quantize,
    verify_schedule,
)
from qcoremap.fabric import OpCost, QecProfile


def _one_op_graph(delay_us):
    profile = QecProfile("flat", 7, {"H": OpCost(10, delay_us, False)})
    return level_graph(build_qodg(parse_program("qubit a\nH a\n").kernels["_top0"], profile))


def _levels(delay_us, cycle_time):
    dmat = DelayMatrix(np.array([[delay_us]]), np.zeros((1, 2), dtype=np.int64))
    lev = quantize(_one_op_graph(delay_us), dmat, ScheduleConfig(cycle_time))
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
                            [int(a) for a in g.ancilla()], core, lag, k, budget)
    assert sched.makespan >= best
