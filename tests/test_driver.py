import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ops_to_netlist

import qcoremap.driver as driver
from qcoremap import (
    FabricParams,
    ScheduleConfig,
    critical_path,
    map_program,
    parse_program,
    render_report,
    sweep_budget,
    sweep_cores,
    verify_schedule,
)
from qcoremap.generators import phase_estimation_netlist, walk_step_netlist


def _assert_verified(report):
    for km in report.kernel_maps.values():
        ok, violations = verify_schedule(km.schedule, km.qodg, km.partition, km.binding,
                                         report.params.budget_per_core, km.lev)
        assert ok, violations


@pytest.mark.parametrize("text,k", [
    (phase_estimation_netlist(4), 4),
    ("qubit a\nqubit b\nH a\nCNOT a,b\n", 8),
    ("qubit a\nqubit b\nH a\nT b\nCNOT a,b\n", 9),   # greedy binding above k = 8
])
def test_kernels_smaller_than_k_map(text, k, steane):
    report = map_program(parse_program(text), steane, FabricParams(k, 100 * k))
    _assert_verified(report)
    for km in report.kernel_maps.values():
        assert len(km.qodg) < k
        assert sum(len(p) for p in km.partition.parts()) == len(km.qodg)
        assert sorted(km.binding.part_to_core) == list(range(k))


def test_sweep_cores_maps_more_cores_than_operations(steane):
    result = sweep_cores(parse_program(phase_estimation_netlist(3)), steane,
                         FabricParams(1, 1600), (1, 2, 4, 8, 9, 16))
    assert result.skipped == []
    assert [p.axis_value for p in result.points] == [1, 2, 4, 8, 9, 16]


def test_sweep_budget_reuses_one_preparation_per_kernel(steane, monkeypatch):
    prepared = []
    real = driver.kway_partition

    def counting(g, *args, **kwargs):
        prepared.append(g.kernel_id)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(driver, "kway_partition", counting)
    program = parse_program(walk_step_netlist(6, 2, reps=2) + ".call step x3\n.call init\n")
    result = sweep_budget(program, steane, FabricParams(2, 600), (200, 400, 600))
    assert sorted(prepared) == ["init", "step"]
    # the sweep point at the full budget is the plain mapping at that budget
    full = map_program(program, steane, FabricParams(2, 600))
    assert result.points[-1].latency_us == full.program_latency_us


_ONE_QUBIT = ("H", "S", "T", "Tdg", "X", "Y", "Z")


@st.composite
def _netlists(draw):
    n_qubits = draw(st.integers(2, 5))
    ops = []
    for _ in range(draw(st.integers(1, 24))):
        if draw(st.booleans()):
            a, b = draw(st.lists(st.integers(0, n_qubits - 1), min_size=2, max_size=2,
                                 unique=True))
            ops.append(("CNOT", (a, b)))
        else:
            ops.append((draw(st.sampled_from(_ONE_QUBIT)), (draw(st.integers(0, n_qubits - 1)),)))
    return ops_to_netlist(ops, n_qubits)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_netlists(), k=st.integers(1, 4), per_core=st.sampled_from([100, 150, 300]),
       cycle=st.sampled_from([1.0, 0.3, 7.0]))
def test_random_netlists_map_verify_and_repeat(text, k, per_core, cycle, steane):
    program = parse_program(text)
    params = FabricParams(k, per_core * k)
    report = map_program(program, steane, params, ScheduleConfig(cycle))
    _assert_verified(report)
    bound = sum(count * critical_path(report.kernel_maps[rep].qodg)
                for _, rep, count in report.catalog.stage_instances)
    assert report.program_latency_us >= bound - 1e-9 * bound
    again = map_program(parse_program(text), steane, params, ScheduleConfig(cycle))
    assert render_report(again) == render_report(report)
