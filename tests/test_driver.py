from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ops_to_netlist
from oracles import reference_sweep_budget

import qcoremap.driver as driver
from qcoremap import (
    ConfigError,
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
from qcoremap.scheduling import ancilla_peak


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


def test_schedule_that_fails_verification_is_an_error(steane, monkeypatch):
    monkeypatch.setattr(driver, "verify_schedule", lambda *args: (False, ["op 0 starts early"]))
    with pytest.raises(RuntimeError, match="^schedule for kernel 'init' at per-core budget 200 "
                                           "failed verification: op 0 starts early$"):
        map_program(parse_program(walk_step_netlist(6, 2, reps=2)), steane, FabricParams(2, 400))


def test_program_without_operations_is_rejected(steane):
    with pytest.raises(ConfigError, match="^program contains no operations to map$"):
        map_program(parse_program("qubit a\n"), steane, FabricParams(2, 400))


def test_sweep_cores_maps_more_cores_than_operations(steane):
    result = sweep_cores(parse_program(phase_estimation_netlist(3)), steane,
                         FabricParams(1, 1600), (1, 2, 4, 8, 9, 16))
    assert result.skipped == []
    assert [p.axis_value for p in result.points] == [1, 2, 4, 8, 9, 16]


def test_sweep_budget_with_no_feasible_budget_skips_every_point(steane):
    # CNOT needs 100 ancilla, more than any of these budgets gives a core
    program = parse_program(walk_step_netlist(6, 2, reps=2))
    result = sweep_budget(program, steane, FabricParams(2, 150), (50, 100, 150))
    assert result.points == []
    assert [a for a, _ in result.skipped] == [50, 100, 150]
    assert all("cannot host the most expensive operation" in why for _, why in result.skipped)
    assert result.saturation_value is None
    assert result.saturation_latency_us is None


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


def _draw_ops(draw, n_qubits, max_ops):
    ops = []
    for _ in range(draw(st.integers(1, max_ops))):
        if draw(st.booleans()):
            a, b = draw(st.lists(st.integers(0, n_qubits - 1), min_size=2, max_size=2,
                                 unique=True))
            ops.append(("CNOT", (a, b)))
        else:
            ops.append((draw(st.sampled_from(_ONE_QUBIT)), (draw(st.integers(0, n_qubits - 1)),)))
    return ops


@st.composite
def _netlists(draw):
    n_qubits = draw(st.integers(2, 5))
    return ops_to_netlist(_draw_ops(draw, n_qubits, 24), n_qubits)


@st.composite
def _kernel_programs(draw):
    """1-3 kernels called in random order with repetition counts."""
    n_qubits = draw(st.integers(3, 8))
    text = ops_to_netlist([], n_qubits)
    n_kernels = draw(st.integers(1, 3))
    for i in range(n_kernels):
        # gate lines only: the qubits are declared at the top
        text += f".kernel K{i}\n{ops_to_netlist(_draw_ops(draw, n_qubits, 20), 0)}.endkernel\n"
    for _ in range(draw(st.integers(1, 4))):
        text += f".call K{draw(st.integers(0, n_kernels - 1))} x{draw(st.integers(1, 3))}\n"
    return text


def _stage_peaks(program, steane, params, cfg):
    """The representative of each stage instance, and each kernel's ancilla
    peak when scheduled at the unbounded budget."""
    catalog, prepared = driver._prepare_program(program, steane, params, cfg, 0.1)
    unbounded = max(int(km.qodg.ancilla.sum()) for km in prepared.values()) + 1
    peak = {rep: ancilla_peak(driver._schedule_kernel(km, unbounded), km.qodg)
            for rep, km in prepared.items()}
    return [rep for _, rep, _ in catalog.stage_instances], peak


def _swept(program, steane, params, budgets, cfg):
    """sweep_budget's result and its (kernel, per-core budget) schedule calls."""
    calls = []
    real = driver._schedule_kernel

    def counting(km, budget_per_core):
        calls.append((km.qodg.kernel_id, budget_per_core))
        return real(km, budget_per_core)

    with mock.patch.object(driver, "_schedule_kernel", counting):
        result = sweep_budget(program, steane, params, budgets, cfg)
    return result, calls


def _expected_calls(stages, peak, points):
    """Per stage instance, one call at the unbounded budget and one per
    swept per-core budget below its kernel's peak."""
    return sum(1 + sum(b < peak[rep] for b in points) for rep in stages)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_kernel_programs(), k=st.integers(1, 2), top=st.integers(4, 16),
       cycle=st.sampled_from([1.0, 0.3]), data=st.data())
def test_sweep_budget_equals_rescheduling_every_stage_at_every_budget(text, k, top, cycle, data,
                                                                      steane):
    program = parse_program(text)
    cfg = ScheduleConfig(cycle)
    # the largest budget pins the preparation, so the kernels' peaks are
    # known before the others are drawn: per core 75 (skipped) and values
    # next to each peak, on both sides of saturation
    params = FabricParams(k, 25 * k * top)
    stages, peak = _stage_peaks(program, steane, params, cfg)
    near = sorted({75} | {b for p in peak.values() for b in (p - 1, p, p + 1) if b < 25 * top})
    budgets = [k * b for b in data.draw(st.lists(st.sampled_from(near), max_size=6))]
    budgets.append(params.ancilla_budget)
    got, calls = _swept(program, steane, params, budgets, cfg)
    want = reference_sweep_budget(program, steane, params, budgets, cfg)
    assert [(p.axis_value, p.latency_us) for p in got.points] == [
        (p.axis_value, p.latency_us) for p in want.points]
    assert got.skipped == want.skipped
    assert (got.saturation_value, got.saturation_latency_us) == (
        want.saturation_value, want.saturation_latency_us)
    assert len(calls) == _expected_calls(stages, peak, [p.axis_value // k for p in got.points])


def test_sweep_budget_schedules_only_budgets_below_each_kernels_peak(steane):
    program = parse_program(walk_step_netlist(8, 2, reps=2) + ".call step x3\n.call init\n")
    params = FabricParams(2, 1600)
    cfg = ScheduleConfig()
    stages, peak = _stage_peaks(program, steane, params, cfg)
    # both kernels saturate inside the sweep, which holds every peak and
    # the budget one below it
    assert steane.max_ancilla < min(peak.values()) <= max(peak.values()) < 800
    per_core = sorted(set(range(100, 801, 100)) | {b for p in peak.values() for b in (p - 1, p)})
    result, calls = _swept(program, steane, params, [2 * b for b in per_core], cfg)
    assert len(result.points) == len(per_core)
    assert len(calls) == _expected_calls(stages, peak, per_core)
    assert len(calls) < len(stages) * (1 + len(per_core))
    unbounded = max(b for _, b in calls)
    assert all(b < peak[rep] for rep, b in calls if b != unbounded)


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
