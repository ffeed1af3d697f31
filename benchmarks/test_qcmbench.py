"""Tests of the benchmark harness: shrunken workloads end to end, the
independent checks (with a mutation the schedule checker must catch), the
trace wrappers and the command's output and exit status."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from qcmbench import BENCH_DIR, ROOT, use_source_tree

qc = use_source_tree()

from qcmbench import harness, tracing  # noqa: E402
from qcmbench.checks import (  # noqa: E402
    check_schedule, op_rows, program_lower_bound, read_netlist,
)
from qcmbench.workloads import WORKLOADS, budget_sweep, cores_sweep, map_random  # noqa: E402
import qcoremap.generators as generators  # noqa: E402

SMALL = (
    map_random(n_ops=60, inputs=2),
    budget_sweep(budgets=(200, 400), cycle=1.0, layers=2, inputs=2),
    cores_sweep(k_values=(1, 2, 3, 9), inputs=2),
)


@pytest.fixture(scope="module")
def steane():
    return qc.bundled_profile("steane")


def _run(workload, steane, seed=3):
    return harness.Run(qc, workload, workload.texts(generators, seed), steane)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_shrunken_workload_end_to_end(workload, steane):
    run = _run(workload, steane)
    values = harness.run_end_to_end(run, seconds=0)
    assert run.problems == []
    assert run.failed == 0
    assert run.attempted == (workload.inputs + 1) * workload.points
    assert values["compile_s"] > 0 and values["peak_rss_mb"] > 0
    assert values["latency_us"] > 0 and values["latency_over_bound"] >= 1


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_shrunken_workload_traced(workload, steane):
    run = _run(workload, steane)
    values = harness.run_traced(run, seconds=0)
    assert run.problems == []
    assert set(values) == set(harness.PER_LAYER)
    assert all(v is not None for v in values.values()), values
    assert values["qodg.calls"] == values["partition.calls"] == values["binding.calls"]
    assert values["scheduling.calls_per_distinct"] >= 1


def test_budget_sweep_reschedules_each_distinct_kernel_per_stage(steane):
    # 5 stages of 2 kernels, 2 budgets plus the saturation point
    values = harness.run_traced(_run(SMALL[1], steane), seconds=0)
    assert values["scheduling.schedule_calls"] == 15
    assert values["scheduling.calls_per_distinct"] == 2.5


def test_repeated_job_with_a_different_answer_is_flagged(steane):
    run = _run(SMALL[0], steane)
    run.job(0)
    out = run.outcomes[0]
    run._check(0, dataclasses.replace(out, answer=out.answer + ("changed",)))
    assert any("differs between repetitions" in p for p in run.problems)


def test_latency_below_the_lower_bound_is_flagged(steane):
    run = _run(SMALL[0], steane)
    run.job(0)
    out = run.outcomes[0]
    early = dataclasses.replace(out, points=((4, run.bounds[0] - 1.0),))
    run._check(0, early)
    assert any("below the critical-path bound" in p for p in run.problems)


def test_lower_bound_agrees_with_the_package(steane):
    rows = op_rows(steane)
    texts = [generators.random_netlist(80, 6, seed) for seed in range(5)]
    texts.append(generators.walk_step_netlist(6, 3, reps=3, seed=1))
    for text in texts:
        program = qc.parse_program(text)
        catalog = qc.identify_kernels(program)
        want = sum(count * qc.critical_path(qc.build_qodg(catalog.representatives[rep], steane))
                   for _, rep, count in catalog.stage_instances)
        assert program_lower_bound(text, rows) == pytest.approx(want, rel=1e-12)


def test_read_netlist_names_loose_runs_like_the_parser():
    text = "qubit a\nqubit b\nH a\n.kernel K\nCNOT a,b\n.endkernel\n.call K x3\nT b\n"
    kernels, stages = read_netlist(text)
    assert stages == [("_top0", 1), ("K", 3), ("_top1", 1)]
    assert kernels["K"] == [("CNOT", ("a", "b"))]
    assert [kid for kid, _ in qc.parse_program(text).sequence.stages] == ["_top0", "K", "_top1"]


def _mapped_kernel(steane):
    text = generators.walk_step_netlist(8, 3, reps=1, seed=5)
    report = qc.map_program(qc.parse_program(text), steane, qc.FabricParams(2, 400))
    km = report.kernel_maps["step"]
    node_core = np.asarray(km.binding.part_to_core)[km.partition.assignment]
    ops = read_netlist(text)[0]["step"]
    return ops, km, node_core


def test_schedule_checker_accepts_the_package_schedule(steane):
    ops, km, node_core = _mapped_kernel(steane)
    assert check_schedule(ops, km.schedule, node_core, km.lev.route_levels, 200,
                          km.lev.cycle_time, op_rows(steane)) == []


def test_schedule_checker_flags_an_op_moved_one_level_earlier(steane):
    ops, km, node_core = _mapped_kernel(steane)
    sched = km.schedule
    route = km.lev.route_levels
    by_node = {o.node: o for o in sched.ops}
    # an op that starts exactly when a predecessor's result arrives
    tight = next(
        v for v in range(len(ops)) for u in km.qodg.preds[v]
        if by_node[v].start == by_node[u].start + by_node[u].dur_levels
        + route[node_core[u], node_core[v]]
    )
    moved = tuple(dataclasses.replace(o, start=o.start - 1) if o.node == tight else o
                  for o in sched.ops)
    found = check_schedule(ops, dataclasses.replace(sched, ops=moved), node_core, route,
                           200, km.lev.cycle_time, op_rows(steane))
    assert any(f"node {tight} starts at" in v for v in found), found


def test_schedule_checker_flags_an_ancilla_overload(steane):
    ops, km, node_core = _mapped_kernel(steane)
    found = check_schedule(ops, km.schedule, node_core, km.lev.route_levels, 99,
                           km.lev.cycle_time, op_rows(steane))
    assert any("ancilla, budget 99" in v for v in found), found


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (qc.map_program, qc.driver.kway_partition, qc.partition.kway_partition)
    assert qc.driver.kway_partition is qc.partition.kway_partition
    tracer = tracing.Tracer(qc)
    with tracer.installed():
        assert qc.map_program is not originals[0]
        assert qc.driver.kway_partition is qc.partition.kway_partition is qc.kway_partition
        assert qc.partition.kway_partition is not originals[2]
    assert (qc.map_program, qc.driver.kway_partition, qc.partition.kway_partition) == originals
    assert tracer.missing == []


def test_layer_without_calls_is_unmeasured(steane, monkeypatch):
    layers = dict(tracing.LAYERS, scheduling=("quantize", "list_schedule"))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    values = harness.run_traced(_run(SMALL[0], steane), seconds=0)
    assert values["scheduling.verify_s"] is None
    assert values["scheduling.verify_calls"] is None
    assert values["scheduling.schedule_s"] is not None


def test_setup_probe_times_a_fresh_interpreter():
    assert 0 < harness.setup_seconds(WORKLOADS["map-random"], seed=0, repeats=1) < 60


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in harness.PER_LAYER.items()}


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "map-random",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "correct" not in done.stdout
