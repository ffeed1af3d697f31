"""Byte snapshots of reports and sweep CSVs on small fixed inputs.

The expected texts in tests/golden/ pin the mapper's answers: partition,
binding permutation and cost, every start level and every latency. A
refactor that changes any of them fails here. The sweep CSVs are compared
without their runtime_ms column, the one field that is not an answer.
"""

import io
from pathlib import Path

import pytest

from qcoremap import (
    FabricParams,
    ScheduleConfig,
    bundled_profile,
    map_program,
    parse_program,
    render_report,
    sweep_budget,
    sweep_cores,
    write_sweep_csv,
)
from qcoremap.generators import phase_estimation_netlist, random_netlist, walk_step_netlist

GOLDEN = Path(__file__).parent / "golden"


def _report(text, code, k, budget, cycle=1.0):
    report = map_program(parse_program(text), bundled_profile(code), FabricParams(k, budget),
                         ScheduleConfig(cycle))
    return render_report(report)


def _csv(result):
    buf = io.StringIO()
    write_sweep_csv(result, buf)
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in buf.getvalue().splitlines())


def _budget_sweep():
    text = walk_step_netlist(8, 2, reps=2) + ".call step x3\n"
    result = sweep_budget(parse_program(text), bundled_profile("steane"), FabricParams(2, 800),
                          range(200, 801, 100), ScheduleConfig(0.2))
    return _csv(result) + f"saturation,{result.saturation_value},{result.saturation_latency_us!r}\n"


def _cores_sweep():
    text = walk_step_netlist(10, 2, reps=2)
    result = sweep_cores(parse_program(text), bundled_profile("steane"), FabricParams(1, 1800),
                         (1, 2, 4, 8, 9))
    return _csv(result)


CASES = {
    "walk_k2.txt": lambda: _report(walk_step_netlist(8, 3, reps=2), "steane", 2, 400),
    "random_k4.txt": lambda: _report(random_netlist(60, 8, seed=3), "steane", 4, 800),
    "phase_estimation_k1.txt": lambda: _report(phase_estimation_netlist(3), "steane", 1, 200),
    "bacon_shor_k8.txt": lambda: _report(walk_step_netlist(8, 2, reps=1), "bacon_shor", 8, 2600),
    "sweep_budget.csv": _budget_sweep,
    "sweep_cores.csv": _cores_sweep,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_snapshot(name):
    assert CASES[name]() == (GOLDEN / name).read_text(encoding="utf-8")
