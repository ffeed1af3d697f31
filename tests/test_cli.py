import pytest

from qcoremap.cli import main
from qcoremap.generators import walk_step_netlist


@pytest.fixture
def netlist(tmp_path):
    path = tmp_path / "walk.qn"
    path.write_text(walk_step_netlist(6, 2, reps=2), encoding="utf-8")
    return str(path)


def test_map_exits_zero_and_prints_timings(netlist, capsys):
    assert main(["map", netlist, "--qec", "steane", "-k", "2", "-A", "400", "--timings"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("FABRIC\n")
    assert "    timings: qodg=" in out


def test_sweep_budget_writes_csv(netlist, tmp_path, capsys):
    csv = tmp_path / "budget.csv"
    argv = ["sweep-budget", netlist, "--qec", "steane", "-k", "2",
            "--from", "200", "--to", "400", "--step", "100", "--out", str(csv)]
    assert main(argv) == 0
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "axis,latency_us,runtime_ms"
    assert [line.split(",")[0] for line in lines[1:]] == ["200", "300", "400"]
    assert capsys.readouterr().out == ""


def test_sweep_cores_writes_csv_to_stdout(netlist, capsys):
    assert main(["sweep-cores", netlist, "--qec", "steane", "-A", "800", "--k-list", "1,2,4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "axis,latency_us,runtime_ms"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "4"]


def test_budget_below_the_largest_operation_exits_two(netlist, capsys):
    assert main(["map", netlist, "--qec", "steane", "-k", "2", "-A", "100"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_netlist_syntax_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.qn"
    bad.write_text("qubit a\nFOO a\n", encoding="utf-8")
    assert main(["map", str(bad), "--qec", "steane", "-k", "1", "-A", "100"]) == 3
    assert "parse error: line 2" in capsys.readouterr().err
