import re
from importlib import resources
from pathlib import Path

import pytest

from qcoremap.cli import main
from qcoremap.generators import walk_step_netlist


STEANE_TEXT = resources.files("qcoremap").joinpath("profiles/steane.qec").read_text(encoding="utf-8")


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


@pytest.mark.parametrize("bom_netlist, bom_profile", [(True, False), (False, True), (True, True)],
                         ids=["netlist", "profile", "both"])
def test_byte_order_mark_is_ignored(netlist, tmp_path, capsys, bom_netlist, bom_profile):
    # a leading UTF-8 byte-order mark (U+FEFF) was read as part of the
    # netlist's first word (exit 3) and as the profile's first entry (exit 2)
    qec = tmp_path / "steane.qec"
    qec.write_text(STEANE_TEXT, encoding="utf-8")
    assert main(["map", netlist, "--qec", str(qec), "-k", "2", "-A", "400"]) == 0
    want = capsys.readouterr().out
    paths = []
    for path, bom in ((Path(netlist), bom_netlist), (qec, bom_profile)):
        if bom:
            marked = path.with_name("bom-" + path.name)
            marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            path = marked
        paths.append(str(path))
    assert main(["map", paths[0], "--qec", paths[1], "-k", "2", "-A", "400"]) == 0
    assert capsys.readouterr().out == want


def test_sweep_budget_writes_csv(netlist, tmp_path, capsys):
    csv = tmp_path / "budget.csv"
    argv = ["sweep-budget", netlist, "--qec", "steane", "-k", "2",
            "--from", "200", "--to", "400", "--step", "100", "--out", str(csv)]
    assert main(argv) == 0
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "axis,latency_us,runtime_ms"
    assert [line.split(",")[0] for line in lines[1:]] == ["200", "300", "400"]
    assert capsys.readouterr().out == ""


def test_map_dumps_one_dot_graph_per_kernel(netlist, tmp_path, capsys):
    dot = tmp_path / "walk.dot"
    assert main(["map", netlist, "--qec", "steane", "-k", "2", "-A", "400",
                 "--dump-qodg", str(dot)]) == 0
    assert capsys.readouterr().out.startswith("FABRIC\n")
    text = dot.read_text(encoding="utf-8")
    assert [line for line in text.splitlines() if line.startswith("digraph")] == [
        'digraph "init" {', 'digraph "step" {']
    assert re.search(r'^  n\d+ -> n\d+ \[qubits="\d+(,\d+)*"\];$', text, re.M)


def test_sweep_budget_reports_saturation(netlist, capsys):
    # the 6-qubit walk at k = 2 saturates at A = 600, inside the swept range
    argv = ["sweep-budget", netlist, "--qec", "steane", "-k", "2",
            "--from", "200", "--to", "800", "--step", "200"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    _assert_one_line(err, "saturation: A=")
    a, latency = re.fullmatch(r"saturation: A=(\d+) latency_us=(\S+)\n", err).groups()
    assert f"\n{a},{latency}," in out


def test_profile_file_given_by_path_loads(netlist, tmp_path, capsys):
    qec = tmp_path / "mine.qec"
    qec.write_text(STEANE_TEXT, encoding="utf-8")
    assert main(["map", netlist, "--qec", str(qec), "-k", "2", "-A", "400"]) == 0
    by_path = capsys.readouterr().out
    assert main(["map", netlist, "--qec", "steane", "-k", "2", "-A", "400"]) == 0
    assert by_path == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["sweep-budget", "-k", "2", "--from", "200", "--to", "400", "--step", "100", "-A", "400"],
    ["sweep-cores", "-A", "800", "--k-list", "1,2", "-k", "4"],
], ids=["sweep-budget-A", "sweep-cores-k"])
def test_sweep_rejects_the_option_its_axis_replaces(netlist, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], netlist, "--qec", "steane"] + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["map", "-k", "2", "-A", "400"],
    ["sweep-budget", "-k", "2", "--from", "200", "--to", "400", "--step", "100"],
    ["sweep-cores", "-A", "800", "--k-list", "1,2"],
], ids=["map", "sweep-budget", "sweep-cores"])
def test_seed_is_not_an_option(netlist, capsys, argv):
    # the partitioner draws no random numbers, so there is no seed to set
    with pytest.raises(SystemExit) as exc:
        main([argv[0], netlist, "--qec", "steane"] + argv[1:] + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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


def test_netlist_without_operations_exits_two(tmp_path, capsys):
    path = tmp_path / "empty.qn"
    path.write_text("qubit a\n", encoding="utf-8")
    assert main(["map", str(path), "--qec", "steane", "-k", "1", "-A", "100"]) == 2
    assert capsys.readouterr().err == "configuration error: program contains no operations to map\n"


# ----------------------------------------------------------------------
# malformed numbers and arguments end in a one-line message, not a traceback

def _assert_one_line(err, prefix):
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("old,new", [
    ("op H    ancilla 28 ", "op H    ancilla x "),
    ("length 7", "length seven"),
    ("op T    ancilla 100 delay_us 400", "op T    ancilla 100 delay_us nan"),
    ("transversal 0", "transversal 2"),
    ("op CNOT", "op H    ancilla 28  delay_us 40  transversal 1\nop CNOT"),
    ("op X", "code steane length 7\nop X"),
], ids=["ancilla-x", "length-seven", "delay-nan", "transversal-2", "repeated-op", "second-code"])
def test_malformed_profile_number_exits_two(netlist, tmp_path, capsys, old, new):
    assert old in STEANE_TEXT
    qec = tmp_path / "bad.qec"
    qec.write_text(STEANE_TEXT.replace(old, new), encoding="utf-8")
    assert main(["map", netlist, "--qec", str(qec), "-k", "2", "-A", "400"]) == 2
    _assert_one_line(capsys.readouterr().err, "configuration error: profile line ")


def test_profile_row_for_an_unknown_operation_exits_two(netlist, tmp_path, capsys):
    # a misspelt kind would be a row no gate reads, yet its ancilla would
    # still set the largest operation that every budget is checked against
    qec = tmp_path / "typo.qec"
    qec.write_text(STEANE_TEXT + "op Tdag ancilla 150 delay_us 900 transversal 0\n", encoding="utf-8")
    assert main(["map", netlist, "--qec", str(qec), "-k", "2", "-A", "400"]) == 2
    lineno = len(STEANE_TEXT.splitlines()) + 1
    _assert_one_line(capsys.readouterr().err,
                     f"configuration error: profile line {lineno}: unknown operation 'Tdag'")


@pytest.mark.parametrize("option,value", [
    ("--cycle-time", "nan"),
    ("--cycle-time", "inf"),
    ("--beta-pmd", "inf"),
    ("--gamma-mem", "nan"),
])
def test_non_finite_option_exits_two(netlist, capsys, option, value):
    assert main(["map", netlist, "--qec", "steane", "-k", "2", "-A", "400", option, value]) == 2
    _assert_one_line(capsys.readouterr().err, "configuration error: ")


def test_non_integer_core_count_in_k_list_exits_two(netlist, capsys):
    assert main(["sweep-cores", netlist, "--qec", "steane", "-A", "800", "--k-list", "1,a"]) == 2
    _assert_one_line(capsys.readouterr().err, "configuration error: ")


def test_zero_budget_step_exits_two(netlist, capsys):
    argv = ["sweep-budget", netlist, "--qec", "steane", "-k", "2",
            "--from", "200", "--to", "400", "--step", "0"]
    assert main(argv) == 2
    _assert_one_line(capsys.readouterr().err, "configuration error: ")


def test_budget_range_below_one_exits_two(netlist, capsys):
    # the fabric is built at the largest swept budget, so a range with no
    # budget of at least 1 is an error, not a header-only CSV
    argv = ["sweep-budget", netlist, "--qec", "steane", "-k", "2",
            "--from", "-5", "--to", "0", "--step", "1"]
    assert main(argv) == 2
    _assert_one_line(capsys.readouterr().err,
                     "configuration error: ancilla budget must be >= 1")


def test_missing_netlist_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.qn"
    assert main(["map", str(missing), "--qec", "steane", "-k", "2", "-A", "400"]) == 2
    _assert_one_line(capsys.readouterr().err, "error: ")


def test_descending_budget_range_exits_two(netlist, capsys):
    argv = ["sweep-budget", netlist, "--qec", "steane", "-k", "2",
            "--from", "400", "--to", "200", "--step", "100"]
    assert main(argv) == 2
    _assert_one_line(capsys.readouterr().err, "configuration error: empty budget range")


def test_sweep_cores_warns_of_a_core_count_the_budget_cannot_support(netlist, capsys):
    # 800 ancilla over 16 cores leaves 50 per core, below CNOT's 100
    assert main(["sweep-cores", netlist, "--qec", "steane", "-A", "800", "--k-list", "1,16"]) == 0
    out, err = capsys.readouterr()
    _assert_one_line(err, "warning: skipped k=16: per-core ancilla budget 50 ")
    lines = out.splitlines()
    assert lines[0] == "axis,latency_us,runtime_ms"
    assert [line.split(",")[0] for line in lines[1:]] == ["1"]


def test_sweep_budget_warns_of_a_budget_below_the_largest_operation(netlist, capsys):
    argv = ["sweep-budget", netlist, "--qec", "steane", "-k", "2",
            "--from", "100", "--to", "400", "--step", "300"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err.startswith("warning: skipped A=100: per-core ancilla budget 50 "), err
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["400"]


def test_repetition_with_two_minus_signs_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.qn"
    bad.write_text("qubit a\n.kernel K\nH a\n.endkernel\n.call K x--5\n", encoding="utf-8")
    assert main(["map", str(bad), "--qec", "steane", "-k", "1", "-A", "100"]) == 3
    _assert_one_line(capsys.readouterr().err, "parse error: line 5: ")


def test_repetition_count_past_the_int64_bound_exits_three(tmp_path, capsys):
    # a 310-digit count, whose latency product does not fit in a float
    bad = tmp_path / "bad.qn"
    bad.write_text(f"qubit a\n.kernel K\nH a\n.endkernel\n.call K x1{'0' * 309}\n",
                   encoding="utf-8")
    assert main(["map", str(bad), "--qec", "steane", "-k", "1", "-A", "100"]) == 3
    _assert_one_line(capsys.readouterr().err, "parse error: line 5: ")


@pytest.mark.parametrize("data, line", [
    (b"qubit a\nH a\n\xff\n", 3),
    # a byte-order mark, a CRLF line end and a sequence cut short
    (b"\xef\xbb\xbfqubit a\r\nH a \xe2\x82", 2),
], ids=["latin-byte", "bom-crlf-truncated"])
def test_netlist_byte_that_is_not_utf8_exits_three(tmp_path, capsys, data, line):
    bad = tmp_path / "bad.qn"
    bad.write_bytes(data)
    assert main(["map", str(bad), "--qec", "steane", "-k", "1", "-A", "400"]) == 3
    _assert_one_line(capsys.readouterr().err, f"parse error: line {line}: ")


def test_profile_byte_that_is_not_utf8_exits_two(netlist, tmp_path, capsys):
    lines = STEANE_TEXT.encode("utf-8").splitlines(keepends=True)
    qec = tmp_path / "bad.qec"
    qec.write_bytes(b"".join(lines[:2]) + b"# caf\xe9\n" + b"".join(lines[2:]))
    assert main(["map", netlist, "--qec", str(qec), "-k", "2", "-A", "400"]) == 2
    _assert_one_line(capsys.readouterr().err, "configuration error: profile line 3: ")


@pytest.mark.parametrize("option,value", [
    ("--beta-pmd", "1e300"),
    ("--cycle-time", "1e-300"),
    ("--alpha-int", "1" + "0" * 399),
    ("--cycle-time", "1e-16"),
], ids=["beta-1e300", "cycle-1e-300", "alpha-400-digits", "cycle-1e-16"])
def test_huge_finite_option_exits_two(netlist, capsys, option, value):
    # level counts or delays past int64 or float range, and at 1e-16 us a
    # schedule whose end no int64 level holds
    assert main(["map", netlist, "--qec", "steane", "-k", "2", "-A", "400", option, value]) == 2
    _assert_one_line(capsys.readouterr().err, "configuration error: ")


@pytest.mark.parametrize("argv", [
    ["sweep-cores", "-A", "800", "--k-list", "1,2", "--epsilon", "1.5"],
], ids=["sweep-cores-epsilon"])
def test_bad_partition_option_exits_two(netlist, capsys, argv):
    # sweep-cores skips only core counts the budget cannot support, so an
    # option no k can use ends the run instead of skipping every k
    assert main([argv[0], netlist, "--qec", "steane"] + argv[1:]) == 2
    _assert_one_line(capsys.readouterr().err, "configuration error: ")


def test_beta_and_cycle_time_are_read_as_decimals(tmp_path, capsys):
    # one hop at beta 0.1 is (21 + 3) * 0.1 = 2.4 us, 24 levels at a 0.1 us
    # cycle; beta read as its binary value gives 2.4000000000000004 us,
    # 25 levels, and a total of 163.7 us
    path = tmp_path / "two.qn"
    path.write_text("qubit a\nqubit b\nH a\nCNOT a,b\nH b\n", encoding="utf-8")
    argv = ["map", str(path), "--qec", "steane", "-k", "2", "-A", "800",
            "--beta-pmd", "0.1", "--cycle-time", "0.1"]
    assert main(argv) == 0
    assert "  total_latency_us: 163.6\n" in capsys.readouterr().out
