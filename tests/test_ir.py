import numpy as np
import pytest

from conftest import ops_to_netlist, random_ops
from oracles import flat_expansion, flat_op_count, interpret_netlist, serialize_program

from qcoremap import FabricParams, NetlistError, identify_kernels, map_program, parse_program
from qcoremap.generators import phase_estimation_netlist, random_netlist


def test_loose_gates_form_one_implicit_kernel():
    p = parse_program("qubit a\nqubit b\nCNOT a,b\nT b\n")
    assert len(p.kernels) == 1
    (kid, count), = p.sequence.stages
    assert count == 1
    body = p.kernels[kid].body
    assert [(op.kind, op.operands) for op in body] == [("CNOT", (0, 1)), ("T", (1,))]


def test_kernel_block_and_call():
    p = parse_program("qubit q0\n.kernel K\nH q0\n.endkernel\n.call K x3\n")
    assert p.sequence.stages == (("K", 3),)
    assert set(identify_kernels(p).representatives) == {"K"}


def test_call_default_count_is_one():
    p = parse_program("qubit q0\n.kernel K\nH q0\n.endkernel\n.call K\n")
    assert p.sequence.stages == (("K", 1),)


def test_call_count_may_reach_the_int64_bound():
    p = parse_program(f"qubit q0\n.kernel K\nH q0\n.endkernel\n.call K x{2**63 - 1}\n")
    assert p.sequence.stages == (("K", 2**63 - 1),)


# 2**63, a count too large to convert to a float, and one past int()'s
# limit on digits
@pytest.mark.parametrize("count", [2**63, "1" + "0" * 309, "9" * 5000],
                         ids=["2**63", "310-digits", "5000-digits"])
def test_call_count_past_the_int64_bound_is_rejected(count):
    with pytest.raises(NetlistError) as exc:
        parse_program(f"qubit q0\n.kernel K\nH q0\n.endkernel\n.call K x{count}\n")
    assert str(exc.value) == "line 5: repetition count must be from 1 to 2**63 - 1"


@pytest.mark.parametrize("text", [
    "qubit a\nH a\n.kernel _top0\nT a\n.endkernel\n.call _top0\n",
    "qubit a\n.kernel _top0\nT a\n.endkernel\nH a\n.call _top0\n",
])
def test_loose_run_never_takes_a_declared_kernel_id(text, steane):
    # the loose run takes the first _topN that no .kernel line declares,
    # wherever that line comes, so no kernel block can overwrite it
    p = parse_program(text)
    assert p.sequence.stages == (("_top1", 1), ("_top0", 1))
    assert [op.kind for op in p.kernels["_top1"].body] == ["H"]
    assert [op.kind for op in p.kernels["_top0"].body] == ["T"]
    report = map_program(p, steane, FabricParams(1, 200))
    assert report.program_latency_us == pytest.approx(440.0)


@pytest.mark.parametrize("bad,what", [
    ("qubit a\nCNOT a,a\n", "distinct"),
    ("qubit a\nCNOT a\n", "operand"),
    ("qubit a\nqubit b\nH a,b\n", "operand"),
    ("qubit a\nFOO a\n", "unknown gate"),
    ("H q\n", "undeclared"),
    ("qubit a\n.kernel K\nH a\n.endkernel\n.call K x0\n", ">= 1"),
    ("qubit a\n.kernel K\nH a\n.endkernel\n.call K x-3\n", "count must be >= 1, got -3"),
    ("qubit a\n.kernel K\nH a\n.endkernel\n.call K x--5\n", "line 5: bad repetition 'x--5'"),
    ("qubit a\n.kernel K\nH a\n.endkernel\n.call K x\u00b2\n", "line 5: bad repetition"),
    ("qubit a\n.kernel K\nH a\n.endkernel\n.call J\n", "undefined"),
    ("qubit a\n.kernel K\n.kernel L\n", "nested"),
    (".endkernel\n", "without matching"),
    ("qubit a\n.kernel K\nH a\n", "not closed"),
    ("qubit a\nqubit a\n", "duplicate"),
    ("qubit a\n.kernel K\nH a\n.endkernel\n.kernel K\nH a\n.endkernel\n", "duplicate"),
    (".foo\n", "unknown directive '.foo'"),
    ("qubit a\n.kernel K\nqubit b\n", "qubit declaration inside kernel block"),
    ("qubit\n", "expected 'qubit <name>'"),
    ("qubit a b\n", "expected 'qubit <name>'"),
    ("qubit a,b\nH a\n", "line 1, col 7: qubit name 'a,b' holds a comma"),
    ("qubit a\nqubit \tb,\n", "line 2, col 8: qubit name 'b,' holds a comma"),
    (".kernel\n", "expected '.kernel <id>'"),
    ("qubit a\n.kernel K\nH a\n.endkernel x\n", "unexpected text after .endkernel"),
    (".kernel K\n.endkernel\n", "kernel 'K' has an empty body"),
    ("qubit a\n.kernel K\nH a\n.call K\n", ".call inside kernel block"),
    (".call\n", "expected '.call <id> [x<count>]'"),
    ("qubit a\nqubit b\nH a b\n", "malformed operand list for H"),
    ("qubit a\nqubit b\nH a\tb\n", "malformed operand list for H"),
    ("qubit a\nqubit b\nCNOT a,,b\n", "malformed operand list for CNOT"),
    # a loose run's kernel has no .kernel block, so no call names it,
    # before the run or after it
    ("qubit a\n.call _top0\nH a\n", "line 2: call of undefined kernel '_top0'"),
    ("qubit a\nH a\n.call _top0\n", "line 3: call of undefined kernel '_top0'"),
])
def test_parse_errors(bad, what):
    with pytest.raises(NetlistError) as exc:
        parse_program(bad)
    assert what in str(exc.value)


def test_gate_lines_split_on_any_whitespace():
    # a tab after the gate name separates it from the operands, as it
    # does after a directive
    spaced = parse_program("qubit a\nqubit b\nH a\nCNOT a,b\n")
    assert parse_program("qubit a\nqubit\tb\nH\ta\nCNOT \t a ,\tb\n") == spaced


@pytest.mark.parametrize("text, message", [
    ("qubit ab\nCNOT ab,a\n", "line 2, col 9: undeclared qubit 'a'"),
    ("qubit b\nCNOT b,C\n", "line 2, col 8: undeclared qubit 'C'"),
    ("T T\n", "line 1, col 3: undeclared qubit 'T'"),
])
def test_undeclared_qubit_column_is_the_operands_own(text, message):
    # the name also occurs earlier on the line: in the operand before it,
    # or as the gate name
    with pytest.raises(NetlistError) as exc:
        parse_program(text)
    assert str(exc.value) == message


def test_netlist_error_without_a_line_is_its_message():
    assert str(NetlistError("m")) == "m"
    assert str(NetlistError("m", line=3)) == "line 3: m"


def test_parse_error_reports_line():
    with pytest.raises(NetlistError) as exc:
        parse_program("qubit a\nH a\nBAD a\n")
    assert exc.value.line == 3


def test_comments_and_blank_lines_ignored():
    p = parse_program("# header\nqubit a\n\nH a  # trailing\n")
    assert flat_op_count(p) == 1


def test_identical_bodies_merge_to_one_representative():
    text = (
        "qubit a\nqubit b\n"
        ".kernel K1\nH a\nT a\n.endkernel\n"
        ".kernel K2\nH b\nT b\n.endkernel\n"
        ".call K1\n.call K2\n"
    )
    p = parse_program(text)
    cat = identify_kernels(p)
    assert list(cat.representatives) == ["K1"]
    assert cat.stage_instances == (("K1", "K1", 1), ("K2", "K1", 1))


def test_single_kernel_is_own_representative():
    p = parse_program("qubit a\n.kernel K\nH a\n.endkernel\n.call K\n")
    cat = identify_kernels(p)
    assert list(cat.representatives) == ["K"]
    assert cat.stage_instances == (("K", "K", 1),)


def test_operand_pattern_distinguishes_kernels():
    # same kinds, different wiring: CNOT(a,b);CNOT(a,b) vs CNOT(a,b);CNOT(b,a)
    text = (
        "qubit a\nqubit b\n"
        ".kernel K1\nCNOT a,b\nCNOT a,b\n.endkernel\n"
        ".kernel K2\nCNOT a,b\nCNOT b,a\n.endkernel\n"
        ".call K1\n.call K2\n"
    )
    cat = identify_kernels(parse_program(text))
    assert len(cat.representatives) == 2


def test_phase_estimation_shape():
    # one kernel repeated 1, 2, 4, ..., 2^(n-1): n instances, 2^n - 1 total
    n = 6
    p = parse_program(phase_estimation_netlist(n))
    cat = identify_kernels(p)
    assert len(cat.representatives) == 1
    assert len(cat.stage_instances) == n
    total = sum(count for _, _, count in cat.stage_instances)
    assert total == 2 ** n - 1
    body_len = len(next(iter(cat.representatives.values())).body)
    assert flat_op_count(p) == (2 ** n - 1) * body_len


def test_flat_expansion_matches_direct_interpreter():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n_q = int(rng.integers(2, 6))
        lines = [f"qubit q{i}" for i in range(n_q)]
        for k in range(int(rng.integers(1, 4))):
            lines.append(f".kernel K{k}")
            for kind, qs in random_ops(rng, int(rng.integers(1, 8)), n_q):
                lines.append(f"{kind} " + ",".join(f"q{q}" for q in qs))
            lines.append(".endkernel")
            lines.append(f".call K{k} x{int(rng.integers(1, 5))}")
        for kind, qs in random_ops(rng, int(rng.integers(0, 5)), n_q):
            lines.append(f"{kind} " + ",".join(f"q{q}" for q in qs))
        text = "\n".join(lines) + "\n"
        p = parse_program(text)
        got = [(kind, tuple(p.qubits[i] for i in operands))
               for kind, operands in flat_expansion(p)]
        assert got == interpret_netlist(text)
        assert flat_op_count(p) == len(got)


def test_roundtrip_serialization():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n_q = int(rng.integers(2, 7))
        text = ops_to_netlist(random_ops(rng, int(rng.integers(1, 20)), n_q), n_q)
        p = parse_program(text)
        again = parse_program(serialize_program(p))
        assert again == p


def test_roundtrip_with_kernels_and_calls():
    text = (
        "qubit a\nqubit b\n"
        ".kernel K\nCNOT a,b\nT b\n.endkernel\n"
        ".call K x4\nH a\nH b\n.call K\n"
    )
    p = parse_program(text)
    again = parse_program(serialize_program(p))
    assert again == p
    assert list(flat_expansion(again)) == list(flat_expansion(p))


def test_merging_preserves_flat_expansion():
    text = (
        "qubit a\nqubit b\nqubit c\n"
        ".kernel K1\nH a\nCNOT a,b\n.endkernel\n"
        ".kernel K2\nH b\nCNOT b,c\n.endkernel\n"
        ".call K1 x2\n.call K2\n"
    )
    p = parse_program(text)
    cat = identify_kernels(p)
    assert len(cat.representatives) == 1
    # replaying the representative per stage gives the same kind sequence and
    # canonical operand pattern as the unmerged expansion
    flat = list(flat_expansion(p))
    replay = []
    for _, rep_id, count in cat.stage_instances:
        replay.extend([(op.kind, op.operands) for op in cat.representatives[rep_id].body] * count)
    assert [k for k, _ in replay] == [k for k, _ in flat]


def test_random_netlist_generator_parses():
    p = parse_program(random_netlist(40, 6, seed=3))
    assert flat_op_count(p) == 40
