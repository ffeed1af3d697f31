import numpy as np
import pytest

from conftest import ops_to_netlist, random_ops
from oracles import interpret_netlist

from qcoremap import (
    NetlistError,
    flat_expansion,
    flat_op_count,
    identify_kernels,
    parse_program,
    serialize_program,
)
from qcoremap.generators import phase_estimation_netlist, random_netlist


def test_loose_gates_form_one_implicit_kernel():
    p = parse_program("qubit a\nqubit b\nCNOT a,b\nT b\n")
    assert len(p.kernels) == 1
    (kid, count), = p.sequence.stages
    assert count == 1
    body = p.kernels[kid].body
    assert [(op.kind, op.operands) for op in body] == [("CNOT", (0, 1)), ("T", (1,))]
    assert p.kernels[kid].touched_qubits == {0, 1}


def test_kernel_block_and_call():
    p = parse_program("qubit q0\n.kernel K\nH q0\n.endkernel\n.call K x3\n")
    assert p.sequence.stages == (("K", 3),)
    assert set(identify_kernels(p).representatives) == {"K"}


def test_call_default_count_is_one():
    p = parse_program("qubit q0\n.kernel K\nH q0\n.endkernel\n.call K\n")
    assert p.sequence.stages == (("K", 1),)


@pytest.mark.parametrize("bad,what", [
    ("qubit a\nCNOT a,a\n", "distinct"),
    ("qubit a\nCNOT a\n", "operand"),
    ("qubit a\nqubit b\nH a,b\n", "operand"),
    ("qubit a\nFOO a\n", "unknown gate"),
    ("H q\n", "undeclared"),
    ("qubit a\n.kernel K\nH a\n.endkernel\n.call K x0\n", ">= 1"),
    ("qubit a\n.kernel K\nH a\n.endkernel\n.call J\n", "undefined"),
    ("qubit a\n.kernel K\n.kernel L\n", "nested"),
    (".endkernel\n", "without matching"),
    ("qubit a\n.kernel K\nH a\n", "not closed"),
    ("qubit a\nqubit a\n", "duplicate"),
    ("qubit a\n.kernel K\nH a\n.endkernel\n.kernel K\nH a\n.endkernel\n", "duplicate"),
])
def test_parse_errors(bad, what):
    with pytest.raises(NetlistError) as exc:
        parse_program(bad)
    assert what in str(exc.value)


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
    assert len(cat.representatives) == 1
    assert cat.rep_of == {"K1": "K1", "K2": "K1"}
    assert cat.stage_instances == (("K1", "K1", 1), ("K2", "K1", 1))


def test_single_kernel_is_own_representative():
    p = parse_program("qubit a\n.kernel K\nH a\n.endkernel\n.call K\n")
    cat = identify_kernels(p)
    assert cat.rep_of["K"] == "K"


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
        got = [(kind, tuple(p.qubits[i].name for i in operands))
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
    rep = cat.representatives[cat.rep_of["K1"]]
    replay = []
    for _, rep_id, count in cat.stage_instances:
        replay.extend([(op.kind, op.operands) for op in cat.representatives[rep_id].body] * count)
    assert [k for k, _ in replay] == [k for k, _ in flat]


def test_random_netlist_generator_parses():
    p = parse_program(random_netlist(40, 6, seed=3))
    assert flat_op_count(p) == 40
