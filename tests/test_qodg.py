import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ops_to_netlist, random_ops, single_kernel
from oracles import dependency_edges, longest_path, reference_levels, reference_node_dim

from qcoremap import (
    ConfigError,
    assign_weight_vectors,
    build_qodg,
    critical_path,
    level_graph,
    parse_program,
    render_dot,
)
from qcoremap.fabric import OpCost, QecProfile
from qcoremap.qodg import _qubit_links


def shared_qubits(g):
    """Edge (src, dst) -> its shared qubits, grouped from _qubit_links, once
    the edge table is checked to hold exactly these edges, in (src, dst)
    order, each weighted by its number of shared qubits."""
    shared: dict[tuple[int, int], set[int]] = {}
    for i, j, q in _qubit_links(g.ops):
        shared.setdefault((i, j), set()).add(q)
    assert g.edges.dtype == np.int64 and g.edges.shape == (len(shared), 3)
    assert g.edges.tolist() == [[i, j, len(qs)] for (i, j), qs in sorted(shared.items())]
    return shared


def three_op_kernel(uniform_profile):
    _, k = single_kernel("qubit a\nqubit b\nqubit c\nCNOT a,b\nT b\nCNOT a,c\n")
    return build_qodg(k, uniform_profile)


def test_three_op_example_edges(uniform_profile):
    g = three_op_kernel(uniform_profile)
    assert g.edges.tolist() == [[0, 1, 1], [0, 2, 1]]
    assert shared_qubits(g) == {(0, 1): {1}, (0, 2): {0}}


def test_single_op(uniform_profile):
    _, k = single_kernel("qubit a\nH a\n")
    g = build_qodg(k, uniform_profile)
    assert len(g) == 1 and g.edges.shape == (0, 3) and g.edges.dtype == np.int64
    assert shared_qubits(g) == {}


def test_single_qubit_chain(uniform_profile):
    _, k = single_kernel("qubit q\nH q\nH q\nH q\n")
    g = build_qodg(k, uniform_profile)
    assert g.edges.tolist() == [[0, 1, 1], [1, 2, 1]]
    assert shared_qubits(g) == {(0, 1): {0}, (1, 2): {0}}


def test_cnot_pair_shares_both_qubits(uniform_profile):
    _, k = single_kernel("qubit a\nqubit b\nCNOT a,b\nCNOT a,b\n")
    g = build_qodg(k, uniform_profile)
    assert g.edges.tolist() == [[0, 1, 2]]
    assert shared_qubits(g) == {(0, 1): {0, 1}}


def test_levels_of_three_op_example(uniform_profile):
    assert level_graph(three_op_kernel(uniform_profile)).tolist() == [0, 1, 1]


def test_chain_levels(uniform_profile):
    _, k = single_kernel("qubit q\n" + "T q\n" * 5)
    level = level_graph(build_qodg(k, uniform_profile))
    assert level.dtype == np.int64 and level.tolist() == [0, 1, 2, 3, 4]


def test_backward_edge_raises(uniform_profile):
    _, k = single_kernel("qubit a\nqubit b\nH a\nH b\n")
    g = replace(build_qodg(k, uniform_profile), preds=((1,), ()))
    with pytest.raises(RuntimeError):
        level_graph(g)


@st.composite
def _netlists(draw):
    """Random kernels, single-qubit chains and kernels without edges."""
    n_ops = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(("random", "chain", "no_edges")))
    if shape == "chain":
        return ops_to_netlist([("T", (0,))] * n_ops, 1)
    if shape == "no_edges":
        return ops_to_netlist([("H", (q,)) for q in range(n_ops)], n_ops)
    n_q = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ops_to_netlist(random_ops(rng, n_ops, n_q), n_q)


@settings(max_examples=150, deadline=None)
@given(text=_netlists())
@example(text="qubit a\nH a\n")
def test_levels_and_weight_dims_match_the_references(text, steane):
    _, k = single_kernel(text)
    g = build_qodg(k, steane)
    level = level_graph(g)
    assert level.tolist() == reference_levels(g).tolist()
    widest = int(np.bincount(level).max())
    for parts in (*range(1, 7), widest + 1):
        ann = assign_weight_vectors(g, parts)
        want = reference_node_dim(level.tolist(), parts)
        assert ann.node_dim.tolist() == want
        assert ann.n_con == len({d for d in want if d >= 0})
    assert assign_weight_vectors(g, widest + 1).n_con == 0


def test_missing_profile_row_raises():
    prof = QecProfile("partial", 7, {"H": OpCost(28, 40.0, True)})
    _, k = single_kernel("qubit a\nqubit b\nCNOT a,b\n")
    with pytest.raises(ConfigError):
        build_qodg(k, prof)


def test_tdg_inherits_t_row():
    prof = QecProfile("tonly", 7, {"T": OpCost(100, 400.0, False)})
    _, k = single_kernel("qubit a\nTdg a\n")
    g = build_qodg(k, prof)
    assert g.ancilla[0] == 100


def test_critical_path_chain(uniform_profile):
    _, k = single_kernel("qubit q\nT q\nT q\nT q\n")
    g = build_qodg(k, uniform_profile)
    assert critical_path(g) == pytest.approx(30.0)


def test_critical_path_three_op_example(uniform_profile):
    g = three_op_kernel(uniform_profile)
    # both maximal paths have two 10us ops
    assert critical_path(g) == pytest.approx(20.0)


def test_critical_path_empty():
    prof = QecProfile("u", 7, {"H": OpCost(1, 1.0, True)})
    p = parse_program("qubit a\nH a\n")
    g = build_qodg(next(iter(p.kernels.values())), prof)
    assert critical_path(g) == 1.0


def test_edges_match_pairwise_oracle_randomized(uniform_profile):
    rng = np.random.default_rng(42)
    for _ in range(60):
        n_q = int(rng.integers(1, 11))
        ops = random_ops(rng, int(rng.integers(1, 51)), n_q)
        _, k = single_kernel(ops_to_netlist(ops, n_q))
        g = build_qodg(k, uniform_profile)
        assert shared_qubits(g) == dependency_edges(ops)


def test_per_qubit_edges_form_simple_chain(uniform_profile):
    rng = np.random.default_rng(17)
    for _ in range(30):
        n_q = int(rng.integers(1, 8))
        ops = random_ops(rng, int(rng.integers(1, 40)), n_q)
        _, k = single_kernel(ops_to_netlist(ops, n_q))
        shared = shared_qubits(build_qodg(k, uniform_profile))
        for q in range(n_q):
            touchers = [i for i, (kind, qs) in enumerate(ops) if q in qs]
            carrying = sorted(edge for edge, qs in shared.items() if q in qs)
            assert carrying == [
                (touchers[i], touchers[i + 1]) for i in range(len(touchers) - 1)
            ]


def test_critical_path_matches_enumeration(uniform_profile):
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_q = int(rng.integers(2, 6))
        ops = random_ops(rng, int(rng.integers(1, 12)), n_q)
        _, k = single_kernel(ops_to_netlist(ops, n_q))
        g = build_qodg(k, uniform_profile)
        delays = g.delay_us.tolist()
        edges = shared_qubits(g)
        assert critical_path(g) == pytest.approx(longest_path(len(g), edges, delays))


def test_dot_dump(uniform_profile):
    g = three_op_kernel(uniform_profile)
    text = render_dot(g)
    assert "digraph" in text
    assert 'n0 -> n1 [qubits="1"];' in text
    assert "level=1" in text


def test_dot_edge_labels_match_the_pairwise_oracle(uniform_profile):
    rng = np.random.default_rng(5)
    edge_line = re.compile(r'  n(\d+) -> n(\d+) \[qubits="(\d+(?:,\d+)*)"\];')
    for _ in range(40):
        n_q = int(rng.integers(1, 9))
        ops = random_ops(rng, int(rng.integers(1, 40)), n_q)
        _, k = single_kernel(ops_to_netlist(ops, n_q))
        g = build_qodg(k, uniform_profile)
        labels = [m.groups() for m in map(edge_line.fullmatch, render_dot(g).splitlines()) if m]
        got = {(int(i), int(j)): [int(q) for q in qs.split(",")] for i, j, qs in labels}
        want = dependency_edges(ops)
        assert len(labels) == len(got) == len(g.edges)
        assert got == {edge: sorted(qs) for edge, qs in want.items()}


@pytest.mark.parametrize("kid, head", [
    ('k"x', r'digraph "k\"x" {'),
    ('k\\"x\\', r'digraph "k\\\"x\\" {'),
])
def test_dot_graph_name_is_escaped(kid, head, uniform_profile):
    program = parse_program(f"qubit a\n.kernel {kid}\nH a\n.endkernel\n.call {kid}\n")
    g = build_qodg(program.kernels[kid], uniform_profile)
    assert render_dot(g).splitlines()[0] == head
