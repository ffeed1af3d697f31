"""Partitioner tests: the incremental Kernighan-Lin refinement replays the
full-rescan reference step for step, kway_partition keeps its snapshot
assignments, and results respect the documented balance bounds and the
exhaustive two-way optimum."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ops_to_netlist, random_ops
from oracles import best_two_way_cut, reference_kway_partition, reference_refine

from qcoremap import (
    ConfigError,
    assign_weight_vectors,
    build_qodg,
    bundled_profile,
    kway_partition,
    parse_program,
    traffic_matrix,
)
from qcoremap import partition
from qcoremap.generators import random_netlist, walk_step_netlist
from qcoremap.fabric import decimal_fraction
from qcoremap.partition import _Bisection, _bound_pair

GOLDEN = Path(__file__).parent / "golden"


def _random_bisection(seed, m, n_dims, p_free, max_w, k1, k2, eps=0.1):
    """A _Bisection over m of N >= m nodes, given the edges with both ends
    among its m nodes, relabelled to local indices. Nodes outside the subset
    always carry one of n_dims dimensions, so p_free=1 gives a subset with
    none. Edges have weights 1..max_w, and some pairs get parallel edges;
    no edge joins two nodes of one dimension, as in a leveled graph."""
    rng = np.random.default_rng(seed)
    n = m + int(rng.integers(0, 12))
    nodes = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
    inside = np.zeros(n, dtype=bool)
    inside[nodes] = True
    node_dim = rng.integers(0, max(n_dims, 1), size=n) if n_dims else np.full(n, -1)
    node_dim[inside & (rng.random(n) < p_free)] = -1
    node_dim = node_dim.astype(np.int64)
    edge_list = []
    if n >= 2:
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            w = int(rng.integers(1, max_w + 1))
            if node_dim[a] < 0 or node_dim[a] != node_dim[b]:
                edge_list.append((a, b, w))
        if edge_list:
            picks = rng.integers(0, len(edge_list), size=len(edge_list) // 4)
            edge_list += [edge_list[int(i)] for i in picks]
    local = {u: i for i, u in enumerate(nodes.tolist())}
    edges = [(local[a], local[b], w) for a, b, w in edge_list if a in local and b in local]
    k = k1 + k2 + int(rng.integers(0, 3))
    dim_lo, dim_hi = {}, {}
    for c in range(n_dims):
        dim_lo[c], dim_hi[c] = _bound_pair(int(np.sum(node_dim == c)), k, decimal_fraction(eps))
    _, node_hi = _bound_pair(n, k, decimal_fraction(eps))
    bis = _Bisection(node_dim[nodes].tolist(), edges, k1, k2, dim_lo, dim_hi, node_hi)
    return bis, rng


def _cut(bis, side):
    return sum(w for a, b, w in bis.edges if side[a] != side[b])


def _assert_replays(bis, rng):
    starts = [[int(x < 0.5) for x in rng.random(bis.m)], bis.initial(range(bis.m)),
              bis.initial(rng.permutation(bis.m).tolist())]
    for side in starts:
        want = reference_refine(bis, side.copy())
        got = side.copy()
        cut = bis.refine(got)
        assert got == want
        assert cut == _cut(bis, got)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 90), n_dims=st.integers(0, 8),
       p_free=st.sampled_from([0.0, 0.3, 1.0]), max_w=st.sampled_from([1, 3, 8]),
       k1=st.integers(1, 3), k2=st.integers(1, 3))
def test_refine_equals_full_rescan(seed, m, n_dims, p_free, max_w, k1, k2):
    _assert_replays(*_random_bisection(seed, m, n_dims, p_free, max_w, k1, k2))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m, p_free, small", [(60, 1.0, True), (90, 1.0, False), (80, 0.5, True)])
def test_refine_equals_full_rescan_on_unconstrained_pools(seed, m, p_free, small):
    # unit weights and parallel edges: many equal gains, so the leader
    # search often sees ties; pools of up to 64 free nodes and above
    bis, rng = _random_bisection(seed, m, 4, p_free, 1, 1, 1)
    assert (0 < len(bis.unconstrained) <= 64) == small
    assert bis.n_dims == 0 or p_free < 1
    _assert_replays(bis, rng)


def _kway_bisections(g, k, eps=0.1):
    """The _Bisection objects kway_partition(g, k, eps) builds, in build
    order: the top-level split first, then its first half."""
    built = []

    class Recording(_Bisection):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "_Bisection", Recording)
        kway_partition(g, k, eps)
    return built


@pytest.mark.parametrize("seed", [14, 15])
def test_refine_equals_full_rescan_at_corpus_scale(seed):
    # the first two map-random inputs of benchmark seed 1: 500 ops, 44 pools
    g = build_qodg(parse_program(random_netlist(500, 32, seed)).kernels["_top0"],
                   bundled_profile("steane"))
    top, half = _kway_bisections(g, 4)[:2]
    assert (top.m, top.k1, top.k2) == (500, 2, 2) and (half.k1, half.k2) == (1, 1)
    assert top.n_dims > 40 and half.n_dims > 40
    rng = np.random.default_rng(seed)
    for bis in (top, half):
        _assert_replays(bis, rng)


def _skip_graph(seed, max_ops, max_qubits):
    """A leveled random kernel whose bisections often start at cut 0: a
    quarter are edge-free (one H per qubit), the rest random ops; then up
    to 8 isolated T gates, each on a qubit of its own."""
    rng = np.random.default_rng(seed)
    n_qubits = int(rng.integers(1, max_qubits + 1))
    n_isolated = int(rng.integers(0, 9))
    if rng.random() < 0.25:
        ops = [("H", (q,)) for q in range(n_qubits)]
    else:
        ops = random_ops(rng, int(rng.integers(1, max_ops + 1)), n_qubits)
    ops += [("T", (n_qubits + q,)) for q in range(n_isolated)]
    text = ops_to_netlist(ops, n_qubits + n_isolated)
    return build_qodg(parse_program(text).kernels["_top0"], bundled_profile("steane"))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3, 4, 8, 9]))
def test_kway_equals_refining_every_start(seed, k):
    g = _skip_graph(seed, 60, 12)
    assert kway_partition(g, k).assignment.tolist() == reference_kway_partition(g, k).tolist()


@pytest.mark.parametrize("k", [2, 3, 4, 8, 9])
def test_no_bisection_holds_an_edge_inside_a_dimension(k):
    # refine takes a dimension's best swap from its two tops, which is
    # exact only while no edge joins two nodes of one dimension
    profile = bundled_profile("steane")
    graphs = [build_qodg(parse_program(text).kernels[name], profile)
              for text in (random_netlist(300, 16, 3), walk_step_netlist(8, 3, reps=2))
              for name in sorted(parse_program(text).kernels)]
    graphs += [_skip_graph(seed, 60, 12) for seed in range(6)]
    dims = 0
    for g in graphs:
        for bis in _kway_bisections(g, k):
            assert all(bis.dim[a] < 0 or bis.dim[a] != bis.dim[b] for a, b, _ in bis.edges)
            dims += bis.n_dims
    assert dims > 0


def _zero_cut_starts(g, k):
    """The number of kway_partition's initial splits that cut no edge, so
    that refine returns them at once and the later orders are not tried."""
    zero = 0
    real_initial = _Bisection.initial

    def initial(bis, order):
        nonlocal zero
        side = real_initial(bis, order)
        zero += _cut(bis, side) == 0
        return side

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Bisection, "initial", initial)
        kway_partition(g, k)
    return zero


def test_kway_equals_refining_every_start_on_graphs_with_skipped_starts():
    # fixed graphs that surely hold what the skips act on
    graphs = [_skip_graph(seed, 60, 12) for seed in range(6)]
    assert any(len(g) > 1 and len(g.edges) == 0 for g in graphs)
    assert any(len(g.edges) and any(not g.preds[i] and i not in g.edges[:, 0]
                                    for i in range(len(g)))
               for g in graphs)
    zero = 0
    for g in graphs:
        for k in (2, 3, 4, 8, 9):
            assert kway_partition(g, k).assignment.tolist() == reference_kway_partition(g, k).tolist()
            zero += _zero_cut_starts(g, k)
    assert zero > 0


def _hand_bisection(node_dim, edges, dim_lo, dim_hi, node_hi):
    """A k1 = k2 = 1 _Bisection over nodes 0..m-1 with the given quotas."""
    return _Bisection(node_dim, edges, 1, 1, dim_lo, dim_hi, node_hi)


def test_refine_runs_the_sorted_scan_when_the_pool_tops_share_an_edge():
    # four unconstrained nodes, alone or with 66 isolated ones, held at
    # half per side, so only swaps are legal. The tops 0 and 2 share an
    # edge of 3: swapping them gains 3 + 3 - 6 = 0, while (0, 3) gains 5
    # and ends with a cut of 0. A pool of 70 nodes is searched like one of 4
    for pad in (0, 33):
        bis = _hand_bisection([-1] * (4 + 2 * pad), [(0, 2, 3), (1, 3, 2)], {}, {}, 2 + pad)
        side = [1, 1, 0, 0] + [1] * pad + [0] * pad
        want = [0, 1, 0, 1] + side[4:]
        assert reference_refine(bis, side.copy()) == want
        assert bis.refine(side) == 0 and side == want


def test_refine_searches_past_the_neighbours_of_a_leader():
    # node 0 on side 1 shares an edge with each of 1..5 on side 0, and node
    # 6 one with node 7 on side 1; 8..13 are isolated, seven nodes per side.
    # Nodes 1..6 all gain 1, so 6 ranks sixth on its side, yet the best
    # swap is (0, 6): 5 + 1 = 6, where (0, j) for j in 1..5 gains 5 + 1 - 2.
    # Taking (0, 1) instead ends at a cut of 1
    bis = _hand_bisection([-1] * 14, [(0, j, 1) for j in range(1, 6)] + [(6, 7, 1)], {}, {}, 7)
    assert bis.n_lead == 6
    side = [1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1]
    want = [0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1]
    assert reference_refine(bis, side.copy()) == want
    assert bis.refine(side) == 0 and side == want


def test_refine_reenters_a_group_whose_moves_turn_feasible_again():
    # dimension 0 = {0, 3, 5} keeps 1..2 nodes on side 1. Moving 5 to side 0
    # forbids side-1 moves of the dimension, and the next step's search drops
    # the group's top, node 3; moving 0 to side 1 allows them again, and the
    # third step must move node 3
    bis = _hand_bisection([0, -1, -1, 0, -1, 0], [(2, 5, 1), (2, 4, 1), (1, 4, 3)],
                          {0: 1}, {0: 3}, 4)
    side = [0, 1, 0, 1, 1, 1]
    assert reference_refine(bis, side.copy()) == [0, 1, 0, 1, 1, 0]
    assert bis.refine(side) == 1 and side == [0, 1, 0, 1, 1, 0]


@pytest.mark.parametrize("start", [[1, 0, 1, 0, 1], [0] * 5])
def test_refine_returns_a_zero_cut_split_unchanged(start):
    # components {0, 2, 4} and {1, 3}; dimension 0 = {0, 1} keeps one node
    # on side 1. The first split is feasible, the second breaks both the
    # node count and the quota; neither cuts an edge, so no step can gain
    bis = _hand_bisection([0, 0, -1, -1, -1], [(0, 2, 2), (2, 4, 1), (1, 3, 3)],
                          {0: 1}, {0: 1}, 3)
    side = start.copy()
    assert _cut(bis, side) == 0
    assert reference_refine(bis, side.copy()) == start
    assert bis.refine(side) == 0 and side == start


@pytest.mark.parametrize("n, eps, d_lo, d_hi", [(41, 0.1, 18, 23), (40, 0.3, 14, 26)])
def test_balance_bounds_read_eps_as_its_decimal(steane, n, eps, d_lo, d_hi):
    # one wide level of n nodes at k = 4, split 2 + 2: each part holds
    # floor(10 * (1 - eps)) .. floor(ceil(n / 4) * (1 + eps)) of it, which is
    # 9..12 at eps 0.1 (n = 41) and 7..13 at eps 0.3 (n = 40); the binary
    # values of 0.1 and 0.3 would give 8 and 12
    text = ops_to_netlist([("H", (i,)) for i in range(n)], n)
    g = build_qodg(parse_program(text).kernels["_top0"], steane)
    top = _kway_bisections(g, 4, eps)[0]
    assert (top.d_lo, top.d_hi) == ([d_lo], [d_hi])


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.333])
def test_bound_pair_equals_the_fraction_formula(eps):
    e = decimal_fraction(eps)
    for total in range(201):
        for k in range(1, 17):
            want = (math.floor(Fraction(total // k) * (1 - e)),
                    math.floor(Fraction(-(-total // k)) * (1 + e)))
            assert _bound_pair(total, k, e) == want


def _partition_corpus():
    """(name, leveled graph) for every kernel of a few fixed netlists."""
    profile = bundled_profile("steane")
    texts = {
        "random120": random_netlist(120, 8, seed=0),
        "random250": random_netlist(250, 16, seed=1),
        "random400": random_netlist(400, 32, seed=2),
        "walk": walk_step_netlist(8, 3, reps=2),
        # benchmark-size kernels: the first map-random input (3 start
        # orders, stall cap 125), one above 512 ops (a single start order,
        # the one rule that depends on size) and the budget-sweep kernel
        # shape. At k=16 few levels hold 16 nodes, so most of the random
        # kernels' splits search unconstrained pools of over 64 nodes
        "random500": random_netlist(500, 32, seed=14),
        "random600": random_netlist(600, 32, seed=3),
        "walk16": walk_step_netlist(16, 4, seed=5),
    }
    for name, text in texts.items():
        program = parse_program(text)
        for kname in sorted(program.kernels):
            yield f"{name}/{kname}", build_qodg(program.kernels[kname], profile)


def _partition_lines():
    return "".join(
        f"{name} k={k} {''.join(str(p) for p in kway_partition(g, k).assignment.tolist())}\n"
        for name, g in _partition_corpus() for k in (1, 2, 3, 4, 8, 9, 16)
    )


def test_kway_assignments_match_snapshot():
    assert _partition_lines() == (GOLDEN / "partitions.txt").read_text(encoding="utf-8")


def _graph(seed, max_ops, max_qubits):
    rng = np.random.default_rng(seed)
    n_qubits = int(rng.integers(2, max_qubits + 1))
    text = ops_to_netlist(random_ops(rng, int(rng.integers(1, max_ops + 1)), n_qubits), n_qubits)
    return build_qodg(parse_program(text).kernels["_top0"], bundled_profile("steane"))


@pytest.mark.parametrize("k", [1, 2, 4, 9])
def test_traffic_matrix_equals_a_per_row_sum(k):
    rng = np.random.default_rng(k)
    repeated = empty = 0
    for seed in range(20):
        g = _graph(seed, 60, 6)
        # parts at or above `used` stay empty
        used = int(rng.integers(1, k + 1))
        part = rng.integers(0, used, size=len(g))
        want = [[0] * k for _ in range(k)]
        pairs = []
        for a, b, w in g.edges.tolist():
            pa, pb = int(part[a]), int(part[b])
            if pa != pb:
                want[pa][pb] += w
                pairs.append((pa, pb))
        got = traffic_matrix(g, part, k)
        assert got.dtype == np.int64 and got.tolist() == want
        repeated += len(pairs) > len(set(pairs))
        empty += used < k
    assert k == 1 or (repeated and empty)


@pytest.mark.parametrize("k", [1, 2, 4, 9])
def test_traffic_matrix_of_an_edgeless_kernel(k):
    g = build_qodg(parse_program("qubit a\nH a\n").kernels["_top0"], bundled_profile("steane"))
    assert g.edges.shape == (0, 3)
    got = traffic_matrix(g, np.array([k - 1], dtype=np.int64), k)
    assert got.dtype == np.int64 and got.tolist() == [[0] * k for _ in range(k)]
    assert kway_partition(g, k).traffic.tolist() == [[0] * k for _ in range(k)]


@pytest.mark.parametrize("k", [0, -1])
def test_part_count_below_one_is_rejected(k):
    g = build_qodg(parse_program("qubit a\nH a\n").kernels["_top0"], bundled_profile("steane"))
    for split in (kway_partition, assign_weight_vectors):
        with pytest.raises(ConfigError, match="^part count must be >= 1$"):
            split(g, k)


def _partition_recording_conflicts(mp, g, k, eps):
    """kway_partition plus whether any bisection's initial split had to
    break node-count balance because the dimension quotas won."""
    conflicts = []
    real_initial = _Bisection.initial

    def initial(bis, order):
        side = real_initial(bis, order)
        conflicts.append(not bis.n_lo <= sum(side) <= bis.n_hi)
        return side

    mp.setattr(_Bisection, "initial", initial)
    part = kway_partition(g, k, eps)
    return part, any(conflicts)


def _assert_within_bounds(g, part, k, eps, check_nodes):
    ann = assign_weight_vectors(g, k)
    counts = np.bincount(part.assignment, minlength=k)
    if check_nodes:
        assert counts.max() <= _bound_pair(len(g), k, decimal_fraction(eps))[1]
    for c in range(ann.n_con):
        in_c = ann.node_dim == c
        lo, hi = _bound_pair(int(in_c.sum()), k, decimal_fraction(eps))
        per_part = np.bincount(part.assignment[in_c], minlength=k)
        assert lo <= per_part.min() and per_part.max() <= hi
    cut = sum(w for a, b, w in g.edges.tolist() if part.assignment[a] != part.assignment[b])
    assert int(part.traffic.sum()) == cut
    return cut


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([0.1, 0.3, 0.5]))
def test_two_way_split_is_feasible_and_no_better_than_exhaustive(seed, eps):
    g = _graph(seed, 12, 5)
    with pytest.MonkeyPatch.context() as mp:
        part, conflict = _partition_recording_conflicts(mp, g, 2, eps)
    cut = _assert_within_bounds(g, part, 2, eps, check_nodes=not conflict)
    ann = assign_weight_vectors(g, 2)
    best = best_two_way_cut(len(g), g.edges.tolist(),
                            ann.node_dim.tolist(), ann.n_con, eps)
    if not conflict:
        assert best is not None and cut >= best


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([3, 4, 8, 9]))
def test_kway_parts_respect_the_bounds(seed, k):
    g = _graph(seed, 60, 12)
    with pytest.MonkeyPatch.context() as mp:
        part, conflict = _partition_recording_conflicts(mp, g, k, 0.1)
    _assert_within_bounds(g, part, k, 0.1, check_nodes=not conflict)
