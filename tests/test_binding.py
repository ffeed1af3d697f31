import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    best_binding,
    reference_binding_cost,
    reference_greedy_bind,
    reference_table_bind,
)

from qcoremap import (
    ConfigError,
    FabricParams,
    bind_parts,
    compute_geometry,
    delay_matrix,
    grid_layout,
    map_program,
    parse_program,
)
from qcoremap.binding import _scan_columns
from qcoremap.generators import random_netlist, walk_step_netlist


def _mesh_delays(steane, k):
    """A real fabric delay matrix: symmetric, so many assignments tie."""
    params = FabricParams(k, 200 * k)
    return delay_matrix(compute_geometry(steane, params, 4), params, grid_layout(k))


@pytest.mark.parametrize("k", range(1, 7))
def test_exhaustive_binding_equals_enumeration(k):
    rng = np.random.default_rng(k)
    for _ in range(4):
        w = rng.random((k, k)) * 10
        d = rng.random((k, k)) * 100
        b = bind_parts(w, d)
        assert b.exhaustive
        assert (b.part_to_core, b.cost) == best_binding(w, d)


@pytest.mark.parametrize("k", range(2, 7))
def test_tied_costs_go_to_the_lexicographically_first_permutation(k, steane):
    rng = np.random.default_rng(10 + k)
    d = _mesh_delays(steane, k)
    for w in (np.zeros((k, k)), np.ones((k, k)), rng.integers(0, 3, (k, k))):
        b = bind_parts(w, d)
        assert (b.part_to_core, b.cost) == best_binding(w, d)
    assert bind_parts(np.zeros((k, k)), d).part_to_core == tuple(range(k))


def test_scan_cost_is_the_scalar_cost_of_its_permutation(steane):
    rng = np.random.default_rng(8)
    d = _mesh_delays(steane, 8)
    w = rng.integers(0, 5, (8, 8)).astype(float)
    b = bind_parts(w, d)
    assert b.exhaustive
    assert b.cost == reference_binding_cost(w, d, b.part_to_core)


def test_greedy_binding_above_the_exhaustive_limit(steane):
    rng = np.random.default_rng(9)
    d = _mesh_delays(steane, 9)
    w = rng.integers(0, 4, (9, 9))
    b = bind_parts(w, d)
    assert not b.exhaustive
    assert sorted(b.part_to_core) == list(range(9))
    assert b.cost == reference_binding_cost(w, d, b.part_to_core)


# ----------------------------------------------------------------------
# the cached, traffic-only scan and the list-scored descent replay the
# binder they replaced bit for bit (costs compared with ==, not a tolerance)

def _traffic(kind, k, rng):
    w = np.zeros((k, k))
    if kind == "single" and k > 1:
        m, x = rng.choice(k, 2, replace=False)
        w[m, x] = rng.random() * 10
    elif kind == "diagonal":
        w[np.diag_indices(k)] = rng.random(k) * 10
    elif kind == "dense-int":
        w = rng.integers(0, 4, (k, k)).astype(float)
    elif kind == "dense":
        w = rng.random((k, k)) * 10
    elif kind == "path":
        # cores-sweep's shape: unit traffic from each part to the next, or
        # from each part to the one before
        w[np.arange(k - 1), np.arange(1, k)] = 1.0
        if rng.random() < 0.5:
            w = w.T.copy()
    return w


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8),
       kind=st.sampled_from(["zero", "single", "diagonal", "dense-int", "dense", "path"]),
       mesh=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(k=8, kind="dense", mesh=False, seed=0)
@example(k=8, kind="dense-int", mesh=True, seed=1)
@example(k=8, kind="single", mesh=True, seed=2)
@example(k=8, kind="diagonal", mesh=False, seed=3)
@example(k=8, kind="path", mesh=True, seed=4)
def test_scan_equals_the_full_table_scan(steane, k, kind, mesh, seed):
    rng = np.random.default_rng(seed)
    w = _traffic(kind, k, rng)
    d = _mesh_delays(steane, k) if mesh else rng.random((k, k)) * 100
    b = bind_parts(w, d)
    assert b.exhaustive
    assert (b.part_to_core, b.cost) == reference_table_bind(w, d)


@pytest.mark.parametrize("text", [walk_step_netlist(16, 2, seed=s) for s in range(8, 16)]
                         + [random_netlist(500, 32, s) for s in (1, 2)],
                         ids=[f"walk{s}" for s in range(8, 16)] + ["random1", "random2"])
def test_scan_equals_the_full_table_scan_on_corpus_kernels(text, steane):
    report = map_program(parse_program(text), steane, FabricParams(8, 1800))
    for km in report.kernel_maps.values():
        assert km.binding.exhaustive
        assert ((km.binding.part_to_core, km.binding.cost)
                == reference_table_bind(km.partition.traffic, km.dmat))


@pytest.mark.parametrize("k, group_order", [(4, 8), (6, 4), (8, 4)])
def test_scan_reads_one_column_per_mesh_symmetry_orbit(k, group_order, steane):
    # the 2 x 2 mesh has the 8 symmetries of a square, the 2 x 3 and 2 x 4
    # meshes the 4 of a rectangle; a random d has none but the identity
    assert _scan_columns(_mesh_delays(steane, k)).shape == (k, math.factorial(k) // group_order)
    d = np.random.default_rng(k).random((k, k)) * 100
    assert _scan_columns(d).shape == (k, math.factorial(k))


@pytest.mark.parametrize("k", range(9, 13))
def test_greedy_binding_equals_the_numpy_scalar_descent(k, steane):
    rng = np.random.default_rng(20 + k)
    for d in (_mesh_delays(steane, k), rng.random((k, k)) * 100):
        for kind in ("zero", "single", "dense-int", "dense", "path"):
            w = _traffic(kind, k, rng)
            b = bind_parts(w, d)
            assert not b.exhaustive
            assert (b.part_to_core, b.cost) == reference_greedy_bind(w, d)


@pytest.mark.parametrize("matrix", ["traffic", "delay"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("k", [4, 9])
def test_non_finite_matrix_entry_is_rejected(matrix, value, k):
    w = np.ones((k, k))
    d = np.ones((k, k))
    (w if matrix == "traffic" else d)[1, 0] = value
    with pytest.raises(ConfigError, match="finite"):
        bind_parts(w, d)


@pytest.mark.parametrize("w_shape, d_shape",
                         [((4, 4), (3, 3)), ((4, 3), (4, 3)), ((4,), (4,)), ((0, 0), (0, 0))],
                         ids=["k-mismatch", "not-square", "one-dimensional", "k-zero"])
def test_matrices_that_are_not_both_k_by_k_are_rejected(w_shape, d_shape):
    with pytest.raises(ConfigError, match="matrices must both be k x k"):
        bind_parts(np.ones(w_shape), np.ones(d_shape))
