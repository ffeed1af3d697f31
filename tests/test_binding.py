import numpy as np
import pytest

from oracles import best_binding

from qcoremap import FabricParams, bind_parts, binding_cost, compute_geometry, delay_matrix, grid_layout


def _mesh_delays(steane, k):
    """A real fabric delay matrix: symmetric, so many assignments tie."""
    params = FabricParams(k, 200 * k)
    return delay_matrix(compute_geometry(steane, params, 4), params, grid_layout(k)).d


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
    assert b.cost == binding_cost(w, d, b.part_to_core)


def test_greedy_binding_above_the_exhaustive_limit(steane):
    rng = np.random.default_rng(9)
    d = _mesh_delays(steane, 9)
    w = rng.integers(0, 4, (9, 9))
    b = bind_parts(w, d)
    assert not b.exhaustive
    assert sorted(b.part_to_core) == list(range(9))
    assert b.cost == binding_cost(w, d, b.part_to_core)
