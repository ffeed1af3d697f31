"""Part-to-core binding: minimize total inter-core communication delay.

The objective is sum over ordered part pairs (m, x), m != x, of
w[m][x] * d[core(m)][core(x)]. Up to k = 8 all k! assignments are scored at
once with numpy, which reproduces the global optimum of the 0-1 quadratic
program; beyond that a greedy seed plus pairwise-swap descent is used and the
result is flagged non-exhaustive.

The k <= 8 scan reads a permutation table built once per k: int8, column-major
(row m holds part m's core in every permutation), permutations in
lexicographic order. Only the pairs that carry traffic (w[m][x] != 0) are
gathered, in row-major order, so their terms are added in `_list_cost`'s
m-major, x-minor order. The pairs left out are exact no-ops: with w and d
finite (checked on entry), a skipped term is 0.0 * finite = +-0.0, and adding
+-0.0 to an accumulator that starts at +0.0 changes no bit. So every cost,
the argmin and its tie-break to the lexicographically first permutation are
those of scoring all k * (k - 1) terms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

EXHAUSTIVE_LIMIT = 8


@dataclass(frozen=True)
class Binding:
    part_to_core: tuple[int, ...]
    cost: float
    exhaustive: bool


def _list_cost(w_rows: list[list[float]], d_rows: list[list[float]], perm) -> float:
    """The objective of perm, with w and d as nested float lists; the terms
    are added m-major, x-minor."""
    total = 0.0
    for m, (wm, pm) in enumerate(zip(w_rows, perm)):
        dm = d_rows[pm]
        for x, px in enumerate(perm):
            if m != x:
                total += wm[x] * dm[px]
    return total


def bind_parts(w: np.ndarray, d: np.ndarray) -> Binding:
    """Assign parts to cores, one-to-one: exhaustive for k <= 8, greedy
    beyond. Ties go to the lexicographically smallest permutation. Both
    matrices must be k x k and finite, or ConfigError is raised."""
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if w.shape != d.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ConfigError(f"traffic {w.shape} and delay {d.shape} matrices must both be k x k")
    if not (np.isfinite(w).all() and np.isfinite(d).all()):
        raise ConfigError("traffic and delay matrices must hold only finite values")
    if w.shape[0] > EXHAUSTIVE_LIMIT:
        return _greedy_bind(w, d)
    return _exhaustive_bind(w, d)


@functools.lru_cache(maxsize=EXHAUSTIVE_LIMIT + 1)
def _permutation_columns(k: int) -> np.ndarray:
    """The k! permutations of range(k) in lexicographic order, stored as a
    read-only (k, k!) int8 array: column j is permutation j (320 KiB at k = 8)."""
    table = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(k))),
        dtype=np.int8, count=math.factorial(k) * k,
    ).reshape(-1, k).T.copy()
    table.setflags(write=False)
    return table


def _exhaustive_bind(w: np.ndarray, d: np.ndarray) -> Binding:
    k = w.shape[0]
    cols = _permutation_columns(k)
    d_flat = d.ravel()
    cost = np.zeros(cols.shape[1])
    for m, x in zip(*np.nonzero(w)):
        if m != x:
            # d[cols[m], cols[x]] as one flat gather; the int8 index stays
            # below k * k <= 64, and no intp copy of the table is made
            cost += w[m, x] * d_flat[cols[m] * k + cols[x]]
    best = int(np.argmin(cost))
    return Binding(tuple(int(p) for p in cols[:, best]), float(cost[best]), True)


def _greedy_bind(w: np.ndarray, d: np.ndarray) -> Binding:
    k = w.shape[0]
    # seed: heaviest-traffic parts onto the most central cores
    traffic = w.sum(axis=0) + w.sum(axis=1)
    mask = ~np.eye(k, dtype=bool)
    centrality = np.where(mask, d, 0.0).sum(axis=1)
    parts = sorted(range(k), key=lambda m: (-traffic[m], m))
    cores = sorted(range(k), key=lambda c: (centrality[c], c))
    perm = [0] * k
    for part, core in zip(parts, cores):
        perm[part] = core
    w_rows, d_rows = w.tolist(), d.tolist()
    cost = _list_cost(w_rows, d_rows, perm)
    improved = True
    while improved:
        improved = False
        for a in range(k):
            for b in range(a + 1, k):
                perm[a], perm[b] = perm[b], perm[a]
                cand = _list_cost(w_rows, d_rows, perm)
                if cand < cost:
                    cost = cand
                    improved = True
                else:
                    perm[a], perm[b] = perm[b], perm[a]
    return Binding(tuple(perm), cost, False)
