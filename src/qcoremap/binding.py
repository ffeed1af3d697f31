"""Part-to-core binding: minimize total inter-core communication delay.

The objective is sum over ordered part pairs (m, x), m != x, of
w[m][x] * d[core(m)][core(x)]. Up to k = 8 the assignments are scored at
once with numpy, which reproduces the global optimum of the 0-1 quadratic
program; beyond that a greedy seed plus pairwise-swap descent is used and the
result is flagged non-exhaustive.

Only the pairs that carry traffic (w[m][x] != 0) are scored, in row-major
order, so their terms are added in the m-major, x-minor order of scoring all
k * (k - 1) pairs. The pairs left out are exact no-ops: with w and d finite
(checked on entry), a skipped term is 0.0 * finite = +-0.0, and adding +-0.0
to an accumulator that starts at +0.0 changes no bit. This holds for the
exhaustive scan and for every candidate the greedy descent scores.

The k <= 8 scan reads a permutation table built once per k: int8,
column-major (row m holds part m's core in every permutation), permutations
in lexicographic order. It scans only the columns that are canonical under
the symmetries of d, which gives every cost, the argmin and its tie-break to
the lexicographically first permutation of scanning all k! columns:

- G is the group of core permutations s with d[s(a)][s(b)] == d[a][b] for
  all cores a, b: the 4 mirror symmetries of a 2 x 4 mesh, the 8 of a 2 x 2
  one, the identity alone for a d without symmetry. Applying s to a binding
  p (part m on core s(p[m])) adds the same terms, w[m][x] times a delay
  equal to d[p[m]][p[x]], in the same order, so cost(s o p) == cost(p) bit
  for bit (a -0.0 delay where p reads +0.0 only flips the sign of a zero
  term, which changes no sum, as above).
- p is canonical if p <=lex s o p for every s in G. s o p == p only for the
  identity, so each orbit {s o p : s in G} holds |G| columns and exactly
  one canonical one, and the scan reads k! / |G| columns.
- Let p* be the lexicographically first optimum. Every s o p* costs the
  same, so it is optimal too and not before p*: p* is canonical. The
  canonical columns are kept in lexicographic order, so argmin over them
  returns the first optimum among them, p*.

The canonical columns are cached per k and equality pattern of d (which
entries of d are equal), so every mesh delay matrix of one k shares one
entry.
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


def _list_cost(terms: list[tuple[int, int, float]], d_rows: list[list[float]], perm) -> float:
    """The objective of perm over the (m, x, w[m][x]) traffic terms, added
    in their m-major, x-minor order."""
    total = 0.0
    for m, x, wmx in terms:
        total += wmx * d_rows[perm[m]][perm[x]]
    return total


def bind_parts(w: np.ndarray, d: np.ndarray) -> Binding:
    """Assign parts to cores, one-to-one: exhaustive for k <= 8, greedy
    beyond. Ties go to the lexicographically smallest permutation. Both
    matrices must be k x k with k >= 1 and finite, or ConfigError is
    raised."""
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if w.shape != d.shape or w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
        raise ConfigError(f"traffic {w.shape} and delay {d.shape} matrices "
                          "must both be k x k, k >= 1")
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


def _scan_columns(d: np.ndarray) -> np.ndarray:
    """The canonical columns of the permutation table under d's symmetry
    group, in lexicographic order."""
    flat = d.ravel()
    # each entry labelled by the first index holding an equal value (< 64)
    labels = (flat[:, None] == flat).argmax(axis=0).astype(np.int8)
    return _canonical_columns(d.shape[0], labels.tobytes())


@functools.lru_cache(maxsize=EXHAUSTIVE_LIMIT)
def _canonical_columns(k: int, pattern: bytes) -> np.ndarray:
    """The canonical columns for a k x k delay matrix whose equality
    pattern is `pattern`, k * k int8 labels in row-major order."""
    lab = np.frombuffer(pattern, dtype=np.int8)
    cols = _permutation_columns(k)
    # G: narrow the table, one (a, b) pair at a time, to the columns s with
    # lab[s(a), s(b)] == lab[a, b]; every array stays int8 (index < k * k)
    group = cols
    for a in range(k):
        for b in range(k):
            group = group[:, lab[group[a] * k + group[b]] == lab[a * k + b]]
    # p is dropped when s o p comes first: at the first row where they
    # differ, p's core is the larger. Column 0 of G is the identity.
    keep = np.ones(cols.shape[1], dtype=bool)
    for s in group.T[1:]:
        tied = np.ones(cols.shape[1], dtype=bool)
        for row in cols:
            image = s[row]
            keep &= ~(tied & (row > image))
            tied &= row == image
    canon = cols[:, keep]
    canon.setflags(write=False)
    return canon


def _exhaustive_bind(w: np.ndarray, d: np.ndarray) -> Binding:
    k = w.shape[0]
    cols = _scan_columns(d)
    d_flat = d.ravel()
    cost = np.zeros(cols.shape[1])
    for m, x in zip(*np.nonzero(w)):
        if m != x:
            # d[cols[m], cols[x]] as one flat gather; the int8 index stays
            # below k * k <= 64, and no intp copy of the table is made
            cost += w[m, x] * d_flat.take(cols[m] * k + cols[x])
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
    terms = [(m, x, wm[x]) for m, wm in enumerate(w_rows) for x in range(k)
             if m != x and wm[x] != 0.0]
    cost = _list_cost(terms, d_rows, perm)
    improved = True
    while improved:
        improved = False
        for a in range(k):
            for b in range(a + 1, k):
                perm[a], perm[b] = perm[b], perm[a]
                cand = _list_cost(terms, d_rows, perm)
                if cand < cost:
                    cost = cand
                    improved = True
                else:
                    perm[a], perm[b] = perm[b], perm[a]
    return Binding(tuple(perm), cost, False)
