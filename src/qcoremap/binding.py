"""Part-to-core binding: minimize total inter-core communication delay.

The objective is sum over ordered part pairs (m, x), m != x, of
w[m][x] * d[core(m)][core(x)]. Up to k = 8 all k! assignments are scored at
once with numpy over a table of permutations in lexicographic order, which
reproduces the global optimum of the 0-1 quadratic program; beyond that a
greedy seed plus pairwise-swap descent is used and the result is flagged
non-exhaustive.
"""

from __future__ import annotations

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


def binding_cost(w: np.ndarray, d: np.ndarray, perm) -> float:
    total = 0.0
    k = w.shape[0]
    for m in range(k):
        for x in range(k):
            if m != x:
                total += float(w[m, x]) * float(d[perm[m], perm[x]])
    return total


def bind_parts(w: np.ndarray, d: np.ndarray) -> Binding:
    """Assign parts to cores, one-to-one: exhaustive for k <= 8, greedy
    beyond. Ties go to the lexicographically smallest permutation."""
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if w.shape != d.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ConfigError(f"traffic {w.shape} and delay {d.shape} matrices must both be k x k")
    if w.shape[0] > EXHAUSTIVE_LIMIT:
        return _greedy_bind(w, d)
    return _exhaustive_bind(w, d)


def _exhaustive_bind(w: np.ndarray, d: np.ndarray) -> Binding:
    k = w.shape[0]
    # one int8 row per permutation (320 KiB at k = 8); the pair terms are
    # added in binding_cost's order, so every cost is bit-identical to it
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(k))),
        dtype=np.int8, count=math.factorial(k) * k,
    ).reshape(-1, k)
    cost = np.zeros(len(perms))
    for m in range(k):
        for x in range(k):
            if m != x:
                cost += w[m, x] * d[perms[:, m], perms[:, x]]
    best = int(np.argmin(cost))
    return Binding(tuple(int(p) for p in perms[best]), float(cost[best]), True)


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
    cost = binding_cost(w, d, perm)
    improved = True
    while improved:
        improved = False
        for a in range(k):
            for b in range(a + 1, k):
                perm[a], perm[b] = perm[b], perm[a]
                cand = binding_cost(w, d, perm)
                if cand < cost:
                    cost = cand
                    improved = True
                else:
                    perm[a], perm[b] = perm[b], perm[a]
    return Binding(tuple(perm), cost, False)
