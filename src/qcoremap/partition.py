"""Multi-constraint k-way partitioning of the dependency graph.

Wide graph levels (those holding at least k nodes) each get their own
balance dimension, one-hot style: every node at such a level carries weight
1 in that dimension and 0 elsewhere. Balancing each dimension across parts
forces same-level operations apart, so the parts can actually run in
parallel; plain size balance alone tends to stack a level into one part.

The partitioner is recursive bisection with Kernighan-Lin style refinement
(single moves plus same-dimension swaps, with locking and rollback to the
best prefix). Cut weight is the number of qubits crossing the cut, which is
exactly the traffic the binder later pays for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .qodg import Qodg


@dataclass(frozen=True)
class WeightAnnotation:
    """One-hot level weights: node_dim[i] is the dimension index or -1."""

    n_con: int
    levels: tuple[int, ...]
    node_dim: np.ndarray


def assign_weight_vectors(g: Qodg, k: int) -> WeightAnnotation:
    """Give every level with at least k nodes its own one-hot dimension."""
    if not g.leveled:
        raise ValueError("graph must be leveled before weight assignment")
    if k < 1:
        raise ConfigError("part count must be >= 1")
    wide = sorted(lv for lv, n in g.level_sizes.items() if n >= k)
    dim_of = {lv: j for j, lv in enumerate(wide)}
    node_dim = np.array([dim_of.get(nd.level, -1) for nd in g.nodes], dtype=np.int64)
    return WeightAnnotation(len(wide), tuple(wide), node_dim)


@dataclass(frozen=True)
class Partition:
    assignment: np.ndarray
    k: int
    traffic: np.ndarray

    def parts(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for i, p in enumerate(self.assignment):
            out[int(p)].append(i)
        return out


def traffic_matrix(g: Qodg, assignment: np.ndarray, k: int) -> np.ndarray:
    """w[m][x] = qubits carried by cut edges from part m to part x."""
    w = np.zeros((k, k), dtype=np.int64)
    for e in g.edges:
        pa = int(assignment[e.src])
        pb = int(assignment[e.dst])
        if pa != pb:
            w[pa, pb] += e.weight
    return w


def _bound_pair(total: int, k: int, eps: Fraction) -> tuple[int, int]:
    # lower bound rounded down; upper bound is the largest integer count not
    # exceeding ceil(total/k)*(1+eps), which keeps wide levels genuinely
    # spread (a 2-node level at k=2 must split 1/1 under eps=0.1)
    lo = math.floor(Fraction(total // k) * (1 - eps))
    hi = math.floor(Fraction(-(-total // k)) * (1 + eps))
    return lo, hi


def _stride_pick(m: int, t: int) -> np.ndarray:
    """Boolean mask selecting t of m positions, evenly spread."""
    mask = np.zeros(m, dtype=bool)
    if t <= 0:
        return mask
    prev = 0
    for i in range(m):
        cur = (i + 1) * t // m
        if cur > prev:
            mask[i] = True
        prev = cur
    return mask


class _Bisection:
    """One two-way split of a node subset destined for k1 + k2 final parts."""

    def __init__(self, nodes, node_dim, edge_list, edge_w_between,
                 k1, k2, dim_lo, dim_hi, node_hi):
        self.nodes = nodes              # global ids, ascending
        self.m = len(nodes)
        self.k1 = k1
        self.k2 = k2
        loc = {int(u): i for i, u in enumerate(nodes)}
        global_dim = np.array([node_dim[u] for u in nodes], dtype=np.int64)
        self.edges = [(loc[a], loc[b], w) for a, b, w in edge_list
                      if a in loc and b in loc]
        self.w_between = edge_w_between
        # relabel the dimensions present here to 0..D-1 for array indexing
        dims_global = sorted({int(d) for d in global_dim if d >= 0})
        remap = {c: j for j, c in enumerate(dims_global)}
        self.dim = np.array([remap.get(int(d), -1) for d in global_dim], dtype=np.int64)
        self.n_dims = len(dims_global)
        # side-1 quota intervals per dimension present in this subset
        self.q = np.array([int(np.sum(self.dim == j)) for j in range(self.n_dims)],
                          dtype=np.int64)
        self.d_lo = np.empty(self.n_dims, dtype=np.int64)
        self.d_hi = np.empty(self.n_dims, dtype=np.int64)
        for c, j in remap.items():
            lo, hi = dim_lo[c], dim_hi[c]
            self.d_lo[j] = max(k1 * lo, self.q[j] - k2 * hi)
            self.d_hi[j] = min(k1 * hi, self.q[j] - k2 * lo)
        self.n_lo = max(0, self.m - k2 * node_hi)
        self.n_hi = min(k1 * node_hi, self.m)
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(self.m)]
        for a, b, w in self.edges:
            self.adj[a].append((b, w))
            self.adj[b].append((a, w))
        self.members = [[i for i in range(self.m) if self.dim[i] == j]
                        for j in range(self.n_dims)]
        self.unconstrained = [i for i in range(self.m) if self.dim[i] < 0]

    # ------------------------------------------------------------------
    def initial(self, order: np.ndarray) -> np.ndarray:
        """Quota-respecting initial side assignment along the given order."""
        kappa = self.k1 + self.k2
        side = np.zeros(self.m, dtype=bool)
        assigned1 = 0
        for c in range(self.n_dims):
            members = np.array([i for i in order if self.dim[i] == c], dtype=np.int64)
            t = (int(self.q[c]) * self.k1 + kappa // 2) // kappa
            t = min(max(t, int(self.d_lo[c])), int(self.d_hi[c]))
            side[members[_stride_pick(len(members), t)]] = True
            assigned1 += t
        unconstrained = np.array([i for i in order if self.dim[i] < 0], dtype=np.int64)
        nu = len(unconstrained)
        goal = (self.m * self.k1 + kappa // 2) // kappa - assigned1
        lo = max(0, self.n_lo - assigned1)
        hi = min(nu, self.n_hi - assigned1)
        if lo > hi:        # dimension quotas win over node-count balance
            lo = hi = max(0, min(nu, goal))
        t = min(max(goal, lo), hi)
        side[unconstrained[_stride_pick(nu, t)]] = True
        return side

    def cut(self, side) -> int:
        return sum(w for a, b, w in self.edges if side[a] != side[b])

    # ------------------------------------------------------------------
    def refine(self, side: np.ndarray, max_passes=8) -> np.ndarray:
        """Kernighan-Lin refinement: best feasible move or swap per step,
        with locking, then rollback to the best prefix. Swap search prunes
        pairs via the gain upper bound g(i) + g(j)."""
        m = self.m
        if m == 0:
            return side
        step_cap = m
        stall_cap = m if m <= 96 else max(48, m // 4)
        unconstrained = self.unconstrained
        small_uswaps = 0 < len(unconstrained) ** 2 <= 4096
        ext = np.zeros(m, dtype=np.int64)
        itn = np.zeros(m, dtype=np.int64)
        for a, b, w in self.edges:
            if side[a] != side[b]:
                ext[a] += w
                ext[b] += w
            else:
                itn[a] += w
                itn[b] += w

        def flip(i):
            side[i] = not side[i]
            ext[i], itn[i] = itn[i], ext[i]
            for j, w in self.adj[i]:
                if side[j] == side[i]:
                    itn[j] += w
                    ext[j] -= w
                else:
                    ext[j] += w
                    itn[j] -= w

        def w_direct(i, j):
            a, b = self.nodes[i], self.nodes[j]
            if a > b:
                a, b = b, a
            return self.w_between.get((int(a), int(b)), 0)

        dim = self.dim
        has_dim = dim >= 0
        dim_safe = np.where(has_dim, dim, 0)
        for _ in range(max_passes):
            n1 = int(side.sum())
            cnt1 = np.zeros(max(self.n_dims, 1), dtype=np.int64)
            for j in range(self.n_dims):
                cnt1[j] = sum(1 for i in self.members[j] if side[i])
            locked = np.zeros(m, dtype=bool)
            trail: list[tuple[int, int]] = []
            cum = best_cum = 0
            best_len = 0
            stall = 0
            for _step in range(step_cap):
                gain = ext - itn
                # vectorized move feasibility against the side-1 quotas
                if self.n_dims:
                    can_leave = np.where(has_dim, cnt1[dim_safe] - 1 >= self.d_lo[dim_safe], True)
                    can_enter = np.where(has_dim, cnt1[dim_safe] + 1 <= self.d_hi[dim_safe], True)
                else:
                    can_leave = can_enter = np.ones(m, dtype=bool)
                feas = np.where(side, (n1 - 1 >= self.n_lo) & can_leave,
                                (n1 + 1 <= self.n_hi) & can_enter)
                elig = feas & ~locked
                best = None  # (gain, kind, i, j); moves beat swaps on ties
                if elig.any():
                    masked = np.where(elig, gain, np.iinfo(np.int64).min)
                    i = int(masked.argmax())
                    best = (int(masked[i]), 0, i, -1)
                pools = list(range(self.n_dims)) + ([-1] if small_uswaps else [])
                for pool_id in pools:
                    src = self.members[pool_id] if pool_id >= 0 else unconstrained
                    ones = [i for i in src if side[i] and not locked[i]]
                    twos = [i for i in src if not side[i] and not locked[i]]
                    if not ones or not twos:
                        continue
                    ones.sort(key=lambda i: (-gain[i], i))
                    twos.sort(key=lambda i: (-gain[i], i))
                    top2 = int(gain[twos[0]])
                    for i in ones:
                        if best is not None and int(gain[i]) + top2 <= best[0]:
                            break
                        for j in twos:
                            ub = int(gain[i]) + int(gain[j])
                            if best is not None and ub <= best[0]:
                                break
                            g = ub - 2 * w_direct(i, j)
                            if best is None or g > best[0]:
                                best = (g, 1, i, j)
                if best is None:
                    break
                g, kind, i, j = best
                if kind == 0:
                    c = int(dim[i])
                    if side[i]:
                        n1 -= 1
                        if c >= 0:
                            cnt1[c] -= 1
                    else:
                        n1 += 1
                        if c >= 0:
                            cnt1[c] += 1
                    flip(i)
                    locked[i] = True
                    trail.append((i, -1))
                else:
                    flip(i)
                    flip(j)
                    locked[i] = locked[j] = True
                    trail.append((i, j))
                cum += g
                if cum > best_cum:
                    best_cum = cum
                    best_len = len(trail)
                    stall = 0
                else:
                    stall += 1
                    if stall > stall_cap:
                        break
            for i, j in reversed(trail[best_len:]):
                flip(i)
                if j >= 0:
                    flip(j)
            if best_cum <= 0:
                break
        return side


def kway_partition(g: Qodg, k: int, eps: float = 0.1,
                   weights: WeightAnnotation | None = None, seed: int = 0) -> Partition:
    """Split the graph into k parts balancing node count and every one-hot
    level dimension, minimizing the qubit weight of cut edges.

    Deterministic for fixed inputs and seed. The seed only varies one of the
    refinement restarts; all tie-breaks favor the lowest node seq. With
    fewer operations than parts some parts stay empty.
    """
    n = len(g)
    if k < 1:
        raise ConfigError("part count must be >= 1")
    if not 0 < eps < 1:
        raise ConfigError("balance tolerance must satisfy 0 < eps < 1")
    ann = weights if weights is not None else assign_weight_vectors(g, k)

    eps_f = Fraction(eps)
    dim_lo = {}
    dim_hi = {}
    for c in range(ann.n_con):
        total = int(np.sum(ann.node_dim == c))
        dim_lo[c], dim_hi[c] = _bound_pair(total, k, eps_f)
    _, node_hi = _bound_pair(n, k, eps_f)

    edge_list = [(e.src, e.dst, e.weight) for e in g.edges]
    w_between: dict[tuple[int, int], int] = {}
    for a, b, w in edge_list:
        key = (min(a, b), max(a, b))
        w_between[key] = w_between.get(key, 0) + w

    assignment = np.full(n, -1, dtype=np.int64)
    rng = np.random.default_rng(seed)

    def bisect(nodes: np.ndarray, kappa: int, offset: int):
        if kappa == 1 or len(nodes) == 0:
            assignment[nodes] = offset
            return
        k1 = (kappa + 1) // 2
        k2 = kappa - k1
        bis = _Bisection(nodes, ann.node_dim, edge_list, w_between,
                         k1, k2, dim_lo, dim_hi, node_hi)
        m = len(nodes)
        orders = [np.arange(m)]
        if m <= 512:
            orders.append(np.arange(m)[::-1].copy())
            orders.append(rng.permutation(m))
        if m <= 96:
            by_deg = sorted(range(m), key=lambda i: (-len(bis.adj[i]), i))
            orders.append(np.array(by_deg, dtype=np.int64))
        best_side = None
        best_cut = None
        for order in orders:
            side = bis.refine(bis.initial(order))
            cut = bis.cut(side)
            if best_cut is None or cut < best_cut:
                best_cut = cut
                best_side = side.copy()
        bisect(nodes[best_side], k1, offset)
        bisect(nodes[~best_side], k2, offset + k1)

    bisect(np.arange(n, dtype=np.int64), k, 0)
    return Partition(assignment, k, traffic_matrix(g, assignment, k))
