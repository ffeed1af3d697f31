"""Multi-constraint k-way partitioning of the dependency graph.

Wide graph levels (those holding at least k nodes) each get their own
balance dimension, one-hot style: every node at such a level carries weight
1 in that dimension and 0 elsewhere. Balancing each dimension across parts
forces same-level operations apart, so the parts can actually run in
parallel; plain size balance alone tends to stack a level into one part.
`kway_partition` assigns the dimensions itself, so one invariant holds in
every bisection: a dimension is one ASAP level, and every edge joins two
different levels, so no edge joins two nodes of one dimension.

The partitioner is recursive bisection with Kernighan-Lin style refinement
(single moves plus same-dimension swaps, with locking and rollback to the
best prefix). Cut weight is the number of qubits crossing the cut, which is
exactly the traffic the binder later pays for.

Refinement keeps, per dimension pool and side, a lazy heap of its unlocked
nodes by (gain, lowest index), in the spirit of Fiduccia-Mattheyses gain
buckets: a step pushes fresh entries for the neighbours whose gain it
changed and pops stale heads only in the groups it touched. By the
invariant a dimension pool's best swap is its two tops, so lazy heaps over
the group tops give both the best feasible move and the best dimension
swap, and a step costs time in proportion to what it changed, not to the
number of pools. Only the unconstrained pool can hold an edge; it alone is
searched pair by pair. Refinement makes exactly the move or swap that a
full rescan of every node and pool would make; `tests/oracles.py` keeps
the full rescan as the reference.

Work that cannot change a partition is skipped. A pass ends once the cut
its locked nodes already force reaches the cut of its best prefix, a split
of cut 0 is not refined, and a bisection stops trying start orders at
cut 0 and skips a start that an earlier order already made (refinement is
deterministic and only a strictly smaller cut replaces the best). Every
order is still drawn, so the random stream, and with it every partition,
is the same as when each start is refined in full
(`tests/oracles.py::reference_kway_partition`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

import numpy as np

from .errors import ConfigError
from .qodg import Qodg


@dataclass(frozen=True)
class WeightAnnotation:
    """One-hot level weights: node_dim[i] is the dimension index or -1."""

    n_con: int
    node_dim: np.ndarray


def assign_weight_vectors(g: Qodg, k: int) -> WeightAnnotation:
    """Give every level with at least k nodes its own one-hot dimension."""
    if (g.level < 0).any():
        raise ValueError("graph must be leveled before weight assignment")
    if k < 1:
        raise ConfigError("part count must be >= 1")
    wide = np.bincount(g.level) >= k
    dim_of = np.where(wide, np.cumsum(wide) - 1, -1)
    return WeightAnnotation(int(wide.sum()), dim_of[g.level])


@dataclass(frozen=True)
class Partition:
    assignment: np.ndarray
    k: int
    traffic: np.ndarray
    n_con: int              # one-hot level dimensions balanced

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


def decimal_fraction(x: float) -> Fraction:
    """The decimal a float prints as, exactly: 0.3 is 3/10, not the nearest
    binary fraction (which is slightly below it)."""
    return Fraction(repr(float(x)))


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


def _side_edges(edges, side: np.ndarray):
    """The edges with both ends on side, relabelled to their ends' ranks
    among side's nodes."""
    on = side.tolist()
    rank = (np.cumsum(side) - 1).tolist()
    return [(rank[a], rank[b], w) for a, b, w in edges if on[a] and on[b]]


class _Bisection:
    """One two-way split of m nodes destined for k1 + k2 final parts.

    node_dim holds each node's global dimension (-1 for none) and edges are
    (a, b, qubits) over the local indices 0..m-1; parallel edges add up.
    No edge may join two nodes of one dimension.
    """

    def __init__(self, node_dim, edges, k1, k2, dim_lo, dim_hi, node_hi):
        self.m = len(node_dim)
        self.k1 = k1
        self.k2 = k2
        global_dim = node_dim.tolist()
        self.edges = edges
        # relabel the dimensions present here to 0..D-1 for list indexing
        dims_global = sorted({d for d in global_dim if d >= 0})
        remap = {c: j for j, c in enumerate(dims_global)}
        self.dim = [remap.get(d, -1) for d in global_dim]
        self.n_dims = len(dims_global)
        self.members: list[list[int]] = [[] for _ in range(self.n_dims)]
        self.unconstrained: list[int] = []
        for i, c in enumerate(self.dim):
            (self.members[c] if c >= 0 else self.unconstrained).append(i)
        # side-1 quota intervals per dimension present in this subset
        self.q = [len(mem) for mem in self.members]
        self.d_lo = [max(k1 * dim_lo[c], q - k2 * dim_hi[c]) for c, q in zip(dims_global, self.q)]
        self.d_hi = [min(k1 * dim_hi[c], q - k2 * dim_lo[c]) for c, q in zip(dims_global, self.q)]
        self.n_lo = max(0, self.m - k2 * node_hi)
        self.n_hi = min(k1 * node_hi, self.m)
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(self.m)]
        for a, b, w in self.edges:
            self.adj[a].append((b, w))
            self.adj[b].append((a, w))

    # ------------------------------------------------------------------
    def initial(self, order: np.ndarray) -> np.ndarray:
        """Quota-respecting initial side assignment along the given order."""
        kappa = self.k1 + self.k2
        side = np.zeros(self.m, dtype=bool)
        # one bucket per dimension in order, the last (dim -1) unconstrained
        buckets: list[list[int]] = [[] for _ in range(self.n_dims + 1)]
        for i in order.tolist():
            buckets[self.dim[i]].append(i)
        assigned1 = 0
        for c in range(self.n_dims):
            members = np.array(buckets[c], dtype=np.int64)
            t = (self.q[c] * self.k1 + kappa // 2) // kappa
            t = min(max(t, self.d_lo[c]), self.d_hi[c])
            side[members[_stride_pick(len(members), t)]] = True
            assigned1 += t
        unconstrained = np.array(buckets[-1], dtype=np.int64)
        nu = len(unconstrained)
        goal = (self.m * self.k1 + kappa // 2) // kappa - assigned1
        lo = max(0, self.n_lo - assigned1)
        hi = min(nu, self.n_hi - assigned1)
        if lo > hi:        # dimension quotas win over node-count balance
            lo = hi = max(0, min(nu, goal))
        t = min(max(goal, lo), hi)
        side[unconstrained[_stride_pick(nu, t)]] = True
        return side

    def cut(self, side: np.ndarray) -> int:
        s = side.tolist()
        return sum(w for a, b, w in self.edges if s[a] != s[b])

    # ------------------------------------------------------------------
    def refine(self, side: np.ndarray) -> np.ndarray:
        """Kernighan-Lin refinement: best feasible move or swap per step,
        with locking, then rollback to the best prefix; at most 8 passes,
        stopping after one that gains nothing. Mutates and returns `side`.

        Pool p < n_dims holds dimension p's nodes, pool n_dims the
        unconstrained ones. Each (side, pool) group keeps a lazy heap of
        (-gain, index) entries for its unlocked nodes: a step pushes a
        fresh entry for every unlocked neighbour of a moved node, and an
        entry is stale once its node is locked or its gain differs. Only
        the groups a moved node left or a touched neighbour sits in pop
        their stale heads, so top[s][p], the best unlocked node of pool p
        on side s, is exact after every step. A move's feasibility depends
        only on its group, so the best move is the best top among feasible
        groups, kept in one lazy heap per side: an entry is pushed when a
        feasible group's top changes or a group turns feasible again, and a
        stale or infeasible entry is popped when it reaches the front.

        A swap stays within a pool and keeps every balance. A dimension is
        one level and a level holds no edge, so swapping a dimension
        pool's two tops gains t0 + t1 and no pair of the pool gains more.
        One lazy heap holds these exact values, pushed whenever a top
        changes; its front, once stale entries are dropped, is the best
        dimension swap. Only the unconstrained pool can hold an edge, so
        it alone is searched pair by pair, when it has at most 64 nodes,
        by the sorted scan pruned with the bound g(i) + g(j). Each step is
        the one a full rescan would pick: a move wins a tie with a swap,
        the lowest index wins among moves and the lowest pool among
        swaps, and the unconstrained pool, searched last, must be strictly
        better to replace the best.

        Work that cannot change the result is skipped. A split of cut 0 is
        returned at once, as no move or swap can gain. Locked nodes stay
        put for the rest of a pass, so every later prefix cuts at least
        `floor`: the cut among locked nodes plus, for each unlocked node,
        the lighter of its edge weights to locked nodes on side 0 and on
        side 1. A pass ends once `floor` reaches the cut of its best
        prefix, since only a strictly smaller cut would replace that
        prefix.
        """
        m = self.m
        step_cap = m
        stall_cap = m if m <= 96 else max(48, m // 4)
        n_dims, dim, adj, d_lo, d_hi = self.n_dims, self.dim, self.adj, self.d_lo, self.d_hi
        pools = self.members + [self.unconstrained]
        pool_of = [c if c >= 0 else n_dims for c in dim]
        free = self.unconstrained
        scan_free = len(free) <= 64
        empty = (math.inf, -1)  # after every (-gain, index)
        s = side.tolist()
        gain = [0] * m          # external minus internal edge weight
        cut = 0                 # at the start of the current pass
        for a, b, w in self.edges:
            if s[a] != s[b]:
                cut += w
            else:
                w = -w
            gain[a] += w
            gain[b] += w

        def flip(i):
            si = s[i] = not s[i]
            gain[i] = -gain[i]
            for j, w in adj[i]:
                gain[j] += -2 * w if s[j] == si else 2 * w

        def w_direct(i, j):
            # a QODG node has at most four neighbours: one before and one
            # after it on each of its qubits
            return sum(w for v, w in adj[i] if v == j)

        def front(sd):
            """The heap entry of the best top among side sd's feasible groups."""
            h, ok, row = heaps[sd], can[sd], top[sd]
            while h:
                t = h[0]
                p = pool_of[t[1]]
                if ok[p] and row[p] == t:
                    return t
                heappop(h)
            return empty

        def push(sd, p):
            t = top[sd][p]
            if t[1] >= 0 and can[sd][p]:
                heappush(heaps[sd], t)

        for _ in range(8):
            if cut == 0:
                break
            n1 = sum(s)
            cnt1 = [sum(map(s.__getitem__, mem)) for mem in self.members]
            # per group: may a side-0 node enter, a side-1 node leave?
            can = ([cnt1[c] + 1 <= d_hi[c] for c in range(n_dims)] + [True],
                   [cnt1[c] - 1 >= d_lo[c] for c in range(n_dims)] + [True])
            locked = [False] * m
            # per node, qubits shared with locked nodes on side 0 and side 1
            to0 = [0] * m
            to1 = [0] * m
            floor = 0
            group = [[[(-gain[i], i) for i in mem if s[i] == sd] for mem in pools] for sd in (0, 1)]
            for h in group[0] + group[1]:
                heapify(h)
            top = [[h[0] if h else empty for h in row] for row in group]
            heaps = [[t for t, ok in zip(top[sd], can[sd]) if ok and t[1] >= 0] for sd in (0, 1)]
            # (-gain of swapping the two tops, p) per dimension pool p
            pair_heap = [(t0[0] + t1[0], p) for p, (t0, t1) in enumerate(zip(top[0][:n_dims], top[1]))
                         if t0[1] >= 0 and t1[1] >= 0]
            for h in heaps + [pair_heap]:
                heapify(h)
            trail: list[tuple[int, int]] = []
            cum = best_cum = 0
            best_len = 0
            stall = 0
            for _step in range(step_cap):
                key = empty
                if n1 - 1 >= self.n_lo:
                    key = front(1)
                if n1 + 1 <= self.n_hi:
                    key = min(key, front(0))
                best = (-key[0], 0, key[1], -1) if key[1] >= 0 else None
                while pair_heap:
                    b, p = pair_heap[0]
                    if top[0][p][0] + top[1][p][0] == b:
                        if best is None or -b > best[0]:
                            best = (-b, 1, top[1][p][1], top[0][p][1])
                        break
                    heappop(pair_heap)
                b = top[0][n_dims][0] + top[1][n_dims][0]
                if scan_free and b < math.inf and (best is None or -b > best[0]):
                    ones = sorted((i for i in free if s[i] and not locked[i]),
                                  key=lambda i: (-gain[i], i))
                    twos = sorted((i for i in free if not s[i] and not locked[i]),
                                  key=lambda i: (-gain[i], i))
                    top2 = gain[twos[0]]
                    for i in ones:
                        if best is not None and gain[i] + top2 <= best[0]:
                            break
                        for j in twos:
                            ub = gain[i] + gain[j]
                            if best is not None and ub <= best[0]:
                                break
                            g = ub - 2 * w_direct(i, j)
                            if best is None or g > best[0]:
                                best = (g, 1, i, j)
                if best is None:
                    break
                g, kind, i, j = best
                moved = (i,) if kind == 0 else (i, j)
                if kind == 0:
                    delta = -1 if s[i] else 1
                    n1 += delta
                    c = dim[i]
                    if c >= 0:
                        cnt1[c] += delta
                        was0, was1 = can[0][c], can[1][c]
                        can[0][c], can[1][c] = cnt1[c] + 1 <= d_hi[c], cnt1[c] - 1 >= d_lo[c]
                        if can[0][c] and not was0:
                            push(0, c)
                        if can[1][c] and not was1:
                            push(1, c)
                stale = {(s[u], pool_of[u]) for u in moved}   # the groups they leave
                touched = set()
                for u in moved:
                    su = s[u] = not s[u]
                    gain[u] = -gain[u]
                    locked[u] = True
                    # u's edges to locked nodes turn from a lighter side's
                    # share into cut or uncut for good
                    x, y = to0[u], to1[u]
                    floor += (x if su else y) - (x if x < y else y)
                    mine, other = (to1, to0) if su else (to0, to1)
                    for v, w in adj[u]:
                        if s[v] == su:
                            gain[v] -= 2 * w
                        else:
                            gain[v] += 2 * w
                        if not locked[v]:
                            touched.add(v)
                            x, y = mine[v], other[v]
                            mine[v] = x + w
                            if x < y:
                                floor += (w if x + w < y else y - x)
                trail.append((i, j))
                for v in touched:
                    if not locked[v]:
                        sd, p = s[v], pool_of[v]
                        heappush(group[sd][p], (-gain[v], v))
                        stale.add((sd, p))
                for sd, p in stale:
                    h = group[sd][p]
                    while h and (locked[h[0][1]] or gain[h[0][1]] != -h[0][0]):
                        heappop(h)
                    t = h[0] if h else empty
                    if t != top[sd][p]:
                        top[sd][p] = t
                        push(sd, p)
                        b = top[0][p][0] + top[1][p][0]
                        if p < n_dims and b < math.inf:
                            heappush(pair_heap, (b, p))
                cum += g
                if cum > best_cum:
                    best_cum = cum
                    best_len = len(trail)
                    stall = 0
                else:
                    stall += 1
                    if stall > stall_cap:
                        break
                if floor >= cut - best_cum:
                    break
            for i, j in reversed(trail[best_len:]):
                flip(i)
                if j >= 0:
                    flip(j)
            if best_cum <= 0:
                break
            cut -= best_cum
        side[:] = s
        return side


def kway_partition(g: Qodg, k: int, eps: float = 0.1, seed: int = 0) -> Partition:
    """Split the leveled graph into k parts balancing node count and every
    one-hot level dimension, minimizing the qubit weight of cut edges.

    The dimensions come from `assign_weight_vectors(g, k)`, one per wide
    level. A level holds no edge, so no edge joins two nodes of one
    dimension, which lets refinement take a dimension's best swap from its
    two best nodes without searching pairs.

    Deterministic for fixed inputs and seed. The seed only varies one of the
    refinement restarts; all tie-breaks favor the lowest node index. eps is
    read as the decimal it prints as (0.1 is 1/10). With fewer operations
    than parts some parts stay empty.
    """
    n = len(g)
    if k < 1:
        raise ConfigError("part count must be >= 1")
    if not 0 < eps < 1:
        raise ConfigError("balance tolerance must satisfy 0 < eps < 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    ann = assign_weight_vectors(g, k)

    eps_f = decimal_fraction(eps)
    dim_lo = {}
    dim_hi = {}
    for c in range(ann.n_con):
        total = int(np.sum(ann.node_dim == c))
        dim_lo[c], dim_hi[c] = _bound_pair(total, k, eps_f)
    _, node_hi = _bound_pair(n, k, eps_f)

    assignment = np.full(n, -1, dtype=np.int64)
    rng = np.random.default_rng(seed)

    def bisect(nodes: np.ndarray, edges, kappa: int, offset: int):
        """Split nodes (global ids, ascending; edges over their local
        indices) into parts offset .. offset + kappa - 1."""
        if kappa == 1 or len(nodes) == 0:
            assignment[nodes] = offset
            return
        k1 = (kappa + 1) // 2
        k2 = kappa - k1
        bis = _Bisection(ann.node_dim[nodes], edges, k1, k2, dim_lo, dim_hi, node_hi)
        m = len(nodes)
        orders = [np.arange(m)]
        if m <= 512:
            orders.append(np.arange(m)[::-1].copy())
            orders.append(rng.permutation(m))
        if m <= 96:
            by_deg = sorted(range(m), key=lambda i: (-len(bis.adj[i]), i))
            orders.append(np.array(by_deg, dtype=np.int64))
        # only a strictly smaller cut replaces the best, and refine is
        # deterministic: stop at cut 0 and skip a start an earlier order made
        best_side = None
        best_cut = None
        starts = set()
        for order in orders:
            if best_cut == 0:
                break
            side = bis.initial(order)
            start = side.tobytes()
            if start in starts:
                continue
            starts.add(start)
            side = bis.refine(side)
            cut = bis.cut(side)
            if best_cut is None or cut < best_cut:
                best_cut = cut
                best_side = side.copy()
        bisect(nodes[best_side], _side_edges(edges, best_side), k1, offset)
        bisect(nodes[~best_side], _side_edges(edges, ~best_side), k2, offset + k1)

    bisect(np.arange(n, dtype=np.int64), [(e.src, e.dst, e.weight) for e in g.edges], k, 0)
    return Partition(assignment, k, traffic_matrix(g, assignment, k), ann.n_con)
