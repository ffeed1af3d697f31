"""Multi-constraint k-way partitioning of the dependency graph.

Wide graph levels (those holding at least k nodes) each get their own
balance dimension, one-hot style: every node at such a level carries weight
1 in that dimension and 0 elsewhere. Balancing each dimension across parts
forces same-level operations apart, so the parts can actually run in
parallel; plain size balance alone tends to stack a level into one part.
`kway_partition` assigns the dimensions itself, so one invariant holds in
every bisection: a dimension is one ASAP level, and every edge joins two
different levels, so no edge joins two nodes of one dimension.

The partitioner is recursive bisection. Each bisection starts from one
split, a node-order prefix of every pool on side 1, and refines it once,
Kernighan-Lin style (single moves plus same-dimension swaps, with locking
and rollback to the best prefix). Cut weight is the number of qubits
crossing the cut, which is exactly the traffic the binder later pays for.
Refinement makes exactly the steps of a full rescan of every node and pool,
and skips only work that cannot change a partition, so every partition
equals `tests/oracles.py::reference_kway_partition`, which refines each
start in full; `_Bisection.refine` describes the heaps that find each step.
One bound ends the work early: no split a pass reaches cuts fewer than
`_Bisection.cut_lb` qubits, 1 on a connected subgraph whose quotas keep
both sides nonempty, else 0. Many bisections of a walk kernel start at
cut 1 on such a subgraph, and they make no step at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from .errors import ConfigError
from .fabric import decimal_ratio
from .qodg import Qodg, level_graph


@dataclass(frozen=True)
class WeightAnnotation:
    """One-hot level weights: node_dim[i] is the dimension index or -1."""

    n_con: int
    node_dim: np.ndarray


def assign_weight_vectors(g: Qodg, k: int) -> WeightAnnotation:
    """Give every ASAP level with at least k nodes its own one-hot dimension."""
    if k < 1:
        raise ConfigError("part count must be >= 1")
    level = level_graph(g)
    wide = np.bincount(level) >= k
    dim_of = np.where(wide, np.cumsum(wide) - 1, -1)
    return WeightAnnotation(int(wide.sum()), dim_of[level])


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
    src, dst, qubits = g.edges.T
    pa, pb = assignment[src], assignment[dst]
    cut = pa != pb
    w = np.zeros((k, k), dtype=np.int64)
    # add.at sums repeated (pa, pb) pairs, which a fancy-index += would drop
    np.add.at(w, (pa[cut], pb[cut]), qubits[cut])
    return w


def _bound_pair(total: int, k: int, eps: tuple[int, int]) -> tuple[int, int]:
    # eps is (numerator, denominator); lower bound rounded down; upper bound
    # is the largest integer count not exceeding ceil(total/k)*(1+eps), which
    # keeps wide levels genuinely spread (a 2-node level at k=2 must split
    # 1/1 under eps=0.1)
    num, den = eps
    return (total // k) * (den - num) // den, -(-total // k) * (den + num) // den


class _Bisection:
    """One two-way split of m nodes destined for k1 + k2 final parts.

    node_dim lists each node's global dimension (-1 for none) and edges are
    (a, b, qubits) over the local indices 0..m-1; parallel edges add up.
    No edge may join two nodes of one dimension. A side is a list of 0/1
    per node; side 1 is the k1 half.
    """

    def __init__(self, node_dim, edges, k1, k2, dim_lo, dim_hi, node_hi):
        self.m = len(node_dim)
        self.k1 = k1
        self.k2 = k2
        self.edges = edges
        # relabel the dimensions present here to 0..D-1 for list indexing
        dims_global = sorted({d for d in node_dim if d >= 0})
        remap = {c: j for j, c in enumerate(dims_global)}
        self.dim = [remap.get(d, -1) for d in node_dim]
        self.n_dims = len(dims_global)
        self.members: list[list[int]] = [[] for _ in range(self.n_dims)]
        self.unconstrained: list[int] = []
        for i, c in enumerate(self.dim):
            (self.members[c] if c >= 0 else self.unconstrained).append(i)
        # side-1 quota intervals per dimension present in this subset
        q = [len(mem) for mem in self.members]
        self.d_lo = [max(k1 * dim_lo[c], n - k2 * dim_hi[c]) for c, n in zip(dims_global, q)]
        self.d_hi = [min(k1 * dim_hi[c], n - k2 * dim_lo[c]) for c, n in zip(dims_global, q)]
        self.n_lo = max(0, self.m - k2 * node_hi)
        self.n_hi = min(k1 * node_hi, self.m)

    @cached_property
    def cut_lb(self) -> int:
        """A lower bound on the cut of every split `refine` reaches from a
        start of cut >= 1: 1 when the node quotas keep both sides nonempty
        (n_lo >= 1 and n_hi <= m - 1) and the subgraph is connected, else 0.

        Such a start has two nonempty sides. A move leaves side 1 only if
        n1 - 1 >= n_lo >= 1 and leaves side 0 only if n1 + 1 <= n_hi <= m - 1,
        and a swap keeps n1, so both sides stay nonempty, and a split of a
        connected graph into two nonempty sides cuts at least one edge.
        Computed once, when `refine` first meets a cut of 1."""
        m = self.m
        if self.n_lo < 1 or self.n_hi > m - 1:
            return 0
        # union-find over the edges: each union of two roots joins two components
        root = list(range(m))
        parts = m

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for a, b, _ in self.edges:
            a, b = find(a), find(b)
            if a != b:
                root[a] = b
                parts -= 1
        return int(parts == 1)

    # ------------------------------------------------------------------
    def initial(self) -> list[int]:
        """The one start: side 1 takes the lowest-index t nodes of each pool.

        A dimension's t is its rounded k1 / (k1 + k2) share, clamped to its
        quotas. The unconstrained pool's t brings the node count nearest
        that share within the node quotas; where the dimensions' t leave
        the node quotas no room, the dimension quotas win and t is only
        clamped to the pool's size."""
        kappa = self.k1 + self.k2
        side = [0] * self.m
        assigned1 = 0
        for c, members in enumerate(self.members):
            t = (len(members) * self.k1 + kappa // 2) // kappa
            t = min(max(t, self.d_lo[c]), self.d_hi[c])
            for i in members[:t]:
                side[i] = 1
            assigned1 += t
        nu = len(self.unconstrained)
        goal = (self.m * self.k1 + kappa // 2) // kappa - assigned1
        lo = max(0, self.n_lo - assigned1)
        hi = min(nu, self.n_hi - assigned1)
        if lo > hi:        # dimension quotas win over node-count balance
            lo = hi = max(0, min(nu, goal))
        for i in self.unconstrained[:min(max(goal, lo), hi)]:
            side[i] = 1
        return side

    # ------------------------------------------------------------------
    def refine(self, s: list[int]) -> int:
        """Kernighan-Lin refinement: best feasible move or swap per step,
        with locking, then rollback to the best prefix; at most 8 passes,
        stopping after one that gains nothing. Each step locks a node, so a
        pass ends; it also ends after more than max(48, m // 4) steps in a
        row that do not beat its best prefix. Mutates the side list `s` and
        returns the cut it ends at.

        Pool p < n_dims holds dimension p's nodes, pool n_dims the
        unconstrained ones, and group 2p + s holds pool p's nodes on side
        s. Every heap entry is one int. A node's key is (-gain << SH) |
        index with SH = m.bit_length(), so keys order as (-gain, index)
        tuples: the highest gain first, then the lowest index. Three kinds
        of heap find a step:

        - per group, its unlocked nodes' keys; top[q] is group q's best
          key, or EMPTY, above every node key, when it has none;
        - per side, the tops of the feasible groups on that side. A move's
          feasibility depends only on its group, so the best is the best
          move;
        - over the dimension pools, (-(g0 + g1) << SP) | p for a pool
          whose two tops have gains g0 and g1. A swap stays within a pool
          and keeps every balance. A dimension is one level and a level
          holds no edge, so swapping the two tops is the pool's best swap,
          and the best entry is the best dimension swap.

        Every heap is repaired lazily. Each item (a node, a group, a pool)
        that has a current value keeps an entry no larger than it: an
        entry is pushed when a value falls or an item gains a value, and
        nothing is done when a value rises. At the front one rule holds:
        an entry equal to its item's current value is the valid front, and
        any other entry is replaced by that value, or dropped when the item
        has none (a locked node, an empty or infeasible group, a pool with
        an empty side). By the invariant a front entry is never above its
        item's value, so the valid front is the exact best. A group's heap
        is repaired when its top may have moved or risen; the side and
        pool heaps at every step.

        Only the unconstrained pool can hold an edge, so it alone is
        searched pair by pair, pruned with the bound g(i) + g(j), among its
        leaders: the D = n_lead best unlocked nodes of each side, popped
        from their group heaps under the front rule above and pushed back.
        The first best swap (a, b) in (side-1 rank, side-0 rank) order is
        there: were b no leader, a side-0 leader, ranked above b, would
        share no edge with a (which has under D neighbours) and pair with a
        for at least as much, earlier; likewise for a. Each step is the one
        a full rescan would pick: a move wins a tie with a swap, the lowest
        index wins among moves and the lowest pool among swaps, and the
        unconstrained pool, searched last, must be strictly better.

        Work that cannot change the result is skipped by one rule. No split
        a pass reaches cuts fewer than `cut_lb` qubits (proved there), and
        only a strictly smaller cut replaces a best prefix, so nothing can
        gain once a cut c is `settled`: c = 0, or c = 1 where `cut_lb` is 1.
        It is checked on the start's cut, before any search state is built,
        which returns the start unchanged; on the best prefix's cut after
        each step, which ends the pass; and on the new cut after each pass.
        `cut_lb` is read only at a cut of 1, the one value where it can
        exceed 0 and the cut, so a bisection that never gets there never
        computes it.
        """
        m = self.m
        edges = self.edges

        def settled(c):
            return c == 0 or (c == 1 and self.cut_lb)

        cut = sum(w for a, b, w in edges if s[a] != s[b])   # at the start of the current pass
        if settled(cut):
            return cut
        stall_cap = max(48, m // 4)
        n_dims, dim, d_lo, d_hi = self.n_dims, self.dim, self.d_lo, self.d_hi
        n_lo, n_hi = self.n_lo, self.n_hi
        pools = self.members + [self.unconstrained]
        base = [2 * c if c >= 0 else 2 * n_dims for c in dim]
        qf = 2 * n_dims         # the unconstrained pool's side-0 group
        SH = m.bit_length()
        MASK = (1 << SH) - 1
        SP = n_dims.bit_length()
        PMASK = (1 << SP) - 1
        gain = [0] * m          # external minus internal edge weight
        total = 0
        # per node, (neighbour, qubits, key delta) for each edge: a gain
        # change of 2w moves a key by (2w) << SH
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
        for a, b, w in edges:
            total += w
            dk = (2 * w) << SH
            adj[a].append((b, w, dk))
            adj[b].append((a, w, dk))
            if s[a] == s[b]:
                w = -w
            gain[a] += w
            gain[b] += w
        EMPTY = (total + 1) << SH   # no gain exceeds the total edge weight
        NONE = -total - 1           # below every step's gain: no step cuts more than total
        # gains are kept as keys, and negating the gain of u maps its key to 2u - key
        key = [(-x << SH) | i for i, x in enumerate(gain)]
        # the swap search depth: 1 + the most distinct neighbours of a free node
        n_lead = 1 + max((len({v for v, _, _ in adj[i]}) for i in self.unconstrained), default=0)

        def w_direct(i, j):
            # a QODG node has at most four neighbours: one before and one
            # after it on each of its qubits
            return sum(w for v, w, _ in adj[i] if v == j)

        def front(h):
            # repair group heap h's front: its valid entry, or EMPTY
            while h:
                e = h[0]
                kv = EMPTY if locked[e & MASK] else key[e & MASK]
                if kv == e:
                    return e
                if kv == EMPTY:
                    heappop(h)
                else:
                    heapreplace(h, kv)
            return EMPTY

        def leaders(h):
            # the n_lead best valid keys of group heap h, in order; a popped
            # node is marked locked meanwhile, so its other entries drop
            out = []
            while len(out) < n_lead and (e := front(h)) != EMPTY:
                locked[heappop(h) & MASK] = True
                out.append(e)
            for e in out:
                locked[e & MASK] = False
                heappush(h, e)
            return out

        for _ in range(8):
            group = []
            for mem in pools:
                h0, h1 = [], []
                for i in mem:
                    (h1 if s[i] else h0).append(key[i])
                heapify(h0)
                heapify(h1)
                group += (h0, h1)
            n1 = sum(s)
            cnt1 = [len(h) for h in group[1:qf:2]]
            # per group: may a side-0 node enter side 1, a side-1 node leave?
            can = [True] * (qf + 2)
            can[0:qf:2] = [x + 1 <= hi for x, hi in zip(cnt1, d_hi)]
            can[1:qf:2] = [x - 1 >= lo for x, lo in zip(cnt1, d_lo)]
            locked = [False] * m
            top = [h[0] if h else EMPTY for h in group]
            heaps = ([t for t, ok in zip(top[0::2], can[0::2]) if ok and t != EMPTY],
                     [t for t, ok in zip(top[1::2], can[1::2]) if ok and t != EMPTY])
            pair_heap = [(((t0 >> SH) + (t1 >> SH)) << SP) | p
                         for p, t0, t1 in zip(range(n_dims), top[0:qf:2], top[1:qf:2])
                         if t0 != EMPTY and t1 != EMPTY]
            for h in heaps + (pair_heap,):
                heapify(h)
            # the sides a move may leave, by [side 1 may lose][side 0 may lose]
            side1, side0 = (heaps[1], 1), (heaps[0], 0)
            sides = (((), (side0,)), ((side1,), (side1, side0)))
            trail: list[int] = []  # the moved nodes, in step order
            cum = best_cum = 0
            best_len = 0
            stall = 0
            while True:
                kmin = EMPTY
                for h, sd in sides[n1 - 1 >= n_lo][n1 + 1 <= n_hi]:
                    while h:
                        e = h[0]
                        q = base[e & MASK] + sd
                        t = top[q] if can[q] else EMPTY
                        if t == e:
                            if e < kmin:
                                kmin = e
                            break
                        if t == EMPTY:
                            heappop(h)
                        else:
                            heapreplace(h, t)
                # the best step so far: gain g, and i alone or i swapped with j
                if kmin != EMPTY:
                    g, i, j = -(kmin >> SH), kmin & MASK, -1
                else:
                    g, i, j = NONE, -1, -1
                while pair_heap:
                    e = pair_heap[0]
                    p = e & PMASK
                    t0, t1 = top[2 * p], top[2 * p + 1]
                    if t0 == EMPTY or t1 == EMPTY:
                        heappop(pair_heap)
                        continue
                    v = (((t0 >> SH) + (t1 >> SH)) << SP) | p
                    if v == e:
                        if -(e >> SP) > g:
                            g, i, j = -(e >> SP), t1 & MASK, t0 & MASK
                        break
                    heapreplace(pair_heap, v)
                t0, t1 = top[qf], top[qf + 1]
                if t0 != EMPTY and t1 != EMPTY and -((t0 >> SH) + (t1 >> SH)) > g:
                    twos = leaders(group[qf])
                    for ka in leaders(group[qf + 1]):
                        ga = -(ka >> SH)
                        for kb in twos:
                            ub = ga - (kb >> SH)
                            if ub <= g:
                                break
                            ub -= 2 * w_direct(ka & MASK, kb & MASK)
                            if ub > g:
                                g, i, j = ub, ka & MASK, kb & MASK
                if i < 0:
                    break
                reopen = -1         # the group this step lets move again
                if j < 0:
                    moved = (i,)
                    delta = -1 if s[i] else 1
                    n1 += delta
                    c = dim[i]
                    if c >= 0:
                        cnt1[c] += delta
                        ok0, ok1 = cnt1[c] + 1 <= d_hi[c], cnt1[c] - 1 >= d_lo[c]
                        q = 2 * c
                        if ok0 and not can[q]:
                            reopen = q
                        elif ok1 and not can[q + 1]:
                            reopen = q + 1
                        can[q], can[q + 1] = ok0, ok1
                else:
                    moved = (i, j)
                clean = []          # the groups whose top left or rose
                for u in moved:
                    su = s[u] = 1 - s[u]
                    key[u] = 2 * u - key[u]
                    locked[u] = True
                    for v, _, dk in adj[u]:
                        sd = s[v]
                        if locked[v]:
                            key[v] += dk if sd == su else -dk
                            continue
                        q = base[v] + sd
                        kv = key[v]
                        if sd == su:   # v's key rises: only a top that rose needs repair
                            key[v] = kv + dk
                            if top[q] == kv:
                                clean.append(q)
                            continue
                        # v's key falls: a new entry, and a new top if it beats it
                        kv = key[v] = kv - dk
                        heappush(group[q], kv)
                        if kv < top[q]:
                            top[q] = kv
                            if can[q]:
                                heappush(heaps[sd], kv)
                            t = top[q ^ 1]
                            if q < qf and t != EMPTY:
                                heappush(pair_heap, (((kv >> SH) + (t >> SH)) << SP) | (q >> 1))
                trail += moved
                for u in moved:
                    q = base[u] + 1 - s[u]
                    if top[q] & MASK == u:
                        clean.append(q)
                # repair never lowers a top, so it pushes nothing
                for q in clean:
                    top[q] = front(group[q])
                if reopen >= 0 and top[reopen] != EMPTY:
                    heappush(heaps[reopen & 1], top[reopen])
                cum += g
                if cum > best_cum:
                    best_cum = cum
                    best_len = len(trail)
                    stall = 0
                else:
                    stall += 1
                    if stall > stall_cap:
                        break
                if settled(cut - best_cum):
                    break
            # gains are a function of the sides, so the order of undoing
            # does not matter
            for u in trail[best_len:]:
                su = s[u] = 1 - s[u]
                key[u] = 2 * u - key[u]
                for v, _, dk in adj[u]:
                    key[v] += dk if s[v] == su else -dk
            if best_cum <= 0:
                break
            cut -= best_cum
            if settled(cut):
                break
        return cut


def kway_partition(g: Qodg, k: int, eps: float = 0.1) -> Partition:
    """Split the graph into k parts balancing node count and every one-hot
    level dimension, minimizing the qubit weight of cut edges.

    The dimensions come from `assign_weight_vectors(g, k)`, one per wide
    ASAP level, which also rejects k < 1. A level holds no edge, so no edge
    joins two nodes of one dimension, which lets refinement take a
    dimension's best swap from its two best nodes without searching pairs.

    Each bisection refines one start, `_Bisection.initial`: side 1 takes
    the lowest-index nodes of each dimension and of the unconstrained
    nodes, as many as the quotas give it. Ties favor the lowest node index.
    eps is read as the decimal it prints as (0.1 is 1/10). With fewer
    operations than parts some parts stay empty.
    """
    n = len(g)
    ann = assign_weight_vectors(g, k)
    if not 0 < eps < 1:
        raise ConfigError("balance tolerance must satisfy 0 < eps < 1")

    eps_f = decimal_ratio(eps)
    dim_lo = {}
    dim_hi = {}
    totals = np.bincount(ann.node_dim + 1, minlength=ann.n_con + 1)[1:]
    for c, total in enumerate(totals.tolist()):
        dim_lo[c], dim_hi[c] = _bound_pair(total, k, eps_f)
    _, node_hi = _bound_pair(n, k, eps_f)

    node_dim = ann.node_dim.tolist()
    assignment = np.full(n, -1, dtype=np.int64)

    def bisect(nodes: list[int], edges, kappa: int, offset: int):
        """Split nodes (global ids, ascending; edges over their local
        indices) into parts offset .. offset + kappa - 1."""
        if kappa == 1 or not nodes:
            assignment[nodes] = offset
            return
        k1 = (kappa + 1) // 2
        k2 = kappa - k1
        bis = _Bisection([node_dim[v] for v in nodes], edges, k1, k2, dim_lo, dim_hi, node_hi)
        side = bis.initial()
        bis.refine(side)
        # each half's nodes and edges, relabelled to their ranks in the half
        halves, half_edges, rank = ([], []), ([], []), []
        for v, sd in zip(nodes, side):
            rank.append(len(halves[sd]))
            halves[sd].append(v)
        for a, b, w in edges:
            if side[a] == side[b]:
                half_edges[side[a]].append((rank[a], rank[b], w))
        bisect(halves[1], half_edges[1], k1, offset)
        bisect(halves[0], half_edges[0], k2, offset + k1)

    bisect(list(range(n)), g.edges.tolist(), k, 0)
    return Partition(assignment, k, traffic_matrix(g, assignment, k), ann.n_con)
