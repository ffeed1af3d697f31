"""Independent reference implementations used as test oracles.

Everything here recomputes results by brute force (pairwise scans, path or
assignment enumeration, exact rational arithmetic) without touching the
production code paths it checks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ----------------------------------------------------------------------
# netlist interpretation (flat expansion, straight off the source text)

def interpret_netlist(text: str) -> list[tuple[str, tuple[str, ...]]]:
    """Directly expand netlist source to a flat (kind, qubit names) list."""
    kernels: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    flat: list[tuple[str, tuple[str, ...]]] = []
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "qubit":
            continue
        if tok[0] == ".kernel":
            current = tok[1]
            kernels[current] = []
        elif tok[0] == ".endkernel":
            current = None
        elif tok[0] == ".call":
            count = int(tok[2][1:]) if len(tok) == 3 else 1
            flat.extend(kernels[tok[1]] * count)
        else:
            kind = tok[0]
            names = tuple(n.strip() for n in line[len(kind):].split(","))
            entry = (kind, names)
            if current is None:
                flat.append(entry)
            else:
                kernels[current].append(entry)
    return flat


# ----------------------------------------------------------------------
# dependency edges by O(n^2) pairwise scan

def dependency_edges(ops: list[tuple[str, tuple[int, ...]]]) -> dict[tuple[int, int], set[int]]:
    """Edges (i, j) -> shared qubit set, by scanning every ordered pair and
    keeping qubits with no intermediate user."""
    edges: dict[tuple[int, int], set[int]] = {}
    n = len(ops)
    for i in range(n):
        for j in range(i + 1, n):
            shared = set(ops[i][1]) & set(ops[j][1])
            live = set()
            for q in shared:
                if not any(q in ops[l][1] for l in range(i + 1, j)):
                    live.add(q)
            if live:
                edges[(i, j)] = live
    return edges


# ----------------------------------------------------------------------
# critical path by full path enumeration

def longest_path(n: int, edges: dict[tuple[int, int], set[int]], delays,
                 routing=None) -> float:
    succs = {}
    for (i, j) in edges:
        succs.setdefault(i, []).append(j)
    best = 0.0

    def walk(v, acc):
        nonlocal best
        acc += delays[v]
        if acc > best:
            best = acc
        for w in succs.get(v, ()):  # noqa: B023
            extra = routing.get((v, w), 0.0) if routing else 0.0
            walk(w, acc + extra)

    for v in range(n):
        walk(v, 0.0)
    return best


# ----------------------------------------------------------------------
# two-way partition optimum by exhaustive enumeration

def best_two_way_cut(n, edge_list, node_dim, n_dims, eps):
    """Minimum cut over all feasible 2-way assignments; constraints mirror
    the documented balance rules (recomputed here from scratch)."""
    def bounds(total, k):
        lo = math.floor(Fraction(total // k) * (1 - Fraction(eps)))
        hi = math.floor(Fraction(-(-total // k)) * (1 + Fraction(eps)))
        return lo, hi

    dim_totals = [sum(1 for d in node_dim if d == c) for c in range(n_dims)]
    dim_bounds = [bounds(t, 2) for t in dim_totals]
    _, node_hi = bounds(n, 2)
    best = None
    for bits in range(2 ** n):
        side = [(bits >> i) & 1 for i in range(n)]
        n1 = sum(side)
        if n1 > node_hi or n - n1 > node_hi:
            continue
        ok = True
        for c in range(n_dims):
            c1 = sum(1 for i in range(n) if side[i] and node_dim[i] == c)
            lo, hi = dim_bounds[c]
            if not (lo <= c1 <= hi and lo <= dim_totals[c] - c1 <= hi):
                ok = False
                break
        if not ok:
            continue
        cut = sum(w for a, b, w in edge_list if side[a] != side[b])
        if best is None or cut < best:
            best = cut
    return best


# ----------------------------------------------------------------------
# assignment (binding) optimum by permutation enumeration

def best_binding(w, d) -> tuple[tuple[int, ...], float]:
    k = len(w)
    best_perm = None
    best_cost = None
    for perm in itertools.permutations(range(k)):
        cost = sum(
            float(w[m][x]) * float(d[perm[m]][perm[x]])
            for m in range(k) for x in range(k) if m != x
        )
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_perm = perm
    return best_perm, best_cost


# ----------------------------------------------------------------------
# optimal makespan by serial scheduling over every topological order

def optimal_makespan(n, preds, dur, anc, core, lag, n_cores, budget) -> int:
    """Exhaustively enumerate topological orders; schedule each greedily at
    the earliest feasible level. For regular objectives some order attains
    the optimum, so the minimum over orders is the true optimum."""
    succs = [[] for _ in range(n)]
    indeg = [0] * n
    for v in range(n):
        for u in preds[v]:
            succs[u].append(v)
            indeg[v] += 1
    best = None

    def serial(order):
        start = [0] * n
        occ: dict[tuple[int, int], int] = {}
        for x in order:
            ready = 1
            for u in preds[x]:
                ready = max(ready, start[u] + dur[u] + lag[(u, x)])
            s = ready
            while True:
                clash = False
                for z in range(s, s + dur[x]):
                    if occ.get((core[x], z), 0) + anc[x] > budget:
                        s = z + 1
                        clash = True
                        break
                if not clash:
                    break
            start[x] = s
            for z in range(s, s + dur[x]):
                occ[(core[x], z)] = occ.get((core[x], z), 0) + anc[x]
        return max(start[i] + dur[i] - 1 for i in range(n))

    order: list[int] = []
    avail = [i for i in range(n) if indeg[i] == 0]

    def rec():
        nonlocal best
        if len(order) == n:
            ms = serial(order)
            if best is None or ms < best:
                best = ms
            return
        for i in list(avail):
            avail.remove(i)
            order.append(i)
            opened = []
            for v in succs[i]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    avail.append(v)
                    opened.append(v)
            rec()
            for v in opened:
                avail.remove(v)
            for v in succs[i]:
                indeg[v] += 1
            order.pop()
            avail.append(i)

    rec()
    return best


# ----------------------------------------------------------------------
# list scheduling by a per-level occupancy scan

def levelwise_schedule(order, dur, anc, core, pred_ptr, pred_idx, pred_lag, n_cores, budget, l_init):
    """Greedy earliest-feasible-start scheduling in a fixed priority order.

    Levels are 1-based. occ[c, z] accumulates ancilla in use on core c at
    level z. Returns (start, occ, status); status nonzero means the level
    bound was exceeded (never happens when l_init is the serial bound).
    """
    n = order.shape[0]
    start = np.zeros(n, dtype=np.int64)
    occ = np.zeros((n_cores, l_init + 2), dtype=np.int64)
    for k in range(n):
        x = order[k]
        ready = np.int64(1)
        for e in range(pred_ptr[x], pred_ptr[x + 1]):
            p = pred_idx[e]
            cand = start[p] + dur[p] + pred_lag[e]
            if cand > ready:
                ready = cand
        c = core[x]
        a = anc[x]
        t = dur[x]
        s = ready
        while True:
            if s + t - 1 > l_init:
                return start, occ, 1
            ok = True
            z = s
            while z < s + t:
                if occ[c, z] + a > budget:
                    s = z + 1
                    ok = False
                    break
                z += 1
            if ok:
                break
        start[x] = s
        for z in range(s, s + t):
            occ[c, z] += a
    return start, occ, 0


def levelwise_reference(preds, dur, anc, core, route, n_cores, budget):
    """(start levels, occupancy) from `levelwise_schedule`, run in the list
    scheduler's priority order (longest duration path to any sink, ties by
    lower index) with the serial level bound."""
    n = len(dur)
    prio = list(dur)
    for u in range(n - 1, -1, -1):
        tails = [prio[v] for v in range(u + 1, n) if u in preds[v]]
        prio[u] = dur[u] + max(tails, default=0)
    order = sorted(range(n), key=lambda i: (-prio[i], i))
    ptr = [0]
    idx, lag = [], []
    for v in range(n):
        for u in preds[v]:
            idx.append(u)
            lag.append(route[core[u]][core[v]])
        ptr.append(len(idx))
    l_init = sum(dur) + n * max(max(row) for row in route) + 1
    i64 = np.int64
    start, occ, status = levelwise_schedule(
        np.array(order, dtype=i64), np.array(dur, dtype=i64), np.array(anc, dtype=i64),
        np.array(core, dtype=i64), np.array(ptr, dtype=i64), np.array(idx, dtype=i64),
        np.array(lag, dtype=i64), i64(n_cores), i64(budget), i64(l_init),
    )
    assert status == 0, "level bound exceeded"
    return [int(s) for s in start], occ


# ----------------------------------------------------------------------
# exact geometry arithmetic (committed fixture for the headline numbers)

def exact_geometry(a_total, k, a_min, l_code, d_max):
    """Side lengths from the budget equations, in exact rationals."""
    a = Fraction(a_total, k)

    def ceil_sqrt(val: Fraction) -> int:
        if val <= 0:
            return 0
        n = 0
        while Fraction(n * n) < val:
            n += 1
        return n

    radicand = a / a_min * l_code + a - Fraction(d_max, 2)
    alpha_compute = ceil_sqrt(radicand)
    alpha_core = ceil_sqrt(Fraction(d_max * l_code) + a)
    # ceil(((sqrt(3)-1)/2) * alpha_compute): smallest integer c with
    # (2c + alpha_compute)^2 >= 3 * alpha_compute^2
    c = 0
    while (2 * c + alpha_compute) ** 2 < 3 * alpha_compute ** 2:
        c += 1
    cache = min(Fraction(c), Fraction(alpha_core - alpha_compute, 2))
    alpha_cache = max(math.floor(cache), 0)
    alpha_mem = max(math.ceil(Fraction(alpha_core - alpha_compute, 2) - alpha_cache), 0)
    return alpha_compute, alpha_core, alpha_cache, alpha_mem


def exact_delays(alpha_compute, alpha_core, alpha_cache, alpha_mem,
                 alpha_int, beta, gamma, manhattan):
    inter = manhattan * (alpha_core + alpha_int) * Fraction(beta)
    intra = (alpha_compute + alpha_cache + Fraction(gamma) * alpha_mem) / 2 * Fraction(beta)
    return float(inter), float(intra)
