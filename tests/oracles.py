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
# parser oracles: a parsed program unrolled, counted, and written back

def flat_expansion(program):
    """Yield (kind, operand indices) for the fully unrolled program."""
    for kid, count in program.sequence.stages:
        body = program.kernels[kid].body
        for _ in range(count):
            for op in body:
                yield op.kind, op.operands


def flat_op_count(program) -> int:
    return sum(count * len(program.kernels[kid].body) for kid, count in program.sequence.stages)


def serialize_program(program) -> str:
    """Render a program back to netlist text; reparsing gives an equal program."""
    out = [f"qubit {q}" for q in program.qubits]
    for kid, kernel in program.kernels.items():
        out.append(f".kernel {kid}")
        for op in kernel.body:
            names = ",".join(program.qubits[i] for i in op.operands)
            out.append(f"{op.kind} {names}")
        out.append(".endkernel")
    for kid, count in program.sequence.stages:
        out.append(f".call {kid} x{count}")
    return "\n".join(out) + "\n"


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
# ASAP levels by a Kahn queue, and one-hot weight dimensions by a dict

def reference_levels(g) -> np.ndarray:
    """ASAP level per node (1 + max over predecessors, 0 for sources),
    visiting nodes in queue order rather than in op order, along successor
    lists built from the edge table."""
    n = len(g)
    succs: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in g.edges.tolist():
        succs[u].append(v)
    level = np.zeros(n, dtype=np.int64)
    indeg = np.array([len(p) for p in g.preds])
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in succs[u]:
            if level[u] + 1 > level[v]:
                level[v] = level[u] + 1
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if seen != n:
        raise RuntimeError("cycle in dependency graph")
    return level


def reference_node_dim(levels, k: int) -> list[int]:
    """Dimension per node: levels holding at least k nodes, numbered in
    level order, and -1 for every other node."""
    sizes: dict[int, int] = {}
    for lv in levels:
        sizes[lv] = sizes.get(lv, 0) + 1
    wide = sorted(lv for lv, n in sizes.items() if n >= k)
    dim_of = {lv: j for j, lv in enumerate(wide)}
    return [dim_of.get(lv, -1) for lv in levels]


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
    the documented balance rules (recomputed here from scratch), with eps
    read as the decimal it prints as."""
    eps = Fraction(str(eps))

    def bounds(total, k):
        lo = math.floor(Fraction(total // k) * (1 - eps))
        hi = math.floor(Fraction(-(-total // k)) * (1 + eps))
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
# Kernighan-Lin refinement by a full rescan per step

def reference_refine(bis, side: list[int], max_passes=8) -> list[int]:
    """Kernighan-Lin refinement of a `_Bisection`, rescanning everything on
    every step: the best feasible move (vectorized over all nodes) or
    same-pool swap (each pool's unlocked sides rebuilt and sorted), with
    locking, then rollback to the best prefix. Swap search prunes pairs via
    the gain upper bound g(i) + g(j). Mutates and returns the 0/1 list
    `side`."""
    m = bis.m
    if m == 0:
        return side
    stall_cap = max(48, m // 4)
    unconstrained = bis.unconstrained
    ext = np.zeros(m, dtype=np.int64)
    itn = np.zeros(m, dtype=np.int64)
    for a, b, w in bis.edges:
        if side[a] != side[b]:
            ext[a] += w
            ext[b] += w
        else:
            itn[a] += w
            itn[b] += w

    def flip(i):
        side[i] = 1 - side[i]
        ext[i], itn[i] = itn[i], ext[i]
        for j, w, _ in bis.adj[i]:
            if side[j] == side[i]:
                itn[j] += w
                ext[j] -= w
            else:
                ext[j] += w
                itn[j] -= w

    # qubits shared by each unordered pair, summed over parallel edges
    pair_w: dict[frozenset, int] = {}
    for a, b, w in bis.edges:
        pair_w[frozenset((a, b))] = pair_w.get(frozenset((a, b)), 0) + w

    def w_direct(i, j):
        return pair_w.get(frozenset((i, j)), 0)

    # _Bisection keeps dim and the quotas as lists
    dim = np.asarray(bis.dim, dtype=np.int64)
    d_lo = np.asarray(bis.d_lo, dtype=np.int64)
    d_hi = np.asarray(bis.d_hi, dtype=np.int64)
    has_dim = dim >= 0
    dim_safe = np.where(has_dim, dim, 0)
    for _ in range(max_passes):
        n1 = sum(side)
        cnt1 = np.zeros(max(bis.n_dims, 1), dtype=np.int64)
        for j in range(bis.n_dims):
            cnt1[j] = sum(1 for i in bis.members[j] if side[i])
        locked = np.zeros(m, dtype=bool)
        trail: list[tuple[int, int]] = []
        cum = best_cum = 0
        best_len = 0
        stall = 0
        while True:
            gain = ext - itn
            # vectorized move feasibility against the side-1 quotas
            if bis.n_dims:
                can_leave = np.where(has_dim, cnt1[dim_safe] - 1 >= d_lo[dim_safe], True)
                can_enter = np.where(has_dim, cnt1[dim_safe] + 1 <= d_hi[dim_safe], True)
            else:
                can_leave = can_enter = np.ones(m, dtype=bool)
            feas = np.where(np.array(side, dtype=bool), (n1 - 1 >= bis.n_lo) & can_leave,
                            (n1 + 1 <= bis.n_hi) & can_enter)
            elig = feas & ~locked
            best = None  # (gain, kind, i, j); moves beat swaps on ties
            if elig.any():
                masked = np.where(elig, gain, np.iinfo(np.int64).min)
                i = int(masked.argmax())
                best = (int(masked[i]), 0, i, -1)
            for pool_id in list(range(bis.n_dims)) + [-1]:
                src = bis.members[pool_id] if pool_id >= 0 else unconstrained
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


def reference_kway_partition(g, k, eps=0.1) -> np.ndarray:
    """kway_partition's recursive bisection, refining every start order with
    `reference_refine` and skipping none: not a zero-cut start, not the
    orders after a cut of 0. Each bisection's quotas and initial splits come
    from the production `_Bisection`, which this does not check. Returns
    the assignment."""
    from qcoremap.fabric import decimal_fraction
    from qcoremap.partition import _Bisection, _bound_pair, assign_weight_vectors

    n = len(g)
    ann = assign_weight_vectors(g, k)
    eps_f = decimal_fraction(eps)
    dim_lo, dim_hi = {}, {}
    for c in range(ann.n_con):
        dim_lo[c], dim_hi[c] = _bound_pair(int(np.sum(ann.node_dim == c)), k, eps_f)
    _, node_hi = _bound_pair(n, k, eps_f)
    assignment = np.full(n, -1, dtype=np.int64)
    rng = np.random.default_rng(0)

    node_dim = ann.node_dim.tolist()

    def bisect(nodes, edges, kappa, offset):
        if kappa == 1 or not nodes:
            assignment[nodes] = offset
            return
        k1 = (kappa + 1) // 2
        k2 = kappa - k1
        bis = _Bisection([node_dim[v] for v in nodes], edges, k1, k2, dim_lo, dim_hi, node_hi)
        m = len(nodes)
        orders = [list(range(m))]
        if m <= 512:
            orders.append(list(reversed(range(m))))
            orders.append(rng.permutation(m).tolist())
        best_side = None
        best_cut = None
        for order in orders:
            side = reference_refine(bis, bis.initial(order))
            cut = sum(w for a, b, w in edges if side[a] != side[b])
            if best_cut is None or cut < best_cut:
                best_cut = cut
                best_side = side
        for half, kh, off in ((1, k1, offset), (0, k2, offset + k1)):
            local = [i for i in range(m) if best_side[i] == half]
            rank = {i: r for r, i in enumerate(local)}
            bisect([nodes[i] for i in local],
                   [(rank[a], rank[b], w) for a, b, w in edges if a in rank and b in rank],
                   kh, off)

    bisect(list(range(n)), g.edges.tolist(), k, 0)
    return assignment



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
# the binder as it was before the cached column table: every k! row
# rebuilt per call and every off-diagonal pair scanned, and greedy swap
# descent scored with numpy-scalar indexing. Both return
# (part_to_core, cost), the pair bind_parts' answer is compared on.

def reference_binding_cost(w, d, perm) -> float:
    total = 0.0
    k = w.shape[0]
    for m in range(k):
        for x in range(k):
            if m != x:
                total += float(w[m, x]) * float(d[perm[m], perm[x]])
    return total


def reference_table_bind(w, d) -> tuple[tuple[int, ...], float]:
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    k = w.shape[0]
    # one int8 row per permutation (320 KiB at k = 8); the pair terms are
    # added in reference_binding_cost's m-major, x-minor order, so every
    # cost is bit-identical to it
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
    return tuple(int(p) for p in perms[best]), float(cost[best])


def reference_greedy_bind(w, d) -> tuple[tuple[int, ...], float]:
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
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
    cost = reference_binding_cost(w, d, perm)
    improved = True
    while improved:
        improved = False
        for a in range(k):
            for b in range(a + 1, k):
                perm[a], perm[b] = perm[b], perm[a]
                cand = reference_binding_cost(w, d, perm)
                if cand < cost:
                    cost = cand
                    improved = True
                else:
                    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm), cost

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
    """The hop and cache-load delays, with beta and gamma read as the
    decimals they print as."""
    beta, gamma = Fraction(str(beta)), Fraction(str(gamma))
    inter = manhattan * (alpha_core + alpha_int) * beta
    intra = (alpha_compute + alpha_cache + gamma * alpha_mem) / 2 * beta
    return float(inter), float(intra)


# ----------------------------------------------------------------------
# budget sweep with every stage instance scheduled at every budget

def reference_sweep_budget(program, profile, params, budgets, cfg=None, eps=0.1):
    """`driver.sweep_budget` without schedule reuse: every stage instance is
    scheduled and verified at every feasible budget and at the unbounded
    one, through the driver's own preparation and scheduling steps."""
    from dataclasses import replace

    from qcoremap import ConfigError, ScheduleConfig, driver

    cfg = cfg or ScheduleConfig()
    feasible, skipped = [], []
    for a in sorted(set(int(a) for a in budgets)):
        try:
            pa = replace(params, ancilla_budget=a)
            pa.validate_against(profile)
        except ConfigError as exc:
            skipped.append((a, str(exc)))
        else:
            feasible.append(pa)
    if not feasible and program.sequence.stages:
        return driver.SweepResult([], skipped)
    pinned = feasible[-1] if feasible else params
    catalog, prepared = driver._prepare_program(program, profile, pinned, cfg, eps)

    def program_latency(budget_per_core):
        return float(sum(
            count * driver._schedule_kernel(prepared[rep], budget_per_core).latency_us
            for _, rep, count in catalog.stage_instances))

    points = [driver.SweepPoint(pa.ancilla_budget, program_latency(pa.budget_per_core), 0.0)
              for pa in feasible]
    unbounded = max(int(km.qodg.ancilla.sum()) for km in prepared.values()) + 1
    sat_latency = program_latency(unbounded)
    sat_value = next((pt.axis_value for pt in points if pt.latency_us == sat_latency), None)
    return driver.SweepResult(points, skipped, sat_value, sat_latency)
