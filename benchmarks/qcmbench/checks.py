"""Output checks that share no code with qcoremap.

The netlist reader, the critical-path lower bound and the schedule checker
here are written from the netlist format and the scheduling rules alone, so
a defect in the package's own parser, ``critical_path`` or
``verify_schedule`` cannot hide a wrong answer.
"""

from __future__ import annotations

import itertools

import numpy as np


def read_netlist(text: str):
    """Return ``(kernels, stages)`` for netlist text.

    ``kernels`` maps a kernel id to its ops as ``(kind, operand names)``;
    ``stages`` lists ``(kernel id, repetitions)`` in program order. A run of
    gates outside any kernel block becomes an implicit kernel ``_top<n>``,
    named as the package's parser names it.
    """
    kernels: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    stages: list[tuple[str, int]] = []
    loose: list[tuple[str, tuple[str, ...]]] = []
    current = None
    implicit_ids = (f"_top{i}" for i in itertools.count())

    def flush():
        if loose:
            kid = next(k for k in implicit_ids if k not in kernels)
            kernels[kid] = list(loose)
            stages.append((kid, 1))
            loose.clear()

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "qubit":
            flush()
        elif head == ".kernel":
            flush()
            current = rest.strip()
            kernels[current] = []
        elif head == ".endkernel":
            current = None
        elif head == ".call":
            flush()
            parts = rest.split()
            stages.append((parts[0], int(parts[1][1:]) if len(parts) > 1 else 1))
        else:
            op = (head, tuple(q.strip() for q in rest.split(",")))
            (kernels[current] if current is not None else loose).append(op)
    flush()
    return kernels, stages


def op_rows(profile) -> dict[str, tuple[int, float]]:
    """``kind -> (ancilla, delay_us)`` from the profile's rows; Tdg costs as T."""
    rows = {kind: (r.ancilla, r.delay_us) for kind, r in profile.rows.items()}
    if "Tdg" not in rows and "T" in rows:
        rows["Tdg"] = rows["T"]
    return rows


def kernel_critical_path(ops, rows) -> float:
    """Longest chain of op delays, where ops on a shared qubit run in order."""
    ready: dict[str, float] = {}
    longest = 0.0
    for kind, qubits in ops:
        end = max(ready.get(q, 0.0) for q in qubits) + rows[kind][1]
        for q in qubits:
            ready[q] = end
        longest = max(longest, end)
    return longest


def program_lower_bound(text: str, rows) -> float:
    """Critical-path lower bound (us) on the latency of a serial program."""
    kernels, stages = read_netlist(text)
    return sum(count * kernel_critical_path(kernels[kid], rows) for kid, count in stages)


def check_schedule(ops, sched, node_core, route_levels, budget: int,
                   cycle: float, rows) -> list[str]:
    """Re-check a mapped kernel schedule; return the violations found.

    ``ops`` are the kernel's ``(kind, operands)`` from :func:`read_netlist`,
    ``sched`` has ``ops`` (node, kind, core, start, dur_levels),
    ``makespan`` and ``latency_us``; ``node_core`` is the core each node is
    bound to and ``route_levels[a, b]`` the transfer lag from core a to b.
    Checked: every node scheduled once at level >= 1 on its bound core for
    at least its delay; every qubit's next op starts after the previous one
    ends plus the routing lag; per core and level the ancilla in use stay
    within ``budget``; makespan and latency agree with the ops.
    """
    n = len(ops)
    found: list[str] = []
    nodes = np.array([o.node for o in sched.ops], dtype=np.int64)
    if len(nodes) != n or not np.array_equal(np.sort(nodes), np.arange(n)):
        return [f"schedule covers nodes {sorted(set(nodes.tolist()))[:8]}..., kernel has {n}"]
    by_node = sorted(sched.ops, key=lambda o: o.node)
    start = np.array([o.start for o in by_node], dtype=np.int64)
    dur = np.array([o.dur_levels for o in by_node], dtype=np.int64)
    core = np.array([o.core for o in by_node], dtype=np.int64)
    anc = np.array([rows[kind][0] for kind, _ in ops], dtype=np.int64)
    delay = np.array([rows[kind][1] for kind, _ in ops], dtype=np.float64)

    for i in np.flatnonzero([o.kind != kind for o, (kind, _) in zip(by_node, ops)])[:3]:
        found.append(f"node {i} is {by_node[i].kind}, netlist says {ops[i][0]}")
    for i in np.flatnonzero(start < 1)[:3]:
        found.append(f"node {i} starts at level {start[i]}")
    for i in np.flatnonzero(dur * cycle < delay * (1 - 1e-12))[:3]:
        found.append(f"node {i} gets {dur[i]} levels of {cycle} us for a {delay[i]} us op")
    for i in np.flatnonzero(core != np.asarray(node_core))[:3]:
        found.append(f"node {i} on core {core[i]}, bound to {node_core[i]}")

    last: dict[str, int] = {}
    pairs = set()
    for j, (_, qubits) in enumerate(ops):
        for q in qubits:
            if q in last:
                pairs.add((last[q], j))
            last[q] = j
    if pairs:
        src, dst = np.array(sorted(pairs), dtype=np.int64).T
        ready = start[src] + dur[src] + np.asarray(route_levels)[core[src], core[dst]]
        for e in np.flatnonzero(start[dst] < ready)[:3]:
            found.append(f"node {dst[e]} starts at {start[dst[e]]}, before {ready[e]} "
                         f"(predecessor {src[e]} plus routing lag)")

    end = start + dur
    if n and start.min() >= 0:
        usage = np.zeros((int(core.max()) + 1, int(end.max()) + 1), dtype=np.int64)
        np.add.at(usage, (core, start), anc)
        np.add.at(usage, (core, end), -anc)
        usage = np.cumsum(usage, axis=1)
        for c, z in np.argwhere(usage > budget)[:3]:
            found.append(f"core {c} level {z} holds {usage[c, z]} ancilla, budget {budget}")
        if sched.makespan != int(end.max()) - 1:
            found.append(f"makespan {sched.makespan}, last op ends at level {int(end.max()) - 1}")
    if abs(sched.latency_us - sched.makespan * cycle) > 1e-9 * max(1.0, sched.latency_us):
        found.append(f"latency {sched.latency_us} us is not makespan {sched.makespan} x {cycle} us")
    return found
