"""Operation dependency graph: construction, ASAP leveling, critical path.

An edge i -> j exists when the two operations share at least one qubit and j
is the first operation after i that uses the shared qubit(s). Per qubit, the
operations touching it therefore form a simple chain in textual order, and
every edge goes forward: operation order is a topological order, so
leveling and the critical path are single forward passes.

The graph is array-backed. Node i is `ops[i]` (the kernel body itself), with
its delay and ancilla count at index i of the node arrays; the ASAP levels
are not stored, `level_graph` derives them for each reader. `edges` is one
int64 table of shape (E, 3), (0, 3) without edges, whose rows are (src, dst,
shared-qubit count) sorted by (src, dst); `render_dot` recomputes the shared
qubits themselves from the ops. `preds` stays a tuple of tuples, ascending
per node, because leveling, the critical path and the scheduler walk it in
Python loops, where tuple indexing is cheaper than numpy scalar access.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .ir import Kernel, QuantumOp

if TYPE_CHECKING:
    from .fabric import QecProfile


@dataclass(frozen=True)
class Qodg:
    kernel_id: str
    ops: tuple[QuantumOp, ...]
    delay_us: np.ndarray        # float64 per node
    ancilla: np.ndarray         # int64 per node
    edges: np.ndarray           # int64 (E, 3): src, dst, shared-qubit count
    preds: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.ops)


def _qubit_links(ops):
    """(i, j, q) for every two consecutive ops i < j on qubit q: the edge
    rule. Per edge, the links' count is its weight and their qubits its
    shared qubits."""
    last_use: dict[int, int] = {}
    for j, op in enumerate(ops):
        for q in op.operands:
            if q in last_use:
                yield last_use[q], j, q
            last_use[q] = j


def build_qodg(kernel: Kernel, profile: "QecProfile") -> Qodg:
    """Build the dependency graph of a kernel, annotated from the QEC profile.

    Raises ConfigError when an operation kind has no profile row.
    """
    costs = [profile.lookup(op.kind) for op in kernel.body]
    rows = sorted(Counter((i, j) for i, j, _ in _qubit_links(kernel.body)).items())
    preds: list[list[int]] = [[] for _ in kernel.body]
    for (i, j), _ in rows:
        preds[j].append(i)
    return Qodg(
        kernel.id,
        kernel.body,
        np.array([c.delay_us for c in costs], dtype=np.float64),
        np.array([c.ancilla for c in costs], dtype=np.int64),
        np.array([(i, j, w) for (i, j), w in rows], dtype=np.int64).reshape(-1, 3),
        tuple(map(tuple, preds)),
    )


def level_graph(g: Qodg) -> np.ndarray:
    """The int64 ASAP level per node: 1 + max over predecessors, 0 for
    sources."""
    level = [0] * len(g)
    for v, ps in enumerate(g.preds):
        if ps:
            if max(ps) >= v:
                raise RuntimeError("backward edge in dependency graph (construction bug)")
            level[v] = 1 + max(level[u] for u in ps)
    return np.array(level, dtype=np.int64)


def critical_path(g: Qodg) -> float:
    """Longest path by node delays: a lower bound on the latency of any
    feasible schedule."""
    delay = g.delay_us.tolist()
    dist = [0.0] * len(g)
    for v, ps in enumerate(g.preds):
        dist[v] = max((dist[u] for u in ps), default=0.0) + delay[v]
    return max(dist, default=0.0)


def render_dot(g: Qodg) -> str:
    """The graph in DOT form (node: kind, level; edge: shared qubits)."""
    name = g.kernel_id.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{name}" {{']
    for i, (op, lv) in enumerate(zip(g.ops, level_graph(g).tolist())):
        lines.append(f'  n{i} [label="{i}:{op.kind}" kind="{op.kind}" level={lv}];')
    shared: dict[tuple[int, int], list[int]] = {}
    for i, j, q in _qubit_links(g.ops):
        shared.setdefault((i, j), []).append(q)
    for (i, j), qs in sorted(shared.items()):
        lines.append(f'  n{i} -> n{j} [qubits="{",".join(map(str, sorted(qs)))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
