"""Operation dependency graph: construction, ASAP leveling, critical path.

An edge i -> j exists when the two operations share at least one qubit and j
is the first operation after i that uses the shared qubit(s). Per qubit, the
operations touching it therefore form a simple chain in textual order, and
every edge goes forward: operation order is a topological order, so
leveling and the critical path are single forward passes.

Nodes are array-backed: node i is `ops[i]` (the kernel body itself), with
its delay, ancilla count and level at index i of the node arrays. Edges stay
`QodgEdge` tuples because `render_dot` prints each edge's shared qubits, and
`preds`/`succs` stay tuples of tuples because leveling, the critical path
and the scheduler walk them in Python loops, where tuple indexing is
cheaper than numpy scalar access.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .ir import Kernel, QuantumOp

if TYPE_CHECKING:
    from .fabric import QecProfile


@dataclass(frozen=True)
class QodgEdge:
    src: int
    dst: int
    shared_qubits: frozenset[int]

    @property
    def weight(self) -> int:
        return len(self.shared_qubits)


@dataclass(frozen=True)
class Qodg:
    kernel_id: str
    ops: tuple[QuantumOp, ...]
    delay_us: np.ndarray        # float64 per node
    ancilla: np.ndarray         # int64 per node
    edges: tuple[QodgEdge, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    level: np.ndarray           # int64 per node, ASAP level; -1 until leveled

    def __len__(self):
        return len(self.ops)


def build_qodg(kernel: Kernel, profile: "QecProfile") -> Qodg:
    """Build the dependency graph of a kernel, annotated from the QEC profile.

    Raises ConfigError when an operation kind has no profile row.
    """
    costs = [profile.lookup(op.kind) for op in kernel.body]
    shared: dict[tuple[int, int], set[int]] = {}
    last_use: dict[int, int] = {}
    for j, op in enumerate(kernel.body):
        for q in op.operands:
            if q in last_use:
                shared.setdefault((last_use[q], j), set()).add(q)
            last_use[q] = j

    edges = tuple(
        QodgEdge(src, dst, frozenset(qs)) for (src, dst), qs in sorted(shared.items())
    )
    n = len(kernel.body)
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        preds[e.dst].append(e.src)
        succs[e.src].append(e.dst)
    return Qodg(
        kernel.id,
        kernel.body,
        np.array([c.delay_us for c in costs], dtype=np.float64),
        np.array([c.ancilla for c in costs], dtype=np.int64),
        edges,
        tuple(tuple(p) for p in preds),
        tuple(tuple(s) for s in succs),
        np.full(n, -1, dtype=np.int64),
    )


def level_graph(g: Qodg) -> Qodg:
    """Assign ASAP levels (level = 1 + max over predecessors, 0 for sources)."""
    level = [0] * len(g)
    for v, ps in enumerate(g.preds):
        if ps:
            if max(ps) >= v:
                raise RuntimeError("backward edge in dependency graph (construction bug)")
            level[v] = 1 + max(level[u] for u in ps)
    return replace(g, level=np.array(level, dtype=np.int64))


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
    lines = [f'digraph "{g.kernel_id}" {{']
    for i, (op, lv) in enumerate(zip(g.ops, g.level.tolist())):
        lines.append(f'  n{i} [label="{i}:{op.kind}" kind="{op.kind}" level={lv}];')
    for e in g.edges:
        qs = ",".join(str(q) for q in sorted(e.shared_qubits))
        lines.append(f'  n{e.src} -> n{e.dst} [qubits="{qs}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
