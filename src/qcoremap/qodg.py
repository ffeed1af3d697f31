"""Operation dependency graph: construction, ASAP leveling, critical path.

An edge i -> j exists when the two operations share at least one qubit and j
is the first operation after i that uses the shared qubit(s). Per qubit, the
operations touching it therefore form a simple chain in textual order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .ir import Kernel, QuantumOp

if TYPE_CHECKING:
    from .fabric import QecProfile


@dataclass(frozen=True)
class QodgNode:
    op: QuantumOp
    delay_us: float
    ancilla: int
    level: int = -1


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
    nodes: tuple[QodgNode, ...]
    edges: tuple[QodgEdge, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    level_sizes: dict[int, int]

    def __len__(self):
        return len(self.nodes)

    @property
    def leveled(self) -> bool:
        return all(n.level >= 0 for n in self.nodes) if self.nodes else True

    def ancilla(self) -> np.ndarray:
        return np.array([n.ancilla for n in self.nodes], dtype=np.int64)

    def levels(self) -> np.ndarray:
        return np.array([n.level for n in self.nodes], dtype=np.int64)


def build_qodg(kernel: Kernel, profile: "QecProfile") -> Qodg:
    """Build the dependency graph of a kernel, annotated from the QEC profile.

    Raises ConfigError when an operation kind has no profile row.
    """
    nodes = []
    for op in kernel.body:
        cost = profile.lookup(op.kind)
        nodes.append(QodgNode(op, cost.delay_us, cost.ancilla))

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
    n = len(nodes)
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        preds[e.dst].append(e.src)
        succs[e.src].append(e.dst)
    return Qodg(
        kernel.id,
        tuple(nodes),
        edges,
        tuple(tuple(p) for p in preds),
        tuple(tuple(s) for s in succs),
        {},
    )


def level_graph(g: Qodg) -> Qodg:
    """Assign ASAP levels (level = 1 + max over predecessors, 0 for sources)."""
    n = len(g)
    level = np.zeros(n, dtype=np.int64)
    indeg = np.array([len(p) for p in g.preds])
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in g.succs[u]:
            if level[u] + 1 > level[v]:
                level[v] = level[u] + 1
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if seen != n:
        raise RuntimeError("cycle in dependency graph (construction bug)")
    sizes: dict[int, int] = {}
    for lv in level:
        sizes[int(lv)] = sizes.get(int(lv), 0) + 1
    nodes = tuple(
        QodgNode(nd.op, nd.delay_us, nd.ancilla, int(level[i]))
        for i, nd in enumerate(g.nodes)
    )
    return Qodg(g.kernel_id, nodes, g.edges, g.preds, g.succs, sizes)


def critical_path(g: Qodg, routing: Mapping[tuple[int, int], float] | Sequence[float] | None = None) -> float:
    """Longest-path length: node delays plus optional per-edge routing delays.

    `routing` maps (src, dst) -> delay in microseconds, or gives one delay per
    edge in `g.edges` order. Without routing the result is a lower bound on
    the latency of any feasible schedule.
    """
    n = len(g)
    if n == 0:
        return 0.0
    edge_cost = {}
    if routing is not None:
        if isinstance(routing, Mapping):
            edge_cost = dict(routing)
        else:
            edge_cost = {(e.src, e.dst): float(routing[i]) for i, e in enumerate(g.edges)}
    dist = [0.0] * n
    # node indices are topologically sorted (edges always go seq-forward)
    for v in range(n):
        best = 0.0
        for u in g.preds[v]:
            cand = dist[u] + edge_cost.get((u, v), 0.0)
            if cand > best:
                best = cand
        dist[v] = best + g.nodes[v].delay_us
    return max(dist)


def dump_dot(g: Qodg, path) -> None:
    """Write the graph in DOT form (node: kind, level; edge: shared qubits)."""
    lines = [f'digraph "{g.kernel_id}" {{']
    for i, nd in enumerate(g.nodes):
        lines.append(f'  n{i} [label="{i}:{nd.op.kind}" kind="{nd.op.kind}" level={nd.level}];')
    for e in g.edges:
        qs = ",".join(str(q) for q in sorted(e.shared_qubits))
        lines.append(f'  n{e.src} -> n{e.dst} [qubits="{qs}"];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
