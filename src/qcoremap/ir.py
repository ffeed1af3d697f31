"""Hierarchical netlist parsing and repeated-kernel identification.

The input format is line-oriented text ('#' starts a comment):

    qubit <name>
    .kernel <id> ... .endkernel        (no nesting, gate lines only inside)
    .call <id> x<count>                (count optional, default 1)
    <GATE> <q>[,<q>]                   GATE in {H, S, T, Tdg, X, Y, Z, CNOT}

Gates appearing outside any kernel block are wrapped into implicit
single-use kernels, one per maximal contiguous run, so that the mapping
pipeline only ever deals with kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NetlistError

GATE_KINDS = ("H", "S", "T", "Tdg", "X", "Y", "Z", "CNOT")
TWO_QUBIT_KINDS = frozenset({"CNOT"})


@dataclass(frozen=True)
class LogicalQubit:
    """Algorithm-level qubit; `index` is dense and program-wide."""

    name: str
    index: int


@dataclass(frozen=True)
class QuantumOp:
    """One fault-tolerant operation over program qubit indices."""

    kind: str
    operands: tuple[int, ...]
    seq: int


def canonical_signature(body: tuple[QuantumOp, ...]) -> tuple:
    """Body fingerprint invariant under qubit renaming consistent with first use.

    Qubits are relabeled 0,1,2,... in order of first appearance, so two
    kernels that perform the same operations on differently named qubits
    collapse to the same signature.
    """
    rename: dict[int, int] = {}
    sig = []
    for op in body:
        ops = []
        for q in op.operands:
            if q not in rename:
                rename[q] = len(rename)
            ops.append(rename[q])
        sig.append((op.kind, tuple(ops)))
    return tuple(sig)


@dataclass(frozen=True)
class Kernel:
    id: str
    body: tuple[QuantumOp, ...]
    touched_qubits: frozenset[int]

    @staticmethod
    def from_body(kernel_id: str, body: tuple[QuantumOp, ...]) -> "Kernel":
        touched = frozenset(q for op in body for q in op.operands)
        return Kernel(kernel_id, body, touched)


@dataclass(frozen=True)
class StageSequence:
    """Serially executed stages: (kernel id, repetition count >= 1) in source order."""

    stages: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class KernelProgram:
    qubits: tuple[LogicalQubit, ...]
    kernels: dict[str, Kernel]
    sequence: StageSequence


@dataclass(frozen=True)
class KernelCatalog:
    """Result of kernel identification.

    `representatives` maps representative kernel id -> Kernel; `rep_of` maps
    every kernel id to its representative; `stage_instances` lists, per
    stage, (kernel id, representative id, repetition).
    """

    representatives: dict[str, Kernel]
    rep_of: dict[str, str]
    stage_instances: tuple[tuple[str, str, int], ...]


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.qubits: list[LogicalQubit] = []
        self.qubit_by_name: dict[str, int] = {}
        self.kernels: dict[str, Kernel] = {}
        self.stages: list[tuple[str, int, int]] = []  # (id, count, lineno)
        self.open_kernel: str | None = None
        self.open_body: list[QuantumOp] = []
        self.loose_run: list[QuantumOp] = []
        self.implicit_count = 0

    def error(self, msg, lineno, col=None):
        raise NetlistError(msg, line=lineno, col=col)

    def parse(self) -> KernelProgram:
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            self._statement(line, raw, lineno)
        if self.open_kernel is not None:
            self.error(f"kernel '{self.open_kernel}' not closed (.endkernel missing)", len(self.lines))
        self._flush_loose_run()
        for kid, _count, lineno in self.stages:
            if kid not in self.kernels:
                self.error(f"call of undefined kernel '{kid}'", lineno)
        sequence = StageSequence(tuple((kid, count) for kid, count, _ in self.stages))
        return KernelProgram(tuple(self.qubits), self.kernels, sequence)

    def _statement(self, line, raw, lineno):
        head = line.split()[0]
        if head == "qubit":
            self._qubit_decl(line, lineno)
        elif head == ".kernel":
            self._kernel_open(line, lineno)
        elif head == ".endkernel":
            self._kernel_close(line, lineno)
        elif head == ".call":
            self._call(line, lineno)
        elif head.startswith("."):
            self.error(f"unknown directive '{head}'", lineno, raw.index(head) + 1)
        else:
            self._gate(line, raw, lineno)

    def _qubit_decl(self, line, lineno):
        if self.open_kernel is not None:
            self.error("qubit declaration inside kernel block", lineno)
        parts = line.split()
        if len(parts) != 2:
            self.error("expected 'qubit <name>'", lineno)
        name = parts[1]
        if name in self.qubit_by_name:
            self.error(f"duplicate qubit '{name}'", lineno)
        self._flush_loose_run()
        index = len(self.qubits)
        self.qubit_by_name[name] = index
        self.qubits.append(LogicalQubit(name, index))

    def _kernel_open(self, line, lineno):
        if self.open_kernel is not None:
            self.error("nested kernel blocks are not allowed", lineno)
        parts = line.split()
        if len(parts) != 2:
            self.error("expected '.kernel <id>'", lineno)
        kid = parts[1]
        if kid in self.kernels:
            self.error(f"duplicate kernel id '{kid}'", lineno)
        self._flush_loose_run()
        self.open_kernel = kid
        self.open_body = []

    def _kernel_close(self, line, lineno):
        if self.open_kernel is None:
            self.error(".endkernel without matching .kernel", lineno)
        if line.split() != [".endkernel"]:
            self.error("unexpected text after .endkernel", lineno)
        if not self.open_body:
            self.error(f"kernel '{self.open_kernel}' has an empty body", lineno)
        self.kernels[self.open_kernel] = Kernel.from_body(self.open_kernel, tuple(self.open_body))
        self.open_kernel = None
        self.open_body = []

    def _call(self, line, lineno):
        if self.open_kernel is not None:
            self.error(".call inside kernel block", lineno)
        parts = line.split()
        if len(parts) not in (2, 3):
            self.error("expected '.call <id> [x<count>]'", lineno)
        kid = parts[1]
        count = 1
        if len(parts) == 3:
            spec = parts[2]
            if not spec.startswith("x") or not spec[1:].lstrip("-").isdigit():
                self.error(f"bad repetition '{spec}' (expected x<count>)", lineno)
            count = int(spec[1:])
            if count < 1:
                self.error(f"repetition count must be >= 1, got {count}", lineno)
        self._flush_loose_run()
        self.stages.append((kid, count, lineno))

    def _gate(self, line, raw, lineno):
        head, _, rest = line.partition(" ")
        if head not in GATE_KINDS:
            self.error(f"unknown gate kind '{head}'", lineno, raw.find(head) + 1)
        names = [t.strip() for t in rest.split(",")] if rest.strip() else []
        if any(not n or " " in n for n in names):
            self.error(f"malformed operand list for {head}", lineno)
        operands = []
        for name in names:
            if name not in self.qubit_by_name:
                self.error(f"undeclared qubit '{name}'", lineno, raw.find(name) + 1)
            operands.append(self.qubit_by_name[name])
        want = 2 if head in TWO_QUBIT_KINDS else 1
        if len(operands) != want:
            self.error(f"{head} takes {want} operand(s), got {len(operands)}", lineno)
        if want == 2 and operands[0] == operands[1]:
            self.error(f"{head} operands must be distinct qubits", lineno)
        if self.open_kernel is not None:
            op = QuantumOp(head, tuple(operands), len(self.open_body))
            self.open_body.append(op)
        else:
            op = QuantumOp(head, tuple(operands), len(self.loose_run))
            self.loose_run.append(op)

    def _flush_loose_run(self):
        if not self.loose_run:
            return
        while True:
            kid = f"_top{self.implicit_count}"
            self.implicit_count += 1
            if kid not in self.kernels:
                break
        self.kernels[kid] = Kernel.from_body(kid, tuple(self.loose_run))
        self.stages.append((kid, 1, 0))
        self.loose_run = []


def parse_program(text: str) -> KernelProgram:
    """Parse netlist source text into a KernelProgram.

    Raises NetlistError with line (and column where available) on malformed
    input.
    """
    return _Parser(text).parse()


def identify_kernels(program: KernelProgram) -> KernelCatalog:
    """Merge structurally identical kernels to one representative each.

    Kernels whose bodies are identical up to consistent qubit renaming (same
    canonical signature) share a representative: the first such kernel in
    definition order. Every stage then references a representative, so each
    distinct kernel is mapped exactly once downstream.
    """
    by_signature: dict[tuple, str] = {}
    representatives: dict[str, Kernel] = {}
    rep_of: dict[str, str] = {}
    for kid, kernel in program.kernels.items():
        rep = by_signature.setdefault(canonical_signature(kernel.body), kid)
        rep_of[kid] = rep
        if rep == kid:
            representatives[kid] = kernel
    instances = tuple(
        (kid, rep_of[kid], count) for kid, count in program.sequence.stages
    )
    return KernelCatalog(representatives, rep_of, instances)


def flat_expansion(program: KernelProgram) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Yield (kind, operand indices) for the fully unrolled program."""
    for kid, count in program.sequence.stages:
        body = program.kernels[kid].body
        for _ in range(count):
            for op in body:
                yield op.kind, op.operands


def flat_op_count(program: KernelProgram) -> int:
    return sum(count * len(program.kernels[kid].body) for kid, count in program.sequence.stages)


def serialize_program(program: KernelProgram) -> str:
    """Render a program back to netlist text; reparsing gives an equal program."""
    out = [f"qubit {q.name}" for q in program.qubits]
    for kid, kernel in program.kernels.items():
        out.append(f".kernel {kid}")
        for op in kernel.body:
            names = ",".join(program.qubits[i].name for i in op.operands)
            out.append(f"{op.kind} {names}")
        out.append(".endkernel")
    for kid, count in program.sequence.stages:
        out.append(f".call {kid} x{count}")
    return "\n".join(out) + "\n"
