"""Hierarchical netlist parsing and repeated-kernel identification.

The input format is line-oriented text ('#' starts a comment):

    qubit <name>
    .kernel <id> ... .endkernel        (no nesting, gate lines only inside)
    .call <id> x<count>                (a .kernel id; count optional, default 1)
    <GATE> <q>[,<q>]                   GATE in {H, S, T, Tdg, X, Y, Z, CNOT}

Gates appearing outside any kernel block are wrapped into implicit
single-use kernels, one per maximal contiguous run, so that the mapping
pipeline only ever deals with kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NetlistError

GATE_KINDS = ("H", "S", "T", "Tdg", "X", "Y", "Z", "CNOT")
TWO_QUBIT_KINDS = frozenset({"CNOT"})
# the bound on a .call count, the int64 bound scheduling levels use
_COUNT_LIMIT = 2**63 - 1


@dataclass(frozen=True)
class QuantumOp:
    """One fault-tolerant operation over program qubit indices."""

    kind: str
    operands: tuple[int, ...]


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


@dataclass(frozen=True)
class StageSequence:
    """Serially executed stages: (kernel id, repetition count >= 1) in source order."""

    stages: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class KernelProgram:
    """`qubits` holds the declared qubit names; operand index i is qubits[i]."""

    qubits: tuple[str, ...]
    kernels: dict[str, Kernel]
    sequence: StageSequence


@dataclass(frozen=True)
class KernelCatalog:
    """Result of kernel identification.

    `representatives` maps representative kernel id -> Kernel;
    `stage_instances` lists, per stage, (kernel id, representative id,
    repetition).
    """

    representatives: dict[str, Kernel]
    stage_instances: tuple[tuple[str, str, int], ...]


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.qubits: list[str] = []
        self.qubit_by_name: dict[str, int] = {}
        self.kernels: dict[str, Kernel] = {}
        self.stages: list[tuple[str, int, int]] = []  # (id, count, lineno)
        self.open_kernel: str | None = None
        self.open_body: list[QuantumOp] = []
        self.loose_run: list[QuantumOp] = []
        self.implicit_count = 0
        # no implicit kernel takes a declared id, even one declared further on
        self.declared = {w[1] for w in (raw.split("#", 1)[0].split()
                                        for raw in self.lines if ".kernel" in raw)
                         if len(w) == 2 and w[0] == ".kernel"}

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
        # a call (line >= 1) must name a .kernel block; a loose run's stage has line 0
        for kid, _count, lineno in self.stages:
            if lineno and kid not in self.declared:
                self.error(f"call of undefined kernel '{kid}'", lineno)
        sequence = StageSequence(tuple((kid, count) for kid, count, _ in self.stages))
        return KernelProgram(tuple(self.qubits), self.kernels, sequence)

    def _statement(self, line, raw, lineno):
        head = line.split()[0]
        if head == "qubit":
            self._qubit_decl(line, raw, lineno)
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

    def _qubit_decl(self, line, raw, lineno):
        if self.open_kernel is not None:
            self.error("qubit declaration inside kernel block", lineno)
        parts = line.split()
        if len(parts) != 2:
            self.error("expected 'qubit <name>'", lineno)
        name = parts[1]
        # operand lists split on commas, so no gate could name it
        if "," in name:
            col = raw.index(name, raw.index("qubit") + len("qubit"))
            self.error(f"qubit name '{name}' holds a comma", lineno, col + 1)
        if name in self.qubit_by_name:
            self.error(f"duplicate qubit '{name}'", lineno)
        self._flush_loose_run()
        self.qubit_by_name[name] = len(self.qubits)
        self.qubits.append(name)

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
        self.kernels[self.open_kernel] = Kernel(self.open_kernel, tuple(self.open_body))
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
            digits = spec[1:].removeprefix("-")
            if not spec.startswith("x") or not digits.isdecimal():
                self.error(f"bad repetition '{spec}' (expected x<count>)", lineno)
            # 2**63 - 1 has 19 digits; a longer count is refused before int(),
            # which raises on a string of over 4,300 digits
            count = int(spec[1:]) if len(digits.lstrip("0")) <= 19 else None
            if count is None or count > _COUNT_LIMIT:
                self.error("repetition count must be from 1 to 2**63 - 1", lineno)
            if count < 1:
                self.error(f"repetition count must be >= 1, got {count}", lineno)
        self._flush_loose_run()
        self.stages.append((kid, count, lineno))

    def _gate(self, line, raw, lineno):
        head, *rest = line.split(None, 1)
        if head not in GATE_KINDS:
            self.error(f"unknown gate kind '{head}'", lineno, raw.find(head) + 1)
        names = [t.strip() for t in rest[0].split(",")] if rest else []
        # an empty name, or whitespace inside one
        if any(n.split() != [n] for n in names):
            self.error(f"malformed operand list for {head}", lineno)
        operands = []
        # search past the gate name and the earlier operands: a name may occur in them
        col = raw.index(head) + len(head)
        for name in names:
            col = raw.index(name, col)
            if name not in self.qubit_by_name:
                self.error(f"undeclared qubit '{name}'", lineno, col + 1)
            operands.append(self.qubit_by_name[name])
            col += len(name)
        want = 2 if head in TWO_QUBIT_KINDS else 1
        if len(operands) != want:
            self.error(f"{head} takes {want} operand(s), got {len(operands)}", lineno)
        if want == 2 and operands[0] == operands[1]:
            self.error(f"{head} operands must be distinct qubits", lineno)
        body = self.open_body if self.open_kernel is not None else self.loose_run
        body.append(QuantumOp(head, tuple(operands)))

    def _flush_loose_run(self):
        if not self.loose_run:
            return
        while True:
            kid = f"_top{self.implicit_count}"
            self.implicit_count += 1
            if kid not in self.declared:
                break
        self.kernels[kid] = Kernel(kid, tuple(self.loose_run))
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
    rep_by_id = {kid: by_signature.setdefault(canonical_signature(kernel.body), kid)
                 for kid, kernel in program.kernels.items()}
    representatives = {kid: program.kernels[kid] for kid, rep in rep_by_id.items() if kid == rep}
    instances = tuple((kid, rep_by_id[kid], count) for kid, count in program.sequence.stages)
    return KernelCatalog(representatives, instances)
