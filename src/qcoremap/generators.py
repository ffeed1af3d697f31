"""Synthetic netlist generators for experiments and tests.

Real benchmark netlists (walk/factoring workloads) need an external compiler
toolchain, so the sweep experiments run on generated stand-ins with similar
structure: a few kernels, layered mixes of transversal and non-transversal
operations, and moderate level widths.
"""

from __future__ import annotations

import numpy as np

GATES_1Q = ("H", "S", "T", "Tdg", "X", "Y", "Z")


def random_netlist(n_ops: int, n_qubits: int, seed: int = 0) -> str:
    """Flat random circuit over n_qubits, about 35% CNOTs; wrapped by the
    parser into one implicit kernel."""
    rng = np.random.default_rng(seed)
    lines = [f"qubit q{i}" for i in range(n_qubits)]
    for _ in range(n_ops):
        if n_qubits >= 2 and rng.random() < 0.35:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            lines.append(f"CNOT q{a},q{b}")
        else:
            g = GATES_1Q[rng.integers(len(GATES_1Q))]
            lines.append(f"{g} q{rng.integers(n_qubits)}")
    return "\n".join(lines) + "\n"


def walk_step_netlist(n_qubits: int = 24, layers: int = 12, reps: int = 4, seed: int = 7) -> str:
    """Walk-style workload: an init kernel plus a repeated step kernel.

    Each step layer applies single-qubit mixing (H/T) to every qubit, then a
    brick pattern of CNOTs between neighbors, alternating offset per layer.
    With the defaults the step kernel holds roughly 500 operations.
    """
    rng = np.random.default_rng(seed)
    lines = [f"qubit n{i}" for i in range(n_qubits)]
    lines.append(".kernel init")
    lines.extend(f"H n{i}" for i in range(n_qubits))
    lines.append(".endkernel")
    lines.append(".kernel step")
    for layer in range(layers):
        for i in range(n_qubits):
            lines.append(f"{'T' if rng.random() < 0.4 else 'H'} n{i}")
        off = layer % 2
        for i in range(off, n_qubits - 1, 2):
            lines.append(f"CNOT n{i},n{i + 1}")
    lines.append(".endkernel")
    lines.append(".call init")
    lines.append(f".call step x{reps}")
    return "\n".join(lines) + "\n"


def phase_estimation_netlist(n_stages: int) -> str:
    """One kernel (H and T on q2, then CNOT q0,q1) called with repetitions
    1, 2, 4, ..., 2^(n_stages-1)."""
    lines = [f"qubit q{i}" for i in range(3)]
    lines += [".kernel unit", "H q2", "T q2", "CNOT q0,q1", ".endkernel"]
    lines.extend(f".call unit x{2 ** s}" for s in range(n_stages))
    return "\n".join(lines) + "\n"
