"""Multi-core fabric model: QEC cost profiles, core geometry, routing delays.

A fabric is k identical cores on a 2-D mesh. Each core has a central
compute region where ancilla are apportioned to running operations, ringed
by a cache and a memory band. Side lengths (in cells) derive from the
per-core ancilla budget and the data-qubit population; qubit transfers
between cores cost a delay proportional to Manhattan distance.

Geometry and delays use exact integer arithmetic, so the ceil/sqrt formulas
never suffer float rounding at integer boundaries: each rational value is a
(numerator, denominator) pair of ints, a float input is read as the decimal
it prints as (`decimal_ratio`), and a delay becomes a float by one int true
division, which rounds the exact value once, to nearest.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .partition import Partition
    from .qodg import Qodg


@dataclass(frozen=True)
class OpCost:
    ancilla: int
    delay_us: float
    transversal: bool

    def __post_init__(self):
        # a delay of 0 is legal here: such an op takes no level and holds no
        # ancilla; profile files ask for a positive delay
        if self.ancilla < 1:
            raise ConfigError(f"operation ancilla must be >= 1, got {self.ancilla}")
        if not math.isfinite(self.delay_us) or self.delay_us < 0:
            raise ConfigError(f"operation delay must be finite and >= 0, got {self.delay_us} us")


@dataclass(frozen=True)
class QecProfile:
    """Per-operation ancilla and delay data for one QEC code."""

    code_name: str
    code_length: int
    rows: Mapping[str, OpCost]

    def __post_init__(self):
        if self.code_length < 1:
            raise ConfigError(f"code length must be >= 1, got {self.code_length}")
        if not self.rows:
            raise ConfigError(f"QEC profile '{self.code_name}' has no operation rows")

    @property
    def a_min(self) -> int:
        return min(r.ancilla for r in self.rows.values())

    @property
    def max_ancilla(self) -> int:
        return max(r.ancilla for r in self.rows.values())

    def lookup(self, kind: str) -> OpCost:
        # Tdg inherits T's row when absent: the costs of T and its adjoint
        # are identical under the codes modeled here.
        if kind not in self.rows:
            if kind == "Tdg" and "T" in self.rows:
                return self.rows["T"]
            raise ConfigError(f"operation kind '{kind}' missing from QEC profile '{self.code_name}'")
        return self.rows[kind]


def _number(parse, text: str, lineno: int):
    try:
        return parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ConfigError(f"profile line {lineno}: '{text}' is not {kind}") from None


def load_qec_profile(text: str) -> QecProfile:
    """Parse a profile from its text.

    Format (line-oriented, '#' comments):
        code <name> length <L>                  (exactly once)
        op <KIND> ancilla <int> delay_us <decimal> transversal <0|1>
                                                (at most once per KIND)

    KIND is a netlist gate: H, S, T, Tdg, X, Y, Z or CNOT. A profile may
    leave out Tdg; it is then costed as T, since a gate and its adjoint
    cost the same under the codes modeled here (`QecProfile.lookup`).

    A malformed line or field, an unknown KIND, a value that is not
    positive and finite, a transversal flag other than 0 or 1, a second
    header or a repeated KIND raises ConfigError with the line number.
    """
    from .ir import GATE_KINDS

    name = None
    length = None
    rows: dict[str, OpCost] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "code":
            if name is not None:
                raise ConfigError(f"profile line {lineno}: second 'code' header")
            if len(parts) != 4 or parts[2] != "length":
                raise ConfigError(f"profile line {lineno}: expected 'code <name> length <L>'")
            name = parts[1]
            length = _number(int, parts[3], lineno)
            if length <= 0:
                raise ConfigError(f"profile line {lineno}: code length must be positive")
        elif parts[0] == "op":
            if len(parts) != 8 or parts[2] != "ancilla" or parts[4] != "delay_us" or parts[6] != "transversal":
                raise ConfigError(
                    f"profile line {lineno}: expected 'op <KIND> ancilla <int> delay_us <dec> transversal <0|1>'"
                )
            kind = parts[1]
            if kind not in GATE_KINDS:
                raise ConfigError(f"profile line {lineno}: unknown operation '{kind}', "
                                  f"expected one of {', '.join(GATE_KINDS)}")
            if kind in rows:
                raise ConfigError(f"profile line {lineno}: second row for operation '{kind}'")
            ancilla = _number(int, parts[3], lineno)
            delay = _number(float, parts[5], lineno)
            if ancilla <= 0 or not math.isfinite(delay) or delay <= 0:
                raise ConfigError(
                    f"profile line {lineno}: ancilla and delay must be positive and finite")
            if parts[7] not in ("0", "1"):
                raise ConfigError(f"profile line {lineno}: transversal must be 0 or 1, "
                                  f"got '{parts[7]}'")
            rows[kind] = OpCost(ancilla, delay, parts[7] == "1")
        else:
            raise ConfigError(f"profile line {lineno}: unknown entry '{parts[0]}'")
    if name is None or length is None:
        raise ConfigError("profile missing 'code <name> length <L>' header")
    profile = QecProfile(name, length, rows)
    if all(r.transversal for r in rows.values()):
        # A universal fault-tolerant set needs a non-transversal member;
        # tolerated here since partial profiles are useful for testing.
        import warnings

        warnings.warn(f"QEC profile '{name}' has no non-transversal operation", stacklevel=2)
    return profile


def bundled_profile(name: str) -> QecProfile:
    """Load a profile shipped with the package ('steane' or 'bacon_shor')."""
    ref = resources.files(__package__).joinpath(f"profiles/{name}.qec")
    return load_qec_profile(ref.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class FabricParams:
    """Processor-level knobs: core count, ancilla budget, routing constants."""

    core_count: int
    ancilla_budget: int
    beta_pmd: float = 10.0  # qubit unit-distance delay, us per cell
    alpha_int: int = 3      # interconnect width, cells
    gamma_mem: float = 0.2  # memory-size contribution to intra-core routing

    def __post_init__(self):
        if self.core_count < 1:
            raise ConfigError("core count must be >= 1")
        if self.ancilla_budget < 1:
            raise ConfigError("ancilla budget must be >= 1")
        if not (math.isfinite(self.beta_pmd) and math.isfinite(self.gamma_mem)):
            raise ConfigError("beta_pmd and gamma_mem must be finite")
        if self.beta_pmd <= 0 or self.alpha_int <= 0 or self.gamma_mem < 0:
            raise ConfigError("beta_pmd and alpha_int must be positive, gamma_mem nonnegative")

    @property
    def budget_per_core(self) -> int:
        return self.ancilla_budget // self.core_count

    def validate_against(self, profile: QecProfile) -> None:
        if self.budget_per_core < profile.max_ancilla:
            raise ConfigError(
                f"per-core ancilla budget {self.budget_per_core} cannot host the most "
                f"expensive operation ({profile.max_ancilla} ancilla); no schedule exists"
            )


@dataclass(frozen=True)
class CoreGeometry:
    """Side lengths (cells) of one core's regions, derived from the budget."""

    d_max: int
    alpha_compute: int  # central reconfigurable compute region
    alpha_core: int
    alpha_cache: int
    alpha_mem: int


def _ceil_sqrt(num: int, den: int) -> int:
    """Smallest integer n >= 0 with n*n >= num / den (den > 0). As n*n is an
    integer, that is the smallest n with n*n >= ceil(num / den)."""
    c = -(-num // den)
    return math.isqrt(c - 1) + 1 if c > 0 else 0


def compute_dmax(g: "Qodg", partition: "Partition") -> int:
    """Largest count of distinct logical qubits touched by any one part."""
    touched: list[set[int]] = [set() for _ in range(partition.k)]
    for op, p in zip(g.ops, partition.assignment.tolist()):
        touched[p].update(op.operands)
    return max((len(t) for t in touched), default=0)


def compute_geometry(profile: QecProfile, params: FabricParams, d_max: int) -> CoreGeometry:
    """Derive core side lengths from the per-core ancilla budget
    (params.ancilla_budget / params.core_count, exact) and d_max. A budget
    sweep pins the geometry by passing the params of its pinned budget."""
    budget, k = params.ancilla_budget, params.core_count
    l_code, a_min = profile.code_length, profile.a_min
    # a / a_min * l_code + (a - d_max / 2) with a = budget / k, over 2 k a_min
    radicand = 2 * budget * (l_code + a_min) - d_max * k * a_min
    if radicand < 0:
        raise ConfigError(
            "ancilla budget too small for data-qubit population "
            f"(per-core budget {budget / k:g}, d_max {d_max})"
        )
    alpha_compute = _ceil_sqrt(radicand, 2 * k * a_min)
    alpha_core = _ceil_sqrt(d_max * l_code * k + budget, k)
    # cache ring target: cache area ~ twice the compute-region area, capped
    # so compute + cache never exceed the core envelope
    s = _ceil_sqrt(3 * alpha_compute * alpha_compute, 1)
    cand_ratio = (s - alpha_compute + 1) // 2  # ceil((sqrt(3)-1)/2 * alpha_compute), exact
    cand_fit = (alpha_core - alpha_compute) // 2  # floor of half the spare width
    alpha_cache = max(min(cand_ratio, cand_fit), 0)
    # ceil(alpha_core / 2 - alpha_compute / 2 - alpha_cache)
    alpha_mem = max(-((alpha_compute + 2 * alpha_cache - alpha_core) // 2), 0)
    return CoreGeometry(d_max, alpha_compute, alpha_core, alpha_cache, alpha_mem)


def grid_layout(k: int) -> np.ndarray:
    """Core coordinates on a near-square mesh: rows = floor(sqrt(k))."""
    if k < 1:
        raise ConfigError("core count must be >= 1")
    rows = math.isqrt(k)
    cols = -(-k // rows)
    return np.array([(i // cols, i % cols) for i in range(k)], dtype=np.int64)


_FLOAT_MAX = int(sys.float_info.max)


def decimal_ratio(x: float) -> tuple[int, int]:
    """The decimal a float prints as, exactly, as (numerator, denominator)
    in lowest terms with den > 0: 0.3 is (3, 10), not the nearest binary
    fraction (which is slightly below it)."""
    return Decimal(repr(float(x))).as_integer_ratio()


def delay_matrix(geom: CoreGeometry, params: FabricParams, layout: np.ndarray) -> np.ndarray:
    """k x k qubit-transfer delays (us); the diagonal is the intra-core
    cache load, the rest Manhattan distance times the unit hop delay.
    beta_pmd and gamma_mem are read as the decimals they print as."""
    k = layout.shape[0]
    b_num, b_den = decimal_ratio(params.beta_pmd)
    g_num, g_den = decimal_ratio(params.gamma_mem)
    # one hop is inter / b_den; the cache load is intra / (2 g_den b_den)
    inter = (geom.alpha_core + params.alpha_int) * b_num
    intra_den = 2 * g_den * b_den
    intra = ((geom.alpha_compute + geom.alpha_cache) * g_den + g_num * geom.alpha_mem) * b_num
    hops = int(np.ptp(layout[:, 0]) + np.ptp(layout[:, 1]))
    if intra > _FLOAT_MAX * intra_den or hops * inter > _FLOAT_MAX * b_den:
        raise ConfigError("routing delays exceed the largest float; "
                          "beta_pmd, alpha_int or gamma_mem is too large")
    # one exact value per hop count, indexed by each pair's Manhattan distance
    per_hop = np.array([s * inter / b_den for s in range(hops + 1)])
    d = per_hop[np.abs(layout[:, None, :] - layout[None, :, :]).sum(axis=2)]
    np.fill_diagonal(d, intra / intra_den)
    return d
