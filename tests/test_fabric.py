import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import single_kernel
from oracles import exact_delays, exact_geometry

from qcoremap import (
    ConfigError,
    CoreGeometry,
    FabricParams,
    build_qodg,
    compute_dmax,
    compute_geometry,
    delay_matrix,
    grid_layout,
    kway_partition,
    load_qec_profile,
)
from qcoremap.fabric import OpCost, QecProfile


def test_steane_profile_values(steane):
    assert steane.code_length == 7
    assert steane.a_min == 28
    for kind in ("X", "Y", "Z", "H", "S"):
        assert steane.lookup(kind).ancilla == 28
    assert steane.lookup("CNOT").ancilla == 56
    assert steane.lookup("T").ancilla == 100
    assert not steane.lookup("T").transversal
    assert steane.lookup("Tdg").ancilla == 100  # inherits T


def test_bacon_shor_profile_values(bacon_shor):
    assert bacon_shor.code_length == 9
    assert bacon_shor.a_min == 18
    for kind in ("X", "Y", "Z", "H"):
        assert bacon_shor.lookup(kind).ancilla == 18
    assert bacon_shor.lookup("CNOT").ancilla == 36
    assert bacon_shor.lookup("S").ancilla == 58
    assert bacon_shor.lookup("T").ancilla == 309
    assert not bacon_shor.lookup("S").transversal


def test_profile_parser_rejects_bad_lines():
    with pytest.raises(ConfigError):
        load_qec_profile("op H ancilla 28 delay_us 40 transversal 1\n")  # no header
    with pytest.raises(ConfigError):
        load_qec_profile("code x length 7\nop H ancilla 0 delay_us 40 transversal 1\n")
    with pytest.raises(ConfigError):
        load_qec_profile("code x length 7\nwhat H\n")


@pytest.mark.parametrize("line,message", [
    ("code x length seven", "line 1: 'seven' is not an integer"),
    ("op T ancilla x delay_us 400 transversal 0", "line 2: 'x' is not an integer"),
    ("op T ancilla 2.5 delay_us 400 transversal 0", "line 2: '2.5' is not an integer"),
    ("op T ancilla 100 delay_us nan transversal 0", "line 2: ancilla and delay must be"),
    ("op T ancilla 100 delay_us inf transversal 0", "line 2: ancilla and delay must be"),
])
def test_profile_number_fields_fail_with_their_line(line, message):
    rows = ["code x length 7", "op T ancilla 100 delay_us 400 transversal 0",
            "op H ancilla 28 delay_us 40 transversal 1"]
    rows[0 if line.startswith("code") else 1] = line
    with pytest.raises(ConfigError, match=f"^profile {message}"):
        load_qec_profile("\n".join(rows) + "\n")


@pytest.mark.parametrize("line,message", [
    ("op T ancilla 100 delay_us 400 transversal 2", "line 3: transversal must be 0 or 1, got '2'"),
    ("op T ancilla 100 delay_us 400 transversal yes", "line 3: transversal must be 0 or 1"),
    ("op H ancilla 30 delay_us 50 transversal 1", "line 3: second row for operation 'H'"),
    ("code y length 9", "line 3: second 'code' header"),
], ids=["transversal-2", "transversal-yes", "repeated-op", "second-code"])
def test_profile_rejects_a_row_it_would_misread(line, message):
    # before, an unknown flag read as 0 and a later row or header replaced
    # the earlier one
    text = "code x length 7\nop H ancilla 28 delay_us 40 transversal 1\n" + line + "\n"
    with pytest.raises(ConfigError, match=f"^profile {message}"):
        load_qec_profile(text)


@pytest.mark.parametrize("field", ["beta_pmd", "gamma_mem"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_fabric_params_reject_non_finite_constants(field, value):
    with pytest.raises(ConfigError, match="must be finite"):
        FabricParams(2, 400, **{field: value})


def test_profile_without_nontransversal_warns():
    text = "code x length 7\nop H ancilla 28 delay_us 40 transversal 1\n"
    with pytest.warns(UserWarning):
        load_qec_profile(text)


@pytest.mark.parametrize("field, value, message", [
    ("delay_us", -40.0, "delay must be finite and >= 0, got -40.0 us"),
    ("delay_us", math.nan, "delay must be finite and >= 0, got nan us"),
    ("delay_us", math.inf, "delay must be finite and >= 0, got inf us"),
    ("ancilla", 0, "ancilla must be >= 1, got 0"),
], ids=["negative-delay", "nan-delay", "inf-delay", "zero-ancilla"])
def test_hand_built_op_cost_is_checked(steane, field, value, message):
    # unchecked, each row failed deep inside map_program: an IndexError in
    # the scheduler, a Fraction of NaN, a division by zero in the geometry
    with pytest.raises(ConfigError, match=f"^operation {message}$"):
        replace(steane.rows["H"], **{field: value})


def test_hand_built_profile_without_rows_is_rejected():
    # unchecked, a_min raised ValueError from min() of nothing
    with pytest.raises(ConfigError, match="^QEC profile 'empty' has no operation rows$"):
        QecProfile("empty", 7, {})


@pytest.mark.parametrize("length", [0, -7])
def test_hand_built_profile_code_length_below_one_is_rejected(steane, length):
    with pytest.raises(ConfigError, match=f"^code length must be >= 1, got {length}$"):
        QecProfile("short", length, steane.rows)


@pytest.mark.parametrize("text, message", [
    ("code x\n", "profile line 1: expected 'code <name> length <L>'"),
    ("code x size 7\n", "profile line 1: expected 'code <name> length <L>'"),
    ("code x length 0\n", "profile line 1: code length must be positive"),
    ("code x length 7\nop H ancilla 28 delay_us 40\n", "profile line 2: expected 'op <KIND> ancilla"),
    # the loader leaves this check to QecProfile
    ("code x length 7\n", "QEC profile 'x' has no operation rows$"),
], ids=["no-length", "misnamed-length", "length-0", "op-field-count", "no-op-rows"])
def test_profile_header_and_row_shape_errors(text, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        load_qec_profile(text)


@pytest.mark.parametrize("kwargs, message", [
    (dict(core_count=0), "core count must be >= 1"),
    (dict(beta_pmd=0.0), "beta_pmd and alpha_int must be positive"),
    (dict(beta_pmd=-10.0), "beta_pmd and alpha_int must be positive"),
    (dict(alpha_int=0), "beta_pmd and alpha_int must be positive"),
    (dict(gamma_mem=-0.2), "gamma_mem nonnegative"),
], ids=["k-0", "beta-0", "beta-negative", "alpha-int-0", "gamma-negative"])
def test_fabric_params_reject_out_of_range_constants(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        FabricParams(**{"core_count": 2, "ancilla_budget": 800, **kwargs})


def test_grid_layout_needs_a_core():
    with pytest.raises(ConfigError, match="^core count must be >= 1$"):
        grid_layout(0)


def test_missing_kind_surfaces_at_graph_build(steane):
    prof = QecProfile("nocnot", 7, {k: v for k, v in steane.rows.items() if k != "CNOT"})
    _, kern = single_kernel("qubit a\nqubit b\nCNOT a,b\n")
    with pytest.raises(ConfigError):
        build_qodg(kern, prof)


# ----------------------------------------------------------------------
# geometry

# frozen from the exact-arithmetic oracle: Steane, A=800, k=4, D_max=50
HEADLINE = dict(a_total=800, k=4, a_min=28, l_code=7, d_max=50)
HEADLINE_ALPHAS = (15, 24, 4, 1)
HEADLINE_DELAYS = dict(adjacent=270.0, diagonal=540.0, intra=96.0)


def test_exact_oracle_reproduces_frozen_values():
    assert exact_geometry(**HEADLINE) == HEADLINE_ALPHAS
    inter1, intra = exact_delays(*HEADLINE_ALPHAS, alpha_int=3, beta=10.0,
                                 gamma=0.2, manhattan=1)
    inter2, _ = exact_delays(*HEADLINE_ALPHAS, alpha_int=3, beta=10.0,
                             gamma=0.2, manhattan=2)
    assert inter1 == HEADLINE_DELAYS["adjacent"]
    assert inter2 == HEADLINE_DELAYS["diagonal"]
    assert intra == HEADLINE_DELAYS["intra"]


def test_headline_geometry(steane):
    params = FabricParams(4, 800)
    geo = compute_geometry(steane, params, 50)
    assert (geo.alpha_compute, geo.alpha_core, geo.alpha_cache, geo.alpha_mem) == HEADLINE_ALPHAS
    d = delay_matrix(geo, params, grid_layout(4))
    assert d[0, 1] == 270.0   # adjacent in the 2x2 grid
    assert d[0, 3] == 540.0   # diagonal
    assert d[0, 0] == 96.0    # intra-core cache load
    assert np.allclose(d, d.T)


def test_geometry_degenerate_dmax_zero(steane):
    params = FabricParams(4, 800)
    geo = compute_geometry(steane, params, 0)
    # alpha_core reduces to ceil(sqrt(A/k))
    assert geo.alpha_core == 15  # ceil(sqrt(200)) = 15


def test_geometry_boundary_budget(steane):
    # A/k = 2*d_max keeps the radicand positive
    params = FabricParams(1, 100)
    geo = compute_geometry(steane, params, 50)
    assert geo.alpha_compute >= 1


def test_geometry_negative_radicand_raises():
    prof = QecProfile("tiny", 2, {"H": OpCost(100, 1.0, True)})
    params = FabricParams(1, 10)
    with pytest.raises(ConfigError):
        compute_geometry(prof, params, 1000)


def test_geometry_monotone_in_budget(steane):
    prev = 0
    for a in range(200, 4000, 37):
        geo = compute_geometry(steane, FabricParams(4, a), 20)
        assert geo.alpha_compute >= prev
        prev = geo.alpha_compute


def test_compute_dmax(uniform_profile):
    _, kern = single_kernel(
        "qubit a\nqubit b\nqubit c\nqubit d\n"
        "H a\nCNOT a,b\nH c\nCNOT a,c\nH d\nCNOT a,d\n"
    )
    g = build_qodg(kern, uniform_profile)
    part = kway_partition(g, 2)
    dmax = compute_dmax(g, part)
    parts = part.parts()
    expect = max(
        len({q for i in side for q in g.ops[i].operands}) for side in parts if side
    )
    assert dmax == expect
    assert compute_dmax(g, kway_partition(g, 1)) == 4  # k=1: every qubit


def test_budget_validation(steane):
    with pytest.raises(ConfigError):
        FabricParams(4, 80).validate_against(steane)  # 20 per core < 100 (T)
    FabricParams(4, 800).validate_against(steane)


# ----------------------------------------------------------------------
# grid + delays

def test_grid_layouts():
    assert grid_layout(4).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert grid_layout(2).tolist() == [[0, 0], [0, 1]]
    assert grid_layout(5).tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1]]
    assert grid_layout(1).tolist() == [[0, 0]]


@pytest.mark.parametrize("layout", [grid_layout(k) for k in range(1, 17)]
                         + [np.array([[0, 0], [2, 5], [3, 1], [0, 4], [7, 7], [2, 0]])])
def test_delays_equal_the_exact_products(layout):
    # each entry is one rounding of an exact product; with a 29-cell hop
    # at beta 0.7, s times the rounded one-hop delay is off for s = 3, 5, 6
    geo = CoreGeometry(7, 13, 26, 5, 3)
    params = FabricParams(len(layout), 1000, beta_pmd=0.7, alpha_int=3, gamma_mem=0.3)
    d = delay_matrix(geo, params, layout)
    assert d.shape == (len(layout), len(layout))
    for x, (ax, ay) in enumerate(layout.tolist()):
        for y, (bx, by) in enumerate(layout.tolist()):
            inter, intra = exact_delays(13, 26, 5, 3, alpha_int=3, beta=0.7, gamma=0.3,
                                        manhattan=abs(ax - bx) + abs(ay - by))
            assert d[x, y] == (intra if x == y else inter)


def test_delays_read_beta_and_gamma_as_decimals():
    # a hop of 21 + 3 cells at beta 0.1 is 2.4 us, not the 2.4000000000000004
    # of the binary 0.1, and the cache load (12 + 2 + 0.7 * 3) / 2 * 0.1 is
    # 0.805 us, not the 0.8049999999999999 of the binary 0.7
    geo = CoreGeometry(2, 12, 21, 2, 3)
    d = delay_matrix(geo, FabricParams(2, 800, beta_pmd=0.1, gamma_mem=0.7), grid_layout(2))
    assert d.tolist() == [[0.805, 2.4], [2.4, 0.805]]


def test_inter_core_delay_linear_in_distance(steane):
    params = FabricParams(9, 8100)
    geo = compute_geometry(steane, params, 10)
    layout = grid_layout(9)
    d = delay_matrix(geo, params, layout)
    unit = d[0, 1]
    for a in range(9):
        for b in range(9):
            if a != b:
                steps = abs(int(layout[a, 0] - layout[b, 0])) + \
                    abs(int(layout[a, 1] - layout[b, 1]))
                assert d[a, b] == steps * unit
