"""Green's-function integrals: oracles, identities, monotonicity, engines."""

import math
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

import belowband as bb
from belowband.green import closed_form_green1, with_method
from belowband.quadrature import (
    QuadratureError,
    finite_at_threshold,
    laplace_integrals,
    required_grid_points,
    trapezoid_integrals,
    trapezoid_threshold,
)

TRAP = bb.QuadratureConfig(method="tensor-trapezoid")
BOTH = bb.QuadratureConfig(method="both")


def watson_a0() -> float:
    """a(0) for n = 3: one third of Watson's simple-cubic integral,
    in closed form sqrt(6)/(96 pi^3) * Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)."""
    with mp.workdps(30):
        w = mp.sqrt(6) / (32 * mp.pi ** 3)
        for k in (1, 5, 7, 11):
            w *= mp.gamma(mp.mpf(k) / 24)
        return float(w / 3)


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

def test_dispersion_band_extremes():
    for n in (1, 2, 3, 5):
        assert bb.dispersion([0.0] * n, n) == 0.0
        assert bb.dispersion([math.pi] * n, n) == pytest.approx(2.0 * n, abs=1e-14)
    assert bb.dispersion([math.pi / 2, math.pi / 2], 2) == pytest.approx(2.0)


def test_dispersion_symmetry_and_errors():
    p = [0.3, -1.1, 2.0]
    assert bb.dispersion(p, 3) == pytest.approx(bb.dispersion([-x for x in p], 3))
    assert bb.dispersion(p, 3) == pytest.approx(bb.dispersion(p[::-1], 3))
    with pytest.raises(ValueError):
        bb.dispersion([0.1, 0.2], 3)


# ---------------------------------------------------------------------------
# closed forms as oracles for both engines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z", [-0.1, -1.0, -10.0])
def test_chain_closed_form_both_engines(z):
    exact = bb.closed_form_a1(z)
    for cfg in (bb.DEFAULT_CONFIG, TRAP):
        g = bb.green_values(1, z, cfg)
        assert g.a == pytest.approx(exact, rel=1e-12)
    full = closed_form_green1(z)
    g = bb.green_values(1, z)
    for name in ("a", "b", "c", "s"):
        assert getattr(g, name) == pytest.approx(getattr(full, name), rel=1e-10)


def test_chain_closed_form_special_values():
    assert bb.closed_form_a1(-1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    assert bb.closed_form_a1(1.0 - math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-14)
    assert bb.closed_form_a1(-1e8) < 1e-7
    with pytest.raises(ValueError):
        bb.closed_form_a1(0.0)


def test_chain_b_identity_value():
    g = bb.green_values(1, -1.0)
    assert g.b == pytest.approx(2.0 / math.sqrt(3.0) - 1.0, rel=1e-12)


@pytest.mark.parametrize("z", [-1e-3, -0.5, -4.0, -100.0])
def test_square_lattice_elliptic_oracle(z):
    exact = bb.closed_form_a2(z)
    assert bb.green_values(2, z).a == pytest.approx(exact, rel=1e-12)
    assert bb.green_values(2, z, TRAP).a == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("z", [0.0, -0.5, -2.0])
def test_cubic_lattice_elliptic_oracle(z):
    exact = bb.closed_form_a3(z)
    got = bb.green_values(3, z).a if z < 0 else bb.green_threshold(3).a
    assert got == pytest.approx(exact, rel=1e-10)


def test_watson_constant():
    a0 = bb.green_threshold(3).a
    assert a0 == pytest.approx(watson_a0(), rel=1e-12)
    assert a0 == pytest.approx(0.5054620197, abs=1e-9)


# ---------------------------------------------------------------------------
# threshold values and availability flags
# ---------------------------------------------------------------------------

def test_threshold_flags_by_dimension():
    g1 = bb.green_threshold(1)
    assert g1.a is None and g1.b is None and g1.d is None and g1.cd is None
    assert g1.s0 == pytest.approx(1.0, abs=1e-13)
    g2 = bb.green_threshold(2)
    assert g2.a is None and g2.b is None
    assert g2.cd is not None and g2.s is not None
    for n in (3, 4, 5):
        g = bb.green_threshold(n)
        assert all(getattr(g, k) is not None for k in ("a", "b", "c", "d", "s", "cd"))
        assert g.a - g.b == pytest.approx(1.0 / n, abs=1e-12)
    assert finite_at_threshold(2) == frozenset({"s", "cd", "ad"})


def test_threshold_square_lattice_classical_constants():
    # classical square-lattice values: lim(c-d) = 4/pi - 1, s(0) = 1 - 2/pi
    g2 = bb.green_threshold(2)
    assert g2.alpha0 == pytest.approx(4.0 / math.pi - 1.0, abs=1e-12)
    assert g2.s0 == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)


def test_threshold_identities_link_integrals():
    # s(0) = 1 - (n-1)(a(0) - d(0)) and alpha0 = c(0) - d(0) for n >= 3
    for n in (3, 4, 5):
        raw = laplace_integrals(n, 0.0)
        assert raw["s"] == pytest.approx(1.0 - (n - 1) * raw["ad"], abs=1e-12)
        assert raw["cd"] == pytest.approx(raw["c"] - raw["d"], abs=1e-11)


def test_threshold_grid_method_cross_checks():
    for n in (1, 2, 3):
        grid = trapezoid_threshold(n)
        lap = laplace_integrals(n, 0.0)
        for key, val in grid.items():
            assert val == pytest.approx(lap[key], rel=1e-9)


def test_divergent_requests_are_flagged_not_numbers():
    g = bb.green_threshold(2)
    with pytest.raises(bb.DivergentIntegralError):
        g.require("a")
    with pytest.raises(ValueError):
        bb.green_values(2, 0.0)
    with pytest.raises(ValueError):
        bb.green_values(2, 0.5)


# ---------------------------------------------------------------------------
# identity suite (algebraic relations between the integrals)
# ---------------------------------------------------------------------------

Z_SAMPLES = [-float(z) for z in np.geomspace(1e-4, 50.0, 20)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_suite(n):
    for z in Z_SAMPLES:
        g = bb.green_values(n, z)
        assert abs(g.a - g.b - (1.0 + z * g.a) / n) <= 1e-9
        assert abs(g.alpha - (n - z) * g.b) <= 1e-9
        assert abs(g.gamma - g.b) <= 1e-9


def test_product_identity_chain():
    for z in Z_SAMPLES:
        g = bb.green_values(1, z)
        assert abs(g.a * g.s - g.b) <= 1e-9
        assert abs(g.s - (1.0 + z * (g.a + g.b))) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_inequalities(n):
    for z in Z_SAMPLES:
        g = bb.green_values(n, z)
        assert g.a * g.s < g.b
        assert g.cd < g.s
    g0 = bb.green_threshold(n)
    assert g0.alpha0 < g0.s0
    if n >= 3:
        assert g0.a * g0.s < g0.b


# ---------------------------------------------------------------------------
# monotonicity, limits, ratio
# ---------------------------------------------------------------------------

LADDER = [-float(z) for z in np.geomspace(1e-6, 1e4, 26)][::-1]  # increasing z


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monotone_increasing_and_positive(n):
    rows = [bb.green_values(n, z) for z in LADDER]
    for name in ("a", "b", "s", "cd"):
        if name == "cd" and n == 1:
            continue
        vals = [getattr(g, name) for g in rows]
        assert all(v > 0.0 for v in vals)
        assert all(x < y for x, y in zip(vals, vals[1:])), name
    alphas = [g.alpha for g in rows]
    assert all(x < y for x, y in zip(alphas, alphas[1:]))
    # everything decays to zero deep below the band
    deep = bb.green_values(n, -1e4)
    assert max(deep.a, deep.b, deep.s) < 1e-3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ratio_monotone_decreasing_with_limits(n):
    ratios = [bb.green_values(n, z).ratio_ab for z in LADDER]
    assert all(x > y for x, y in zip(ratios, ratios[1:]))
    assert bb.green_values(n, -1e4).ratio_ab > 1e3
    near = bb.green_values(n, -1e-6).ratio_ab
    if n == 1:
        assert abs(near - 1.0) <= 5e-2
    elif n == 2:
        # the limit 1 is approached logarithmically: at z = -1e-6 the ratio
        # is still ~1.23; check consistency with a/b = 1/(1 - (1+za)/(na))
        a = bb.green_values(2, -1e-6).a
        predicted = 1.0 / (1.0 - (1.0 + -1e-6 * a) / (2 * a))
        assert near == pytest.approx(predicted, rel=1e-9)
        assert 1.0 < near < 1.3
    else:
        x = bb.spectral_constants(n).x_asymptote
        assert abs(near - x) <= 1e-2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ratio_derivative_sign(n):
    # a'(z) b(z) - a(z) b'(z) < 0 via central differences
    for z in (-0.03, -0.7, -6.0, -80.0):
        h = 1e-6 * max(1.0, abs(z))
        gp = bb.green_values(n, z + h)
        gm = bb.green_values(n, z - h)
        g = bb.green_values(n, z)
        da = (gp.a - gm.a) / (2 * h)
        db = (gp.b - gm.b) / (2 * h)
        assert da * g.b - g.a * db < 0.0


def test_square_lattice_edge_expansion_slope():
    # near the band edge a(z) = -K ln(-z) + C + O(z); the fitted slope
    # matches 1/(2 pi) (the quadratic-dispersion value), K ~ 0.15915
    zs = np.geomspace(1e-6, 1e-3, 12)
    av = [bb.green_values(2, -float(z)).a for z in zs]
    slope, intercept = np.polyfit(np.log(zs), av, 1)
    assert -slope == pytest.approx(1.0 / (2.0 * math.pi), rel=5e-3)
    assert intercept == pytest.approx(2.0 * math.log(2.0) / math.pi, rel=5e-3)


# ---------------------------------------------------------------------------
# engines against each other
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_cross_method_agreement(n):
    zs = [-10.0, -1.0, -0.5, -0.1, -0.01, -1e-3]
    for z in zs:
        lap = bb.green_values(n, z)
        trap = bb.green_values(n, z, TRAP)
        for name in ("a", "b", "c", "d", "s", "cd"):
            x, y = getattr(lap, name), getattr(trap, name)
            if x is None:
                continue
            assert x == pytest.approx(y, rel=1e-8), (name, z)


def test_both_method_validates_and_detects_bad_grids():
    g = bb.green_values(2, -0.5, BOTH)
    assert g.method == "both"
    with pytest.raises(QuadratureError):
        bb.green_values(2, -0.5, bb.QuadratureConfig(method="both", grid_points=8))


def test_trapezoid_grid_sizing_and_caps():
    assert required_grid_points(2, -1.0, 1e-10) >= 32
    assert required_grid_points(2, -1e-3, 1e-10) > 400
    with pytest.raises(QuadratureError):
        trapezoid_integrals(4, -1.0, 64)
    with pytest.raises(QuadratureError):
        trapezoid_integrals(3, -1e-8, 1 << 14)
    with pytest.raises(QuadratureError):
        bb.green_threshold(3, TRAP)


def test_config_validation():
    with pytest.raises(ValueError):
        bb.QuadratureConfig(method="simpson")
    with pytest.raises(ValueError):
        bb.QuadratureConfig(rtol=-1.0)
    assert bb.DEFAULT_CONFIG.effective_rtol(-1.0) == 1e-10
    assert bb.DEFAULT_CONFIG.effective_rtol(-1e-5) == 1e-8
    assert with_method(bb.DEFAULT_CONFIG, "both").method == "both"


def test_deterministic_evaluation():
    a1 = bb.green_values(3, -0.37).a
    a2 = bb.green_values(3, -0.37, bb.QuadratureConfig())
    assert a1 == a2.a  # bitwise


# ---------------------------------------------------------------------------
# Laplace engine over the whole range the root finders use
# ---------------------------------------------------------------------------

def test_laplace_chain_closed_form_from_edge_search_floor_to_1e15():
    # -exp(-700) is the deepest point of the edge search, -1e15 the end of
    # the monotone-root bracket search
    for z in -np.exp(np.linspace(-700.0, math.log(1e15), 300)):
        z = float(z)
        got, exact = bb.green_values(1, z), closed_form_green1(z)
        assert got.a == pytest.approx(exact.a, rel=1e-12), z
        if abs(z) <= 1.0:
            for name in ("b", "c", "s"):
                assert getattr(got, name) == pytest.approx(
                    getattr(exact, name), rel=1e-12), (z, name)


@pytest.mark.parametrize("z", [-1e-310, -5e-324])
def test_laplace_rejects_subnormal_z_without_warnings(z):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(QuadratureError, match="largest double"):
            bb.green_values(2, z)
        with pytest.raises(QuadratureError, match="largest double"):
            laplace_integrals(1, z)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_laplace_smallest_admissible_z():
    z = -746.0 * 2.0 ** -1023   # the last panel ends exactly at 2^1023
    assert bb.green_values(1, z).a == pytest.approx(bb.closed_form_a1(z), rel=1e-12)
    with pytest.raises(QuadratureError):
        bb.green_values(1, math.nextafter(z, 0.0))


def test_laplace_values_do_not_depend_on_call_history():
    zs = (-1e-9, -0.37, -3.0, -2.0 ** 35)
    code = ("import sys, belowband as bb\n"
            "for n in (1, 2, 4):\n"
            "    for z in map(float, sys.argv[1:]):\n"
            "        g = bb.green_values(n, z)\n"
            "        print(repr((g.a, g.b, g.c, g.d, g.s, g.cd)))\n")
    fresh = subprocess.run([sys.executable, "-c", code, *map(repr, zs)],
                           capture_output=True, text=True, check=True).stdout
    for n in (1, 2, 4):   # widen the kept tables on both sides first
        for z in (-math.exp(-690.0), -1e-4, -7.5, -1e12):
            bb.green_values(n, z)
    here = "".join(repr((g.a, g.b, g.c, g.d, g.s, g.cd)) + "\n"
                   for n in (1, 2, 4) for g in (bb.green_values(n, z) for z in zs))
    assert here == fresh
