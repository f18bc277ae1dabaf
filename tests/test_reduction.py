"""The even matrix, the determinant factors, the hyperbola and the critical
couplings.

Root location reads the three factors from ``classify._factor``: b H_z for
delta_r, lam (c - d) - 1 for delta_c and lam s - 1 for delta_s.  These tests
hold that path to the determinant of the even Birman-Schwinger matrix,
which ``states._even_matrix`` builds for the residual.
"""

import math

import numpy as np
import pytest

import belowband as bb
from belowband import classify, green, states
from belowband.reduction import hyperbola_limit

SQRT2 = math.sqrt(2.0)


def greens(n, z):
    return bb.green_values(n, z)


factor = classify._factor_at


def symmetric_block(params, g):
    """G_e restricted to the symmetric vectors (w_0, t, ..., t): a 2 x 2
    matrix whose det(. - I) is the rank-one factor delta_r."""
    m = states._even_matrix(params, g)
    return np.array([[m[0, 0], m[0, 1:].sum()], [m[1, 0], m[1, 1:].sum()]])


def test_even_matrix_template_chain():
    z = -0.8
    g = greens(1, z)
    params = bb.ModelParams(1, 0.7, -1.3)
    m = states._even_matrix(params, g)
    expected = np.array([
        [params.mu * g.a, params.lam * g.b / SQRT2],
        [SQRT2 * params.mu * g.b, params.lam * g.c],
    ])
    np.testing.assert_array_equal(m, expected)


def test_even_matrix_template_general():
    z = -1.7
    n = 3
    g = greens(n, z)
    params = bb.ModelParams(n, 2.0, 0.5)
    m = states._even_matrix(params, g)
    assert m.shape == (4, 4)
    assert np.all(m[0, 1:] == params.lam * g.b / SQRT2)
    assert np.all(m[1:, 0] == SQRT2 * params.mu * g.b)
    diag = np.diag(m)[1:]
    assert np.all(diag == params.lam * g.c)
    off = m[1:, 1:][~np.eye(n, dtype=bool)]
    assert np.all(off == params.lam * g.d)


def test_zero_couplings_give_zero_matrix():
    z = -2.0
    for n in (1, 2):
        g = greens(n, z)
        params = bb.ModelParams(n, 0.0, 0.0)
        assert not states._even_matrix(params, g).any()
        # G - I = -I: the repeated and odd factors are -1
        assert factor(params, "delta_s", g) == -1.0
        if n >= 2:
            assert factor(params, "delta_c", g) == -1.0


def test_odd_matrix_is_diagonal():
    # the odd matrix is lam s times the identity, so every w is moved by the
    # same factor lam s - 1
    z = -0.4
    g = greens(3, z)
    params = bb.ModelParams(3, 1.5, 9.9)
    w = np.array([1.0, -2.0, 0.5])
    state = bb.EigenState(params, "odd", z, w, "eigen-Sin", greens=g)
    assert bb.residual(params, state) == pytest.approx(abs(1.5 * g.s - 1.0), rel=1e-14)


def test_even_matrix_at_threshold_needs_n3():
    with pytest.raises(bb.DivergentIntegralError):
        states._even_matrix(bb.ModelParams(2, 1.0, 1.0), bb.green_threshold(2))
    m = states._even_matrix(bb.ModelParams(3, 1.0, 1.0), bb.green_threshold(3))
    assert m.shape == (4, 4)


# ---------------------------------------------------------------------------
# determinant factors
# ---------------------------------------------------------------------------

def test_delta_r_simple_values():
    for n in (1, 2, 3):
        g = greens(n, -0.9)
        # b H_z = a (n - z) - n b = 1 at lam = mu = 0
        assert g.b * factor(bb.ModelParams(n, 0.0, 0.0), "delta_r", g) == \
            pytest.approx(1.0, rel=1e-14)
        # lam = 0 reduces to 1 - mu a(z)
        mu = 2.5
        assert g.b * factor(bb.ModelParams(n, 0.0, mu), "delta_r", g) == \
            pytest.approx(1.0 - mu * g.a, rel=1e-14)
    # chain: root of 1 - mu a at z = 1 - sqrt2 for mu = 1
    z = 1.0 - math.sqrt(2.0)
    assert factor(bb.ModelParams(1, 0.0, 1.0), "delta_r", greens(1, z)) == \
        pytest.approx(0.0, abs=1e-12)


def test_delta_c_values():
    assert greens(1, -0.3).cd is None   # no repeated factor at n = 1
    g3 = greens(3, -0.3)
    assert factor(bb.ModelParams(3, 0.0, 1.0), "delta_c", g3) ** 2 == 1.0  # (-1)^2
    lam = 1.0 / g3.cd
    assert factor(bb.ModelParams(3, lam, 0.0), "delta_c", g3) == pytest.approx(0.0, abs=1e-13)


def test_delta_s_values():
    g = greens(2, -0.6)
    assert factor(bb.ModelParams(2, 0.0, 9.0), "delta_s", g) ** 2 == 1.0  # (-1)^2
    g1 = greens(1, -0.6)
    assert factor(bb.ModelParams(1, 0.0, 0.0), "delta_s", g1) == -1.0
    # s(-1/4) = 1/2 exactly, so lam = 2 is a zero
    g14 = greens(1, -0.25)
    assert g14.s == pytest.approx(0.5, abs=1e-12)
    assert factor(bb.ModelParams(1, 2.0, 0.0), "delta_s", g14) == pytest.approx(0.0, abs=1e-11)
    # multiplicity-n structure: det(G_o - I) == (lam s - 1)^n
    params = bb.ModelParams(3, 1.2, 0.0)
    g3 = greens(3, -0.6)
    direct = np.linalg.det(params.lam * g3.s * np.eye(3) - np.eye(3))
    assert direct == pytest.approx(factor(params, "delta_s", g3) ** 3, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_factorization(n):
    """det(G_e - I) = b H_z (lam (c - d) - 1)^(n-1) over random couplings and z."""
    rng = np.random.default_rng(1234 + n)
    for _ in range(200):
        lam, mu = rng.uniform(-5.0, 5.0, size=2)
        z = -float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        params = bb.ModelParams(n, float(lam), float(mu))
        g = greens(n, z)
        direct = float(np.linalg.det(states._even_matrix(params, g) - np.eye(n + 1)))
        product = g.b * factor(params, "delta_r", g) \
            * factor(params, "delta_c", g) ** (n - 1)
        assert abs(direct - product) <= 1e-8 * max(abs(direct), abs(product), 1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_r_equals_gamma_times_hyperbola(n):
    # the rank-one factor, det of the symmetric block minus I, is b H_z
    rng = np.random.default_rng(99)
    for _ in range(40):
        lam, mu = rng.uniform(-4.0, 4.0, size=2)
        z = -float(np.exp(rng.uniform(np.log(1e-3), np.log(30.0))))
        params = bb.ModelParams(n, float(lam), float(mu))
        g = greens(n, z)
        delta_r = float(np.linalg.det(symmetric_block(params, g) - np.eye(2)))
        bh = g.b * factor(params, "delta_r", g)
        assert abs(delta_r - bh) <= 1e-9 * max(1.0, abs(bh))


def test_delta_r_deep_limit():
    g = greens(2, -1e4)
    assert g.b * factor(bb.ModelParams(2, 3.0, -2.0), "delta_r", g) == \
        pytest.approx(1.0, abs=1e-2)


def test_delta_r_threshold_limits_low_dimensions():
    # on the limiting hyperbola the z -> 0- limit of b H_z is 1 - mu/n;
    # verified at z = -1e-8
    for n, lam in [(1, 3.0), (1, -1.0), (2, 2.0), (2, 0.5)]:
        mu = n + n / (lam - 1.0)
        g = greens(n, -1e-8)
        assert g.b * factor(bb.ModelParams(n, lam, mu), "delta_r", g) == \
            pytest.approx(1.0 - mu / n, abs=1e-3)
    # off the curve b diverges, and b H_z grows with the sign of H_0
    for lam, mu in [(0.0, 3.0), (-1.0, -1.0)]:
        params = bb.ModelParams(2, lam, mu)
        values = [g.b * factor(params, "delta_r", g)
                  for g in (greens(2, -1e-4), greens(2, -1e-8))]
        h0 = hyperbola_limit(2, lam, mu, 1.0)
        assert all(math.copysign(1.0, v) == math.copysign(1.0, h0) for v in values)
        assert abs(values[1]) > abs(values[0])


def test_delta_r_threshold_finite_high_dimension():
    g0 = bb.green_threshold(3)
    params = bb.ModelParams(3, 1.0, 1.0)
    h0 = factor(params, "delta_r", g0)
    assert h0 == hyperbola_limit(3, 1.0, 1.0, bb.spectral_constants(3).x_asymptote)
    delta_r = float(np.linalg.det(symmetric_block(params, g0) - np.eye(2)))
    assert delta_r == pytest.approx(g0.b * h0, rel=1e-10)


# ---------------------------------------------------------------------------
# hyperbola and critical couplings
# ---------------------------------------------------------------------------

def test_hyperbola_at_origin_is_inverse_b():
    for n in (1, 2, 3):
        z = -0.7
        g = greens(n, z)
        h = factor(bb.ModelParams(n, 0.0, 0.0), "delta_r", g)
        assert h == pytest.approx(1.0 / g.b, rel=1e-12)


def test_threshold_asymptotes(consts):
    assert consts[1].x_asymptote == 1.0
    assert consts[2].x_asymptote == 1.0
    g3 = bb.green_threshold(3)
    assert consts[3].x_asymptote == pytest.approx(g3.a / g3.b, rel=1e-14)


def test_parallel_translation_of_branches():
    # as z decreases both asymptote components a/b and n - z strictly
    # increase, so same-side branches at different z never intersect
    for n in (1, 2, 3):
        zs = [-float(z) for z in np.geomspace(1e-6, 100.0, 12)]
        lam_inf = [greens(n, z).ratio_ab for z in zs]
        mu_inf = [n - z for z in zs]
        assert all(x < y for x, y in zip(lam_inf, lam_inf[1:]))
        assert all(x < y for x, y in zip(mu_inf, mu_inf[1:]))


def test_critical_couplings_values_and_ordering(consts):
    assert consts[1].lambda_c is None
    assert consts[1].lambda_s == pytest.approx(1.0, abs=1e-12)
    # classical square-lattice closed forms
    assert consts[2].lambda_c == pytest.approx(math.pi / (4.0 - math.pi), rel=1e-12)
    assert consts[2].lambda_s == pytest.approx(math.pi / (math.pi - 2.0), rel=1e-12)
    for n in (2, 3, 4):
        c = consts[n]
        assert c.x_asymptote <= c.lambda_s <= c.lambda_c
        assert c.x_asymptote < c.lambda_s < c.lambda_c  # strict in fact


def test_critical_couplings_requires_threshold_record(consts):
    # lambda_s and lambda_c are read from the z = 0 record, bit for bit
    for n, c in consts.items():
        assert c.greens0.z == 0.0 and c.greens0 == bb.green_threshold(n)
        assert c.lambda_s == 1.0 / c.greens0.s
        assert c.lambda_c == (None if n == 1 else 1.0 / c.greens0.cd)


def test_a_dimension_is_an_integer_but_not_a_bool():
    # ModelParams, green_values and build_hamiltonian take the same
    # dimensions: any numbers.Integral, numpy integers signed and unsigned
    # among them (ModelParams stores them as an int), but neither a bool,
    # Python's or numpy's, nor a float
    for n in (np.int64(3), np.uint8(3)):
        params = bb.ModelParams(n, 1.0, 3.0)
        assert type(params.n) is int and params == bb.ModelParams(3, 1.0, 3.0)
        assert bb.summarize(params).cell == bb.summarize(bb.ModelParams(3, 1.0, 3.0)).cell
        assert bb.green_values(n, -1.0) == bb.green_values(3, -1.0)
        assert bb.green_values(n, green._LADDER_Z) is bb.green_values(3, green._LADDER_Z)
        assert bb.green_threshold(n) == bb.green_threshold(3)
        assert bb.build_hamiltonian(n, 2, 1.0, 3.0).n == 3
    for bad in (True, np.bool_(True), 3.0):
        with pytest.raises(ValueError, match="dimension"):
            bb.ModelParams(bad, 1.0, 3.0)
        for z in (-1.0, green._LADDER_Z):
            with pytest.raises(ValueError, match="dimension"):
                bb.green_values(bad, z)
        with pytest.raises(ValueError, match="dimension"):
            bb.green_threshold(bad)
        with pytest.raises(ValueError, match="dimension"):
            bb.build_hamiltonian(bad, 2, 1.0, 3.0)
