"""Reduced matrices, determinant factors, hyperbola, critical couplings."""

import math

import numpy as np
import pytest

import belowband as bb

SQRT2 = math.sqrt(2.0)


def greens(n, z):
    return bb.green_values(n, z)


def test_even_matrix_template_chain():
    z = -0.8
    g = greens(1, z)
    params = bb.ModelParams(1, 0.7, -1.3)
    m = bb.build_bs_matrix(params, z, "even", g).entries
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
    m = bb.build_bs_matrix(params, z, "even", g).entries
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
        for sector in ("even", "odd"):
            m = bb.build_bs_matrix(bb.ModelParams(n, 0.0, 0.0), z, sector, g)
            assert not m.entries.any()


def test_odd_matrix_is_diagonal():
    z = -0.4
    g = greens(3, z)
    m = bb.build_bs_matrix(bb.ModelParams(3, 1.5, 9.9), z, "odd", g).entries
    np.testing.assert_array_equal(m, 1.5 * g.s * np.eye(3))


def test_even_matrix_at_threshold_needs_n3():
    with pytest.raises(bb.DivergentIntegralError):
        bb.build_bs_matrix(bb.ModelParams(2, 1.0, 1.0), 0.0,
                           "even", bb.green_threshold(2))
    m = bb.build_bs_matrix(bb.ModelParams(3, 1.0, 1.0), 0.0,
                           "even", bb.green_threshold(3))
    assert m.size == 4


# ---------------------------------------------------------------------------
# determinant factors
# ---------------------------------------------------------------------------

def test_delta_r_simple_values():
    for n in (1, 2, 3):
        g = greens(n, -0.9)
        assert bb.delta_r(bb.ModelParams(n, 0.0, 0.0), -0.9, g) == 1.0
        # lam = 0 reduces to 1 - mu a(z)
        mu = 2.5
        assert bb.delta_r(bb.ModelParams(n, 0.0, mu), -0.9, g) == \
            pytest.approx(1.0 - mu * g.a, rel=1e-14)
    # chain: root of 1 - mu a at z = 1 - sqrt2 for mu = 1
    z = 1.0 - math.sqrt(2.0)
    assert bb.delta_r(bb.ModelParams(1, 0.0, 1.0), z, greens(1, z)) == \
        pytest.approx(0.0, abs=1e-12)


def test_delta_c_values():
    g = greens(1, -0.3)
    assert bb.delta_c(bb.ModelParams(1, 123.0, 4.0), -0.3, g) == 1.0
    g3 = greens(3, -0.3)
    assert bb.delta_c(bb.ModelParams(3, 0.0, 1.0), -0.3, g3) == 1.0  # (-1)^2
    lam = 1.0 / g3.cd
    assert bb.delta_c(bb.ModelParams(3, lam, 0.0), -0.3, g3) == pytest.approx(0.0, abs=1e-13)


def test_delta_s_values():
    g = greens(2, -0.6)
    assert bb.delta_s(bb.ModelParams(2, 0.0, 9.0), -0.6, g) == 1.0  # (-1)^2
    g1 = greens(1, -0.6)
    assert bb.delta_s(bb.ModelParams(1, 0.0, 0.0), -0.6, g1) == -1.0
    # s(-1/4) = 1/2 exactly, so lam = 2 is a zero
    g14 = greens(1, -0.25)
    assert g14.s == pytest.approx(0.5, abs=1e-12)
    assert bb.delta_s(bb.ModelParams(1, 2.0, 0.0), -0.25, g14) == pytest.approx(0.0, abs=1e-11)
    # multiplicity-n structure: det(G_o - I) == (lam s - 1)^n exactly
    params = bb.ModelParams(3, 1.2, 0.0)
    g3 = greens(3, -0.6)
    direct = np.linalg.det(bb.build_bs_matrix(params, -0.6, "odd", g3).entries - np.eye(3))
    assert direct == pytest.approx(bb.delta_s(params, -0.6, g3), rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_factorization(n):
    """det(G_e - I) = delta_r * delta_c over random couplings and z."""
    rng = np.random.default_rng(1234 + n)
    for _ in range(200):
        lam, mu = rng.uniform(-5.0, 5.0, size=2)
        z = -float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        params = bb.ModelParams(n, float(lam), float(mu))
        g = greens(n, z)
        direct = float(np.linalg.det(
            bb.build_bs_matrix(params, z, "even", g).entries - np.eye(n + 1)))
        product = bb.delta_r(params, z, g) * bb.delta_c(params, z, g)
        assert abs(direct - product) <= 1e-8 * max(abs(direct), abs(product), 1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_r_equals_gamma_times_hyperbola(n):
    rng = np.random.default_rng(99)
    for _ in range(40):
        lam, mu = rng.uniform(-4.0, 4.0, size=2)
        z = -float(np.exp(rng.uniform(np.log(1e-3), np.log(30.0))))
        params = bb.ModelParams(n, float(lam), float(mu))
        g = greens(n, z)
        h = bb.hyperbola(params, z, g)
        assert abs(bb.delta_r(params, z, g) - g.b * h.value) <= 1e-9 * max(1.0, abs(g.b * h.value))


def test_delta_r_deep_limit():
    g = greens(2, -1e4)
    assert bb.delta_r(bb.ModelParams(2, 3.0, -2.0), -1e4, g) == pytest.approx(1.0, abs=1e-2)


def test_delta_r_threshold_limits_low_dimensions():
    # on the limiting hyperbola the z -> 0- limit is 1 - mu/n; verified at
    # z = -1e-8 to 1e-3
    for n, lam in [(1, 3.0), (1, -1.0), (2, 2.0), (2, 0.5)]:
        mu = n + n / (lam - 1.0)
        params = bb.ModelParams(n, lam, mu)
        g = greens(n, -1e-8)
        assert bb.delta_r(params, -1e-8, g) == pytest.approx(1.0 - mu / n, abs=1e-3)
        # exactly at z = 0 the tagged limit value is returned
        g0 = bb.green_threshold(n)
        assert bb.delta_r(params, 0.0, g0) == pytest.approx(1.0 - mu / n, abs=1e-12)
    # off the curve the limit is signed infinity
    g0 = bb.green_threshold(2)
    assert bb.delta_r(bb.ModelParams(2, 0.0, 3.0), 0.0, g0) == -math.inf
    assert bb.delta_r(bb.ModelParams(2, -1.0, -1.0), 0.0, g0) == math.inf
    assert not bb.determinants(bb.ModelParams(2, 0.0, 3.0), 0.0, g0).delta_r_defined


def test_delta_r_threshold_finite_high_dimension():
    g0 = bb.green_threshold(3)
    params = bb.ModelParams(3, 1.0, 1.0)
    val = bb.delta_r(params, 0.0, g0)
    h0 = bb.hyperbola(params, 0.0, g0)
    assert val == pytest.approx(g0.b * h0.value, rel=1e-10)


# ---------------------------------------------------------------------------
# hyperbola and critical couplings
# ---------------------------------------------------------------------------

def test_hyperbola_at_origin_is_inverse_b():
    for n in (1, 2, 3):
        z = -0.7
        g = greens(n, z)
        h = bb.hyperbola(bb.ModelParams(n, 0.0, 0.0), z, g)
        assert h.value == pytest.approx(1.0 / g.b, rel=1e-12)
        assert h.mu_inf == n - z


def test_threshold_asymptotes():
    g1 = bb.green_threshold(1)
    h = bb.hyperbola(bb.ModelParams(1, 0.0, 0.0), 0.0, g1)
    assert h.asymptote == (1.0, 1.0)
    g3 = bb.green_threshold(3)
    h3 = bb.hyperbola(bb.ModelParams(3, 0.0, 0.0), 0.0, g3)
    assert h3.lambda_inf == pytest.approx(g3.a / g3.b, rel=1e-14)
    assert h3.mu_inf == 3.0


def test_parallel_translation_of_branches():
    # as z decreases both asymptote components strictly increase, so
    # same-side branches at different z never intersect
    for n in (1, 2, 3):
        zs = [-float(z) for z in np.geomspace(1e-6, 100.0, 12)]
        pts = [bb.hyperbola(bb.ModelParams(n, 0.0, 0.0), z, greens(n, z)) for z in zs]
        lam_inf = [p.lambda_inf for p in pts]
        mu_inf = [p.mu_inf for p in pts]
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


def test_critical_couplings_requires_threshold_record():
    with pytest.raises(ValueError):
        bb.critical_couplings(2, greens(2, -1.0))
