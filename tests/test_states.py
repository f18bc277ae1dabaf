"""Eigenstate construction, residuals, moments and integrability."""

import math

import numpy as np
import pytest

import belowband as bb
from belowband.states import (
    moments,
    probe_verdict,
    state_for_delta_r,
    states_for_delta_c,
    states_for_odd,
)

SQRT2 = math.sqrt(2.0)


def test_chain_ground_state_is_free_resolvent_ray():
    # n = 1, (lam, mu) = (0, 1): f positive multiple of 1/(E - z)
    params = bb.ModelParams(1, 0.0, 1.0)
    rec = bb.negative_eigenvalues(params)[0]
    state = bb.eigenstates(params, rec)[0]
    assert state.formula == "e11"
    p = np.linspace(-3.0, 3.0, 17).reshape(-1, 1)
    ratio = state.evaluate(p) * (bb.dispersion(p, 1) - rec.z)
    assert np.allclose(ratio, ratio[0])


def test_odd_states_are_sine_rays():
    params = bb.ModelParams(2, 4.0, 0.0)  # lam > lambda_s(2)
    rec = [r for r in bb.negative_eigenvalues(params) if r.origin == "delta_s"][0]
    states = bb.eigenstates(params, rec)
    assert len(states) == 2 and states[0].formula == "eigen-Sin"
    pts = np.array([[0.3, -1.2], [1.0, 0.5], [-2.0, 2.0]])
    f = states[0].evaluate(pts)
    expected = (params.lam / SQRT2) * np.sin(pts[:, 0]) / (bb.dispersion(pts, 2) - rec.z)
    assert np.allclose(f, expected, rtol=1e-12)


def test_delta_c_state_family():
    consts = bb.spectral_constants(3)
    params = bb.ModelParams(3, consts.lambda_c + 1.0, 0.5)
    rec = [r for r in bb.negative_eigenvalues(params) if r.origin == "delta_c"][0]
    states = bb.eigenstates(params, rec)
    assert len(states) == 2
    ws = [tuple(s.w) for s in states]
    assert ws == [(0.0, 1.0, -1.0, 0.0), (0.0, 1.0, 0.0, -1.0)]
    # f_1 proportional to (cos p1 - cos p2)/(E - z)
    pts = np.array([[0.4, 1.3, -0.8]])
    f = states[0].evaluate(pts)
    expected = (params.lam / SQRT2) * (np.cos(pts[:, 0]) - np.cos(pts[:, 1])) \
        / (bb.dispersion(pts, 3) - rec.z)
    assert np.allclose(f, expected)


@pytest.mark.parametrize("n,lam,mu", [(1, 0.0, 1.0), (1, 2.0, 0.0),
                                      (2, 3.0, 4.0), (3, 6.9, 5.75)])
def test_residuals_small_for_all_constructed_states(n, lam, mu):
    params = bb.ModelParams(n, lam, mu)
    for rec in bb.negative_eigenvalues(params):
        for state in bb.eigenstates(params, rec):
            assert bb.residual(params, state) <= 1e-8


def test_residual_detects_wrong_z_and_rejects_zero_vector():
    params = bb.ModelParams(1, 0.0, 1.0)
    rec = bb.negative_eigenvalues(params)[0]
    state = bb.eigenstates(params, rec)[0]
    shifted = bb.EigenState(params, state.sector, rec.z + 0.01, state.w, state.formula)
    assert bb.residual(params, shifted) > 1e-4
    zero = bb.EigenState(params, "even", rec.z, np.zeros(2), "e11")
    with pytest.raises(ValueError):
        bb.residual(params, zero)


def test_moments_match_coefficients_for_fixed_points():
    # u_0 = w_0 and u_j = w_j/sqrt2 at a fixed point of the even matrix
    params = bb.ModelParams(2, 3.0, 4.0)
    for rec in bb.negative_eigenvalues(params):
        for state in bb.eigenstates(params, rec):
            u = state.moments
            assert u is not None
            if state.sector == "even":
                assert u[0] == pytest.approx(state.w[0], rel=1e-9, abs=1e-12)
                assert np.allclose(u[1:], state.w[1:] / SQRT2, rtol=1e-9, atol=1e-12)
            else:
                # odd fixed point: (lam/sqrt2) s w = w/sqrt2 when lam s = 1
                assert np.allclose(u, state.w / SQRT2, rtol=1e-9, atol=1e-12)


def test_moments_finite_for_square_lattice_threshold_state():
    consts = bb.spectral_constants(2)
    g0 = bb.green_threshold(2)
    params = bb.ModelParams(2, consts.lambda_c, 1.0)
    state = states_for_delta_c(params, 0.0, g0)[0]
    u = moments(state, g0)
    assert u[0] == 0.0
    assert u[1] == pytest.approx(1.0 / SQRT2, rel=1e-10)
    assert u[2] == pytest.approx(-1.0 / SQRT2, rel=1e-10)


# ---------------------------------------------------------------------------
# integrability
# ---------------------------------------------------------------------------

def threshold_state(n, kind):
    g0 = bb.green_threshold(n)
    consts = bb.spectral_constants(n)
    if kind == "free-resolvent":    # f ~ 1/E at (0, 1/a(0))
        params = bb.ModelParams(n, 0.0, 1.0 / g0.a)
        return state_for_delta_r(params, 0.0, g0)
    if kind == "cos-difference":    # f ~ (cos p1 - cos p2)/E
        params = bb.ModelParams(n, consts.lambda_c, 0.0)
        return states_for_delta_c(params, 0.0, g0)[0]
    params = bb.ModelParams(n, consts.lambda_s, 0.0)  # f ~ sin p_j / E
    return states_for_odd(params, 0.0, g0)[0]


def test_integrability_classes_match_tabled_cases():
    assert bb.integrability_class(threshold_state(3, "free-resolvent")) \
        == bb.IntegrabilityClass.L1_NOT_L2
    assert bb.integrability_class(threshold_state(4, "free-resolvent")) \
        == bb.IntegrabilityClass.L1_NOT_L2
    assert bb.integrability_class(threshold_state(5, "free-resolvent")) \
        == bb.IntegrabilityClass.L2
    assert bb.integrability_class(threshold_state(2, "cos-difference")) \
        == bb.IntegrabilityClass.L2
    assert bb.integrability_class(threshold_state(2, "sine")) \
        == bb.IntegrabilityClass.L1_NOT_L2
    assert bb.integrability_class(threshold_state(3, "sine")) \
        == bb.IntegrabilityClass.L2
    assert bb.integrability_class(threshold_state(1, "sine")) \
        == bb.IntegrabilityClass.LEPS_NOT_L1


def test_integrability_requires_threshold():
    params = bb.ModelParams(1, 0.0, 1.0)
    rec = bb.negative_eigenvalues(params)[0]
    state = bb.eigenstates(params, rec)[0]
    with pytest.raises(ValueError):
        bb.integrability_class(state)


def test_vanishing_orders():
    assert threshold_state(3, "free-resolvent").vanishing_order() == 0
    assert threshold_state(2, "cos-difference").vanishing_order() == 2
    assert threshold_state(2, "sine").vanishing_order() == 1


def test_probe_chain_super_threshold():
    # sin p / E on the chain: |f|^(1/2) integrable, |f| log-divergent
    state = threshold_state(1, "sine")
    half = bb.integrability_probe(state, 0.5)
    one = bb.integrability_probe(state, 1.0)
    assert probe_verdict(half) == "bounded"
    assert probe_verdict(one) == "divergent"
    inc = np.diff(one)
    # log divergence: equal increments per halving of the radius
    assert np.allclose(inc, inc[0], rtol=1e-2)
    assert np.all(inc > 0.2 * inc[0])


def test_probe_2d_cases():
    # sine state on the square lattice: not L2 but L1
    state = threshold_state(2, "sine")
    sq = bb.integrability_probe(state, 2.0, exponents=range(3, 11))
    assert probe_verdict(sq) == "divergent"
    inc = np.diff(sq)
    assert np.allclose(inc[2:], inc[-1], rtol=2e-2)  # log rate
    l1 = bb.integrability_probe(state, 1.0, exponents=range(3, 11))
    assert probe_verdict(l1) == "bounded"
    # cos-difference state is bounded, every power integrable
    state2 = threshold_state(2, "cos-difference")
    l2 = bb.integrability_probe(state2, 2.0, exponents=range(3, 11))
    assert probe_verdict(l2) == "bounded"


def test_probe_3d_free_resolvent():
    # 1/E in three dimensions: L1 holds, L2 fails (power-law divergence)
    state = threshold_state(3, "free-resolvent")
    l2 = bb.integrability_probe(state, 2.0, exponents=range(3, 9), angular=128)
    assert probe_verdict(l2) == "divergent"
    inc = np.diff(l2)
    assert inc[-1] > 1.5 * inc[-2] > 0.0  # ~doubles per halving
    l1 = bb.integrability_probe(state, 1.0, exponents=range(3, 9), angular=128)
    assert probe_verdict(l1) == "bounded"
