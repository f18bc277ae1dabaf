"""Eigenstate construction, residuals, moments and integrability."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import belowband as bb
import reference
from belowband import states
from belowband.states import (
    state_for_delta_r,
    states_for_delta_c,
    states_for_odd,
)
from conftest import open_region_points
from reference import integrability_probe, moments, probe_verdict, state_moments

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


@pytest.mark.parametrize("n,lam,mu", [
    (3, 1e-8, 4.0), (3, 1e-12, 4.0),
    (5, 8.465470804461719e-306, 4.941360515339683),
    (6, 2.13263890437583e-99, 8.5),    # 1 - mu a rounds to 0
])
def test_delta_r_state_for_small_lambda(n, lam, mu):
    # the null vector comes from row 1 of the reduced system, not 1/(1 - mu a)
    params = bb.ModelParams(n, lam, mu)
    (rec,) = bb.negative_eigenvalues(params)
    (state,) = bb.eigenstates(params, rec)
    assert state.formula == "e1"
    assert bb.residual(params, state) <= 1e-12


def test_residual_detects_wrong_z_and_rejects_zero_vector():
    params = bb.ModelParams(1, 0.0, 1.0)
    rec = bb.negative_eigenvalues(params)[0]
    state = bb.eigenstates(params, rec)[0]
    shifted = bb.EigenState(params, state.sector, rec.z + 0.01, state.w, state.formula)
    assert bb.residual(params, shifted) > 1e-4
    zero = bb.EigenState(params, "even", rec.z, np.zeros(2), "e11")
    with pytest.raises(ValueError):
        bb.residual(params, zero)


def test_carried_green_values_are_used_only_at_their_own_z():
    # replace keeps the values carried from rec.z; residual and eigenstates
    # must evaluate fresh at the new z instead
    params = bb.ModelParams(1, 0.0, 1.0)
    rec = bb.negative_eigenvalues(params)[0]
    state = bb.eigenstates(params, rec)[0]
    assert rec.greens.z == state.greens.z == rec.z
    shifted = replace(state, z=rec.z + 0.01)
    assert shifted.greens is state.greens
    assert bb.residual(params, shifted) > 1e-4
    moved = replace(rec, z=rec.z + 0.01)
    (fresh,) = bb.eigenstates(params, moved)
    assert fresh.greens.z == moved.z
    assert not np.array_equal(state_moments(fresh), state_moments(state))


def test_moments_match_coefficients_for_fixed_points():
    # u_0 = w_0 and u_j = w_j/sqrt2 at a fixed point of the even matrix
    params = bb.ModelParams(2, 3.0, 4.0)
    for rec in bb.negative_eigenvalues(params):
        for state in bb.eigenstates(params, rec):
            u = state_moments(state)
            assert u is not None
            if state.sector == "even":
                assert u[0] == pytest.approx(state.w[0], rel=1e-9, abs=1e-12)
                assert np.allclose(u[1:], np.divide(state.w[1:], SQRT2), rtol=1e-9,
                                   atol=1e-12)
            else:
                # odd fixed point: (lam/sqrt2) s w = w/sqrt2 when lam s = 1
                assert np.allclose(u, np.divide(state.w, SQRT2), rtol=1e-9, atol=1e-12)


def test_moments_finite_for_square_lattice_threshold_state():
    consts = bb.spectral_constants(2)
    g0 = bb.green_threshold(2)
    params = bb.ModelParams(2, consts.lambda_c, 1.0)
    state = states_for_delta_c(params, 0.0, g0)[0]
    u = moments(state, g0)
    assert u[0] == 0.0
    assert u[1] == pytest.approx(1.0 / SQRT2, rel=1e-10)
    assert u[2] == pytest.approx(-1.0 / SQRT2, rel=1e-10)


def test_only_divergence_leaves_moments_unset(monkeypatch):
    # the moments the answer record prints: None without Green values or
    # where an integral they need diverges; any other error is raised
    params = bb.ModelParams(2, 3.0, 4.0)
    g = bb.green_values(2, -0.5)
    unset = states_for_delta_c(params, -0.5, replace(g, cd=None))
    assert all(state_moments(state) is None for state in unset)
    built = states_for_delta_c(params, -0.5, g)
    assert state_moments(replace(built[0], greens=None)) is None
    assert state_moments(built[0]) is not None

    def broken(state, greens):
        raise RuntimeError("bug in moments")

    monkeypatch.setattr(reference, "moments", broken)
    with pytest.raises(RuntimeError, match="bug in moments"):
        state_moments(built[0])


def test_states_and_summaries_compare_and_hash_by_value():
    # w is kept as a tuple of floats: a summary holding a threshold state
    # equals and hashes as another of the same couplings, a state built
    # from an array equals one built from its floats, and no w takes a write
    p = bb.ModelParams(3, bb.spectral_constants(3).lambda_s, 0.0)
    first, second = bb.summarize(p), bb.summarize(p)
    assert first.threshold.entries and first == second
    assert hash(first) == hash(second) and hash(first.threshold) == hash(second.threshold)
    state = first.threshold.entries[0].states[0]
    assert type(state.w) is tuple and all(type(x) is float for x in state.w)
    with pytest.raises(TypeError):
        state.w[0] = 2.0
    assert replace(state, w=np.array(state.w)) == state
    assert hash(replace(state, w=list(state.w))) == hash(state)
    assert replace(state, w=(0.0, *state.w[1:])) != state
    rooted = bb.ModelParams(2, 3.0, 4.0)
    for rec in bb.negative_eigenvalues(rooted):
        assert bb.eigenstates(rooted, rec) == bb.eigenstates(rooted, rec)


def test_moments_take_a_coefficient_list():
    # w as a list, as EigenState accepts it: the moments equal those of the
    # same w as an array, in either sector
    g = bb.green_values(2, -0.5)
    for sector, w, formula in (("odd", [1.0, 0.0], "eigen-Sin"),
                               ("even", [0.5, 1.0, -1.0], "e1")):
        listed = bb.EigenState(bb.ModelParams(2, 4.0, 0.0), sector, -0.5, w, formula)
        array = replace(listed, w=np.array(w))
        assert _hexes(moments(listed, g)) == _hexes(moments(array, g))
        assert _hexes(state_moments(replace(listed, greens=g))) == _hexes(moments(array, g))


def test_moments_read_the_green_values_each_state_carries():
    # every state of every open cell at n = 1..4 carries the Green values
    # of its z, so its moments equal, bit for bit, those from a fresh
    # evaluation there; replace moves z and keeps the carried values
    built = []
    for n in (1, 2, 3, 4):
        for _name, (lam, mu) in open_region_points(n):
            built += _summary_states(bb.ModelParams(n, lam, mu))[1]
    assert len(built) >= 40
    for state in built:
        n, z = state.params.n, state.z
        fresh = bb.green_values(n, z) if z < 0.0 else bb.green_threshold(n)
        want = _hexes(state_moments(replace(state, greens=fresh)))
        assert _hexes(state_moments(state)) == want
        shifted = replace(state, z=state.z - 0.25)
        assert shifted.greens is state.greens
        assert _hexes(state_moments(shifted)) == want


def _hexes(values):
    return None if values is None else [float(x).hex() for x in np.ravel(values)]


def _assert_certificate_as_reference(params, state):
    # the residual and the even matrix equal the term-by-term reference of
    # tests/reference.py
    assert bb.residual(params, state).hex() == reference.residual(params, state).hex()
    if state.sector == "even" and (state.z < 0.0 or params.n >= 3):
        assert _hexes(states._even_matrix(params, state.greens)) \
            == _hexes(reference.even_matrix(params, state.greens))


def _summary_states(params):
    summary = bb.summarize(params)
    states_ = [state for rec in summary.eigenvalues
               for state in bb.eigenstates(summary.snapped, rec)]
    states_ += [state for entry in summary.threshold.entries for state in entry.states]
    return summary.snapped, states_


def test_certificate_equals_the_reference_bit_for_bit():
    # every state of every open cell at n = 1..4, and the threshold states
    # on the lambda_s and lambda_c lines and the limiting hyperbola
    count = 0
    for n in (1, 2, 3, 4):
        consts = bb.spectral_constants(n)
        points = [p for _name, p in open_region_points(n)]
        # lambda = X - 1 on Gamma_l, where mu = n + n/(lambda - X) = 0
        points += [(consts.lambda_s, 0.5), (consts.x_asymptote - 1.0, 0.0)]
        if n >= 2:
            points.append((consts.lambda_c, 0.5))
        for lam, mu in points:
            params, found = _summary_states(bb.ModelParams(n, lam, mu))
            for state in found:
                _assert_certificate_as_reference(params, state)
                count += 1
    assert count >= 100


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4),
       lam=st.floats(-10.0, 25.0, allow_nan=False),
       mu=st.floats(-10.0, 25.0, allow_nan=False))
def test_certificate_equals_the_reference_over_the_plane(n, lam, mu):
    try:
        params, found = _summary_states(bb.ModelParams(n, lam, mu))
    except bb.RootScanError:   # an n = 2 root below exp(-700)
        return
    for state in found:
        _assert_certificate_as_reference(params, state)


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
    # every formula fixes its order, shown in the shape each family's
    # builder gives it: w = (1, 1, ..., 1) for delta_r, e_1 - e_2 for
    # delta_c and e_1 for delta_s; the z = 0 versions carry the orders of
    # the z < 0 ones
    assert states.FORMULAS == ("e1", "e11", "e2", "eigen-Sin", "z0", "z1", "z2", "sake")
    params = bb.ModelParams(3, 2.0, 1.0)
    shapes = {0: ("even", [1.0, 1.0, 1.0, 1.0]), 1: ("odd", [1.0, 0.0, 0.0]),
              2: ("even", [0.0, 1.0, -1.0, 0.0])}
    orders = {"e1": 0, "e11": 0, "e2": 2, "eigen-Sin": 1,
              "z0": 0, "z1": 0, "z2": 2, "sake": 1}
    for formula, m in orders.items():
        sector, w = shapes[m]
        z = 0.0 if formula in ("z0", "z1", "z2", "sake") else -0.5
        assert bb.EigenState(params, sector, z, w, formula).vanishing_order() == m
    # the degenerate rays are still refused, exactly
    with pytest.raises(ValueError, match="zero coefficient vector"):
        bb.EigenState(params, "odd", 0.0, np.zeros(3), "sake").vanishing_order()
    with pytest.raises(ValueError, match="identically zero"):
        bb.EigenState(params, "even", 0.0, np.zeros(4), "z0").vanishing_order()
    with pytest.raises(ValueError, match="identically zero"):
        bb.EigenState(bb.ModelParams(3, 0.0, 0.0), "even", 0.0, np.ones(4),
                      "z1").vanishing_order()


def test_a_formula_of_the_other_sector_is_rejected():
    params = bb.ModelParams(3, 2.0, 1.0)
    with pytest.raises(ValueError, match="sector"):
        bb.EigenState(params, "even", 0.0, np.ones(4), "sake")
    with pytest.raises(ValueError, match="sector"):
        bb.EigenState(params, "odd", 0.0, np.ones(3), "z2")
    with pytest.raises(ValueError, match="sector"):
        bb.EigenState(params, "odd", -0.5, np.ones(3), "e1")
    with pytest.raises(ValueError, match="unknown formula"):
        bb.EigenState(params, "even", 0.0, np.ones(4), "z3")


def test_probe_chain_super_threshold():
    # sin p / E on the chain: |f|^(1/2) integrable, |f| log-divergent
    state = threshold_state(1, "sine")
    half = integrability_probe(state, 0.5)
    one = integrability_probe(state, 1.0)
    assert probe_verdict(half) == "bounded"
    assert probe_verdict(one) == "divergent"
    inc = np.diff(one)
    # log divergence: equal increments per halving of the radius
    assert np.allclose(inc, inc[0], rtol=1e-2)
    assert np.all(inc > 0.2 * inc[0])


def test_probe_2d_cases():
    # sine state on the square lattice: not L2 but L1
    state = threshold_state(2, "sine")
    sq = integrability_probe(state, 2.0, exponents=range(3, 11))
    assert probe_verdict(sq) == "divergent"
    inc = np.diff(sq)
    assert np.allclose(inc[2:], inc[-1], rtol=2e-2)  # log rate
    l1 = integrability_probe(state, 1.0, exponents=range(3, 11))
    assert probe_verdict(l1) == "bounded"
    # cos-difference state is bounded, every power integrable
    state2 = threshold_state(2, "cos-difference")
    l2 = integrability_probe(state2, 2.0, exponents=range(3, 11))
    assert probe_verdict(l2) == "bounded"


def test_probe_3d_free_resolvent():
    # 1/E in three dimensions: L1 holds, L2 fails (power-law divergence)
    state = threshold_state(3, "free-resolvent")
    l2 = integrability_probe(state, 2.0, exponents=range(3, 9), angular=128)
    assert probe_verdict(l2) == "divergent"
    inc = np.diff(l2)
    assert inc[-1] > 1.5 * inc[-2] > 0.0  # ~doubles per halving
    l1 = integrability_probe(state, 1.0, exponents=range(3, 9), angular=128)
    assert probe_verdict(l1) == "bounded"


def test_probe_reads_a_resonance_where_the_terms_of_phi0_cancel():
    # Gamma_r at n = 3, lam ~ 1e12: phi(0) = mu = 3 while the terms of phi
    # are ~1e12, so f ~ 6/|p|^2 only for |p| below ~2^-19; the probe of the
    # ball |p| < 2^-16 sees it, without the formula: L1 holds, L2 fails
    params = bb.ModelParams(3, 999911107323.2065, 3.0000000000030003)
    (entry,) = bb.threshold_report(params).entries
    state = entry.states[0]
    kw = dict(exponents=range(17, 25), angular=64, r0=2.0 ** -16)
    l2 = integrability_probe(state, 2.0, **kw)
    assert probe_verdict(l2) == "divergent"
    inc = np.diff(l2)
    assert np.all(inc[-3:] > 1.9 * inc[-4:-1])   # ~doubles per halving
    l1 = integrability_probe(state, 1.0, **kw)
    assert probe_verdict(l1) == "bounded"
    inc = np.diff(l1)
    assert np.all(inc[-3:] < 0.6 * inc[-4:-1])   # ~halves per halving
