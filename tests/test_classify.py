"""Region taxonomy, eigenvalue counts, threshold reports, summaries."""

import dataclasses
import math
import random
import re
import zlib
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import belowband as bb
from belowband import classify, green
from belowband.reduction import hyperbola_limit
from conftest import curve_point, open_region_points, region_samples


# ---------------------------------------------------------------------------
# region labels
# ---------------------------------------------------------------------------

def test_region_examples():
    assert bb.classify_even(bb.ModelParams(3, 0.0, 0.0)).curve == "G0"
    assert bb.classify_even(bb.ModelParams(1, 0.0, 0.0)).curve == "Gamma_l"
    assert bb.classify_even(bb.ModelParams(2, 0.0, 3.0)).curve == "G1"
    assert bb.classify_odd(bb.ModelParams(2, 0.0, 0.0)).label == "S-"
    assert bb.classify_odd(bb.ModelParams(1, 1.0, 7.0)).label == "S0"
    assert bb.classify_odd(bb.ModelParams(1, 2.0, 7.0)).label == "S+"


def test_cell_names_n1():
    cases = {
        (-1.0, -1.0): ("D0", 0), (0.0, 1.0): ("D1", 1),
        (2.0, 1.0): ("D2", 2), (3.0, 3.0): ("D3", 3),
        (0.0, 0.0): ("B0", 0), (1.0, -5.0): ("S1", 1),
    }
    for (lam, mu), (name, count) in cases.items():
        _, even, odd = bb.snap_params(bb.ModelParams(1, lam, mu))
        assert bb.cell_label(1, even, odd) == (name, count)
    lam, mu = curve_point(1, "right", 3.0)
    _, even, odd = bb.snap_params(bb.ModelParams(1, lam, mu))
    assert bb.cell_label(1, even, odd) == ("B2", 2)
    # the pairs that lambda_s < lambda <= X = 1 adds, lambda_s one ulp below
    # the only double between: Gamma_l and G0 with S0 and with S+.  On the
    # hyperbola mu = 1 - 2^53, (lam - 1)(mu - 1) - 1 is exactly 0
    lam_s, between = bb.spectral_constants(1).lambda_s, 0.9999999999999999
    assert lam_s == 0.9999999999999998 and lam_s < between < 1.0
    cases = {
        (lam_s, 1.0 - 2.0 ** 52, 0.0): ("Gamma_l", "S0", ("B0", 0)),
        (between, 1.0 - 2.0 ** 53, 0.0): ("Gamma_l", "S+", ("B0", 0)),
        (between, -1e16, 0.0): ("G0", "S+", ("D0", 0)),
        (1.0, 3.0, 0.0): ("G1", "S+", ("D2", 2)),
        (1.0, 3.0, 1e-9): ("G1", "S0", ("S1", 1)),
    }
    for (lam, mu, tol), (curve, label, cell) in cases.items():
        _, even, odd = bb.snap_params(bb.ModelParams(1, lam, mu), tol=tol)
        assert (even.curve, even.strip, even.point, odd.label) == (curve, None, None, label)
        assert bb.cell_label(1, even, odd) == cell, (lam, mu, tol)
    # G0 with S0, the input (1, 1.0, -1e16) snapped onto lambda_s, has no cell
    _, even, odd = bb.snap_params(bb.ModelParams(1, 1.0, -1e16))
    assert (even.curve, odd.label) == ("G0", "S0")
    with pytest.raises(bb.ConsistencyError, match="S0 cannot meet G0"):
        bb.cell_label(1, even, odd)


def test_cell_names_open_regions(consts):
    for n in (2, 3):
        for name, (lam, mu) in open_region_points(n):
            _, even, odd = bb.snap_params(bb.ModelParams(n, lam, mu), tol=0.0)
            got, count = bb.cell_label(n, even, odd)
            assert got == name
            assert count == int(name[1:])


def test_cell_names_curves_and_points(consts):
    n = 3
    c = consts[n]
    onh = lambda lam: n + n / (lam - c.x_asymptote)
    cases = [
        ((0.0, onh(0.0)), "B0"),
        ((c.x_asymptote + 0.5, onh(c.x_asymptote + 0.5)), "B1"),
        ((0.5 * (c.lambda_s + c.lambda_c), onh(0.5 * (c.lambda_s + c.lambda_c))), f"B{n + 1}"),
        ((c.lambda_c + 1.0, onh(c.lambda_c + 1.0)), f"B{2 * n}"),
        ((c.lambda_s, 1.0), "S1"),
        ((c.lambda_s, onh(c.lambda_s) + 5.0), "S2"),
        ((c.lambda_c, 1.0), f"C{n + 1}"),
        ((c.lambda_c, onh(c.lambda_c) + 5.0), f"C{n + 2}"),
        ((c.lambda_s, onh(c.lambda_s)), "A"),
        ((c.lambda_c, onh(c.lambda_c)), "B"),
    ]
    for (lam, mu), want in cases:
        _, even, odd = bb.snap_params(bb.ModelParams(n, lam, mu))
        name, _ = bb.cell_label(n, even, odd)
        assert name == want, (lam, mu, name, want)


def test_snapping_and_near_boundary_flag(consts):
    c = consts[3]
    lam = 4.0
    mu = 3 + 3 / (lam - c.x_asymptote)
    snapped, even, _ = bb.snap_params(bb.ModelParams(3, lam, mu + 4e-10))
    assert even.curve == "Gamma_r" and even.near_boundary
    assert snapped.mu == pytest.approx(mu, abs=1e-14)
    # tol = 0 keeps the open-region answer
    _, even0, _ = bb.snap_params(bb.ModelParams(3, lam, mu + 4e-10), tol=0.0)
    assert even0.curve == "G2" and not even0.near_boundary
    # exact hits are on-curve but not flagged as snapped-from-nearby
    _, even1, _ = bb.snap_params(bb.ModelParams(1, 0.0, 0.0))
    assert even1.curve == "Gamma_l" and not even1.near_boundary


def test_partition_property(consts):
    """Every grid point gets exactly one cell; off-curve labels are stable
    under half-tolerance perturbations."""
    for n in (1, 2, 3):
        lam_grid = np.linspace(-2.0, 6.0, 200)
        mu_grid = np.linspace(-2.0, 6.0, 200)
        names = set()
        for lam in lam_grid:
            for mu in mu_grid:
                _, even, odd = bb.snap_params(bb.ModelParams(n, float(lam), float(mu)))
                name, count = bb.cell_label(n, even, odd)
                names.add(name)
                assert count >= 0
        assert "D0" in names and "D1" in names
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam, mu = rng.uniform(-2.0, 6.0, size=2)
        params = bb.ModelParams(2, float(lam), float(mu))
        _, even, odd = bb.snap_params(params)
        if even.near_boundary or even.curve.startswith("Gamma") or \
                even.strip == "C0" or odd.label == "S0":
            continue
        base = bb.cell_label(2, even, odd)
        for dl, dm in ((5e-10, 0.0), (-5e-10, 0.0), (0.0, 5e-10), (0.0, -5e-10)):
            _, e2, o2 = bb.snap_params(bb.ModelParams(2, float(lam + dl), float(mu + dm)))
            assert bb.cell_label(2, e2, o2) == base


# ---------------------------------------------------------------------------
# eigenvalue location
# ---------------------------------------------------------------------------

def test_no_couplings_no_eigenvalues():
    assert bb.negative_eigenvalues(bb.ModelParams(2, 0.0, 0.0)) == []


def test_chain_exact_roots():
    recs = bb.negative_eigenvalues(bb.ModelParams(1, 0.0, 1.0))
    assert len(recs) == 1
    assert recs[0].z == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-10)
    assert recs[0].sector == "even-rank-r" and recs[0].multiplicity == 1
    recs = bb.negative_eigenvalues(bb.ModelParams(1, 2.0, 0.0))
    odd = [r for r in recs if r.origin == "delta_s"]
    assert len(odd) == 1 and odd[0].multiplicity == 1
    assert odd[0].z == pytest.approx(-0.25, abs=1e-10)


@pytest.mark.parametrize("dlam", [1e-3, 1e-6, 1e-9])
def test_chain_odd_root_above_the_ladder(dlam):
    # the odd root of the chain is exactly z = -(lam - 1)^2 / (2 lam); for
    # lam - 1 below about 1.3e-6 it lies above the ladder's top point -2^-40
    lam = 1.0 + dlam
    recs = bb.negative_eigenvalues(bb.ModelParams(1, lam, -5.0), tol=0.0)
    odd = [r.z for r in recs if r.origin == "delta_s"]
    assert odd == [pytest.approx(-(lam - 1.0) ** 2 / (2.0 * lam), rel=1e-6)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_counts_match_regions(n):
    """delta_r root count is 0 / 1 / 2 on G0, G1, G2 (50 samples each)."""
    expected = {"G0": 0, "G1": 1, "G2": 2}
    for region, count in expected.items():
        seed = zlib.crc32(repr((n, region)).encode())
        for lam, mu in region_samples(n, region, 50, seed=seed):
            recs = bb.negative_eigenvalues(bb.ModelParams(n, lam, mu), tol=0.0)
            nr = sum(1 for r in recs if r.origin == "delta_r")
            assert nr == count, (n, region, lam, mu)


def _green_calls(params):
    """Green evaluations ``summarize`` makes past the per-n ladder record:
    brentq's probes and the walks' steps, each one ``classify._values``."""
    bb.green_values(params.n, green._LADDER_Z)
    with mock.patch.object(classify, "_values", wraps=classify._values) as counted:
        summary = bb.summarize(params, tol=0.0)
    return summary, counted.call_count


def _exact_h1(lam, mu):
    """H_z of the chain from its closed form a/b = (1 - z) + sqrt(-z) sqrt(2 - z),
    at 40 digits: lam - a/b cancels to 1e-21 relative next to a far root."""
    def h(z):
        with mp.workdps(40):
            z = mp.mpf(z)
            return float((lam - ((1 - z) + mp.sqrt(-z) * mp.sqrt(2 - z)))
                         * (mu - (1 - z)) - 1)
    return h


def test_refinement_separates_two_roots_in_one_ladder_octave():
    # cell D3: both delta_r roots lie between the ladder points -4 and -2;
    # the split point z = n - mu = -3.576 of the scan brackets them
    lam, mu = 6.670781442439379, 4.576186898905469
    params = bb.ModelParams(1, lam, mu)
    exact_h = _exact_h1(lam, mu)
    assert exact_h(-4.0) > 0.0 and exact_h(-2.0) > 0.0
    summary, calls = _green_calls(params)
    assert summary.cell == "D3"
    assert calls <= 150
    roots = [r.z for r in summary.eigenvalues if r.origin == "delta_r"]
    assert roots == pytest.approx([-3.905447808022, -2.083701806657], abs=1e-10)
    for z in roots:
        assert abs(exact_h(z)) < 1e-12


def _check_two_delta_r_roots(params):
    """Both delta_r roots of a G2 point are located within 150 Green
    evaluations and every state is certified.  The roots lie farther apart
    than 2e-12 relative, over 1000 times the polish tolerance; at n = 1 the
    exact H changes sign across each root at z(1 +- 1e-12), so the two
    disjoint intervals hold the two zeros."""
    summary, calls = _green_calls(params)
    assert calls <= 150, (params, calls)
    roots = [r.z for r in summary.eigenvalues if r.origin == "delta_r"]
    assert len(roots) == 2, params
    assert roots[1] - roots[0] > 2e-12 * abs(roots[0]), (params, roots)
    for rec in summary.eigenvalues:
        for state in bb.eigenstates(params, rec):
            assert bb.residual(params, state) <= 1e-8, (params, rec)
    if params.n == 1:
        h = _exact_h1(params.lam, params.mu)
        for z in roots:
            assert h(z * (1.0 + 1e-12)) * h(z * (1.0 - 1e-12)) < 0.0, (params, z)
    return summary


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("e", [2, 3, 6, 12])
def test_large_couplings_locate_both_delta_r_roots(n, e):
    # both roots lie near z = -10^e, in one ladder octave
    summary = _check_two_delta_r_roots(
        bb.ModelParams(n, 2.0 * 10.0 ** e, 10.0 ** e + n + 1))
    assert summary.cell == ("D3" if n == 1 else f"D{2 * n + 1}")


def test_far_root_is_not_lost_next_to_the_split_point():
    # the near root lies 1.2e-11 above z0 = 1 - mu, the far one near
    # 1 - lam/2 = -4.293e10 where lam = a/b: H computed at -exp(ln(mu - 1))
    # reads +1.9e5, and a polish started there returned z0 twice
    summary = _check_two_delta_r_roots(bb.ModelParams(1, 8.586e10, 4.089e10))
    roots = [r.z for r in summary.eigenvalues if r.origin == "delta_r"]
    assert roots == pytest.approx([1.0 - 8.586e10 / 2, 1.0 - 4.089e10], rel=1e-15)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), p=st.floats(0.0, 12.0), q=st.floats(0.0, 12.0))
def test_two_delta_r_roots_are_located_across_g2(n, p, q):
    # lam - X = 10^p and mu = 10^q above the limiting hyperbola
    x = bb.spectral_constants(n).x_asymptote
    lam = x + 10.0 ** p
    _check_two_delta_r_roots(bb.ModelParams(n, lam, n + n / (lam - x) + 10.0 ** q))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), w=st.floats(1.0, 12.0), r=st.floats(0.5, 2.0))
def test_two_delta_r_roots_are_located_next_to_the_split_point(n, w, r):
    # a/b ~ 2(n - z) at large -z, so lam = 2 10^w puts the far root near
    # -10^w and z0 = n - mu = -r 10^w within one octave of it; the near root
    # is squeezed against z0, where H = -n
    _check_two_delta_r_roots(bb.ModelParams(n, 2.0 * 10.0 ** w, n + r * 10.0 ** w))


_ORIGINS = ("delta_r", "delta_c", "delta_s")


def _scalar_greens(n):
    return tuple(bb.green_values(n, -math.exp(u)) for u in classify._LADDER)


def _stacked(n, greens):
    """Scalar Green values as one ``GreenValues`` of arrays, the ladder's shape."""
    def column(name):
        values = [getattr(g, name) for g in greens]
        return None if values[0] is None else np.array(values)
    return bb.GreenValues(n, *(column(f.name) for f in dataclasses.fields(bb.GreenValues)[1:]))


def _located(params):
    """Roots of every factor, or the scan error, by origin."""
    _, even, odd = bb.snap_params(params, tol=0.0)
    counts = classify._expected_sector_counts(even, odd)
    out = {}
    for origin, count in zip(_ORIGINS, counts):
        try:
            out[origin] = classify._roots(params, origin, count)
        except bb.RootScanError as exc:
            out[origin] = str(exc), exc.sign_table
    return out


def _hexes(values):
    return [float(v).hex() for v in values]


def _check_ladder_table(n, lam, mu):
    """The vectorized scan over the per-n table equals scalar evaluations of
    every factor, bit for bit, and so do the roots, also with a table
    stacked from scalar calls; every state of every root is certified."""
    params = bb.ModelParams(n, lam, mu)
    table = bb.green_values(n, green._LADDER_Z)
    greens = _scalar_greens(n)
    scalar = _stacked(n, greens)
    for origin in _ORIGINS if n > 1 else ("delta_r", "delta_s"):
        expected = _hexes(classify._factor_at(params, origin, g) for g in greens)
        for t in (table, scalar):
            with np.errstate(over="ignore"):
                got = classify._factor_at(params, origin, t)
            assert _hexes(got) == expected, origin
    located = _located(params)
    with mock.patch.dict(green._LADDER_RECORDS, {n: scalar}):
        assert _located(params) == located
    try:
        records = bb.negative_eigenvalues(params, tol=0.0)
    except bb.RootScanError:
        records = []
    for rec in records:
        for state in bb.eigenstates(params, rec):
            assert bb.residual(params, state) <= 1e-8, (rec, state.w)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6),
       lam=st.floats(-10.0, 25.0, allow_nan=False),
       mu=st.floats(-10.0, 25.0, allow_nan=False))
@example(n=2, lam=5.0, mu=2.5001)   # a root beyond exp(-700): RootScanError
@example(n=5, lam=8.465470804461719e-306, mu=4.941360515339683)  # tiny lambda
def test_ladder_table_matches_scalar_scan(n, lam, mu):
    _check_ladder_table(n, lam, mu)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ladder_table_matches_scalar_scan_on_fixtures(n):
    for _name, (lam, mu) in open_region_points(n):
        _check_ladder_table(n, lam, mu)
    if n > 1:
        x = bb.spectral_constants(n).x_asymptote
        for lam in (x - 1.0, x + 0.5, x + 4.0):
            _check_ladder_table(n, *curve_point(n, "left" if lam < x else "right", lam))


def test_ladder_table_is_built_only_when_a_root_is_located():
    # D0 reads no ladder; each summarize in D1 reads it once, for the one
    # factor it searches, as one classify.green_values call at the ladder
    # itself, and gets the one kept record of n
    bb.spectral_constants(3)
    with mock.patch.object(classify, "green_values",
                           wraps=classify.green_values) as counted:
        assert bb.summarize(bb.ModelParams(3, -1.0, -1.0)).cell == "D0"
    assert counted.call_count == 0
    d1 = bb.ModelParams(3, 0.0, 4.5)
    for _ in range(2):
        with mock.patch.object(classify, "green_values",
                               wraps=classify.green_values) as counted:
            assert bb.summarize(d1).cell == "D1"
        assert counted.call_args_list == [mock.call(3, green._LADDER_Z)]
        assert counted.call_args.args[1] is green._LADDER_Z
    assert bb.green_values(3, green._LADDER_Z) is green._LADDER_RECORDS[3]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_zero_at_a_ladder_point_is_the_root(n):
    # lam s - 1 rounds to exactly 0 at a ladder point: the scan brackets it
    # as (u, 0, u, 0) and the delta_s root is that point itself
    g = next(g for g in _scalar_greens(n)[40:] if (1.0 / g.s) * g.s == 1.0)
    recs = bb.negative_eigenvalues(bb.ModelParams(n, 1.0 / g.s, 0.0), tol=0.0)
    assert [r.z for r in recs if r.origin == "delta_s"] == [g.z]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_split_point_on_the_ladder_takes_its_place(n):
    # z0 = n - mu = -8 lies at the ladder point u = ln 8, where -exp(u) is
    # -8 + 1.8e-15 and H reads > 0 once lam is large; the scan holds only
    # H(z0) = -n there, and both delta_r roots are located
    params = bb.ModelParams(n, 1e16, n + 8.0)
    k = classify._LADDER.index(math.log(8.0))
    assert classify._factor_at(params, "delta_r", _scalar_greens(n)[k]) > 0.0
    summary = _check_two_delta_r_roots(params)
    roots = [r.z for r in summary.eigenvalues if r.origin == "delta_r"]
    assert roots[0] < -8.0 <= roots[1]


def _sign_table_hexes(exc):
    return [(z.hex(), f.hex()) for z, f in exc.sign_table]


def test_a_second_walk_past_the_ladder_evaluates_nothing():
    # the delta_r zero of both lies closer to the band edge than exp(-700):
    # a walk after another one, over the same 9 near step points of n = 2,
    # fails as one from fresh evaluations does, and its sign table holds
    # fresh values; so does one over a ladder record stacked from scalar
    # calls in place of the committed one
    params = bb.ModelParams(2, 5.0, 2.5002)
    with pytest.raises(bb.RootScanError):
        bb.negative_eigenvalues(bb.ModelParams(2, 5.0, 2.5001), tol=0.0)
    with pytest.raises(bb.RootScanError) as warm:
        bb.negative_eigenvalues(params, tol=0.0)
    table = warm.value.sign_table
    assert len(table) == 10 and table[-1][0] == -math.exp(classify._U_NEAR)
    fresh = [classify._factor_at(params, "delta_r", bb.green_values(2, z)) for z, _ in table]
    assert [f.hex() for _, f in table] == _hexes(fresh)
    with mock.patch.dict(green._LADDER_RECORDS, {2: _stacked(2, _scalar_greens(2))}), \
            pytest.raises(bb.RootScanError) as cold:
        bb.negative_eigenvalues(params, tol=0.0)
    assert str(warm.value) == str(cold.value)
    assert _sign_table_hexes(warm.value) == _sign_table_hexes(cold.value)


@pytest.mark.parametrize("n, lam, mu", [(1, 2e15, 1e15 + 2.0),    # past the far end
                                        (3, 1e14, 3.0 + 1e-13)])   # past the near end
def test_walks_from_the_split_point_keep_nothing(n, lam, mu):
    # z0 = n - mu lies past an end of the ladder, so a walk starts there; its
    # points depend on mu and are evaluated afresh
    u_split = math.log(-(n - mu))
    first = u_split + math.copysign(classify._STRIDE, u_split)
    with mock.patch.object(classify, "_values", wraps=classify._values) as counted:
        bb.summarize(bb.ModelParams(n, lam, mu), tol=0.0)
    assert (n, -math.exp(first)) in [c.args for c in counted.call_args_list]


@pytest.mark.parametrize("n", range(3, 10))
def test_past_the_switch_every_factor_is_its_edge_limit(n):
    # at n >= 3 the Green values past the engine's reach are the z = 0
    # values, and n - z rounds to n there, so every factor equals, bit for
    # bit, its limit as z -> 0-, the value _roots holds the near end
    # against: a near walk ends by its first step past the switch
    consts = bb.spectral_constants(n)
    switch = green._switch(n)
    zs = [math.nextafter(switch, 0.0), *(-math.exp(u) for u in (-187.7, -400.0, -700.0))]
    greens = [bb.green_values(n, z) for z in zs]
    rng = random.Random(n)
    for _ in range(300):
        params = bb.ModelParams(n, rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))
        limits = {
            "delta_r": hyperbola_limit(n, params.lam, params.mu, consts.x_asymptote),
            "delta_c": classify._factor_at(params, "delta_c", consts.greens0),
            "delta_s": classify._factor_at(params, "delta_s", consts.greens0)}
        for origin, limit in limits.items():
            assert [classify._factor_at(params, origin, g).hex() for g in greens] \
                == [limit.hex()] * len(zs), (params, origin)


def _bits(g):
    return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(g)]


def test_one_green_evaluation_per_root():
    # the open cells at n = 1..4 hold delta_r roots in G1 and G2 (the deeper
    # G2 root polished from the split point z = n - mu), delta_c in C+ and
    # delta_s in S+; eigenstates and residual reuse brentq's values there
    origins, split = set(), False
    for n in (1, 2, 3, 4):
        for _name, (lam, mu) in open_region_points(n):
            params = bb.ModelParams(n, lam, mu)
            with mock.patch.object(classify, "_polish", wraps=classify._polish) as spy:
                summary = bb.summarize(params)
            split |= any(c.kwargs.get("split") for c in spy.call_args_list)
            with mock.patch.object(green, "laplace_integrals",
                                   wraps=green.laplace_integrals) as laplace:
                for rec in summary.eigenvalues:
                    assert rec.greens is not None and rec.greens.z == rec.z
                    for state in bb.eigenstates(summary.snapped, rec):
                        assert state.greens is rec.greens
                        assert bb.residual(summary.snapped, state) <= 1e-8
                assert laplace.call_count == 0, (n, lam, mu)
            for rec in summary.eigenvalues:
                origins.add(rec.origin)
                assert _bits(rec.greens) == _bits(bb.green_values(n, rec.z))
    assert split and origins == {"delta_r", "delta_c", "delta_s"}


_PROBE_POINTS = [(n, lam, mu) for n in (1, 2, 3, 4)
                 for _name, (lam, mu) in open_region_points(n)] + [
    (2, 3.0, 3.003),          # a root below u = -45: its probes read edge records
    (1, 2e12, 1e12 + 2.0),    # a root polished from the split point
    (9, 12.0, 9.75),          # no committed ladder: every root at n = 9
]


def test_every_probe_is_one_values_call_and_builds_no_record():
    # green._values decides which source serves every probe: each brentq
    # evaluation away from the bracket ends is one classify._values call at
    # a float z, builds no GreenValues (counted at its constructor, which
    # builds every record of green and classify) and reads the Green table
    # (green._table) once exactly when 2 <= n <= 8 and z lies in the
    # table's range; else the engine or an edge record serves it (n = 1,
    # n = 9 and u < -8).  A float green_values call in the range reads the
    # table once too
    probes, brentq, built = [], classify.brentq, []
    init = green.GreenValues.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_brentq(f, a, b):
        def probe(x):
            before = (values.call_count, table.call_count, len(built))
            value = f(x)
            probes.append((x in (a, b), values.call_args_list[before[0]:],
                           table.call_args_list[before[1]:], len(built) - before[2]))
            return value
        return brentq(probe, a, b)
    with mock.patch.object(classify, "_values", wraps=classify._values) as values, \
            mock.patch.object(green, "_table", wraps=green._table) as table, \
            mock.patch.object(green.GreenValues, "__init__", counting_init), \
            mock.patch.object(classify, "brentq", counting_brentq):
        for n, lam, mu in _PROBE_POINTS:
            for rec in bb.summarize(bb.ModelParams(n, lam, mu)).eigenvalues:
                assert rec.greens is None or type(rec.greens) is bb.GreenValues
    assert built   # the roots' records, each built after its brentq call
    assert all(calls == read == [] and records == 0
               for at_end, calls, read, records in probes if at_end)
    inner = [probe[1:] for probe in probes if not probe[0]]
    assert all(len(calls) == 1 and type(calls[0].args[1]) is float and records == 0
               for calls, read, records in inner)
    served = [read for calls, read, records in inner if not read]
    assert len(served) >= 120 and len(inner) - len(served) >= 250
    for calls, read, records in inner:
        n, z = calls[0].args
        if 1 < n <= 8 and green._TABLE_FAR <= z <= green._TABLE_NEAR:
            assert read == [mock.call(n, z)]
        else:
            assert read == []
    with mock.patch.object(green, "_table", wraps=green._table) as table:
        for n in range(2, 9):
            for z in (green._TABLE_FAR, -1.0, green._TABLE_NEAR):
                table.reset_mock()
                bb.green_values(n, z)
                assert table.call_args_list == [mock.call(n, z)]
            bb.green_values(n, green._LADDER_Z)   # the committed ladder
            assert table.call_count == 1


def _straddling_zs() -> list[float]:
    """Adjacent doubles z on either side of each inner edge of the Green
    table in u = ln(-z), as a probe computes u; both ends of its range and
    one ulp past each."""
    zs = []
    for edge in green._TABLE_EDGES[1:-1]:
        z = -math.exp(edge)
        while math.log(-z) >= edge:
            z = math.nextafter(z, 0.0)
        while math.log(-z) < edge:
            below, z = z, math.nextafter(z, -math.inf)
        zs += [below, z]
    far, near = green._TABLE_FAR, green._TABLE_NEAR
    return zs + [math.nextafter(far, -math.inf), far, near, math.nextafter(near, 0.0)]


_STRADDLING_ZS = _straddling_zs()


def _polish_probes(params, origin, z_a, w, split):
    """(z, offset, value) of every probe of one ``_polish`` from z_a over
    [0, w] in v with ends of sign -1 and +1, the first at v = 1e-300,
    where z = z_a exactly, and its returned pair."""
    seen, brentq = [], classify.brentq

    def probing_brentq(f, a, b):
        def probe(v):
            value = f(v)
            if v not in (a, b):
                seen.append((z_a * math.exp(v),
                             z_a * math.expm1(v) if split else None, value))
            return value
        probe(1e-300)
        return brentq(probe, a, b)
    with mock.patch.object(classify, "brentq", probing_brentq):
        pair = classify._polish(params, origin, z_a, -1.0, w, 1.0, split=split)
    assert seen[0][0] == z_a
    return seen, pair


def _check_probes(params, z_a) -> int:
    """Hold every probe of ``_polish`` from z_a, on each factor, split and
    plain, to ``_factor`` of ``green_values``; the count of root records."""
    records = 0
    for origin in classify._multiplicities(params.n):
        for w, split in ((0.25, False), (-0.25, True)):
            seen, (z, g) = _polish_probes(params, origin, z_a, w, split)
            for z_probe, offset, value in seen:
                want = bb.green_values(params.n, z_probe)
                assert value.hex() == classify._factor(
                    params, origin, z_probe, want.a, want.b, want.cd, want.s,
                    offset).hex(), (params, origin, split, z_probe)
            if g is not None:   # else the zero is an end of the bracket
                assert _bits(g) == _bits(bb.green_values(params.n, z))
                records += 1
    return records


@pytest.mark.parametrize("n", range(2, 9))
def test_table_probes_straddling_each_edge_are_the_factor_of_green_values(n):
    # the probe's scaled rows, unscaled for what its factor reads, against
    # _factor of the green_values record at the same z, bit for bit, on
    # either side of each piece edge and of both range ends, for split and
    # plain brackets and every factor; the root's record is green_values'
    params = bb.ModelParams(n, 7.0, 2.0 * n + 0.5)
    assert sum(_check_probes(params, z_a) for z_a in _STRADDLING_ZS) >= 50


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), u=st.floats(-9.0, 28.5), lam=st.floats(-20.0, 20.0),
       mu=st.floats(-20.0, 20.0))
def test_table_probes_are_the_factor_of_green_values(n, u, lam, mu):
    # as above at u = ln(-z) drawn over every piece of the table and just
    # past its near end
    _check_probes(bb.ModelParams(n, lam, mu), -math.exp(u))


@pytest.mark.parametrize("row, name", [(0, "a"), (1, "b"), (2, "c"), (4, "s"), (5, "cd")])
def test_a_table_probe_that_is_not_positive_raises_as_green_values(monkeypatch, row, name):
    # one row of the n = 3 table negated: the first probe inside brentq
    # raises the QuadratureError green_values raises at its z, whichever
    # factor reads the values
    negated = [block.copy() for block in green._PIECES[1]]
    for block in negated:
        block[row] *= -1.0
    monkeypatch.setattr(green, "_PIECES", (green._PIECES[0], tuple(negated), *green._PIECES[2:]))
    params, z_a = bb.ModelParams(3, 7.0, 1.0), -0.75
    for origin in classify._multiplicities(3):
        seen, brentq = [], classify.brentq

        def recording_brentq(f, a, b):
            return brentq(lambda v: seen.append(v) or f(v), a, b)
        with mock.patch.object(classify, "brentq", recording_brentq), \
                pytest.raises(bb.QuadratureError) as got:
            classify._polish(params, origin, z_a, -1.0, 0.25, 1.0)
        assert f"integral {name}=" in str(got.value)
        with pytest.raises(bb.QuadratureError) as want:
            bb.green_values(3, z_a * math.exp(seen[-1]))
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("lam, mu", [(2.2422420927874116, 3.8433599828715783),
                                     (1.4762676082180057, 7.566487616769711),
                                     (-2.2846028054999072, 1.4132294927548557)])
def test_shallow_roots_are_polished_relative_to_z(lam, mu):
    # roots at -1.5e-9 .. -1.5e-12: an absolute z tolerance of 1e-13 left
    # residuals of 4e-8 .. 1.4e-6 here
    params = bb.ModelParams(2, lam, mu)
    for rec in bb.negative_eigenvalues(params):
        for state in bb.eigenstates(params, rec):
            assert bb.residual(params, state) <= 1e-12


def test_roots_beyond_the_far_end_of_the_ladder():
    recs = bb.negative_eigenvalues(bb.ModelParams(1, 0.0, 1e13))
    exact = 1.0 - math.sqrt(1.0 + 1e26)
    assert [r.origin for r in recs] == ["delta_r"]
    assert abs(recs[0].z - exact) <= 8 * np.finfo(float).eps * abs(exact)
    s = bb.summarize(bb.ModelParams(2, 1e13, 0.0))
    assert s.cell == "D4" and s.negative_count == 4
    assert all(r.z < -2.0 ** 40 for r in s.eigenvalues)


@pytest.mark.parametrize("lam, mu", [(2.7455470241080815, 3.181688302548988),
                                     (0.7201685354082938, -3.810632157729944)])
def test_deep_square_lattice_roots_against_mpmath(lam, mu):
    # delta_r roots at about -1.33e-26 and -4.39e-22, against a zero of
    # H_z = (lam - a/b)(mu - 2 + z) - 2 with a = 2 K(m)/(pi (2 - z)) and
    # b = a - (1 + z a)/2 at 60 digits; K = pi/(2 AGM(1, sqrt(1 - m))) is
    # fed 1 - m = -z(4 - z)/(2 - z)^2, so m next to 1 keeps its digits
    params = bb.ModelParams(2, lam, mu)
    rec = min((r for r in bb.negative_eigenvalues(params, tol=0.0)
               if r.origin == "delta_r"), key=lambda r: -r.z)
    assert -1e-21 < rec.z < -1e-27
    with mp.workdps(60):
        def h(u):
            z = -mp.exp(u)
            k = mp.pi / (2 * mp.agm(1, mp.sqrt(-z * (4 - z) / (2 - z) ** 2)))
            a = 2 * k / (mp.pi * (2 - z))
            b = a - (1 + z * a) / 2
            return (lam - a / b) * (mu - 2 + z) - 2

        exact = -mp.exp(mp.findroot(h, mp.log(-mp.mpf(rec.z))))
        assert abs((rec.z - exact) / exact) <= 1e-13


def test_root_past_the_engine_far_limit_is_a_typed_error():
    limit = re.escape(repr(2.0 ** 510))
    with pytest.raises(bb.RootScanError, match=limit) as info:
        bb.negative_eigenvalues(bb.ModelParams(1, 0.0, 1e200))
    assert info.value.sign_table[-1][0] >= -(2.0 ** 510)
    # in G2 the split point z = n - mu itself lies past the limit
    with pytest.raises(bb.RootScanError, match=limit) as info:
        bb.negative_eigenvalues(bb.ModelParams(1, 3e200, 1e200))
    assert info.value.sign_table == [(1.0 - 1e200, -1.0)]


def test_snapping_tolerance_must_be_finite_and_nonnegative():
    params = bb.ModelParams(2, 4.0, 3.0)
    for tol in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="snapping tolerance"):
            bb.snap_params(params, tol)
        with pytest.raises(ValueError, match="snapping tolerance"):
            bb.compare(params, [4], tol=tol)
    assert bb.classify_even(params, tol=0.0).curve == "G2"


@pytest.mark.xfail(strict=True, reason="_factor forms mu - (n - z), and n - z drops "
                   "the low bits of z (all of them once |z| < ulp(n)/2); ROADMAP item 6")
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [-1e10, -1e14, -1e20])
def test_the_delta_r_root_at_mu_n_is_relative_to_z(n, lam):
    # at mu = n, H_z = (lam - a/b) z - n vanishes at the fixed point
    # z = n/(lam - a/b(z)), which a few iterations reach to rounding, since
    # a/b is O(1) beside |lam|.  Today the located root misses it by 1e-6
    # (lam = -1e10) up to 1.1e4 (lam = -1e20, -2.2e-16 for -3e-20 at
    # n = 3); the form (mu - n) + z holds all 12 to 4.4e-15
    z = n / lam
    for _ in range(8):
        z = n / (lam - bb.green_values(n, z).ratio_ab)
    params = bb.ModelParams(n, lam, float(n))
    (root,) = [r.z for r in bb.negative_eigenvalues(params) if r.origin == "delta_r"]
    assert abs(root / z - 1.0) <= 1e-12, (root, z)


def test_roots_polished_to_tolerance():
    # delta_r root against the analytic chain solution mu a(z) = 1
    recs = bb.negative_eigenvalues(bb.ModelParams(1, 0.0, 0.7))
    z = recs[0].z
    # solve 0.7/sqrt(-z(2-z)) = 1 -> z^2 - 2z - 0.49 = 0
    exact = 1.0 - math.sqrt(1.49)
    assert z == pytest.approx(exact, abs=1e-10)


# classify.brentq is a port of scipy's C brentq at xtol = rtol = 4 eps and
# maxiter = 200, kept out of scipy.optimize so that root location does not
# load it; both must agree bit for bit
_SCIPY_KW = dict(xtol=4 * np.finfo(float).eps, rtol=4 * np.finfo(float).eps, maxiter=200)
_SHAPES = {
    "linear": lambda x, r, c: c * (x - r),
    "cubic": lambda x, r, c: (x - r) ** 3 + c * (x - r),
    "fifth": lambda x, r, c: c * (x - r) ** 5,
    "atan": lambda x, r, c: math.atan(c * (x - r)),
    "exp": lambda x, r, c: math.expm1(c * (x - r) / 1e3),
    "tiny": lambda x, r, c: 1e-200 * math.tanh(c * (x - r)),  # products underflow
}


def _outcome(solver, f, a, b, **kw):
    try:
        return solver(f, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from(sorted(_SHAPES)),
       r=st.floats(-50.0, 50.0), c=st.floats(1e-3, 1e3),
       below=st.floats(0.0, 100.0), above=st.floats(0.0, 100.0),
       flip=st.booleans())
def test_brentq_port_matches_scipy_bit_for_bit(shape, r, c, below, above, flip):
    from scipy.optimize import brentq as scipy_brentq

    f = lambda x: _SHAPES[shape](x, r, c)
    a, b = (r - below, r + above) if not flip else (r + above, r - below)
    assert _outcome(classify.brentq, f, a, b) == _outcome(scipy_brentq, f, a, b, **_SCIPY_KW)


def test_brentq_port_keeps_the_scipy_input_contract():
    from scipy.optimize import brentq as scipy_brentq

    cases = [
        (lambda x: x + 1.0, 0.0, 1.0),                       # same sign
        (lambda x: math.nan if x > 0.4 else x - 0.5, 0.0, 1.0),
        (lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0),
        # a step at 1e-300: only bisection narrows it, and 200 halvings of
        # 1e300 leave it far wider than 4 eps
        (lambda x: 1.0 if x > 1e-300 else -1.0, -1e300, 1e300),  # exhausted
    ]
    for f, a, b in cases:
        expected = _outcome(scipy_brentq, f, a, b, **_SCIPY_KW)
        assert isinstance(expected, type), (a, b)
        assert _outcome(classify.brentq, f, a, b) is expected, (a, b)
    assert _outcome(classify.brentq, *cases[-1]) is RuntimeError
    # an end that is a zero is returned as it is, before the sign check
    assert classify.brentq(lambda x: x, 0.0, 1.0) == 0.0
    assert classify.brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_multiplicity_bookkeeping_highest_cell(consts):
    for n in (2, 3):
        name = f"D{2 * n + 1}"
        lam, mu = dict(open_region_points(n))[name]
        recs = bb.negative_eigenvalues(bb.ModelParams(n, lam, mu))
        by_origin = {}
        for r in recs:
            by_origin[r.origin] = by_origin.get(r.origin, 0) + r.multiplicity
        assert by_origin == {"delta_r": 2, "delta_c": n - 1, "delta_s": n}
        assert sum(r.multiplicity for r in recs) == 2 * n + 1


def test_summarize_counts_match_table(consts):
    for n in (1, 2, 3):
        for name, (lam, mu) in open_region_points(n):
            s = bb.summarize(bb.ModelParams(n, lam, mu))
            assert s.cell == name
            assert s.negative_count == int(name[1:])
            assert s.essential_spectrum == (0.0, 2.0 * n)


def test_summarize_on_curves(consts):
    n = 2
    c = consts[n]
    lam, mu = curve_point(n, "right", c.x_asymptote + 1.0)
    s = bb.summarize(bb.ModelParams(n, lam, mu))
    assert s.cell == "B1" and s.negative_count == 1
    s = bb.summarize(bb.ModelParams(n, c.lambda_s, 1.0))
    assert s.cell == "S1" and s.negative_count == 1


def test_all_summary_states_have_small_residuals(consts):
    params = bb.ModelParams(3, consts[3].lambda_c + 1.5,
                            dict(open_region_points(3))["D7"][1])
    s = bb.summarize(params)
    for rec in s.eigenvalues:
        for state in bb.eigenstates(params, rec):
            assert bb.residual(params, state) <= 1e-8
    for entry in s.threshold.entries:
        for state in entry.states:
            assert bb.residual(params, state) <= 1e-8


# ---------------------------------------------------------------------------
# threshold reports
# ---------------------------------------------------------------------------

def test_threshold_report_chain():
    rep = bb.threshold_report(bb.ModelParams(1, 1.0, 0.3))
    assert rep.kind == "super-threshold-resonance"
    assert rep.multiplicity("super-threshold-resonance") == 1
    assert rep.entries[0].sector == "odd"
    assert rep.entries[0].formula == "sake"
    # off the line: nothing, including on the hyperbola
    assert bb.threshold_report(bb.ModelParams(1, 0.0, 0.0)).kind == "none"
    assert bb.threshold_report(bb.ModelParams(1, 3.0, 1.5)).kind == "none"


def test_threshold_report_square_lattice(consts):
    c = consts[2]
    rep = bb.threshold_report(bb.ModelParams(2, c.lambda_c, 1.0))
    assert rep.kind == "threshold-eigenvalue"
    assert rep.multiplicity("threshold-eigenvalue") == 1
    assert rep.entries[0].formula == "z2"
    # hyperbola curves carry nothing for n = 2
    lam, mu = curve_point(2, "right", 2.0)
    assert bb.threshold_report(bb.ModelParams(2, lam, mu)).kind == "none"
    # odd line: resonance of multiplicity 2
    rep = bb.threshold_report(bb.ModelParams(2, c.lambda_s, 0.0))
    assert rep.kind == "threshold-resonance"
    assert rep.multiplicity("threshold-resonance") == 2


def test_threshold_report_cubic_and_up(consts):
    g3 = consts[3].greens0
    rep = bb.threshold_report(bb.ModelParams(3, 0.0, 1.0 / g3.a))
    assert rep.kind == "threshold-resonance"
    assert rep.entries[0].formula == "z1"
    assert rep.multiplicity("threshold-resonance") == 1
    lam, mu = curve_point(3, "right", 4.0)
    rep = bb.threshold_report(bb.ModelParams(3, lam, mu))
    assert rep.entries[0].formula == "z0"
    g5 = consts[5].greens0
    rep = bb.threshold_report(bb.ModelParams(5, 0.0, 1.0 / g5.a))
    assert rep.kind == "threshold-eigenvalue"


def test_threshold_kind_flip_happens_at_n5(consts):
    kinds = {}
    for n in (3, 4, 5):
        g = consts[n].greens0
        rep = bb.threshold_report(bb.ModelParams(n, 0.0, 1.0 / g.a))
        kinds[n] = rep.kind
    assert kinds == {3: "threshold-resonance", 4: "threshold-resonance",
                     5: "threshold-eigenvalue"}
    # repeated even states are eigenvalues for every n >= 2
    for n in (2, 3, 4):
        c = consts[n]
        rep = bb.threshold_report(bb.ModelParams(n, c.lambda_c, 0.0))
        entry = [e for e in rep.entries if e.sector == "even"][0]
        assert entry.kind == "threshold-eigenvalue"
        assert entry.multiplicity == n - 1
    # odd states: resonance only at n = 2, eigenvalue for n >= 3
    for n, want in [(2, "threshold-resonance"), (3, "threshold-eigenvalue"),
                    (4, "threshold-eigenvalue")]:
        c = consts[n]
        rep = bb.threshold_report(bb.ModelParams(n, c.lambda_s, 0.0))
        entry = [e for e in rep.entries if e.sector == "odd"][0]
        assert entry.kind == want and entry.multiplicity == n


# The paper's table of band-edge states, by determinant factor: the kind
# at dimension n, the sector and the multiplicity.  delta_r (on Gamma_l and
# Gamma_r, n >= 3) is a resonance at n = 3, 4 and an eigenvalue from n = 5;
# delta_c (on lambda_c, n >= 2) is an eigenvalue; delta_s (on lambda_s) is
# a super-threshold resonance at n = 1, a resonance at n = 2 and an
# eigenvalue from n = 3.
def _papers_entry(origin, n):
    if origin == "delta_r":
        kind = "threshold-resonance" if n <= 4 else "threshold-eigenvalue"
        return kind, "even", 1
    if origin == "delta_c":
        return "threshold-eigenvalue", "even", n - 1
    kind = {1: "super-threshold-resonance", 2: "threshold-resonance"}.get(
        n, "threshold-eigenvalue")
    return kind, "odd", n


_ORIGIN_OF_FORMULA = {"z0": "delta_r", "z1": "delta_r", "z2": "delta_c", "sake": "delta_s"}


def _edge_entries(n, lam, mu):
    """The threshold report at (lam, mu) as {origin: (kind, sector, multiplicity)}."""
    out = {}
    for e in bb.threshold_report(bb.ModelParams(n, lam, mu)).entries:
        origin = _ORIGIN_OF_FORMULA[e.formula]
        assert origin not in out
        out[origin] = (e.kind, e.sector, e.multiplicity)
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(t=st.floats(-13.0, 3.0), side=st.sampled_from((-1.0, 1.0)))
@example(t=-11.5, side=1.0)
@example(t=-12.5, side=-1.0)
def test_every_edge_state_has_the_papers_kind(t, side):
    # mu = n + side 10^t at n = 1..8: on the limiting hyperbola, lam = X +
    # n/(mu - n) lies on Gamma_r (side > 0) or Gamma_l (side < 0), out to
    # |lam| ~ 1e13 with mu within 1e-13 of n; on the lambda_c and lambda_s
    # lines mu is that value too
    for n in range(1, 9):
        c = bb.spectral_constants(n)
        mu = n + side * 10.0 ** t
        lines = {"hyperbola": c.x_asymptote + n / (mu - n), "lambda_s": c.lambda_s}
        if n >= 2:
            lines["lambda_c"] = c.lambda_c
        for line, lam in lines.items():
            entries = _edge_entries(n, lam, mu)
            must = {"hyperbola": "delta_r" if n >= 3 else None,
                    "lambda_c": "delta_c", "lambda_s": "delta_s"}[line]
            assert must is None or must in entries, (n, line, lam, mu)
            for origin, got in entries.items():
                assert got == _papers_entry(origin, n), (n, line, lam, mu, origin)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("rel", [1e-11, 3e-12, 1e-12, 3e-13, 1e-13])
def test_delta_r_is_a_resonance_with_mu_next_to_n(n, rel):
    # mu = n (1 +- rel) on both branches: |lam| = 3e10 to 1e13, where the
    # terms of phi(0) cancel to 1e-11 to 1e-13 of their size
    x = bb.spectral_constants(n).x_asymptote
    for mu in (n * (1.0 + rel), n * (1.0 - rel)):
        lam = x + n / (mu - n)
        assert _edge_entries(n, lam, mu)["delta_r"][0] == "threshold-resonance"


@pytest.mark.parametrize("n, lam, mu, cell", [
    (3, 999911107323.2065, 3.0000000000030003, "B6"),
    (4, 10007999171939.611, 4.0000000000004, "B8"),
])
def test_the_large_coupling_hyperbola_points_report_a_resonance(n, lam, mu, cell):
    s = bb.summarize(bb.ModelParams(n, lam, mu))
    assert s.cell == cell and s.even.curve == "Gamma_r"
    assert s.threshold.kind == "threshold-resonance"
    assert [e.formula for e in s.threshold.entries] == ["z0"]


def test_point_reports(consts):
    n = 3
    c = consts[n]
    lam, mu = curve_point(n, "right", c.lambda_c)
    s = bb.summarize(bb.ModelParams(n, lam, mu))
    assert s.cell == "B" and s.negative_count == n + 1
    assert s.threshold.multiplicity("threshold-resonance") == 1
    assert s.threshold.multiplicity("threshold-eigenvalue") == n - 1
    lam, mu = curve_point(n, "right", c.lambda_s)
    s = bb.summarize(bb.ModelParams(n, lam, mu))
    assert s.cell == "A" and s.negative_count == 1
    assert s.threshold.multiplicity("threshold-resonance") == 1
    assert s.threshold.multiplicity("threshold-eigenvalue") == n


def test_super_threshold_only_chain_odd(consts):
    # scan the label set: no super-threshold entry occurs for n >= 2
    for n in (2, 3):
        c = consts[n]
        for lam in (c.lambda_s, c.lambda_c, 0.0):
            rep = bb.threshold_report(bb.ModelParams(n, lam, 1.0))
            assert rep.multiplicity("super-threshold-resonance") == 0


def test_asymptote_line_has_single_eigenvalue(consts):
    # on the vertical asymptote lambda = X the even count is exactly one
    # for every mu (the line never meets the hyperbola); odd/repeated
    # sectors stay empty since X < lambda_s < lambda_c
    for n in (1, 2, 3):
        lam = consts[n].x_asymptote
        if n == 1:
            # lambda = X = lambda_s for the chain: the S0 line itself
            for mu in (-3.0, 0.0, 2.0, 7.0):
                s = bb.summarize(bb.ModelParams(1, lam, mu))
                assert s.negative_count == 1
                assert s.threshold.kind == "super-threshold-resonance"
            continue
        for mu in (-3.0, 0.0, 2.0, 7.0):
            s = bb.summarize(bb.ModelParams(n, lam, mu))
            assert s.negative_count == 1
            assert s.cell == "D1"
