"""Region taxonomy, eigenvalue counts, threshold reports, summaries."""

import math
import zlib

import numpy as np
import pytest

import belowband as bb
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


def test_refinement_separates_two_roots_in_one_ladder_octave():
    # cell D3: both delta_r roots lie between the ladder points -4 and -2,
    # so only the 16-fold refinement of the ladder brackets them
    lam, mu = 6.670781442439379, 4.576186898905469
    params = bb.ModelParams(1, lam, mu)

    def exact_h(z):
        g = bb.closed_form_green1(z)
        return (lam - g.a / g.b) * (mu - (1.0 - z)) - 1.0

    assert exact_h(-4.0) > 0.0 and exact_h(-2.0) > 0.0
    summary = bb.summarize(params, tol=0.0)
    assert summary.cell == "D3"
    roots = [r.z for r in summary.eigenvalues if r.origin == "delta_r"]
    assert roots == pytest.approx([-3.905447808022, -2.083701806657], abs=1e-10)
    for z in roots:
        assert abs(exact_h(z)) < 1e-12


def test_roots_polished_to_tolerance():
    # delta_r root against the analytic chain solution mu a(z) = 1
    recs = bb.negative_eigenvalues(bb.ModelParams(1, 0.0, 0.7))
    z = recs[0].z
    # solve 0.7/sqrt(-z(2-z)) = 1 -> z^2 - 2z - 0.49 = 0
    exact = 1.0 - math.sqrt(1.49)
    assert z == pytest.approx(exact, abs=1e-10)


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
