"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import belowband as bb
from belowband import classify, states
from conftest import open_region_points
from reference import (
    closed_form_a3,
    dense_spectrum,
    integrability_probe,
    probe_verdict,
    trapezoid,
    watson_a0,
)


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {num}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def test_criterion_1_chain_closed_form():
    with criterion(1, "n=1 quadrature matches the exact closed form", 1.0):
        for z in (-0.1, -1.0, -10.0):
            exact = 1.0 / (math.sqrt(-z) * math.sqrt(2.0 - z))
            assert bb.green_values(1, z).a == pytest.approx(exact, rel=1e-8)
            assert trapezoid(1, z)["a"] == pytest.approx(exact, rel=1e-8)


def test_criterion_2_identity_suite():
    with criterion(2, "integral identities hold to 1e-9 for n=1..4", 30.0):
        zs = [-float(z) for z in np.geomspace(1e-4, 50.0, 20)]
        for n in (1, 2, 3, 4):
            for z in zs:
                g = bb.green_values(n, z)
                assert abs(g.a - g.b - (1.0 + z * g.a) / n) <= 1e-9
                assert abs(g.alpha - (n - z) * g.b) <= 1e-9
                assert abs(g.gamma - g.b) <= 1e-9
                if n == 1:
                    assert abs(g.a * g.s - g.b) <= 1e-9
                    assert abs(g.s - (1.0 + z * (g.a + g.b))) <= 1e-9


def test_criterion_3_determinant_factorization():
    # the solver's factors: delta_r = b H_z and delta_c = (lam (c - d) - 1)^(n-1)
    with criterion(3, "det(G_e - I) = delta_r * delta_c on random samples", 60.0):
        for n in (2, 3, 4):
            rng = np.random.default_rng(4000 + n)
            for _ in range(200):
                lam, mu = (float(x) for x in rng.uniform(-5.0, 5.0, size=2))
                z = -float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
                params = bb.ModelParams(n, lam, mu)
                g = bb.green_values(n, z)
                direct = float(np.linalg.det(
                    states._even_matrix(params, g) - np.eye(n + 1)))
                product = g.b * classify._factor_at(params, "delta_r", g) \
                    * classify._factor_at(params, "delta_c", g) ** (n - 1)
                assert abs(direct - product) <= \
                    1e-8 * max(abs(direct), abs(product), 1e-6)


def test_criterion_4_chain_even_fixture():
    with criterion(4, "n=1 (0,1): z = 1 - sqrt(2) from classifier and oracle", 10.0):
        params = bb.ModelParams(1, 0.0, 1.0)
        exact = 1.0 - math.sqrt(2.0)
        recs = bb.negative_eigenvalues(params)
        assert len(recs) == 1
        assert abs(recs[0].z - exact) <= 1e-9
        spec = dense_spectrum(bb.build_hamiltonian(1, 500, 0.0, 1.0), 1)
        assert abs(spec.eigenvalues[0] - exact) <= 1e-6


def test_criterion_5_chain_odd_fixture():
    with criterion(5, "n=1 lam=2 odd root -1/4; lambda_s(1) = 1", 10.0):
        recs = bb.negative_eigenvalues(bb.ModelParams(1, 2.0, 0.25))
        odd = [r for r in recs if r.origin == "delta_s"]
        assert len(odd) == 1
        assert abs(odd[0].z - (-0.25)) <= 1e-9
        assert abs(bb.spectral_constants(1).lambda_s - 1.0) <= 1e-12


def test_criterion_6_region_counts_against_oracle():
    with criterion(6, "oracle eigenvalue counts match the region tables", 600.0):
        ladders = {1: (40, 60), 2: (12, 16), 3: (10, 12), 4: (6, 8)}
        for n in ladders:
            for cell, (lam, mu) in open_region_points(n):
                params = bb.ModelParams(n, lam, mu)
                summary = bb.summarize(params, tol=0.0)
                assert summary.cell == cell
                rep = bb.compare(params, ladders[n], theta=-1e-3, tol=0.0)
                assert rep.predicted_count == summary.negative_count
                assert rep.counts_agree, (n, cell, rep.oracle_factor_counts)
                for L, count in rep.oracle_counts.items():
                    assert count == summary.negative_count, (n, cell, L)


def test_criterion_7_threshold_taxonomy():
    with criterion(7, "threshold kinds and the chain super-threshold probe", 60.0):
        g3 = bb.spectral_constants(3).greens0
        rep = bb.threshold_report(bb.ModelParams(3, 0.0, 1.0 / g3.a))
        assert rep.kind == "threshold-resonance"
        assert rep.multiplicity("threshold-resonance") == 1

        g5 = bb.spectral_constants(5).greens0
        rep = bb.threshold_report(bb.ModelParams(5, 0.0, 1.0 / g5.a))
        assert rep.kind == "threshold-eigenvalue"

        lc2 = bb.spectral_constants(2).lambda_c
        rep = bb.threshold_report(bb.ModelParams(2, lc2, 1.0))
        assert rep.kind == "threshold-eigenvalue"
        assert rep.multiplicity("threshold-eigenvalue") == 1

        rep = bb.threshold_report(bb.ModelParams(1, 1.0, 0.0))
        assert rep.kind == "super-threshold-resonance"
        state = rep.entries[0].states[0]
        half = integrability_probe(state, 0.5, exponents=range(4, 13))
        ell1 = integrability_probe(state, 1.0, exponents=range(4, 13))
        assert probe_verdict(half) == "bounded"
        assert probe_verdict(ell1) == "divergent"
        inc = np.diff(ell1)
        # log divergence: near-equal growth for each halving of the radius
        assert np.all(inc > 0.8 * inc[0])


def test_criterion_8_watson_constant_cross_check():
    with criterion(8, "a(0) in 3d by two independent methods", 10.0):
        laplace = bb.green_threshold(3).a
        elliptic = closed_form_a3(0.0)
        assert abs(laplace - elliptic) / laplace <= 1e-6
        assert abs(laplace - 0.5054620) <= 1e-6 + 1e-7
        assert abs(elliptic / float(watson_a0()) - 1) <= 1e-12


def test_criterion_9_coupling_ordering():
    with criterion(9, "lambda_inf(0) <= lambda_s <= lambda_c for n=2,3,4", 10.0):
        for n in (2, 3, 4):
            c = bb.spectral_constants(n)
            assert c.x_asymptote <= c.lambda_s <= c.lambda_c


def test_criterion_10_monotonicity_and_limits():
    with criterion(10, "monotonicity, positivity and ratio limits on z-ladders", 60.0):
        ladder = [-float(z) for z in np.geomspace(1e-6, 1e4, 25)][::-1]
        for n in (1, 2, 3, 4):
            rows = [bb.green_values(n, z) for z in ladder]
            for name in ("a", "b", "s"):
                vals = [getattr(g, name) for g in rows]
                assert all(v > 0.0 for v in vals)
                assert all(x < y for x, y in zip(vals, vals[1:]))
            if n >= 2:
                cds = [g.cd for g in rows]
                assert all(v > 0.0 for v in cds)
                assert all(x < y for x, y in zip(cds, cds[1:]))
            ratios = [g.ratio_ab for g in rows]
            assert all(x > y for x, y in zip(ratios, ratios[1:]))
            assert ratios[0] > 1e3          # z = -1e4 end
            assert bb.green_values(n, -1e4).a < 1e-3
            # Appendix-style derivative sign via central differences
            for z in (-0.05, -1.0, -30.0):
                h = 1e-6 * max(1.0, abs(z))
                gp, gm, g = (bb.green_values(n, z + h), bb.green_values(n, z - h),
                             bb.green_values(n, z))
                da = (gp.a - gm.a) / (2 * h)
                db = (gp.b - gm.b) / (2 * h)
                assert da * g.b - g.a * db < 0.0
