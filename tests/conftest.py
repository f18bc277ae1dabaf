"""Shared fixtures and sample-point helpers."""

import numpy as np
import pytest

import belowband as bb
from reference import band_edge_references


@pytest.fixture(scope="session")
def consts():
    """Band-edge constants for the dimensions the tests touch."""
    return {n: bb.spectral_constants(n) for n in (1, 2, 3, 4, 5)}


@pytest.fixture(scope="session")
def band_edge():
    """The 30-digit band-edge references for n = 1..6, computed once."""
    return band_edge_references()


def open_region_points(n: int) -> list[tuple[str, tuple[float, float]]]:
    """One comfortably interior coupling pair per open cell.

    Points in the two-root region G2 are chosen with the shallow second
    root below -0.1 so the finite-lattice oracle resolves it at small L.
    For n = 2 the cells G2^(S+ n C-) and G1^C+ share the name D4; both
    components are sampled.
    """
    c = bb.spectral_constants(n)
    x, ls, lc = c.x_asymptote, c.lambda_s, c.lambda_c
    if n == 1:
        return [("D0", (-1.0, -1.0)), ("D1", (0.0, 1.0)),
                ("D2", (2.0, 1.0)), ("D3", (3.0, 3.0))]

    def above_curve(lam: float, margin: float) -> float:
        return n + n / (lam - x) + margin

    lam_d2 = x + 0.9 * (ls - x)
    lam_mid = 0.5 * (ls + lc)
    return [
        ("D0", (-1.0, -1.0)),
        ("D1", (0.0, float(n) + 1.5)),
        ("D2", (lam_d2, above_curve(lam_d2, 10.0))),
        (f"D{n + 1}", (lam_mid, 1.0)),
        (f"D{n + 2}", (lam_mid, above_curve(lam_mid, 10.0))),
        (f"D{2 * n}", (lc + 1.5, 1.0)),
        (f"D{2 * n + 1}", (lc + 1.5, above_curve(lc + 1.5, 2.0))),
    ]


def curve_point(n: int, branch: str, lam: float) -> tuple[float, float]:
    """A point exactly on the limiting hyperbola branch at given lambda."""
    c = bb.spectral_constants(n)
    x = c.x_asymptote
    assert (lam < x) == (branch == "left")
    return lam, n + n / (lam - x)


def region_samples(n: int, region: str, count: int, seed: int):
    """Seeded random points inside one hyperbola region G0/G1/G2."""
    c = bb.spectral_constants(n)
    x = c.x_asymptote
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        lam = float(rng.uniform(-4.0, x + 6.0))
        mu = float(rng.uniform(-4.0, float(n) + 8.0))
        h0 = (lam - x) * (mu - n) - n
        if abs(h0) < 1e-6 or abs(lam - x) < 1e-6:
            continue
        label = "G1" if h0 < 0 else ("G0" if lam < x else "G2")
        if label == region:
            out.append((lam, mu))
    return out
