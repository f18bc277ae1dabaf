"""Band-edge constants against references computed at 30 digits.

The references in ``tests/reference.py`` are closed forms at n <= 3 and
mpmath quadrature of the Laplace integrals at n >= 3.  Every finite
constant the engine returns at n = 1..6 is held to them at 8 eps relative,
well inside the 1e-10 contract.
"""

import dataclasses

import mpmath as mp
import pytest

import belowband as bb
from reference import threshold_quadrature, watson_a0

EPS = 2.0 ** -52
DIMENSIONS = range(1, 7)
# the constants each package function returns, named as in the references
FIELDS = {"green_threshold": ("a", "b", "s", "cd"),
          "spectral_constants": ("lambda_s", "lambda_c", "x_asymptote")}


def _gaps(source: str, n: int, refs) -> dict[str, float]:
    """Relative gap, in eps, of each constant ``bb.<source>(n)`` returns to
    its reference; the finite constants must be those with a reference."""
    got = getattr(bb, source)(n)
    finite = {k for k in FIELDS[source] if getattr(got, k) is not None}
    assert finite == set(FIELDS[source]) & refs[n].keys(), (source, n)
    with mp.workdps(30):
        return {k: float(abs(mp.mpf(getattr(got, k)) / refs[n][k] - 1)) / EPS
                for k in finite}


def test_threshold_integrals_match_references(band_edge):
    # worst measured: 2.2 eps (n = 2 cd), 1.9 eps (n = 3 s)
    for n in DIMENSIONS:
        gaps = _gaps("green_threshold", n, band_edge)
        assert max(gaps.values()) <= 8.0, (n, gaps)


def test_critical_couplings_match_references(band_edge):
    # worst measured: 2.2 eps (n = 2 lambda_c), 1.7 eps (n = 4 X)
    for n in DIMENSIONS:
        gaps = _gaps("spectral_constants", n, band_edge)
        assert max(gaps.values()) <= 8.0, (n, gaps)


@pytest.mark.parametrize("source, name", [
    ("green_threshold", "a"), ("green_threshold", "s"),
    ("spectral_constants", "lambda_c"), ("spectral_constants", "x_asymptote")])
def test_reference_check_sees_a_constant_off_by_16_eps(band_edge, monkeypatch,
                                                       source, name):
    real = getattr(bb, source)

    def moved(n):
        got = real(n)
        return dataclasses.replace(got, **{name: getattr(got, name) * (1.0 + 16 * EPS)})

    monkeypatch.setattr(bb, source, moved)
    assert _gaps(source, 4, band_edge)[name] > 8.0


def test_watson_closed_form_matches_the_quadrature():
    # the two n = 3 references agree to 2e-31, and a(0) - b(0) = 1/n holds
    # to 5e-32 on the quadrature at n = 3..6
    with mp.workdps(30):
        assert abs(threshold_quadrature(3)["a"] / watson_a0() - 1) <= 1e-25
        for n in (3, 4, 5, 6):
            q = threshold_quadrature(n)
            assert abs(n * (q["a"] - q["b"]) - 1) <= 1e-25, n
