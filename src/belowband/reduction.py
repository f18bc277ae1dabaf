"""Birman-Schwinger reduction to finite matrices.

For the impurity Hamiltonian H = -Laplacian - V on the n-dimensional
lattice, with V of strength mu at the origin and lambda/2 on the 2n unit
sites, z is an eigenvalue below the band iff 1 is an eigenvalue of the
compact operator (H_0 - z)^-1 V.  In the even sector that operator reduces
to an (n+1) x (n+1) matrix built from the Green integrals; in the odd
sector it is lambda*s(z) times the identity.

The Fredholm determinant of the even matrix factorizes into a rank-one
piece ``delta_r`` (a rectangular hyperbola in the coupling plane) and a
repeated linear piece ``delta_c``; the odd determinant is ``delta_s``.
Zeros of these three functions locate every eigenvalue and threshold state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .green import DivergentIntegralError, GreenValues

__all__ = [
    "ModelParams",
    "BSMatrix",
    "DeterminantValues",
    "HyperbolaPoint",
    "CriticalCouplings",
    "build_bs_matrix",
    "delta_r",
    "delta_c",
    "delta_s",
    "determinants",
    "hyperbola",
    "hyperbola_limit",
    "lambda_asymptote",
    "critical_couplings",
]

HYPERBOLA_TOL = 1e-9  # membership tolerance for the limiting curve


@dataclass(frozen=True)
class ModelParams:
    """Problem instance: dimension and the two coupling strengths.

    ``mu`` multiplies the delta potential at the origin and ``lam``/2 the
    potential on the 2n nearest neighbors.  Both may be any real number.
    """

    n: int
    lam: float
    mu: float

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.n!r}")
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise ValueError("couplings must be finite reals")


@dataclass(frozen=True)
class BSMatrix:
    """Reduced matrix of one parity sector at a fixed spectral parameter."""

    sector: str           # "even" | "odd"
    z: float
    entries: np.ndarray   # (n+1) x (n+1) for even, n x n for odd

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DeterminantValues:
    """The three determinant factors at one (lambda, mu, z).

    ``delta_r`` may be +-inf at z = 0 for n <= 2 (see :func:`delta_r`);
    the others are always finite on z <= 0.
    """

    delta_r: float
    delta_c: float
    delta_s: float

    @property
    def delta_r_defined(self) -> bool:
        return math.isfinite(self.delta_r)


@dataclass(frozen=True)
class HyperbolaPoint:
    """Value of the hyperbola function H_z and its asymptote."""

    value: float
    lambda_inf: float
    mu_inf: float

    @property
    def asymptote(self) -> tuple[float, float]:
        return (self.lambda_inf, self.mu_inf)


@dataclass(frozen=True)
class CriticalCouplings:
    """Critical couplings at the band edge: lambda_c = 1/lim(c-d), lambda_s = 1/s(0)."""

    n: int
    lambda_s: float
    lambda_c: float | None  # None for n = 1


def _check_same_z(z: float, greens: GreenValues) -> None:
    if greens.z != z:
        raise ValueError(f"Green values were evaluated at z={greens.z}, not z={z}")


def build_bs_matrix(params: ModelParams, z: float, sector: str,
                    greens: GreenValues) -> BSMatrix:
    """Assemble the reduced matrix of the requested parity sector.

    The even matrix has row 0 equal to (mu*a, lam*b/sqrt2, ..., lam*b/sqrt2),
    column 0 below equal to sqrt2*mu*b, diagonal lam*c and off-diagonal
    lam*d.  It is deliberately non-symmetric; only its determinant is used.
    The odd matrix is lam*s(z) times the identity because the mixed sine
    integrals vanish by parity.
    """
    _check_same_z(z, greens)
    n = params.n
    if sector == "odd":
        (s,) = greens.require("s")
        return BSMatrix("odd", z, params.lam * s * np.eye(n))
    if sector != "even":
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    if z == 0.0 and n <= 2:
        raise DivergentIntegralError(
            f"even Birman-Schwinger matrix at z = 0 needs n >= 3 (entries "
            f"diverge for n={n})")
    a, b, c = greens.require("a", "b", "c")
    g = np.zeros((n + 1, n + 1))
    g[0, 0] = params.mu * a
    g[0, 1:] = params.lam * b / math.sqrt(2.0)
    g[1:, 0] = math.sqrt(2.0) * params.mu * b
    if n >= 2:
        (d,) = greens.require("d")
        g[1:, 1:] = params.lam * d
    idx = np.arange(1, n + 1)
    g[idx, idx] = params.lam * c
    return BSMatrix("even", z, g)


def lambda_asymptote(n: int, greens0: GreenValues) -> float:
    """X = lim_{z->0-} a/b: equals 1 for n = 1, 2 and a(0)/b(0) for n >= 3."""
    if n <= 2:
        return 1.0
    return greens0.ratio_ab


def hyperbola_limit(n: int, lam: float, mu: float, x_asymptote: float) -> float:
    """The limiting hyperbola function H_0(lambda, mu) = (lambda-X)(mu-n) - n."""
    return (lam - x_asymptote) * (mu - n) - n


def hyperbola(params: ModelParams, z: float, greens: GreenValues) -> HyperbolaPoint:
    """H_z(lambda, mu) = (lambda - a/b)(mu - (n-z)) - n and its asymptote.

    delta_r = b(z) * H_z for z < 0, so the zero set of delta_r is the
    rectangular hyperbola with asymptote (a/b, n - z).  At z = 0 the
    lambda-asymptote is replaced by its limit X.
    """
    _check_same_z(z, greens)
    n = params.n
    if z == 0.0:
        lam_inf = lambda_asymptote(n, greens)
    else:
        lam_inf = greens.ratio_ab
    mu_inf = n - z
    value = (params.lam - lam_inf) * (params.mu - mu_inf) - n
    return HyperbolaPoint(value=value, lambda_inf=lam_inf, mu_inf=mu_inf)


def delta_r(params: ModelParams, z: float, greens: GreenValues) -> float:
    """Rank-one determinant factor of the even sector.

    For z < 0 (any n) and z = 0 (n >= 3):

        (1 - mu a) (1 - lam (c + (n-1) d)) - n lam mu b^2.

    At z = 0 with n <= 2 the integrals diverge but the limit exists: it is
    1 - mu/n on the limiting hyperbola and signed infinity off it (the sign
    is that of H_0).  Membership is decided by |H_0| <= ``HYPERBOLA_TOL``.
    """
    _check_same_z(z, greens)
    n = params.n
    if z == 0.0 and n <= 2:
        h0 = hyperbola_limit(n, params.lam, params.mu, 1.0)
        if abs(h0) <= HYPERBOLA_TOL:
            return 1.0 - params.mu / n
        return math.copysign(math.inf, h0)
    a, b = greens.require("a", "b")
    return (1.0 - params.mu * a) * (1.0 - params.lam * greens.alpha) \
        - n * params.lam * params.mu * b * b


def delta_c(params: ModelParams, z: float, greens: GreenValues) -> float:
    """Repeated factor (lam*(c-d) - 1)^(n-1); identically 1 for n = 1."""
    _check_same_z(z, greens)
    if params.n == 1:
        return 1.0
    (cd,) = greens.require("cd")
    return (params.lam * cd - 1.0) ** (params.n - 1)


def delta_s(params: ModelParams, z: float, greens: GreenValues) -> float:
    """Odd-sector determinant (lam*s(z) - 1)^n; finite on z <= 0 for all n."""
    _check_same_z(z, greens)
    (s,) = greens.require("s")
    return (params.lam * s - 1.0) ** params.n


def determinants(params: ModelParams, z: float, greens: GreenValues) -> DeterminantValues:
    """All three determinant factors at once."""
    return DeterminantValues(
        delta_r=delta_r(params, z, greens),
        delta_c=delta_c(params, z, greens),
        delta_s=delta_s(params, z, greens),
    )


def critical_couplings(n: int, greens0: GreenValues) -> CriticalCouplings:
    """Critical couplings from the threshold record.

    lambda_s = 1/s(0) exists for every n >= 1 (and equals 1 for n = 1);
    lambda_c = 1/lim(c-d) requires n >= 2.  They obey
    X <= lambda_s <= lambda_c.
    """
    if greens0.z != 0.0:
        raise ValueError("critical couplings need the threshold record (z = 0)")
    if greens0.n != n:
        raise ValueError(f"threshold record is for n={greens0.n}, not n={n}")
    lam_s = 1.0 / greens0.s0
    if n == 1:
        return CriticalCouplings(n=n, lambda_s=lam_s, lambda_c=None)
    return CriticalCouplings(n=n, lambda_s=lam_s, lambda_c=1.0 / greens0.alpha0)
