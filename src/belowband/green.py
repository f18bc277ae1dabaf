"""Lattice Green's-function integrals below and at the band edge.

The spectral analysis of the impurity Hamiltonian reduces to five torus
integrals of ``g(p)/(E(p) - z)`` with g = 1, cos p_1, cos^2 p_1,
cos p_1 cos p_2 and sin^2 p_1, conventionally named a, b, c, d, s.  This
module wraps the quadrature engines into a typed interface, tracks which
integrals are finite at the band edge z = 0, and provides exact closed
forms (n = 1 algebraic, n = 2 and 3 complete elliptic integrals) used as
independent oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.special as sp
from scipy.integrate import IntegrationWarning, quad

from .quadrature import (
    QuadratureError,
    laplace_integrals,
    required_grid_points,
    trapezoid_integrals,
    trapezoid_threshold,
)

__all__ = [
    "QuadratureConfig",
    "GreenValues",
    "DivergentIntegralError",
    "DEFAULT_CONFIG",
    "dispersion",
    "green_values",
    "green_threshold",
    "closed_form_a1",
    "closed_form_green1",
    "closed_form_a2",
    "closed_form_a3",
]

METHODS = ("tensor-trapezoid", "laplace-bessel", "both")


class DivergentIntegralError(ValueError):
    """An integral was requested where it diverges (wrong n or z)."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Evaluation settings for the Green's-function integrals.

    ``rtol`` applies for z <= -1e-3; closer to the band edge the integrands
    peak sharply and the guarantee degrades to ``rtol_near_threshold``.
    With ``method="both"`` the two engines must agree to 10x the effective
    tolerance, otherwise a :class:`QuadratureError` is raised.  The
    Laplace-Bessel engine has no settings: its panels and nodes are fixed.
    """

    method: str = "laplace-bessel"
    grid_points: int | None = None      # trapezoid M per dimension; None = auto
    rtol: float = 1e-10
    rtol_near_threshold: float = 1e-8

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (self.rtol > 0.0 and self.rtol_near_threshold > 0.0):
            raise ValueError("tolerances must be positive")

    def effective_rtol(self, z: float) -> float:
        return self.rtol if z <= -1e-3 else self.rtol_near_threshold


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class GreenValues:
    """The integrals a, b, c, d, s (and the difference c - d) at one z.

    ``None`` marks an integral that diverges at this (n, z) or, for d with
    n = 1, does not exist.  All finite values are strictly positive on
    z <= 0.  ``cd`` is evaluated from its own difference integrand, so it is
    available for n >= 2 even at z = 0 where c and d individually diverge.
    """

    n: int
    z: float
    a: float | None
    b: float | None
    c: float | None
    d: float | None
    s: float | None
    cd: float | None
    method: str = "laplace-bessel"

    def require(self, *names: str) -> tuple[float, ...]:
        out = []
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise DivergentIntegralError(
                    f"integral {name!r} is divergent/undefined for n={self.n}, z={self.z}")
            out.append(value)
        return tuple(out)

    @property
    def alpha(self) -> float:
        """c + (n-1) d, the diagonal combination of the even block."""
        (c,) = self.require("c")
        if self.n == 1:
            return c
        (d,) = self.require("d")
        return c + (self.n - 1) * d

    @property
    def gamma(self) -> float:
        """a*alpha - n b^2; equals b identically."""
        a, b = self.require("a", "b")
        return a * self.alpha - self.n * b * b

    @property
    def alpha0(self) -> float:
        """lim_{z->0-} (c - d); meaningful on the z = 0 record, n >= 2."""
        if self.z != 0.0:
            raise ValueError("alpha0 is defined on the threshold record (z = 0)")
        (cd,) = self.require("cd")
        return cd

    @property
    def s0(self) -> float:
        """s(0); meaningful on the z = 0 record."""
        if self.z != 0.0:
            raise ValueError("s0 is defined on the threshold record (z = 0)")
        (s,) = self.require("s")
        return s

    @property
    def ratio_ab(self) -> float:
        """a/b, the lambda-asymptote of the zero-set hyperbola."""
        a, b = self.require("a", "b")
        return a / b


def dispersion(p, n: int | None = None):
    """Dispersion E(p) = sum_j (1 - cos p_j) of the discrete Laplacian.

    Parameters
    ----------
    p : array_like, shape (..., n)
        Momenta; the last axis runs over the n components.
    n : int, optional
        Expected dimension; a mismatch with ``p.shape[-1]`` is an error.

    Returns
    -------
    float or ndarray
        E(p) in [0, 2n]; even and permutation-symmetric in the components.
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        arr = arr[None]
    if n is not None and arr.shape[-1] != n:
        raise ValueError(f"momentum has {arr.shape[-1]} components, expected n={n}")
    e = np.sum(1.0 - np.cos(arr), axis=-1)
    return float(e) if e.ndim == 0 else e


def _pack(n: int, z: float, raw: dict[str, float], method: str) -> GreenValues:
    def get(name):
        if name == "d" and n == 1:
            return None
        return raw.get(name)

    values = GreenValues(n=n, z=z, a=get("a"), b=get("b"), c=get("c"),
                         d=get("d"), s=get("s"), cd=get("cd"), method=method)
    for name in ("a", "b", "c", "s", "cd"):
        v = getattr(values, name)
        if v is not None and not v > 0.0:
            raise QuadratureError(
                f"integral {name}={v} at n={n}, z={z} violates positivity; "
                "quadrature failed")
    return values


def _cross_check(n: int, z: float, first: dict, second: dict, tol: float) -> None:
    common = set(first) & set(second)
    for name in sorted(common):
        x, y = first[name], second[name]
        rel = abs(x - y) / max(abs(x), abs(y), 1e-300)
        if rel > tol:
            raise QuadratureError(
                f"cross-method disagreement for {name} at n={n}, z={z}: "
                f"{x!r} vs {y!r} (rel {rel:.3e} > {tol:.1e})")


def green_values(n: int, z: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> GreenValues:
    """Evaluate a, b, c, d, s and c-d at a point z < 0 below the band.

    Relative accuracy is ``cfg.effective_rtol(z)``; with ``method="both"``
    the trapezoid and Laplace-Bessel evaluations must agree within 10x that
    tolerance or a :class:`QuadratureError` is raised.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if not z < 0.0:
        raise ValueError(f"green_values requires z < 0, got z={z}; "
                         "use green_threshold for z = 0")
    rtol = cfg.effective_rtol(z)
    lap = trap = None
    if cfg.method in ("laplace-bessel", "both"):
        lap = laplace_integrals(int(n), float(z))
    if cfg.method in ("tensor-trapezoid", "both"):
        m = cfg.grid_points or required_grid_points(n, z, rtol)
        trap = trapezoid_integrals(int(n), float(z), m)
    if lap is not None and trap is not None:
        _cross_check(n, z, lap, trap, 10.0 * rtol)
    return _pack(int(n), float(z), lap if lap is not None else trap, cfg.method)


def green_threshold(n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> GreenValues:
    """Evaluate the integrals at the band edge z = 0.

    a and b are finite only for n >= 3 (flagged ``None`` otherwise), the
    limit of c - d is finite for n >= 2, and s(0) is finite for every n.
    The tensor-trapezoid engine knows only the subtracted integrands for
    s(0) and c(0)-d(0), so for n >= 3 the remaining entries require the
    Laplace-Bessel method.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    n = int(n)
    lap = grid = None
    if cfg.method in ("laplace-bessel", "both"):
        lap = laplace_integrals(n, 0.0)
    if cfg.method in ("tensor-trapezoid", "both"):
        if n >= 3 and cfg.method == "tensor-trapezoid":
            raise QuadratureError(
                "tensor-trapezoid cannot evaluate a(0), b(0) for n >= 3; "
                "use laplace-bessel or both")
        if n <= 3:
            grid = trapezoid_threshold(n, cfg.grid_points)
    if lap is not None and grid is not None:
        _cross_check(n, 0.0, lap, grid, 10.0 * cfg.rtol_near_threshold)
    raw = lap if lap is not None else grid
    return _pack(n, 0.0, raw, cfg.method)


# ---------------------------------------------------------------------------
# Closed forms (independent oracles)
# ---------------------------------------------------------------------------

def closed_form_a1(z: float) -> float:
    """Exact a(z) = 1/(sqrt(-z) sqrt(2-z)) for the chain (n = 1), z < 0."""
    if not z < 0.0:
        raise ValueError(f"closed form requires z < 0, got {z}")
    return 1.0 / (math.sqrt(-z) * math.sqrt(2.0 - z))


def closed_form_green1(z: float) -> GreenValues:
    """Exact n = 1 Green values: b = (1-z)a - 1, c = (1-z)b, s = 1 + z(a+b)."""
    a = closed_form_a1(z)
    b = (1.0 - z) * a - 1.0
    return GreenValues(n=1, z=z, a=a, b=b, c=(1.0 - z) * b, d=None,
                       s=1.0 + z * (a + b), cd=None, method="closed-form")


def closed_form_a2(z: float) -> float:
    """Exact a(z) for the square lattice via the complete elliptic integral.

    Integrating out one momentum leaves 1/sqrt((2-z-cos p)^2 - 1), whose
    integral is 2 K(m)/(2-z) with parameter m = (2/(2-z))^2.
    """
    if not z < 0.0:
        raise ValueError(f"closed form requires z < 0, got {z}")
    m = (2.0 / (2.0 - z)) ** 2
    return 2.0 / (math.pi * (2.0 - z)) * float(sp.ellipk(m))


def closed_form_a3(z: float) -> float:
    """a(z) for the cubic lattice as a single elliptic-integral quadrature.

    Two momenta are integrated out analytically, leaving
    (1/pi^2) * integral_0^pi 2 K(m(p))/(3 - z - cos p) dp with
    m = (2/(3 - z - cos p))^2.  Valid for z <= 0; at z = 0 the value is the
    Watson simple-cubic constant divided by 3, and the endpoint p = 0 has an
    integrable logarithmic singularity handled through ellipkm1.
    """
    if z > 0.0:
        raise ValueError(f"closed form requires z <= 0, got {z}")

    def integrand(p: float) -> float:
        dd = 3.0 - z - math.cos(p)
        # 1 - m without cancellation: (dd-2)(dd+2)/dd^2 with
        # dd - 2 = 2 sin^2(p/2) - z
        one_minus_m = (2.0 * math.sin(0.5 * p) ** 2 - z) * (dd + 2.0) / dd ** 2
        return 2.0 / dd * float(sp.ellipkm1(one_minus_m))

    with warnings.catch_warnings():
        # the z = 0 endpoint log singularity trips quad's roundoff heuristic
        # even though the extrapolated value is accurate
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, math.pi, limit=400,
                      epsabs=1e-14, epsrel=1e-13, points=[0.0])
    return val / math.pi ** 2


def with_method(cfg: QuadratureConfig, method: str) -> QuadratureConfig:
    """Copy of ``cfg`` with a different engine selection."""
    return replace(cfg, method=method)
