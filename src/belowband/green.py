"""Lattice Green's-function integrals below and at the band edge.

The spectral analysis of the impurity Hamiltonian reduces to five torus
integrals of ``g(p)/(E(p) - z)`` with g = 1, cos p_1, cos^2 p_1,
cos p_1 cos p_2 and sin^2 p_1, conventionally named a, b, c, d, s.  This
module wraps the Laplace-Bessel engine into a typed interface, tracks
which integrals are finite at the band edge z = 0, and provides the exact
algebraic closed forms at n = 1.  Past the engine's reach (u = ln(-z)
about -111 to -109, and from -45 at n = 2) an edge record serves every z
down to the smallest subnormal: the closed forms at n = 1, the edge form
of a (K(m) as m -> 1) with the z = 0 values of c - d and s at n = 2, and
the z = 0 values at n >= 3, each within a few eps of the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import QuadratureError, _z_near, laplace_integrals

__all__ = [
    "GreenValues",
    "DivergentIntegralError",
    "dispersion",
    "green_values",
    "green_threshold",
    "closed_form_a1",
    "closed_form_green1",
]


class DivergentIntegralError(ValueError):
    """An integral was requested where it diverges (wrong n or z)."""


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


def _pack(n: int, z: float, raw: dict[str, float]) -> GreenValues:
    # the engine names no d at n = 1 and only the finite integrals at z = 0
    for name in ("a", "b", "c", "s", "cd"):
        v = raw.get(name)
        if v is not None and not v > 0.0:
            raise QuadratureError(
                f"integral {name}={v} at n={n}, z={z} violates positivity; "
                "quadrature failed")
    return GreenValues(n=n, z=z, a=raw.get("a"), b=raw.get("b"), c=raw.get("c"),
                       d=raw.get("d"), s=raw.get("s"), cd=raw.get("cd"))


# Nearer the edge than _switch(n) the integrals equal their edge forms to
# rounding: at n = 2 below u = ln(-z) = -45, a = (ln 16 - u)/(2 pi) (DLMF
# 19.12.1), and s, cd move by O(z ln|z|), under half an ulp; at n = 3 the
# z = 0 values miss sqrt(-z)/(sqrt(2) pi), under 1e-24 relative.
_Z_EDGE2 = -math.exp(-45.0)


def _switch(n: int) -> float:
    """The engine's reach, and -exp(-45) at n = 2."""
    return _Z_EDGE2 if n == 2 else _z_near(n)


@lru_cache(maxsize=None)
def _threshold(n: int) -> dict[str, float]:
    """The finite integrals at z = 0 from the Laplace engine."""
    return laplace_integrals(n, 0.0)


def _edge(n: int, z: float) -> dict[str, float]:
    """The integrals at _switch(n) < z < 0 from their edge forms: the
    closed forms at n = 1, the z = 0 values at n >= 3, and at n = 2 a from
    its edge form, b from a - b = (1 + z a)/n, c + d = (n - z) b, and
    c - d, s at their z = 0 values."""
    if n == 1:
        return vars(closed_form_green1(z))
    if n > 2:
        return _threshold(n)
    a = (math.log(16.0) - math.log(-z)) / (2.0 * math.pi)
    b = a - (1.0 + z * a) / 2.0
    alpha = (2.0 - z) * b
    cd, s = _threshold(2)["cd"], _threshold(2)["s"]
    return {"a": a, "b": b, "c": (alpha + cd) / 2.0, "d": (alpha - cd) / 2.0,
            "s": s, "cd": cd}


def _evaluate(n: int, z: float) -> GreenValues:
    """The integrals at z <= 0 from the Laplace engine, and from ``_edge``
    at _switch(n) < z < 0."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    n, z = int(n), float(z)
    raw = _edge(n, z) if _switch(n) < z < 0.0 else laplace_integrals(n, z)
    return _pack(n, z, raw)


def green_values(n: int, z: float) -> GreenValues:
    """Evaluate a, b, c, d, s and c-d at a point z < 0 below the band.

    Relative accuracy is 1e-10 for z <= -1e-3 and 1e-8 nearer the band
    edge.  Past the engine's reach (u = ln(-z) about -111 to -109, and -45
    at n = 2) the values are edge records, within a few eps of the engine,
    down to the smallest subnormal.
    """
    if not z < 0.0:
        raise ValueError(f"green_values requires z < 0, got z={z}; "
                         "use green_threshold for z = 0")
    return _evaluate(n, z)


def green_threshold(n: int) -> GreenValues:
    """Evaluate the integrals at the band edge z = 0.

    a and b are finite only for n >= 3 (flagged ``None`` otherwise), the
    limit of c - d is finite for n >= 2, and s(0) is finite for every n.
    """
    return _evaluate(n, 0.0)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def closed_form_a1(z: float) -> float:
    """Exact a(z) = 1/(sqrt(-z) sqrt(2-z)) for the chain (n = 1), z < 0."""
    if not z < 0.0:
        raise ValueError(f"closed form requires z < 0, got {z}")
    return 1.0 / (math.sqrt(-z) * math.sqrt(2.0 - z))


def closed_form_green1(z: float) -> GreenValues:
    """Exact n = 1 Green values from q = sqrt(-z) sqrt(2-z), free of cancellation."""
    a = closed_form_a1(z)
    s = 1.0 / ((1.0 - z) + math.sqrt(-z) * math.sqrt(2.0 - z))
    b = a * s
    return GreenValues(n=1, z=z, a=a, b=b, c=(1.0 - z) * b, d=None,
                       s=s, cd=None)
