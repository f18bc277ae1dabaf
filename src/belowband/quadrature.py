"""Quadrature engines for torus Green's-function integrals.

Both engines evaluate the family of integrals

    (2*pi)^-n * integral over (-pi,pi]^n of  g(p) / (E(p) - z) dp,

where ``E(p) = sum_j (1 - cos p_j)`` is the nearest-neighbor dispersion and
``g`` is one of ``1``, ``cos p_1``, ``cos^2 p_1``, ``cos p_1 cos p_2``,
``sin^2 p_1`` or a subtracted combination of those.  Results are returned as
plain ``{name: value}`` dictionaries; the public wrapper types live in
:mod:`belowband.green`.

Engine A (``trapezoid_*``) is the tensor-product periodic trapezoidal rule.
For z < 0 the integrand is analytic and periodic, so the rule converges
geometrically with rate set by the width of the analyticity strip,
``arccosh(1 - z)``.  It is practical for n <= 3.

Engine B (``laplace_*``) uses the Laplace representation

    1/(E(p) - z) = integral_0^inf exp(-(n - z) t) exp(t * sum_j cos p_j) dt,

which factorizes the torus integral into a one-dimensional integral over
products of exponentially scaled modified Bessel functions e^-t I_k(t).
It works in any dimension and remains valid at z = 0 for every integral
that is finite there (power-law tail ~ t^(-m/2)).

Engine B's dyadic t-panels do not depend on z, so their weighted Bessel
tables are computed once and kept.  Entries do not depend on the calls that
built them and sums run in a fixed order, so evaluations are bit-identical
whatever ran before, and concurrent calls are safe.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.special as sp

__all__ = [
    "QuadratureError",
    "laplace_integrals",
    "trapezoid_integrals",
    "trapezoid_threshold",
    "required_grid_points",
    "finite_at_threshold",
]


class QuadratureError(RuntimeError):
    """Raised when an engine cannot reach the requested accuracy."""


# Quantities evaluated per dimension.  ``cd`` is c - d and ``ad`` is a - d,
# computed from difference integrands so they stay finite (and accurate)
# where c, d, a individually diverge.
_NAMES_N1 = ("a", "b", "c", "s")
_NAMES = ("a", "b", "c", "d", "s", "cd", "ad")

# Largest trapezoid grid per dimension before we give up.
_GRID_CAP = {1: 1 << 20, 2: 4096, 3: 1152}

_ASYM_SWITCH = 1e8  # above this, scipy.special.ive loses accuracy / NaNs


def integral_names(n: int) -> tuple[str, ...]:
    return _NAMES_N1 if n == 1 else _NAMES


def finite_at_threshold(n: int) -> frozenset[str]:
    """Names of integrals that stay finite at z = 0 in dimension ``n``.

    The Laplace integrand of quantity q decays like t^(-m_q/2) with
    m = n for a, b, c, d;  m = n + 2 for s and a - d;  m = n + 4 for c - d.
    Finiteness requires m > 2.
    """
    if n == 1:
        return frozenset({"s"})
    if n == 2:
        return frozenset({"s", "cd", "ad"})
    return frozenset(_NAMES)


# ---------------------------------------------------------------------------
# Gauss-Legendre panel helpers
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    if m not in _GL_CACHE:
        _GL_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _GL_CACHE[m]


def _panel_nodes(boundaries, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on consecutive panels."""
    x, w = _leggauss(m)
    nodes, weights = [], []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _ive01(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^-t I_0(t) and e^-t I_1(t), stable for arbitrarily large t."""
    big = t > _ASYM_SWITCH
    ts = np.where(big, 1.0, t)
    i0 = np.asarray(sp.ive(0, ts), dtype=float)
    i1 = np.asarray(sp.ive(1, ts), dtype=float)
    if np.any(big):
        tb = t[big]
        pref = 1.0 / (np.sqrt(2.0 * np.pi) * np.sqrt(tb))  # no overflow up to 2^1023
        x8 = 0.125 / tb
        i0[big] = pref * (1.0 + x8 + 4.5 * x8 * x8)
        i1[big] = pref * (1.0 - 3.0 * x8 - 7.5 * x8 * x8)
    return i0, i1


def _weighted_integrands(n: int, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Laplace integrands times quadrature weights, one row per integral."""
    i0, i1 = _ive01(t)
    r = i1 / t  # == (ive0 - ive2)/2 by the Bessel recurrence
    i0nm1 = i0 ** (n - 1)
    a, b, c, s = i0 ** n, i1 * i0nm1, (i0 - r) * i0nm1, r * i0nm1
    if n == 1:
        return np.stack([a, b, c, s]) * w
    i0nm2 = i0 ** (n - 2)
    # difference forms keep the large-t cancellations mild
    cd = ((i0 - i1) * (i0 + i1) - i0 * r) * i0nm2
    ad = (i0 - i1) * (i0 + i1) * i0nm2
    return np.stack([a, b, c, i1 * i1 * i0nm2, s, cd, ad]) * w


_NODES = 48                     # Gauss-Legendre nodes per panel
_ZERO_END = 6                   # at z = 0 the panels stop at t = 2^6
_Z_MIN = 746.0 * 2.0 ** -1023   # smaller |z|: exp(z t) > 0 past t = 2^1023
_PANELS: dict[int, tuple[int, int, np.ndarray, np.ndarray]] = {}


def _table(n: int, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weighted table of the Gauss-Legendre panels between bounds."""
    t = w = np.empty(0)
    if len(bounds) > 1:
        t, w = _panel_nodes(bounds, _NODES)
    return t, _weighted_integrands(n, t, w)


@lru_cache(maxsize=None)
def _head(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    return _table(n, [0.0, math.ldexp(1.0, k)])


def _panels(n: int, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """The panels [2^k, 2^(k+1)], k0 <= k < k1, cut from the kept table of
    dimension n; a call outside its range computes only the missing panels."""
    dyadic = lambda a, b: _table(n, [math.ldexp(1.0, k) for k in range(a, b + 1)])
    lo, hi, t, table = _PANELS.get(n) or (k0, k0, *dyadic(k0, k0))
    if k0 < lo or k1 > hi:
        (tb, wb), (ta, wa) = dyadic(k0, lo), dyadic(hi, k1)
        lo, hi = min(lo, k0), max(hi, k1)
        t = np.concatenate([tb, t, ta])
        table = np.concatenate([wb, table, wa], axis=1)
        _PANELS[n] = lo, hi, t, table
    cut = slice((k0 - lo) * _NODES, (k1 - lo) * _NODES)
    return t[cut], table[:, cut]


def laplace_integrals(n: int, z: float) -> dict[str, float]:
    """Evaluate the torus integrals by the Laplace-Bessel representation.

    The panels run from a head [0, 2^k0] with 2^k0 <= min(1, 1/(n - z)),
    the shortest scale of the integrand, to the first 2^k1 past 746/|z|,
    where exp(z t) has underflowed.  At z = 0 they stop at 2^6 and the
    power-law tail is integrated in u = t^-1/2.  |z| below 746 * 2^-1023
    (about 8.3e-306) would need panels past the largest double and raises
    :class:`QuadratureError`.  At z = 0 only the finite integrals are
    returned (see :func:`finite_at_threshold`).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    z = float(z)
    if not -math.inf < z <= 0.0:
        raise ValueError(f"spectral parameter must be finite and <= 0, got {z}")
    if -_Z_MIN < z < 0.0:
        raise QuadratureError(
            f"z={z!r} is too close to the band edge: the Laplace panels would "
            f"pass the largest double; |z| must be at least {_Z_MIN!r}")
    k0 = math.frexp(min(1.0, 1.0 / (n - z)))[1] - 1
    k1 = _ZERO_END
    if z < 0.0:
        mant, k1 = math.frexp(746.0 / -z)
        k1 -= mant == 0.5
    th, head = _head(n, k0)
    t, table = _panels(n, k0, k1)
    eh, e = np.exp(z * th), np.exp(z * t)
    # one dot product per integral sums a and b in the same order, so their
    # rounding errors correlate and a - b = (1 + z a)/n stays accurate where
    # both are huge (n = 1 near the band edge); a matrix product does not
    acc = np.array([np.dot(h, eh) + np.dot(r, e) for h, r in zip(head, table)])
    if z == 0.0:
        u, wu = _panel_nodes([0.0, 2.0 ** (-_ZERO_END / 2)], 2 * _NODES)
        acc += _weighted_integrands(n, u ** -2.0, wu * 2.0 * u ** -3.0).sum(axis=1)
    return {k: float(v) for k, v in zip(integral_names(n), acc)
            if z < 0.0 or k in finite_at_threshold(n)}


# ---------------------------------------------------------------------------
# Tensor-product periodic trapezoidal rule
# ---------------------------------------------------------------------------

def required_grid_points(n: int, z: float, rtol: float) -> int:
    """Grid size per dimension for the trapezoidal rule to reach ``rtol``.

    The periodic trapezoidal error decays like exp(-M * y0) with
    y0 = arccosh(1 - z) the distance from the real axis to the nearest
    complex zero of E(p) - z.
    """
    if z >= 0.0:
        raise ValueError("trapezoid grid sizing requires z < 0")
    y0 = float(np.arccosh(1.0 - z))
    # log(1/-z) accounts for the growth of the integrand maximum near the
    # band edge; +7 is a flat safety margin.
    m = (np.log(1.0 / rtol) + max(0.0, np.log(1.0 / -z)) + 7.0) / y0
    return max(32, int(2 * np.ceil(m / 2.0)))


def _axis_nodes(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Folded trapezoid nodes on [0, pi] with their multiplicities.

    All integrands are even in each coordinate, so the M-point periodic rule
    on (-pi, pi] collapses to M/2 + 1 nodes with weights (1, 2, ..., 2, 1).
    """
    u = np.linspace(0.0, np.pi, m // 2 + 1)
    wt = np.full(m // 2 + 1, 2.0)
    wt[0] = wt[-1] = 1.0
    return u, np.cos(u), wt


def trapezoid_integrals(n: int, z: float, grid_points: int) -> dict[str, float]:
    """Torus integrals for z < 0 by the periodic trapezoidal rule (n <= 3)."""
    if n not in (1, 2, 3):
        raise QuadratureError(
            f"tensor-trapezoid engine supports n <= 3, got n={n}; "
            "use the laplace-bessel method")
    if z >= 0.0:
        raise ValueError(f"trapezoid engine requires z < 0, got {z}")
    m = int(grid_points)
    if m % 2 or m < 4:
        raise ValueError(f"grid_points must be an even integer >= 4, got {m}")
    cap = _GRID_CAP[n]
    if m > cap:
        raise QuadratureError(
            f"requested grid {m}^{n} exceeds the cap {cap}^{n}; "
            "quadrature would not converge in reasonable time")
    u, cu, wt = _axis_nodes(m)
    s2 = np.sin(u) ** 2
    if n == 1:
        f = wt / ((1.0 - cu) - z)
        acc = {"a": f.sum(), "b": (f * cu).sum(), "c": (f * cu * cu).sum(),
               "s": (f * s2).sum()}
    elif n == 2:
        dnm = (1.0 - cu)[:, None] + (1.0 - cu)[None, :] - z
        f = (wt[:, None] * wt[None, :]) / dnm
        c1, c2 = cu[:, None], cu[None, :]
        acc = {
            "a": f.sum(),
            "b": (f * c1).sum(),
            "c": (f * c1 * c1).sum(),
            "d": (f * c1 * c2).sum(),
            "s": (f * s2[:, None]).sum(),
            "cd": 0.5 * (f * (c1 - c2) ** 2).sum(),
            "ad": (f * (1.0 - c1 * c2)).sum(),
        }
    else:
        acc = dict.fromkeys(_NAMES, 0.0)
        w23 = wt[:, None] * wt[None, :]
        e23 = (1.0 - cu)[:, None] + (1.0 - cu)[None, :]
        c2 = cu[:, None]
        # slice-by-slice over the first axis keeps memory at O(M^2) and the
        # summation order fixed
        for i in range(m // 2 + 1):
            f = (wt[i] * w23) / ((1.0 - cu[i]) + e23 - z)
            acc["a"] += f.sum()
            acc["b"] += (f * cu[i]).sum()
            acc["c"] += (f * cu[i] ** 2).sum()
            acc["d"] += (f * cu[i] * c2).sum()
            acc["s"] += (f * s2[i]).sum()
            acc["cd"] += 0.5 * (f * (cu[i] - c2) ** 2).sum()
            acc["ad"] += (f * (1.0 - cu[i] * c2)).sum()
    return {k: float(v) / m ** n for k, v in acc.items()}


def trapezoid_threshold(n: int, grid_points: int | None = None) -> dict[str, float]:
    """Threshold integrals s(0) (n <= 3) and c(0)-d(0) (n = 2, 3) by grid.

    The direct integrands are replaced by subtracted forms whose numerators
    vanish at p = 0 fast enough that the integrand extends continuously:
    ``sum_j sin^2 p_j / (n E)`` for s and ``(cos p_1 - cos p_2)^2 / (2 E)``
    for c - d.  The origin node is assigned the limiting value.
    """
    if n not in (1, 2, 3):
        raise QuadratureError(
            f"grid threshold quadrature supports n <= 3, got n={n}")
    m = grid_points if grid_points is not None else {1: 64, 2: 1024, 3: 256}[n]
    if m % 2 or m < 4:
        raise ValueError(f"grid_points must be an even integer >= 4, got {m}")
    u, cu, wt = _axis_nodes(m)
    s2 = np.sin(u) ** 2
    if n == 1:
        e = 1.0 - cu
        g = np.empty_like(e)
        g[1:] = s2[1:] / e[1:]
        g[0] = 2.0
        return {"s": float((wt * g).sum()) / m}
    if n == 2:
        e = (1.0 - cu)[:, None] + (1.0 - cu)[None, :]
        w = wt[:, None] * wt[None, :]
        num_cd = 0.5 * (cu[:, None] - cu[None, :]) ** 2
        num_s = 0.5 * (s2[:, None] + s2[None, :])
        gcd = np.divide(num_cd, e, out=np.zeros_like(e), where=e > 0)
        gs = np.divide(num_s, e, out=np.zeros_like(e), where=e > 0)
        gs[0, 0] = 1.0  # limit 2/n at the origin
        return {"cd": float((w * gcd).sum()) / m ** 2,
                "s": float((w * gs).sum()) / m ** 2}
    acc_cd = acc_s = 0.0
    w23 = wt[:, None] * wt[None, :]
    e23 = (1.0 - cu)[:, None] + (1.0 - cu)[None, :]
    ones = np.ones_like(e23)
    for i in range(m // 2 + 1):
        e = (1.0 - cu[i]) + e23
        num_cd = 0.5 * (cu[i] - cu[:, None]) ** 2 * ones
        num_s = (s2[i] + s2[:, None] + s2[None, :]) / 3.0
        gcd = np.divide(num_cd, e, out=np.zeros_like(e), where=e > 0)
        gs = np.divide(num_s, e, out=np.zeros_like(e), where=e > 0)
        if i == 0:
            gs[0, 0] = 2.0 / 3.0
        acc_cd += float((wt[i] * w23 * gcd).sum())
        acc_s += float((wt[i] * w23 * gs).sum())
    return {"cd": acc_cd / m ** 3, "s": acc_s / m ** 3}
