"""Closed-form eigenfunctions, fixed-point residuals and integrability.

Every bound or threshold state of the impurity Hamiltonian has a momentum
representation f(p) = phi(p)/(E(p) - z) where phi is a short trigonometric
polynomial determined by a coefficient vector w:

    even sector:  phi = mu w_0 + (lam/sqrt2) sum_j w_j cos p_j
    odd sector:   phi = (lam/sqrt2) sum_j w_j sin p_j

States are treated as rays (no normalization); the quality measure is the
fixed-point residual ||(G(z) - I) w|| / ||w|| of the reduced matrix G(z):
lam s(z) times the identity in the odd sector, and in the even sector the
(n+1) x (n+1) matrix of ``_even_matrix``, which lives here because only the
residual reads it (root location reads the determinant factors, in
``classify._factor``).  A state carries the Green values it was built
from; its moments against the potential modes are computed from them
when read, not when the state is built.  At the band edge the membership
of f in L^2, L^1 or L^eps is decided by the dimension and the vanishing
order of phi at p = 0, which the state's formula fixes (``_FORMULAS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .green import (
    DivergentIntegralError,
    GreenValues,
    dispersion,
    green_threshold,
    green_values,
)
from .reduction import ModelParams

__all__ = [
    "EigenState",
    "IntegrabilityClass",
    "FORMULAS",
    "state_for_delta_r",
    "states_for_delta_c",
    "states_for_odd",
    "residual",
    "moments",
    "integrability_class",
]

SQRT2 = math.sqrt(2.0)

# formula -> (sector, order m of the zero of phi at p = 0).  delta_c (w = e_1 - e_j)
# and delta_s (w = e_j) have m = 2 and 1.  For delta_r, a - b = 1/n and alpha = n b
# at z = 0: row 1 of ``state_for_delta_r`` gives phi(0) = mu, and is picked only if
# mu != 0 (at mu = 0 it is zero); row 0 gives (lam n/sqrt2)(1 - mu/n)/(1 - mu a), is
# picked only if lam != 0, and mu = n is never on (lam - X)(mu - n) = n; so m = 0.
_FORMULAS = {"e1": ("even", 0), "e11": ("even", 0), "e2": ("even", 2),
             "eigen-Sin": ("odd", 1), "z0": ("even", 0), "z1": ("even", 0),
             "z2": ("even", 2), "sake": ("odd", 1)}
FORMULAS = tuple(_FORMULAS)


class IntegrabilityClass(Enum):
    L2 = "L2"                      # threshold eigenvalue
    L1_NOT_L2 = "L1\\L2"           # threshold resonance
    LEPS_NOT_L1 = "Leps\\L1"       # super-threshold resonance
    NOT_LEPS = "not-Leps"          # not even L^eps for eps < 1


@dataclass(frozen=True)
class EigenState:
    """A (ray of) eigenfunction(s) f(p) = phi(p)/(E(p) - z).

    ``w`` has length n+1 in the even sector (index 0 is the constant mode)
    and length n in the odd sector; it is kept as a tuple of floats, so a
    state compares and hashes by value and cannot be written in place.
    ``greens`` holds the Green values the state was built from;
    :func:`residual` uses them only while ``greens.z == z``, and
    ``moments`` reads them as they are.
    """

    params: ModelParams
    sector: str            # "even" | "odd"
    z: float
    w: tuple[float, ...]
    formula: str
    greens: GreenValues | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(map(float, self.w)))
        if self.formula not in _FORMULAS:
            raise ValueError(f"unknown formula id {self.formula!r}")
        if _FORMULAS[self.formula][0] != self.sector:
            raise ValueError(f"formula {self.formula!r} is not of the {self.sector!r} sector")
        expected = self.params.n + 1 if self.sector == "even" else self.params.n
        if len(self.w) != expected:
            raise ValueError(
                f"coefficient vector has length {len(self.w)}, expected {expected}")

    @property
    def moments(self) -> np.ndarray | None:
        """The integrals u_j of f against the potential modes, from
        ``greens`` (see :func:`moments`), computed on each read; None
        without ``greens`` or where an integral they need diverges.  For
        a true fixed point they are proportional to w (u_0 = w_0,
        u_j = w_j/sqrt2 in the even sector)."""
        if self.greens is None:
            return None
        try:
            return moments(self, self.greens)
        except DivergentIntegralError:
            return None

    def phi(self, p) -> np.ndarray:
        """Numerator trig polynomial at momenta ``p`` of shape (..., n)."""
        arr = np.atleast_2d(np.asarray(p, dtype=float))
        lam, mu = self.params.lam, self.params.mu
        if self.sector == "even":
            out = mu * self.w[0] + (lam / SQRT2) * np.cos(arr) @ self.w[1:]
        else:
            out = (lam / SQRT2) * np.sin(arr) @ self.w
        return out

    def evaluate(self, p) -> np.ndarray:
        """f(p) = phi(p)/(E(p) - z)."""
        arr = np.atleast_2d(np.asarray(p, dtype=float))
        return self.phi(arr) / (dispersion(arr, self.params.n) - self.z)

    def vanishing_order(self) -> int:
        """Order of the zero of phi at p = 0, fixed by the formula (``_FORMULAS``)."""
        if self.sector == "odd":
            if not np.any(self.w):
                raise ValueError("zero coefficient vector")
        else:
            lam, mu = self.params.lam, self.params.mu
            scale = abs(mu * self.w[0]) + abs(lam / SQRT2) * float(
                np.sum(np.abs(self.w[1:])))
            if scale == 0.0:
                raise ValueError("phi is identically zero")
        return _FORMULAS[self.formula][1]


def state_for_delta_r(params: ModelParams, z: float,
                      greens: GreenValues) -> EigenState:
    """Even-sector state at a zero of delta_r.

    The state is symmetric, w = (w_0, t, ..., t), and (w_0, t) spans the
    null space of the reduced 2x2 system, read off its larger row: row 0
    (1 - mu a, -lam n b / sqrt2) gives (lam n b / (sqrt2 (1 - mu a)), 1),
    row 1 (sqrt2 mu b, lam alpha - 1) gives (1 - lam alpha, sqrt2 mu b).
    Row 1 takes over as lam -> 0, where 1 - mu a -> 0; at lam = 0 it is
    (1, sqrt2 mu b) and f is proportional to 1/(E - z).  Where row 0 is the
    larger, the determinant (1 - mu a)(1 - lam alpha) = lam n mu b^2 keeps
    |1 - mu a| above about sqrt2 b / a, so the division is safe.
    """
    n = params.n
    lam, mu = params.lam, params.mu
    a, b = greens.require("a", "b")
    row0 = (1.0 - mu * a, lam * n * b / SQRT2)
    row1 = (SQRT2 * mu * b, 1.0 - lam * greens.alpha)
    if max(map(abs, row0)) > max(map(abs, row1)):
        w = (lam * n * b / (SQRT2 * row0[0]),) + (1.0,) * n
    else:
        w = (row1[1],) + (row1[0],) * n
    if lam != 0.0:
        formula = "e1" if z < 0.0 else "z0"
    else:
        formula = "e11" if z < 0.0 else "z1"
    return EigenState(params, "even", z, w, formula, greens)


def states_for_delta_c(params: ModelParams, z: float,
                       greens: GreenValues) -> list[EigenState]:
    """The n-1 even states (0, 1, -1, 0, ...), ..., (0, 1, 0, ..., -1)
    at a zero of delta_c; f_j is proportional to (cos p_1 - cos p_{j+1})/(E-z)."""
    n = params.n
    if n < 2:
        raise ValueError("delta_c states require n >= 2")
    formula = "e2" if z < 0.0 else "z2"
    out = []
    for j in range(1, n):
        w = [0.0] * (n + 1)
        w[1], w[j + 1] = 1.0, -1.0
        out.append(EigenState(params, "even", z, w, formula, greens))
    return out


def states_for_odd(params: ModelParams, z: float,
                   greens: GreenValues) -> list[EigenState]:
    """The n odd states w = e_j; f_j is proportional to sin p_j/(E - z)."""
    formula = "eigen-Sin" if z < 0.0 else "sake"
    out = []
    for j in range(params.n):
        w = [0.0] * params.n
        w[j] = 1.0
        out.append(EigenState(params, "odd", z, w, formula, greens))
    return out


def moments(state: EigenState, greens: GreenValues) -> np.ndarray:
    """Moments u of f against the potential modes, via the Green integrals.

    Even sector: u_0 = integral of f, u_i = integral of cos p_i * f
    (normalized by (2 pi)^-n), evaluated as

        u_0 = mu w_0 a + (lam/sqrt2) b S,
        u_i = mu w_0 b + (lam/sqrt2) ((c-d) w_i + d S),      S = sum_j w_j.

    The grouped form stays finite at z = 0 for the n = 2 threshold states,
    where c and d diverge individually but w_0 = 0 and S = 0.
    """
    lam, mu = state.params.lam, state.params.mu
    w = np.asarray(state.w, dtype=float)
    if state.sector == "odd":
        (s,) = greens.require("s")
        return (lam / SQRT2) * s * w
    n = state.params.n
    w0, wrest = w[0], w[1:]
    total = float(np.add.reduce(wrest))
    u = np.empty(n + 1)
    coef_a = mu * w0
    coef_b0 = (lam / SQRT2) * total
    u[0] = _combine(greens, (("a", coef_a), ("b", coef_b0)))
    if n == 1:
        u[1] = _combine(greens, (("b", coef_a), ("c", (lam / SQRT2) * float(wrest[0]))))
    else:
        coef_d = (lam / SQRT2) * total
        for i in range(1, n + 1):
            u[i] = _combine(greens, (("b", coef_a),
                                     ("cd", (lam / SQRT2) * float(w[i])),
                                     ("d", coef_d)))
    return u


def _combine(greens: GreenValues, terms) -> float:
    """Sum coef*integral, skipping terms with zero coefficient so that
    divergent integrals only matter when they actually contribute."""
    acc = 0.0
    for name, coef in terms:
        if coef == 0.0:
            continue
        value = getattr(greens, name)
        if value is None:
            greens.require(name)   # raises DivergentIntegralError
        acc += coef * value
    return acc


def _greens_at(n: int, z: float, greens: GreenValues | None) -> GreenValues:
    """``greens`` while their z is z, else the Green values at z afresh:
    ``green_values`` below the band and ``green_threshold`` at z = 0."""
    if greens is None or greens.z != z:
        return green_values(n, z) if z < 0.0 else green_threshold(n)
    return greens


def residual(params: ModelParams, state: EigenState) -> float:
    """Fixed-point residual ||(G(z) - I) w||_inf / ||w||_inf.

    The Green values are the state's ``greens`` when their z is ``state.z``
    and are evaluated fresh at ``state.z`` otherwise.  For even threshold
    states with n <= 2 the matrix entries diverge; the valid states there
    have w_0 = 0 and sum w_j = 0, for which the limit of the residual is
    |lam*(c-d)(0) - 1|, and that reduced form is used.  It reads w and the
    Green values, never the moments.  Its own rounding grows with the
    entries: at the n = 1 roots near z = -1e-18, where a and b are about
    1e8 to 1e9, it is 1e-8 to 1e-7 even at the exact root.  The norms are
    ``abs(x).max()``, the reductions of ``np.max(np.abs(x))``; the tests
    hold the residual, the moments and the even matrix to the term-by-term
    copy in ``tests/reference.py`` bit for bit.
    """
    w = np.asarray(state.w, dtype=float)
    norm = float(abs(w).max())
    if norm == 0.0:
        raise ValueError("zero coefficient vector")
    n, z = params.n, state.z
    greens = _greens_at(n, z, state.greens)
    if state.sector == "odd":
        (s,) = greens.require("s")
        return float(abs((params.lam * s - 1.0) * w).max()) / norm
    if z == 0.0 and n <= 2:
        if n == 1:
            raise ValueError("no even threshold states exist for n = 1")
        if abs(w[0]) > 1e-12 * norm or abs(np.sum(w[1:])) > 1e-12 * norm:
            raise ValueError(
                "even threshold residual for n = 2 is defined only for "
                "states with w_0 = 0 and sum w_j = 0")
        (cd,) = greens.require("cd")
        return abs(params.lam * cd - 1.0)
    g = _even_matrix(params, greens)
    return float(abs(g @ w - w).max()) / norm


def _even_matrix(params: ModelParams, greens: GreenValues) -> np.ndarray:
    """The (n+1) x (n+1) even Birman-Schwinger matrix G_e at greens.z.

    Row 0 is (mu a, lam b/sqrt2, ..., lam b/sqrt2), column 0 below is
    sqrt2 mu b, the diagonal lam c and the off-diagonal lam d.  It is not
    symmetric: its fixed points are the even coefficient vectors w, and
    det(G_e - I) = b H_z (lam (c - d) - 1)^(n-1).
    """
    n = params.n
    lam, mu = params.lam, params.mu
    a, b, c = greens.require("a", "b", "c")
    off = lam * greens.require("d")[0] if n >= 2 else None
    diag, left = lam * c, SQRT2 * mu * b
    return np.array([[mu * a] + [lam * b / SQRT2] * n]
                    + [[left] + [off] * i + [diag] + [off] * (n - 1 - i)
                       for i in range(n)])


def integrability_class(state: EigenState) -> IntegrabilityClass:
    """L^q membership of a threshold state from the vanishing order of phi.

    Near p = 0 the state behaves like |p|^(m-2) with m the vanishing order,
    which the state's formula fixes (:meth:`EigenState.vanishing_order`),
    so f is in L^q iff q (2 - m) < n, and in L^eps for all eps < 1 iff
    2 - m <= n.  The resulting table, exact at every coupling:

        m = 0:  L2 for n >= 5, L1\\L2 for n = 3, 4, Leps\\L1 for n = 2
        m = 1:  L2 for n >= 3, L1\\L2 for n = 2, Leps\\L1 for n = 1
        m = 2:  L2 for every n (f is bounded)
    """
    if state.z != 0.0:
        raise ValueError("integrability classes are defined at z = 0")
    m = state.vanishing_order()
    n = state.params.n
    if n > 4 - 2 * m:
        return IntegrabilityClass.L2
    if n > 2 - m:
        return IntegrabilityClass.L1_NOT_L2
    if n >= 2 - m:
        return IntegrabilityClass.LEPS_NOT_L1
    return IntegrabilityClass.NOT_LEPS

