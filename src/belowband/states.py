"""Closed-form eigenfunctions, fixed-point residuals and integrability.

Every bound or threshold state of the impurity Hamiltonian has a momentum
representation f(p) = phi(p)/(E(p) - z) where phi is a short trigonometric
polynomial determined by a coefficient vector w:

    even sector:  phi = mu w_0 + (lam/sqrt2) sum_j w_j cos p_j
    odd sector:   phi = (lam/sqrt2) sum_j w_j sin p_j

States are treated as rays (no normalization); the quality measure is the
fixed-point residual ||(G(z) - I) w|| / ||w|| of the reduced matrix.  At
the band edge the membership of f in L^2, L^1 or L^eps is decided by the
vanishing order of phi at p = 0 together with the dimension, and can be
corroborated numerically by integrating |f|^q outside shrinking balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import quad

from .green import (
    DEFAULT_CONFIG,
    GreenValues,
    QuadratureConfig,
    dispersion,
    green_threshold,
    green_values,
)
from .reduction import ModelParams, build_bs_matrix

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
    "integrability_probe",
    "probe_verdict",
]

SQRT2 = math.sqrt(2.0)

# formula identifiers: negative-z eigenfunctions and their z = 0 versions
FORMULAS = ("e1", "e11", "e2", "eigen-Sin", "z0", "z1", "z2", "sake")


class IntegrabilityClass(Enum):
    L2 = "L2"                      # threshold eigenvalue
    L1_NOT_L2 = "L1\\L2"           # threshold resonance
    LEPS_NOT_L1 = "Leps\\L1"       # super-threshold resonance
    NOT_LEPS = "not-Leps"          # not even L^eps for eps < 1


@dataclass(frozen=True)
class EigenState:
    """A (ray of) eigenfunction(s) f(p) = phi(p)/(E(p) - z).

    ``w`` has length n+1 in the even sector (index 0 is the constant mode)
    and length n in the odd sector.  ``moments`` carries the integrals
    u_j of f against the potential modes, which for a true fixed point are
    proportional to w (u_0 = w_0, u_j = w_j/sqrt2 in the even sector).
    """

    params: ModelParams
    sector: str            # "even" | "odd"
    z: float
    w: np.ndarray
    formula: str
    moments: np.ndarray | None = None

    def __post_init__(self):
        if self.formula not in FORMULAS:
            raise ValueError(f"unknown formula id {self.formula!r}")
        expected = self.params.n + 1 if self.sector == "even" else self.params.n
        if len(self.w) != expected:
            raise ValueError(
                f"coefficient vector has length {len(self.w)}, expected {expected}")

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
        """Order of the zero of phi at p = 0 (0, 1 or 2)."""
        if self.sector == "odd":
            if not np.any(self.w):
                raise ValueError("zero coefficient vector")
            return 1
        lam, mu = self.params.lam, self.params.mu
        value = mu * self.w[0] + (lam / SQRT2) * float(np.sum(self.w[1:]))
        scale = abs(mu * self.w[0]) + abs(lam / SQRT2) * float(
            np.sum(np.abs(self.w[1:])))
        if scale == 0.0:
            raise ValueError("phi is identically zero")
        if abs(value) > 1e-12 * scale:
            return 0
        if lam != 0.0 and np.any(self.w[1:]):
            return 2
        raise ValueError("phi is identically zero")


def state_for_delta_r(params: ModelParams, z: float,
                      greens: GreenValues) -> EigenState:
    """Even-sector state at a zero of delta_r.

    With lam != 0 the fixed vector is (lam n b / (sqrt2 (1 - mu a)), 1, ..., 1);
    with lam = 0 (so mu a = 1) it is (1, sqrt2 mu b, ..., sqrt2 mu b) and f
    is proportional to 1/(E - z).
    """
    n = params.n
    a, b = greens.require("a", "b")
    if params.lam != 0.0:
        denom = 1.0 - params.mu * a
        if denom == 0.0:
            raise ValueError("1 - mu a = 0 with lam != 0 is incompatible "
                             "with delta_r = 0")
        w = np.ones(n + 1)
        w[0] = params.lam * n * b / (SQRT2 * denom)
        formula = "e1" if z < 0.0 else "z0"
    else:
        w = np.full(n + 1, SQRT2 * params.mu * b)
        w[0] = 1.0
        formula = "e11" if z < 0.0 else "z1"
    state = EigenState(params, "even", z, w, formula)
    return _with_moments(state, greens)


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
        w = np.zeros(n + 1)
        w[1] = 1.0
        w[j + 1] = -1.0
        out.append(_with_moments(EigenState(params, "even", z, w, formula), greens))
    return out


def states_for_odd(params: ModelParams, z: float,
                   greens: GreenValues) -> list[EigenState]:
    """The n odd states w = e_j; f_j is proportional to sin p_j/(E - z)."""
    formula = "eigen-Sin" if z < 0.0 else "sake"
    out = []
    for j in range(params.n):
        w = np.zeros(params.n)
        w[j] = 1.0
        out.append(_with_moments(EigenState(params, "odd", z, w, formula), greens))
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
    if state.sector == "odd":
        (s,) = greens.require("s")
        return (lam / SQRT2) * s * state.w
    n = state.params.n
    w0, wrest = state.w[0], state.w[1:]
    total = float(np.sum(wrest))
    u = np.empty(n + 1)
    coef_a = mu * w0
    coef_b0 = (lam / SQRT2) * total
    u[0] = _combine(greens, [("a", coef_a), ("b", coef_b0)])
    if n == 1:
        u[1] = _combine(greens, [("b", coef_a), ("c", (lam / SQRT2) * float(wrest[0]))])
    else:
        for i in range(1, n + 1):
            u[i] = _combine(greens, [
                ("b", coef_a),
                ("cd", (lam / SQRT2) * float(state.w[i])),
                ("d", (lam / SQRT2) * total),
            ])
    return u


def _combine(greens: GreenValues, terms) -> float:
    """Sum coef*integral, skipping terms with zero coefficient so that
    divergent integrals only matter when they actually contribute."""
    acc = 0.0
    for name, coef in terms:
        if coef == 0.0:
            continue
        (value,) = greens.require(name)
        acc += coef * value
    return acc


def _with_moments(state: EigenState, greens: GreenValues) -> EigenState:
    try:
        u = moments(state, greens)
    except Exception:
        u = None
    return EigenState(state.params, state.sector, state.z, state.w,
                      state.formula, u)


def residual(params: ModelParams, state: EigenState,
             cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Fixed-point residual ||(G(z) - I) w||_inf / ||w||_inf.

    Green values are evaluated fresh at ``state.z``.  For even threshold
    states with n <= 2 the matrix entries diverge; the valid states there
    have w_0 = 0 and sum w_j = 0, for which the limit of the residual is
    |lam*(c-d)(0) - 1|, and that reduced form is used.
    """
    w = np.asarray(state.w, dtype=float)
    norm = float(np.max(np.abs(w)))
    if norm == 0.0:
        raise ValueError("zero coefficient vector")
    n = params.n
    z = state.z
    greens = green_values(n, z, cfg) if z < 0.0 else green_threshold(n, cfg)
    if state.sector == "odd":
        (s,) = greens.require("s")
        return float(np.max(np.abs((params.lam * s - 1.0) * w))) / norm
    if z == 0.0 and n <= 2:
        if n == 1:
            raise ValueError("no even threshold states exist for n = 1")
        if abs(w[0]) > 1e-12 * norm or abs(np.sum(w[1:])) > 1e-12 * norm:
            raise ValueError(
                "even threshold residual for n = 2 is defined only for "
                "states with w_0 = 0 and sum w_j = 0")
        (cd,) = greens.require("cd")
        return abs(params.lam * cd - 1.0)
    g = build_bs_matrix(params, z, "even", greens).entries
    return float(np.max(np.abs(g @ w - w))) / norm


def integrability_class(state: EigenState) -> IntegrabilityClass:
    """L^q membership of a threshold state from the vanishing order of phi.

    Near p = 0 the state behaves like |p|^(m-2) with m the vanishing order,
    so f is in L^q iff q (2 - m) < n, and in L^eps for all eps < 1 iff
    2 - m <= n.  The resulting table:

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


def _directions(n: int, angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors and weights integrating over the unit sphere S^(n-1)."""
    if n == 2:
        theta = 2.0 * math.pi * (np.arange(angular) + 0.5) / angular
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        w = np.full(angular, 2.0 * math.pi / angular)
        return dirs, w
    m_polar = max(8, angular // 8)
    x, wx = np.polynomial.legendre.leggauss(m_polar)  # x = cos(polar angle)
    phi = 2.0 * math.pi * (np.arange(angular) + 0.5) / angular
    sin_pol = np.sqrt(1.0 - x ** 2)
    dirs = np.stack(np.broadcast_arrays(
        sin_pol[:, None] * np.cos(phi)[None, :],
        sin_pol[:, None] * np.sin(phi)[None, :],
        x[:, None] * np.ones_like(phi)[None, :]), axis=-1).reshape(-1, 3)
    w = (wx[:, None] * np.full(angular, 2.0 * math.pi / angular)[None, :]).ravel()
    return dirs, w


def _shell_mass(state: EigenState, q: float, h: float, r0: float,
                angular: int, radial_nodes: int) -> float:
    """(2 pi)^-n integral of |f|^q over the annulus h <= |p| <= r0."""
    n = state.params.n
    dirs, dw = _directions(n, angular)
    x, wx = np.polynomial.legendre.leggauss(radial_nodes)
    bounds = [h]
    while bounds[-1] < r0:
        bounds.append(min(2.0 * bounds[-1], r0))
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        r = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        wr = 0.5 * (hi - lo) * wx
        pts = r[:, None, None] * dirs[None, :, :]
        vals = np.abs(state.evaluate(pts.reshape(-1, n))).reshape(len(r), -1) ** q
        total += float(wr @ (vals @ dw * r ** (n - 1)))
    return total / (2.0 * math.pi) ** n


def _outer_mass(state: EigenState, q: float, r0: float, grid: int = 128) -> float:
    """(2 pi)^-n integral of |f|^q over the torus outside |p| >= r0."""
    n = state.params.n
    axis = -math.pi + 2.0 * math.pi * (np.arange(grid) + 0.5) / grid
    mesh = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1)
    pts = mesh.reshape(-1, n)
    keep = np.sum(pts ** 2, axis=1) >= r0 * r0
    vals = np.abs(np.asarray(state.evaluate(pts[keep]), dtype=float)) ** q
    return float(np.sum(vals)) / grid ** n


def integrability_probe(state: EigenState, q: float,
                        exponents=range(4, 13), angular: int = 256,
                        radial_nodes: int = 24) -> list[float]:
    """integral of |f|^q outside the ball |p| < 2^-k, for k in ``exponents``.

    A numeric corroboration of :func:`integrability_class`: the sequence is
    bounded when f is in L^q and grows (logarithmically or like a power)
    when it is not.  For n = 2, 3 the singular neighborhood is integrated
    in polar/spherical shells so that radii far below any practical grid
    spacing are still resolved.  Implemented for n <= 3.
    """
    n = state.params.n
    radii = [2.0 ** -k for k in exponents]
    if n == 1:
        def f_abs_q(p: float) -> float:
            return float(np.abs(state.evaluate([[p]]))[0]) ** q

        out = []
        for h in radii:
            left, _ = quad(f_abs_q, -math.pi, -h, limit=200)
            right, _ = quad(f_abs_q, h, math.pi, limit=200)
            out.append((left + right) / (2.0 * math.pi))
        return out
    if n > 3:
        raise NotImplementedError("integrability probe implemented for n <= 3")
    r0 = 1.0
    outer = _outer_mass(state, q, r0)
    return [outer + _shell_mass(state, q, h, r0, angular, radial_nodes)
            for h in radii]


def probe_verdict(values) -> str:
    """Classify a probe sequence as 'bounded' or 'divergent'.

    Increments that keep a steady size per halving of the exclusion radius
    signal a logarithmic divergence; growing increments signal a power law;
    shrinking increments signal convergence.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 4:
        raise ValueError("need at least 4 probe values")
    inc = np.diff(v)
    tail = inc[-3:]
    scale = max(abs(v[-1]), 1e-30)
    if np.all(np.abs(tail) <= 1e-3 * scale):
        return "bounded"
    ratios = tail[1:] / np.where(tail[:-1] == 0.0, np.nan, tail[:-1])
    if np.all(np.nan_to_num(ratios) > 0.75):
        return "divergent"
    return "bounded"
