"""Reference code the tests compare the package against.

Nothing in ``belowband`` imports this module; it holds the independent
methods that corroborate the package's one Green engine and its analytic
threshold classes:

- the tensor-product periodic trapezoidal rule for the torus integrals at
  n <= 3, below the band and (subtracted integrands for s(0) and
  c(0) - d(0)) at the band edge;
- the deep Laplace sums: the package's panels out to t = 2^1023 and its
  rows summed over chunks of ``_CHUNK`` nodes, for the z between the
  engine's reach and 746 * 2^-1023 that the package serves by edge records;
- the elliptic-integral closed form of a(z) at n = 2 and the n = 3
  elliptic reduction of a(z), whose z = 0 value is the Watson simple-cubic
  constant divided by 3;
- the band-edge constants a(0), b(0), s(0), c(0) - d(0), lambda_s,
  lambda_c and X at 30 digits, from closed forms at n <= 3 and from mpmath
  quadrature of the Laplace integrals at n >= 3;
- numeric integrability probes of threshold states;
- the finite-lattice oracle's factor blocks assembled dense and solved
  by ``eigh``, for the values at and above 0 that the package's Lanczos
  chains do not hold.

This module loads ``scipy.integrate`` and ``numpy.polynomial``, which the
package itself does not.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.linalg import eigh

from belowband import lattice, quadrature
from belowband.quadrature import (
    _NAMES,
    QuadratureError,
    finite_at_threshold,
    integral_names,
)
from belowband.states import EigenState

# ---------------------------------------------------------------------------
# Tensor-product periodic trapezoidal rule
# ---------------------------------------------------------------------------

# One folded-grid kernel for n <= 3: every integrand is even in each
# coordinate, so the sums run over the M/2 + 1 nodes per axis on [0, pi]
# that _grid_blocks yields.  For z < 0 the integrand is analytic and
# periodic, so the rule converges geometrically with rate set by the width
# of the analyticity strip, arccosh(1 - z).

# Largest grid per dimension before we give up, at z < 0 and at z = 0, and
# the default grid of the threshold integrals.
_GRID_CAP = {1: 1 << 20, 2: 4096, 3: 1152}
_THRESHOLD_GRID = {1: 64, 2: 1024, 3: 256}


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


def _grid_blocks(n: int, m: int):
    """The folded M-point grid of dimension n <= 3, in blocks along axis 1.

    All integrands are even in each coordinate, so the M-point periodic rule
    on (-pi, pi] collapses to M/2 + 1 nodes per axis on [0, pi] with weights
    (1, 2, ..., 2, 1).  Each block holds the weights, E(p), cos p_1,
    cos p_2, sin^2 p_1 and sum_j sin^2 p_j of its nodes (cos p_2 is 0 when
    n = 1).  n <= 2 is one block; n = 3 gives one block per node of axis 1,
    which keeps memory at O(M^2) and the summation order fixed.
    """
    if n not in (1, 2, 3):
        raise QuadratureError(
            f"tensor-trapezoid engine supports n <= 3, got n={n}")
    if m % 2 or m < 4:
        raise ValueError(f"grid_points must be an even integer >= 4, got {m}")
    if m > _GRID_CAP[n]:
        raise QuadratureError(
            f"requested grid {m}^{n} exceeds the cap {_GRID_CAP[n]}^{n}; "
            "quadrature would not converge in reasonable time")
    u = np.linspace(0.0, np.pi, m // 2 + 1)
    cu, s2 = np.cos(u), np.sin(u) ** 2
    wt = np.full(m // 2 + 1, 2.0)
    wt[0] = wt[-1] = 1.0
    if n == 1:
        yield wt, 1.0 - cu, cu, 0.0, s2, s2
        return
    w2 = wt[:, None] * wt[None, :]
    e2 = (1.0 - cu)[:, None] + (1.0 - cu)[None, :]
    if n == 2:
        yield (w2, e2, cu[:, None], cu[None, :], s2[:, None],
               s2[:, None] + s2[None, :])
        return
    for i in range(m // 2 + 1):
        yield (wt[i] * w2, (1.0 - cu[i]) + e2, cu[i], cu[:, None], s2[i],
               s2[i] + s2[:, None] + s2[None, :])


def trapezoid_integrals(n: int, z: float, grid_points: int) -> dict[str, float]:
    """Torus integrals for z < 0 by the periodic trapezoidal rule (n <= 3)."""
    if z >= 0.0:
        raise ValueError(f"trapezoid engine requires z < 0, got {z}")
    m = int(grid_points)
    acc = dict.fromkeys(_NAMES, 0.0)
    for w, e, c1, c2, s1, _ in _grid_blocks(n, m):
        f = w / (e - z)
        acc["a"] += f.sum()
        acc["b"] += (f * c1).sum()
        acc["c"] += (f * c1 * c1).sum()
        acc["d"] += (f * c1 * c2).sum()
        acc["s"] += (f * s1).sum()
        acc["cd"] += 0.5 * (f * (c1 - c2) ** 2).sum()
        acc["ad"] += (f * (1.0 - c1 * c2)).sum()
    return {k: float(acc[k]) / m ** n for k in integral_names(n)}


def trapezoid(n: int, z: float) -> dict[str, float]:
    """Torus integrals at z < 0 on the grid that reaches relative accuracy
    1e-10 for z <= -1e-3 and 1e-8 nearer the band edge."""
    rtol = 1e-10 if z <= -1e-3 else 1e-8
    return trapezoid_integrals(n, z, required_grid_points(n, z, rtol))


def trapezoid_threshold(n: int, grid_points: int | None = None) -> dict[str, float]:
    """Threshold integrals s(0) (n <= 3) and c(0)-d(0) (n = 2, 3) by grid.

    The direct integrands are replaced by subtracted forms whose numerators
    vanish at p = 0 fast enough that the integrand extends continuously:
    ``sum_j sin^2 p_j / (n E)`` for s and ``(cos p_1 - cos p_2)^2 / (2 E)``
    for c - d.  The origin node is assigned the limiting values, 2/n for s
    and 0 for c - d.
    """
    m = _THRESHOLD_GRID.get(n) if grid_points is None else grid_points
    acc = {"cd": 0.0, "s": 0.0}
    for w, e, c1, c2, _, s in _grid_blocks(n, m):
        gcd = np.divide(0.5 * (c1 - c2) ** 2, e, out=np.zeros_like(e),
                        where=e > 0)
        gs = np.divide(s / n, e, out=np.full_like(e, 2.0 / n), where=e > 0)
        acc["cd"] += float((w * gcd).sum())
        acc["s"] += float((w * gs).sum())
    return {k: v / m ** n for k, v in acc.items() if k in finite_at_threshold(n)}


# ---------------------------------------------------------------------------
# Deep Laplace sums
# ---------------------------------------------------------------------------

_DEEP_Z_MIN = 746.0 * 2.0 ** -1023   # smaller |z|: exp(z t) > 0 past t = 2^1023


@lru_cache(maxsize=None)
def _deep_tables(n: int, k0: int):
    """Nodes and weighted rows of the head [0, 2^k0] and of the panels from
    2^k0 to 2^1023, kept apart from the package's tables."""
    m = quadrature._NODES
    th, wh = quadrature._panel_nodes([0.0], [2.0 ** k0], m)
    ks = range(k0, 1023)
    t, w = quadrature._panel_nodes([2.0 ** k for k in ks], [2.0 ** (k + 1) for k in ks], m)
    return (th, quadrature._weighted_integrands(n, th, wh),
            t, quadrature._weighted_integrands(n, t, w))


def deep_laplace_integrals(n: int, z: float) -> dict[str, float]:
    """The Laplace integrals at -2^510 <= z <= -746 * 2^-1023, whose panels
    may pass the package's one chunk: the head and the first chunk of
    ``_CHUNK`` nodes, then each further chunk in order, one ddot per row.
    Where the panels fit one chunk this is the package's sum bit for bit."""
    if not -quadrature._Z_MAX <= z <= -_DEEP_Z_MIN:
        raise QuadratureError(f"z={z!r} is outside the deep reference's range")
    k0 = math.frexp(min(1.0, 1.0 / (n - z)))[1] - 1   # as quadrature._span
    mant, k1 = math.frexp(746.0 / -z)
    th, head, t, table = _deep_tables(n, k0)
    stop, chunk = (k1 - (mant == 0.5) - k0) * quadrature._NODES, quadrature._CHUNK
    t, table = t[:stop], table[:, :stop]
    eh, e = np.exp(z * th), np.exp(z * t)
    acc = (np.matmul(head[:, None], eh[:, None])
           + np.matmul(table[:, None, :chunk], e[:chunk, None])).ravel()
    for i in range(chunk, stop, chunk):
        acc += np.matmul(table[:, None, i:i + chunk], e[i:i + chunk, None]).ravel()
    return {k: float(v) for k, v in zip(integral_names(n), acc)}


# ---------------------------------------------------------------------------
# Square- and cubic-lattice elliptic reductions
# ---------------------------------------------------------------------------

def _ellipk_m1(m1: float) -> float:
    """The complete elliptic integral K(m) from m1 = 1 - m in [0, 1], as
    pi / (2 AGM(1, sqrt(m1))); m1 is taken as given, so K stays accurate
    where m rounds to 1."""
    if m1 == 0.0:
        return math.inf
    a, b = 1.0, math.sqrt(m1)
    while abs(a - b) > 1e-15 * a:   # then the next mean is exact to rounding
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def closed_form_a2(z: float) -> float:
    """Exact a(z) for the square lattice via the complete elliptic integral.

    Integrating out one momentum leaves 1/sqrt((2-z-cos p)^2 - 1), whose
    integral is 2 K(m)/(2-z) with parameter m = (2/(2-z))^2.  K is fed
    1 - m = -z(4-z)/(2-z)^2, which keeps its digits however close z is to 0.
    """
    if not z < 0.0:
        raise ValueError(f"closed form requires z < 0, got {z}")
    one_minus_m = (-z / (2.0 - z)) * ((4.0 - z) / (2.0 - z))
    return 2.0 / (math.pi * (2.0 - z)) * _ellipk_m1(one_minus_m)


def closed_form_a3(z: float) -> float:
    """a(z) for the cubic lattice as a single elliptic-integral quadrature.

    Two momenta are integrated out analytically, leaving
    (1/pi^2) * integral_0^pi 2 K(m(p))/(3 - z - cos p) dp with
    m = (2/(3 - z - cos p))^2.  Valid for z <= 0; at z = 0 the value is the
    Watson simple-cubic constant divided by 3, and the endpoint p = 0 has an
    integrable logarithmic singularity handled by feeding K with 1 - m.
    """
    if z > 0.0:
        raise ValueError(f"closed form requires z <= 0, got {z}")
    from scipy.integrate import IntegrationWarning, quad

    def integrand(p: float) -> float:
        dd = 3.0 - z - math.cos(p)
        # 1 - m without cancellation: (dd-2)(dd+2)/dd^2 with
        # dd - 2 = 2 sin^2(p/2) - z
        one_minus_m = (2.0 * math.sin(0.5 * p) ** 2 - z) * (dd + 2.0) / dd ** 2
        return 2.0 / dd * _ellipk_m1(one_minus_m)

    with warnings.catch_warnings():
        # the z = 0 endpoint log singularity trips quad's roundoff heuristic
        # even though the extrapolated value is accurate
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, math.pi, limit=400,
                      epsabs=1e-14, epsrel=1e-13, points=[0.0])
    return val / math.pi ** 2


# ---------------------------------------------------------------------------
# Band-edge constants at 30 digits
# ---------------------------------------------------------------------------

_DPS = 30


@lru_cache(maxsize=None)
def _ive_mp(t):
    """e^-t I_0(t) and e^-t I_1(t) at _DPS digits, computed once per node:
    every integral at every n reads the same tanh-sinh nodes."""
    e = mp.exp(-t)
    return e * mp.besseli(0, t), e * mp.besseli(1, t)


def _threshold_row(n: int, name: str, t):
    """The z = 0 Laplace integrand of a, b, s or cd at t, in the form of
    ``quadrature._weighted_integrands``."""
    i0, i1 = _ive_mp(t)
    r = i1 / t
    if name == "cd":
        head = (i0 - i1) * (i0 + i1) - i0 * r
    else:
        head = {"a": i0, "b": i1, "s": r}[name] * i0
    return head * i0 ** (n - 2)


def watson_a0():
    """a(0) at n = 3 as an mpf: one third of Watson's simple-cubic integral
    W = sqrt(6)/(32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24),
    the closed form of Glasser and Zucker (PNAS 74 (1977) 1800)."""
    with mp.workdps(_DPS):
        w = mp.sqrt(6) / (32 * mp.pi ** 3)
        for k in (1, 5, 7, 11):
            w *= mp.gamma(mp.mpf(k) / 24)
        return w / 3


@lru_cache(maxsize=None)
def threshold_quadrature(n: int) -> dict:
    """a(0), b(0), s(0) and (c - d)(0) for n >= 3 as mpfs, by mpmath
    quadrature of the Laplace integrals at _DPS digits.

    The integrands decay like a power of t, so the range past t = 64 is
    taken in u = t^-1/2, as ``quadrature._tail`` does; there they are
    smooth, and the slow t^-3/2 tail of a(0) at n = 3 costs no digits.
    """
    with mp.workdps(_DPS):
        u_end = mp.mpf(1) / 8      # t = 64
        return {name: mp.quad(lambda t: _threshold_row(n, name, t), [0, 1, 8, 64])
                + mp.quad(lambda u: 2 * _threshold_row(n, name, u ** -2) / u ** 3,
                          [0, u_end])
                for name in ("a", "b", "s", "cd")}


def band_edge_references() -> dict[int, dict]:
    """The finite band-edge constants of n = 1..6 as mpfs.

    Keys are named as the fields of ``GreenValues`` (a, b, s, cd) and of
    ``SpectralConstants`` (lambda_s = 1/s(0), lambda_c = 1/(c - d)(0) and
    x_asymptote = X = lim a/b).  At n = 1, s(0) = 1 and X = 1/s(0); at
    n = 2, s(0) = 1 - 2/pi, (c - d)(0) = 4/pi - 1 and X = 1; at n = 3, a(0)
    is :func:`watson_a0` and b(0) = a(0) - 1/3; every other value comes from
    :func:`threshold_quadrature`.
    """
    refs = {}
    with mp.workdps(_DPS):
        for n in range(1, 7):
            if n == 1:
                ref = {"s": mp.mpf(1)}
            elif n == 2:
                ref = {"s": 1 - 2 / mp.pi, "cd": 4 / mp.pi - 1}
            else:
                ref = dict(threshold_quadrature(n))
            if n == 3:
                ref["a"] = watson_a0()
                ref["b"] = ref["a"] - mp.mpf(1) / 3
            ref["lambda_s"] = 1 / ref["s"]
            if n >= 2:
                ref["lambda_c"] = 1 / ref["cd"]
            ref["x_asymptote"] = ref["a"] / ref["b"] if n >= 3 else mp.mpf(1)
            refs[n] = ref
    return refs


# ---------------------------------------------------------------------------
# Integrability probes
# ---------------------------------------------------------------------------

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
                angular: int) -> float:
    """(2 pi)^-n integral of |f|^q over the annulus h <= |p| <= r0."""
    n = state.params.n
    dirs, dw = _directions(n, angular)
    x, wx = np.polynomial.legendre.leggauss(24)   # nodes per octave shell
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
                        exponents=range(4, 13), angular: int = 256) -> list[float]:
    """integral of |f|^q outside the ball |p| < 2^-k, for k in ``exponents``.

    A numeric corroboration of :func:`belowband.integrability_class`: the
    sequence is bounded when f is in L^q and grows (logarithmically or like
    a power) when it is not.  For n = 2, 3 the singular neighborhood is
    integrated in polar/spherical shells so that radii far below any
    practical grid spacing are still resolved.  Implemented for n <= 3.
    """
    n = state.params.n
    radii = [2.0 ** -k for k in exponents]
    if n == 1:
        from scipy.integrate import quad

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
    return [outer + _shell_mass(state, q, h, r0, angular) for h in radii]


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


# ---------------------------------------------------------------------------
# Dense factor blocks of the finite-lattice oracle
# ---------------------------------------------------------------------------

def dense_block(ham: lattice.TruncatedHamiltonian, origin: str) -> np.ndarray:
    """One factor block of ham, couplings included, as a Fortran-ordered array."""
    off, level = lattice._structure(ham.n, ham.L, origin)
    dense = off.toarray(order="F")    # off has no diagonal entry
    np.fill_diagonal(dense, ham.n - lattice._potential(ham.lam, ham.mu, level))
    return dense


def dense_spectrum(ham: lattice.TruncatedHamiltonian,
                   k: int | None = None) -> lattice.OracleSpectrum:
    """The k lowest values of the factor blocks, merged with multiplicity.

    Every block is solved densely for its min(k, rows) lowest values, all
    of them without k, and the k lowest of the merged list are kept, so
    they are the k lowest eigenvalues of the truncation outside the
    sectors that miss the potential.
    """
    mult = lattice._multiplicities(ham.n)
    pairs = []
    for origin in mult:
        block = dense_block(ham, origin)
        last = len(block) if k is None else min(k, len(block))
        pairs += [(float(e), origin)
                  for e in eigh(block, eigvals_only=True, overwrite_a=True,
                                subset_by_index=[0, last - 1])
                  for _ in range(mult[origin])]
    pairs = sorted(pairs)[:k]
    return lattice.OracleSpectrum(n=ham.n, L=ham.L,
                                  eigenvalues=tuple(e for e, _ in pairs),
                                  origins=tuple(o for _, o in pairs))
