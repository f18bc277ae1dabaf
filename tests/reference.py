"""Reference code the tests compare the package against.

Nothing in ``belowband`` imports this module; it holds the independent
methods that corroborate the package's one Green engine and its analytic
threshold classes:

- the tensor-product periodic trapezoidal rule for the torus integrals at
  n <= 3, below the band and (subtracted integrands for s(0) and
  c(0) - d(0)) at the band edge;
- the n = 3 elliptic-integral reduction of a(z), whose z = 0 value is the
  Watson simple-cubic constant divided by 3;
- the golden tables under ``tests/golden/`` and the cross-checked
  computation that writes them (``python tests/reference.py`` rewrites
  both files);
- numeric integrability probes of threshold states.

This module loads ``scipy.integrate`` and ``numpy.polynomial``, which the
package itself does not.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from belowband.green import _ellipk_m1, green_threshold
from belowband.quadrature import (
    _NAMES,
    QuadratureError,
    finite_at_threshold,
    integral_names,
    laplace_integrals,
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
# Cubic-lattice elliptic reduction
# ---------------------------------------------------------------------------

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
# Golden tables
# ---------------------------------------------------------------------------

# green.json holds the finite threshold integrals (a(0), b(0) for n >= 3,
# the limit of c - d for n >= 2, s(0) for every n), critical.json lambda_c
# and lambda_s.  Every record carries the method it was computed with and
# the tolerance at which an independent method agreed before it was written.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GREEN_FILE = "green.json"
CRITICAL_FILE = "critical.json"
SCHEMA_VERSION = "1"

# dimensions covered by the committed tables
GREEN_DIMENSIONS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class GoldenRecord:
    n: int
    quantity: str
    value: float
    method: str
    tolerance: float


def load_records(filename: str, directory: Path = GOLDEN_DIR) -> list[GoldenRecord]:
    with open(Path(directory) / filename, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [GoldenRecord(**rec) for rec in doc["records"]]


def lookup(records: list[GoldenRecord], n: int, quantity: str) -> GoldenRecord:
    for rec in records:
        if rec.n == n and rec.quantity == quantity:
            return rec
    raise KeyError(f"no golden record for n={n}, quantity={quantity!r}")


def _cross_checked(n: int, quantity: str, primary: float, secondary: float,
                   tolerance: float, method: str) -> GoldenRecord:
    rel = abs(primary - secondary) / max(abs(primary), abs(secondary))
    if rel > tolerance:
        raise RuntimeError(
            f"golden cross-check failed for n={n} {quantity}: "
            f"{primary!r} vs {secondary!r} (rel {rel:.3e} > {tolerance:.1e})")
    return GoldenRecord(n=n, quantity=quantity, value=primary,
                        method=method, tolerance=tolerance)


def compute_green_records(dimensions=GREEN_DIMENSIONS) -> list[GoldenRecord]:
    """Threshold integrals with an independent check behind each value.

    s(0) and lim(c-d) are cross-checked against the subtracted-integrand
    grid quadrature for n <= 3 and against the identity
    s(0) = 1 - (n-1)(a(0) - d(0)) for n >= 3; a(0) for n = 3 is checked
    against the elliptic-integral reduction of the Watson integral, and
    a(0), b(0) for every n >= 3 against the identity a - b = 1/n.
    """
    records: list[GoldenRecord] = []
    for n in dimensions:
        g = green_threshold(n)
        raw = laplace_integrals(n, 0.0)
        if n <= 3:
            grid = trapezoid_threshold(n)
            records.append(_cross_checked(
                n, "s0", g.s0, grid["s"], 1e-8, "laplace-bessel"))
            if n >= 2:
                records.append(_cross_checked(
                    n, "alpha0", g.alpha0, grid["cd"], 1e-8, "laplace-bessel"))
        else:
            ident = 1.0 - (n - 1) * raw["ad"]
            records.append(_cross_checked(
                n, "s0", g.s0, ident, 1e-10, "laplace-bessel"))
            records.append(_cross_checked(
                n, "alpha0", g.alpha0, raw["c"] - raw["d"], 1e-9,
                "laplace-bessel"))
        if n >= 3:
            second = closed_form_a3(0.0) if n == 3 else g.b + 1.0 / n
            tol = 1e-6 if n == 3 else 1e-9
            records.append(_cross_checked(n, "a0", g.a, second, tol,
                                          "laplace-bessel"))
            records.append(_cross_checked(n, "b0", g.b, g.a - 1.0 / n, 1e-9,
                                          "laplace-bessel"))
    return records


def compute_critical_records(dimensions=GREEN_DIMENSIONS) -> list[GoldenRecord]:
    """lambda_s = 1/s(0) for every n and lambda_c = 1/lim(c-d) for n >= 2."""
    records = []
    for n in dimensions:
        g = green_threshold(n)
        if n <= 3:
            grid = trapezoid_threshold(n)
            records.append(_cross_checked(
                n, "lambda_s", 1.0 / g.s0, 1.0 / grid["s"], 1e-8,
                "laplace-bessel"))
            if n >= 2:
                records.append(_cross_checked(
                    n, "lambda_c", 1.0 / g.alpha0, 1.0 / grid["cd"], 1e-8,
                    "laplace-bessel"))
        else:
            records.append(GoldenRecord(n, "lambda_s", 1.0 / g.s0,
                                        "laplace-bessel", 1e-9))
            records.append(GoldenRecord(n, "lambda_c", 1.0 / g.alpha0,
                                        "laplace-bessel", 1e-9))
    return records


def _write(path: Path, records: list[GoldenRecord]) -> None:
    doc = {"schema_version": SCHEMA_VERSION,
           "records": [asdict(r) for r in records]}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def regenerate(directory: Path = GOLDEN_DIR,
               dimensions=GREEN_DIMENSIONS) -> None:
    """Recompute and rewrite both golden files (cross-checks enforced)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write(directory / GREEN_FILE, compute_green_records(dimensions))
    _write(directory / CRITICAL_FILE, compute_critical_records(dimensions))


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


if __name__ == "__main__":
    regenerate()
    print(f"golden files rewritten in {GOLDEN_DIR}")
