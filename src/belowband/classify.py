"""Region classification, eigenvalue location and the spectral summary.

The coupling plane splits along three families of curves: the limiting
hyperbola (lambda - X)(mu - n) = n (zero set of the rank-one determinant
factor at the band edge), and the vertical lines lambda = lambda_s and
lambda = lambda_c where the odd and repeated even sectors acquire
threshold states.  Each cell of the partition fixes the number of
eigenvalues below the band and the type of state sitting at the edge.

Cells are named D_k (open sets), B_k / S_k / C_k (curves) and the two
intersection points A and B; the index k always equals the number of
negative eigenvalues counted with multiplicity.

Root location takes every Green value from ``green`` and keeps none: the
ladder record by one ``green_values`` call per factor it searches, and
each brentq probe and each walk step past the ladder as one
``green._values`` tuple, which builds no record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .green import (_LADDER, _LADDER_N, _LADDER_Z, GreenValues, _values,
                    green_threshold, green_values)
from .quadrature import _Z_MAX
from .reduction import ModelParams, hyperbola_limit
from .states import (
    EigenState,
    IntegrabilityClass,
    _greens_at,
    integrability_class,
    state_for_delta_r,
    states_for_delta_c,
    states_for_odd,
)

__all__ = [
    "RootScanError",
    "ConsistencyError",
    "SpectralConstants",
    "spectral_constants",
    "EvenRegion",
    "OddRegion",
    "EigenvalueRecord",
    "ThresholdEntry",
    "ThresholdReport",
    "SpectralSummary",
    "classify_even",
    "classify_odd",
    "snap_params",
    "cell_label",
    "negative_eigenvalues",
    "eigenstates",
    "threshold_report",
    "summarize",
]

REGION_TOL = 1e-9  # default snapping tolerance onto curves
DEFAULT_THETA = -1e-3  # oracle cut between bound states and band-bottom artifacts

KIND_EIGENVALUE = "threshold-eigenvalue"
KIND_RESONANCE = "threshold-resonance"
KIND_SUPER = "super-threshold-resonance"

_CLASS_TO_KIND = {
    IntegrabilityClass.L2: KIND_EIGENVALUE,
    IntegrabilityClass.L1_NOT_L2: KIND_RESONANCE,
    IntegrabilityClass.LEPS_NOT_L1: KIND_SUPER,
}

_SECTOR_OF_ORIGIN = {
    "delta_r": "even-rank-r",
    "delta_c": "even-rank-c",
    "delta_s": "odd",
}
ORIGINS = tuple(_SECTOR_OF_ORIGIN)   # the determinant factors, in order


def _multiplicities(n: int) -> dict[str, int]:
    """Multiplicity of the roots (and of the oracle block) of every factor
    that has any at dimension n: delta_c has none at n = 1."""
    return {o: m for o, m in zip(ORIGINS, (1, n - 1, n)) if m}


class RootScanError(RuntimeError):
    """Sign-change scan failed to bracket the expected number of roots."""

    def __init__(self, message: str, sign_table=None):
        super().__init__(message)
        self.sign_table = sign_table or []


class ConsistencyError(RuntimeError):
    """Root count disagrees with the region table; indicates a bug."""


# ---------------------------------------------------------------------------
# Per-dimension constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralConstants:
    """Band-edge constants that organize the coupling plane for one n."""

    n: int
    x_asymptote: float        # X = lim a/b (1 for n <= 2)
    lambda_s: float           # 1/s(0)
    lambda_c: float | None    # 1/lim(c-d), n >= 2
    greens0: GreenValues


@lru_cache(maxsize=None)
def spectral_constants(n: int) -> SpectralConstants:
    """The constants of n from its threshold record: X = lim a/b, which is 1
    for n <= 2, lambda_s = 1/s(0) and lambda_c = 1/lim(c - d) for n >= 2.
    They obey X <= lambda_s <= lambda_c.  The record of n <= 8 is
    committed (``green._BAND_EDGE``), so no Laplace sum runs for it, and
    the constants of those n are built at import: a process forked after
    it finds them cached.  The record holds the engine's sums, so at
    n = 1, where s(0) = 1 exactly, lambda_s reads 0.9999999999999998."""
    greens0 = green_threshold(n)
    return SpectralConstants(
        n=n,
        x_asymptote=1.0 if n <= 2 else greens0.ratio_ab,
        lambda_s=1.0 / greens0.s,
        lambda_c=None if n == 1 else 1.0 / greens0.cd,
        greens0=greens0,
    )


for _n in range(1, _LADDER_N + 1):
    spectral_constants(_n)


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvenRegion:
    """Even-sector location: hyperbola part, lambda_c strip, special point.

    ``curve`` is one of G0, Gamma_l, G1, Gamma_r, G2; ``strip`` (n >= 2)
    is C-, C0 or C+; ``point`` marks A = Gamma_r with lambda = lambda_s and
    B = Gamma_r with lambda = lambda_c.  ``near_boundary`` records that the
    input was snapped onto a curve it did not hit exactly.
    """

    curve: str
    strip: str | None
    point: str | None
    near_boundary: bool = False


@dataclass(frozen=True)
class OddRegion:
    """Odd-sector location: S-, S0 or S+ by lambda against lambda_s."""

    label: str
    near_boundary: bool = False


def _snap_lambda(lam: float, consts: SpectralConstants, tol: float):
    """Snap lambda onto the critical lines; returns (lambda, on_s, on_c, moved)."""
    on_s = on_c = False
    moved = False
    if abs(lam - consts.lambda_s) <= tol:
        on_s = True
        moved = lam != consts.lambda_s
        lam = consts.lambda_s
    elif consts.lambda_c is not None and abs(lam - consts.lambda_c) <= tol:
        on_c = True
        moved = lam != consts.lambda_c
        lam = consts.lambda_c
    return lam, on_s, on_c, moved


def _snap_mu(n: int, lam: float, mu: float, x: float, tol: float):
    """Snap mu onto the limiting hyperbola; returns (mu, h0), with h0 the
    value H_0(lam, mu) off the curve and None on it."""
    h0 = hyperbola_limit(n, lam, mu, x)
    # at lam == x, H_0 = -n: |H_0| <= tol would need tol >= n
    if abs(h0) > tol or lam == x:
        return mu, h0
    return n + n / (lam - x), None


def snap_params(params: ModelParams, tol: float = REGION_TOL):
    """Project near-boundary couplings onto the curves and classify.

    Returns ``(snapped_params, even_region, odd_region)``.  With tol = 0
    nothing is snapped and open-region semantics apply; a tolerance that is
    negative, infinite or NaN raises ValueError.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"snapping tolerance must be finite and >= 0, got {tol}")
    n = params.n
    consts = spectral_constants(n)
    lam, on_s, on_c, moved_l = _snap_lambda(params.lam, consts, tol)
    mu, h0 = _snap_mu(n, lam, params.mu, consts.x_asymptote, tol)
    moved_m = mu != params.mu
    snapped = ModelParams(n, lam, mu) if (moved_l or moved_m) else params

    if h0 is None:
        curve = "Gamma_l" if lam < consts.x_asymptote else "Gamma_r"
    elif h0 < 0.0:
        curve = "G1"
    else:
        curve = "G0" if lam < consts.x_asymptote else "G2"

    if n >= 2:
        strip = "C0" if on_c else ("C-" if lam < consts.lambda_c else "C+")
    else:
        strip = None
    point = None
    if curve == "Gamma_r" and on_s:
        point = "A"
    elif curve == "Gamma_r" and on_c:
        point = "B"
    near = moved_l or moved_m
    even = EvenRegion(curve=curve, strip=strip, point=point, near_boundary=near)
    odd_label = "S0" if on_s else ("S-" if lam < consts.lambda_s else "S+")
    odd = OddRegion(label=odd_label, near_boundary=moved_l)
    return snapped, even, odd


def classify_even(params: ModelParams, tol: float = REGION_TOL) -> EvenRegion:
    """Even-sector region of (lambda, mu); |.| <= tol snaps onto curves."""
    return snap_params(params, tol)[1]


def classify_odd(params: ModelParams, tol: float = REGION_TOL) -> OddRegion:
    """Odd-sector region: S- / S0 / S+ by lambda against lambda_s."""
    return snap_params(params, tol)[2]


def cell_label(n: int, even: EvenRegion, odd: OddRegion) -> tuple[str, int]:
    """Paper-taxonomy cell name and its negative-eigenvalue count.

    The count equals the cell index by construction: D_k, B_k, S_k, C_k
    all carry k eigenvalues; point A carries 1 and point B carries n+1.
    One table serves every n: at n = 1 the strip is None, n + 1 = 2n,
    n + 2 = 2n + 1, and A and B cannot occur, since lambda_s < X = 1.
    """
    if even.point == "A":
        return "A", 1
    if even.point == "B":
        return "B", n + 1
    if even.curve == "Gamma_l":
        return "B0", 0
    if even.curve == "Gamma_r":
        if odd.label == "S-":
            return "B1", 1
        if even.strip == "C-":
            return f"B{n + 1}", n + 1
        return f"B{2 * n}", 2 * n
    if even.strip == "C0":
        if even.curve == "G1":
            return f"C{n + 1}", n + 1
        if even.curve == "G2":
            return f"C{n + 2}", n + 2
        raise ConsistencyError(f"C0 cannot meet {even.curve}")
    if odd.label == "S0":
        if even.curve == "G1":
            return "S1", 1
        if even.curve == "G2":
            return "S2", 2
        raise ConsistencyError(f"S0 cannot meet {even.curve}")
    if even.curve == "G0":
        return "D0", 0
    if even.curve == "G1":
        if odd.label == "S-":
            return "D1", 1
        return (f"D{2 * n}", 2 * n) if even.strip == "C+" else (f"D{n + 1}", n + 1)
    if odd.label == "S-":
        return "D2", 2
    return (f"D{2 * n + 1}", 2 * n + 1) if even.strip == "C+" else (f"D{n + 2}", n + 2)


# ---------------------------------------------------------------------------
# Root location
# ---------------------------------------------------------------------------

# Every factor is located in u = ln(-z) by one scan (the ladder, the delta_r
# split point, then steps past its ends): roots squeezed against the band
# edge are resolved in u, and a brentq tolerance in u is relative in z.
_LADDER_U = np.array(_LADDER)   # -z = 2^40 .. 2^-40, at green._LADDER_Z
_STRIDE = 80.0           # step in u past an end of the scan
_U_NEAR = -700.0         # the near walk's end; Green values there are edge records
_U_FAR = math.nextafter(math.log(_Z_MAX), 0.0)   # the engine's far limit
_FOUR_EPS = 4 * math.ulp(1.0)   # brentq's xtol and rtol, the smallest rtol scipy accepts


def brentq(f, a: float, b: float) -> float:
    """Zero of f in [a, b] by Brent's method, as ``scipy.optimize.brentq``
    with xtol = rtol = 4 eps and maxiter = 200.

    An operation-for-operation port of scipy's C ``brentq``, so every root
    is bit-identical to scipy's at those settings, with the same input
    contract: an end where f is 0 is returned as it is; ValueError for ends
    of the same sign or a NaN value of f; RuntimeError once 200 iterations
    have not converged.  It lives here so that root location does not load
    ``scipy.optimize``.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(200):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_FOUR_EPS + _FOUR_EPS * abs(xcur)) / 2   # xtol + rtol |x|
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:   # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides on to an inf or nan step, which fails the test
                # below (fcur is nonzero here)
                stry = math.inf
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta \
                else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:   # good short step
                spre, scur = scur, stry
            else:                       # bisect
                spre = scur = sbis
        else:                           # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 200 iterations.")


def _factor(params: ModelParams, origin: str, z, a, b, cd, s,
            offset: float | None = None) -> float | np.ndarray:
    """The function of z whose zeros are those of ``origin``, from the
    Green values at z that it reads: a and b for delta_r, cd = c - d for
    delta_c, s for delta_s (the others may be None).

    delta_r = b H_z with b > 0, and H_z = (lam - a/b)(mu - (n - z)) - n is
    much better conditioned near the band edge; ``offset`` stands for
    mu - (n - z) where it is known more exactly.  delta_c and delta_s are
    powers of lam (c - d) - 1 and lam s - 1.  On Green values at an array
    of z the same IEEE operations run elementwise, so every ladder value is
    bit for bit the scalar one.
    """
    if origin == "delta_r":
        t = params.mu - (params.n - z) if offset is None else offset
        return (params.lam - a / b) * t - params.n
    return params.lam * (cd if origin == "delta_c" else s) - 1.0


def _factor_at(params: ModelParams, origin: str, g: GreenValues) -> float | np.ndarray:
    """``_factor`` at g.z from the record g."""
    return _factor(params, origin, g.z, g.a, g.b, g.cd, g.s)


def _walk(u: float, limit: float):
    """The points past the scan end u toward ``limit``, ``_STRIDE`` apart in u."""
    while u != limit:
        u = max(u - _STRIDE, limit) if limit < u else min(u + _STRIDE, limit)
        yield u


def _brackets(us: np.ndarray, values: np.ndarray) -> list[tuple[float, float, float, float]]:
    """(lo, f(lo), hi, f(hi)) in u around each sign change of a scan whose
    us decrease; a zero at a scan point u0 is the bracket (u0, 0, u0, 0).
    Products of neighbours may overflow or turn NaN, as Python floats do;
    the caller's ``np.errstate`` keeps that silent."""
    hits = values == 0.0
    hits[:-1] |= values[:-1] * values[1:] < 0.0
    brackets = []
    for i in hits.nonzero()[0].tolist():
        u0, f0 = float(us[i]), float(values[i])
        if f0 == 0.0:
            brackets.append((u0, f0, u0, f0))
        else:
            brackets.append((float(us[i + 1]), float(values[i + 1]), u0, f0))
    return brackets


def _step_past(f, u: float, value: float, limit: float, failure):
    """Bracket of a zero of f(u) between the scan end u and ``limit``.

    Visits the points of ``_walk``; a failure raises RootScanError with the
    message ``failure()`` and the (z, f) pairs visited.
    """
    table = [(-math.exp(u), value)]
    for u_next in _walk(u, limit):
        f_next = f(u_next)
        table.append((-math.exp(u_next), f_next))
        if f_next * value <= 0.0:
            if f_next == 0.0:
                return u_next, f_next, u_next, f_next
            return (u, value, u_next, f_next) if u < u_next else (u_next, f_next, u, value)
        u, value = u_next, f_next
    raise RootScanError(failure(), sign_table=table)


def _polish(params: ModelParams, origin: str, z_a: float, f_a: float,
            w: float, f_w: float, split: bool = False):
    """Zero z_a exp(v) of a factor, v between 0 and w, by brentq in v.

    brentq stops within 4 eps (1 + |v|) of the zero in v, a relative error
    in z; |v| is at most the bracket width in u (ln 2 on the ladder) where
    |u| reaches 700.  The ends take their scanned values, so rounding in
    z_a exp(v) cannot change their signs.  From the split point z_a = n - mu
    (``split``) the offset z - z_a = z_a expm1(v) holds to eps, where probes
    at -exp(u_split + v) would read the noise above.  Returns the zero and
    the Green values brentq evaluated at exactly that z, or None for them
    when the zero is an end of the bracket, which takes its scanned value.

    Every probe is one ``green._values`` call at the float z, the values
    ``green_values`` would put in its record from the one source that
    serves (n, z), and builds no record; the one record returned is the
    ``GreenValues`` of the root's probe values, so it is bit for bit
    ``green_values(n, z)``.
    """
    n, ends, probed = params.n, {0.0: f_a, w: f_w}, {}

    def h(v):
        if v in ends:
            return ends[v]
        z = z_a * math.exp(v)
        a, b, _c, _d, s, cd = probed[v] = _values(n, z)
        return _factor(params, origin, z, a, b, cd, s,
                       z_a * math.expm1(v) if split else None)
    v = brentq(h, 0.0, w)
    z, values = z_a * math.exp(v), probed.get(v)
    return z, None if values is None else GreenValues(n, z, *values)


def _roots(params: ModelParams, origin: str,
           expected: int) -> list[tuple[float, GreenValues | None]]:
    """The ``expected`` zeros in (-inf, 0) of one factor, as ``_polish`` pairs.

    One scan in u brackets them: the ladder, read as one
    ``green_values(n, _LADDER_Z)`` call per search (the kept read-only
    record of n), and for the two zeros of delta_r (in G2, mu > n) the
    point z0 = n - mu, inserted in order, where H = -n while H > 0 at both
    ends of (-inf, 0).  Each end of the scan whose sign disagrees with the
    factor's value at that end of (-inf, 0) is then stepped past in u,
    each step one ``green._values`` call that builds no record; past the
    engine's reach the Green values are edge records.
    Every bracket is polished in u, from z0 itself when it ends there;
    another count raises RootScanError with the sign table.  Messages are
    formatted only when raised.
    """
    if expected == 0:
        return []
    n = params.n
    where = lambda: f"for (n={n}, lambda={params.lam}, mu={params.mu})"
    far_failure = lambda: (f"a zero of {origin} lies farther below the band than "
                           f"z = -{_Z_MAX!r} {where()}; past it b is not a normal double")
    us, u_split, z0 = _LADDER_U, None, None
    # products overflow and turn NaN as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        values = _factor_at(params, origin, green_values(n, _LADDER_Z))
        if expected == 2:
            # -n itself: H evaluated at -exp(u_split), off by |u| eps in z, can be
            # positive once lam mu is large; mu - n >= ulp(n) keeps u_split > _U_NEAR
            z0 = n - params.mu
            u_split = math.log(-z0)
            if u_split > _U_FAR:
                raise RootScanError(far_failure(), sign_table=[(z0, -float(n))])
            i = int(np.count_nonzero(us > u_split))
            j = i + 1 if i < len(us) and us[i] == u_split else i   # it replaces that point
            us = np.concatenate((us[:i], [u_split], us[j:]))
            values = np.concatenate((values[:i], [-float(n)], values[j:]))
        brackets = _brackets(us, values)
    if len(brackets) < expected:
        # the factor's sign as z -> -inf and its limit as z -> 0-
        consts = spectral_constants(n)
        if origin == "delta_r":
            far = 1.0
            near = hyperbola_limit(n, params.lam, params.mu, consts.x_asymptote)
        else:
            far, near = -1.0, _factor_at(params, origin, consts.greens0)
        def f(u):
            z = -math.exp(u)
            a, b, _c, _d, s, cd = _values(n, z)
            return _factor(params, origin, z, a, b, cd, s)
        first, last = float(values[0]), float(values[-1])
        if first * far < 0.0:
            brackets.append(_step_past(f, float(us[0]), first, _U_FAR, far_failure))
        if last * near < 0.0:
            brackets.append(_step_past(
                f, float(us[-1]), last, _U_NEAR,
                lambda: f"a zero of {origin} lies closer to the band edge than "
                        f"exp(-700) {where()}; the limit value there is {near}"))
    if len(brackets) != expected:
        raise RootScanError(
            f"expected {expected} zero(s) of {origin} {where()}, bracketed "
            f"{len(brackets)}",
            sign_table=[(-math.exp(u), v) for u, v in zip(us.tolist(), values.tolist())])

    def polish(lo, f_lo, hi, f_hi):
        if u_split not in (lo, hi):
            return _polish(params, origin, -math.exp(lo), f_lo, hi - lo, f_hi)
        w, f_w = (hi - lo, f_hi) if lo == u_split else (lo - hi, f_lo)
        return _polish(params, origin, z0, -float(n), w, f_w, split=True)
    return [polish(*bracket) for bracket in brackets]


@dataclass(frozen=True)
class EigenvalueRecord:
    """One located eigenvalue below the band.

    ``origin`` names the vanishing determinant factor; simple roots of
    delta_r carry multiplicity 1, roots of delta_c multiplicity n-1 and
    roots of delta_s multiplicity n.  ``greens`` holds the Green values
    brentq evaluated at the root (None where it evaluated none there);
    :func:`eigenstates` uses them only while ``greens.z == z``.
    """

    z: float
    multiplicity: int
    sector: str   # "even-rank-r" | "even-rank-c" | "odd"
    origin: str   # "delta_r" | "delta_c" | "delta_s"
    greens: GreenValues | None = field(default=None, compare=False, repr=False)


def _expected_sector_counts(even: EvenRegion, odd: OddRegion):
    exp_r = {"G0": 0, "Gamma_l": 0, "G1": 1, "Gamma_r": 1, "G2": 2}[even.curve]
    exp_c = 1 if even.strip == "C+" else 0
    exp_s = 1 if odd.label == "S+" else 0
    return exp_r, exp_c, exp_s


def _locate_records(params: ModelParams, even: EvenRegion,
                    odd: OddRegion) -> list[EigenvalueRecord]:
    multiplicity = _multiplicities(params.n)
    counts = _expected_sector_counts(even, odd)
    records = [EigenvalueRecord(z, multiplicity[origin], sector, origin, g)
               for (origin, sector), count in zip(_SECTOR_OF_ORIGIN.items(), counts)
               for z, g in _roots(params, origin, count)]
    return sorted(records, key=lambda r: r.z)


def negative_eigenvalues(params: ModelParams,
                         tol: float = REGION_TOL) -> list[EigenvalueRecord]:
    """All eigenvalues in (-inf, 0) with multiplicities and origins.

    Inputs within ``tol`` of a curve are first projected onto it, so the
    root count matches the labeled cell exactly.  Roots are polished by
    brentq in u = ln(-z) with xtol = rtol = 4 eps, so their error is
    relative in z: at most 4 eps (1 + w) |z|, with w the width in u of the
    root's bracket (ln 2 for 2^-40 <= -z <= 2^40, at most 80 beyond).
    """
    snapped, even, odd = snap_params(params, tol)
    return _locate_records(snapped, even, odd)


def eigenstates(params: ModelParams, record: EigenvalueRecord) -> list[EigenState]:
    """Closed-form eigenfunction basis for one eigenvalue record, built from
    ``record.greens`` while their z is ``record.z``, else from fresh values."""
    greens = _greens_at(params.n, record.z, record.greens)
    if record.origin == "delta_r":
        return [state_for_delta_r(params, record.z, greens)]
    if record.origin == "delta_c":
        return states_for_delta_c(params, record.z, greens)
    if record.origin == "delta_s":
        return states_for_odd(params, record.z, greens)
    raise ValueError(f"unknown record origin {record.origin!r}")


# ---------------------------------------------------------------------------
# Threshold report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdEntry:
    kind: str          # threshold-eigenvalue | threshold-resonance | super-...
    sector: str        # "even" | "odd"
    multiplicity: int
    states: tuple[EigenState, ...]

    @property
    def formula(self) -> str:
        return self.states[0].formula


@dataclass(frozen=True)
class ThresholdReport:
    """Everything sitting at the band edge z = 0 for one coupling pair."""

    entries: tuple[ThresholdEntry, ...]

    @property
    def kind(self) -> str:
        kinds = sorted({e.kind for e in self.entries})
        if not kinds:
            return "none"
        if len(kinds) == 1:
            return kinds[0]
        return "mixed"

    def multiplicity(self, kind: str) -> int:
        return sum(e.multiplicity for e in self.entries if e.kind == kind)


def _threshold_entries(params: ModelParams, even: EvenRegion,
                       odd: OddRegion) -> list[ThresholdEntry]:
    n = params.n
    entries: list[ThresholdEntry] = []
    greens0 = spectral_constants(n).greens0
    # rank-one even state on the limiting hyperbola; absent for n <= 2
    if n >= 3 and even.curve in ("Gamma_l", "Gamma_r"):
        state = state_for_delta_r(params, 0.0, greens0)
        kind = _CLASS_TO_KIND[integrability_class(state)]
        entries.append(ThresholdEntry(kind, "even", 1, (state,)))
    # repeated even states on the lambda_c line (all n >= 2)
    if even.strip == "C0":
        states = tuple(states_for_delta_c(params, 0.0, greens0))
        kind = _CLASS_TO_KIND[integrability_class(states[0])]
        entries.append(ThresholdEntry(kind, "even", n - 1, states))
    # odd states on the lambda_s line
    if odd.label == "S0":
        states = tuple(states_for_odd(params, 0.0, greens0))
        kind = _CLASS_TO_KIND[integrability_class(states[0])]
        entries.append(ThresholdEntry(kind, "odd", n, states))
    return entries


def threshold_report(params: ModelParams, tol: float = REGION_TOL) -> ThresholdReport:
    """Threshold taxonomy at z = 0 for the (possibly snapped) couplings.

    For n = 1 the even sector never contributes; the only edge state is the
    odd super-threshold resonance on lambda = lambda_s = 1.  For n = 2 the
    even sector contributes only the simple eigenvalue on lambda = lambda_c.
    """
    snapped, even, odd = snap_params(params, tol)
    return ThresholdReport(tuple(_threshold_entries(snapped, even, odd)))


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralSummary:
    params: ModelParams
    snapped: ModelParams
    cell: str
    even: EvenRegion
    odd: OddRegion
    eigenvalues: tuple[EigenvalueRecord, ...]
    threshold: ThresholdReport
    essential_spectrum: tuple[float, float]

    @property
    def negative_count(self) -> int:
        return sum(r.multiplicity for r in self.eigenvalues)


def summarize(params: ModelParams, tol: float = REGION_TOL) -> SpectralSummary:
    """Full below-band spectral picture at one coupling pair.

    The multiplicity-weighted count of located eigenvalues is checked
    against the value the region taxonomy prescribes for the cell; any
    mismatch raises :class:`ConsistencyError` (it means a bug, not data).
    """
    snapped, even, odd = snap_params(params, tol)
    name, expected = cell_label(params.n, even, odd)
    records = _locate_records(snapped, even, odd)
    found = sum(r.multiplicity for r in records)
    if found != expected:
        raise ConsistencyError(
            f"located {found} eigenvalue(s) but cell {name} prescribes "
            f"{expected} for n={params.n}, lambda={snapped.lam}, mu={snapped.mu}")
    report = ThresholdReport(tuple(_threshold_entries(snapped, even, odd)))
    return SpectralSummary(
        params=params,
        snapped=snapped,
        cell=name,
        even=even,
        odd=odd,
        eigenvalues=tuple(records),
        threshold=report,
        essential_spectrum=(0.0, 2.0 * params.n),
    )
