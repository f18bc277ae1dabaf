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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .green import GreenValues, green_threshold, green_values
from .reduction import (
    ModelParams,
    critical_couplings,
    hyperbola_limit,
    lambda_asymptote,
)
from .states import (
    EigenState,
    IntegrabilityClass,
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
    greens0 = green_threshold(n)
    crit = critical_couplings(n, greens0)
    return SpectralConstants(
        n=n,
        x_asymptote=lambda_asymptote(n, greens0),
        lambda_s=crit.lambda_s,
        lambda_c=crit.lambda_c,
        greens0=greens0,
    )


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
    """Snap mu onto the limiting hyperbola; returns (mu, on_curve, moved)."""
    h0 = hyperbola_limit(n, lam, mu, x)
    if abs(h0) > tol:
        return mu, False, False
    if lam == x:  # H_0 = -n there; |H_0| <= tol would need tol >= n
        return mu, False, False
    exact = n + n / (lam - x)
    return exact, True, mu != exact


def snap_params(params: ModelParams, tol: float = REGION_TOL):
    """Project near-boundary couplings onto the curves and classify.

    Returns ``(snapped_params, even_region, odd_region)``.  With tol = 0
    nothing is snapped and open-region semantics apply.
    """
    n = params.n
    consts = spectral_constants(n)
    lam, on_s, on_c, moved_l = _snap_lambda(params.lam, consts, tol)
    mu, on_h, moved_m = _snap_mu(n, lam, params.mu, consts.x_asymptote, tol)
    snapped = ModelParams(n, lam, mu) if (moved_l or moved_m) else params

    if on_h:
        curve = "Gamma_l" if lam < consts.x_asymptote else "Gamma_r"
    else:
        h0 = hyperbola_limit(n, lam, mu, consts.x_asymptote)
        if h0 < 0.0:
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
    """
    if n == 1:
        if even.curve == "Gamma_l":
            return "B0", 0
        if even.curve == "Gamma_r":
            return "B2", 2
        if odd.label == "S0":
            if even.curve != "G1":
                raise ConsistencyError(
                    f"S0 must lie inside G1 for n=1, got {even.curve}")
            return "S1", 1
        if even.curve == "G0":
            return "D0", 0
        if even.curve == "G1":
            return ("D1", 1) if odd.label == "S-" else ("D2", 2)
        if odd.label != "S+":
            raise ConsistencyError("G2 requires lambda > lambda_s for n=1")
        return "D3", 3

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

_LADDER = tuple(-(2.0 ** k) for k in range(40, -41, -1))  # -2^40 .. -2^-40
_BRENTQ_KW = dict(xtol=1e-13, rtol=4 * np.finfo(float).eps, maxiter=200)


def _hyper_of_ratio(params: ModelParams, z: float, ratio_ab: float) -> float:
    """H_z = (lam - a/b)(mu - (n - z)) - n from the value of a/b at z."""
    return (params.lam - ratio_ab) * (params.mu - (params.n - z)) - params.n


def _hyper_value(params: ModelParams, z: float) -> float:
    return _hyper_of_ratio(params, z, green_values(params.n, z).ratio_ab)


@lru_cache(maxsize=None)
def _ladder_ratios(n: int) -> tuple[float, ...]:
    """a/b at the points of ``_LADDER``, a constant of n.

    Built on the first ``delta_r`` root search at this n, never by
    ``spectral_constants``: requests that locate no ``delta_r`` root do not
    pay for the 81 evaluations.
    """
    return tuple(green_values(n, z).ratio_ab for z in _LADDER)


def _ladder_values(params: ModelParams) -> list[float]:
    """H_z at the points of ``_LADDER``, equal to scalar ``_hyper_value`` calls."""
    return [_hyper_of_ratio(params, z, r)
            for z, r in zip(_LADDER, _ladder_ratios(params.n))]


def _edge_root(fn, z_top: float, f_top: float, failure: str) -> float:
    """Root of fn(z) between z_top < 0 and the band edge, in u = ln(-z).

    Near z = 0 the determinant factors converge to their limits slowly
    (logarithmically for n <= 2), so a root squeezed against the edge can
    sit at -z far below any linear ladder.  They extend continuously to the
    edge, which gives a bracket in u whenever f_top and the z -> 0- limit
    have opposite signs.  A failure carries the (z, f) pairs visited.
    """
    f_of_u = lambda u: fn(-math.exp(u))
    u, f = math.log(-z_top), f_top
    table = [(z_top, f_top)]
    while u > -700.0:
        u_next = max(u - 80.0, -700.0)
        f_next = f_of_u(u_next)
        table.append((-math.exp(u_next), f_next))
        if f_next == 0.0:
            return -math.exp(u_next)
        if f_next * f < 0.0:
            return -math.exp(float(brentq(f_of_u, u_next, u, **_BRENTQ_KW)))
        u, f = u_next, f_next
    raise RootScanError(failure, sign_table=table)


def _brackets(grid, values) -> list[tuple[float, float]]:
    brackets = []
    for (z0, f0), (z1, f1) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if f0 == 0.0:
            brackets.append((z0, z0))
        elif f0 * f1 < 0.0:
            brackets.append((z0, z1))
    if values and values[-1] == 0.0:
        brackets.append((grid[-1], grid[-1]))
    return brackets


def _delta_r_roots(params: ModelParams, expected: int) -> list[float]:
    """Zeros of delta_r in (-inf, 0) via sign scan of the hyperbola function.

    delta_r = b(z) H_z with b > 0, so the zeros coincide and H_z is much
    better conditioned near the band edge.  The ladder scan reads a/b from
    the per-n table ``_ladder_ratios``, so only lam and mu enter
    anew and the scan costs no Green evaluation once the table exists; its
    values are bit-identical to scalar ``_hyper_value`` calls.  ``brentq``,
    the edge search and the refinement evaluate H_z by scalar calls.
    Missing roots after the ladder scan are sought against the band edge,
    then in a 16-fold refined ladder; a persistent mismatch is reported
    with the sign table.
    """
    if expected == 0:
        return []
    fn = lambda z: _hyper_value(params, z)
    grid = list(_LADDER)
    values = _ladder_values(params)
    brackets = _brackets(grid, values)
    edge = []
    if len(brackets) < expected:
        # one root may be squeezed against the band edge, beyond the
        # ladder: detectable as a sign mismatch between the topmost ladder
        # value and the z -> 0- limit of the hyperbola function
        consts = spectral_constants(params.n)
        limit = hyperbola_limit(params.n, params.lam, params.mu,
                                consts.x_asymptote)
        if limit != 0.0 and values[-1] * limit < 0.0:
            edge.append(_edge_root(
                fn, grid[-1], values[-1],
                f"a zero of delta_r lies closer to the band edge than exp(-700) "
                f"for (n={params.n}, lambda={params.lam}, mu={params.mu}); the "
                f"limit value there is {limit}"))
    if len(brackets) + len(edge) < expected:
        dense = []
        for z0, z1 in zip(grid, grid[1:]):
            dense.extend(np.linspace(z0, z1, 17)[:-1])
        dense.append(grid[-1])
        grid = dense
        values = [fn(z) for z in grid]
        brackets = _brackets(grid, values)
    if len(brackets) + len(edge) != expected:
        raise RootScanError(
            f"expected {expected} zero(s) of delta_r for (n={params.n}, "
            f"lambda={params.lam}, mu={params.mu}), bracketed "
            f"{len(brackets) + len(edge)}",
            sign_table=list(zip(grid, values)))
    roots = list(edge)
    for z0, z1 in brackets:
        roots.append(z0 if z0 == z1 else float(brentq(fn, z0, z1, **_BRENTQ_KW)))
    return sorted(roots)


def _monotone_root(params: ModelParams, which: str) -> float:
    """Unique zero of lam*q(z) - 1 for the increasing integral q = c-d or s."""
    def fn(z: float) -> float:
        g = green_values(params.n, z)
        q = g.cd if which == "cd" else g.s
        return params.lam * q - 1.0

    hi = _LADDER[-1]
    f_hi = fn(hi)
    if f_hi == 0.0:
        return hi
    if f_hi < 0.0:  # lam > 1/q(0): the root lies between ladder and edge
        return _edge_root(fn, hi, f_hi,
                          f"the {which} root at lambda={params.lam} lies closer "
                          "to the band edge than exp(-700)")
    lo = None
    table = [(hi, f_hi)]
    z = -1.0
    while z >= -1e15:
        f = fn(z)
        table.append((z, f))
        if f <= 0.0:
            lo = z
            break
        z *= 2.0
    if lo is None:
        raise RootScanError(
            f"could not bracket the {which} root for lambda={params.lam}",
            sign_table=table)
    return float(brentq(fn, lo, hi, **_BRENTQ_KW))


@dataclass(frozen=True)
class EigenvalueRecord:
    """One located eigenvalue below the band.

    ``origin`` names the vanishing determinant factor; simple roots of
    delta_r carry multiplicity 1, roots of delta_c multiplicity n-1 and
    roots of delta_s multiplicity n.
    """

    z: float
    multiplicity: int
    sector: str   # "even-rank-r" | "even-rank-c" | "odd"
    origin: str   # "delta_r" | "delta_c" | "delta_s"


def _expected_sector_counts(n: int, even: EvenRegion, odd: OddRegion):
    exp_r = {"G0": 0, "Gamma_l": 0, "G1": 1, "Gamma_r": 1, "G2": 2}[even.curve]
    exp_c = 1 if (n >= 2 and even.strip == "C+") else 0
    exp_s = 1 if odd.label == "S+" else 0
    return exp_r, exp_c, exp_s


def _locate_records(params: ModelParams, even: EvenRegion,
                    odd: OddRegion) -> list[EigenvalueRecord]:
    n = params.n
    exp_r, exp_c, exp_s = _expected_sector_counts(n, even, odd)
    records = [EigenvalueRecord(z, 1, "even-rank-r", "delta_r")
               for z in _delta_r_roots(params, exp_r)]
    if exp_c:
        records.append(EigenvalueRecord(
            _monotone_root(params, "cd"), n - 1, "even-rank-c", "delta_c"))
    if exp_s:
        records.append(EigenvalueRecord(
            _monotone_root(params, "s"), n, "odd", "delta_s"))
    return sorted(records, key=lambda r: r.z)


def negative_eigenvalues(params: ModelParams,
                         tol: float = REGION_TOL) -> list[EigenvalueRecord]:
    """All eigenvalues in (-inf, 0) with multiplicities and origins.

    Inputs within ``tol`` of a curve are first projected onto it, so the
    root count matches the labeled cell exactly.  Roots are located to
    better than 1e-10 in z.
    """
    snapped, even, odd = snap_params(params, tol)
    return _locate_records(snapped, even, odd)


def eigenstates(params: ModelParams, record: EigenvalueRecord) -> list[EigenState]:
    """Closed-form eigenfunction basis for one eigenvalue record."""
    greens = (green_values(params.n, record.z) if record.z < 0.0
              else spectral_constants(params.n).greens0)
    if record.origin == "delta_r":
        return [state_for_delta_r(params, record.z, greens)]
    if record.origin == "delta_c":
        if params.n < 2:
            raise ValueError("delta_c records require n >= 2")
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

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)


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
    if n >= 2 and even.strip == "C0":
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
