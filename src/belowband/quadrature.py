"""The Laplace-Bessel engine for torus Green's-function integrals.

The engine evaluates the family of integrals

    (2*pi)^-n * integral over (-pi,pi]^n of  g(p) / (E(p) - z) dp,

where ``E(p) = sum_j (1 - cos p_j)`` is the nearest-neighbor dispersion and
``g`` is one of ``1``, ``cos p_1``, ``cos^2 p_1``, ``cos p_1 cos p_2``,
``sin^2 p_1`` or a subtracted combination of those.  Results are returned as
plain ``{name: value}`` dictionaries; the public wrapper types live in
:mod:`belowband.green`.

It uses the Laplace representation

    1/(E(p) - z) = integral_0^inf exp(-(n - z) t) exp(t * sum_j cos p_j) dt,

which factorizes the torus integral into a one-dimensional integral over
products of exponentially scaled modified Bessel functions e^-t I_k(t),
evaluated from Chebyshev series (numpy only) at the nodes of committed
Gauss-Legendre rules.  It works in any dimension
and remains valid at z = 0 for every integral that is finite there
(power-law tail ~ t^(-m/2)).

The dyadic t-panels do not depend on z, so their weighted Bessel
tables are computed once and kept; a call of :func:`laplace_integrals`
builds the head and the panels its z misses in one pass.  ``green``
asks the same builder, ``_keep``, for every head and panel of the
root-location ladder's span, -2^40 <= z <= -2^-40, in one pass: for
n = 1 at import, so a process forked after it sums n = 1 there from
kept tables, and for a larger n on the first use of its ladder.  A
pass writes each weighted row once, into one rows x nodes array that
the new heads and panels are kept from, and kept tables are read-only.
Entries depend only on their own node, not on the calls that built
them.  Each row, of at most ``_CHUNK`` nodes, is summed by one BLAS
ddot, all rows in one batched product of vectors, so a value is
bit-identical whatever ran before and whatever the BLAS thread count,
and concurrent calls are safe.  For n <= 8 the band-edge values, the
values at the 81 points of the root-location ladder and, at
2 <= n <= 8 and u = ln(-z) from -8 to 40 ln 2, a piecewise Chebyshev
table in u are committed in :mod:`belowband.green`
(``tests/make_tables.py`` rewrites them from this engine, one z per
call), so no probe there sums anything; n = 1, larger n and every other
z are summed here, one z per call from ``green._values``, which decides
the source of every z.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureError",
    "laplace_integrals",
    "finite_at_threshold",
]


class QuadratureError(RuntimeError):
    """Raised when the engine cannot reach the requested accuracy."""


# Quantities evaluated per dimension.  ``cd`` is c - d, computed from its
# difference integrand so that it stays finite (and accurate) where c and d
# individually diverge.  These are the integrals the determinant factors,
# the states and their residuals read.
_NAMES_N1 = ("a", "b", "c", "s")
_NAMES = ("a", "b", "c", "d", "s", "cd")


def integral_names(n: int) -> tuple[str, ...]:
    return _NAMES_N1 if n == 1 else _NAMES


def finite_at_threshold(n: int) -> frozenset[str]:
    """Names of integrals that stay finite at z = 0 in dimension ``n``.

    The Laplace integrand of quantity q decays like t^(-m_q/2) with
    m = n for a, b, c, d;  m = n + 2 for s;  m = n + 4 for c - d.
    Finiteness requires m > 2.
    """
    if n == 1:
        return frozenset({"s"})
    if n == 2:
        return frozenset({"s", "cd"})
    return frozenset(_NAMES)


# ---------------------------------------------------------------------------
# Bessel tables and node rules of the Laplace engine
# ---------------------------------------------------------------------------

# Chebyshev coefficients, one column per function (tests/test_quadrature.py
# regenerates them with mpmath): e^-t I_0(t) and e^-t I_1(t)/t in
# y = t/4 - 1 for t <= 8, then sqrt(t) e^-t I_0(t) and sqrt(t) e^-t I_1(t)
# in y = 16/t - 1 for t > 8.
_NEAR = np.array([
    (0.33839763720473803, 0.12629359322181682),
    (-0.3046826723431984, -0.17641651835783406),
    (0.17162090152220877, 0.1026436586898471),
    (-0.09490109704804764, -0.05294598120809499),
    (0.04930528423967071, 0.024726449030626516),
    (-0.02373741480589947, -0.010564084894626197),
    (0.010546460394594998, 0.004156422944312888),
    (-0.004324309995050576, -0.0015135724506312532),
    (0.0016394756169413357, 0.0005122859561685758),
    (-0.0005763755745385824, -0.00016176081582589674),
    (0.00018850288509584165, 4.781565107550054e-05),
    (-5.754195010082104e-05, -1.3273163656039436e-05),
    (1.6448448070728896e-05, 3.4702513081376785e-06),
    (-4.4167383584587505e-06, -8.568720264695455e-07),
    (1.1173875391201037e-06, 2.0032947535521353e-07),
    (-2.670793853940612e-07, -4.445059128796328e-08),
    (6.046995022541919e-08, 9.381537386495773e-09),
    (-1.300025009986248e-08, -1.8872497517228294e-09),
    (2.6598237246823866e-09, 3.625590281552117e-10),
    (-5.189795601635263e-10, -6.663489723502027e-11),
    (9.675809035373237e-11, 1.1736186298890901e-11),
    (-1.726826291441556e-11, -1.9839743977649436e-12),
    (2.95505266312964e-12, 3.223793365945575e-13),
    (-4.856446783111929e-13, -5.042185504727912e-14),
    (7.676185498604936e-14, 7.600684294735408e-15),
    (-1.1685332877993451e-14, -1.1055969477353862e-15),
    (1.715391285555133e-15, 1.5536319577362005e-16),
    (-2.431279846547955e-16, -2.111421214358166e-17),
    (3.3307945188222384e-17, 2.7779141127610464e-18),
    (-4.4153416464793395e-18, -3.541581772542136e-19),
    (5.669178006921496e-19, 4.379302756655071e-20),
])
_FAR = np.array([
    (0.4022452055070544, 0.38928811750914005),
    (0.0033691164782556943, -0.009761097491361469),
    (6.889758346916825e-05, -0.00011058893876262371),
    (2.8913705208347567e-06, -3.882564808877691e-06),
    (2.0489185894690638e-07, -2.512236237870209e-07),
    (2.266668990498178e-08, -2.6314688468895196e-08),
    (3.3962320257083865e-09, -3.835380385964237e-09),
    (4.94060238822497e-10, -5.589743462196584e-10),
    (1.1889147107846439e-11, -1.8974958123505413e-11),
    (-3.1499165279632416e-11, 3.2526035830154884e-11),
    (-1.3215811840447713e-11, 1.4125807436613782e-11),
    (-1.7941785315068062e-12, 2.0356285441470896e-12),
    (7.180124451383666e-13, -7.198551776245908e-13),
    (3.8527783827421426e-13, -4.0835511110921974e-13),
    (1.54008621752141e-14, -2.1015418427726643e-14),
    (-4.150569347287222e-14, 4.272440016711951e-14),
    (-9.554846698828307e-15, 1.0420276984128802e-14),
    (3.8116806693526224e-15, -3.8144030724370075e-15),
    (1.7725601330565263e-15, -1.8803547755107825e-15),
    (-3.425485619677219e-16, 3.3082023109209285e-16),
    (-2.8276239805165836e-16, 2.96262899764595e-16),
    (3.461222867697461e-17, -3.209525921993424e-17),
    (4.46562142029676e-17, -4.6503053684893586e-17),
    (-4.830504485944182e-18, 4.414348323071708e-18),
    (-7.233180487874754e-18, 7.517296310842105e-18),
    (9.921475412173699e-19, -9.314178867326884e-19),
    (1.193650890845982e-18, -1.242193275194891e-18),
    (-2.4887098371508075e-19, 2.4142767194548486e-19),
    (-1.938426454160906e-19, 2.0269443840532852e-19),
    (6.444656697373444e-20, -6.394267188269098e-20),
])

_ASYM_SWITCH = 1e8  # above this the asymptotic series is exact to rounding

# Gauss-Legendre rules on [-1, 1] of 48 and 96 nodes, as rows (x, w) of
# their halves x > 0; the rules are symmetric.  These are numpy's
# leggauss(48) and leggauss(96) (Golub-Welsch eigenvalues and one Newton
# step); tests/test_quadrature.py checks them against mpmath.
_GAUSS48 = np.array([
    (0.03238017096286937, 0.06473769681268365),
    (0.0970046992094627, 0.06446616443594982),
    (0.1612223560688917, 0.06392423858464787),
    (0.22476379039468905, 0.06311419228625373),
    (0.28736248735545555, 0.06203942315989242),
    (0.3487558862921607, 0.0607044391658936),
    (0.4086864819907167, 0.059114839698395344),
    (0.4669029047509584, 0.057277292100402916),
    (0.523160974722233, 0.05519950369998403),
    (0.5772247260839727, 0.05289018948519344),
    (0.6288673967765136, 0.0503590355538542),
    (0.6778723796326639, 0.04761665849249024),
    (0.7240341309238146, 0.04467456085669423),
    (0.7671590325157404, 0.04154508294346455),
    (0.8070662040294426, 0.0382413510658305),
    (0.8435882616243935, 0.034777222564770394),
    (0.8765720202742479, 0.031167227832798097),
    (0.9058791367155696, 0.027426509708357034),
    (0.9313866907065543, 0.023570760839324047),
    (0.9529877031604308, 0.019616160457356056),
    (0.9705915925462473, 0.015579315722943226),
    (0.9841245837228269, 0.011477234579234614),
    (0.9935301722663508, 0.007327553901276135),
    (0.9987710072524261, 0.0031533460523098414),
])
_GAUSS96 = np.array([
    (0.016276744849602967, 0.03255061449236328),
    (0.04881298513604974, 0.03251611871386895),
    (0.08129749546442555, 0.0324471637140644),
    (0.11369585011066592, 0.03234382256857602),
    (0.14597371465489695, 0.03220620479403032),
    (0.17809688236761861, 0.032034456231992796),
    (0.2100313104605672, 0.03182875889441112),
    (0.24174315616384, 0.03158933077072725),
    (0.27319881259104917, 0.03131642559686141),
    (0.30436494435449635, 0.03101033258631393),
    (0.3352085228926254, 0.030671376123669266),
    (0.3656968614723136, 0.03029991542082777),
    (0.3957976498289086, 0.029896344136328506),
    (0.42547898840730053, 0.029461089958168016),
    (0.454709422167743, 0.02899461415055532),
    (0.48345797392059636, 0.028497411065085413),
    (0.5116941771546677, 0.02797000761684837),
    (0.5393881083243575, 0.027412962726029232),
    (0.5665104185613972, 0.02682686672559185),
    (0.593032364777572, 0.026212340735672593),
    (0.6189258401254686, 0.025570036005349364),
    (0.6441634037849671, 0.024900633222483814),
    (0.6687183100439161, 0.02420484179236482),
    (0.6925645366421715, 0.023483399085926292),
    (0.7156768123489676, 0.022737069658329466),
    (0.7380306437444001, 0.02196664443874457),
    (0.7596023411766475, 0.021172939892191354),
    (0.7803690438674332, 0.020356797154333365),
    (0.8003087441391408, 0.019519081140145382),
    (0.8194003107379316, 0.01866067962741174),
    (0.8376235112281871, 0.017782502316045286),
    (0.8549590334346014, 0.016885479864245195),
    (0.8713885059092965, 0.015970562902562345),
    (0.8868945174024204, 0.015038721026994927),
    (0.9014606353158523, 0.014090941772314894),
    (0.9150714231208981, 0.013128229566961646),
    (0.9277124567223087, 0.012151604671088057),
    (0.9393703397527552, 0.01116210209983861),
    (0.9500327177844377, 0.010160770535008306),
    (0.9596882914487426, 0.009148671230783011),
    (0.9683268284632642, 0.0081268769256983),
    (0.9759391745851365, 0.007096470791153821),
    (0.9825172635630147, 0.006058545504235195),
    (0.9880541263296237, 0.005014202742928604),
    (0.9925439003237626, 0.003964554338444405),
    (0.9959818429872093, 0.0029107318179352943),
    (0.9983643758631817, 0.0018539607889441585),
    (0.9996895038832307, 0.0007967920655518723),
])


def _mirrored(half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a symmetric rule from its half x > 0."""
    x, w = half.T
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


_GAUSS = {48: _mirrored(_GAUSS48), 96: _mirrored(_GAUSS96)}


def _chebyshev(coef: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Both columns of a Chebyshev series at y, in one Clenshaw pass."""
    if y.size == 0:   # every node on the other side of t = 8
        return np.empty((2, 0))
    y2 = 2.0 * y
    b1 = b2 = np.zeros((2, y.size))
    for c in coef[:0:-1]:
        b1, b2 = c[:, None] + y2 * b1 - b2, b1
    return coef[0][:, None] + y * b1 - b2


def _ive01(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^-t I_0(t) and e^-t I_1(t) for t > 0, stable for arbitrarily large t."""
    i01 = np.empty((2, t.size))
    near, big = t <= 8.0, t > _ASYM_SWITCH
    mid = ~(near | big)
    tn, tm, tb = t[near], t[mid], t[big]
    series = _chebyshev(_NEAR, tn / 4.0 - 1.0)
    series[1] *= tn
    i01[:, near] = series
    i01[:, mid] = _chebyshev(_FAR, 16.0 / tm - 1.0) / np.sqrt(tm)
    pref = 1.0 / (np.sqrt(2.0 * np.pi) * np.sqrt(tb))  # no overflow up to 2^1023
    x8 = 0.125 / tb
    i01[0, big] = pref * (1.0 + x8 + 4.5 * x8 * x8)
    i01[1, big] = pref * (1.0 - 3.0 * x8 - 7.5 * x8 * x8)
    return i01[0], i01[1]


def _weighted_integrands(n: int, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Laplace integrands times quadrature weights, one row per integral,
    each written once into one rows x nodes array."""
    i0, i1 = _ive01(t)
    r = i1 / t  # == (ive0 - ive2)/2 by the Bessel recurrence
    i0nm1 = i0 ** (n - 1)
    out = np.empty((len(integral_names(n)), t.size))
    rows = iter(out)
    np.multiply(i0 ** n, w, out=next(rows))
    np.multiply(i1 * i0nm1, w, out=next(rows))
    np.multiply((i0 - r) * i0nm1, w, out=next(rows))
    if n > 1:
        i0nm2 = i0 ** (n - 2)
        np.multiply(i1 * i1 * i0nm2, w, out=next(rows))
    np.multiply(r * i0nm1, w, out=next(rows))
    if n > 1:
        # the difference form keeps the large-t cancellation mild
        np.multiply(((i0 - i1) * (i0 + i1) - i0 * r) * i0nm2, w, out=next(rows))
    return out


_NODES = 48                     # Gauss-Legendre nodes per panel (_GAUSS);
                                # the z = 0 tail takes 96
_ZERO_END = 6                   # at z = 0 the panels stop at t = 2^6
_Z_MAX = 2.0 ** 510             # larger |z|: b ~ 1/(2 z^2) is subnormal
_CHUNK = 8192                   # most nodes per row: below the 10000 at
                                # which OpenBLAS threads a ddot
_HEADS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
_PANELS: dict[int, tuple[int, int, np.ndarray, np.ndarray]] = {}


def _panel_nodes(lo, hi, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, m per panel [lo_i, hi_i]."""
    x, w = _GAUSS[m]
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return (mid + half * x).ravel(), (half * w).ravel()


@lru_cache(maxsize=None)
def _z_near(n: int) -> float:
    """The z nearest the band edge that the engine takes at dimension n:
    its panels, from the head's end 2^k0 to 746/|z| = 2^(k0 + _CHUNK //
    _NODES), fill one chunk per row (k0 is that of z = 0, as n - z rounds
    to n there)."""
    return -math.ldexp(746.0, -(_span(n, 0.0)[0] + _CHUNK // _NODES))


def _span(n: int, z: float) -> tuple[int, int]:
    """Exponents k0, k1 of the head [0, 2^k0] and of the last panel end at z.

    The head ends at 2^k0 <= 1/(n - z) <= 1, the shortest scale of the
    integrand; the panels end at the first 2^k1 past 746/|z|, where
    exp(z t) has underflowed, or at 2^6 when z = 0.
    """
    if not (n >= 1 and -_Z_MAX <= z <= 0.0):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if not -math.inf < z <= 0.0:
            raise ValueError(f"spectral parameter must be finite and <= 0, got {z}")
        raise QuadratureError(
            f"z={z!r} is too far below the band: b would not be a normal "
            f"double; |z| must be at most {_Z_MAX!r}")
    k0 = math.frexp(1.0 / (n - z))[1] - 1   # n - z >= 1
    if z == 0.0:
        return k0, _ZERO_END
    if z > _z_near(n):
        raise QuadratureError(
            f"z={z!r} is too close to the band edge: the panels would need more "
            f"than {_CHUNK} nodes per row; at n={n} z must be at most {_z_near(n)!r}")
    mant, k1 = math.frexp(746.0 / -z)
    return k0, k1 - (mant == 0.5)


def _keep(n: int, heads, k1: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Keep the heads [0, 2^k] of dimension n for each k in ``heads``
    (ascending) and the panels from 2^heads[0] up to 2^k1, the missing
    ones from one Bessel pass; returns the kept panels (lo, hi, nodes,
    table), at once where nothing is missing.  A probe asks for the one
    head of its z; ``green`` asks for every head of the ladder's span at
    once, at import for n = 1 and on the first use of a larger n's
    ladder."""
    k0 = heads[0]
    heads = [k for k in heads if (n, k) not in _HEADS]
    kept = _PANELS.get(n)
    if not heads and kept is not None and kept[0] <= k0 and k1 <= kept[1]:
        return kept
    lo, hi, t, table = kept or (k0, k0, np.empty(0), np.empty((len(integral_names(n)), 0)))
    ks = [*range(k0, lo), *range(hi, k1)]
    starts = [0.0] * len(heads) + [math.ldexp(1.0, k) for k in ks]
    ends = [math.ldexp(1.0, k) for k in heads] + [math.ldexp(1.0, k + 1) for k in ks]
    tn, wn = _panel_nodes(starts, ends, _NODES)
    cuts = np.cumsum([len(heads) * _NODES, max(lo - k0, 0) * _NODES])
    th, tb, ta = np.split(tn, cuts)
    wh, wb, wa = np.split(_weighted_integrands(n, tn, wn), cuts, axis=1)
    for i, k in enumerate(heads):
        cols = slice(i * _NODES, (i + 1) * _NODES)
        _HEADS[n, k] = _frozen(th[cols].copy()), _frozen(wh[:, cols].copy())
    kept = (min(lo, k0), max(hi, k1), _frozen(np.concatenate([tb, t, ta])),
            _frozen(np.concatenate([wb, table, wa], axis=1)))
    _PANELS[n] = kept
    return kept


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, read-only: a kept table is never written once published."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _tail(n: int) -> np.ndarray:
    """The z = 0 integrals over t > 2^6, taken in u = t^-1/2; a constant of n."""
    u, wu = _panel_nodes([0.0], [2.0 ** (-_ZERO_END / 2)], 2 * _NODES)
    return _frozen(_weighted_integrands(n, u ** -2.0, wu * 2.0 * u ** -3.0).sum(axis=1))


def _column(n: int, z: float, k0: int, k1: int, kept) -> np.ndarray:
    """Every row's sum at one z over the head [0, 2^k0] and the kept panels
    up to 2^k1, plus the z = 0 tail where z is 0."""
    lo, _, t, table = kept
    th, head = _HEADS[n, k0]
    cut = slice((k0 - lo) * _NODES, (k1 - lo) * _NODES)
    eh, e = np.exp(z * th), np.exp(z * t[cut])
    # A stack of (1 x k)(k x 1) products, one per row: numpy hands each
    # to the BLAS ddot, so every row, a and b alike, is summed in one
    # order and a - b = (1 + z a)/n stays accurate where both are huge
    # (n = 1 near the band edge).  A matrix-vector or matrix product
    # would block the rows differently.  At most _CHUNK nodes keep each
    # ddot single-threaded.
    column = (np.matmul(head[:, None], eh[:, None])
              + np.matmul(table[:, None, cut], e[:, None])).ravel()
    if z == 0.0:
        column += _tail(n)
    return column


def laplace_integrals(n: int, z: float) -> dict:
    """Evaluate the torus integrals at one z by the Laplace-Bessel
    representation.

    A warm call costs one ``_column`` and its span plus a few dictionary
    operations; the head and panels that z misses are built first, in one
    Bessel pass.  The panels run from a head [0, 2^k0] with
    2^k0 <= 1/(n - z), the shortest scale of the integrand, to the first
    2^k1 past 746/|z|, where exp(z t) has underflowed.  At z = 0 they stop
    at 2^6 and the power-law tail is integrated in u = t^-1/2.  A z nearer
    the edge than :func:`_z_near` (u = ln(-z) about -111 to -109) would
    need more than ``_CHUNK`` nodes per row, and |z| above 2^510 (about
    3.4e153) would make b ~ 1/(2 z^2) subnormal; both raise
    :class:`QuadratureError`.  At z = 0 only the finite integrals are
    returned (see :func:`finite_at_threshold`).
    """
    z = float(z)
    k0, k1 = _span(n, z)
    rows = zip(integral_names(n), _column(n, z, k0, k1, _keep(n, (k0,), k1)).tolist())
    if z < 0.0:
        return dict(rows)
    return {k: v for k, v in rows if k in finite_at_threshold(n)}
