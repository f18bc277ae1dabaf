"""Lattice Green's-function integrals below and at the band edge.

The spectral analysis of the impurity Hamiltonian reduces to five torus
integrals of ``g(p)/(E(p) - z)`` with g = 1, cos p_1, cos^2 p_1,
cos p_1 cos p_2 and sin^2 p_1, conventionally named a, b, c, d, s.  This
module wraps the Laplace-Bessel engine into a typed interface, tracks
which integrals are finite at the band edge z = 0, and provides the exact
algebraic closed forms at n = 1.  Three tables are committed for
n <= 8:

- the z = 0 values, the engine's own sums (``_BAND_EDGE``);
- at 2 <= n <= 8 and u = ln(-z) from -8 to 40 ln 2, a piecewise Chebyshev
  series in u fitted to the engine's sums (``table.f64``), within 8 eps
  of them; it serves every float z there, and the engine never sums such
  a z.  brentq's probes there read its scaled rows (``_scaled``) and
  unscale the five values that positivity is checked on, by the
  divisions of ``_unscale``, so they build no ``GreenValues`` record; the
  one record of a root is ``_unscale`` of those rows, as
  ``green_values`` builds it;
- the values at the 81 points of the root-location ladder
  (``ladder.f64``), each bit for bit the scalar ``green_values`` call.

Both files are read once, at import, into read-only arrays that every
record and probe shares, so a process forked after the import reads
neither again; a file of the wrong size fails the import with an OSError
naming it.  n = 1, n > 8 and every z outside the table's range (nearer
the edge than u = -8 included, where a root's conditioning would magnify
the table's few eps) take the Laplace engine.  ``tests/make_tables.py``
rewrites the three from fresh engine sums.  Past the engine's reach
(u = ln(-z) about -111 to -109, and from -45 at n = 2) an edge record
serves every z down to the smallest subnormal: the closed forms at
n = 1, the edge form of a (K(m) as m -> 1) with the z = 0 values of
c - d and s at n = 2, and the z = 0 values at n >= 3, each within a few
eps of the engine.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import (_NAMES, QuadratureError, _frozen, _z_near, integral_names,
                         laplace_integrals)
from .reduction import _is_int

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
    From :func:`green_values` at an array of z, ``z`` and every finite
    field are arrays over it.
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


def _pack(n: int, z, raw: dict) -> GreenValues:
    """The engine's ``{name: value}`` record at z as a ``GreenValues``.

    The engine names no d at n = 1 and only the finite integrals at z = 0.
    Every one of a, b, c, s and c - d that it names must be positive, at
    each entry of an array of z; a float z, brentq's probe, is checked by
    five comparisons.  A failure raises :class:`QuadratureError` naming
    the first integral and the first z at which it is not.
    """
    get = raw.get
    a, b, c, s, cd = get("a"), get("b"), get("c"), get("s"), get("cd")
    if not (isinstance(z, float) and (a is None or a > 0.0)
            and (b is None or b > 0.0) and (c is None or c > 0.0)
            and (s is None or s > 0.0) and (cd is None or cd > 0.0)):
        for name, v in (("a", a), ("b", b), ("c", c), ("s", s), ("cd", cd)):
            if v is not None and not np.all(v > 0.0):
                v = np.ravel(v)
                i = np.argmin(v > 0.0)   # the first that is not
                raise QuadratureError(
                    f"integral {name}={v[i]} at n={n}, z={np.ravel(z)[i]} "
                    "violates positivity; quadrature failed")
    # the record GreenValues(...) builds, without its eight frozen setattrs
    g = object.__new__(GreenValues)
    g.__dict__.update(n=n, z=z, a=a, b=b, c=c, d=get("d"), s=s, cd=cd)
    return g


# Nearer the edge than _switch(n) the integrals equal their edge forms to
# rounding: at n = 2 below u = ln(-z) = -45, a = (ln 16 - u)/(2 pi) (DLMF
# 19.12.1), and s, cd move by O(z ln|z|), under half an ulp; at n = 3 the
# z = 0 values miss sqrt(-z)/(sqrt(2) pi), under 1e-24 relative.
_Z_EDGE2 = -math.exp(-45.0)


@lru_cache(maxsize=None)
def _switch(n: int) -> float:
    """The engine's reach, and -exp(-45) at n = 2."""
    return _Z_EDGE2 if n == 2 else _z_near(n)


# The finite integrals at z = 0 for n <= 8: the Laplace engine's own sums,
# written with repr (tests/test_green.py recomputes them from the engine).
# They are not correctly rounded: s(0) = 1 at n = 1 reads one ulp high.
_BAND_EDGE = {
    1: {"s": 1.0000000000000002},
    2: {"s": 0.3633802276324188, "cd": 0.2732395447351628},
    3: {"a": 0.5054620197173261, "b": 0.1721286863839927, "c": 0.29562032440102876,
        "d": 0.11038286737547465, "s": 0.20984169531629734, "cd": 0.18523745702555416},
    4: {"a": 0.3098667804621205, "b": 0.05986678046212043, "c": 0.16317889922287643,
        "d": 0.02542940754186843, "s": 0.14668788123924403, "cd": 0.137749491681008},
    5: {"a": 0.23126162496804623, "b": 0.03126162496804624, "c": 0.11838124801039461,
        "d": 0.009481719207459145, "s": 0.11288037695765164, "cd": 0.10889952880293548},
    6: {"a": 0.18616056220444535, "b": 0.019493895537778638, "c": 0.09431548108860156,
        "d": 0.004529578427614057, "s": 0.09184508111584376, "cd": 0.0897859026609875},
    7: {"a": 0.15627233079826403, "b": 0.013415187941121141, "c": 0.07880030215988054,
        "d": 0.0025176689046612446, "s": 0.07747202863838347,
        "cd": 0.07628263325521929},
    8: {"a": 0.13483087650211567, "b": 0.009830876502115692, "c": 0.06781620449252847,
        "d": 0.0015472582177710147, "s": 0.06701467200958725,
        "cd": 0.06626894627475745},
}


# The ladder of root location (classify): u = ln(-z) from 40 ln 2 down to
# -40 ln 2 in steps of ln 2, and z by libm's exp, as brentq's probes take it.
_LADDER = tuple(k * math.log(2.0) for k in range(40, -41, -1))
_LADDER_Z = _frozen(np.array([-math.exp(u) for u in _LADDER]))

# The finite integrals at _LADDER_Z for n = 1.._LADDER_N, each the scalar
# green_values call at its z (the table's values in its range, else the
# engine's sums), as little-endian float64, n after n, each n's rows
# (a, b, c, s at n = 1; a, b, c, d, s, cd above) of 81 values in ladder
# order.
_LADDER_FILE = os.path.join(os.path.dirname(__file__), "ladder.f64")
_LADDER_N = 8


def _read(path: str, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """The little-endian float64 values of a committed table as a read-only
    array of ``shape``, since every record and probe served from it shares
    it; a file of any other size raises OSError naming it."""
    values = np.fromfile(path, dtype="<f8")
    size = math.prod(shape)
    if values.size != size:
        raise OSError(
            f"the {what} {path} holds {os.path.getsize(path)} bytes, expected "
            f"{8 * size}; rewrite it with tests/make_tables.py")
    return _frozen(values).reshape(shape)


def _ladder_values() -> dict[int, dict[str, np.ndarray]]:
    """The rows of ``ladder.f64`` as ``{n: {name: row}}``, from one read."""
    ns = range(1, _LADDER_N + 1)
    shape = (sum(len(integral_names(n)) for n in ns), _LADDER_Z.size)
    rows = iter(_read(_LADDER_FILE, "ladder table", shape))
    return {n: {name: next(rows) for name in integral_names(n)} for n in ns}


_LADDER_VALUES = _ladder_values()


# The Green table of 2 <= n <= _LADDER_N, from u = ln(-z) = _TABLE_EDGES[0]
# to the ladder's top 40 ln 2: on each piece [lo, hi] of _TABLE_EDGES,
# _TABLE_TERMS coefficients of T_k(x), x = (u - mid)/half, for each of a,
# c, s and c - d times (n - z), b times (n - z)^2 and d times (n - z)^3,
# which stay O(1) out to z = -2^40.  The file holds them as little-endian
# float64, n after n, piece after piece, one row per integral in the order
# of integral_names.  Edges and term count are measured: each value is
# within 8 eps of the engine's sum (6.5 eps over 3000 seeded u per n), the
# engine's own rounding noise.
_TABLE_EDGES = (-8.0, -3.0, 0.0, 2.5, 5.0, 9.0, 17.0, _LADDER[0])
_TABLE_TERMS = 24
_TABLE_PIECES = tuple((0.5 * (lo + hi), 0.5 * (hi - lo))
                      for lo, hi in zip(_TABLE_EDGES, _TABLE_EDGES[1:]))
_TABLE_FILE = os.path.join(os.path.dirname(__file__), "table.f64")
_TABLE_FAR, _TABLE_NEAR = float(_LADDER_Z[0]), -math.exp(_TABLE_EDGES[0])


def _table_pieces() -> tuple[tuple[np.ndarray, ...], ...]:
    """The coefficient blocks of ``table.f64`` as ``[n - 2][piece]``, each
    a read-only rows x terms array, from one read."""
    shape = (_LADDER_N - 1, len(_TABLE_PIECES), len(_NAMES), _TABLE_TERMS)
    return tuple(map(tuple, _read(_TABLE_FILE, "Green table", shape)))


_PIECES = _table_pieces()


def _scaled(n: int, u: float) -> list[float]:
    """The scaled rows a, b, c, d, s, c - d (times their powers of n - z)
    at u = ln(-z) in the Green table's range of 2 <= n <= 8:
    T_0..T_{terms-1} at u by the three-term recurrence and one product
    with the coefficient block of u's piece.  The 6 x 24 matrix-vector
    product is far below the size at which OpenBLAS threads, so the
    values do not depend on the BLAS thread count."""
    i = bisect_right(_TABLE_EDGES, u, 1, len(_TABLE_PIECES)) - 1
    mid, half = _TABLE_PIECES[i]
    x = (u - mid) / half
    x2, t0, t1 = x + x, 1.0, x
    terms = [t0, t1]
    for _ in range(_TABLE_TERMS - 2):
        t0, t1 = t1, x2 * t1 - t0
        terms.append(t1)
    return _PIECES[n - 2][i].dot(np.array(terms)).tolist()


def _unscale(n: int, z: float, rows: list[float]) -> dict[str, float]:
    """The integrals at z from the scaled rows of ``_scaled``: each
    divided by its power of n - z."""
    a, b, c, d, s, cd = rows
    w = n - z
    w2 = w * w
    return {"a": a / w, "b": b / w2, "c": c / w, "d": d / (w2 * w), "s": s / w, "cd": cd / w}


def _table(n: int, z: float) -> dict[str, float]:
    """The integrals at _TABLE_FAR <= z <= _TABLE_NEAR for 2 <= n <= 8,
    unscaled from ``_scaled`` at u = ln(-z).  brentq's probes there
    (``classify._polish``) read ``_scaled`` and unscale what they check
    and read by the same divisions, so this is bit for bit their values."""
    return _unscale(n, z, _scaled(n, math.log(-z)))


@lru_cache(maxsize=None)
def _threshold(n: int) -> dict[str, float]:
    """The finite integrals at z = 0: committed for n <= 8, else from the
    Laplace engine."""
    return _BAND_EDGE.get(n) or laplace_integrals(n, 0.0)


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


def _evaluate(n: int, z) -> GreenValues:
    """The integrals at z <= 0: at z = 0 from ``_threshold``, in the
    Green table's range of 2 <= n <= 8 from ``_table``, at
    _switch(n) < z < 0 from ``_edge``, else from the Laplace engine; at an
    array of z, the ladder of n <= 8 from ``_LADDER_VALUES`` and any other
    array as one ``green_values`` call per entry."""
    if type(n) is not int or n < 1:
        if not (_is_int(n) and n >= 1):
            raise ValueError(f"dimension must be a positive integer, got {n!r}")
        n = int(n)
    if not isinstance(z, float):   # an array of z, from green_values
        if n <= _LADDER_N and np.array_equal(z, _LADDER_Z):
            return _pack(n, z, _LADDER_VALUES[n])
        each = [green_values(n, x) for x in z.tolist()]
        return _pack(n, z, {k: np.array([getattr(g, k) for g in each])
                            for k in integral_names(n)})
    if 1 < n <= _LADDER_N and _TABLE_FAR <= z <= _TABLE_NEAR:
        raw = _table(n, z)
    elif _switch(n) < z < 0.0:
        raw = _edge(n, z)
    else:
        raw = _threshold(n) if z == 0.0 else laplace_integrals(n, z)
    return _pack(n, z, raw)


def green_values(n: int, z) -> GreenValues:
    """Evaluate a, b, c, d, s and c-d at a point z < 0 below the band.

    Relative accuracy is 1e-10 for z <= -1e-3 and 1e-8 nearer the band
    edge.  Each (n, z) has one source:

    - 2 <= n <= 8 and u = ln(-z) in [-8, 40 ln 2]: the committed Green
      table in u (``table.f64``), within 8 eps of the engine's sums;
    - n = 1, n > 8 and every other z down to the engine's reach: the
      Laplace engine;
    - past that reach (u about -111 to -109, and -45 at n = 2), down to
      the smallest subnormal: edge records, within a few eps of the engine.

    ``z`` may be a 1-D array; the fields are then arrays over it, each
    entry bit for bit the value at its z alone, and an entry that is not
    below 0 raises the ValueError of a single z.  At the ladder of root
    location (``_LADDER_Z``) the values of n <= 8 are committed
    (``ladder.f64``), so no Laplace sum runs there; any other array is
    evaluated one entry at a time.

    A float z takes one table piece, one Laplace column or one edge
    record: a piece costs a recurrence of 24 terms and one product with
    its coefficient block, a warm column its exponentials and row sums,
    each plus a few dictionary and attribute operations, with the
    positivity of each value checked inline.  brentq's probes in the
    table's range skip this call and read the piece directly
    (``classify._polish``).  Other inputs (numpy scalars, integers,
    arrays) are validated and converted first.
    """
    if isinstance(z, float) or np.ndim(z) == 0:
        if not z < 0.0:
            raise ValueError(f"green_values requires z < 0, got z={z}; "
                             "use green_threshold for z = 0")
        return _evaluate(n, float(z))
    return _evaluate(n, np.asarray(z, dtype=float))


def green_threshold(n: int) -> GreenValues:
    """Evaluate the integrals at the band edge z = 0.

    a and b are finite only for n >= 3 (flagged ``None`` otherwise), the
    limit of c - d is finite for n >= 2, and s(0) is finite for every n.
    The values are committed for n <= 8 (``_BAND_EDGE``), so no Laplace
    sum runs there.
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
