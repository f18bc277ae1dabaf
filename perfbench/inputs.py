"""Seeded input generators for the three workloads.

Every generator is a pure function of a ``numpy`` generator and the
band-edge constants ``{n: (X, lambda_s, lambda_c)}``, so one seed gives one
input stream.  Inputs come in passes of fixed composition; a run always
measures whole passes, which keeps the mix of cheap and expensive
operations the same from run to run and from version to version.
"""

from __future__ import annotations

SWEEP_DIMS = (1, 2, 3, 4)
COLD_DIMS = (1, 2, 3, 4)
ORACLE_LADDERS = {1: (40, 60), 2: (12, 16, 24), 3: (10, 12)}

# Per dimension and sweep pass: bulk points, points near the limiting
# hyperbola and points near a lambda_s / lambda_c line (60/25/15 per cent).
SWEEP_MIX = (12, 5, 3)
COLD_PER_DIM = 4
OFFSET_DECADES = (-12.0, -1.0)   # log10 range of the near-boundary offsets
BULK_MARGIN = 0.05               # bulk points keep this far from every curve
ORACLE_JITTER = 0.1              # share of an anchor's margin it may move


def _lines(c) -> list[float]:
    x, ls, lc = c
    return [v for v in (x, ls, lc) if v is not None]


def _box(n: int, c) -> tuple[float, float, float, float]:
    """lambda and mu ranges of the bulk: every curve crosses this box."""
    return -4.0, max(_lines(c)) + 3.0, -4.0, n + 8.0


def _curve_mu(n: int, x: float, lam: float) -> float:
    return n + n / (lam - x)


def _strata(rng, k: int) -> list[tuple[float, float]]:
    """Latin hypercube of k cells in the unit square, one per row and column.

    Stratifying the coordinates of a pass keeps its cost close to the mean
    cost of the distribution, so runs with different seeds measure about
    the same work.
    """
    cols = rng.permutation(k)
    return [(i / k, int(cols[i]) / k) for i in range(k)]


def _in_cell(rng, cell, k: int) -> tuple[float, float]:
    return (cell[0] + float(rng.random()) / k, cell[1] + float(rng.random()) / k)


def _offset(rng, u: float) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    lo, hi = OFFSET_DECADES
    return sign * 10.0 ** (lo + (hi - lo) * u)


def bulk_points(rng, n: int, c, k: int) -> list[tuple[float, float]]:
    """k stratified points of the box, each BULK_MARGIN from every curve."""
    lam_lo, lam_hi, mu_lo, mu_hi = _box(n, c)
    x = c[0]
    out = []
    for cell in _strata(rng, k):
        while True:
            u, v = _in_cell(rng, cell, k)
            lam = lam_lo + (lam_hi - lam_lo) * u
            mu = mu_lo + (mu_hi - mu_lo) * v
            h0 = (lam - x) * (mu - n) - n
            if abs(h0) >= BULK_MARGIN and all(abs(lam - w) >= BULK_MARGIN
                                              for w in _lines(c)):
                out.append((lam, mu))
                break
    return out


def hyperbola_points(rng, n: int, c, k: int) -> list[tuple[float, float]]:
    """k points whose mu is a log-uniform offset from the limiting hyperbola."""
    lam_lo, lam_hi, _, _ = _box(n, c)
    x = c[0]
    out = []
    for cell in _strata(rng, k):
        while True:
            u, v = _in_cell(rng, cell, k)
            lam = lam_lo + (lam_hi - lam_lo) * u
            if abs(lam - x) >= 0.25:
                out.append((lam, _curve_mu(n, x, lam) + _offset(rng, v)))
                break
    return out


def line_points(rng, n: int, c, k: int) -> list[tuple[float, float]]:
    """k points whose lambda is a log-uniform offset from lambda_s or lambda_c."""
    _, _, mu_lo, mu_hi = _box(n, c)
    lines = [w for w in c[1:] if w is not None]
    out = []
    for cell in _strata(rng, k):
        u, v = _in_cell(rng, cell, k)
        line = lines[int(rng.integers(len(lines)))]
        out.append((line + _offset(rng, u), mu_lo + (mu_hi - mu_lo) * v))
    return out


def sweep_pass(rng, consts) -> list[tuple[int, float, float, str]]:
    """One sweep pass: SWEEP_MIX points per dimension, in seeded order."""
    makers = (("bulk", bulk_points), ("hyperbola", hyperbola_points),
              ("line", line_points))
    points = []
    for n in SWEEP_DIMS:
        for (kind, make), count in zip(makers, SWEEP_MIX):
            points += [(n, lam, mu, kind) for lam, mu in make(rng, n, consts[n], count)]
    order = rng.permutation(len(points))
    return [points[i] for i in order]


def cold_pass(rng, consts) -> list[tuple[int, float, float]]:
    """COLD_PER_DIM stratified bulk points per dimension, one request each."""
    return [(n, lam, mu) for n in COLD_DIMS
            for lam, mu in bulk_points(rng, n, consts[n], COLD_PER_DIM)]


def oracle_anchors(n: int, c) -> list[tuple[str, float, float, float, float]]:
    """One interior point per open cell with its margins to the curves.

    Returns ``(cell, lam, mu, lam_margin, mu_margin)``.  The points match
    the ones the acceptance suite compares against the finite lattice:
    each cell's roots below -1e-3 are resolved at the ORACLE_LADDERS
    radii.  For n = 2 the name D4 covers two components; both appear.
    """
    x, ls, lc = c
    if n == 1:
        base = [("D0", -1.0, -1.0), ("D1", 0.0, 1.0),
                ("D2", 2.0, 1.0), ("D3", 3.0, 3.0)]
    else:
        lam_d2 = x + 0.9 * (ls - x)
        lam_mid = 0.5 * (ls + lc)
        base = [
            ("D0", -1.0, -1.0),
            ("D1", 0.0, n + 1.5),
            ("D2", lam_d2, _curve_mu(n, x, lam_d2) + 10.0),
            (f"D{n + 1}", lam_mid, 1.0),
            (f"D{n + 2}", lam_mid, _curve_mu(n, x, lam_mid) + 10.0),
            (f"D{2 * n}", lc + 1.5, 1.0),
            (f"D{2 * n + 1}", lc + 1.5, _curve_mu(n, x, lc + 1.5) + 2.0),
        ]
    out = []
    for cell, lam, mu in base:
        lam_margin = min(abs(lam - v) for v in _lines(c))
        mu_margin = abs(mu - _curve_mu(n, x, lam))
        out.append((cell, lam, mu, lam_margin, mu_margin))
    return out


def oracle_pass(rng, consts) -> list[tuple[int, float, float, str, int]]:
    """Every open cell at n = 1..3, jittered around its anchor, per radius.

    Each item is ``(n, lam, mu, cell, L)``: one finite-lattice solve.
    """
    ops = []
    for n, ladder in ORACLE_LADDERS.items():
        for cell, lam, mu, dl, dm in oracle_anchors(n, consts[n]):
            lam += ORACLE_JITTER * dl * float(rng.uniform(-1.0, 1.0))
            mu += ORACLE_JITTER * dm * float(rng.uniform(-1.0, 1.0))
            for L in ladder:
                ops.append((n, lam, mu, cell, L))
    return ops


def cell_count(cell: str) -> int:
    """Eigenvalue count of an open cell D_k: its index k."""
    if not (cell.startswith("D") and cell[1:].isdigit()):
        raise ValueError(f"not an open cell: {cell!r}")
    return int(cell[1:])
