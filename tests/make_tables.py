"""Rewrite the committed Green tables from fresh Laplace-engine sums.

Run from the repository root, whenever the engine's sums change:

    PYTHONPATH=src python tests/make_tables.py

It rewrites ``src/belowband/table.f64``, the piecewise Chebyshev series in
u = ln(-z) of n = 2..8, then ``src/belowband/ladder.f64``, the integrals at
the 81 ladder points of n = 1..8, one scalar ``green_values`` call per
point, and prints ``_BAND_EDGE``, the finite integrals at z = 0 of the same
n, for ``src/belowband/green.py``.  Each piece's coefficients interpolate
the engine's scaled sums at the ``_TABLE_TERMS`` Chebyshev points of the
first kind: the points and the point-to-coefficient matrix are rounded
from mpmath, and each coefficient is summed by ``math.fsum``, so both
files come out byte-identical on every run.  ``tests/test_green.py``
holds the table to the engine and the ladder to ``green_values`` bit for
bit.
"""

import math
import textwrap

import mpmath as mp
import numpy as np

from belowband import green
from belowband.quadrature import integral_names, laplace_integrals

# the power of n - z each integral is scaled by in the table; green._table
# divides by the same powers
_POWERS = {"a": 1, "b": 2, "c": 1, "d": 3, "s": 1, "cd": 1}


def chebyshev_fit(terms: int) -> tuple[list[float], list[list[float]]]:
    """The first-kind Chebyshev points x_j = cos(pi (2j + 1)/(2 terms)) and
    the matrix taking values at them to the coefficients of T_0..T_{terms-1},
    each entry rounded from 40-digit mpmath."""
    with mp.workdps(40):
        angle = [mp.pi * (2 * j + 1) / (2 * terms) for j in range(terms)]
        points = [float(mp.cos(t)) for t in angle]
        matrix = [[float((1 if k == 0 else 2) * mp.cos(k * t) / terms) for t in angle]
                  for k in range(terms)]
    return points, matrix


def table_rows(n: int) -> list[list[float]]:
    """The coefficient rows of n, piece after piece, one row per integral."""
    points, matrix = chebyshev_fit(green._TABLE_TERMS)
    rows = []
    for mid, half in green._TABLE_PIECES:
        zs = [-math.exp(mid + half * x) for x in points]
        sums = [laplace_integrals(n, z) for z in zs]
        for name in integral_names(n):
            scaled = [s[name] * (n - z) ** _POWERS[name] for s, z in zip(sums, zs)]
            rows.append([math.fsum(m * v for m, v in zip(row, scaled)) for row in matrix])
    return rows


def main() -> None:
    ns = range(1, green._LADDER_N + 1)
    np.array([table_rows(n) for n in ns[1:]], dtype="<f8").tofile(green._TABLE_FILE)
    rows = []
    for n in ns:
        values = [green.green_values(n, z) for z in green._LADDER_Z.tolist()]
        rows.extend([getattr(g, k) for g in values] for k in integral_names(n))
    np.array(rows, dtype="<f8").tofile(green._LADDER_FILE)
    print("_BAND_EDGE = {")
    for n in ns:
        # a no-break space keeps each name on the line of its value
        items = ", ".join(f'"{k}":\xa0{v!r}' for k, v in laplace_integrals(n, 0.0).items())
        print(textwrap.fill(f"{n}: {{{items}}},", 88, initial_indent=" " * 4,
                            subsequent_indent=" " * 8).replace("\xa0", " "))
    print("}")


if __name__ == "__main__":
    main()
