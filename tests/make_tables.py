"""Rewrite the committed Green tables from fresh Laplace-engine sums.

Run from the repository root, whenever the engine's sums change:

    PYTHONPATH=src python tests/make_tables.py

It rewrites ``src/belowband/ladder.f64``, the integrals at the 81 ladder
points of n = 1..8, one engine call per point, and prints ``_BAND_EDGE``, the finite integrals at
z = 0 of the same n, for ``src/belowband/green.py``.
``tests/test_green.py`` holds both to the engine bit for bit.
"""

import textwrap

import numpy as np

from belowband import green
from belowband.quadrature import integral_names, laplace_integrals


def main() -> None:
    ns = range(1, green._LADDER_N + 1)
    rows = []
    for n in ns:
        sums = [laplace_integrals(n, z) for z in green._LADDER_Z.tolist()]
        rows.extend([s[k] for s in sums] for k in integral_names(n))
    np.stack(rows).astype("<f8").tofile(green._LADDER_FILE)
    print("_BAND_EDGE = {")
    for n in ns:
        # a no-break space keeps each name on the line of its value
        items = ", ".join(f'"{k}":\xa0{v!r}' for k, v in laplace_integrals(n, 0.0).items())
        print(textwrap.fill(f"{n}: {{{items}}},", 88, initial_indent=" " * 4,
                            subsequent_indent=" " * 8).replace("\xa0", " "))
    print("}")


if __name__ == "__main__":
    main()
