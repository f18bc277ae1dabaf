"""Print one sha256 per seed over every number the oracle workload computes.

Run from the repository root:

    PYTHONPATH=src:. python tests/hash_oracle.py SEED...

In this one process it replays the oracle workload's input set of
``perfbench/run.py --workload oracle --seconds 20``: its
``perfbench.workloads.pass_count("oracle", 20)`` passes (2) of 43
finite-lattice compares (``perfbench.inputs.oracle_pass``) at the
workload's theta (``ORACLE_THETA``, -1e-3) with no snapping, as the
workload runs them.  The digest
covers, by ``float.hex``, every block value below theta with its origin,
every classifier root below theta, every matched error, the per-factor
counts of both sides, plus the type and message of every error raised.
The workload's own answer holds counts and classifier roots only.  Two
trees, or two BLAS thread counts, that print the same digest computed
the same bits.  Only the standard library, numpy, ``belowband``,
``perfbench.inputs`` and ``perfbench.workloads`` are imported.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from belowband import classify, lattice
from belowband.reduction import ModelParams
from perfbench import inputs, workloads

PASSES = workloads.pass_count("oracle", 20)   # follows BASELINE_PASS_S
THETA = workloads.ORACLE_THETA


def _hexes(values) -> str:
    return ",".join(float(x).hex() for x in values)


def _item(n: int, lam: float, mu: float, L: int) -> list[str]:
    """The lines of one compare: what both sides found, or the error it
    raised."""
    out = [f"{n} {lam.hex()} {mu.hex()} L{L}"]
    try:
        rep = lattice.compare(ModelParams(n, lam, mu), [L], theta=THETA, tol=0.0)
        spec = lattice.lowest_eigenvalues(lattice.build_hamiltonian(n, L, lam, mu), THETA)
        out.append(f"oracle {_hexes(spec.eigenvalues)} {','.join(spec.origins)}")
        out.append(f"predicted {_hexes(rep.predicted)} {rep.predicted_factor_counts}")
        out.append(f"counts {rep.oracle_counts[L]} {rep.oracle_factor_counts[L]}")
        out.append(f"errors {_hexes(rep.matched_errors[L])}")
    except Exception as exc:  # noqa: BLE001  every error is part of the digest
        out.append(f"{type(exc).__name__}: {exc}")
    return out


def digest(seed: int) -> str:
    consts = {}
    for n in inputs.ORACLE_LADDERS:
        c = classify.spectral_constants(n)
        consts[n] = (c.x_asymptote, c.lambda_s, c.lambda_c)
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(PASSES):
        for n, lam, mu, _cell, L in inputs.oracle_pass(rng, consts):
            for line in _item(n, lam, mu, L):
                h.update(line.encode())
                h.update(b"\n")
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    for seed in argv:
        print(seed, digest(int(seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
