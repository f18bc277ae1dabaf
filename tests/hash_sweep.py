"""Print one sha256 per seed over every number the sweep workload computes.

Run from the repository root:

    PYTHONPATH=src:. python tests/hash_sweep.py SEED...

In this one process it replays the sweep workload's input set of
``perfbench/run.py --workload sweep --seconds 20``: its
``perfbench.workloads.pass_count("sweep", 20)`` passes (27) of 80 points
(``perfbench.inputs.sweep_pass``).  Each point runs ``summarize``,
then ``eigenstates`` and ``residual`` for each located root, as the
workload does.  The digest covers, by ``float.hex``, every root, every
residual, and the coefficient vector ``w`` and moments of every state, the
threshold states included, plus the type and message of every error
raised.  Two trees, or two BLAS thread counts, that print the same digest
computed the same bits.  Only the standard library, numpy, ``belowband``,
``perfbench.inputs`` and ``perfbench.workloads`` are imported.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from belowband import classify, states
from belowband.reduction import ModelParams
from perfbench import inputs, workloads

PASSES = workloads.pass_count("sweep", 20)   # follows BASELINE_PASS_S


def _hexes(values) -> str:
    if values is None:
        return "None"
    return ",".join(float(x).hex() for x in np.ravel(values))


def _state(state) -> str:
    return f"{state.sector} {state.formula} w={_hexes(state.w)} u={_hexes(state.moments)}"


def _point(n: int, lam: float, mu: float) -> list[str]:
    """The lines of one sweep point: what it located and computed, or the
    error it raised there."""
    out = [f"{n} {lam.hex()} {mu.hex()}"]
    try:
        s = classify.summarize(ModelParams(n, lam, mu))
        out.append(f"{s.cell} {s.threshold.kind}")
        out += [_state(state) for entry in s.threshold.entries for state in entry.states]
        for rec in s.eigenvalues:
            out.append(f"{rec.z.hex()} x{rec.multiplicity} {rec.origin}")
            for state in classify.eigenstates(s.snapped, rec):
                out.append(f"{_state(state)} r={states.residual(s.snapped, state).hex()}")
    except Exception as exc:  # noqa: BLE001  every error is part of the digest
        out.append(f"{type(exc).__name__}: {exc}")
    return out


def digest(seed: int) -> str:
    consts = {}
    for n in inputs.SWEEP_DIMS:
        c = classify.spectral_constants(n)
        consts[n] = (c.x_asymptote, c.lambda_s, c.lambda_c)
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(PASSES):
        for n, lam, mu, _kind in inputs.sweep_pass(rng, consts):
            for line in _point(n, lam, mu):
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
