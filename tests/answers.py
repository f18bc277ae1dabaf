"""Write the seed-7 CLI documents, print the exact replay digests and
rewrite the committed answer record ``tests/ANSWERS.txt``.

Run from the repository root:

    PYTHONPATH=src:. python tests/answers.py OUT_DIR

Everything runs in this one process.  It does four things:

- *Documents.*  Every command of the set runs through
  ``belowband.cli.main``, and ``OUT_DIR/NNNN-<command>.txt`` holds its
  argument list, exit code, stdout and stderr.  The commands are a fixed
  function of the seed 7, so two trees, or two BLAS thread counts, are
  compared with ``diff -r``.  The set, 766 commands:

  - 400 ``summarize``, 40 ``classify``, 42 ``integrals``, 20
    ``eigenfunction --grid 8``, 5 ``scan``, ``verify identities`` and the
    retired ``verify factorization`` (a usage error), at n = 1..5 with
    couplings uniform in [-5, 15], and 9 ``verify oracle --L 8,10`` at
    n = 1..3;
  - ``integrals`` at z = 0 and z = -1e-300 and two ``summarize`` for each
    n = 1..9;
  - 7 edge points: roots next to the split point and below u = -45, a
    zero closer to the band edge than exp(-700), and the n = 1 point on
    lambda = X = 1 that raises ConsistencyError;
  - 200 ``summarize --region-tol 0`` with couplings of either sign up to
    1e14;
  - ``integrals`` at n = 1 and the smallest subnormal z (closed forms), and
    four ``verify oracle`` runs whose chains are long or whose grid is
    large: the n = 3 D1 point at L = 8, 10, the n = 2 (7, 8) point at
    L = 24, the n = 3 (7, 1) point at L = 20, 30 and the n = 5 D10 point
    at L = 8, 10.

- *Exact digests.*  It replays the sweep and oracle workloads' input sets
  (``perfbench.inputs``) at seeds 401, 405 and 407, 27 sweep passes of 80
  points and 2 oracle passes of 43 finite-lattice compares each, as
  ``perfbench/run.py --seconds 20`` ran them when these counts were fixed.
  Each sweep point runs ``summarize``, then ``eigenstates`` and
  ``residual`` for each located root; each oracle item runs
  ``lattice.compare`` and ``lowest_eigenvalues`` at the workload's theta
  with no snapping.  It prints one sha256 per workload and seed over every
  number computed, by ``float.hex`` (roots, residuals, state vectors,
  moments, block values, matched errors), plus the type and message of
  every error raised.  Equal digests mean equal bits, on one host.

- *Cold passes.*  It replays the cold workload's input set at the same
  seeds, 17 passes of 16 ``summarize`` requests each, as
  ``perfbench/run.py --seconds 20`` forks them, here each through
  ``belowband.cli.main`` in this process.  They go to the record only.

- *The record.*  ``tests/ANSWERS.txt`` gets one line per document and per
  (workload, seed, pass), cold included: the sha256 of a canonical form
  (for a cold pass, of each of its documents) that keeps what does not
  depend on the host's SIMD and BLAS kernels.  It keeps every
  string, integer, boolean, null, exit code and list length, and drops
  every float, except roots at or below -1e-3 and the ``integrals`` Green
  values, both at 10 significant digits, and the oracle's lattice block
  values, exactly.  Eigenvalues are listed by (origin, multiplicity, z),
  so roots of different origin that nearly coincide cannot swap.  A
  dropped float reads ``~``.  The record is committed, so ``git diff``
  names every document and pass whose answer moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys

import numpy as np

from belowband import classify, cli, lattice, states
from belowband.reduction import ModelParams
from perfbench import inputs, workloads

SEED = 7
REPLAY_SEEDS = (401, 405, 407)
PASSES = {"sweep": 27, "oracle": 2}
COLD_PASSES = 17
THETA = workloads.ORACLE_THETA
RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ANSWERS.txt")

SHALLOW = -1e-3     # roots above it are dropped from the record
DROPPED = "~"
_GREEN = ("a", "b", "c", "d", "s", "cd", "alpha", "gamma")
_FLOAT = re.compile(r"(z=)?(?<![\w.])(-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan))"
                    r"(?![\w.])")


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def _couplings(rng: random.Random) -> list[str]:
    return [f"--lambda={rng.uniform(-5.0, 15.0)!r}", f"--mu={rng.uniform(-5.0, 15.0)!r}"]


def _large(rng: random.Random) -> str:
    return repr(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 14.0))


def commands() -> list[list[str]]:
    """The argument lists of the set, in order."""
    rng = random.Random(SEED)
    out = []
    for _ in range(400):
        out.append(["summarize", f"--n={rng.randint(1, 5)}", *_couplings(rng)])
    for _ in range(40):
        out.append(["classify", f"--n={rng.randint(1, 5)}", *_couplings(rng)])
    for _ in range(42):
        z = -(10.0 ** rng.uniform(-12.0, 2.0))
        out.append(["integrals", f"--n={rng.randint(1, 5)}", f"--z={z!r}"])
    for _ in range(20):
        out.append(["eigenfunction", f"--n={rng.randint(1, 5)}", *_couplings(rng),
                    "--grid", "8"])
    for n in range(1, 6):
        out.append(["scan", f"--n={n}", "--lambda-range=-5:15:21", "--mu-range=-5:15:21"])
    out.append(["verify", "identities"])
    out.append(["verify", "factorization", "--n", "2"])
    for i in range(9):
        out.append(["verify", "oracle", f"--n={i % 3 + 1}", *_couplings(rng),
                    "--L", "8,10"])
    for n in range(1, 10):
        out.append(["integrals", f"--n={n}", "--z=0"])
        out.append(["integrals", f"--n={n}", "--z=-1e-300"])
        out.append(["summarize", f"--n={n}", "--lambda=12", f"--mu={n}.75"])
        out.append(["summarize", f"--n={n}", *_couplings(rng)])
    for n, lam, mu in ((1, "2000", "1001"), (1, "2e12", "1000000000002"),
                       (2, "3", "3.003"), (2, "5", "2.5001"), (2, "1", "3"),
                       (3, "1e-08", "4"), (1, "1.0", "-1e16")):
        out.append(["summarize", f"--n={n}", f"--lambda={lam}", f"--mu={mu}"])
    for _ in range(200):
        out.append(["summarize", f"--n={rng.randint(1, 5)}", f"--lambda={_large(rng)}",
                    f"--mu={_large(rng)}", "--region-tol=0"])
    out.append(["integrals", "--n=1", "--z=-5e-324"])
    for n, lam, mu, radii in ((3, "-2.2617336426883394", "2.683975560034164", "8,10"),
                              (2, "7", "8", "24"), (3, "7", "1", "20,30"),
                              (5, "10.68277618822024", "1", "8,10")):
        out.append(["verify", "oracle", f"--n={n}", f"--lambda={lam}", f"--mu={mu}",
                    "--L", radii])
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``belowband`` command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def document(argv: list[str], code: int, stdout: str, stderr: str) -> str:
    return (f"$ belowband {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{stdout}--- stderr\n{stderr}")


# ---------------------------------------------------------------------------
# the canonical form
# ---------------------------------------------------------------------------

def _root(z: float) -> str:
    return f"{z:.9e}" if z <= SHALLOW else DROPPED


def masked(text: str) -> str:
    """Text with every float literal dropped, except a root written z=..."""
    return _FLOAT.sub(lambda m: f"z={_root(float(m[2]))}" if m[1] else DROPPED, text)


def _portable(value, keep=()):
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if key == "eigenvalues":
                item = [{**r, "z": _root(r["z"])} for r in sorted(
                    item, key=lambda r: (r["origin"], r["multiplicity"], r["z"]))]
            out[key] = (f"{item:.9e}" if key in keep and isinstance(item, float)
                        else _portable(item))
        return out
    if isinstance(value, list):
        return [_portable(item) for item in value]
    return DROPPED if isinstance(value, float) else value


def canonical(argv: list[str], code: int, stdout: str, stderr: str) -> str:
    """The host-portable form of one document (module docstring)."""
    if stdout.startswith("{"):
        keep = _GREEN if argv[0] == "integrals" else ()
        stdout = json.dumps(_portable(json.loads(stdout), keep)) + "\n"
    else:
        stdout = masked(stdout)
    return document(argv, code, stdout, masked(stderr))


# ---------------------------------------------------------------------------
# the workload replays: exact lines and canonical lines of one operation
# ---------------------------------------------------------------------------

def _hexes(values) -> str:
    if values is None:
        return "None"
    return ",".join(float(x).hex() for x in np.ravel(values))


def _state(state) -> str:
    return f"{state.sector} {state.formula} w={_hexes(state.w)} u={_hexes(state.moments)}"


def sweep_point(n: int, lam: float, mu: float) -> tuple[list[str], list[str]]:
    """The exact and the canonical lines of one sweep point: what it
    located and computed, or the error it raised there."""
    exact, port, roots, error = [f"{n} {lam.hex()} {mu.hex()}"], [f"{n}"], [], []
    try:
        s = classify.summarize(ModelParams(n, lam, mu))
        exact.append(f"{s.cell} {s.threshold.kind}")
        port.append(exact[-1])
        for entry in s.threshold.entries:
            for state in entry.states:
                exact.append(_state(state))
                port.append(f"{state.sector} {state.formula}")
        for rec in s.eigenvalues:
            exact.append(f"{rec.z.hex()} x{rec.multiplicity} {rec.origin}")
            lines = [f"{_root(rec.z)} x{rec.multiplicity} {rec.origin}"]
            roots.append(((rec.origin, rec.multiplicity, rec.z), lines))
            for state in classify.eigenstates(s.snapped, rec):
                exact.append(f"{_state(state)} r={states.residual(s.snapped, state).hex()}")
                lines.append(f"{state.sector} {state.formula}")
    except Exception as exc:  # noqa: BLE001  every error is part of the answer
        exact.append(f"{type(exc).__name__}: {exc}")
        error.append(masked(exact[-1]))
    port += [line for _, lines in sorted(roots, key=lambda r: r[0]) for line in lines]
    return exact, port + error


def oracle_item(n: int, lam: float, mu: float, L: int) -> tuple[list[str], list[str]]:
    """The exact and the canonical lines of one compare: what both sides
    found, or the error it raised."""
    exact, port = [f"{n} {lam.hex()} {mu.hex()} L{L}"], [f"{n} L{L}"]
    try:
        rep = lattice.compare(ModelParams(n, lam, mu), [L], theta=THETA, tol=0.0)
        spec = lattice.lowest_eigenvalues(lattice.build_hamiltonian(n, L, lam, mu), THETA)
        block = f"oracle {_hexes(spec.eigenvalues)} {','.join(spec.origins)}"
        counts = f"counts {rep.oracle_counts[L]} {rep.oracle_factor_counts[L]}"
        errors = rep.matched_errors[L]
        exact += [block,
                  f"predicted {_hexes(rep.predicted)} {rep.predicted_factor_counts}",
                  counts, f"errors {_hexes(errors)}"]
        port += [block,
                 f"predicted {','.join(map(_root, rep.predicted))} "
                 f"{rep.predicted_factor_counts}",
                 counts, f"errors {','.join(DROPPED for _ in errors)}"]
    except Exception as exc:  # noqa: BLE001  every error is part of the answer
        exact.append(f"{type(exc).__name__}: {exc}")
        port.append(masked(exact[-1]))
    return exact, port


def _lines(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def _consts(dims) -> dict:
    """The band-edge constants that seed a workload's input generators."""
    consts = {}
    for n in dims:
        c = classify.spectral_constants(n)
        consts[n] = (c.x_asymptote, c.lambda_s, c.lambda_c)
    return consts


def replay(workload: str, seed: int) -> tuple[str, list[str]]:
    """The exact digest of one workload and seed, and one canonical digest
    per pass."""
    consts = _consts(inputs.SWEEP_DIMS if workload == "sweep" else inputs.ORACLE_LADDERS)
    rng = np.random.default_rng(seed)
    exact, passes = hashlib.sha256(), []
    for _ in range(PASSES[workload]):
        port = []
        if workload == "sweep":
            ops = [sweep_point(n, lam, mu) for n, lam, mu, _ in inputs.sweep_pass(rng, consts)]
        else:
            ops = [oracle_item(n, lam, mu, L)
                   for n, lam, mu, _, L in inputs.oracle_pass(rng, consts)]
        for lines, portable in ops:
            exact.update(_lines(lines).encode())
            port += portable
        passes.append(hashlib.sha256(_lines(port).encode()).hexdigest())
    return exact.hexdigest(), passes


def cold_replay(seed: int) -> list[str]:
    """One canonical digest per cold pass: the sha256 of the canonical
    documents of its ``summarize`` requests, each run through
    ``cli.main``."""
    consts, rng, passes = _consts(inputs.COLD_DIMS), np.random.default_rng(seed), []
    for _ in range(COLD_PASSES):
        argvs = [workloads.cold_argv(*item) for item in inputs.cold_pass(rng, consts)]
        text = "".join(canonical(argv, *run(argv)) for argv in argvs)
        passes.append(hashlib.sha256(text.encode()).hexdigest())
    return passes


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    record = []
    for i, argv in enumerate(commands()):
        name = f"{i:04d}-{argv[0]}"
        code, stdout, stderr = run(argv)
        with open(os.path.join(out_dir, f"{name}.txt"), "w", encoding="utf-8") as f:
            f.write(document(argv, code, stdout, stderr))
        text = canonical(argv, code, stdout, stderr)
        record.append(f"{name} {hashlib.sha256(text.encode()).hexdigest()}")
    for workload in PASSES:
        for seed in REPLAY_SEEDS:
            digest, passes = replay(workload, seed)
            print(workload, seed, digest)
            record += [f"{workload} {seed} {k:02d} {h}" for k, h in enumerate(passes)]
    for seed in REPLAY_SEEDS:
        record += [f"cold {seed} {k:02d} {h}" for k, h in enumerate(cold_replay(seed))]
    with open(RECORD, "w", encoding="utf-8") as f:
        f.write(_lines(record))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    main(sys.argv[1])
