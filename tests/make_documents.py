"""Write the seed-7 set of CLI documents, one file per command.

Run from the repository root:

    PYTHONPATH=src python tests/make_documents.py OUT_DIR

Every command runs through ``belowband.cli.main`` in this one process, and
each file ``OUT_DIR/NNNN-<command>.txt`` holds its argument list, its exit
code, its stdout and its stderr.  The commands are a fixed function of the
seed 7, so two trees, or two BLAS thread counts, are compared with
``diff -r``; CLI documents are meant to stay byte-identical unless a change
names why they move.  The set, 761 commands:

- 400 ``summarize``, 40 ``classify``, 42 ``integrals``, 20
  ``eigenfunction --grid 8``, 5 ``scan``, ``verify identities`` and the
  retired ``verify factorization`` (a usage error), at n = 1..5 with
  couplings uniform in [-5, 15], and 9 ``verify oracle --L 8,10`` at
  n = 1..3;
- ``integrals`` at z = 0 and z = -1e-300 and two ``summarize`` for each
  n = 1..9;
- 7 edge points: roots next to the split point and below u = -45, a zero
  closer to the band edge than exp(-700), and the n = 1 point on
  lambda = X = 1 that raises ConsistencyError;
- 200 ``summarize --region-tol 0`` with couplings of either sign up to
  1e14.

Only the standard library and ``belowband`` are imported.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys

from belowband import cli

SEED = 7


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


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, argv in enumerate(commands()):
        code, stdout, stderr = run(argv)
        path = os.path.join(out_dir, f"{i:04d}-{argv[0]}.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"$ belowband {' '.join(argv)}\nexit {code}\n"
                    f"--- stdout\n{stdout}--- stderr\n{stderr}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    main(sys.argv[1])
