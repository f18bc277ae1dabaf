"""Command-line interface.

Subcommands: ``integrals`` (Green integrals at one z), ``classify`` and
``summarize`` (region/spectrum at one coupling pair), ``scan`` (CSV region
map over a coupling rectangle), ``eigenfunction`` (CSV samples of a bound
or threshold state) and ``verify`` (the ``identities`` and ``oracle``
self-check suites).  The ``integrals`` document keeps a constant ``method``
field, ``laplace-bessel``, the one engine of the package.

Every command is deterministic: identical flags produce byte-identical
output, whatever the BLAS thread count, on one host.  ``verify oracle``
rounds its lattice eigenvalue errors to 1e-12, so only one within the
thread noise of a rounding boundary can still differ.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 numeric failure, 4 empty result.

Importing this module loads numpy only.  It builds the argument parser,
which depends on no input, and parses one argv of every subcommand with
it, so that re has compiled and cached argparse's match patterns; with
the package's committed tables, n = 1's engine tables for the ladder's
span and the band-edge constants of n <= 8, which ``green`` and
``classify`` build at import, every :func:`main` call, forked or
repeated, then only parses and computes.  It then freezes all of it out
of the garbage collector's generations.  The lattice
oracle, with ``scipy.sparse`` and ``scipy.linalg``, is imported inside
``verify oracle``, so no other command loads scipy.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import sys

import numpy as np

from . import __version__
from .classify import (
    DEFAULT_THETA,
    REGION_TOL,
    ConsistencyError,
    RootScanError,
    cell_label,
    eigenstates,
    negative_eigenvalues,
    snap_params,
    summarize,
    threshold_report,
)
from .green import DivergentIntegralError, green_threshold, green_values
from .quadrature import QuadratureError
from .reduction import ModelParams
from .states import residual

SCHEMA_VERSION = "1"

USAGE_ERROR, VERIFY_FAILED, NUMERIC_ERROR, EMPTY_RESULT = 2, 1, 3, 4

# largest grid^n mesh ``eigenfunction`` samples and prints, and largest
# coupling grid ``scan`` classifies: a cap of its own, not the oracle's size
# budget
MAX_SAMPLES = 2_000_000


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"range must be lo:hi:count, got {text!r}") from exc
    if count < 2 or not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"malformed range {text!r}")
    return lo, hi, count   # spaced by np.linspace once the grid is under the cap


def _nonempty(values: list[int], text: str) -> list[int]:
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return values


def _parse_nrange(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return _nonempty(list(range(int(lo), int(hi or lo) + 1)), text)


def _parse_int_list(text: str) -> list[int]:
    return _nonempty([int(tok) for tok in text.split(",") if tok], text)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _parse_selector(text: str) -> tuple[str, int]:
    kind, _, index = ("neg:0" if text == "ground" else text).partition(":")
    if kind not in ("neg", "threshold") or not index.isdigit():
        raise argparse.ArgumentTypeError(f"selector must be ground, neg:K or "
                                         f"threshold:K with K >= 0, got {text!r}")
    return kind, int(index)


def _params(args) -> ModelParams:
    return ModelParams(n=args.n, lam=args.lam, mu=args.mu)


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def cmd_integrals(args) -> int:
    if not args.z <= 0.0:   # so that nan fails as well
        raise ValueError(f"--z must be <= 0, got {args.z}")
    g = green_values(args.n, args.z) if args.z < 0.0 else green_threshold(args.n)
    flags = {}
    values = {}
    for name in ("a", "b", "c", "d", "s"):
        v = getattr(g, name)
        if name == "d" and args.n == 1:
            flags[name] = "undefined"
        else:
            flags[name] = "finite" if v is not None else "divergent"
        values[name] = v
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "z": args.z,
        **values,
        "cd": g.cd,
        "alpha": g.alpha if (g.c is not None and (args.n == 1 or g.d is not None)) else None,
        "gamma": g.gamma if g.a is not None and g.c is not None else None,
        "flags": flags,
        "method": "laplace-bessel",
    }
    _emit_json(doc)
    return 0


# ---------------------------------------------------------------------------
# classify / summarize
# ---------------------------------------------------------------------------

def _region(even, odd) -> dict:
    return {"even": {"curve": even.curve, "strip": even.strip,
                     "point": even.point, "near_boundary": even.near_boundary},
            "odd": odd.label}


def _region_doc(params: ModelParams, tol: float) -> dict:
    snapped, even, odd = snap_params(params, tol)
    name, expected = cell_label(params.n, even, odd)
    return {
        **_region(even, odd),
        "cell": name,
        "table_count": expected,
        "snapped": {"lambda": snapped.lam, "mu": snapped.mu},
    }


def cmd_classify(args) -> int:
    params = _params(args)
    doc = {"schema_version": SCHEMA_VERSION, "n": args.n,
           "lambda": args.lam, "mu": args.mu,
           **_region_doc(params, args.region_tol)}
    _emit_json(doc)
    return 0


def cmd_summarize(args) -> int:
    params = _params(args)
    summary = summarize(params, tol=args.region_tol)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "lambda": args.lam,
        "mu": args.mu,
        "cell": summary.cell,
        "region": _region(summary.even, summary.odd),
        "eigenvalues": [
            {"z": r.z, "multiplicity": r.multiplicity,
             "sector": r.sector, "origin": r.origin}
            for r in summary.eigenvalues
        ],
        "negative_count": summary.negative_count,
        "threshold": {
            "kind": summary.threshold.kind,
            "entries": [
                {"kind": e.kind, "sector": e.sector,
                 "multiplicity": e.multiplicity, "formula": e.formula}
                for e in summary.threshold.entries
            ],
        },
        "essential_spectrum": list(summary.essential_spectrum),
    }
    _emit_json(doc)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    lam_count, mu_count = args.lambda_range[2], args.mu_range[2]
    if lam_count * mu_count > MAX_SAMPLES:
        raise ValueError(f"a scan of {lam_count} x {mu_count} = {lam_count * mu_count} "
                         f"coupling points is over the cap {MAX_SAMPLES}")
    rows = []   # written only once every point is classified
    for lam in np.linspace(*args.lambda_range):
        for mu in np.linspace(*args.mu_range):
            params = ModelParams(args.n, float(lam), float(mu))
            _, even, odd = snap_params(params, args.region_tol)
            name, count = cell_label(args.n, even, odd)
            rows.append([repr(float(lam)), repr(float(mu)), name, count])
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["lambda", "mu", "region_label", "eigencount"])
    writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# eigenfunction
# ---------------------------------------------------------------------------

def _select_state(params: ModelParams, selector: tuple[str, int], tol: float):
    kind, index = selector
    if kind == "neg":
        records = negative_eigenvalues(params, tol=tol)
        if index < len(records):
            return eigenstates(params, records[index])[0]
        return None
    entries = threshold_report(params, tol=tol).entries
    return entries[index].states[0] if index < len(entries) else None


def cmd_eigenfunction(args) -> int:
    params = _params(args)
    samples = args.grid ** params.n
    if samples > MAX_SAMPLES:
        raise ValueError(f"n={params.n} at --grid {args.grid} makes {samples} "
                         f"samples, over the cap {MAX_SAMPLES}")
    state = _select_state(params, args.selector, args.region_tol)
    if state is None:
        print("no state matches the selector at these couplings",
              file=sys.stderr)
        return EMPTY_RESULT
    res = residual(params, state)
    out = sys.stdout
    out.write(f"# n={params.n} lambda={params.lam!r} mu={params.mu!r}\n")
    out.write(f"# sector={state.sector} z={state.z!r} formula={state.formula}\n")
    out.write("# w=" + ",".join(repr(float(x)) for x in state.w) + "\n")
    out.write(f"# residual={res!r}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"p{j + 1}" for j in range(params.n)] + ["f"])
    # nodes -pi + step (k + 1/2) on even grids and -pi + step k on odd ones:
    # neither hits p = 0, where threshold states have their (integrable)
    # singularity
    step = 2.0 * math.pi / args.grid
    offset = 0.5 if args.grid % 2 == 0 else 0.0
    axis = -math.pi + step * (np.arange(args.grid) + offset)
    mesh = np.stack(np.meshgrid(*([axis] * params.n), indexing="ij"), axis=-1)
    pts = mesh.reshape(-1, params.n)
    vals = state.evaluate(pts)
    for p, f in zip(pts, vals):
        writer.writerow([repr(float(x)) for x in p] + [repr(float(f))])
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_identities(args) -> dict:
    checks = []
    zs = np.geomspace(1e-4, 50.0, args.samples)
    for n in args.nrange:
        worst = {"alg1": 0.0, "alg2": 0.0, "alg3": 0.0, "as_b": 0.0, "app_a": 0.0}
        for zz in zs:
            z = -float(zz)
            g = green_values(n, z)
            worst["alg1"] = max(worst["alg1"],
                                abs(g.a - g.b - (1.0 + z * g.a) / n))
            worst["alg2"] = max(worst["alg2"], abs(g.alpha - (n - z) * g.b))
            worst["alg3"] = max(worst["alg3"], abs(g.gamma - g.b))
            if n == 1:
                worst["as_b"] = max(worst["as_b"], abs(g.a * g.s - g.b))
                worst["app_a"] = max(worst["app_a"],
                                     abs(g.s - (1.0 + z * (g.a + g.b))))
            else:
                # strict inequality a*s < b: the error is any violation
                worst["as_b"] = max(worst["as_b"], max(0.0, g.a * g.s - g.b))
        for key, err in worst.items():
            if key == "app_a" and n > 1:
                continue
            checks.append({"name": f"{key}[n={n}]", "max_error": err,
                           "passed": err <= 1e-9})
    return {"suite": "identities", "checks": checks}


def _verify_oracle(args) -> dict:
    from .lattice import compare

    params = ModelParams(args.nrange[0], args.lam, args.mu)
    report = compare(params, args.L, theta=args.theta)
    checks = [{
        "name": f"count[L={L}]",
        "oracle_count": count,
        "predicted_count": report.predicted_count,
        "passed": report.agrees_at(L),
        "matched_errors": [round(e, 12) for e in report.matched_errors[L]],
    } for L, count in report.oracle_counts.items()]
    return {"suite": "oracle", "theta": args.theta, "checks": checks}


def cmd_verify(args) -> int:
    if args.suite == "identities":
        doc = _verify_identities(args)
    else:
        from .lattice import SolverError

        try:
            doc = _verify_oracle(args)
        except SolverError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return NUMERIC_ERROR
    doc["schema_version"] = SCHEMA_VERSION
    doc["passed"] = all(c["passed"] for c in doc["checks"])
    _emit_json(doc)
    return 0 if doc["passed"] else VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p) -> None:
    p.add_argument("--n", type=int, required=True, help="lattice dimension")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="neighbor coupling")
    p.add_argument("--mu", type=float, required=True, help="origin coupling")
    p.add_argument("--region-tol", type=float, default=REGION_TOL,
                   help="snap distance onto region curves")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belowband",
        description="Below-band spectrum of lattice Schrodinger operators "
                    "with point impurities")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrals", help="Green integrals at one z")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=float, required=True)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("classify", help="region labels at one coupling pair")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("summarize", help="full spectral summary")
    _add_common(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("scan", help="CSV region map over a coupling box")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda-range", dest="lambda_range", type=_parse_range,
                   required=True, metavar="LO:HI:COUNT")
    p.add_argument("--mu-range", dest="mu_range", type=_parse_range,
                   required=True, metavar="LO:HI:COUNT")
    p.add_argument("--region-tol", type=float, default=REGION_TOL)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("eigenfunction", help="CSV samples of one state")
    _add_common(p)
    p.add_argument("--selector", type=_parse_selector, default="ground",
                   help="ground | neg:K | threshold:K")
    p.add_argument("--grid", type=_positive_int, default=33,
                   help="grid points per dimension")
    p.set_defaults(func=cmd_eigenfunction)

    p = sub.add_parser("verify", help="self-check suites")
    p.add_argument("suite", choices=("identities", "oracle"))
    p.add_argument("--n", dest="nrange", type=_parse_nrange, default=None,
                   help="dimension or inclusive range a..b")
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--L", type=_parse_int_list, default=[50, 100],
                   help="comma-separated box radii (the default 50,100 fits "
                        "the grid budget only at n <= 2)")
    p.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p.set_defaults(func=cmd_verify)
    return parser


# one parser per process: calls share its defaults, so no command may
# mutate a parsed value in place
_PARSER = build_parser()

# one argv of every subcommand, parsed once here: argparse matches each
# argument against patterns that re compiles on first use and caches, so a
# process forked after the import compiles none of them
for _argv in (["integrals", "--n", "1", "--z", "-1"],
              ["classify", "--n", "1", "--lambda", "0", "--mu", "0"],
              ["summarize", "--n=1", "--lambda=0", "--mu=0"],
              ["scan", "--n", "1", "--lambda-range", "0:1:2", "--mu-range", "0:1:2"],
              ["eigenfunction", "--n", "1", "--lambda", "0", "--mu", "0", "--grid", "1"],
              ["verify", "identities", "--n", "1"]):
    _PARSER.parse_args(_argv)
# what the import built leaves the collector's generations, so no child's
# collection walks it, whatever the hash seed (README "Start-up cost")
gc.freeze()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "verify":
        args.nrange = args.nrange or ([1] if args.suite == "oracle" else [1, 2, 3, 4])
        if args.suite == "oracle" and len(args.nrange) > 1:
            _PARSER.error(f"verify oracle takes one dimension, got {len(args.nrange)}")
    try:
        return args.func(args)
    except (ValueError, DivergentIntegralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (QuadratureError, RootScanError, ConsistencyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        if isinstance(exc, RootScanError):
            print(f"sign_table: {json.dumps(exc.sign_table)}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
