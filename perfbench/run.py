"""Benchmark of the belowband solver: one workload per run.

    python3 perfbench/run.py --workload sweep|cold|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The run measures set-up in fresh processes, then the workload
in a fixed number of whole passes of seeded inputs: the fewest that take
``--seconds`` at the baseline's nominal pass time (``workloads.pass_count``).
It checks every answer and prints a summary.  The last line of stdout is
one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  A full
result, with the environment, the answer digest and the failure inventory,
is written to ``perfbench/results/``.

End-to-end times are given at a nominal machine speed (see ``speed.py``):
each wall time is scaled by a probe kernel timed around it, so that the
drifting speed of a shared machine does not hide a change in the program.
The wall-clock values are printed beside them and kept in the result file.
Per-layer times are wall-clock seconds.
"""

from __future__ import annotations

import os

# One BLAS thread: the cold workload forks after import, which is only safe
# without a running BLAS thread pool, and a single thread keeps the oracle's
# dense solves steady on a small shared machine.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_PROCESSES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> unit; every traced run reports all of them (0 where a workload
# never reaches the layer).
PER_LAYER_UNITS = {
    "quadrature.laplace_integrals.calls": "count",
    "quadrature.laplace_integrals.self_s": "s",
    "green.green_values.calls_per_op": "calls/op",
    "green.green_values.self_s": "s",
    "green.green_threshold.calls": "count",
    "classify.ladder_evals_per_op": "evals/op",
    "classify.brentq.calls": "count",
    "classify.brentq.fevals": "count",
    "classify.brentq.self_s": "s",
    "classify.summarize.self_s": "s",
    "classify.eigenstates.self_s": "s",
    "states.residual.calls": "count",
    "states.residual.self_s": "s",
    "cli.main.self_s": "s",
    "lattice.build_hamiltonian.self_s": "s",
    "lattice.lowest_eigenvalues.self_s": "s",
    "lattice.lowest_eigenvalues.calls_dense": "count",
    "lattice.lowest_eigenvalues.calls_lanczos": "count",
    "lattice.matrix_bytes": "bytes",
    "lattice.compare.classify_share": "ratio",
    "trace.ops": "count",
    "trace.overhead": "ratio",
}

_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import belowband.cli
from belowband.classify import spectral_constants
consts = {n: spectral_constants(n) for n in %r}
dt = time.perf_counter() - t0
print(json.dumps({"setup_s": dt, "consts": {
    n: [c.x_asymptote, c.lambda_s, c.lambda_c] for n, c in consts.items()}}))
"""


def measure_setup(dims) -> tuple[list[float], float, dict]:
    """Import ``belowband.cli`` plus ``spectral_constants`` in fresh processes.

    Returns the wall set-up times, the factor to nominal speed (from probe
    samples taken between the processes) and the band-edge constants,
    which seed the input generators.  Computing the constants out of
    process keeps the cold workload's parent free of any computed state.
    """
    from perfbench.speed import NOMINAL_S, SpeedProbe

    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = SpeedProbe()
    times, consts = [], None
    for _ in range(SETUP_PROCESSES):
        for _ in range(3):
            probe.sample()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE % (tuple(dims),)],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=120, check=True)
        doc = json.loads(proc.stdout)
        times.append(doc["setup_s"])
        got = {int(n): tuple(v) for n, v in doc["consts"].items()}
        if consts is not None and got != consts:
            raise RuntimeError(f"spectral constants differ between processes: "
                               f"{got} vs {consts}")
        consts = got
    for _ in range(3):
        probe.sample()
    return times, NOMINAL_S / statistics.median(probe.samples), consts


def _blas_threads() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS, asked at run time."""
    import ctypes

    out = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = int(getattr(lib, sym)())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own OpenBLAS

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode())
            src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads_env": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_runtime": _blas_threads(),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def end_to_end(run, setup, setup_scale: float, rss_mb: float,
               scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics at nominal speed, or as wall times."""
    lat = run.scaled if scaled else run.latencies
    lat_ms = [x * 1e3 for x in lat]
    rates, start = [], 0
    for size in run.pass_sizes:
        rates.append(size / sum(lat[start:start + size]))
        start += size
    return {
        "setup_s": statistics.median(setup) * (setup_scale if scaled else 1.0),
        # median over passes: every pass has the same mix of inputs
        "throughput_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
        "peak_rss_mb": rss_mb,
    }


def per_layer(run, tracer) -> dict[str, float]:
    counts, self_s, busy = tracer.counts, tracer.self_times(), tracer.busy_times()
    ops = run.attempted
    compare_s = busy.get("lattice.compare", 0.0)
    out = {}
    for key in PER_LAYER_UNITS:
        if key.endswith(".self_s"):
            out[key] = self_s.get(key[:-len(".self_s")], 0.0)
        else:
            out[key] = counts.get(key, 0)
    out["green.green_values.calls_per_op"] = counts.get("green.green_values.calls", 0) / ops
    out["classify.ladder_evals_per_op"] = counts.get("classify.ladder_evals", 0) / ops
    out["lattice.compare.classify_share"] = (
        busy.get("classify.negative_eigenvalues", 0.0) / compare_s if compare_s else 0.0)
    out["trace.ops"] = ops
    # Calibrated cost of the tracing, against the traced wall time.
    # Comparing with an untraced run would not do: on a shared machine the
    # speed drifts by far more than the few per cent that tracing costs.
    out["trace.overhead"] = tracer.overhead_s() / sum(run.latencies)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the fixed pass count: the fewest passes "
                             "that take this long on the baseline")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "belowband" / "__init__.py").is_file():
        print(f"error: no belowband sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads
    from perfbench.speed import NOMINAL_S
    from perfbench.tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # One CPU for the whole run, forked and spawned children included, so
    # the speed probe times the CPU that does the work.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    setup_times, setup_scale, consts = measure_setup(workloads.DIMS[args.workload])
    import belowband.cli  # noqa: F401  the parent holds imports, no state
    env = environment()
    tracer = Tracer() if args.trace else None
    run = workloads.run_workload(args.workload, args.seed, consts,
                                 args.seconds, tracer)

    failed = len(run.failures)
    rss_mb = workloads.peak_rss_mb(args.workload, run)
    if args.trace:
        metrics = per_layer(run, tracer)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(run, setup_times, setup_scale, rss_mb)
        units = END_TO_END_UNITS
    p90_s = statistics.quantiles(run.scaled, n=10)[-1]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": failed,
        "fail_ratio": failed / run.attempted,
        "wrong": run.wrong,
        "passes": len(run.pass_sizes),
        "elapsed_s": run.elapsed,
        "latency_samples_beyond_p90": sum(1 for x in run.scaled if x > p90_s),
        "setup_s_samples": setup_times,
        "setup_scale": setup_scale,
        "wall_clock": end_to_end(run, setup_times, setup_scale, rss_mb, scaled=False),
        "probe_nominal_s": NOMINAL_S,
        "probe_median_s": statistics.median(run.probe.samples),
        "digest": run.digest(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": run.failures,
        "environment": env,
    }
    if args.trace:
        result["work_counts"] = dict(sorted(tracer.counts.items()))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(run.pass_sizes)}"
          f"  ops {run.attempted}  failed {failed}  wrong {run.wrong}"
          f"  fail_ratio {failed / run.attempted:.6f}")
    print(f"digest({run.attempted} answers) {result['digest']}")
    for failure in run.failures[:10]:
        print(f"  failed #{failure['index']} n={failure['n']} "
              f"lambda={failure['lambda']!r} mu={failure['mu']!r} "
              f"{failure['error']}: {failure['message'][:120]}")
    if failed > 10:
        print(f"  ... {failed - 10} more in {RESULTS.name}/{stem}.json")
    print(f"env python {env['python']} numpy {env['numpy']} scipy {env['scipy']}"
          f" blas {env['blas']} nproc {env['nproc']}"
          f" blas_threads {env['blas_threads_runtime']} commit {env['git_commit']}")
    wall = result["wall_clock"]
    print(f"speed probe median {result['probe_median_s'] * 1e3:.3f} ms "
          f"(nominal {NOMINAL_S * 1e3:g} ms); wall-clock values in brackets")
    for key, value in metrics.items():
        raw = f"  [{wall[key]:.6g}]" if key in wall and not args.trace else ""
        print(f"  {key:44s} {value:>16.6g} {units[key]}{raw}")
    print(json.dumps({"correct": result["correct"], "attempted": run.attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and exit nonzero without a result line
        traceback.print_exc()
        sys.exit(1)
