"""The sweep, cold and oracle workloads: operations, output checks, timing.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An operation that raises one of the
program's typed numeric errors, exits nonzero or misses a certificate bound
is *failed*; it is counted and listed with its input, never dropped.  An
answer that contradicts its check (a count that disagrees, output that does
not parse, an error type the program does not document) additionally marks
the run *incorrect*.

A run makes a fixed number of passes for a given ``--seconds``: the fewest
whole passes that take at least that long at the baseline's nominal pass
time.  The work, and with it every work count and the warm state of the
sweep's Green-value cache, is then the same whatever the speed of the
machine or of the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import json
import os
import resource
import selectors
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import inputs
from .speed import INTERVAL_S, SpeedProbe
from .tracing import Tracer

RESIDUAL_BOUND = 1e-8   # certificate bound of the test suite
RESIDUAL_WRONG = 1e-2   # beyond this the located z is not an eigenvalue
ORACLE_THETA = -1e-3
# Nominal seconds of one pass on the first baseline (pass size over the
# median throughput of ten seeds): 80 points, 16 requests and 43 solves.
BASELINE_PASS_S = {"sweep": 0.75, "cold": 1.2, "oracle": 18.0}

WORKLOADS = ("sweep", "cold", "oracle")
DIMS = {"sweep": inputs.SWEEP_DIMS, "cold": inputs.COLD_DIMS,
        "oracle": tuple(inputs.ORACLE_LADDERS)}


@dataclass
class Outcome:
    answer: str
    error: str | None = None   # failure type: exception name or failed check
    message: str = ""
    wrong: bool = False


@dataclass
class Run:
    """Everything one workload run measured, in operation order."""

    latencies: list[float] = field(default_factory=list)   # wall seconds
    scaled: list[float] = field(default_factory=list)      # at nominal speed
    probe_before: list[int] = field(default_factory=list)  # probe sample index
    answers: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    wrong: int = 0
    elapsed: float = 0.0
    pass_sizes: list[int] = field(default_factory=list)
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    child_maxrss_kb: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def digest(self) -> str:
        h = hashlib.sha256()
        for answer in self.answers:
            h.update(answer.encode())
            h.update(b"\n")
        return h.hexdigest()


def _errors():
    from belowband.classify import ConsistencyError, RootScanError
    from belowband.quadrature import QuadratureError
    return (RootScanError, ConsistencyError, QuadratureError)


def _raised(exc: BaseException) -> Outcome:
    return Outcome(type(exc).__name__, type(exc).__name__, str(exc))


def _guarded(op, item) -> Outcome:
    """``op(item)``; an exception it does not handle is a wrong answer."""
    try:
        return op(item)
    except Exception as exc:  # noqa: BLE001  any type the program does not document
        outcome = _raised(exc)
        outcome.wrong = True
        return outcome


# ---------------------------------------------------------------------------
# sweep: warm process, summarize + eigenstates + residual per point
# ---------------------------------------------------------------------------

def sweep_op(point) -> Outcome:
    from belowband import classify, states
    from belowband.reduction import ModelParams

    n, lam, mu, _kind = point
    try:
        s = classify.summarize(ModelParams(n, lam, mu))
        table = classify.cell_label(n, s.even, s.odd)[1]
        located = sum(r.multiplicity for r in s.eigenvalues)
        answer = "|".join([s.cell, s.threshold.kind] + [
            f"{r.z!r}x{r.multiplicity}{r.origin}" for r in s.eigenvalues])
        if located != table:
            return Outcome(answer, "CountMismatch", f"cell {s.cell} prescribes "
                           f"{table}, located {located}", wrong=True)
        worst = 0.0
        for rec in s.eigenvalues:
            basis = classify.eigenstates(s.snapped, rec)
            if len(basis) != rec.multiplicity:
                return Outcome(answer, "BasisMismatch", f"{len(basis)} states "
                               f"for multiplicity {rec.multiplicity}", wrong=True)
            for state in basis:
                worst = max(worst, states.residual(s.snapped, state))
    except _errors() as exc:
        return _raised(exc)
    if not worst <= RESIDUAL_BOUND:
        return Outcome(answer, "ResidualBound", f"residual {worst!r} > "
                       f"{RESIDUAL_BOUND}", wrong=not worst <= RESIDUAL_WRONG)
    return Outcome(answer)


def sweep_warmup(consts, seed: int) -> None:
    from belowband import classify
    from belowband.reduction import ModelParams

    rng = np.random.default_rng([seed, 1])
    for n in inputs.SWEEP_DIMS:
        for lam, mu in inputs.bulk_points(rng, n, consts[n], 1):
            classify.summarize(ModelParams(n, lam, mu))


# ---------------------------------------------------------------------------
# cold: one CLI request per process, forked after import
# ---------------------------------------------------------------------------

def _drain(fds: list[int]) -> list[bytes]:
    """Read every pipe to EOF concurrently, so no writer blocks on a full one."""
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                chunk = os.read(key.fd, 65536)
                if chunk:
                    chunks[key.fd].append(chunk)
                else:
                    sel.unregister(key.fd)
                    os.close(key.fd)
    return [b"".join(chunks[fd]) for fd in fds]


def cli_request(argv: list[str], tracer: Tracer | None = None):
    """Run ``belowband.cli.main(argv)`` in a forked child.

    Returns ``(exit code, stdout, stderr, child peak RSS in KiB, trace)``;
    with a tracer, ``trace`` is the child's spans as JSON, a newline and the
    seconds the child took to export them, else it is empty.  The child
    inherits the parent's imported modules but no computed state, since the
    parent never calls into the program.
    """
    pipes = [os.pipe() for _ in range(3)]
    sys.stdout.flush()  # else the child would re-emit the parent's buffer
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # child: never returns into the benchmark
        code = 70
        try:
            if tracer is not None:
                tracer.reset()
            for r, _w in pipes:
                os.close(r)
            os.dup2(pipes[0][1], 1)
            os.dup2(pipes[1][1], 2)
            os.close(pipes[0][1])
            os.close(pipes[1][1])
            # the parent's sys.stdout may not write to fd 1 (test capture)
            sys.stdout = open(1, "w", closefd=False)
            sys.stderr = open(2, "w", closefd=False)
            from belowband import cli
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            sys.stdout.flush()
            sys.stderr.flush()
            if tracer is not None:
                t0 = time.perf_counter()
                with open(pipes[2][1], "wb") as fh:
                    fh.write(json.dumps(tracer.export()).encode())
                    fh.flush()
                    fh.write(b"\n" + repr(time.perf_counter() - t0).encode())
        except BaseException:
            traceback.print_exc()
            raise  # os._exit below still ends the child here
        finally:
            os._exit(code if isinstance(code, int) else 70)
    for _r, w in pipes:
        os.close(w)
    try:
        out, err, trace = _drain([r for r, _w in pipes])
    finally:
        _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    return code, out, err, usage.ru_maxrss, trace


def cold_check(code: int, out: bytes, err: bytes) -> Outcome:
    from belowband.cli import NUMERIC_ERROR

    if code != 0:  # only the numeric-error exit is documented for valid input
        return Outcome(f"exit{code}", f"ExitCode{code}",
                       err.decode(errors="replace").strip(),
                       wrong=code != NUMERIC_ERROR)
    answer = hashlib.sha256(out).hexdigest()
    try:
        doc = json.loads(out)
        located = sum(e["multiplicity"] for e in doc["eigenvalues"])
        table = inputs.cell_count(doc["cell"])
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(answer, "BadOutput", str(exc), wrong=True)
    if not doc["negative_count"] == located == table:
        return Outcome(answer, "CountMismatch", f"cell {doc['cell']} prescribes "
                       f"{table}, negative_count {doc['negative_count']}, "
                       f"located {located}", wrong=True)
    return Outcome(answer)


def cold_argv(n: int, lam: float, mu: float) -> list[str]:
    return ["summarize", f"--n={n}", f"--lambda={lam!r}", f"--mu={mu!r}"]


# ---------------------------------------------------------------------------
# oracle: finite-lattice solves against the classifier
# ---------------------------------------------------------------------------

def oracle_op(item) -> Outcome:
    from belowband import lattice
    from belowband.reduction import ModelParams

    n, lam, mu, cell, L = item
    try:
        rep = lattice.compare(ModelParams(n, lam, mu), [L],
                              theta=ORACLE_THETA, tol=0.0)
    except _errors() as exc:
        return _raised(exc)
    table = inputs.cell_count(cell)
    got = rep.oracle_counts[L]
    answer = f"{cell}|L{L}|{got}|" + ",".join(repr(z) for z in rep.predicted)
    if not rep.predicted_count == got == table:
        return Outcome(answer, "OracleMismatch", f"cell {cell} prescribes {table}, "
                       f"classifier {rep.predicted_count}, lattice {got}",
                       wrong=True)
    return Outcome(answer)


def oracle_warmup(consts, seed: int) -> None:
    rng = np.random.default_rng([seed, 1])
    done = set()
    for item in inputs.oracle_pass(rng, consts):
        if item[0] not in done:  # smallest radius of each dimension
            done.add(item[0])
            oracle_op(item)


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def _record(run: Run, seed: int, item, outcome: Outcome, latency: float) -> None:
    index = run.attempted
    run.latencies.append(latency)
    run.answers.append(outcome.answer)
    if outcome.error is not None:
        n, lam, mu = item[0], item[1], item[2]
        run.failures.append({"seed": seed, "index": index, "n": n,
                             "lambda": lam, "mu": mu,
                             "input": [str(v) for v in item[3:]],
                             "error": outcome.error, "message": outcome.message})
    run.wrong += outcome.wrong


def _time_op(name: str, item, tracer: Tracer | None, run: Run) -> tuple:
    if name == "cold":
        t0 = time.perf_counter()
        code, out, err, rss, trace = cli_request(cold_argv(*item), tracer)
        latency = time.perf_counter() - t0
        run.child_maxrss_kb = max(run.child_maxrss_kb, rss)
        if trace:
            t1 = time.perf_counter()
            spans, _, export_s = trace.rpartition(b"\n")
            tracer.absorb(json.loads(spans))
            tracer.export_s += float(export_s) + time.perf_counter() - t1
        return cold_check(code, out, err), latency
    op = sweep_op if name == "sweep" else oracle_op
    t0 = time.perf_counter()
    if tracer is None:
        outcome = _guarded(op, item)
    else:
        with tracer.span("op." + name):
            outcome = _guarded(op, item)
    return outcome, time.perf_counter() - t0


def pass_count(name: str, seconds: float) -> int:
    """Fewest whole passes that take ``seconds`` at the baseline's pass time."""
    return max(1, math.ceil(seconds / BASELINE_PASS_S[name]))


def run_workload(name: str, seed: int, consts, seconds: float,
                 tracer: Tracer | None = None) -> Run:
    """Measure ``pass_count(name, seconds)`` passes of seeded inputs.

    The run is traced when given a tracer.
    """
    make = {"sweep": inputs.sweep_pass, "cold": inputs.cold_pass,
            "oracle": inputs.oracle_pass}[name]
    if name == "sweep":
        sweep_warmup(consts, seed)
    elif name == "oracle":
        oracle_warmup(consts, seed)
    else:  # the first fork of a process pays for page-table setup once
        cli_request(["--version"])
    rng = np.random.default_rng(seed)
    run = Run()
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        t_start = time.perf_counter()
        for _ in range(pass_count(name, seconds)):
            batch = make(rng, consts)
            since_probe = INTERVAL_S
            for item in batch:
                if since_probe >= INTERVAL_S:
                    run.probe.sample()
                    since_probe = 0.0
                if tracer is not None:
                    tracer.op = run.attempted
                outcome, latency = _time_op(name, item, tracer, run)
                _record(run, seed, item, outcome, latency)
                run.probe_before.append(len(run.probe.samples) - 1)
                since_probe += latency
            run.probe.sample()
            run.pass_sizes.append(len(batch))
        run.elapsed = time.perf_counter() - t_start
    run.scaled = [x * run.probe.scale(i)
                  for x, i in zip(run.latencies, run.probe_before)]
    return run


def peak_rss_mb(name: str, run: Run) -> float:
    """Peak RSS of the process that ran the workload's operations."""
    kb = run.child_maxrss_kb if name == "cold" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0
