"""Tests of the benchmark harness itself (not of the solver)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def consts():
    from belowband.classify import spectral_constants

    out = {}
    for n in (1, 2, 3, 4):
        c = spectral_constants(n)
        out[n] = (c.x_asymptote, c.lambda_s, c.lambda_c)
    return out


def _traced_in_fresh_process(workload: str, seed: int, seconds: float,
                             consts) -> dict:
    """One traced run in a new interpreter, so no cache carries over."""
    code = (
        "import json, sys\n"
        "from perfbench import workloads\n"
        "from perfbench.tracing import Tracer\n"
        "consts = {int(k): tuple(v) for k, v in json.loads(sys.argv[1]).items()}\n"
        "tracer = Tracer()\n"
        "run = workloads.run_workload(sys.argv[2], int(sys.argv[3]), consts,\n"
        "                             float(sys.argv[4]), tracer)\n"
        "print(json.dumps({'digest': run.digest(), 'passes': len(run.pass_sizes),\n"
        "                  'counts': tracer.counts}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(consts),
                           workload, str(seed), str(seconds)],
                          capture_output=True, text=True, env=env, timeout=300,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("make", [inputs.sweep_pass, inputs.cold_pass,
                                  inputs.oracle_pass])
def test_inputs_are_deterministic_per_seed(make, consts):
    def stream(seed):
        rng = np.random.default_rng(seed)
        return [make(rng, consts) for _ in range(2)]

    assert stream(5) == stream(5)
    assert stream(5) != stream(6)


def test_sweep_mix_and_oracle_cells(consts):
    points = inputs.sweep_pass(np.random.default_rng(0), consts)
    kinds = [p[3] for p in points]
    per_dim = sum(inputs.SWEEP_MIX)
    assert len(points) == per_dim * len(inputs.SWEEP_DIMS)
    for kind, count in zip(("bulk", "hyperbola", "line"), inputs.SWEEP_MIX):
        assert kinds.count(kind) == count * len(inputs.SWEEP_DIMS)
    # every jittered oracle point stays inside the cell it was drawn for
    from belowband.classify import cell_label, snap_params
    from belowband.reduction import ModelParams

    for n, lam, mu, cell, _L in inputs.oracle_pass(np.random.default_rng(0), consts):
        _, even, odd = snap_params(ModelParams(n, lam, mu), 0.0)
        assert cell_label(n, even, odd)[0] == cell


@pytest.mark.parametrize("workload", ["sweep", "cold"])
def test_traced_and_untraced_answers_agree(workload, consts):
    plain = workloads.run_workload(workload, 3, consts, 0.0, None)
    tracer = Tracer()
    traced = workloads.run_workload(workload, 3, consts, 0.0, tracer)
    assert plain.attempted == traced.attempted > 0
    assert plain.digest() == traced.digest()
    assert plain.wrong == traced.wrong == 0
    assert tracer.counts["green.green_values.calls"] > 0
    assert 0.0 < tracer.overhead_s() < sum(traced.latencies)


def _small_oracle_items(consts):
    items = inputs.oracle_pass(np.random.default_rng(4), consts)
    return [it for it in items if it[0] == 1 or (it[0] == 2 and it[4] == 12)]


def test_oracle_traced_answers_and_counts_repeat(consts):
    items = _small_oracle_items(consts)
    plain = [workloads.oracle_op(it).answer for it in items]
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            answers = [workloads.oracle_op(it) for it in items]
        assert [a.answer for a in answers] == plain
        assert not any(a.error for a in answers)
        runs.append(tracer.counts)
    assert runs[0]["lattice.lowest_eigenvalues.calls"] == len(items)
    assert runs[0]["lattice.lowest_eigenvalues.calls_dense"] == len(items)
    assert runs[0]["lattice.dims.625"] == 7       # (2*12 + 1)^2, one per cell
    dims = {k: v for k, v in runs[0].items() if k.startswith("lattice.")}
    assert dims == {k: v for k, v in runs[1].items() if k.startswith("lattice.")}


def test_pass_count_is_fixed_by_seconds():
    assert [workloads.pass_count(w, 20) for w in workloads.WORKLOADS] == [27, 17, 2]
    assert workloads.pass_count("sweep", 1.5) == 2
    assert workloads.pass_count("oracle", 0.0) == 1


# sweep over two passes, so the Green-value cache carries over between them
@pytest.mark.parametrize("workload,seconds", [("sweep", 1.5), ("cold", 0.0)])
def test_work_counts_repeat_exactly(workload, seconds, consts):
    first = _traced_in_fresh_process(workload, 9, seconds, consts)
    second = _traced_in_fresh_process(workload, 9, seconds, consts)
    assert first["passes"] == workloads.pass_count(workload, seconds)
    assert first["digest"] == second["digest"]
    for key in ("green.green_values.calls", "classify.brentq.fevals",
                "classify.ladder_evals", "quadrature.laplace_integrals.calls"):
        assert first["counts"][key] == second["counts"][key] > 0, key


def test_errors_of_any_step_are_failures(monkeypatch, consts):
    from belowband import classify

    def broken(*_args, **_kwargs):
        raise classify.RootScanError("no sign change")

    point = inputs.sweep_pass(np.random.default_rng(0), consts)[0]
    monkeypatch.setattr(classify, "eigenstates", broken)
    typed = workloads._guarded(workloads.sweep_op, point)
    assert (typed.error, typed.wrong) == ("RootScanError", False)
    monkeypatch.setattr(classify, "summarize", lambda *_: 1 / 0)
    untyped = workloads._guarded(workloads.sweep_op, point)
    assert (untyped.error, untyped.wrong) == ("ZeroDivisionError", True)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0, ""], ["b", 1.0, 4.0, 0, 0, ""],
                    ["c", 2.0, 3.0, 1, 0, ""], ["b", 5.0, 6.0, 0, 0, ""]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.busy_times() == {"a": 10.0, "b": 4.0, "c": 1.0}


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sweep", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
