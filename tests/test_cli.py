"""CLI behavior: output documents, determinism, exit codes."""

import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import answers
import belowband as bb
from belowband import cli
from belowband.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_integrals_chain(capsys):
    code, out, _ = run_cli(capsys, "integrals", "--n", "1", "--z", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["a"] == pytest.approx(0.5773503, abs=1e-6)
    assert doc["flags"]["d"] == "undefined"
    assert doc["gamma"] == pytest.approx(doc["b"], rel=1e-10)


def test_integrals_threshold_divergence_flags(capsys):
    code, out, _ = run_cli(capsys, "integrals", "--n", "2", "--z", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] is None and doc["flags"]["a"] == "divergent"
    assert doc["s"] == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-10)
    code, out, _ = run_cli(capsys, "integrals", "--n", "3", "--z", "0")
    doc = json.loads(out)
    assert doc["a"] == pytest.approx(0.5054620, abs=1e-6)


def test_integrals_rejects_positive_z(capsys):
    code, _, err = run_cli(capsys, "integrals", "--n", "2", "--z", "0.5")
    assert code == 2 and "error" in err


def test_summarize_chain_ground_state(capsys):
    code, out, _ = run_cli(capsys, "summarize", "--n", "1",
                           "--lambda", "0", "--mu", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["cell"] == "D1"
    assert len(doc["eigenvalues"]) == 1
    assert doc["eigenvalues"][0]["z"] == pytest.approx(-0.4142136, abs=1e-7)
    assert doc["threshold"]["kind"] == "none"
    assert doc["essential_spectrum"] == [0.0, 2.0]


def test_summarize_super_threshold(capsys):
    code, out, _ = run_cli(capsys, "summarize", "--n", "1",
                           "--lambda", "1", "--mu", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["threshold"]["kind"] == "super-threshold-resonance"


def test_summarize_free_square_lattice(capsys):
    code, out, _ = run_cli(capsys, "summarize", "--n", "2",
                           "--lambda", "0", "--mu", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["negative_count"] == 0
    assert doc["threshold"]["kind"] == "none"


def test_classify_document(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "2",
                           "--lambda", "0", "--mu", "3")
    doc = json.loads(out)
    assert code == 0 and doc["cell"] == "D1" and doc["odd"] == "S-"


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "summarize", "--n", "2",
                         "--lambda", "4", "--mu", "3.7")
    _, out2, _ = run_cli(capsys, "summarize", "--n", "2",
                         "--lambda", "4", "--mu", "3.7")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "integrals", "--n", "3", "--z", "-0.25")
    _, out4, _ = run_cli(capsys, "integrals", "--n", "3", "--z", "-0.25")
    assert out3 == out4


def test_scan_chain_label_multiset(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n", "1",
                           "--lambda-range=-1:4:101", "--mu-range=-1:4:101")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lambda", "mu", "region_label", "eigencount"]
    labels = {row[2] for row in rows[1:]}
    assert labels == {"D0", "D1", "D2", "D3", "B0", "B2", "S1"}
    assert len(rows) == 1 + 101 * 101
    for row in rows[1:]:
        want = {"B0": 0, "B2": 2, "S1": 1}.get(row[2], None)
        if want is None:
            want = int(row[2][1:])
        assert int(row[3]) == want


def test_scan_degenerate_single_cell(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n", "3",
                           "--lambda-range", "0:0:2", "--mu-range", "0:0:2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert {r[2] for r in rows} == {"D0"}


def test_scan_malformed_range_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "belowband.cli", "scan", "--n", "1",
         "--lambda-range", "nope", "--mu-range", "0:1:3"],
        capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ("verify", "identities", "--n", "3..1"),
    ("verify", "oracle", "--n", "1", "--lambda", "0", "--mu", "1", "--L", ","),
    ("verify", "oracle", "--n", "1..3", "--lambda", "0", "--mu", "1", "--L", "20"),
    ("eigenfunction", "--n", "1", "--lambda", "0", "--mu", "1",
     "--selector", "neg:-1"),
    ("eigenfunction", "--n", "3", "--lambda", "0", "--mu", "0",
     "--selector", "threshold:-1"),
    ("eigenfunction", "--n", "1", "--lambda", "0", "--mu", "1", "--grid", "0"),
    ("eigenfunction", "--n", "1", "--lambda", "0", "--mu", "1", "--grid=-2"),
    ("eigenfunction", "--n", "5", "--lambda", "0", "--mu", "1"),
    ("eigenfunction", "--n", "2", "--lambda", "0", "--mu", "1", "--grid", "1415"),
    ("verify", "identities", "--samples", "0"),
    ("verify", "factorization", "--samples", "0"),   # a retired, unknown suite
    ("integrals", "--n", "2", "--z", "-1", "--tol", "0"),
    ("integrals", "--n", "2", "--z", "-1", "--method", "tensor-trapezoid",
     "--grid-points", "0"),
    ("integrals", "--n", "2", "--z", "nan"),
    ("verify", "oracle", "--n", "1", "--lambda", "0", "--mu", "1", "--L", "20",
     "--theta", "nan"),
    ("verify", "oracle", "--n", "1", "--lambda", "0", "--mu", "1", "--L", "20",
     "--theta=-inf"),
    ("summarize", "--n", "1", "--lambda", "0", "--mu", "1", "--tol", "1e-6"),
    *[(cmd, "--n", "2", "--lambda", "4", "--mu", "3", f"--region-tol={tol}")
      for cmd in ("classify", "summarize", "eigenfunction")
      for tol in ("nan", "inf", "-1")],
    *[("scan", "--n", "2", "--lambda-range=0:4:3", "--mu-range=0:4:3",
       f"--region-tol={tol}") for tol in ("nan", "inf", "-1")],
    # integrals has one engine and no settings: each is an unknown argument
    ("integrals", "--n", "3", "--z=-0.5", "--method", "laplace-bessel"),
    ("integrals", "--n", "4", "--z", "0", "--method", "both"),
    ("integrals", "--n", "5", "--z", "0", "--method", "tensor-trapezoid"),
    ("integrals", "--n", "2", "--z=-1e-25", "--method", "both"),
    ("integrals", "--n", "2", "--z", "-1", "--tol", "1e-6"),
    ("integrals", "--n", "3", "--z", "-1", "--grid-points", "64"),
    ("integrals", "--n", "4", "--z", "0", "--method", "tensor-trapezoid"),
    ("integrals", "--n", "5", "--z", "0", "--method", "both"),
])
def test_empty_ranges_and_negative_selectors_exit_2(capsys, argv):
    # argparse rejects a flag by SystemExit, the command body by exit code
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out = capsys.readouterr()
    assert out.out == "" and "error" in out.err


def test_eigenfunction_chain_ray(capsys):
    code, out, _ = run_cli(capsys, "eigenfunction", "--n", "1",
                           "--lambda", "0", "--mu", "1", "--grid", "16")
    assert code == 0
    header = [line for line in out.splitlines() if line.startswith("#")]
    assert any("formula=e11" in h for h in header)
    assert any("residual=" in h for h in header)
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows[0] == "p1,f"
    assert len(rows) == 1 + 16
    z = 1.0 - math.sqrt(2.0)
    p, f = map(float, rows[1].split(","))
    expected = f * (bb.dispersion([p], 1) - z)
    p2, f2 = map(float, rows[5].split(","))
    assert f2 * (bb.dispersion([p2], 1) - z) == pytest.approx(expected, rel=1e-9)


def test_eigenfunction_threshold_selector(capsys):
    lc = bb.spectral_constants(3).lambda_c
    code, out, _ = run_cli(capsys, "eigenfunction", "--n", "3",
                           "--lambda", repr(lc), "--mu", "0",
                           "--selector", "threshold:0", "--grid", "6")
    assert code == 0
    assert "formula=z2" in out


@pytest.mark.parametrize("n, lam, mu", [(3, 5.398476183259448, 0.0),
                                        (1, 1.0, 7.0)])
def test_eigenfunction_default_grid_avoids_the_singular_point(capsys, n, lam, mu):
    # the default grid is odd; a node at p = 0 would sample 0/0 there
    code, out, _ = run_cli(capsys, "eigenfunction", "--n", str(n),
                           "--lambda", repr(lam), "--mu", repr(mu),
                           "--selector", "threshold:0")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()
            if not line.startswith("#")][1:]
    assert len(rows) == 33 ** n
    values = np.array(rows, dtype=float)
    assert np.all(np.isfinite(values))
    assert not np.any(np.all(values[:, :n] == 0.0, axis=1))


def test_eigenfunction_grid_cap(capsys, monkeypatch):
    # grid^n is checked before a state is selected; the cap itself is allowed
    assert 33 ** 4 <= cli.MAX_SAMPLES < 33 ** 5
    monkeypatch.setattr(cli, "MAX_SAMPLES", 16)
    argv = ("eigenfunction", "--n", "2", "--lambda", "0", "--mu", "1", "--grid")
    code, out, _ = run_cli(capsys, *argv, "4")
    assert code == 0 and len(out.splitlines()) == 4 + 1 + 16
    code, out, err = run_cli(capsys, *argv, "5")
    assert code == 2 and out == ""
    assert err == "error: n=2 at --grid 5 makes 25 samples, over the cap 16\n"


def test_scan_grid_cap(capsys, monkeypatch):
    # lambda count x mu count is checked before any point is classified;
    # the cap itself is allowed
    monkeypatch.setattr(cli, "MAX_SAMPLES", 6)
    argv = ("scan", "--n", "1", "--lambda-range", "0:1:2", "--mu-range")
    code, out, _ = run_cli(capsys, *argv, "0:1:3")
    assert code == 0 and len(out.splitlines()) == 1 + 6

    def refuse(*args):
        raise AssertionError("classified a point of a grid over the cap")
    monkeypatch.setattr(cli, "snap_params", refuse)
    code, out, err = run_cli(capsys, *argv, "0:1:4")
    assert code == 2 and out == ""
    assert err == "error: a scan of 2 x 4 = 8 coupling points is over the cap 6\n"


def test_eigenfunction_empty_exit_4(capsys):
    code, _, err = run_cli(capsys, "eigenfunction", "--n", "1",
                           "--lambda", "0", "--mu", "0")
    assert code == 4 and "no state" in err


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--n", "1..2",
                           "--samples", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and all(c["passed"] for c in doc["checks"])
    assert max(c["max_error"] for c in doc["checks"]) < 1e-9


def test_verify_factorization(capsys):
    # the suite checked an identity of the code, which the tests now hold
    # (tests/test_reduction.py); it and its --seed are unknown, so exit 2
    for argv, message in [(("verify", "factorization", "--n", "2..3"), "invalid choice"),
                          (("verify", "identities", "--seed", "7"), "unrecognized")]:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and message in out.err


def test_verify_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "oracle", "--n", "1",
                           "--lambda", "0", "--mu", "1", "--L", "50,100")
    assert code == 0
    doc = json.loads(out)
    assert [c["oracle_count"] for c in doc["checks"]] == [1, 1]
    # the errors are rounded to 1e-12, so BLAS threads cannot move them
    report = bb.compare(bb.ModelParams(1, 0.0, 1.0), [50, 100])
    assert [c["matched_errors"] for c in doc["checks"]] == [
        [round(e, 12) for e in report.matched_errors[L]] for L in (50, 100)]


def test_oracle_solver_failure_exit_3(capsys, monkeypatch):
    from belowband import lattice

    def fail(n, L, origin):
        raise lattice.SolverError(f"chain of {origin} at n={n}, L={L} failed")
    monkeypatch.setattr(lattice, "_kept_block", fail)
    code, out, err = run_cli(capsys, "verify", "oracle", "--n", "2",
                             "--lambda", "7", "--mu", "8", "--L", "12")
    assert code == 3 and out == ""
    assert err == "numeric failure: chain of delta_r at n=2, L=12 failed\n"


def test_oracle_stebz_failure_exit_3(capsys, monkeypatch):
    # LAPACK stebz reporting info != 0 is a SolverError naming the block,
    # so verify oracle exits 3, not 2 as for scipy's LinAlgError (a
    # ValueError)
    from belowband import lattice

    def failing(d, e, *args):
        return 0, np.zeros(len(d)), np.zeros(len(d), dtype=np.int32), \
            np.zeros(len(d), dtype=np.int32), 1
    monkeypatch.setattr(lattice, "_STEBZ", failing)
    with pytest.raises(lattice.SolverError,
                       match=r"^LAPACK stebz on the delta_r block at n=2, L=12 "
                             r"returned info=1$"):
        lattice._below(bb.build_hamiltonian(2, 12, 7.0, 8.0), "delta_r", -1e-3)
    code, out, err = run_cli(capsys, "verify", "oracle", "--n", "2",
                             "--lambda", "7", "--mu", "8", "--L", "12")
    assert code == 3 and out == ""
    assert err == ("numeric failure: LAPACK stebz on the delta_r block at "
                   "n=2, L=12 returned info=1\n")


def test_numeric_failure_exit_3(capsys):
    # b ~ 1/(2 z^2) would not be a normal double this far below the band
    code, _, err = run_cli(capsys, "integrals", "--n", "3", "--z=-1e160")
    assert code == 3 and "numeric failure" in err


def test_root_scan_failure_writes_sign_table(capsys):
    # the shallow delta_r root lies closer to the band edge than exp(-700)
    code, out, err = run_cli(capsys, "summarize", "--n", "2",
                             "--lambda", "5", "--mu", "2.5001")
    assert code == 3 and out == ""
    message, table_line = err.splitlines()
    assert message.startswith("numeric failure: ")
    assert table_line.startswith("sign_table: ")
    table = json.loads(table_line[len("sign_table: "):])
    zs = [z for z, _ in table]
    assert zs[0] == -2.0 ** -40 and zs[-1] == -math.exp(-700.0)
    assert zs == sorted(zs)   # towards the band edge
    assert all(f < 0.0 for _, f in table)   # no sign change down to the end


def test_subnormal_z_is_answered_at_every_n(capsys):
    # past the Laplace engine's reach the edge record answers, down to the
    # smallest subnormal
    for n in range(1, 7):
        for z in ("-1e-310", "-5e-324"):
            code, out, _ = run_cli(capsys, "integrals", "--n", str(n), f"--z={z}")
            assert code == 0, (n, z)
            g = bb.green_values(n, float(z))
            assert json.loads(out)["a"] == g.a and g.a > 0.0, (n, z)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "belowband.cli", "integrals",
         "--n", "1", "--z", "-2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a"] == pytest.approx(
        bb.closed_form_a1(-2.0), rel=1e-10)


_IMPORT_BUDGET = """
import contextlib, io, json, sys
import belowband.cli as cli

heavy = ("scipy", "scipy.optimize", "scipy.integrate", "scipy.sparse", "scipy.linalg",
         "scipy.special", "numpy.polynomial")
runs = [
    ["summarize", "--n", "2", "--lambda", "1", "--mu", "3"],
    ["classify", "--n", "3", "--lambda", "4", "--mu", "5"],
    ["integrals", "--n", "3", "--z", "0"],
    ["integrals", "--n", "2", "--z", "-0.5"],
    ["eigenfunction", "--n", "2", "--lambda", "0", "--mu", "3", "--grid", "4"],
    ["verify", "identities", "--n", "1..4", "--samples", "3"],
    ["scan", "--n", "2", "--lambda-range", "0:5:3", "--mu-range", "0:5:3"],
]
codes = []
loaded = {"import": sorted(m for m in heavy if m in sys.modules)}
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    loaded[argv[0] + " " + argv[1]] = sorted(m for m in heavy if m in sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    oracle_code = cli.main(["verify", "oracle", "--n", "2", "--L", "12,16"])

import belowband
from belowband import compare, lowest_eigenvalues
star = {}
exec("from belowband import *", star)
print(json.dumps({
    "codes": codes, "loaded": loaded, "oracle_code": oracle_code,
    "oracle": json.loads(out.getvalue()),
    "lazy_names": [compare.__module__, lowest_eigenvalues.__module__],
    "not_starred": [k for k in belowband.__all__ if k not in star],
    "not_in_dir": [k for k in belowband.__all__ if k not in dir(belowband)],
}))
"""


def test_commands_load_no_optimize_integrate_or_lattice_stack():
    # a fresh interpreter: other tests in this process import the lattice
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0] * 7
    assert all(mods == [] for mods in doc["loaded"].values()), doc["loaded"]
    assert doc["oracle_code"] == 0
    assert doc["oracle"]["suite"] == "oracle" and doc["oracle"]["passed"]
    assert [c["name"] for c in doc["oracle"]["checks"]] == ["count[L=12]", "count[L=16]"]
    assert doc["lazy_names"] == ["belowband.lattice"] * 2
    assert doc["not_starred"] == [] and doc["not_in_dir"] == []


_FORKED_CHILD = """
import contextlib, io, json, os, re, sys
from unittest import mock
import numpy as np
import belowband.cli as cli
from belowband import classify, green, quadrature

argvs = [
    ["integrals", "--n", "3", "--z", "-0.5"],
    ["classify", "--n", "3", "--lambda", "4", "--mu", "5"],
    ["summarize", "--n", "2", "--lambda", "1", "--mu", "3"],
    ["summarize", "--n=3", "--lambda=-1.5", "--mu=2.25"],
    ["scan", "--n", "2", "--lambda-range", "0:5:3", "--mu-range", "0:5:3"],
    ["eigenfunction", "--n", "2", "--lambda", "0", "--mu", "3", "--grid", "4"],
    ["verify", "identities", "--n", "1..4", "--samples", "3"],
    ["verify", "oracle", "--n", "2", "--L", "12,16"],
]
sys.stdout.flush()
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
try:
    cache = getattr(re, "_cache", None)
    before = None if cache is None else set(cache)
    for argv in argvs:
        cli._PARSER.parse_args(argv)
    compiled = None if cache is None else len(set(cache) - before)
    misses = classify.spectral_constants.cache_info().misses
    codes, ladders = [], []
    points = [(n, 0.0, n + 1.5) for n in range(1, 9)] + [(1, 3.0, 3.0)]
    with mock.patch.object(np, "fromfile", wraps=np.fromfile) as fromfile, \\
            mock.patch.object(classify, "green_values",
                              wraps=classify.green_values) as values, \\
            mock.patch.object(quadrature, "_weighted_integrands",
                              wraps=quadrature._weighted_integrands) as bessel:
        for n, lam, mu in points:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(["summarize", f"--n={n}", f"--lambda={lam}",
                                       f"--mu={mu}"]))
            ladders.append(sum(c.args[1] is green._LADDER_Z for c in values.call_args_list))
            values.reset_mock()
    print(json.dumps({"compiled": compiled, "codes": codes, "ladders": ladders,
                      "fromfile": fromfile.call_count, "bessel": bessel.call_count,
                      "misses": classify.spectral_constants.cache_info().misses - misses}))
finally:
    sys.stdout.flush()
    os._exit(0)
"""


def test_a_child_forked_after_import_repeats_no_set_up():
    # what the import builds serves every child forked after it: parsing
    # an argv of each subcommand compiles no pattern, and a summarize at
    # n = 1..8 reads no table file, builds no band-edge constants and runs
    # no Bessel pass, n = 1's engine probes included, also at a point with
    # three roots; each root search reads the committed ladder record by
    # one green_values call
    if not hasattr(re, "_cache"):
        pytest.skip("this Python's re module keeps no _cache")
    proc = subprocess.run([sys.executable, "-c", _FORKED_CHILD],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc == {"compiled": 0, "codes": [0] * 9, "ladders": [1] * 8 + [2],
                   "fromfile": 0, "bessel": 0, "misses": 0}


_FROZEN = """
import gc, json
import belowband.cli as cli
from belowband import green, quadrature
built = (cli._PARSER, green._LADDER_RECORDS, green._PIECES, quadrature._HEADS,
         quadrature._PANELS)
print(json.dumps({"frozen": gc.get_freeze_count(),
                  "tracked": [any(o is x for o in gc.get_objects()) for x in built]}))
"""


def test_the_import_freezes_what_it_built():
    # no collection in a forked child visits the parser, the ladder records,
    # the table pieces or n = 1's kept engine tables: they left the
    # collector's generations at import
    proc = subprocess.run([sys.executable, "-c", _FROZEN],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["frozen"] > 0 and doc["tracked"] == [False] * 5


_ROOT = Path(__file__).resolve().parents[1]


def _readme_commands() -> list[list[str]]:
    text = (_ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("belowband ")]


def _ci_commands() -> list[list[str]]:
    """The console-script commands of the CI step "CLI in fresh processes",
    without environment prefixes or redirections."""
    text = (_ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = text.split("name: CLI in fresh processes", 1)[1].split("- name:", 1)[0]
    found = re.findall(r"(?:^|[\s;(])belowband\s+(.+?)\s*(?=\|\||;|2?>|\)|$)",
                       step.split("run: |", 1)[1], flags=re.M)
    return [shlex.split(cmd) for cmd in found]


# the seed-7 documents of tests/answers.py whose commands CI once ran as
# console scripts under one and two BLAS threads
_FORMER_CI_DOCUMENTS = (520, 524, 526, 527, 528, 532, 550, 552, 556, 557,
                        761, 762, 763, 764, 765)


_ONE_PARSER = """
import contextlib, io, json, sys
from unittest import mock
import belowband.cli as cli

runs = []
with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
    for argv in json.loads(sys.stdin.read()):
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()) as out, \\
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:   # --help, --version, usage errors
                    code = exc.code
            runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"runs": runs, "built": build.call_count,
                  "L": cli._PARSER.parse_args(["verify", "oracle"]).L}))
"""


def test_one_parser_answers_every_call_as_a_fresh_process(tmp_path):
    # the parser is built once, at import, and shared by every main() call:
    # two calls in one interpreter must print what separate processes do
    commands = [*_readme_commands(), *_ci_commands(),
                *(answers.commands()[i] for i in _FORMER_CI_DOCUMENTS),
                ["--help"], ["summarize", "--help"], ["--version"],
                ["summarize", "--n", "2", "--lambda", "1"],   # --mu missing
                ["frobnicate"], ["verify", "oracle", "--n", "1..2"],
                ["verify", "oracle", "--n", "1"]]             # the default --L
    commands = [json.loads(c) for c in dict.fromkeys(json.dumps(c) for c in commands)]
    assert len(commands) >= 22
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    # the shared interpreter writes to a file, so it runs beside the others
    with open(tmp_path / "shared.json", "w+") as sink:
        shared = subprocess.Popen([sys.executable, "-c", _ONE_PARSER], env=env,
                                  text=True, stdin=subprocess.PIPE, stdout=sink,
                                  stderr=subprocess.PIPE)
        shared.stdin.write(json.dumps(commands))
        shared.stdin.close()
        fresh = [subprocess.run([sys.executable, "-m", "belowband.cli", *argv],
                                env=env, capture_output=True, timeout=300)
                 for argv in commands]
        assert shared.wait(timeout=300) == 0, shared.stderr.read()
        sink.seek(0)
        doc = json.load(sink)
    assert doc["built"] == 0
    assert doc["L"] == [50, 100]
    codes = set()
    for argv, proc, pair in zip(commands, fresh, zip(*[iter(doc["runs"])] * 2)):
        for code, out, err in pair:
            assert (code, out.encode(), err.encode()) == \
                (proc.returncode, proc.stdout, proc.stderr), argv
        codes.add(proc.returncode)
    assert codes == {0, 2, 3}


def test_readme_commands_run(capsys):
    commands = _readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out
