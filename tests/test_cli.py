"""CLI behavior: output documents, determinism, exit codes."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

import belowband as bb
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
])
def test_empty_ranges_and_negative_selectors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
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
    code, out, _ = run_cli(capsys, "verify", "factorization", "--n", "2..3",
                           "--samples", "40")
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "oracle", "--n", "1",
                           "--lambda", "0", "--mu", "1", "--L", "50,100")
    assert code == 0
    doc = json.loads(out)
    assert [c["oracle_count"] for c in doc["checks"]] == [1, 1]


def test_numeric_failure_exit_3(capsys):
    # trapezoid cannot reach the tolerance this close to the band edge
    code, _, err = run_cli(capsys, "integrals", "--n", "3", "--z=-1e-9",
                           "--method", "tensor-trapezoid")
    assert code == 3 and "numeric failure" in err


def test_subnormal_z_is_a_numeric_failure(capsys):
    # the Laplace panels for a subnormal z would pass the largest double
    code, _, err = run_cli(capsys, "integrals", "--n", "1", "--z=-1e-310")
    assert code == 3 and "largest double" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "belowband.cli", "integrals",
         "--n", "1", "--z", "-2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a"] == pytest.approx(
        bb.closed_form_a1(-2.0), rel=1e-10)
