"""Golden constants: file schema, stored values, cross-check machinery."""

import json
import math

import pytest

import belowband as bb
from reference import (
    CRITICAL_FILE,
    GOLDEN_DIR,
    GREEN_FILE,
    compute_critical_records,
    compute_green_records,
    load_records,
    lookup,
    regenerate,
)


def test_files_exist_with_schema():
    for name in (GREEN_FILE, CRITICAL_FILE):
        doc = json.loads((GOLDEN_DIR / name).read_text())
        assert doc["schema_version"] == "1"
        for rec in doc["records"]:
            assert set(rec) == {"n", "quantity", "value", "method", "tolerance"}


def test_stored_green_values_reproducible():
    records = load_records(GREEN_FILE)
    for n in (3, 4, 5):
        g = bb.green_threshold(n)
        assert lookup(records, n, "a0").value == pytest.approx(g.a, rel=1e-10)
        assert lookup(records, n, "b0").value == pytest.approx(g.b, rel=1e-10)
    assert lookup(records, 2, "alpha0").value == pytest.approx(
        4.0 / math.pi - 1.0, rel=1e-10)
    assert lookup(records, 1, "s0").value == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(KeyError):
        lookup(records, 1, "alpha0")


def test_stored_critical_couplings_reproducible():
    records = load_records(CRITICAL_FILE)
    for n in (1, 2, 3, 4, 5):
        c = bb.spectral_constants(n)
        assert lookup(records, n, "lambda_s").value == pytest.approx(
            c.lambda_s, rel=1e-10)
        if n >= 2:
            assert lookup(records, n, "lambda_c").value == pytest.approx(
                c.lambda_c, rel=1e-10)


def test_recomputation_passes_cross_checks():
    greens = compute_green_records(dimensions=(1, 2, 3))
    crit = compute_critical_records(dimensions=(1, 2, 3))
    assert lookup(greens, 3, "a0").tolerance == 1e-6
    assert lookup(crit, 2, "lambda_c").value == pytest.approx(
        math.pi / (4.0 - math.pi), rel=1e-10)


def test_regenerate_into_a_directory(tmp_path):
    regenerate(tmp_path, dimensions=(1, 2))
    records = load_records(CRITICAL_FILE, tmp_path)
    assert lookup(records, 1, "lambda_s").value == pytest.approx(1.0, abs=1e-12)
