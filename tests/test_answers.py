"""The canonical form of ``tests/answers.py``: float bits and the order of
near-coincident roots leave a record line as it is; an answer moves it."""

import dataclasses
import json
import math

import pytest

import answers
from belowband import classify, lattice

# seed-7 document 0623: its delta_s and delta_r roots lie 2 ulps apart
NEAR = ["summarize", "--n=1", "--lambda=81374.75910832032",
        "--mu=-5520557236695.287", "--region-tol=0"]


def _ulp(value):
    """Every float of a JSON value one ulp toward -inf."""
    if isinstance(value, dict):
        return {key: _ulp(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_ulp(item) for item in value]
    return math.nextafter(value, -math.inf) if isinstance(value, float) else value


def _canonical(argv, code, doc, stderr=""):
    return answers.canonical(argv, code, json.dumps(doc, indent=2) + "\n", stderr)


def _document(argv):
    code, stdout, stderr = answers.run(argv)
    return code, json.loads(stdout), stderr


def test_float_bits_and_root_order_leave_a_document_as_it_is():
    code, doc, _ = _document(NEAR)
    z = [r["z"] for r in doc["eigenvalues"]]
    assert [r["origin"] for r in doc["eigenvalues"]] == ["delta_s", "delta_r"]
    assert 0 < z[1] - z[0] < 1e-10 * abs(z[0])
    line = _canonical(NEAR, code, doc)
    swapped = dict(doc, eigenvalues=doc["eigenvalues"][::-1])
    assert _canonical(NEAR, code, swapped) == line
    assert _canonical(NEAR, code, _ulp(doc)) == line
    argv = ["integrals", "--n=3", "--z=-0.5"]
    code, doc, _ = _document(argv)
    assert _canonical(argv, code, _ulp(doc)) == _canonical(argv, code, doc)
    assert (answers.canonical(["summarize"], 3, "", "numeric failure: 0.0004000000000008441\n")
            == answers.canonical(["summarize"], 3, "", "numeric failure: 0.0004000000000008\n"))


def test_each_answer_moves_a_document():
    code, doc, _ = _document(NEAR)
    line = _canonical(NEAR, code, doc)
    first = doc["eigenvalues"][0]
    moved = [
        dict(doc, cell="D3"),
        dict(doc, negative_count=3),
        dict(doc, threshold=dict(doc["threshold"], kind="threshold-resonance")),
        dict(doc, eigenvalues=[dict(first, origin="delta_c"), doc["eigenvalues"][1]]),
        dict(doc, eigenvalues=[dict(first, z=first["z"] * (1 + 1e-9)),
                               doc["eigenvalues"][1]]),
        dict(doc, eigenvalues=doc["eigenvalues"][:1]),
    ]
    assert len({line, *(_canonical(NEAR, code, d) for d in moved)}) == len(moved) + 1
    assert _canonical(NEAR, 3, doc) != line
    argv = ["integrals", "--n=3", "--z=-0.5"]
    code, doc, _ = _document(argv)
    assert (_canonical(argv, code, dict(doc, s=doc["s"] * (1 + 1e-9)))
            != _canonical(argv, code, doc))


def test_a_sweep_point_lists_its_roots_by_origin(monkeypatch):
    n, lam, mu = 1, 81374.75910832032, -5520557236695.287
    summarize = classify.summarize

    def reversed_summary(params, *args, **kwargs):
        s = summarize(params, *args, **kwargs)
        return dataclasses.replace(s, eigenvalues=s.eigenvalues[::-1])

    exact, port = answers.sweep_point(n, lam, mu)
    monkeypatch.setattr(classify, "summarize", reversed_summary)
    exact_swapped, port_swapped = answers.sweep_point(n, lam, mu)
    assert exact_swapped != exact
    assert port_swapped == port


@pytest.mark.parametrize("field, moves", [("eigenvalues", True), ("predicted", False)])
def test_only_a_lattice_block_value_moves_an_oracle_line_by_one_ulp(monkeypatch, field,
                                                                    moves):
    n, lam, mu, L = 1, 3.0, 3.0, 8
    exact, port = answers.oracle_item(n, lam, mu, L)
    name = "lowest_eigenvalues" if field == "eigenvalues" else "compare"
    original = getattr(lattice, name)

    def nudged(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, **{field: tuple(
            math.nextafter(x, -math.inf) for x in getattr(result, field))})

    monkeypatch.setattr(lattice, name, nudged)
    exact_nudged, port_nudged = answers.oracle_item(n, lam, mu, L)
    assert exact_nudged != exact
    assert (port_nudged != port) is moves
