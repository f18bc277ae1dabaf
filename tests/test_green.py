"""Green's-function integrals: oracles, identities, monotonicity, engines."""

import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import belowband as bb
from belowband import classify, green, quadrature
from belowband.green import closed_form_green1
from belowband.quadrature import (
    QuadratureError,
    finite_at_threshold,
    laplace_integrals,
)
from reference import (
    _ellipk_m1,
    closed_form_a2,
    closed_form_a3,
    deep_laplace_integrals,
    required_grid_points,
    trapezoid,
    trapezoid_integrals,
    trapezoid_threshold,
    watson_a0,
)

EPS = 2.0 ** -52


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

def test_dispersion_band_extremes():
    for n in (1, 2, 3, 5):
        assert bb.dispersion([0.0] * n, n) == 0.0
        assert bb.dispersion([math.pi] * n, n) == pytest.approx(2.0 * n, abs=1e-14)
    assert bb.dispersion([math.pi / 2, math.pi / 2], 2) == pytest.approx(2.0)


def test_dispersion_symmetry_and_errors():
    p = [0.3, -1.1, 2.0]
    assert bb.dispersion(p, 3) == pytest.approx(bb.dispersion([-x for x in p], 3))
    assert bb.dispersion(p, 3) == pytest.approx(bb.dispersion(p[::-1], 3))
    with pytest.raises(ValueError):
        bb.dispersion([0.1, 0.2], 3)


# ---------------------------------------------------------------------------
# closed forms as oracles for the engine and the reference trapezoid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z", [-0.1, -1.0, -10.0])
def test_chain_closed_form_both_engines(z):
    exact = bb.closed_form_a1(z)
    for a in (bb.green_values(1, z).a, trapezoid(1, z)["a"]):
        assert a == pytest.approx(exact, rel=1e-12)
    full = closed_form_green1(z)
    g = bb.green_values(1, z)
    for name in ("a", "b", "c", "s"):
        assert getattr(g, name) == pytest.approx(getattr(full, name), rel=1e-10)


def test_chain_closed_form_matches_mpmath_at_every_z():
    # the reference is built from q = sqrt(-z) sqrt(2-z) as well: the old
    # b = (1-z)a - 1 and s = 1 + z(a+b) cancel even at 60 digits by z = -1e150
    with mp.workdps(60):
        for z in -np.logspace(-300.0, 12.0, 157):
            g, zz = closed_form_green1(float(z)), mp.mpf(float(z))
            q = mp.sqrt(-zz) * mp.sqrt(2 - zz)
            s = 1 / ((1 - zz) + q)
            exact = {"a": 1 / q, "b": s / q, "c": (1 - zz) * s / q, "s": s}
            for name, value in exact.items():
                assert abs(getattr(g, name) / value - 1) <= 1e-15, (z, name)


def test_chain_closed_form_special_values():
    assert bb.closed_form_a1(-1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    assert bb.closed_form_a1(1.0 - math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-14)
    assert bb.closed_form_a1(-1e8) < 1e-7
    with pytest.raises(ValueError):
        bb.closed_form_a1(0.0)


def test_chain_b_identity_value():
    g = bb.green_values(1, -1.0)
    assert g.b == pytest.approx(2.0 / math.sqrt(3.0) - 1.0, rel=1e-12)


@pytest.mark.parametrize("z", [-1e-3, -0.5, -4.0, -100.0])
def test_square_lattice_elliptic_oracle(z):
    exact = closed_form_a2(z)
    assert bb.green_values(2, z).a == pytest.approx(exact, rel=1e-12)
    assert trapezoid(2, z)["a"] == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("u", [-40.0, -100.0, -300.0, -700.0])
def test_square_lattice_closed_form_in_u_at_the_edge(u):
    # below u = ln(-z) = -40 the n = 2 value is a = (ln 16 - u)/(2 pi) to
    # rounding; m = (2/(2-z))^2 itself rounds to 1 there.  Below u = -45
    # green_values reads a from this form, so the deep Laplace sums and the
    # elliptic closed form are held to it on their own
    edge = (math.log(16.0) - u) / (2.0 * math.pi)
    z = -math.exp(u)
    assert closed_form_a2(z) == pytest.approx(edge, rel=1e-15)
    assert deep_laplace_integrals(2, z)["a"] == pytest.approx(edge, rel=1e-15)
    assert bb.green_values(2, z).a == pytest.approx(edge, rel=1e-15)


EDGE_FIELDS = ("a", "b", "c", "d", "s", "cd")


@pytest.mark.parametrize("u", [-45.0, -100.0, -300.0, -700.0])
def test_square_lattice_edge_record_matches_the_engine(u):
    # at every n, at u or just inside the n's switch if u lies above it:
    # green_values reads the record there, within 4 eps of the deep sums
    for n in range(1, 7):
        z = max(-math.exp(u), math.nextafter(green._switch(n), 0.0))
        g, deep = bb.green_values(n, z), deep_laplace_integrals(n, z)
        for name in EDGE_FIELDS:
            if getattr(g, name) is not None:
                assert abs(getattr(g, name) / deep[name] - 1.0) <= 4 * EPS, (n, u, name)


@pytest.mark.parametrize("n", range(1, 7))
def test_edge_record_within_4_eps_of_the_deep_sums(n):
    # 3000 points from the n's switch to u = -702, the deep sums' own limit;
    # nearer the edge, down to the smallest subnormal, every field stays
    # finite and positive.  At n = 3 the term sqrt(-z)/(sqrt(2) pi) that the
    # z = 0 record leaves out is below 1e-24 of a(0) from the switch on
    switch = green._switch(n)
    for u in np.linspace(math.log(-switch), -702.0, 3000):
        z = max(-math.exp(u), math.nextafter(switch, 0.0))
        edge = dict(zip(EDGE_FIELDS, green._edge(n, z)))
        deep = deep_laplace_integrals(n, z)
        gaps = {k: abs(edge[k] / deep[k] - 1.0) for k in edge if k in deep}
        assert max(gaps.values()) <= 4 * EPS, (n, u, gaps)
    for z in -np.geomspace(math.exp(-702.0), 5e-324, 200):
        g = bb.green_values(n, float(z))
        values = [getattr(g, k) for k in EDGE_FIELDS if getattr(g, k) is not None]
        assert len(values) == (4 if n == 1 else 6)
        assert all(0.0 < v < math.inf for v in values), (n, z)
    if n == 3:
        assert math.sqrt(-switch) / (math.sqrt(2.0) * math.pi) < 1e-24 * bb.green_threshold(3).a


def test_square_lattice_edge_switch_is_continuous():
    # one ulp on either side of each n's switch: engine, then edge record
    for n in range(1, 7):
        switch = green._switch(n)
        outer = bb.green_values(n, math.nextafter(switch, -1.0))
        inner = bb.green_values(n, math.nextafter(switch, 0.0))
        for name in EDGE_FIELDS:
            x, y = getattr(inner, name), getattr(outer, name)
            if x is not None:
                assert abs(x / y - 1.0) <= 4 * EPS, (n, name)


def test_band_edge_table_is_the_engines_own_sums():
    # the committed z = 0 values of n <= 8 against the engine's z = 0 path,
    # bit for bit and in the order of EDGE_FIELDS, None where the engine
    # has no value; from n = 9 on the values come from that path
    assert sorted(green._BAND_EDGE) == list(range(1, 9))
    for n in range(1, 10):
        engine = quadrature.laplace_integrals(n, 0.0)
        expected = [engine[k].hex() if k in engine else None for k in EDGE_FIELDS]
        got = [None if v is None else v.hex() for v in green._threshold(n)]
        assert got == expected, (n, "rewrite the tables with tests/make_tables.py")


def test_ladder_table_is_the_engines_own_sums(monkeypatch):
    # the committed ladder values of n <= 8 against scalar green_values
    # calls, every field bit for bit, and against fresh engine sums one
    # call per z wherever the Green table does not serve; from n = 9 on the
    # ladder is one Laplace call per point on its first use, and kept
    monkeypatch.setattr(quadrature, "_HEADS", {})
    monkeypatch.setattr(quadrature, "_PANELS", {})
    monkeypatch.setattr(green, "_LADDER_RECORDS",
                        {n: green._LADDER_RECORDS[n] for n in range(1, 9)})
    assert os.path.getsize(green._LADDER_FILE) == 29808
    with mock.patch.object(green, "laplace_integrals",
                           wraps=green.laplace_integrals) as laplace:
        for n in (*range(1, 10), 9):
            first = n not in green._LADDER_RECORDS
            bb.green_values(n, green._LADDER_Z)
            assert laplace.call_count == (81 if first else 0), n
            laplace.reset_mock()
    assert first is False and 9 in green._LADDER_RECORDS
    for n in range(1, 10):
        committed = bb.green_values(n, green._LADDER_Z)
        zs = green._LADDER_Z.tolist()
        scalar = [bb.green_values(n, z) for z in zs]
        engine = [None if 1 < n <= 8 and green._TABLE_FAR <= z <= green._TABLE_NEAR
                  else quadrature.laplace_integrals(n, z) for z in zs]
        assert sum(e is None for e in engine) == (52 if 1 < n <= 8 else 0), n
        for name in ("a", "b", "c", "d", "s", "cd"):
            got = getattr(committed, name)
            if n == 1 and name in ("d", "cd"):
                assert got is None
                continue
            assert got.tobytes() == np.array([getattr(g, name) for g in scalar]).tobytes(), (
                n, name, "rewrite the tables with tests/make_tables.py")
            assert [v for v, e in zip(got.tolist(), engine) if e] == [
                e[name] for e in engine if e], (n, name)


def _at_every_piece_edge(test):
    """``test`` with an explicit example at every n = 2..8 and every u on
    either side of each piece edge, the range's two ends included."""
    us = {u for e in green._TABLE_EDGES for u in (
        math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf), e - 1e-9, e + 1e-9)}
    for n in range(2, 9):
        for u in sorted(us):
            if green._TABLE_EDGES[0] <= u <= green._TABLE_EDGES[-1]:
                test = example(n=n, u=u)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), u=st.floats(green._TABLE_EDGES[0], green._TABLE_EDGES[-1]))
@_at_every_piece_edge
def test_the_green_table_is_within_8_eps_of_fresh_engine_sums(n, u):
    # every field of the table, at random u in its range and on both sides
    # of each piece edge, against the engine's sum at the same z.  Over
    # 3000 seeded u per n the largest relative gap read 6.5 eps (d at
    # n = 2): the fit sits at the engine's own rounding noise
    z = -math.exp(u)
    z = min(max(z, green._TABLE_FAR), green._TABLE_NEAR)   # exp may round past an end
    table, engine = bb.green_values(n, z), laplace_integrals(n, z)
    for name, value in engine.items():
        assert abs(getattr(table, name) / value - 1.0) <= 8 * EPS, (n, u, name)


def test_the_green_table_serves_exactly_its_range():
    # one ulp past either end of the table, and at n = 1 and n = 9 inside
    # it, each green_values call is one Laplace call; the ends themselves
    # take none
    inside = [green._TABLE_FAR, green._TABLE_NEAR, -1.0]
    outside = [math.nextafter(green._TABLE_FAR, -math.inf),
               math.nextafter(green._TABLE_NEAR, 0.0)]
    for n in range(1, 10):
        for z in inside + outside:
            with mock.patch.object(green, "laplace_integrals",
                                   wraps=green.laplace_integrals) as laplace:
                bb.green_values(n, z)
            served = 1 < n <= 8 and z in inside
            assert laplace.call_count == (0 if served else 1), (n, z)


def test_a_built_record_is_a_green_values_record():
    # every record, the closed forms of the chain's included, is a
    # GreenValues that compares, hashes, prints and refuses assignment as
    # one built field by field does
    for n, z in ((1, -0.75), (3, -0.75), (3, -1e9), (9, -0.75), (1, None)):
        g = bb.green_values(n, z) if z is not None else closed_form_green1(-0.75)
        built = green.GreenValues(g.n, g.z, g.a, g.b, g.c, g.d, g.s, g.cd)
        assert type(g) is green.GreenValues
        assert g == built and hash(g) == hash(built) and repr(g) == repr(built)
        assert vars(g) == vars(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.a = 1.0
        assert dataclasses.replace(g) == g


def test_a_short_green_table_names_the_file(monkeypatch, tmp_path):
    # the one reader of the committed tables on a copy cut by one value
    short = tmp_path / "table.f64"
    short.write_bytes(pathlib.Path(green._TABLE_FILE).read_bytes()[:-8])
    monkeypatch.setattr(green, "_TABLE_FILE", str(short))
    with pytest.raises(OSError, match=f"the Green table {re.escape(str(short))} holds "
                                      "56440 bytes, expected 56448"):
        green._table_pieces()


def test_a_short_ladder_table_names_the_file(monkeypatch, tmp_path):
    # as above, for the ladder
    short = tmp_path / "ladder.f64"
    short.write_bytes(pathlib.Path(green._LADDER_FILE).read_bytes()[:-8])
    monkeypatch.setattr(green, "_LADDER_FILE", str(short))
    with pytest.raises(OSError, match=f"the ladder table {re.escape(str(short))} holds "
                                      "29800 bytes, expected 29808"):
        green._ladder_records()


def _import_with_ladder(tmp_path, ladder: bytes) -> tuple[pathlib.Path, str]:
    """The path of ``ladder.f64`` in a copy of the package whose ladder
    holds ``ladder``, and the stderr of a failed import of that copy."""
    package = tmp_path / "belowband"
    src = pathlib.Path(green.__file__).parent
    package.mkdir()
    for path in src.iterdir():
        if path.is_file():
            (package / path.name).write_bytes(path.read_bytes())
    (package / "ladder.f64").write_bytes(ladder)
    proc = subprocess.run([sys.executable, "-c", "import belowband"], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    return package / "ladder.f64", proc.stderr


def test_a_short_ladder_table_fails_the_import(tmp_path):
    # both tables are read at import, so a package whose ladder lacks one
    # value does not import, and the error names the file
    ladder = pathlib.Path(green._LADDER_FILE).read_bytes()[:-8]
    path, stderr = _import_with_ladder(tmp_path, ladder)
    assert f"OSError: the ladder table {path} holds 29800 bytes, expected 29808" in stderr, (
        stderr)


def test_a_ladder_value_that_is_not_positive_fails_the_import(tmp_path):
    # the ladder's records are built at import with one positivity check
    # of every value, so a package whose ladder holds one negated value
    # does not import, and the error names the file
    values = np.fromfile(green._LADDER_FILE, dtype="<f8")
    values[1000] *= -1.0
    path, stderr = _import_with_ladder(tmp_path, values.tobytes())
    assert (f"OSError: the ladder table {path} holds a value that is not positive"
            in stderr), stderr


def test_the_committed_tables_are_read_only():
    # every ladder record shares the rows read at import, the record built
    # on first use at n = 9 is kept read-only beside them, and table probes
    # share the coefficient blocks: none takes a write, so the next call
    # still returns the kept values
    for n in (3, 9):
        g = bb.green_values(n, green._LADDER_Z)
        committed = {k: getattr(g, k).tobytes() for k in EDGE_FIELDS}
        with pytest.raises(ValueError, match="read-only"):
            g.a[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            g.z[0] = -1.0
        again = bb.green_values(n, green._LADDER_Z)
        assert {k: getattr(again, k).tobytes() for k in EDGE_FIELDS} == committed
    assert all(not getattr(record, k).flags.writeable
               for record in green._LADDER_RECORDS.values() for k in EDGE_FIELDS
               if getattr(record, k) is not None)
    for blocks in green._PIECES:
        for block in blocks:
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0.0
    assert len(green._PIECES) == 7 and {len(blocks) for blocks in green._PIECES} == {7}


_FRESH_SUMMARIZE = """
import contextlib, io, json
from unittest import mock
import numpy as np
from belowband import cli, green, quadrature
out = {}
for n in range(1, 10):
    with mock.patch.object(green, "laplace_integrals",
                           wraps=green.laplace_integrals) as laplace, \
            mock.patch.object(quadrature, "_weighted_integrands",
                              wraps=quadrature._weighted_integrands) as bessel:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["summarize", f"--n={n}", "--lambda=0", f"--mu={n + 1.5}"])
    zs = [c.args[1] for c in laplace.call_args_list]
    out[n] = {"code": code, "edge": sum(bool(np.any(z == 0.0)) for z in zs),
              "arrays": sum(np.ndim(z) > 0 for z in zs),
              "ladder": sum(z in green._LADDER_Z.tolist() for z in zs),
              "tail": quadrature._tail.cache_info().currsize,
              "calls": len(zs), "bessel": bessel.call_count,
              "panels": n in quadrature._PANELS}
print(json.dumps(out))
"""


def test_a_fresh_summarize_sums_no_band_edge_and_no_ladder():
    # each n locates one delta_r root, and every Laplace call is at one z;
    # below n = 9 the band-edge constants and the ladder are committed, so
    # no call is at z = 0 or at a ladder point, and no tail is summed; at
    # n = 2..8 the root lies in the Green table's range, so no Laplace call
    # and no Bessel pass runs at all; n = 1 sums brentq's probes over the
    # tables the import built, in no Bessel pass; at n = 9 the ladder is
    # one call per point, after one pass for all 81 (the band edge and its
    # tail take the other two)
    doc = json.loads(subprocess.run([sys.executable, "-c", _FRESH_SUMMARIZE],
                                    check=True, capture_output=True, text=True).stdout)
    for n in range(2, 9):
        assert doc[str(n)] == {"code": 0, "edge": 0, "arrays": 0, "ladder": 0,
                               "tail": 0, "calls": 0, "bessel": 0, "panels": False}, n
    assert doc["1"].pop("calls") > 0
    assert doc["1"] == {"code": 0, "edge": 0, "arrays": 0, "ladder": 0, "tail": 0,
                        "bessel": 0, "panels": True}
    assert doc["9"].pop("calls") > 81
    assert doc["9"] == {"code": 0, "edge": 1, "arrays": 0, "ladder": 81, "tail": 1,
                        "bessel": 3, "panels": True}


def test_an_array_of_z_equals_its_entries_past_the_engines_reach():
    # each entry of an array is its call at that z alone, bit for bit, the
    # engine's sums and the edge records past the switch alike; an entry
    # at 0, above it or NaN raises the ValueError of a single z
    for n in (1, 2, 3, 9):
        switch = green._switch(n)
        zs = [-1.0, switch, math.nextafter(switch, 0.0), switch * 1e-100, -5e-324]
        many = bb.green_values(n, np.array(zs))
        assert isinstance(many.z, np.ndarray) and many.z.tolist() == zs
        for name in EDGE_FIELDS:
            column = getattr(many, name)
            if column is None:
                assert n == 1 and name in ("d", "cd")
                continue
            assert [v.hex() for v in column.tolist()] == [
                getattr(bb.green_values(n, z), name).hex() for z in zs], (n, name)
        for bad in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="requires z < 0"):
                bb.green_values(n, np.array([-1.0, bad]))


def test_square_lattice_edge_makes_no_laplace_call():
    for n in range(1, 7):
        bb.green_values(n, -1e-300)   # the z = 0 values, once
    with mock.patch.object(green, "laplace_integrals",
                           wraps=green.laplace_integrals) as laplace:
        for n in range(1, 7):
            switch = green._switch(n)
            for z in (math.nextafter(switch, 0.0), switch * 1e-100, -1e-300, -5e-324):
                bb.green_values(n, z)
        assert laplace.call_count == 0
        # the engine keeps every z up to the switch, -exp(-45) at n = 2
        for n in range(1, 7):
            bb.green_values(n, math.nextafter(green._switch(n), -1.0))
        bb.green_values(2, -math.exp(-44.0))
        assert laplace.call_count == 7


def test_deep_square_lattice_search_keeps_short_panels(monkeypatch):
    # a walk to u = -700 at every n: at n = 2 the search for a delta_r root
    # closer to the edge fails there, at other n the factor lam s - 1 = -1
    # keeps its sign.  No Laplace call goes past the switch, so the panels
    # end at 2^(k0 + _CHUNK // _NODES) at most; at n = 2 the ladder is
    # committed and every step past it lies beyond the switch u = -45, so
    # nothing is kept
    monkeypatch.setattr(quadrature, "_HEADS", {})
    monkeypatch.setattr(quadrature, "_PANELS", {})
    with pytest.raises(bb.RootScanError, match=re.escape("exp(-700)")):
        bb.negative_eigenvalues(bb.ModelParams(2, 5.0, 2.5001), tol=0.0)
    for n in range(1, 7):
        params = bb.ModelParams(n, 0.0, 0.0)
        f = lambda u: classify._factor_at(params, "delta_s", bb.green_values(n, -math.exp(u)))
        with pytest.raises(bb.RootScanError):
            classify._step_past(f, classify._LADDER[-1], -1.0, classify._U_NEAR, str)
        k0, k1 = quadrature._span(n, quadrature._z_near(n))
        assert k1 == k0 + quadrature._CHUNK // quadrature._NODES
        if n != 2:
            assert quadrature._PANELS[n][1] <= k1, n
    assert 2 not in quadrature._PANELS
    assert not any(m == 2 for m, _ in quadrature._HEADS)


def test_agm_elliptic_k_matches_scipy_and_mpmath():
    import scipy.special as sp

    assert _ellipk_m1(0.0) == math.inf and _ellipk_m1(1.0) == math.pi / 2
    m1 = np.concatenate([np.geomspace(5e-324, 1.0, 20_001), np.linspace(0.0, 1.0, 20_001)[1:]])
    got = np.array([_ellipk_m1(x) for x in m1])
    # the plain double AGM is within 6e-16 of K, scipy's polynomials 3e-16
    assert np.max(np.abs(got / sp.ellipkm1(m1) - 1.0)) <= 8e-16
    m = np.linspace(0.0, 1.0, 20_001)[:-1]   # ellipk(m) is ellipkm1(1 - m)
    assert max(abs(_ellipk_m1(1.0 - x) / sp.ellipk(x) - 1.0) for x in m) <= 8e-16
    with mp.workdps(40):
        err = max(abs(mp.mpf(k) * 2 * mp.agm(1, mp.sqrt(mp.mpf(x))) / mp.pi - 1)
                  for k, x in zip(got[::40], m1[::40]))
    assert err <= 6e-16


@pytest.mark.parametrize("z", [0.0, -0.5, -2.0])
def test_cubic_lattice_elliptic_oracle(z):
    exact = closed_form_a3(z)
    got = bb.green_values(3, z).a if z < 0 else bb.green_threshold(3).a
    assert got == pytest.approx(exact, rel=1e-10)


def test_watson_constant():
    a0 = bb.green_threshold(3).a
    assert a0 == pytest.approx(float(watson_a0()), rel=1e-12)
    assert a0 == pytest.approx(0.5054620197, abs=1e-9)


# ---------------------------------------------------------------------------
# threshold values and availability flags
# ---------------------------------------------------------------------------

def test_threshold_flags_by_dimension():
    g1 = bb.green_threshold(1)
    assert g1.a is None and g1.b is None and g1.d is None and g1.cd is None
    assert g1.s == pytest.approx(1.0, abs=1e-13)
    g2 = bb.green_threshold(2)
    assert g2.a is None and g2.b is None
    assert g2.cd is not None and g2.s is not None
    for n in (3, 4, 5):
        g = bb.green_threshold(n)
        assert all(getattr(g, k) is not None for k in ("a", "b", "c", "d", "s", "cd"))
        assert g.a - g.b == pytest.approx(1.0 / n, abs=1e-12)
    assert finite_at_threshold(2) == frozenset({"s", "cd"})


def test_the_engine_sums_only_the_integrals_green_values_holds():
    # below the edge: a, b, c, s at n = 1 and a, b, c, d, s, c - d above,
    # the fields green_values fills; at z = 0: exactly the finite ones
    for n in (1, 2, 3, 4, 5):
        want = ("a", "b", "c", "s") if n == 1 else ("a", "b", "c", "d", "s", "cd")
        assert tuple(laplace_integrals(n, -0.5)) == want
        g = bb.green_values(n, -0.5)
        assert tuple(k for k in ("a", "b", "c", "d", "s", "cd")
                     if getattr(g, k) is not None) == want
        assert set(laplace_integrals(n, 0.0)) == finite_at_threshold(n)


def test_threshold_square_lattice_classical_constants():
    # classical square-lattice values: lim(c-d) = 4/pi - 1, s(0) = 1 - 2/pi
    g2 = bb.green_threshold(2)
    assert g2.cd == pytest.approx(4.0 / math.pi - 1.0, abs=1e-12)
    assert g2.s == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)


def test_threshold_identities_link_integrals():
    # s(0) = 1 - (n-1)(a(0) - d(0)) and cd = c(0) - d(0) for n >= 3
    for n in (3, 4, 5):
        raw = laplace_integrals(n, 0.0)
        assert raw["s"] == pytest.approx(1.0 - (n - 1) * (raw["a"] - raw["d"]), abs=1e-12)
        assert raw["cd"] == pytest.approx(raw["c"] - raw["d"], abs=1e-11)


def test_threshold_grid_method_cross_checks():
    for n in (1, 2, 3):
        grid = trapezoid_threshold(n)
        lap = laplace_integrals(n, 0.0)
        for key, val in grid.items():
            assert val == pytest.approx(lap[key], rel=1e-9)


def test_divergent_requests_are_flagged_not_numbers():
    g = bb.green_threshold(2)
    with pytest.raises(bb.DivergentIntegralError):
        g.require("a")
    with pytest.raises(ValueError):
        bb.green_values(2, 0.0)
    with pytest.raises(ValueError):
        bb.green_values(2, 0.5)


_ZS = np.array([-1.0, -2.0, -3.0, -4.0])
# the two sources of a float z's record there: the Green table at n = 3
# (read by green._table) and the Laplace engine at n = 9
_SOURCES = ((3, "_table"), (9, "laplace_integrals"))


def _with_values(source, **values):
    """``source`` with each named value replaced by ``values[name](z)``."""
    true = getattr(green, source)
    if source == "laplace_integrals":
        return lambda n, z: dict(true(n, z), **{k: f(z) for k, f in values.items()})
    return lambda n, z: tuple(values[k](z) if k in values else v
                              for k, v in zip(EDGE_FIELDS, true(n, z)))


@pytest.mark.parametrize("name, row, first", [
    ("a", [1.0, -1.0, -2.0, 1.0], 1),
    ("s", [1.0, 1.0, 0.0, -5.0], 2),
    ("cd", [math.nan, -1.0, 1.0, 1.0], 0),
])
def test_a_sum_that_is_not_positive_is_named_with_its_z(name, row, first):
    # a, b, c, s and c - d are positive on z <= 0: a sum that is not (zero,
    # negative or NaN) raises, naming the integral and, at an array of z,
    # its first offender; a float z is checked as the same record, from
    # either source
    for n, source in _SOURCES:
        record = _with_values(source, **{name: lambda z: row[_ZS.tolist().index(z)]})
        with mock.patch.object(green, source, record):
            for z in _ZS.tolist():
                value = row[_ZS.tolist().index(z)]
                if value > 0.0:
                    assert getattr(bb.green_values(n, z), name) == value
                    continue
                with pytest.raises(QuadratureError,
                                   match=re.escape(f"integral {name}={value} at n={n}, "
                                                   f"z={z} violates positivity")):
                    bb.green_values(n, z)
            with pytest.raises(QuadratureError,
                               match=re.escape(f"integral {name}={row[first]} at n={n}, "
                                               f"z={_ZS[first]} violates positivity")):
                bb.green_values(n, _ZS)


def test_the_first_integral_in_order_is_named():
    # a before s: with both not positive the message names a, from either
    # source
    for n, source in _SOURCES:
        record = _with_values(source, a=lambda z: -1.0, s=lambda z: -2.0)
        with mock.patch.object(green, source, record):
            with pytest.raises(QuadratureError,
                               match=rf"integral a=-1\.0 at n={n}, z=-0\.5 "):
                bb.green_values(n, -0.5)


# ---------------------------------------------------------------------------
# identity suite (algebraic relations between the integrals)
# ---------------------------------------------------------------------------

Z_SAMPLES = [-float(z) for z in np.geomspace(1e-4, 50.0, 20)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_suite(n):
    for z in Z_SAMPLES:
        g = bb.green_values(n, z)
        assert abs(g.a - g.b - (1.0 + z * g.a) / n) <= 1e-9
        assert abs(g.alpha - (n - z) * g.b) <= 1e-9
        assert abs(g.gamma - g.b) <= 1e-9


def test_product_identity_chain():
    for z in Z_SAMPLES:
        g = bb.green_values(1, z)
        assert abs(g.a * g.s - g.b) <= 1e-9
        assert abs(g.s - (1.0 + z * (g.a + g.b))) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_inequalities(n):
    for z in Z_SAMPLES:
        g = bb.green_values(n, z)
        assert g.a * g.s < g.b
        assert g.cd < g.s
    g0 = bb.green_threshold(n)
    assert g0.cd < g0.s
    if n >= 3:
        assert g0.a * g0.s < g0.b


# ---------------------------------------------------------------------------
# monotonicity, limits, ratio
# ---------------------------------------------------------------------------

LADDER = [-float(z) for z in np.geomspace(1e-6, 1e4, 26)][::-1]  # increasing z


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monotone_increasing_and_positive(n):
    rows = [bb.green_values(n, z) for z in LADDER]
    for name in ("a", "b", "s", "cd"):
        if name == "cd" and n == 1:
            continue
        vals = [getattr(g, name) for g in rows]
        assert all(v > 0.0 for v in vals)
        assert all(x < y for x, y in zip(vals, vals[1:])), name
    alphas = [g.alpha for g in rows]
    assert all(x < y for x, y in zip(alphas, alphas[1:]))
    # everything decays to zero deep below the band
    deep = bb.green_values(n, -1e4)
    assert max(deep.a, deep.b, deep.s) < 1e-3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ratio_monotone_decreasing_with_limits(n):
    ratios = [bb.green_values(n, z).ratio_ab for z in LADDER]
    assert all(x > y for x, y in zip(ratios, ratios[1:]))
    assert bb.green_values(n, -1e4).ratio_ab > 1e3
    near = bb.green_values(n, -1e-6).ratio_ab
    if n == 1:
        assert abs(near - 1.0) <= 5e-2
    elif n == 2:
        # the limit 1 is approached logarithmically: at z = -1e-6 the ratio
        # is still ~1.23; check consistency with a/b = 1/(1 - (1+za)/(na))
        a = bb.green_values(2, -1e-6).a
        predicted = 1.0 / (1.0 - (1.0 + -1e-6 * a) / (2 * a))
        assert near == pytest.approx(predicted, rel=1e-9)
        assert 1.0 < near < 1.3
    else:
        x = bb.spectral_constants(n).x_asymptote
        assert abs(near - x) <= 1e-2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ratio_derivative_sign(n):
    # a'(z) b(z) - a(z) b'(z) < 0 via central differences
    for z in (-0.03, -0.7, -6.0, -80.0):
        h = 1e-6 * max(1.0, abs(z))
        gp = bb.green_values(n, z + h)
        gm = bb.green_values(n, z - h)
        g = bb.green_values(n, z)
        da = (gp.a - gm.a) / (2 * h)
        db = (gp.b - gm.b) / (2 * h)
        assert da * g.b - g.a * db < 0.0


def test_square_lattice_edge_expansion_slope():
    # near the band edge a(z) = -K ln(-z) + C + O(z); the fitted slope
    # matches 1/(2 pi) (the quadratic-dispersion value), K ~ 0.15915
    zs = np.geomspace(1e-6, 1e-3, 12)
    av = [bb.green_values(2, -float(z)).a for z in zs]
    slope, intercept = np.polyfit(np.log(zs), av, 1)
    assert -slope == pytest.approx(1.0 / (2.0 * math.pi), rel=5e-3)
    assert intercept == pytest.approx(2.0 * math.log(2.0) / math.pi, rel=5e-3)


# ---------------------------------------------------------------------------
# the engine against the reference trapezoid
# ---------------------------------------------------------------------------

def _max_rel_gap(first: dict, second: dict) -> float:
    return max(abs(first[k] - second[k]) / max(abs(first[k]), abs(second[k]))
               for k in set(first) & set(second))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cross_method_agreement(n):
    zs = [-10.0, -1.0, -0.5, -0.1, -0.01, -1e-3]
    for z in zs:
        lap = bb.green_values(n, z)
        trap = trapezoid(n, z)
        for name in ("a", "b", "c", "d", "s", "cd"):
            x = getattr(lap, name)
            if x is None:
                continue
            assert x == pytest.approx(trap[name], rel=1e-8), (name, z)


def test_both_method_validates_and_detects_bad_grids():
    # the sized grid agrees with the engine within 10x its 1e-10 target;
    # an 8-point grid does not
    lap = laplace_integrals(2, -0.5)
    assert _max_rel_gap(lap, trapezoid(2, -0.5)) <= 1e-9
    assert _max_rel_gap(lap, trapezoid_integrals(2, -0.5, 8)) > 1e-9


def test_trapezoid_grid_sizing_and_caps():
    assert required_grid_points(2, -1.0, 1e-10) >= 32
    assert required_grid_points(2, -1e-3, 1e-10) > 400
    with pytest.raises(QuadratureError):
        trapezoid_integrals(4, -1.0, 64)
    with pytest.raises(QuadratureError):
        trapezoid_integrals(3, -1e-8, 1 << 14)
    with pytest.raises(QuadratureError, match="exceeds the cap"):
        trapezoid_threshold(3, 1154)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("engines", ["trapezoid", "both"])
def test_trapezoid_past_n3_raises_below_and_at_the_edge(engines, n):
    # the reference's limit holds at the band edge as below it: a cross-check
    # ("both") may not pass there on the Laplace engine alone
    if engines == "both":
        assert math.isfinite(bb.green_values(n, -0.5).a)
        assert math.isfinite(bb.green_threshold(n).a)
    with pytest.raises(QuadratureError, match="n <= 3"):
        trapezoid(n, -0.5)
    with pytest.raises(QuadratureError, match="n <= 3"):
        trapezoid_threshold(n)


def test_deterministic_evaluation():
    a1 = bb.green_values(3, -0.37).a
    a2 = bb.green_values(3, -0.37).a
    assert a1 == a2  # bitwise


# ---------------------------------------------------------------------------
# Laplace engine over the whole range the root finders use
# ---------------------------------------------------------------------------

def test_laplace_chain_closed_form_from_edge_search_floor_to_1e15():
    # -exp(-700) is the deepest point of the edge search, -1e15 the end of
    # the monotone-root bracket search
    for z in -np.exp(np.linspace(-700.0, math.log(1e15), 300)):
        z = float(z)
        got, exact = bb.green_values(1, z), closed_form_green1(z)
        for name in ("a", "b", "c", "s"):
            assert getattr(got, name) == pytest.approx(
                getattr(exact, name), rel=1e-12), (z, name)


@pytest.mark.parametrize("z", [-1e-310, -5e-324])
def test_laplace_rejects_subnormal_z_without_warnings(z):
    # past every n's limit: the typed error names it, and nothing overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n in range(1, 7):
            with pytest.raises(QuadratureError, match=re.escape(repr(quadrature._z_near(n)))):
                laplace_integrals(n, z)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("z", [-1e-310, -5e-324])
def test_subnormal_z_answers_at_every_n(z):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n in range(1, 7):
            g = bb.green_values(n, z)
            if n == 1:
                assert g == closed_form_green1(z)
            elif n == 2:
                assert g.a == (math.log(16.0) - math.log(-z)) / (2.0 * math.pi)
            else:
                g0 = bb.green_threshold(n)
                assert (g.a, g.b, g.s, g.cd) == (g0.a, g0.b, g0.s, g0.cd)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_laplace_smallest_admissible_z():
    # each n's limit is the last z whose panels fit one chunk per row; one
    # ulp nearer the edge they would not, and the engine refuses it, while
    # green_values serves it from the edge record at n != 2 without a call
    for n in range(1, 7):
        z = quadrature._z_near(n)
        assert green._switch(n) == z if n != 2 else green._switch(n) < z
        k0, k1 = quadrature._span(n, z)
        assert (k1 - k0) * quadrature._NODES <= quadrature._CHUNK
        assert laplace_integrals(n, z) == deep_laplace_integrals(n, z)
        nearer = math.nextafter(z, 0.0)
        mant, k = math.frexp(746.0 / -nearer)
        assert (k - (mant == 0.5) - k0) * quadrature._NODES > quadrature._CHUNK
        with pytest.raises(QuadratureError, match="too close to the band edge"):
            laplace_integrals(n, nearer)
        green._threshold(n)   # the z = 0 values, once
        with mock.patch.object(green, "laplace_integrals",
                               wraps=green.laplace_integrals) as laplace:
            bb.green_values(n, nearer)
        assert laplace.call_count == 0
        # every admissible span fits, out to the far limit
        for u in np.linspace(math.log(-z), math.log(2.0 ** 510), 2000):
            k0, k1 = quadrature._span(n, min(-math.exp(u), z))
            assert (k1 - k0) * quadrature._NODES <= quadrature._CHUNK, (n, u)


def test_laplace_largest_admissible_z():
    # b ~ 1/(2 z^2) is still a normal double at |z| = 2^510, not beyond
    z = -(2.0 ** 510)
    g = bb.green_values(3, z)
    assert g.b >= sys.float_info.min
    assert g.ratio_ab == pytest.approx(2.0 * (3.0 - z), rel=1e-14)
    for far in (math.nextafter(z, -math.inf), -1e160, -1e300):
        with pytest.raises(QuadratureError, match=re.escape(repr(2.0 ** 510))):
            laplace_integrals(3, far)


def test_laplace_values_do_not_depend_on_call_history():
    zs = (-1e-9, -0.37, -3.0, -2.0 ** 35)
    code = ("import sys, belowband as bb\n"
            "for n in (1, 2, 4):\n"
            "    for z in map(float, sys.argv[1:]):\n"
            "        g = bb.green_values(n, z)\n"
            "        print(repr((g.a, g.b, g.c, g.d, g.s, g.cd)))\n")
    fresh = subprocess.run([sys.executable, "-c", code, *map(repr, zs)],
                           capture_output=True, text=True, check=True).stdout
    for n in (1, 2, 4):   # widen the kept tables on both sides first
        for z in (quadrature._z_near(n), -1e-4, -7.5, -1e12):
            bb.green_values(n, z)
    here = "".join(repr((g.a, g.b, g.c, g.d, g.s, g.cd)) + "\n"
                   for n in (1, 2, 4) for g in (bb.green_values(n, z) for z in zs))
    assert here == fresh
