"""The Laplace engine's Bessel tables and node rules: coefficients,
accuracy, determinism; the reference trapezoid's outputs bit for bit."""

import json
import math
import os
import random
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from belowband import classify, green, quadrature
from reference import trapezoid_integrals, trapezoid_threshold

# ---------------------------------------------------------------------------
# e^-t I_0(t), e^-t I_1(t)
# ---------------------------------------------------------------------------


def _chebyshev(f, terms: int, nodes: int = 96) -> list[float]:
    """The first ``terms`` Chebyshev coefficients of f on [-1, 1], from its
    values at ``nodes`` Chebyshev points at 40 digits, rounded to doubles."""
    with mp.workdps(40):
        th = [mp.pi * (j + mp.mpf(1) / 2) / nodes for j in range(nodes)]
        fv = [f(mp.cos(x)) for x in th]
        return [float((1 if k == 0 else 2) / mp.mpf(nodes)
                      * mp.fsum(v * mp.cos(k * x) for v, x in zip(fv, th)))
                for k in range(terms)]


def _ive(k, t):
    return mp.exp(-t) * mp.besseli(k, t)


# the functions each table holds, as functions of its Chebyshev variable y
_SERIES = {
    "_NEAR": (lambda y: _ive(0, 4 * (y + 1)),
              lambda y: _ive(1, 4 * (y + 1)) / (4 * (y + 1))),
    "_FAR": (lambda y: mp.sqrt(16 / (y + 1)) * _ive(0, 16 / (y + 1)),
             lambda y: mp.sqrt(16 / (y + 1)) * _ive(1, 16 / (y + 1))),
}


def test_chebyshev_coefficients_regenerate_from_mpmath():
    for name, columns in _SERIES.items():
        kept = getattr(quadrature, name)
        assert kept.shape[1] == 2
        for col, f in enumerate(columns):
            full = _chebyshev(f, 96)
            np.testing.assert_allclose(full[:len(kept)], kept[:, col],
                                       rtol=1e-15, atol=1e-21, err_msg=name)
            # the dropped terms bound the truncation error
            assert sum(map(abs, full[len(kept):])) < 1e-19, (name, col)


def test_ive01_matches_scipy_and_mpmath():
    t = np.logspace(-8.0, 8.0, 200_001)
    i0, i1 = quadrature._ive01(t)
    assert np.max(np.abs(i0 / sp.ive(0, t) - 1.0)) <= 2e-15
    assert np.max(np.abs(i0 / sp.i0e(t) - 1.0)) <= 2e-15
    assert np.max(np.abs(i1 / sp.i1e(t) - 1.0)) <= 2e-15
    # scipy's ive(1, t) is itself off by up to 3.6e-15 below t = 1e-6
    assert np.max(np.abs(i1 / sp.ive(1, t) - 1.0)) <= 4e-15
    with mp.workdps(30):
        for k, values in ((0, i0), (1, i1)):
            err = max(abs(mp.mpf(v) / _ive(k, mp.mpf(x)) - 1)
                      for v, x in zip(values[::200], t[::200]))
            assert err <= 1.5e-15, k


def test_ive01_ranges_meet():
    # each side of t = 8 and of the asymptotic switch agrees with the other
    for edge in (8.0, quadrature._ASYM_SWITCH):
        t = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
        for values in quadrature._ive01(t):
            assert np.all(np.abs(values / values[1] - 1.0) <= 2e-15), edge


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------


def _legendre_moments(x, w, m: int) -> float:
    """Largest |rule integral| of P_1 .. P_(2m-1), each exactly 0."""
    p0, p1 = np.ones_like(x), x.copy()
    worst = 0.0
    for k in range(1, 2 * m):
        worst = max(worst, abs(math.fsum(w * p1)))
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return worst


def _legendre_mp(x, m: int):
    """P_m(x) and P_m'(x) at the working precision."""
    p0, p1 = mp.mpf(1), x
    for k in range(1, m):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, m * (x * p1 - p0) / (x * x - 1)


def _newton_refined(x0: float, m: int):
    """The root of P_m nearest x0 and its Gauss weight, at 40 digits."""
    with mp.workdps(40):
        x = mp.mpf(x0)
        for _ in range(3):
            p, dp = _legendre_mp(x, m)
            x -= p / dp
        dp = _legendre_mp(x, m)[1]
        return x, 2 / ((1 - x * x) * dp * dp)


def test_gauss_rules_are_symmetric_and_exact():
    for m in (48, 96):
        x, w = quadrature._GAUSS[m]
        assert x.shape == w.shape == (m,)
        assert np.all(np.diff(x) > 0.0) and 0.0 < x[m // 2] and x[-1] < 1.0
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert abs(math.fsum(w) - 2.0) <= math.ulp(2.0), m
        assert _legendre_moments(x, w, m) <= 1.5e-14, m


def test_gauss_moment_check_sees_a_weight_off_by_1e_12():
    x, w = quadrature._GAUSS[48]
    w = w.copy()
    w[24] *= 1.0 + 1e-12
    assert _legendre_moments(x, w, 48) > 1.5e-14


def test_gauss_rules_match_mpmath_and_numpy():
    for m in (48, 96):
        x, w = quadrature._GAUSS[m]
        for xi, wi in zip(x[m // 2:], w[m // 2:]):
            xr, wr = _newton_refined(xi, m)
            assert abs(mp.mpf(xi) - xr) <= math.ulp(xi), (m, xi)
            # numpy's weights are up to 1.5e-12 off; the nodes are not
            assert abs(mp.mpf(wi) / wr - 1) <= 2e-12, (m, xi)
        xn, wn = np.polynomial.legendre.leggauss(m)
        assert np.all(np.abs(x - xn) <= 2.0 * np.spacing(np.abs(xn))), m
        np.testing.assert_allclose(w, wn, rtol=1e-13, atol=0.0, err_msg=str(m))


# ---------------------------------------------------------------------------
# Green values: summation order, thread count and call history
# ---------------------------------------------------------------------------


def _rowwise_sums(n: int, z: float) -> dict[str, str]:
    """float.hex of laplace_integrals(n, z) summed one np.dot per row from
    the kept tables: the head, then the panels, then the z = 0 tail."""
    k0, k1 = quadrature._span(n, z)
    lo, _, t, table = quadrature._PANELS[n]
    th, head = quadrature._HEADS[n, k0]
    cut = slice((k0 - lo) * quadrature._NODES, (k1 - lo) * quadrature._NODES)
    t, table = t[cut], table[:, cut]
    eh, e = np.exp(z * th), np.exp(z * t)
    acc = [np.dot(h, eh) + np.dot(r, e) for h, r in zip(head, table)]
    if z == 0.0:
        acc = np.add(acc, quadrature._tail(n))
    return {k: float(v).hex() for k, v in zip(quadrature.integral_names(n), acc)
            if z < 0.0 or k in quadrature.finite_at_threshold(n)}


# the band edge (tail), the 81 ladder points, and the far limit; each n
# adds its deepest admissible z, whose rows fill one chunk
_SUMMED_ZS = (0.0, *(-math.exp(u) for u in classify._LADDER),
              -1e-30, -0.37, -1e6, -2.0 ** 509)


def test_laplace_sums_equal_one_dot_per_row_bit_for_bit(monkeypatch):
    # one batched product of vectors must sum exactly as np.dot does; a
    # matrix-vector product or numpy's loop without BLAS rounds otherwise.
    # Each z is summed so whether its tables are fresh or were grown by
    # other calls first
    monkeypatch.setattr(quadrature, "_HEADS", {})
    monkeypatch.setattr(quadrature, "_PANELS", {})
    for grown in (False, True):
        for n in range(1, 7):
            deepest = quadrature._z_near(n)
            k0, k1 = quadrature._span(n, deepest)
            assert (k1 - k0) * quadrature._NODES > quadrature._CHUNK - quadrature._NODES
            if grown:  # the deepest and the farthest span, so slices start inside
                quadrature.laplace_integrals(n, deepest)
                quadrature.laplace_integrals(n, -2.0 ** 509)
            for z in (deepest, *_SUMMED_ZS):
                if not grown:
                    quadrature._HEADS.clear()
                    quadrature._PANELS.clear()
                got = {k: v.hex() for k, v in quadrature.laplace_integrals(n, z).items()}
                assert got == _rowwise_sums(n, z), (grown, n, z)


_DEEP = """
import math, sys, belowband as bb
from belowband import classify, green, quadrature
for n in (1, 2, 3, 4):
    for z in (-1e-300, -1e-200, -1e-100, quadrature._z_near(n), -1e-30, -1e-12,
              -0.37, -1e6, -math.exp(classify._LADDER[17])):
        g = bb.green_values(n, z)
        print(n, z, *(v.hex() for v in (g.a, g.b, g.c, g.d or 0.0, g.s, g.cd or 0.0)))
    g = bb.green_threshold(n)
    print(n, 0.0, *((v or 0.0).hex() for v in (g.a, g.b, g.s, g.cd)))
"""


def test_green_values_do_not_depend_on_blas_threads():
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out.append(subprocess.run([sys.executable, "-c", _DEEP], env=env, check=True,
                                  capture_output=True, text=True).stdout)
    assert out[0].count("\n") == 40
    assert out[0] == out[1]


_LADDER_VS_SCALAR = """
import json, math, random, sys
import belowband as bb
from belowband import classify, green
fields = ("z", "a", "b", "c", "d", "s", "cd")
hexes = lambda column: [float(v).hex() for v in column]
out = {}
for n in (1, 2, 3, 4):
    ladder = [-math.exp(u) for u in classify._LADDER]
    zs = list(ladder)
    if sys.argv[1] == "scalar-first":
        random.Random(n).shuffle(zs)
        scalar = {z: bb.green_values(n, z) for z in zs}
        table = bb.green_values(n, green._LADDER_Z)
    else:
        table = bb.green_values(n, green._LADDER_Z)
        scalar = {z: bb.green_values(n, z) for z in zs}
    out[n] = {
        "table": {k: getattr(table, k) is not None and hexes(getattr(table, k))
                  for k in fields},
        "scalar": {k: getattr(scalar[ladder[0]], k) is not None
                   and hexes(getattr(scalar[z], k) for z in ladder) for k in fields}}
print(json.dumps(out))
"""


def test_ladder_entries_equal_scalar_calls_whatever_ran_first():
    # every field of every ladder point, as the ladder's one call at 81 z
    # gives it (the committed table at these n), against the call at that
    # z alone, bit for bit, whichever ran first
    runs = {order: json.loads(subprocess.run(
        [sys.executable, "-c", _LADDER_VS_SCALAR, order], check=True,
        capture_output=True, text=True).stdout)
        for order in ("ladder-first", "scalar-first")}
    for n in ("1", "2", "3", "4"):
        first = runs["ladder-first"][n]
        assert len(first["scalar"]["z"]) == 81 and len(first["table"]["s"]) == 81
        # d and c - d do not exist at n = 1 (false), and are 81 values above
        assert (first["table"]["d"] is first["table"]["cd"] is False) == (n == "1")
        for doc in runs.values():
            assert doc[n]["table"] == doc[n]["scalar"] == first["scalar"], n


def test_tables_grown_in_any_order_equal_each_panel_alone(monkeypatch):
    # the deepest admissible span first, then the ladder backwards (each
    # call grows the panels below), then the band edge and a span past the
    # ladder, and the same calls shuffled: every kept entry must still be
    # its panel's Bessel rows, and no table may be written
    monkeypatch.setattr(quadrature, "_HEADS", {})
    monkeypatch.setattr(quadrature, "_PANELS", {})
    nodes = quadrature._NODES
    bits = lambda a: np.ascontiguousarray(a).tobytes()
    for n in range(1, 7):
        zs = [quadrature._z_near(n), *(-math.exp(u) for u in classify._LADDER[::-1]),
              0.0, -2.0 ** 100]
        for order in (zs, random.Random(n).sample(zs, len(zs))):
            quadrature._HEADS.clear()
            quadrature._PANELS.clear()
            for z in order:
                quadrature.laplace_integrals(n, z)
            lo, hi, t, table = quadrature._PANELS[n]
            assert t.size == table.shape[1] == (hi - lo) * nodes
            for k in range(lo, hi):
                tk, wk = quadrature._panel_nodes([2.0 ** k], [2.0 ** (k + 1)], nodes)
                cols = slice((k - lo) * nodes, (k - lo + 1) * nodes)
                assert bits(t[cols]) == bits(tk), (n, k)
                assert bits(table[:, cols]) == bits(
                    quadrature._weighted_integrands(n, tk, wk)), (n, k)
            heads = {k: v for (m, k), v in quadrature._HEADS.items() if m == n}
            assert len(heads) >= 40
            for k, (th, head) in heads.items():
                tk, wk = quadrature._panel_nodes([0.0], [2.0 ** k], nodes)
                assert bits(th) == bits(tk) and bits(head) == bits(
                    quadrature._weighted_integrands(n, tk, wk)), (n, k)
            for kept in (t, table, *heads[lo], quadrature._tail(n)):
                with pytest.raises(ValueError, match="read-only"):
                    kept[..., 0] = 0.0


def test_tables_of_the_ladders_span_equal_lazy_builds_at_each_z(monkeypatch):
    # the n = 1 heads and panels the import built in one pass, and an
    # n = 9 ladder's one-pass build, must hold byte for byte what a lazy
    # build of one z from empty tables holds, and sum the same values, at
    # seeded z across the ladder's span
    bits = lambda a: np.ascontiguousarray(a).tobytes()
    nodes = quadrature._NODES
    far, near = (float(z) for z in green._LADDER_Z[[0, -1]])
    rng = random.Random(49)
    zs = [far, near, *(-math.exp(rng.uniform(classify._LADDER[-1], classify._LADDER[0]))
                       for _ in range(12))]
    built = {1: (dict(quadrature._HEADS), quadrature._PANELS[1])}
    monkeypatch.setattr(quadrature, "_HEADS", {})
    monkeypatch.setattr(quadrature, "_PANELS", {})
    green._keep_ladder_span(9)
    built[9] = (quadrature._HEADS, quadrature._PANELS[9])
    for n, (heads, (lo, hi, t, table)) in built.items():
        (k_far, _), (k_near, k1) = quadrature._span(n, far), quadrature._span(n, near)
        assert {k for m, k in heads if m == n} >= set(range(k_far, k_near + 1))
        assert lo <= k_far and k1 <= hi
        for z in zs:
            monkeypatch.setattr(quadrature, "_HEADS", dict(heads))
            monkeypatch.setattr(quadrature, "_PANELS", {n: (lo, hi, t, table)})
            kept = quadrature.laplace_integrals(n, z)
            quadrature._HEADS.clear()
            quadrature._PANELS.clear()
            assert quadrature.laplace_integrals(n, z) == kept, (n, z)
            k0, k1 = quadrature._span(n, z)
            th, head = quadrature._HEADS[n, k0]
            assert bits(th) == bits(heads[n, k0][0]) and bits(head) == bits(heads[n, k0][1])
            lazy_lo, lazy_hi, lazy_t, lazy_table = quadrature._PANELS[n]
            assert (lazy_lo, lazy_hi) == (k0, k1)
            cols = slice((k0 - lo) * nodes, (k1 - lo) * nodes)
            assert bits(lazy_t) == bits(t[cols]), (n, z)
            assert bits(lazy_table) == bits(table[:, cols]), (n, z)


# ---------------------------------------------------------------------------
# Tensor-trapezoid reference engine
# ---------------------------------------------------------------------------

# float.hex of the engine's outputs, recorded when its sums were written out
# once per dimension; the folded-grid kernel must reproduce them bit for bit
_TRAPEZOID_HEX = {
    (1, -0.001, 64): {
        "a": "0x1.910ca04d35e88p+4",
        "b": "0x1.81734b784bb8ep+4",
        "c": "0x1.81d5f8586a849p+4",
        "s": "0x1.e6d4fe996c7e2p-1",
    },
    (1, -0.5, 64): {
        "a": "0x1.c9f25c5bfedd9p-1",
        "b": "0x1.5dd71513fc98cp-2",
        "c": "0x1.06614fcefd728p-1",
        "s": "0x1.8722191a02d62p-2",
    },
    (1, -7.0, 64): {
        "a": "0x1.02061446ffa99p-3",
        "b": "0x1.030a237fd4cdap-7",
        "c": "0x1.030a237fd4cd8p-4",
        "s": "0x1.0102050e2a85cp-4",
    },
    (2, -0.001, 32): {
        "a": "0x1.14b2853dfa94dp+1",
        "b": "0x1.a9abe01f17763p+0",
        "c": "0x1.ccd605669ada0p+0",
        "d": "0x1.86eeb3a468d49p+0",
        "s": "0x1.723c1455693e9p-2",
        "cd": "0x1.179d4708c815cp-2",
    },
    (2, -0.5, 32): {
        "a": "0x1.0425a429d5456p-1",
        "b": "0x1.14bc34d12a5aap-3",
        "c": "0x1.185b89f05d42ap-2",
        "d": "0x1.063ee0545eba8p-4",
        "s": "0x1.dfdf7cc69a900p-3",
        "cd": "0x1.ad97a3b68b282p-3",
    },
    (2, -7.0, 32): {
        "a": "0x1.cce4330887892p-4",
        "b": "0x1.a02e5a661e920p-8",
        "c": "0x1.ce5e5b3f531b6p-5",
        "d": "0x1.75729ce3d21a8p-11",
        "s": "0x1.cb6a0ad1bbf6ep-5",
        "cd": "0x1.c88890cbc3d2fp-5",
    },
    (3, -0.001, 16): {
        "a": "0x1.70fd4394b7369p-1",
        "b": "0x1.8ce42b37b221fp-2",
        "c": "0x1.05b6a763854d9p-1",
        "d": "0x1.4dd266c56d481p-2",
        "s": "0x1.ad1a70c4c7a40p-3",
        "cd": "0x1.7b35d0033aa6ap-3",
    },
    (3, -0.5, 16): {
        "a": "0x1.5d3b96c74f4f7p-2",
        "b": "0x1.086b6a4cc7729p-4",
        "c": "0x1.6baa0766c0daep-3",
        "d": "0x1.8c47ca7e70b54p-6",
        "s": "0x1.4ecd2627ddc3fp-3",
        "cd": "0x1.3a210e16f2c43p-3",
    },
    (3, -7.0, 16): {
        "a": "0x1.9ffcb0a004c6fp-4",
        "b": "0x1.54a4cc00fec78p-8",
        "c": "0x1.a116969e88740p-5",
        "d": "0x1.16ed0c56c0ab4p-11",
        "s": "0x1.9ee2caa18119ep-5",
        "cd": "0x1.9cbae26d2d714p-5",
    },
}
_THRESHOLD_HEX = {
    (1, 8): {"s": "0x1.0000000000000p+0"},
    (1, 16): {"s": "0x1.0000000000000p+0"},
    (2, 8): {"cd": "0x1.18a65d38a65d3p-2", "s": "0x1.73acd163acd16p-2"},
    (2, 16): {"cd": "0x1.17d87df525ff3p-2", "s": "0x1.7413c1056d007p-2"},
    (3, 8): {"cd": "0x1.7bb43a61244d3p-3", "s": "0x1.ad87d91492772p-3"},
    (3, 16): {"cd": "0x1.7b60198b6b78cp-3", "s": "0x1.adbfeef86304ep-3"},
}


def test_trapezoid_engine_is_pinned_bit_for_bit():
    for (n, z, m), want in _TRAPEZOID_HEX.items():
        got = trapezoid_integrals(n, z, m)
        assert {k: v.hex() for k, v in got.items()} == want, (n, z, m)
    for (n, m), want in _THRESHOLD_HEX.items():
        got = trapezoid_threshold(n, m)
        assert {k: v.hex() for k, v in got.items()} == want, (n, m)
