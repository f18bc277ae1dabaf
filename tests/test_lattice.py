"""Finite-lattice oracle: assembly, eigensolvers, agreement reports."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh
from scipy.sparse.linalg import spsolve

import belowband as bb
from belowband import lattice
from belowband.classify import DEFAULT_THETA
from conftest import open_region_points
from reference import chain_below, dense_block, dense_spectrum


def test_chain_l1_free_matrix():
    ham = bb.build_hamiltonian(1, 1, 0.0, 0.0)
    np.testing.assert_array_equal(
        ham.matrix.toarray(),
        [[1.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 1.0]])
    spec = dense_spectrum(ham, 3)
    expected = [1.0 - math.sqrt(2.0) / 2.0, 1.0, 1.0 + math.sqrt(2.0) / 2.0]
    assert np.allclose(spec.eigenvalues, expected, atol=1e-12)


def test_square_lattice_center_impurity_matrix():
    ham = bb.build_hamiltonian(2, 1, 0.0, 1.0)
    dense = ham.matrix.toarray()
    assert dense.shape == (9, 9)
    diag = np.diag(dense)
    assert diag[4] == 1.0  # center site: 2 - mu
    assert np.all(np.delete(diag, 4) == 2.0)
    assert np.array_equal(dense, dense.T)
    # each site couples to its in-box neighbors with -1/2
    assert dense[4, 1] == dense[4, 3] == dense[4, 5] == dense[4, 7] == -0.5


def test_neighbor_coupling_on_diagonal():
    ham = bb.build_hamiltonian(1, 2, 3.0, 0.5)
    diag = np.diag(ham.matrix.toarray())
    np.testing.assert_allclose(diag, [1.0, -0.5, 0.5, -0.5, 1.0])


def test_free_case_nonnegative_and_band_bottom():
    lows = []
    for L in (10, 20, 40):
        spec = dense_spectrum(bb.build_hamiltonian(1, L, 0.0, 0.0), 1)
        lows.append(spec.eigenvalues[0])
        assert spec.eigenvalues[0] >= 0.0
    assert lows[0] > lows[1] > lows[2]
    assert lows[-1] < 1e-2


def test_dense_and_iterative_paths_agree():
    # the dense reference (eigh per block) and the chain solve on blocks
    # of 435, 406 and 812 rows: the chain holds every value below 0
    ham = bb.build_hamiltonian(2, 28, 7.0, 8.0)
    dense = dense_spectrum(ham, 8)
    assert [lattice._structure(2, 28, o).shape[0]
            for o in lattice.ORIGINS] == [435, 406, 812]
    counts = {o: dense.count_below(0.0, o) // m
              for o, m in lattice._multiplicities(2).items()}
    assert counts == {"delta_r": 2, "delta_c": 1, "delta_s": 1}
    chain = bb.lowest_eigenvalues(ham, 0.0)
    assert len(chain.eigenvalues) == dense.count_below(0.0) == 5
    assert chain.origins == dense.origins[:5]
    np.testing.assert_allclose(chain.eigenvalues, dense.eigenvalues[:5],
                               rtol=0.0, atol=1e-12)


def test_size_budget_and_validation():
    with pytest.raises(ValueError, match=r"grid 3\*101\^3 = 3090903 exceeds"):
        bb.build_hamiltonian(3, 100, 0.0, 0.0)
    # 5 * 11^5 = 805255 grid coordinates fit, the 21^5 box does not
    ham = bb.build_hamiltonian(5, 10, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"box 21\^5 = 4084101 sites exceeds"):
        ham.matrix
    # n = 0 would build a 7-site chain, L = True the L = 1 box
    for n, L in ((1, 0), (0, 3), (-1, 3), (True, 3), (2.0, 3), (1, True),
                 (1, 2.5), (1, "3")):
        with pytest.raises(ValueError):
            bb.build_hamiltonian(n, L, 0.0, 0.0)
    assert bb.build_hamiltonian(np.int64(2), np.int64(3), 0.0, 0.0).dim == 49
    # a nan or infinite coupling would fail inside scipy, naming no input
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lam"):
            bb.build_hamiltonian(1, 3, bad, 0.0)
        with pytest.raises(ValueError, match="mu"):
            bb.build_hamiltonian(1, 3, 0.0, bad)


def test_theta_must_be_finite_and_at_most_zero():
    # above 0 a chain's values are not its block's; nan and -inf bound
    # nothing
    ham = bb.build_hamiltonian(2, 12, 7.0, 8.0)
    for theta in (1e-300, 0.5, math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="theta"):
            bb.lowest_eigenvalues(ham, theta)
    assert bb.lowest_eigenvalues(ham, 0.0) == bb.lowest_eigenvalues(ham, -0.0)
    assert bb.lowest_eigenvalues(ham, -1e3).eigenvalues == ()


@pytest.mark.parametrize("n,L,lam,mu", [(1, 30, 2.0, 2.0), (2, 8, 7.0, 8.0),
                                        (3, 5, 9.0, 9.0)])
def test_count_per_block_matches_the_merged_form(n, L, lam, mu):
    ham = bb.build_hamiltonian(n, L, lam, mu)
    full = dense_spectrum(ham)
    below = [(e, o) for e, o in zip(full.eigenvalues, full.origins) if e < 0.0]
    mult = lattice._multiplicities(n)
    counts = {o: sum(1 for _, p in below if p == o) // m
              for o, m in mult.items()}
    assert all(c >= 1 for c in counts.values())   # every block has a state
    # at 0 and between the values below it, the solve keeps exactly the
    # dense values below theta
    values = [e for e, _ in below]
    for theta in [0.0] + [(a + b) / 2 for a, b in zip(values, values[1:]) if a < b]:
        spec = bb.lowest_eigenvalues(ham, theta)
        kept = [(e, o) for e, o in below if e < theta]
        assert spec.origins == tuple(o for _, o in kept), theta
        np.testing.assert_allclose(spec.eigenvalues, [e for e, _ in kept],
                                   rtol=0.0, atol=1e-12)


def _kronsum_box(n, L, lam, mu):
    """The whole box as a sum of chains, one per axis, minus the potential."""
    m = 2 * L + 1
    chain = sparse.diags([-0.5, 1.0, -0.5], [-1, 0, 1], shape=(m, m), format="csr")
    h = chain
    for _ in range(n - 1):
        h = sparse.kronsum(chain, h, format="csr")
    v = np.zeros((m,) * n)
    v[(L,) * n] = mu
    for axis in range(n):
        for x in (L - 1, L + 1):
            v[(L,) * axis + (x,) + (L,) * (n - 1 - axis)] = lam / 2.0
    h.setdiag(h.diagonal() - v.ravel())
    return h


@pytest.mark.parametrize("n,L,lam,mu", [(1, 4, 3.0, 0.5), (2, 3, 7.0, 8.0),
                                        (3, 2, -1.5, 2.0), (4, 1, 5.0, 1.0)])
def test_box_matrix_is_the_kronsum_assembly(n, L, lam, mu):
    ham = bb.build_hamiltonian(n, L, lam, mu)
    assert "matrix" not in vars(ham)   # nothing assembled until read
    got, want = ham.matrix, _kronsum_box(n, L, lam, mu)
    assert ham.dim == got.shape[0] == (2 * L + 1) ** n
    for field in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert ham.matrix is got


def _orbits(n, L, origin):
    """The mixed radix of the row keys, the whole grid's orbit
    representatives and signs, and the block's representatives in row
    order, on every call."""
    radix = (L + 1) ** np.arange(n - 1, -1, -1)
    grid = np.indices((L + 1,) * n).reshape(n, -1).T
    canon, sign = lattice._canonical(grid, origin)
    return radix, canon, sign, grid[(sign > 0) & (canon @ radix == grid @ radix)]


def _assembled_block(n, L, lam, mu, origin):
    """One factor block assembled whole, couplings included, on every call."""
    radix, canon, sign, reps = _orbits(n, L, origin)
    keys = reps @ radix
    dim = len(reps)
    size = np.bincount(np.searchsorted(keys, canon[sign != 0] @ radix),
                       minlength=dim) * 2.0 ** np.count_nonzero(reps, axis=1)
    steps = np.vstack([np.eye(n, dtype=int), -np.eye(n, dtype=int)])
    hops = (reps + steps[:, None]).reshape(-1, n)
    target, s = lattice._canonical(hops, origin)
    ok = (np.abs(hops).max(axis=1) <= L) & (s != 0)
    a = np.tile(np.arange(dim), 2 * n)[ok]
    b = np.searchsorted(keys, target[ok] @ radix)
    level = reps.sum(axis=1)
    diag = n - np.where(level == 0, mu, np.where(level == 1, lam / 2.0, 0.0))
    return sparse.csr_matrix((-0.5 * s[ok] * np.sqrt(size[a] / size[b]), (a, b)),
                             shape=(dim, dim)) + sparse.diags(diag, format="csr")


def _refuse(*args, **kwargs):
    raise AssertionError("orbit basis or chain rebuilt")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), data=st.data(),
       couplings=st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
                          min_size=1, max_size=3))
def test_kept_block_structure_is_exact(n, data, couplings):
    L = data.draw(st.integers(1, {1: 40, 2: 12, 3: 6, 4: 3}[n]), label="L")
    origin = data.draw(st.sampled_from(list(lattice._multiplicities(n))),
                       label="origin")
    # the block the dense reference solves, with several couplings
    for lam, mu in couplings:
        got = dense_block(bb.build_hamiltonian(n, L, lam, mu), origin)
        want = _assembled_block(n, L, lam, mu, origin).toarray()
        np.testing.assert_array_equal(got, want, strict=True)


def test_the_head_rows_lead_every_block():
    # the rows of level <= 1, which alone carry the couplings, are the
    # first k rows of the block in the assembly's row order: delta_r's
    # origin, then the one row of unit sites; _lanczos and _below read the
    # couplings' rows there
    for n, L in itertools.product(range(1, 5), range(1, 9)):
        for origin in lattice._multiplicities(n):
            level = _orbits(n, L, origin)[-1].sum(axis=1)
            k = 1 + (origin == "delta_r")
            assert level[:k].tolist() == [0, 1][2 - k:], (n, L, origin)
            assert np.all(level[k:] >= 2), (n, L, origin)


def test_solves_do_not_depend_on_earlier_couplings():
    # (1, 700): blocks of 701 and 700 rows; every block of both couplings
    # has a value below 0
    for n, L in ((1, 60), (1, 700), (2, 12), (2, 24), (3, 10)):
        first, other = bb.build_hamiltonian(n, L, 7.0, 8.0), \
            bb.build_hamiltonian(n, L, 9.0, 3.0)
        before = bb.lowest_eigenvalues(first, DEFAULT_THETA)
        after = bb.lowest_eigenvalues(other, DEFAULT_THETA)
        assert set(before.origins) == set(after.origins) \
            == set(lattice._multiplicities(n)), (n, L)
        assert after != before, (n, L)
        assert bb.lowest_eigenvalues(first, DEFAULT_THETA) == before, (n, L)


def test_kept_block_structure_refuses_writes():
    for array in lattice._kept_block(2, 5, "delta_c"):
        with pytest.raises(ValueError):
            array[0] = 7


def test_compare_reuses_the_kept_blocks(monkeypatch):
    first = bb.compare(bb.ModelParams(3, 5.0, 1.0), [10, 12])
    assert first.counts_agree

    monkeypatch.setattr(lattice, "_structure", _refuse)
    rep = bb.compare(bb.ModelParams(3, 7.0, 4.0), [10, 12])
    assert rep.predicted_factor_counts != first.predicted_factor_counts
    assert all(rep.agrees_at(L) for L in (10, 12))


def test_compare_past_the_whole_box_budget():
    # cell D10 of n = 5: the solve builds a grid of 5 * 11^5 coordinates,
    # within the budget, while reading the 21^5 box is refused
    # (test_size_budget_and_validation)
    params = bb.ModelParams(5, 10.68277618822024, 1.0)
    rep = bb.compare(params, [8, 10])
    assert rep.counts_agree and rep.predicted_count == 10
    assert rep.predicted_factor_counts == {"delta_r": 1, "delta_c": 4,
                                           "delta_s": 5}
    assert max(rep.matched_errors[10]) < 1e-12


def test_compare_checks_every_radius_before_any_solve(monkeypatch):
    # a valid radius ahead of an over-budget one, a non-integer or none at
    # all: the ValueError comes before the classifier or a solve runs
    def refuse(*args, **kwargs):
        raise AssertionError("solved before every radius was checked")
    monkeypatch.setattr(lattice, "negative_eigenvalues", refuse)
    monkeypatch.setattr(lattice, "lowest_eigenvalues", refuse)
    params = bb.ModelParams(3, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^grid 3\*101\^3 = 3090903 exceeds the "
                                         r"budget 2000000$"):
        bb.compare(params, [50, 100])
    for bad in (2.5, 0, True):
        with pytest.raises(ValueError, match=rf"^box radius must be an integer >= 1, "
                                             rf"got {bad!r}$"):
            bb.compare(params, [8, bad])
    with pytest.raises(ValueError, match="need at least one box radius"):
        bb.compare(params, iter([]))


@pytest.mark.parametrize("n,L,lam,mu,factors", [
    (2, 12, 7.0, 8.0, {"delta_r": 2, "delta_c": 1, "delta_s": 2}),
    (3, 10, 5.0, 1.0, {"delta_r": 1, "delta_c": 0, "delta_s": 3}),
])
def test_compare_never_assembles_the_box(monkeypatch, n, L, lam, mu, factors):
    def refuse(*args, **kwargs):
        raise AssertionError("whole-box assembly")
    monkeypatch.setattr(lattice.sparse, "kronsum", refuse)
    rep = bb.compare(bb.ModelParams(n, lam, mu), [L])
    assert rep.counts_agree
    assert rep.predicted_factor_counts == rep.oracle_factor_counts[L] == factors


def _spy_solves(monkeypatch) -> list[tuple[int, str, float, int]]:
    """Record (L, origin, theta, values found) of every stebz call."""
    calls, real = [], lattice._below

    def spy(ham, origin, theta):
        values = real(ham, origin, theta)
        calls.append((ham.L, origin, theta, len(values)))
        return values
    monkeypatch.setattr(lattice, "_below", spy)
    return calls


@pytest.mark.parametrize("n,lam,mu,radii", [
    (1, 2.0, 2.0, [40, 60]), (2, 7.0, 8.0, [12, 16]), (3, 5.0, 1.0, [10, 12]),
])
def test_compare_reads_each_block_once_per_radius(monkeypatch, n, lam, mu, radii):
    # one stebz call per block and radius, at theta, whether the block has
    # a value below theta or not (no delta_c value at (3, 5, 1)); the
    # per-factor counts are what those calls found
    calls = _spy_solves(monkeypatch)
    rep = bb.compare(bb.ModelParams(n, lam, mu), radii)
    assert rep.counts_agree
    mult = lattice._multiplicities(n)
    assert [c[:3] for c in calls] == [(L, o, DEFAULT_THETA)
                                      for L in radii for o in mult]
    for L in radii:
        assert {o: k * mult[o] for L_, o, _, k in calls if L_ == L} \
            == {o: rep.oracle_factor_counts[L][o] for o in mult}


# couplings and the full count per factor at L = 12
_UNPREDICTED = {2: (7.0, 8.0, {"delta_r": 2, "delta_c": 1, "delta_s": 2}),
                3: (7.0, 1.0, {"delta_r": 1, "delta_c": 2, "delta_s": 3})}


@pytest.mark.parametrize("n,origin", [
    pytest.param(2, "delta_r", id="delta_r"),
    pytest.param(2, "delta_c", id="delta_c"),
    pytest.param(2, "delta_s", id="delta_s"),
    pytest.param(3, "delta_r", id="n3-delta_r"),
    pytest.param(3, "delta_c", id="n3-delta_c"),
    pytest.param(3, "delta_s", id="n3-delta_s"),
])
def test_compare_sees_an_unpredicted_state(monkeypatch, n, origin):
    # hiding one root of a factor from the classifier changes nothing the
    # oracle asks: every block, that of the hidden root included, is asked
    # for its full count below theta, so the oracle counts more than
    # predicted
    lam, mu, full = _UNPREDICTED[n]
    params = bb.ModelParams(n, lam, mu)
    records = bb.negative_eigenvalues(params)
    dropped = next(r for r in records if r.origin == origin)
    monkeypatch.setattr(lattice, "negative_eigenvalues",
                        lambda *a, **k: [r for r in records if r is not dropped])
    calls = _spy_solves(monkeypatch)
    rep = bb.compare(params, [12])
    assert rep.oracle_factor_counts[12] == full
    assert rep.predicted_factor_counts[origin] == full[origin] - dropped.multiplicity
    assert not rep.agrees_at(12) and not rep.counts_agree
    mult = lattice._multiplicities(n)
    assert calls == [(12, o, DEFAULT_THETA, c // mult[o]) for o, c in full.items()]


def test_certified_blocks_are_not_solved(monkeypatch):
    # D0: no root, so the one stebz call on each block's chain finds no
    # value below theta, at n = 3, L = 20 (blocks of 1771, 4410 and 4620
    # rows) too; one lowest_eigenvalues call per radius, at theta
    solves, asked = _spy_solves(monkeypatch), []
    real = lattice.lowest_eigenvalues

    def spy(ham, theta):
        asked.append((ham.L, theta))
        return real(ham, theta)
    monkeypatch.setattr(lattice, "lowest_eigenvalues", spy)
    for n, radii in ((2, [12, 16]), (3, [20])):
        rep = bb.compare(bb.ModelParams(n, -1.0, -1.0), radii)
        assert rep.counts_agree and rep.oracle_counts == dict.fromkeys(radii, 0)
    assert asked == [(12, DEFAULT_THETA), (16, DEFAULT_THETA), (20, DEFAULT_THETA)]
    assert [k for *_, k in solves] == [0] * 9
    # (5, 1) at n = 3 has no delta_c root: that block alone finds none
    solves.clear()
    rep = bb.compare(bb.ModelParams(3, 5.0, 1.0), [10, 12])
    assert rep.counts_agree and rep.predicted_factor_counts["delta_c"] == 0
    assert asked[3:] == [(10, DEFAULT_THETA), (12, DEFAULT_THETA)]
    assert [(L, o, k) for L, o, _, k in solves] == [
        (L, o, k) for L in (10, 12)
        for o, k in (("delta_r", 1), ("delta_c", 0), ("delta_s", 1))]


# the oracle workload's radii, L = 1 (blocks of 2 and 1 rows, whose chains
# have no row of level >= 2) and n = 1, L = 625 (626 and 625 rows, whose
# chains run through every row)
_CHAIN_RADII = {1: (1, 40, 60, 625), 2: (1, 12, 16, 24), 3: (1, 10, 12),
                4: (1, 2, 3)}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), data=st.data(), wide=st.booleans())
def test_the_certificate_matches_the_solve(n, data, wide):
    # the values of every block below theta, read off its chain, against
    # dense eigvalsh of the assembled block: the count exactly, each value
    # to 1e-12 of the block's norm
    if wide:
        lam, mu = (data.draw(st.floats(-1e6, 1e6), label=name)
                   for name in ("lam", "mu"))
    else:
        _, (lam, mu) = data.draw(st.sampled_from(open_region_points(n)),
                                 label="cell")
        lam += data.draw(st.floats(-0.5, 0.5), label="dlam")
        mu += data.draw(st.floats(-0.5, 0.5), label="dmu")
    for L, origin in itertools.product(_CHAIN_RADII[n],
                                       lattice._multiplicities(n)):
        ham = bb.build_hamiltonian(n, L, lam, mu)
        block = _assembled_block(n, L, lam, mu, origin).toarray()
        values = np.linalg.eigvalsh(block)
        atol = 1e-12 * max(1.0, np.abs(block).sum(axis=1).max())
        for theta in (-1e-3, -0.5, -1e-6):
            got = lattice._below(ham, origin, theta)
            want = values[values < theta]
            assert len(got) == len(want), (L, origin, theta)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=atol,
                                       err_msg=f"L={L} {origin} {theta}")


# the oracle workload's radii (perfbench.inputs.ORACLE_LADDERS)
_ORACLE_RADII = {1: (40, 60), 2: (12, 16, 24), 3: (10, 12)}


def test_the_block_solve_is_scipys_bit_for_bit():
    # the direct stebz call against scipy's eigvalsh_tridiagonal on the
    # same chain, at every block of the oracle workload's radii and at the
    # 1-row chain (n = 1, L = 1, delta_s), at an interior point of every
    # open cell: bit for bit at three theta and at theta equal to each of
    # the block's own values below -1e-3.  A bisected value is the
    # eigenvalue only to a few ulps, so whether it counts at theta equal to
    # itself follows the Sturm count; the 1-row chain's value is exact and
    # is not counted there
    hexes = lambda values: [float(x).hex() for x in values]
    cases = [(n, L) for n, radii in _ORACLE_RADII.items() for L in radii]
    own = 0
    for n, L in cases + [(1, 1)]:
        for _cell, (lam, mu) in open_region_points(n):
            ham = bb.build_hamiltonian(n, L, lam, mu)
            for origin in lattice._multiplicities(n):
                for theta in (-1e-3, -0.5, -1e-6):
                    got = lattice._below(ham, origin, theta)
                    want = chain_below(ham, origin, theta)
                    assert got.dtype == want.dtype and hexes(got) == hexes(want), \
                        (n, L, lam, mu, origin, theta)
                for value in chain_below(ham, origin, -1e-3).tolist():
                    got = lattice._below(ham, origin, value)
                    assert hexes(got) == hexes(chain_below(ham, origin, value))
                    own += 1
    assert own >= 90
    one_row = lattice._kept_block(1, 1, "delta_s")[0]
    assert len(one_row) == 1
    ham = bb.build_hamiltonian(1, 1, 3.0, 3.0)    # its value is 1 - 3/2
    assert lattice._below(ham, "delta_s", -1e-3).tolist() == [-0.5]
    assert lattice._below(ham, "delta_s", -0.5).tolist() == []
    assert chain_below(ham, "delta_s", -0.5).tolist() == []


def _continued_fraction(diag, beta, head: int, theta: float) -> float:
    """g = |b|^2 e_1^T (T - theta I)^-1 e_1 over a chain's rows past head."""
    if len(diag) == head:
        return 0.0
    t = diag[-1] - theta
    for a, b in zip(diag[-2:head - 1:-1], beta[-1:head - 1:-1]):
        t = a - theta - b * b / t
    return beta[head - 1] ** 2 / t


@pytest.mark.parametrize("n,L", [(1, 1), (1, 40), (2, 1), (2, 12), (3, 8),
                                 (1, 625), (2, 24), (3, 12), (3, 20), (4, 3)])
def test_the_tail_is_the_schur_term(n, L):
    # g = b^T (Q - theta I)^-1 b, with Q the block on levels >= 2 and b the
    # hops into them from the level-1 row: Gauss quadrature on the chain
    # against a sparse LU solve
    for origin in lattice._multiplicities(n):
        diag, beta = lattice._kept_block(n, L, origin)
        off = lattice._structure(n, L, origin)
        rows = _orbits(n, L, origin)[-1].sum(axis=1)
        head = int(np.sum(rows <= 1))
        deep, one = rows >= 2, np.flatnonzero(rows == 1)
        assert len(one) == 1
        b, q = off[one[0]].toarray().ravel()[deep], off[deep][:, deep]
        assert (len(diag) == head) == (len(b) == 0)
        for theta in (-1e-3, -0.5, -1e-6):
            shifted = (q + (n - theta) * sparse.identity(len(b))).tocsc()
            want = b @ spsolve(shifted, b) if len(b) else 0.0
            got = _continued_fraction(diag, beta, head, theta)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (origin, theta)


def _assert_no_entry_kept(args):
    """A later build of args misses the cache: the failed one kept nothing."""
    misses = lattice._kept_block.cache_info().misses
    lattice._kept_block(*args)
    assert lattice._kept_block.cache_info().misses == misses + 1


def test_an_unconverged_tail_is_an_error(monkeypatch):
    # a block no other test meets, so nothing is kept for it
    monkeypatch.setattr(lattice, "_CHAIN_RTOL", 0.0)
    with pytest.raises(lattice.SolverError,
                       match=r"delta_s at n=2, L=9 did not reach .* 89 steps"):
        lattice._kept_block(2, 9, "delta_s")
    monkeypatch.undo()
    _assert_no_entry_kept((2, 9, "delta_s"))


def test_a_non_positive_pivot_is_an_error(monkeypatch):
    # hops ten times too strong make Q indefinite
    real = lattice._structure

    def strong(n, L, origin):
        return 10.0 * real(n, L, origin)
    monkeypatch.setattr(lattice, "_structure", strong)
    with pytest.raises(lattice.SolverError,
                       match=r"delta_r at n=2, L=17: pivot .* <= 0 at step 2"):
        lattice._kept_block(2, 17, "delta_r")
    monkeypatch.undo()
    _assert_no_entry_kept((2, 17, "delta_r"))


def test_the_n1_chain_is_written_from_its_formula(monkeypatch):
    # at n = 1 the Lanczos recurrence reproduces the tridiagonal block:
    # alphas 1.0, betas 1/2 past the head, and a chain that runs to the last
    # row; the chain kept for every radius is written from the formula,
    # with no orbit basis, and equals it bit for bit
    want = {(L, origin): lattice._lanczos(1, L, origin)
            for L in range(1, 201) for origin in ("delta_r", "delta_s")}
    monkeypatch.setattr(lattice, "_structure", _refuse)
    for (L, origin), chain in want.items():
        kept = lattice._kept_block.__wrapped__(1, L, origin)   # not cached
        assert len(kept) == len(chain) == 2
        for got, expected in zip(kept, chain):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (L, origin)


def test_the_n1_chain_is_built_in_linear_time(monkeypatch):
    # the recurrence took about 4.5 s at L = 20 000 (O(L^2)); the formula
    # writes the chain at the budget's largest n = 1 radius, 2 000 000
    # rows, with no grid, in about 10 ms on a 2-vCPU host
    monkeypatch.setattr(lattice, "_structure", _refuse)
    start = time.perf_counter()
    diag, beta = lattice._kept_block.__wrapped__(1, 1_999_999, "delta_r")
    assert time.perf_counter() - start < 1.0
    assert len(diag) == 2_000_000 and np.all(diag == 1.0)
    assert beta[0] == math.sqrt(0.5) and np.all(beta[1:] == 0.5)


def test_both_row_orders_are_kept_together(monkeypatch):
    # a block met only by its count keeps its chain for a later solve
    # while 63 other blocks pass through the cache
    ham = bb.build_hamiltonian(3, 12, -1.0, -1.0)
    for L in range(1, 2 * lattice._KEPT_BLOCKS):
        lattice._kept_block(1, L, "delta_r")
        assert len(lattice._below(ham, "delta_c", -1e-3)) == 0

    monkeypatch.setattr(lattice, "_structure", _refuse)
    bound = lattice._below(bb.build_hamiltonian(3, 12, 7.0, 1.0), "delta_c",
                           -1e-3)
    assert len(bound) == 1 and bound[0] < -1e-3
    assert len(lattice._kept_block(3, 12, "delta_c")[0]) < 1014


def test_the_certificate_leaves_every_report_unchanged():
    # one interior point of every open cell, at the oracle workload's
    # radii: the chains give every report a dense solve of each assembled
    # block gives
    ladders = {1: (40, 60), 2: (12, 16, 24), 3: (10, 12)}
    theta = DEFAULT_THETA
    for n, ladder in ladders.items():
        mult = lattice._multiplicities(n)
        for _, (lam, mu) in open_region_points(n):
            rep = bb.compare(bb.ModelParams(n, lam, mu), ladder)
            assert rep.counts_agree, (n, lam, mu)
            for L in ladder:
                below = {o: eigh(_assembled_block(n, L, lam, mu, o).toarray(),
                                 eigvals_only=True,
                                 subset_by_value=[-np.inf, theta])
                         for o in mult}
                assert rep.oracle_factor_counts[L] == {
                    o: len(below.get(o, ())) * mult.get(o, 0)
                    for o in lattice.ORIGINS}, (n, lam, mu, L)
                merged = sorted(e for o, v in below.items() for e in v
                                for _ in range(mult[o]))
                errors = [abs(e - z) for e, z in zip(merged, rep.predicted)]
                np.testing.assert_allclose(rep.matched_errors[L], errors,
                                           rtol=0.0, atol=1e-12,
                                           err_msg=f"n={n} ({lam}, {mu}) L={L}")


def test_parity_attribution():
    spec = dense_spectrum(bb.build_hamiltonian(1, 30, 2.0, 0.0), 2)
    # ground state of the neighbor-impurity chain is even, first excited odd
    assert spec.origins == ("delta_r", "delta_s")
    spec = dense_spectrum(bb.build_hamiltonian(3, 10, 5.0, 1.0), 4)
    assert spec.origins == ("delta_r",) + ("delta_s",) * 3


def _factor_of_eigenspace(ham, q: np.ndarray) -> str:
    """Factor of an eigenspace, from its dimension and group characters.

    With P_R the reflection of axis 1 and P_S the swap of axes 1 and 2,
    (dim, tr P_R, tr P_S) is (1, 1, 1) for delta_r, (n-1, n-1, n-3) for
    delta_c and (n, n-2, n-2) for delta_s; n = 1 has no swap.
    """
    n, m = ham.n, 2 * ham.L + 1
    cube = q.T.reshape((-1,) + (m,) * n)
    chars = [q.shape[1], round(float(np.sum(cube * np.flip(cube, axis=1))))]
    if n >= 2:
        chars.append(round(float(np.sum(cube * np.swapaxes(cube, 1, 2)))))
    table = {"delta_r": (1, 1, 1), "delta_c": (n - 1, n - 1, n - 3),
             "delta_s": (n, n - 2, n - 2)}
    found = [o for o, t in table.items() if list(t[:len(chars)]) == chars]
    assert len(found) == 1, chars
    return found[0]


def _negative_spectrum(ham) -> list[tuple[float, str]]:
    """(value, factor) of every eigenvalue below 0 of the whole box."""
    values, vectors = np.linalg.eigh(ham.matrix.toarray())
    out, i = [], 0
    while i < len(values) and values[i] < 0.0:
        j = i + 1
        while j < len(values) and values[j] - values[j - 1] < 1e-9:
            j += 1
        origin = _factor_of_eigenspace(ham, vectors[:, i:j])
        out.extend((float(v), origin) for v in values[i:j])
        i = j
    return out


# (1, 700): blocks of 701 and 700 rows, asked for whole
@pytest.mark.parametrize("n,L", [(2, 3), (3, 2), (4, 2), (1, 700)])
def test_sectors_merge_to_the_full_spectrum(n, L):
    # strong couplings: every factor has a bound state in the box
    lam, mu = np.random.default_rng(n).uniform(6.0, 12.0, size=2)
    ham = bb.build_hamiltonian(n, L, float(lam), float(mu))
    spec = dense_spectrum(ham)
    expected = _negative_spectrum(ham)
    factors = {"delta_r", "delta_s"} | ({"delta_c"} if n > 1 else set())
    assert {o for _, o in expected} == factors
    got = [(e, o) for e, o in zip(spec.eigenvalues, spec.origins) if e < 0.0]
    assert [o for _, o in got] == [o for _, o in expected]
    np.testing.assert_allclose([e for e, _ in got], [e for e, _ in expected],
                               rtol=0.0, atol=1e-12)
    if n == 1:   # the even and odd blocks hold the complete spectrum
        full = np.linalg.eigvalsh(ham.matrix.toarray())
        np.testing.assert_allclose(spec.eigenvalues, full, rtol=0.0, atol=1e-12)
        assert spec.origins.count("delta_r") == L + 1
        assert spec.origins.count("delta_s") == L


def test_sector_counts_match_determinant_factors():
    theta = -1e-3
    ladders = {1: (40, 60), 2: (12, 16), 3: (10, 12), 4: (6, 8)}
    for n, ladder in ladders.items():
        for cell, (lam, mu) in open_region_points(n):
            records = bb.negative_eigenvalues(bb.ModelParams(n, lam, mu), tol=0.0)
            expected = [sum(r.multiplicity for r in records
                            if r.z < theta and r.origin == o)
                        for o in lattice.ORIGINS]
            for L in ladder:
                spec = bb.lowest_eigenvalues(
                    bb.build_hamiltonian(n, L, lam, mu), theta)
                assert [spec.count_below(theta, o) for o in lattice.ORIGINS] \
                    == expected, (n, cell, L)
                assert len(spec.eigenvalues) == sum(expected), (n, cell, L)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), data=st.data(),
       lam=st.floats(-4.0, 12.0, allow_nan=False),
       mu=st.floats(-4.0, 12.0, allow_nan=False))
def test_factor_blocks_hold_the_negative_spectrum(n, data, lam, mu):
    L = data.draw(st.integers(1, {1: 12, 2: 6, 3: 3, 4: 2}[n]), label="L")
    ham = bb.build_hamiltonian(n, L, lam, mu)
    full = np.linalg.eigvalsh(ham.matrix.toarray())
    spec = dense_spectrum(ham)
    got = [e for e in spec.eigenvalues if e < 0.0]
    assert len(got) == int(np.sum(full < 0.0))
    np.testing.assert_allclose(got, full[full < 0.0], rtol=0.0, atol=1e-12)


_D5_N4 = """
import belowband as bb
from reference import dense_spectrum
params = bb.ModelParams(4, 7.038375332869773, 1.0)
spec = dense_spectrum(bb.build_hamiltonian(4, 6, params.lam, params.mu), 9)
print(bb.compare(params, [6]).oracle_counts[6], *map(repr, spec.eigenvalues))
"""


def test_multiplets_do_not_depend_on_blas_threads():
    # cell D5 of n = 4: one delta_r state and the four-fold delta_s level
    # -0.082839, whose copies a whole-box Lanczos solve with one BLAS thread
    # found only three times
    src = os.path.dirname(os.path.dirname(bb.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, here, os.environ.get("PYTHONPATH")])))
    single = subprocess.run([sys.executable, "-c", _D5_N4], env=env,
                            capture_output=True, text=True, check=True).stdout
    count, *values = single.split()
    params = bb.ModelParams(4, 7.038375332869773, 1.0)
    spec = dense_spectrum(bb.build_hamiltonian(4, 6, params.lam, params.mu), 9)
    assert int(count) == bb.compare(params, [6]).oracle_counts[6] == 5
    assert spec.count_below(-1e-3) == 5
    np.testing.assert_allclose([float(v) for v in values], spec.eigenvalues,
                               rtol=0.0, atol=1e-12)


def test_cubic_triplets_against_dense_reference():
    # dense reference on all 9261 rows (about 35 s, 0.7 GB):
    # python -c "import belowband as bb, scipy.linalg as sl; print(sl.eigh(
    #   bb.build_hamiltonian(3, 10, 5.0, 1.0).matrix.toarray(),
    #   eigvals_only=True, subset_by_index=[0, 7]))"
    spec = dense_spectrum(bb.build_hamiltonian(3, 10, 5.0, 1.0), 8)
    reference = [-0.784450726] + [-0.07239628] * 3 + [0.038372388] \
        + [0.063992178] * 3
    np.testing.assert_allclose(spec.eigenvalues, reference, rtol=0.0, atol=1e-8)


def test_compare_chain_ground_state():
    rep = bb.compare(bb.ModelParams(1, 0.0, 1.0), [50, 100, 200])
    assert rep.counts_agree and rep.predicted_count == 1
    errs = [rep.matched_errors[L][0] for L in (50, 100, 200)]
    assert all(e <= 1e-6 for e in errs)
    assert rep.predicted[0] == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-10)


def test_compare_square_lattice_single_state():
    rep = bb.compare(bb.ModelParams(2, 0.0, 3.0), [10, 20, 30])
    assert rep.counts_agree and rep.predicted_count == 1
    errs = [max(rep.matched_errors[L]) for L in (10, 20, 30)]
    assert errs[0] >= errs[-1]  # monotone improvement along the ladder


def test_compare_monotone_improvement_weakly_bound():
    # shallower state: the exponential ladder convergence is visible
    rep = bb.compare(bb.ModelParams(2, 0.0, 1.0), [10, 16, 24])
    assert rep.counts_agree and rep.predicted_count == 1
    errs = [rep.matched_errors[L][0] for L in (10, 16, 24)]
    assert errs[0] > errs[1] > errs[2]


def test_chain_odd_state_at_large_box():
    # lam = 2: two bound states below -1e-3, the odd one at exactly -1/4
    spec = dense_spectrum(bb.build_hamiltonian(1, 500, 2.0, 0.0), 3)
    assert spec.count_below(-1e-3) == 2
    assert min(abs(e + 0.25) for e in spec.eigenvalues) <= 1e-6


def test_compare_checks_every_factor():
    # two delta_r, one delta_c and two delta_s states below -1e-3
    rep = bb.compare(bb.ModelParams(2, 7.0, 8.0), [12])
    counts = {"delta_r": 2, "delta_c": 1, "delta_s": 2}
    assert rep.predicted_factor_counts == rep.oracle_factor_counts[12] == counts
    assert rep.counts_agree and rep.predicted_count == rep.oracle_counts[12] == 5
    # the same total split differently across the factors is a disagreement
    swapped = dataclasses.replace(rep, oracle_factor_counts={
        12: {"delta_r": 2, "delta_c": 2, "delta_s": 1}})
    assert not swapped.counts_agree and not swapped.agrees_at(12)


def test_compare_free_case_empty():
    rep = bb.compare(bb.ModelParams(2, 0.0, 0.0), [6, 10])
    assert rep.predicted_count == 0
    assert all(c == 0 for c in rep.oracle_counts.values())


def test_compare_requires_negative_theta():
    # nan and -inf would count nothing on either side and pass vacuously
    for theta in (0.0, math.nan, -math.inf):
        with pytest.raises(ValueError):
            bb.compare(bb.ModelParams(1, 0.0, 1.0), [10], theta=theta)
    # no radius would pass vacuously; 10.9 and True would solve L = 10 and 1
    for radii in ([], [10.9], [True], [0], [10, -2], ["10"]):
        with pytest.raises(ValueError):
            bb.compare(bb.ModelParams(1, 0.0, 1.0), radii)
    assert bb.compare(bb.ModelParams(1, 0.0, 1.0), [np.int64(10)]).counts_agree
