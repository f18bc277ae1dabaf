"""Finite-lattice oracle: assembly, eigensolvers, agreement reports."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

import belowband as bb
from belowband import lattice
from conftest import open_region_points


def test_chain_l1_free_matrix():
    ham = bb.build_hamiltonian(1, 1, 0.0, 0.0)
    np.testing.assert_array_equal(
        ham.matrix.toarray(),
        [[1.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 1.0]])
    spec = bb.lowest_eigenvalues(ham, 3)
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
        spec = bb.lowest_eigenvalues(bb.build_hamiltonian(1, L, 0.0, 0.0), 1)
        lows.append(spec.eigenvalues[0])
        assert spec.eigenvalues[0] >= 0.0
    assert lows[0] > lows[1] > lows[2]
    assert lows[-1] < 1e-2


def test_dense_and_iterative_paths_agree():
    ham = bb.build_hamiltonian(2, 35, 0.0, 3.0)
    blocks = [(o, lattice._factor_block(2, 35, 0.0, 3.0, o))
              for o in lattice.ORIGINS]
    # the three factor blocks (666, 630 and 1260 rows) are solved by Lanczos
    assert [b.shape[0] for _, b in blocks] == [666, 630, 1260]
    assert min(b.shape[0] for _, b in blocks) > lattice.DENSE_LIMIT
    for origin, block in blocks:
        dense = eigh(block.toarray(), eigvals_only=True)[:3]
        np.testing.assert_allclose(lattice._lowest(ham, origin, 3), dense,
                                   rtol=0.0, atol=1e-8, err_msg=origin)


def test_size_budget_and_validation():
    with pytest.raises(ValueError):
        bb.build_hamiltonian(3, 100, 0.0, 0.0)  # 201^3 over budget
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
    ham = bb.build_hamiltonian(1, 3, 0.0, 0.0)
    # k = True would solve one value
    for k in (0, 8, True, 2.5, "2", {"delta_x": 1}, {"delta_c": 1},
              {"delta_r": 0}, {"delta_s": True}, {"delta_r": 1.0}):
        with pytest.raises(ValueError):
            bb.lowest_eigenvalues(ham, k)
    assert len(bb.lowest_eigenvalues(ham, np.int64(7)).eigenvalues) == 7


@pytest.mark.parametrize("n,L,lam,mu", [(1, 30, 2.0, 2.0), (2, 8, 7.0, 8.0),
                                        (3, 5, 9.0, 9.0)])
def test_count_per_block_matches_the_merged_form(n, L, lam, mu):
    ham = bb.build_hamiltonian(n, L, lam, mu)
    full = bb.lowest_eigenvalues(ham, ham.dim)
    below = [(e, o) for e, o in zip(full.eigenvalues, full.origins) if e < 0.0]
    mult = lattice._multiplicities(n)
    # one value past the negative ones of each block
    counts = {o: sum(1 for _, p in below if p == o) // m + 1
              for o, m in mult.items()}
    assert all(c > 1 for c in counts.values())   # every block has a state
    spec = bb.lowest_eigenvalues(ham, counts)
    assert len(spec.eigenvalues) == sum(c * mult[o] for o, c in counts.items())
    got = [(e, o) for e, o in zip(spec.eigenvalues, spec.origins) if e < 0.0]
    assert [o for _, o in got] == [o for _, o in below]
    np.testing.assert_allclose([e for e, _ in got], [e for e, _ in below],
                               rtol=0.0, atol=1e-12)
    # a block asked for fewer values than it holds below 0 drops the rest
    fewer = bb.lowest_eigenvalues(ham, {"delta_r": counts["delta_r"] - 1})
    assert set(fewer.origins) == {"delta_r"}
    assert fewer.count_below(0.0) == counts["delta_r"] - 1


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


def _assembled_block(n, L, lam, mu, origin):
    """One factor block assembled whole, couplings included, on every call."""
    radix = (L + 1) ** np.arange(n - 1, -1, -1)
    grid = np.indices((L + 1,) * n).reshape(n, -1).T
    canon, sign = lattice._canonical(grid, origin)
    reps = grid[(sign > 0) & (canon @ radix == grid @ radix)]
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), data=st.data(),
       couplings=st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
                          min_size=1, max_size=3))
def test_kept_block_structure_is_exact(n, data, couplings):
    L = data.draw(st.integers(1, {1: 40, 2: 12, 3: 6, 4: 3}[n]), label="L")
    origin = data.draw(st.sampled_from(list(lattice._multiplicities(n))),
                       label="origin")
    # the same (n, L, origin) with several couplings: the kept part is reused
    for lam, mu in couplings:
        got = lattice._factor_block(n, L, lam, mu, origin)
        want = _assembled_block(n, L, lam, mu, origin)
        for field in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, field),
                                          getattr(want, field), strict=True)


def test_solves_do_not_depend_on_earlier_couplings():
    # (1, 700): blocks of 701 and 700 rows, solved by Lanczos
    for n, L in ((1, 60), (1, 700), (2, 12), (2, 24), (3, 10)):
        first, other = bb.build_hamiltonian(n, L, 7.0, 8.0), \
            bb.build_hamiltonian(n, L, -2.0, 0.5)
        k = {o: 3 for o in lattice._multiplicities(n)}
        before = bb.lowest_eigenvalues(first, k)
        assert bb.lowest_eigenvalues(other, k) != before, (n, L)
        assert bb.lowest_eigenvalues(first, k) == before, (n, L)


def test_kept_block_structure_refuses_writes():
    off, level = lattice._block_structure(2, 5, "delta_c")
    for array in (off.data, off.indices, off.indptr, level):
        with pytest.raises(ValueError):
            array[0] = 7


def test_compare_reuses_the_kept_blocks(monkeypatch):
    first = bb.compare(bb.ModelParams(3, 5.0, 1.0), [10, 12])
    assert first.counts_agree

    def refuse(*args, **kwargs):
        raise AssertionError("orbit basis rebuilt")
    monkeypatch.setattr(lattice, "_canonical", refuse)
    rep = bb.compare(bb.ModelParams(3, 7.0, 4.0), [10, 12])
    assert rep.predicted_factor_counts != first.predicted_factor_counts
    assert all(rep.agrees_at(L) for L in (10, 12))


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


@pytest.mark.parametrize("origin", lattice.ORIGINS)
def test_compare_sees_an_unpredicted_state(monkeypatch, origin):
    # two delta_r, one delta_c and two delta_s states below -1e-3; hiding
    # one root of a factor leaves its block one value past the prediction
    params = bb.ModelParams(2, 7.0, 8.0)
    records = bb.negative_eigenvalues(params)
    dropped = next(r for r in records if r.origin == origin)
    monkeypatch.setattr(lattice, "negative_eigenvalues",
                        lambda *a, **k: [r for r in records if r is not dropped])
    rep = bb.compare(params, [12])
    full = {"delta_r": 2, "delta_c": 1, "delta_s": 2}
    assert rep.oracle_factor_counts[12] == full
    assert rep.predicted_factor_counts[origin] == full[origin] - dropped.multiplicity
    assert not rep.agrees_at(12) and not rep.counts_agree


def test_parity_attribution():
    spec = bb.lowest_eigenvalues(bb.build_hamiltonian(1, 30, 2.0, 0.0), 2)
    # ground state of the neighbor-impurity chain is even, first excited odd
    assert spec.origins == ("delta_r", "delta_s")
    spec = bb.lowest_eigenvalues(bb.build_hamiltonian(3, 10, 5.0, 1.0), 4)
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


# (1, 700): blocks of 701 and 700 rows, above DENSE_LIMIT but asked for whole
@pytest.mark.parametrize("n,L", [(2, 3), (3, 2), (4, 2), (1, 700)])
def test_sectors_merge_to_the_full_spectrum(n, L):
    # strong couplings: every factor has a bound state in the box
    lam, mu = np.random.default_rng(n).uniform(6.0, 12.0, size=2)
    ham = bb.build_hamiltonian(n, L, float(lam), float(mu))
    spec = bb.lowest_eigenvalues(ham, ham.dim)
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
                    bb.build_hamiltonian(n, L, lam, mu), sum(expected) + 4)
                assert [spec.count_below(theta, o) for o in lattice.ORIGINS] \
                    == expected, (n, cell, L)
                assert spec.count_below(theta) == sum(expected), (n, cell, L)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), data=st.data(),
       lam=st.floats(-4.0, 12.0, allow_nan=False),
       mu=st.floats(-4.0, 12.0, allow_nan=False))
def test_factor_blocks_hold_the_negative_spectrum(n, data, lam, mu):
    L = data.draw(st.integers(1, {1: 12, 2: 6, 3: 3, 4: 2}[n]), label="L")
    ham = bb.build_hamiltonian(n, L, lam, mu)
    full = np.linalg.eigvalsh(ham.matrix.toarray())
    spec = bb.lowest_eigenvalues(ham, ham.dim)
    got = [e for e in spec.eigenvalues if e < 0.0]
    assert len(got) == int(np.sum(full < 0.0))
    np.testing.assert_allclose(got, full[full < 0.0], rtol=0.0, atol=1e-12)


_D5_N4 = """
import belowband as bb
params = bb.ModelParams(4, 7.038375332869773, 1.0)
spec = bb.lowest_eigenvalues(bb.build_hamiltonian(4, 6, params.lam, params.mu), 9)
print(bb.compare(params, [6]).oracle_counts[6], *map(repr, spec.eigenvalues))
"""


def test_multiplets_do_not_depend_on_blas_threads():
    # cell D5 of n = 4: one delta_r state and the four-fold delta_s level
    # -0.082839, whose copies a whole-box Lanczos solve with one BLAS thread
    # found only three times
    src = os.path.dirname(os.path.dirname(bb.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    single = subprocess.run([sys.executable, "-c", _D5_N4], env=env,
                            capture_output=True, text=True, check=True).stdout
    count, *values = single.split()
    params = bb.ModelParams(4, 7.038375332869773, 1.0)
    spec = bb.lowest_eigenvalues(bb.build_hamiltonian(4, 6, params.lam, params.mu), 9)
    assert int(count) == bb.compare(params, [6]).oracle_counts[6] == 5
    assert spec.count_below(-1e-3) == 5
    np.testing.assert_allclose([float(v) for v in values], spec.eigenvalues,
                               rtol=0.0, atol=1e-12)


def test_cubic_triplets_against_dense_reference():
    # dense reference on all 9261 rows (about 35 s, 0.7 GB):
    # python -c "import belowband as bb, scipy.linalg as sl; print(sl.eigh(
    #   bb.build_hamiltonian(3, 10, 5.0, 1.0).matrix.toarray(),
    #   eigvals_only=True, subset_by_index=[0, 7]))"
    spec = bb.lowest_eigenvalues(bb.build_hamiltonian(3, 10, 5.0, 1.0), 8)
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
    spec = bb.lowest_eigenvalues(bb.build_hamiltonian(1, 500, 2.0, 0.0), 3)
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
