"""Finite-lattice oracle: assembly, eigensolvers, agreement reports."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

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
    # every sector block (1225 to 1296 rows) is solved by Lanczos
    assert 35 ** 2 > lattice.DENSE_LIMIT
    it = bb.lowest_eigenvalues(ham, 3)
    dense = np.linalg.eigvalsh(ham.matrix.toarray())[:3]
    assert np.allclose(it.eigenvalues, dense, atol=1e-8)


def test_size_budget_and_validation():
    with pytest.raises(ValueError):
        bb.build_hamiltonian(3, 100, 0.0, 0.0)  # 201^3 over budget
    with pytest.raises(ValueError):
        bb.build_hamiltonian(1, 0, 0.0, 0.0)
    ham = bb.build_hamiltonian(1, 3, 0.0, 0.0)
    with pytest.raises(ValueError):
        bb.lowest_eigenvalues(ham, 0)


def test_parity_attribution():
    spec = bb.lowest_eigenvalues(bb.build_hamiltonian(1, 30, 2.0, 0.0), 2)
    # ground state of the neighbor-impurity chain is even, first excited odd
    assert spec.odd_axes == (0, 1)


# (1, 700): blocks of 701 and 700 rows, above DENSE_LIMIT but asked for whole
@pytest.mark.parametrize("n,L", [(2, 3), (3, 2), (1, 700)])
def test_sectors_merge_to_the_full_spectrum(n, L):
    lam, mu = np.random.default_rng(n).uniform(-6.0, 6.0, size=2)
    ham = bb.build_hamiltonian(n, L, float(lam), float(mu))
    spec = bb.lowest_eigenvalues(ham, ham.dim)
    full = np.linalg.eigvalsh(ham.matrix.toarray())
    np.testing.assert_allclose(spec.eigenvalues, full, rtol=0.0, atol=1e-12)
    assert [spec.odd_axes.count(j) for j in range(n + 1)] == [
        math.comb(n, j) * L ** j * (L + 1) ** (n - j) for j in range(n + 1)]


def test_sector_counts_match_determinant_factors():
    theta = -1e-3
    ladders = {1: (40, 60), 2: (12, 16), 3: (10, 12), 4: (6, 8)}
    for n, ladder in ladders.items():
        for cell, (lam, mu) in open_region_points(n):
            records = bb.negative_eigenvalues(bb.ModelParams(n, lam, mu), tol=0.0)
            even = sum(r.multiplicity for r in records
                       if r.z < theta and r.origin != "delta_s")
            odd = sum(r.multiplicity for r in records
                      if r.z < theta and r.origin == "delta_s")
            for L in ladder:
                spec = bb.lowest_eigenvalues(
                    bb.build_hamiltonian(n, L, lam, mu), even + odd + 4)
                below = [j for e, j in zip(spec.eigenvalues, spec.odd_axes)
                         if e < theta]
                assert (below.count(0), below.count(1)) == (even, odd), (n, cell, L)
                assert len(below) == even + odd, (n, cell, L)


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


def test_compare_free_case_empty():
    rep = bb.compare(bb.ModelParams(2, 0.0, 0.0), [6, 10])
    assert rep.predicted_count == 0
    assert all(c == 0 for c in rep.oracle_counts.values())


def test_compare_requires_negative_theta():
    # nan and -inf would count nothing on either side and pass vacuously
    for theta in (0.0, math.nan, -math.inf):
        with pytest.raises(ValueError):
            bb.compare(bb.ModelParams(1, 0.0, 1.0), [10], theta=theta)
