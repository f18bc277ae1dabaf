"""Finite-lattice diagonalization oracle.

Truncating the impurity Hamiltonian to the box [-L, L]^n drops the hops
that leave the box, so the matrix is a principal submatrix of the infinite
operator (interlacing applies) and its lowest eigenvalues converge
exponentially fast to the bound states.  Counting eigenvalues below a
strictly negative theta checks the classifier independently of every
Green's-function computation; threshold states (z = 0) are invisible to it.

The truncation keeps every reflection x_i -> -x_i and every permutation of
the axes, so H is solved in reflection-parity sectors.  The block
B_j = P_j^T H P_j, odd in the first j axes and even in the rest, has
L^j (L+1)^(n-j) rows, and the permutations carry it onto all C(n, j)
sectors odd in j axes: each of its values counts exactly C(n, j) times,
and no copy of a degenerate level is left for an iterative solver to find.
A state odd in an axis vanishes where that coordinate is 0 and no impurity
site has two nonzero coordinates, so the sectors with j >= 2 miss the
potential and hold no bound state: the delta_r and delta_c states lie in
j = 0, one copy of each n-fold delta_s level in j = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from .classify import REGION_TOL, negative_eigenvalues
from .reduction import ModelParams

__all__ = [
    "TruncatedHamiltonian",
    "OracleSpectrum",
    "OracleComparison",
    "build_hamiltonian",
    "lowest_eigenvalues",
    "compare",
]

# largest block solved densely: dense and Lanczos cross near 400 rows; 625 =
# 25^2 because perfbench labels whole n = 2, L = 12 boxes dense by this limit
DENSE_LIMIT = 625
DEFAULT_THETA = -1e-3    # separates bound states from band-bottom artifacts
_SEED = 20240817         # deterministic start vector for the Lanczos solver


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """H restricted to [-L, L]^n: diagonal n - V(x), off-diagonal -1/2."""

    n: int
    L: int
    lam: float
    mu: float
    matrix: sparse.csr_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class OracleSpectrum:
    """Sorted lowest eigenvalues of one truncation."""

    n: int
    L: int
    eigenvalues: tuple[float, ...]
    odd_axes: tuple[int, ...]    # sector j of each eigenvalue

    def count_below(self, theta: float) -> int:
        return int(sum(1 for e in self.eigenvalues if e < theta))


@dataclass(frozen=True)
class OracleComparison:
    """Agreement report between the oracle ladder and the classifier."""

    params: ModelParams
    theta: float
    predicted_count: int
    predicted: tuple[float, ...]       # classifier roots below theta, expanded
    oracle_counts: dict[int, int]      # L -> count below theta
    matched_errors: dict[int, tuple[float, ...]]  # L -> |z_oracle - z_bs|

    @property
    def counts_agree(self) -> bool:
        return all(c == self.predicted_count for c in self.oracle_counts.values())


def build_hamiltonian(n: int, L: int, lam: float, mu: float,
                      max_dim: int = 2_000_000) -> TruncatedHamiltonian:
    """Assemble the truncated Hamiltonian on [-L, L]^n.

    The diagonal is n everywhere except n - mu at the origin and n - lam/2
    at the 2n unit sites; every nearest-neighbor pair inside the box gets
    off-diagonal -1/2.  Boundary sites simply lose their outward hops.
    """
    if L < 1:
        raise ValueError(f"box radius must be >= 1, got {L}")
    m = 2 * L + 1
    dim = m ** n
    if dim > max_dim:
        raise ValueError(f"dimension {m}^{n} = {dim} exceeds the budget {max_dim}")
    chain = sparse.diags([-0.5, 1.0, -0.5], [-1, 0, 1], shape=(m, m), format="csr")
    h = reduce(lambda a, _: sparse.kronsum(chain, a, format="csr"), range(n - 1), chain)
    v = np.zeros((m,) * n)
    v[(L,) * n] = mu
    for axis in range(n):
        for step in (-1, 1):
            v[(L,) * axis + (L + step,) + (L,) * (n - 1 - axis)] = lam / 2.0
    h.setdiag(h.diagonal() - v.ravel())
    return TruncatedHamiltonian(n=n, L=L, lam=lam, mu=mu, matrix=h)


def _fold(L: int, odd: bool) -> sparse.csc_matrix:
    """Isometry onto [-L, L] from e_m +/- e_-m, m = 1..L, plus e_0 if even."""
    e = sparse.identity(2 * L + 1, format="csc")
    half = (e[:, L + 1:] + (-1.0 if odd else 1.0) * e[:, L - 1::-1]) * np.sqrt(0.5)
    return half if odd else sparse.hstack([e[:, [L]], half], format="csc")


def _sector(ham: TruncatedHamiltonian, j: int) -> sparse.spmatrix:
    """Block B_j = P_j^T H P_j: odd in the first j axes, even in the rest."""
    p = reduce(lambda a, b: sparse.kron(a, b, format="csr"),
               [_fold(ham.L, True)] * j + [_fold(ham.L, False)] * (ham.n - j))
    return p.T @ ham.matrix @ p


def _lowest(block: sparse.spmatrix, k: int) -> np.ndarray:
    """Sorted min(k, dim) smallest eigenvalues of one symmetric block."""
    dim, k = block.shape[0], min(k, block.shape[0])
    if dim <= DENSE_LIMIT or k == dim:
        return eigh(block.toarray(), eigvals_only=True, subset_by_index=[0, k - 1])
    v0 = np.random.default_rng(_SEED).standard_normal(dim)
    return np.sort(eigsh(block, k=k, which="SA", v0=v0, maxiter=20000,
                         tol=1e-10, return_eigenvectors=False))


def lowest_eigenvalues(ham: TruncatedHamiltonian, k: int) -> OracleSpectrum:
    """k smallest eigenvalues, merged from the blocks B_j of every sector.

    A block is solved densely up to DENSE_LIMIT rows, else by Lanczos from a
    deterministic start vector, so results are reproducible run to run.
    """
    if not 1 <= k <= ham.dim:
        raise ValueError(f"need 1 <= k <= {ham.dim}, got {k}")
    pairs = sorted((float(e), j) for j in range(ham.n + 1)
                   for e in _lowest(_sector(ham, j), k)
                   for _ in range(math.comb(ham.n, j)))[:k]
    return OracleSpectrum(n=ham.n, L=ham.L,
                          eigenvalues=tuple(e for e, _ in pairs),
                          odd_axes=tuple(j for _, j in pairs))


def compare(params: ModelParams, L_values, theta: float = DEFAULT_THETA,
            tol: float = REGION_TOL, extra_states: int = 4) -> OracleComparison:
    """Check bound-state counts and locations against the classifier.

    For every L the oracle count of eigenvalues below theta is compared to
    the classifier's multiplicity-weighted count of roots below theta, and
    matched eigenvalues are paired in increasing order.  Disagreements are
    report content, not errors.
    """
    if theta >= 0.0:
        raise ValueError(f"theta must be < 0, got {theta}")
    if not math.isfinite(theta):   # nan or -inf would count nothing and pass
        raise ValueError(f"theta must be finite, got {theta}")
    records = negative_eigenvalues(params, tol=tol)
    predicted = []
    for rec in records:
        if rec.z < theta:
            predicted.extend([rec.z] * rec.multiplicity)
    predicted.sort()
    counts: dict[int, int] = {}
    errors: dict[int, tuple[float, ...]] = {}
    for L in L_values:
        ham = build_hamiltonian(params.n, int(L), params.lam, params.mu)
        k = min(len(predicted) + extra_states, ham.dim)
        spec = lowest_eigenvalues(ham, max(k, 1))
        counts[int(L)] = spec.count_below(theta)
        below = [e for e in spec.eigenvalues if e < theta]
        errors[int(L)] = tuple(
            abs(e - z) for e, z in zip(sorted(below), predicted))
    return OracleComparison(
        params=params,
        theta=theta,
        predicted_count=len(predicted),
        predicted=tuple(predicted),
        oracle_counts=counts,
        matched_errors=errors,
    )
