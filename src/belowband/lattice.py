"""Finite-lattice diagonalization oracle.

Truncating the impurity Hamiltonian to the box [-L, L]^n drops the hops
that leave the box, so the matrix is a principal submatrix of the infinite
operator (interlacing applies) and its lowest eigenvalues converge
exponentially fast to the bound states.  Counting eigenvalues below a
strictly negative theta checks the classifier independently of every
Green's-function computation; threshold states (z = 0) are invisible to it.

The potential sits on the origin and the 2n unit sites, and the box keeps
every reflection x_i -> -x_i and every permutation of the axes, so H is
solved in one block per factor of delta_r * delta_c^(n-1) * delta_s^n.
Each block is assembled from an orbit basis, one row per orbit of
nonnegative representatives m:

- delta_r: even and symmetric in all axes; m_1 <= ... <= m_n, C(L+n, n)
  rows; each value counts once.
- delta_c: even, odd under the swap of axes 1 and 2, symmetric in axes
  3..n; m_1 < m_2 and m_3 <= ... <= m_n; each value counts n - 1 times
  (empty at n = 1).
- delta_s: odd in axis 1, even and symmetric in axes 2..n; m_1 >= 1 and
  m_2 <= ... <= m_n; each value counts n times.

Every other symmetry sector misses the potential, so it holds only free
states, whose energies lie above 0; so do the free [n-2, 1, 1] states that
share the delta_c block.  Each block is asked for its own number of lowest
values.  The merged, multiplicity-counted list holds every eigenvalue of H
below theta < 0, each labelled with its factor, only where the last value
solved in each block is >= theta; above 0 it is complete only at n = 1.
No solve reads the whole box: `TruncatedHamiltonian.matrix` is assembled
only when it is read.

Only the diagonal of levels 0 and 1 (the origin and the unit sites) depends
on (lam, mu).  The rest of each block (its orbit basis, hops and weights)
is kept per (n, L, origin) in a bounded cache, so a solve at a radius
already met adds only the couplings.

This is the only module that loads ``scipy.sparse`` and ``scipy.linalg``.
Neither the CLI nor the package imports it up front: ``belowband.cli``
imports it inside ``verify oracle``, and ``belowband`` on first access to
one of its names.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from .classify import DEFAULT_THETA, REGION_TOL, negative_eigenvalues
from .reduction import ModelParams

__all__ = [
    "TruncatedHamiltonian",
    "OracleSpectrum",
    "OracleComparison",
    "build_hamiltonian",
    "lowest_eigenvalues",
    "compare",
]

# largest factor block solved densely, larger ones by Lanczos; the two cross
# nearer 400 rows, but perfbench labels a whole box by this limit and takes
# the n = 2, L = 12 box (625 sites) as dense
DENSE_LIMIT = 625
MAX_DIM = 2_000_000      # largest box build_hamiltonian accepts
# factor blocks whose coupling-free part is kept; an oracle pass meets 19
_KEPT_BLOCKS = 32
_SEED = 20240817         # deterministic start vector for the Lanczos solver
ORIGINS = ("delta_r", "delta_c", "delta_s")


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """H restricted to [-L, L]^n: diagonal n - V(x), off-diagonal -1/2.

    The eigensolvers read only n, L, lam and mu; the whole-box matrix is
    assembled on the first read of `matrix` and kept.
    """

    n: int
    L: int
    lam: float
    mu: float

    @property
    def dim(self) -> int:
        return (2 * self.L + 1) ** self.n

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """Every site of the box; boundary sites lose their outward hops."""
        n, L = self.n, self.L
        m = 2 * L + 1
        chain = sparse.diags([-0.5, 1.0, -0.5], [-1, 0, 1], shape=(m, m),
                             format="csr")
        h = reduce(lambda a, _: sparse.kronsum(chain, a, format="csr"),
                   range(n - 1), chain)
        v = np.zeros((m,) * n)
        v[(L,) * n] = self.mu
        for axis in range(n):
            for step in (-1, 1):
                v[(L,) * axis + (L + step,) + (L,) * (n - 1 - axis)] = self.lam / 2.0
        h.setdiag(h.diagonal() - v.ravel())
        return h


@dataclass(frozen=True)
class OracleSpectrum:
    """Sorted lowest values of the factor blocks, counted with multiplicity.

    Below theta < 0 they are the eigenvalues of the truncation wherever the
    last value solved in each block is >= theta.
    """

    n: int
    L: int
    eigenvalues: tuple[float, ...]
    origins: tuple[str, ...]     # determinant factor of each eigenvalue

    def count_below(self, theta: float, origin: str | None = None) -> int:
        return sum(1 for e, o in zip(self.eigenvalues, self.origins)
                   if e < theta and origin in (None, o))


@dataclass(frozen=True)
class OracleComparison:
    """Agreement report between the oracle ladder and the classifier."""

    params: ModelParams
    theta: float
    predicted_count: int
    predicted: tuple[float, ...]       # classifier roots below theta, expanded
    predicted_factor_counts: dict[str, int]   # origin -> count below theta
    oracle_counts: dict[int, int]      # L -> count below theta
    oracle_factor_counts: dict[int, dict[str, int]]  # L -> origin -> count
    matched_errors: dict[int, tuple[float, ...]]  # L -> |z_oracle - z_bs|

    def agrees_at(self, L: int) -> bool:
        """Counts below theta agree for every factor, so also in total."""
        return self.oracle_factor_counts[L] == self.predicted_factor_counts

    @property
    def counts_agree(self) -> bool:
        return all(self.agrees_at(L) for L in self.oracle_counts)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def build_hamiltonian(n: int, L: int, lam: float, mu: float) -> TruncatedHamiltonian:
    """The truncated Hamiltonian on [-L, L]^n.

    The diagonal is n everywhere except n - mu at the origin and n - lam/2
    at the 2n unit sites; every nearest-neighbor pair inside the box gets
    off-diagonal -1/2.  The whole-box matrix is assembled only when
    `.matrix` is read, but its size is checked against MAX_DIM here, and
    lam and mu must be finite.
    """
    if not _is_int(n) or n < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {n!r}")
    if not _is_int(L) or L < 1:
        raise ValueError(f"box radius must be an integer >= 1, got {L!r}")
    for name, value in (("lam", lam), ("mu", mu)):
        if not math.isfinite(value):    # else scipy fails naming no input
            raise ValueError(f"{name} must be finite, got {value!r}")
    ham = TruncatedHamiltonian(n=int(n), L=int(L), lam=lam, mu=mu)
    if ham.dim > MAX_DIM:
        raise ValueError(f"dimension {2 * L + 1}^{n} = {ham.dim} exceeds "
                         f"the budget {MAX_DIM}")
    return ham


def _canonical(points: np.ndarray, origin: str) -> tuple[np.ndarray, np.ndarray]:
    """Orbit representative of each point and the sign of its coefficient.

    The sign is 0 where every function of the block vanishes: on x_1 = 0
    for delta_s, on |x_1| = |x_2| for delta_c.
    """
    a = np.abs(points)
    head = {"delta_r": 0, "delta_s": 1, "delta_c": 2}[origin]
    canon = np.hstack([np.sort(a[:, :head], axis=1), np.sort(a[:, head:], axis=1)])
    if origin == "delta_r":
        return canon, np.ones(len(a), dtype=int)
    if origin == "delta_s":
        return canon, np.sign(points[:, 0])
    return canon, np.sign(a[:, 1] - a[:, 0])


@lru_cache(maxsize=_KEPT_BLOCKS)
def _block_structure(n: int, L: int,
                     origin: str) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Coupling-free part of one factor block: its hops and each row's level.

    A hop from representative a to a point of orbit b adds
    -1/2 sign sqrt(|O_a| / |O_b|); rows are found by their mixed-radix key.
    The level sum(m) is 0 at the origin and 1 on the unit sites.  Every
    hop changes the level by one, so the off-diagonal part has no diagonal
    entry.  The arrays are read-only, since they are kept across solves.
    """
    radix = (L + 1) ** np.arange(n - 1, -1, -1)
    grid = np.indices((L + 1,) * n).reshape(n, -1).T
    canon, sign = _canonical(grid, origin)
    reps = grid[(sign > 0) & (canon @ radix == grid @ radix)]
    keys = reps @ radix    # increasing: grid rows are in lexicographic order
    dim = len(reps)
    # |O|: its points with nonnegative coordinates, times 2^(nonzero ones)
    size = np.bincount(np.searchsorted(keys, canon[sign != 0] @ radix),
                       minlength=dim) * 2.0 ** np.count_nonzero(reps, axis=1)
    steps = np.vstack([np.eye(n, dtype=int), -np.eye(n, dtype=int)])
    hops = (reps + steps[:, None]).reshape(-1, n)
    target, s = _canonical(hops, origin)
    ok = (np.abs(hops).max(axis=1) <= L) & (s != 0)
    a = np.tile(np.arange(dim), 2 * n)[ok]
    b = np.searchsorted(keys, target[ok] @ radix)
    off = sparse.csr_matrix((-0.5 * s[ok] * np.sqrt(size[a] / size[b]), (a, b)),
                            shape=(dim, dim))
    level = reps.sum(axis=1)
    for array in (off.data, off.indices, off.indptr, level):
        array.flags.writeable = False
    return off, level


def _diagonal(n: int, lam: float, mu: float, level: np.ndarray) -> np.ndarray:
    """n - mu on level 0, n - lam/2 on level 1 and n elsewhere."""
    return n - np.where(level == 0, mu, np.where(level == 1, lam / 2.0, 0.0))


def _factor_block(n: int, L: int, lam: float, mu: float,
                  origin: str) -> sparse.csr_matrix:
    """H in the orbit basis of one factor's symmetry sector.

    The coupling-free part is kept per (n, L, origin) in a bounded cache;
    only the diagonal of levels 0 and 1 depends on (lam, mu).
    """
    off, level = _block_structure(n, L, origin)
    return off + sparse.diags(_diagonal(n, lam, mu, level), format="csr")


def _multiplicities(n: int) -> dict[str, int]:
    """Multiplicity of every factor whose block is nonempty at dimension n."""
    return {o: m for o, m in zip(ORIGINS, (1, n - 1, n)) if m}


def _lowest(ham: TruncatedHamiltonian, origin: str, k: int) -> np.ndarray:
    """Sorted min(k, dim) smallest eigenvalues of one factor block of ham."""
    off, level = _block_structure(ham.n, ham.L, origin)
    dim, k = len(level), min(k, len(level))
    if dim <= DENSE_LIMIT or k == dim:
        dense = off.toarray(order="F")    # off has no diagonal entry
        np.fill_diagonal(dense, _diagonal(ham.n, ham.lam, ham.mu, level))
        return eigh(dense, eigvals_only=True, subset_by_index=[0, k - 1],
                    overwrite_a=True)
    block = _factor_block(ham.n, ham.L, ham.lam, ham.mu, origin)
    v0 = np.random.default_rng(_SEED).standard_normal(dim)
    return np.sort(eigsh(block, k=k, which="SA", v0=v0, maxiter=20000,
                         tol=1e-10, return_eigenvectors=False))


def lowest_eigenvalues(ham: TruncatedHamiltonian,
                       k: int | Mapping[str, int]) -> OracleSpectrum:
    """Lowest values of the factor blocks, merged with multiplicity.

    An int k asks every block for its k lowest values and keeps the k
    lowest of the merged list.  A mapping origin -> count asks only the
    named blocks, each for its own count of lowest values, and keeps them
    all.  Either way the merged list holds every eigenvalue of H below
    theta < 0, with its multiplicity, only where the last value solved in
    each block is >= theta.  A block is solved densely up to DENSE_LIMIT rows,
    else by Lanczos from a deterministic start vector, so results are
    reproducible run to run; the whole-box matrix is never read.
    """
    mult = _multiplicities(ham.n)
    if isinstance(k, Mapping):
        for origin, count in k.items():
            if origin not in mult:
                raise ValueError(f"no {origin!r} block at n = {ham.n}; "
                                 f"known: {', '.join(mult)}")
            if not _is_int(count) or count < 1:
                raise ValueError(f"{origin} count must be an integer >= 1, "
                                 f"got {count!r}")
        counts, keep = dict(k), None
    else:
        if not _is_int(k) or not 1 <= k <= ham.dim:
            raise ValueError(f"need an integer 1 <= k <= {ham.dim}, got {k!r}")
        counts, keep = dict.fromkeys(mult, k), k
    pairs = sorted((float(e), origin)
                   for origin, count in counts.items()
                   for e in _lowest(ham, origin, count)
                   for _ in range(mult[origin]))[:keep]
    return OracleSpectrum(n=ham.n, L=ham.L,
                          eigenvalues=tuple(e for e, _ in pairs),
                          origins=tuple(o for _, o in pairs))


def compare(params: ModelParams, L_values, theta: float = DEFAULT_THETA,
            tol: float = REGION_TOL) -> OracleComparison:
    """Check bound-state counts and locations against the classifier.

    For every L each factor block is solved for one value past the
    classifier's distinct roots of that factor below theta, so a block
    holding an unpredicted state below theta counts more than predicted.
    The merged list holds every eigenvalue below theta only where each
    block's last value is >= theta, which agreeing counts ensure.  The
    oracle count below theta, in total and per determinant factor, is
    compared to the classifier's multiplicity-weighted count, and matched
    eigenvalues are paired in increasing order.  The whole box is never
    assembled.  Disagreements are report content, not errors.
    """
    if theta >= 0.0:
        raise ValueError(f"theta must be < 0, got {theta}")
    if not math.isfinite(theta):   # nan or -inf would count nothing and pass
        raise ValueError(f"theta must be finite, got {theta}")
    radii = list(L_values)
    if not radii:    # no radius would compare nothing and pass
        raise ValueError("need at least one box radius")
    for L in radii:
        if not _is_int(L) or L < 1:
            raise ValueError(f"box radius must be an integer >= 1, got {L!r}")
    records = [r for r in negative_eigenvalues(params, tol=tol) if r.z < theta]
    predicted = sorted(r.z for r in records for _ in range(r.multiplicity))
    factors = {o: sum(r.multiplicity for r in records if r.origin == o)
               for o in ORIGINS}
    wanted = {o: sum(1 for r in records if r.origin == o) + 1
              for o in _multiplicities(params.n)}
    counts: dict[int, int] = {}
    factor_counts: dict[int, dict[str, int]] = {}
    errors: dict[int, tuple[float, ...]] = {}
    for L in map(int, radii):
        ham = build_hamiltonian(params.n, L, params.lam, params.mu)
        spec = lowest_eigenvalues(ham, wanted)
        counts[L] = spec.count_below(theta)
        factor_counts[L] = {o: spec.count_below(theta, o) for o in ORIGINS}
        below = [e for e in spec.eigenvalues if e < theta]
        errors[L] = tuple(abs(e - z) for e, z in zip(below, predicted))
    return OracleComparison(
        params=params,
        theta=theta,
        predicted_count=len(predicted),
        predicted=tuple(predicted),
        predicted_factor_counts=factors,
        oracle_counts=counts,
        oracle_factor_counts=factor_counts,
        matched_errors=errors,
    )
