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
share the delta_c block.

The couplings touch only the rows of level sum(m) <= 1: the origin
(delta_r only) and one row of unit sites.  The rest of a block, Q on the
rows of level >= 2, compresses the free box Laplacian, so its spectrum
lies in (0, 2n).  In the basis (origin row, level-1 row, Lanczos vectors
of Q started at the level-1 row's hops b) the block is tridiagonal, and
only its first one or two diagonal entries depend on (lam, mu).  The
Lanczos chain is stopped once the conjugate-gradient residual of
(Q - theta I) x = b falls below 1e-14 at theta = 0, which bounds it at
every theta < 0, so g = b^T (Q - theta I)^-1 b, the one term through
which Q enters the block's eigenvalue equation below 0, is exact to
rounding, and the chain's values below 0 are the block's (Gauss
quadrature by Lanczos, Golub and Meurant 2010).  Each chain
is built once per (n, L, origin) and kept in a bounded cache, so a solve
at a radius already met adds only the couplings, and its values below a
bound come from the LAPACK bisection stebz, called directly (`_below`).

`lowest_eigenvalues(ham, theta)` is the one solve: one stebz call per
block reads its values below theta off its chain, and `compare` makes one
such solve per radius.  The size budget MAX_DIM bounds what a solve
builds, the nonnegative grid of n (L+1)^n coordinates that `_structure`
orbits; the whole box (2L+1)^n, assembled only when
`TruncatedHamiltonian.matrix` is read, is checked against it on that
read.

This is the only module that loads ``scipy.sparse`` and ``scipy.linalg``.
Neither the CLI nor the package imports it up front: ``belowband.cli``
imports it inside ``verify oracle``, and ``belowband`` on first access to
one of its names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import get_lapack_funcs

from .classify import (DEFAULT_THETA, ORIGINS, REGION_TOL, _multiplicities,
                       negative_eigenvalues)
from .reduction import ModelParams, _is_int

__all__ = [
    "TruncatedHamiltonian",
    "OracleSpectrum",
    "OracleComparison",
    "build_hamiltonian",
    "lowest_eigenvalues",
    "compare",
    "SolverError",
]

# only perfbench reads this name: it labels a whole box of at most
# DENSE_LIMIT sites dense; no solver reads it
DENSE_LIMIT = 625
# largest grid n (L+1)^n build_hamiltonian accepts, and largest box
# (2L+1)^n `.matrix` assembles
MAX_DIM = 2_000_000
# factor blocks whose chain is kept; an oracle pass meets 19
_KEPT_BLOCKS = 32
# conjugate-gradient residual of (Q - theta I) x = b, relative to |b|, at
# theta = 0 where a chain stops; it is smaller at every theta < 0
_CHAIN_RTOL = 1e-14
# LAPACK's bisection for the values of a symmetric tridiagonal matrix in a
# range, dstebz, bound once
_STEBZ, = get_lapack_funcs(("stebz",), (np.empty(0),))


class SolverError(RuntimeError):
    """A factor block's Lanczos chain did not converge or lost definiteness,
    or LAPACK's stebz failed on it."""


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """H restricted to [-L, L]^n: diagonal n - V(x), off-diagonal -1/2.

    The solve reads only n, L, lam and mu.  Only tests and the benchmark
    tracer read `matrix`, the whole box, assembled on the first read and
    kept; a box of more than MAX_DIM sites is a ValueError on that read.
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
        if self.dim > MAX_DIM:
            raise ValueError(f"box {2 * L + 1}^{n} = {self.dim} sites exceeds "
                             f"the budget {MAX_DIM}")
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
    """Sorted values of the factor blocks, counted with multiplicity.

    From `lowest_eigenvalues(ham, theta)` they are every eigenvalue of the
    truncation below theta.
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


def build_hamiltonian(n: int, L: int, lam: float, mu: float) -> TruncatedHamiltonian:
    """The truncated Hamiltonian on [-L, L]^n.

    The diagonal is n everywhere except n - mu at the origin and n - lam/2
    at the 2n unit sites; every nearest-neighbor pair inside the box gets
    off-diagonal -1/2.  lam and mu must be finite, and the grid of
    n (L+1)^n coordinates a solve builds must not exceed MAX_DIM.  The
    whole box is neither built nor budgeted here: `.matrix` checks it
    when read.
    """
    if not _is_int(n) or n < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {n!r}")
    if not _is_int(L) or L < 1:
        raise ValueError(f"box radius must be an integer >= 1, got {L!r}")
    for name, value in (("lam", lam), ("mu", mu)):
        if not math.isfinite(value):    # _below runs stebz with no such check
            raise ValueError(f"{name} must be finite, got {value!r}")
    n, L = int(n), int(L)
    grid = n * (L + 1) ** n
    if grid > MAX_DIM:
        raise ValueError(f"grid {n}*{L + 1}^{n} = {grid} exceeds the "
                         f"budget {MAX_DIM}")
    return TruncatedHamiltonian(n=n, L=L, lam=lam, mu=mu)


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


def _structure(n: int, L: int, origin: str) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Coupling-free off-diagonal part of one factor block and its levels.

    A hop from representative a to a point of orbit b adds
    -1/2 sign sqrt(|O_a| / |O_b|); rows are found by their mixed-radix key
    and are in lexicographic order.  The level sum(m) is 0 at the origin
    and 1 on the unit sites.  Every hop changes the level by one, so the
    off-diagonal part has no diagonal entry.
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
    return off, reps.sum(axis=1)


@lru_cache(maxsize=_KEPT_BLOCKS)
def _kept_block(n: int, L: int, origin: str) -> tuple[np.ndarray, ...]:
    """Coupling-free tridiagonal chain of one factor block and its levels.

    Rows: the origin (delta_r only), the level-1 row, then the Lanczos
    vectors of Q (the block on its rows of level >= 2) started at b, the
    level-1 row's hops into them, by the plain three-term recurrence.
    Step k adds the LDL^T pivot d_k of the chain of Q at theta = 0 and
    updates the conjugate-gradient residual rho_k = rho_(k-1) beta_k / d_k;
    the chain stops once rho_k <= _CHAIN_RTOL.  Every pivot must be > 0,
    which certifies that the chain of Q has no value below 0, as Q has
    none; else, or if the rows of Q run out first, SolverError.  Returns
    the diagonal, the off-diagonal and the level (0, 1, then 2) of each
    chain row, read-only, since they are kept across solves.
    """
    off, level = _structure(n, L, origin)
    head = np.flatnonzero(level <= 1)    # origin first, in key order
    deep = np.flatnonzero(level >= 2)
    b = off[head[-1]].toarray().ravel()[deep]
    q = off[deep][:, deep]
    diag = [float(n)] * len(head)
    beta = [abs(off[head[0], head[-1]])] * (len(head) - 1)
    norm = math.sqrt((b * b).sum())
    if norm:
        beta.append(norm)
        v, prev, step, pivot, rho = b / norm, 0.0, 0.0, math.inf, 1.0
        for k in range(len(deep)):
            w = q @ v + n * v - step * prev
            alpha = float((v * w).sum())
            pivot = alpha - step * step / pivot
            if not pivot > 0.0:
                raise SolverError(
                    f"Lanczos chain of {origin} at n={n}, L={L}: pivot "
                    f"{pivot!r} <= 0 at step {k + 1}")
            diag.append(alpha)
            w -= alpha * v
            step = math.sqrt((w * w).sum())
            rho *= step / pivot
            if rho <= _CHAIN_RTOL:
                break
            beta.append(step)
            prev, v = v, w / step
        else:
            raise SolverError(
                f"Lanczos chain of {origin} at n={n}, L={L} did not reach "
                f"a residual of {_CHAIN_RTOL:g} within {len(deep)} steps")
    chain = (np.array(diag), np.array(beta),
             np.minimum(np.arange(len(diag)) + 2 - len(head), 2))
    for array in chain:
        array.flags.writeable = False
    return chain


def _below(ham: TruncatedHamiltonian, origin: str, theta: float) -> np.ndarray:
    """Sorted values of one factor block below theta <= 0, from its chain.

    The couplings enter the chain's head rows only: mu on delta_r's origin
    row, lam/2 on the level-1 row.  The values are LAPACK stebz's by
    bisection, called as scipy's ``eigvalsh_tridiagonal`` with
    ``select="v"`` calls it, ``select_range=(-inf, nextafter(theta, -inf))``,
    but without that wrapper's validation: the couplings are finite
    (``build_hamiltonian``) and so is every chain.  A 1-row chain (n = 1,
    L = 1, delta_s) takes scipy's 1 x 1 exit, since stebz's wrapper refuses
    an empty off-diagonal.  A nonzero info from stebz is a SolverError.
    """
    diag, beta, level = _kept_block(ham.n, ham.L, origin)
    d = diag.copy()
    one = int(level[0] == 0)    # the level-1 row follows delta_r's origin row
    if one:
        d[0] -= ham.mu
    d[one] -= ham.lam / 2.0
    vu = math.nextafter(theta, -math.inf)
    if len(d) == 1:
        return d if d[0] <= vu else d[:0]
    m, w, _, _, info = _STEBZ(d, beta, 1, -math.inf, vu, 1, 1, 0.0, "E")
    if info:
        raise SolverError(f"LAPACK stebz on the {origin} block at n={ham.n}, "
                          f"L={ham.L} returned info={info}")
    return w[:m]


def lowest_eigenvalues(ham: TruncatedHamiltonian,
                       theta: float) -> OracleSpectrum:
    """Every value of the factor blocks below theta <= 0, with multiplicity.

    Each block's values below theta are read off its kept chain by one
    direct call of LAPACK's stebz (``_below``) and merged with the
    block's multiplicity; a nonzero info from it is a SolverError.  Above 0 a chain's
    values are not the block's, so theta > 0, nan or -inf is a ValueError.
    The solve is direct, so results are reproducible run to run; the
    whole-box matrix is never read.
    """
    if not -math.inf < theta <= 0.0:
        raise ValueError(f"theta must be finite and <= 0, got {theta!r}")
    mult = _multiplicities(ham.n)
    pairs = sorted((float(e), origin) for origin in mult
                   for e in _below(ham, origin, theta)
                   for _ in range(mult[origin]))
    return OracleSpectrum(n=ham.n, L=ham.L,
                          eigenvalues=tuple(e for e, _ in pairs),
                          origins=tuple(o for _, o in pairs))


def compare(params: ModelParams, L_values, theta: float = DEFAULT_THETA,
            tol: float = REGION_TOL) -> OracleComparison:
    """Check bound-state counts and locations against the classifier.

    For every L one `lowest_eigenvalues` call reads each factor block's
    values below theta off its kept chain, one stebz call per block.  The
    oracle count below theta, in total and per determinant factor, and
    the matched errors all come from that call, and the classifier's roots
    never size it.  The count is compared to the classifier's
    multiplicity-weighted count, and matched eigenvalues are paired in
    increasing order.  The whole box is never assembled.  Every radius is
    built by `build_hamiltonian` before the classifier runs, so a radius
    that is not an integer >= 1, or whose grid exceeds MAX_DIM, is a
    ValueError before any solve.  Disagreements are report content, not
    errors; a chain that does not converge is a SolverError.
    """
    if theta >= 0.0:
        raise ValueError(f"theta must be < 0, got {theta}")
    if not math.isfinite(theta):   # nan or -inf would count nothing and pass
        raise ValueError(f"theta must be finite, got {theta}")
    hams = [build_hamiltonian(params.n, L, params.lam, params.mu) for L in L_values]
    if not hams:    # no radius would compare nothing and pass
        raise ValueError("need at least one box radius")
    records = [r for r in negative_eigenvalues(params, tol=tol) if r.z < theta]
    predicted = sorted(r.z for r in records for _ in range(r.multiplicity))
    factors = {o: sum(r.multiplicity for r in records if r.origin == o)
               for o in ORIGINS}
    counts: dict[int, int] = {}
    factor_counts: dict[int, dict[str, int]] = {}
    errors: dict[int, tuple[float, ...]] = {}
    for ham in hams:
        spec, L = lowest_eigenvalues(ham, theta), ham.L
        counts[L] = len(spec.eigenvalues)
        factor_counts[L] = {o: spec.origins.count(o) for o in ORIGINS}
        errors[L] = tuple(abs(e - z) for e, z in zip(spec.eigenvalues, predicted))
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
