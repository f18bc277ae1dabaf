"""The problem instance and the limiting hyperbola.

For the impurity Hamiltonian H = -Laplacian - V on the n-dimensional
lattice, with V of strength mu at the origin and lambda/2 on the 2n unit
sites, z is an eigenvalue below the band iff 1 is an eigenvalue of the
compact operator (H_0 - z)^-1 V.  Its Fredholm determinant factorizes
into a rank-one even factor delta_r = b H_z, with H_z = (lam - a/b)
(mu - (n - z)) - n, a repeated even factor (lam (c - d) - 1)^(n-1) and
the odd factor (lam s - 1)^n; ``classify`` locates their zeros.

This module holds the instance, :class:`ModelParams`, and the band-edge
limit H_0 of H_z, whose zero set is the limiting hyperbola that splits
the coupling plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ModelParams", "hyperbola_limit"]


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ModelParams:
    """Problem instance: dimension and the two coupling strengths.

    ``mu`` multiplies the delta potential at the origin and ``lam``/2 the
    potential on the 2n nearest neighbors.  Both may be any real number;
    ``n`` may be any integer type but bool and is stored as an int.
    """

    n: int
    lam: float
    mu: float

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise ValueError("couplings must be finite reals")


def hyperbola_limit(n: int, lam: float, mu: float, x_asymptote: float) -> float:
    """The limiting hyperbola function H_0(lambda, mu) = (lambda-X)(mu-n) - n."""
    return (lam - x_asymptote) * (mu - n) - n
