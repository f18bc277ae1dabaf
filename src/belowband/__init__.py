"""Below-band spectrum of lattice Schrodinger operators with point impurities.

The Hamiltonian is H = -Laplacian - V on the n-dimensional integer lattice,
with a delta potential of strength mu at the origin and lambda/2 on the 2n
nearest neighbors.  The package evaluates the torus Green's-function
integrals, locates eigenvalues at the zeros of the three factors of the
Birman-Schwinger determinant, classifies the coupling plane into regions with fixed eigenvalue
counts and band-edge state types, and verifies everything against a
finite-lattice diagonalization oracle.

The oracle (``belowband.lattice``) is the only part that needs
``scipy.sparse`` and ``scipy.linalg``, so its names are imported on first
access rather than with the package.
"""

__version__ = "0.1.0"

import importlib

from .classify import (
    ConsistencyError,
    EigenvalueRecord,
    EvenRegion,
    OddRegion,
    RootScanError,
    SpectralConstants,
    SpectralSummary,
    ThresholdEntry,
    ThresholdReport,
    cell_label,
    classify_even,
    classify_odd,
    eigenstates,
    negative_eigenvalues,
    snap_params,
    spectral_constants,
    summarize,
    threshold_report,
)
from .green import (
    DivergentIntegralError,
    GreenValues,
    closed_form_a1,
    closed_form_green1,
    dispersion,
    green_threshold,
    green_values,
)
from .quadrature import QuadratureError
from .reduction import ModelParams
from .states import (
    EigenState,
    IntegrabilityClass,
    integrability_class,
    residual,
)

__all__ = [
    "__version__",
    # green
    "DivergentIntegralError", "GreenValues", "QuadratureError",
    "closed_form_a1", "closed_form_green1", "dispersion",
    "green_threshold", "green_values",
    # reduction
    "ModelParams",
    # states
    "EigenState", "IntegrabilityClass", "integrability_class", "residual",
    # classify
    "ConsistencyError", "EigenvalueRecord", "EvenRegion", "OddRegion",
    "RootScanError", "SpectralConstants", "SpectralSummary", "ThresholdEntry",
    "ThresholdReport", "cell_label", "classify_even", "classify_odd",
    "eigenstates", "negative_eigenvalues", "snap_params", "spectral_constants",
    "summarize", "threshold_report",
    # lattice
    "OracleComparison", "OracleSpectrum", "TruncatedHamiltonian",
    "build_hamiltonian", "compare", "lowest_eigenvalues",
]

# the names of belowband.lattice, resolved on first access (PEP 562)
_LATTICE_NAMES = frozenset({
    "OracleComparison", "OracleSpectrum", "TruncatedHamiltonian",
    "build_hamiltonian", "compare", "lowest_eigenvalues",
})


def __getattr__(name: str):
    if name == "lattice" or name in _LATTICE_NAMES:
        # not ``from . import lattice``: its hasattr check would land here again
        lattice = importlib.import_module(f"{__name__}.lattice")
        return lattice if name == "lattice" else getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LATTICE_NAMES)
