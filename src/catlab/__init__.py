"""catlab: numerical laboratory for quantized hyperbolic torus automorphisms.

Builds propagator matrices of hyperbolic torus maps at inverse Planck
constant 2*pi*N, computes quantum periods and the short-period modulus
sequence with exact integer arithmetic, and verifies sup-norm and
dispersive bounds on their eigenfunctions by dense spectral analysis.
"""

from .arith import (
    AdmissibilityReport,
    CatMatrix,
    ParityRule,
    PeriodRecord,
    matrix_order_mod,
    matrix_power,
    p_sequence,
    period_modulus,
    quantum_period,
    short_period_sequence,
    validate_catmap,
)
from .quantize import (
    Propagator,
    build_propagator,
)
from .spectral import (
    SpectrumReport,
    cluster_eigenvalues,
    eigendecompose,
    projector,
    supnorm_summary,
)
from .experiments import (
    DispersiveRecord,
    ScanRecord,
    clustered_spectrum,
    dispersive_scan,
    eigenfunction_profile,
    scan_supnorms,
    short_period_set,
    verify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "CatMatrix",
    "DispersiveRecord",
    "ParityRule",
    "PeriodRecord",
    "Propagator",
    "ScanRecord",
    "SpectrumReport",
    "build_propagator",
    "cluster_eigenvalues",
    "clustered_spectrum",
    "dispersive_scan",
    "eigendecompose",
    "eigenfunction_profile",
    "matrix_order_mod",
    "matrix_power",
    "p_sequence",
    "period_modulus",
    "projector",
    "quantum_period",
    "scan_supnorms",
    "short_period_sequence",
    "short_period_set",
    "supnorm_summary",
    "validate_catmap",
    "verify_bounds",
]
