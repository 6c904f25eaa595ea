"""Exact polynomial eigenfunctions of differential operators.

Operators L(y) = sum_k a_k(x) y^(k) with deg(a_k) <= k preserve every
polynomial space P_n; this package computes their spectra and monic
polynomial eigenfunctions in exact rational arithmetic, derives the
Sturm-Liouville weight from the Pearson equation, and verifies classical
and finite orthogonality (exactly where the integrand reduces to a
polynomial, by tanh-sinh quadrature otherwise).
"""

from .eigen import (
    EigenResult,
    EigenStatus,
    eigenspace_basis,
    eigentable,
    monic_eigenfunction,
)
from .families import (
    AffineNormalization,
    FamilyKind,
    FamilySpec,
    bochner_normalize,
    build_operator,
    classical_presets,
    normalize_operator,
)
from .operator import (
    DegreeViolation,
    DiffOperator,
    EmptyOperator,
    OperatorMatrix,
    Spectrum,
    falling_factorial,
)
from .orthogonality import (
    DEFAULT_TOL,
    GramEntry,
    NonIntegrable,
    NotPolynomialReducible,
    OrthoReport,
    RomanovskiReport,
    finite_orthogonality_report,
    gram_matrix,
    gram_matrix_for_operator,
    inner_product,
    inner_product_exact,
)
from .quadrature import NoConvergence, QuadResult, tanh_sinh
from .ratpoly import Poly, rat, rational_sqrt
from .weights import (
    Interval,
    PowerFactor,
    UnsupportedLeadingCoefficient,
    WeightExpr,
    boundary_vanishing,
    derive_weight,
    integrability,
    moment_reach,
    pearson_check,
)

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "rat",
    "rational_sqrt",
    "DiffOperator",
    "OperatorMatrix",
    "Spectrum",
    "DegreeViolation",
    "EmptyOperator",
    "falling_factorial",
    "EigenResult",
    "EigenStatus",
    "monic_eigenfunction",
    "eigenspace_basis",
    "eigentable",
    "FamilyKind",
    "FamilySpec",
    "AffineNormalization",
    "build_operator",
    "bochner_normalize",
    "normalize_operator",
    "classical_presets",
    "Interval",
    "PowerFactor",
    "WeightExpr",
    "UnsupportedLeadingCoefficient",
    "derive_weight",
    "pearson_check",
    "integrability",
    "moment_reach",
    "boundary_vanishing",
    "NoConvergence",
    "QuadResult",
    "tanh_sinh",
    "DEFAULT_TOL",
    "GramEntry",
    "OrthoReport",
    "RomanovskiReport",
    "NonIntegrable",
    "NotPolynomialReducible",
    "inner_product",
    "inner_product_exact",
    "gram_matrix",
    "gram_matrix_for_operator",
    "finite_orthogonality_report",
]
