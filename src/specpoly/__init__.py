"""Exact polynomial eigenfunctions of differential operators.

Operators L(y) = sum_k a_k(x) y^(k) with deg(a_k) <= k preserve every
polynomial space P_n; this package computes their spectra and monic
polynomial eigenfunctions in exact rational arithmetic, derives the
Sturm-Liouville weight from the Pearson equation, and verifies classical
and finite orthogonality (exactly where the integrand reduces to a
polynomial, by tanh-sinh quadrature otherwise).

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package re-exports those lists.  ``specpoly.cli`` is not
imported here, so ``import specpoly`` does not load argparse.
"""

from . import eigen, families, operator, orthogonality, quadrature, ratpoly, weights
from .eigen import *  # noqa: F403
from .families import *  # noqa: F403
from .operator import *  # noqa: F403
from .orthogonality import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .ratpoly import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (ratpoly, operator, eigen, families, weights, quadrature, orthogonality)
    for name in module.__all__
]
