"""Named second-order operator families and affine normal forms.

Every family is a(x) y'' + b(x) y' with b = alpha*x + beta and a depending
on the kind:

    jacobi eps=-1      (1 - x^2) y'' + (alpha x + beta) y'
    jacobi eps=+1      (x^2 + 1) y'' + (alpha x + beta) y'
    romanovski         (x^2 + 1) y'' + (alpha x + beta) y'   (same operator
                       as jacobi eps=+1, but carries the finite-orthogonality
                       weight semantics on the whole real line)
    laguerre           x y'' + (alpha x + beta) y'
    hermite            y'' + (alpha x + beta) y'
    chaudhry-qadir     t(1 - t) y'' + (1 - t) y'             (no parameters)

``bochner_normalize`` classifies a quadratic/linear/constant leading
coefficient up to affine substitution into one of the normal forms
x^2-1, x^2+1, x^2, x, 1 and returns the exact substitution data.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import isqrt

from ._record import Record
from .operator import DiffOperator
from .ratpoly import Poly, RatLike, rat

__all__ = [
    "FamilyKind",
    "FamilySpec",
    "AffineNormalization",
    "build_operator",
    "bochner_normalize",
    "normalize_operator",
    "classical_presets",
]


class FamilyKind(str, enum.Enum):
    JACOBI = "jacobi"
    LAGUERRE = "laguerre"
    HERMITE = "hermite"
    ROMANOVSKI = "romanovski"
    CHAUDHRY_QADIR = "chaudhry-qadir"


class FamilySpec(Record):
    kind: FamilyKind
    alpha: Fraction = Fraction(0)
    beta: Fraction = Fraction(0)
    eps: int = -1

    def __post_init__(self):
        # one form per field, as DiffOperator keeps its coefficients: a FamilyKind, two Fractions
        d = self.__dict__
        d["kind"], d["alpha"], d["beta"] = FamilyKind(self.kind), rat(self.alpha), rat(self.beta)
        if not isinstance(self.eps, int) or isinstance(self.eps, bool):  # a bool is an int
            raise TypeError(f"eps must be an int, not {self.eps!r}")
        if self.kind is FamilyKind.JACOBI and self.eps not in (-1, 1):
            raise ValueError("jacobi eps must be +1 or -1")
        if self.kind is not FamilyKind.JACOBI and self.eps != -1:
            raise ValueError(f"{self.kind.value} takes no eps")
        if self.kind is FamilyKind.CHAUDHRY_QADIR and (self.alpha or self.beta):
            raise ValueError("chaudhry-qadir takes no alpha or beta")

    @classmethod
    def jacobi(cls, eps: int, alpha: RatLike, beta: RatLike) -> FamilySpec:
        return cls(FamilyKind.JACOBI, alpha, beta, eps)

    @classmethod
    def laguerre(cls, alpha: RatLike, beta: RatLike) -> FamilySpec:
        return cls(FamilyKind.LAGUERRE, alpha, beta)

    @classmethod
    def hermite(cls, alpha: RatLike, beta: RatLike) -> FamilySpec:
        return cls(FamilyKind.HERMITE, alpha, beta)

    @classmethod
    def romanovski(cls, alpha: RatLike, beta: RatLike) -> FamilySpec:
        return cls(FamilyKind.ROMANOVSKI, alpha, beta)

    @classmethod
    def chaudhry_qadir(cls) -> FamilySpec:
        return cls(FamilyKind.CHAUDHRY_QADIR)

    def describe(self) -> str:
        if self.kind is FamilyKind.CHAUDHRY_QADIR:
            return "chaudhry-qadir"
        if self.kind is FamilyKind.JACOBI:
            return f"jacobi(eps={self.eps:+d}, alpha={self.alpha}, beta={self.beta})"
        return f"{self.kind.value}(alpha={self.alpha}, beta={self.beta})"


# the leading coefficient a of each family with a free (alpha, beta), besides Jacobi's
_LEADING = {FamilyKind.ROMANOVSKI: (1, 0, 1), FamilyKind.LAGUERRE: (0, 1), FamilyKind.HERMITE: (1,)}


def build_operator(spec: FamilySpec) -> DiffOperator:
    """The validated operator a D^2 + b D for the family (a_0 = 0)."""
    if spec.kind is FamilyKind.CHAUDHRY_QADIR:
        return DiffOperator([Poly(), Poly((1, -1)), Poly((0, 1, -1))])  # (1 - t) D + (t - t^2) D^2
    a = (1, 0, spec.eps) if spec.kind is FamilyKind.JACOBI else _LEADING[spec.kind]
    return DiffOperator([Poly(), Poly((spec.beta, spec.alpha)), Poly(a)])


def classical_presets() -> dict[str, FamilySpec]:
    """Named parameter choices for the classical families.

    legendre/chebyshev follow the alpha = -2 / -1 / -3, beta = 0 special
    cases of the jacobi family.  The chebyshev kind assignment (T at -1,
    U at -3) and the laguerre/hermite parameters are derived from the
    standard ODEs, not quoted from a table.
    """
    return {
        "legendre": FamilySpec.jacobi(-1, -2, 0),
        "chebyshev1": FamilySpec.jacobi(-1, -1, 0),
        "chebyshev2": FamilySpec.jacobi(-1, -3, 0),
        "hermite": FamilySpec.hermite(-2, 0),
        "laguerre": FamilySpec.laguerre(-1, 1),
        "chaudhry-qadir": FamilySpec.chaudhry_qadir(),
    }


# ---------------------------------------------------------------------------
# affine normalization of the leading coefficient


class AffineNormalization(Record):
    """Exact substitution data: a(s*u + t) = c * normal_form(u).

    ``c`` carries the sign of the leading coefficient (a quadratic with
    two real roots and negative leading coefficient, like 1 - x^2, cannot
    be mapped onto x^2 - 1 with positive c by any affine substitution).
    """

    s: Fraction
    t: Fraction
    c: Fraction
    normal_form: str  # one of "x^2-1", "x^2+1", "x^2", "x", "1"


def bochner_normalize(a: Poly) -> AffineNormalization:
    """Classify a nonzero leading coefficient of degree <= 2.

    Quadratics split on the discriminant sign: positive -> x^2-1 (the two
    roots map to -1 and +1; the tie-break s > 0 sends the larger root to
    +1), negative -> x^2+1, zero -> x^2.  Degree 1 -> x with c = 1, degree
    0 -> 1.  Raises ValueError when the required substitution is not
    rational or deg(a) > 2.
    """
    if a.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    deg = a.degree
    if deg > 2:
        raise ValueError(f"normalization applies to degree <= 2, got degree {deg}")
    if deg == 0:
        return AffineNormalization(Fraction(1), Fraction(0), a.coeff(0), "1")
    den = a.den  # a = (a0 + a1 x + a2 x^2) / den in ints
    if deg == 1:
        a0, a1 = a.nums
        return AffineNormalization(Fraction(den, a1), Fraction(-a0, a1), Fraction(1), "x")
    a0, a1, a2 = a.nums
    disc = a1 * a1 - 4 * a2 * a0  # den^2 times the discriminant
    if disc == 0:
        return AffineNormalization(Fraction(1), Fraction(-a1, 2 * a2), Fraction(a2, den), "x^2")
    root = isqrt(abs(disc))
    if root * root != abs(disc):
        reason = "has irrational roots" if disc > 0 else "is not rationally equivalent to x^2+1"
        raise ValueError(f"quadratic {reason} (discriminant {Fraction(disc, den * den)})")
    # roots (-a1 -+ root) / (2 a2) when disc > 0, sent to -1 and +1 (s > 0), and
    # a(s u + t) = a2 s^2 (u^2 -+ 1) / den either way, with c = a2 s^2 / den = |disc| / (4 a2 den)
    s, t = Fraction(root, 2 * abs(a2)), Fraction(-a1, 2 * a2)
    c = Fraction(abs(disc), 4 * a2 * den)
    return AffineNormalization(s, t, c, "x^2-1" if disc > 0 else "x^2+1")


def normalize_operator(op: DiffOperator) -> tuple[DiffOperator, AffineNormalization, Fraction]:
    """Rewrite a second-order operator so its leading coefficient is a
    Bochner normal form.

    Substituting x = s*u + t turns a_k(x) D_x^k into (a_k(s*u+t)/s^k) D_u^k
    with the same eigenvalues; dividing through by c/s^2 then makes the
    leading coefficient exactly the normal form.  Returns the rewritten
    operator, the normalization data, and the eigenvalue scale s^2/c
    (mu_new = (s^2/c) * mu_old).
    """
    if op.order != 2:
        raise ValueError("normalization handles second-order operators only")
    norm = bochner_normalize(op.coeffs[2])
    divisor = norm.c / (norm.s * norm.s)
    new_coeffs = [
        a_k.affine_sub(norm.s, norm.t) * (1 / (norm.s**k * divisor))
        for k, a_k in enumerate(op.coeffs)
    ]
    return DiffOperator(new_coeffs), norm, 1 / divisor
