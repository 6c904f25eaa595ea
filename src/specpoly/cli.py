"""Command-line interface.

Commands:

    spectrum            eigenvalues on P_n (both sign conventions)
    eigenfns            monic eigenfunction table with degeneracy statuses
    weight              symbolic weight from the Pearson equation
    gram                Gram matrix of eigenfunctions (exact where possible)
    romanovski-report   finite-orthogonality verdicts for the Romanovski family
    normalize           affine normalization of the leading coefficient

The operator comes from exactly one of --preset, --family (+ --eps/--alpha/
--beta), or --operator-json FILE; rational parameters are "p/q" strings so
nothing is contaminated by floats.  Output is JSON by default or an aligned
table with --format table; identical invocations print identical bytes.

Exit codes: 0 success (also when the reader closes stdout early, as
`| head` does), 1 domain errors (invalid operator, unsupported weight
shape, non-integrable request, no quadrature convergence), 2 argument
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

# lets "--alpha -13/2" parse: argparse only recognizes plain ints/floats as
# negative-number arguments, so teach it the p/q form as well
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

from .eigen import eigentable
from .families import (
    FamilySpec,
    build_operator,
    classical_presets,
    normalize_operator,
)
from .operator import DegreeViolation, DiffOperator, EmptyOperator
from .orthogonality import (
    DEFAULT_TOL,
    NonIntegrable,
    finite_orthogonality_report,
    gram_matrix,
    gram_matrix_for_operator,
)
from .quadrature import NoConvergence
from .weights import UnsupportedLeadingCoefficient, derive_weight, pearson_check

_DOMAIN_ERRORS = (
    DegreeViolation,
    EmptyOperator,
    UnsupportedLeadingCoefficient,
    NonIntegrable,
    NoConvergence,
    ValueError,
    OSError,
    json.JSONDecodeError,
)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("operator source (exactly one)")
    group.add_argument("--preset", choices=sorted(classical_presets()))
    group.add_argument(
        "--family",
        choices=["jacobi", "laguerre", "hermite", "romanovski", "chaudhry-qadir"],
    )
    group.add_argument("--eps", type=int, choices=[-1, 1], default=-1,
                       help="sign in x^2+eps for --family jacobi")
    group.add_argument("--alpha", type=_fraction, default=Fraction(0))
    group.add_argument("--beta", type=_fraction, default=Fraction(0))
    group.add_argument("--operator-json", metavar="FILE",
                       help="file with {\"a\": [[...a_0...], [...a_1...], ...]}")


def _add_common_args(parser: argparse.ArgumentParser, n_max: bool = True) -> None:
    if n_max:
        parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--format", choices=["json", "table"], default="json")


def _resolve_spec(args: argparse.Namespace, parser: argparse.ArgumentParser) -> FamilySpec | None:
    sources = [args.preset is not None, args.family is not None,
               getattr(args, "operator_json", None) is not None]
    if sum(sources) != 1:
        parser.error("provide exactly one of --preset, --family, --operator-json")
    if args.preset is not None:
        return classical_presets()[args.preset]
    if args.family is None:
        return None
    if args.family == "jacobi":
        return FamilySpec.jacobi(args.eps, args.alpha, args.beta)
    if args.family == "laguerre":
        return FamilySpec.laguerre(args.alpha, args.beta)
    if args.family == "hermite":
        return FamilySpec.hermite(args.alpha, args.beta)
    if args.family == "romanovski":
        return FamilySpec.romanovski(args.alpha, args.beta)
    return FamilySpec.chaudhry_qadir()


def _resolve_operator(args: argparse.Namespace, parser: argparse.ArgumentParser) -> DiffOperator:
    spec = _resolve_spec(args, parser)
    if spec is not None:
        return build_operator(spec)
    with open(args.operator_json, encoding="utf-8") as fh:
        return DiffOperator.from_json(json.load(fh))


def _tolerance(args: argparse.Namespace) -> float:
    if args.tol is not None:
        tol = args.tol
    else:
        tol = float(os.environ.get("SPECPOLY_TOL", str(DEFAULT_TOL)))
    if not 0 < tol < math.inf:  # also refuses nan
        raise ValueError(f"tolerance must be a finite positive number, not {tol}")
    return tol


def _emit(payload: dict, table: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(table)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_spectrum(args, parser) -> int:
    op = _resolve_operator(args, parser)
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    spec = op.spectrum(args.n_max)
    rows = [
        {
            "degree": j,
            "eigenvalue_of_L": str(mu),
            "lambda_ode_convention": str(-mu),
        }
        for j, mu in enumerate(spec.values)
    ]
    payload = {
        "operator": op.to_json(),
        "n_max": args.n_max,
        "spectrum": rows,
        "distinct": spec.distinct,
        "multiplicity": [
            {"eigenvalue_of_L": str(mu), "degrees": list(degs)}
            for mu, degs in sorted(
                spec.multiplicity.items(), key=lambda item: item[1][0]
            )
        ],
    }
    header = f"{'degree':>6} {'eigenvalue of L':>18} {'lambda (ODE)':>14}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['degree']:>6} {row['eigenvalue_of_L']:>18} {row['lambda_ode_convention']:>14}"
        )
    if not spec.distinct:
        lines.append("warning: eigenvalue collisions present")
    _emit(payload, "\n".join(lines), args.format)
    return 0


def _cmd_eigenfns(args, parser) -> int:
    op = _resolve_operator(args, parser)
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    results = eigentable(op, args.n_max)
    payload = {
        "operator": op.to_json(),
        "n_max": args.n_max,
        "eigenfunctions": [r.to_json() for r in results],
    }
    header = f"{'degree':>6} {'eigenvalue':>14} {'status':>24}  monic eigenfunction"
    lines = [header, "-" * len(header)]
    for r in results:
        monic = r.monic.pretty() if r.monic is not None else f"(eigenspace dim {r.eigenspace_dim})"
        lines.append(f"{r.degree:>6} {str(r.eigenvalue):>14} {r.status.value:>24}  {monic}")
    _emit(payload, "\n".join(lines), args.format)
    return 0


def _cmd_weight(args, parser) -> int:
    op = _resolve_operator(args, parser)
    if op.order != 2:
        raise ValueError("weight derivation requires a second-order operator")
    a, b = op.coeffs[2], op.coeffs[1]
    weight = derive_weight(a, b)
    verdict = pearson_check(weight, a, b)
    payload = weight.to_json()
    payload["pearson"] = verdict.to_json()
    lines = [
        f"weight:   {weight.formula()}",
        f"interval: {weight.interval.describe()}",
        f"pearson (pa)' = pb: {'pass' if verdict.ok else 'FAIL'}",
    ]
    _emit(payload, "\n".join(lines), args.format)
    return 0


def _cmd_gram(args, parser) -> int:
    spec = _resolve_spec(args, parser)
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    tol = _tolerance(args)
    if spec is not None:
        report = gram_matrix(spec, args.n_max, tol)
    else:
        report = gram_matrix_for_operator(_resolve_operator(args, parser), args.n_max, tol)
    _emit(report.to_json(), report.format_table(), args.format)
    return 0


def _cmd_romanovski_report(args, parser) -> int:
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    report = finite_orthogonality_report(args.alpha, args.beta, args.n_max)
    _emit(report.to_json(), report.format_table(), args.format)
    return 0


def _cmd_normalize(args, parser) -> int:
    op = _resolve_operator(args, parser)
    normalized, norm, scale = normalize_operator(op)
    payload = norm.to_json()
    payload["eigenvalue_scale"] = str(scale)
    payload["operator"] = normalized.to_json()
    lines = [
        f"x = s*u + t with s={norm.s}, t={norm.t}; a(s*u+t) = {norm.c} * ({norm.normal_form})",
        f"normalized operator (eigenvalues scaled by {scale}):",
    ]
    for k, p in enumerate(normalized.coeffs):
        lines.append(f"  a_{k}(u) = {p.pretty('u')}")
    _emit(payload, "\n".join(lines), args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specpoly",
        description="Polynomial eigenfunctions, Sturm-Liouville weights, and "
        "orthogonality for operators with polynomial coefficients.",
    )
    parser._negative_number_matcher = _NEGATIVE_RATIONAL
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues on P_n")
    _add_source_args(p)
    _add_common_args(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("eigenfns", help="monic eigenfunction table")
    _add_source_args(p)
    _add_common_args(p)
    p.set_defaults(handler=_cmd_eigenfns)

    p = sub.add_parser("weight", help="symbolic Pearson weight")
    _add_source_args(p)
    _add_common_args(p, n_max=False)
    p.set_defaults(handler=_cmd_weight)

    p = sub.add_parser("gram", help="Gram matrix of eigenfunctions")
    _add_source_args(p)
    _add_common_args(p)
    p.add_argument("--tol", type=float, default=None,  # gram is the one command with quadrature
                   help="quadrature tolerance (default SPECPOLY_TOL or 1e-10)")
    p.set_defaults(handler=_cmd_gram)

    p = sub.add_parser("romanovski-report", help="finite orthogonality report")
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--beta", type=_fraction, default=Fraction(0))
    _add_common_args(p)
    p.set_defaults(handler=_cmd_romanovski_report)

    p = sub.add_parser("normalize", help="affine normalization of the leading coefficient")
    _add_source_args(p)
    _add_common_args(p, n_max=False)
    p.set_defaults(handler=_cmd_normalize)

    for sub_parser in sub.choices.values():
        sub_parser._negative_number_matcher = _NEGATIVE_RATIONAL
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args, parser)
        sys.stdout.flush()  # a closed pipe must raise here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader closed stdout (`| head`): not an error.  What is still buffered
        # goes to devnull, so the interpreter's final flush prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _DOMAIN_ERRORS as exc:
        print(f"specpoly: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
