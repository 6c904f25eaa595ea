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
table with --format table; a call builds only the format it prints, and
identical invocations print identical bytes.

Exit codes: 0 success (also when the reader closes stdout early, as
`| head` does), 1 domain errors (invalid operator, unsupported weight
shape, non-integrable request, no quadrature convergence), 2 argument
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

# lets "--alpha -13/2" or "-1e1" parse: argparse takes only plain negative ints and
# floats as values, and no specpoly option starts with a digit or a dot
_NEGATIVE_RATIONAL = re.compile(r"^-[\d.]")

from .eigen import eigentable
from .families import (
    FamilyKind,
    FamilySpec,
    build_operator,
    classical_presets,
    normalize_operator,
)
from .operator import DiffOperator
from .orthogonality import DEFAULT_TOL, finite_orthogonality_report, gram_matrix
from .quadrature import NoConvergence
from .weights import derive_weight, pearson_check

# every refusal of the library's is a ValueError (DegreeViolation, EmptyOperator,
# UnsupportedLeadingCoefficient, NonIntegrable, and json's JSONDecodeError among them) but
# NoConvergence; OSError is a file that cannot be read
_DOMAIN_ERRORS = (ValueError, NoConvergence, OSError)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("operator source (exactly one)")
    group.add_argument("--preset", choices=sorted(classical_presets()))
    group.add_argument("--family", choices=[kind.value for kind in FamilyKind])
    group.add_argument("--eps", type=int, choices=[-1, 1],
                       help="sign in x^2+eps for --family jacobi")
    group.add_argument("--alpha", type=_fraction)
    group.add_argument("--beta", type=_fraction)
    group.add_argument("--operator-json", metavar="FILE",
                       help="file with {\"a\": [[...a_0...], [...a_1...], ...]}")


def _resolve_source(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> FamilySpec | DiffOperator:
    if sum(v is not None for v in (args.preset, args.family, args.operator_json)) != 1:
        parser.error("provide exactly one of --preset, --family, --operator-json")
    given = {k: v for k in ("alpha", "beta", "eps") if (v := getattr(args, k)) is not None}
    if given and args.family is None:
        parser.error("--alpha, --beta and --eps go with --family only")
    if args.preset is not None:
        return classical_presets()[args.preset]
    if args.family is not None:  # FamilySpec refuses a parameter the family does not take
        return FamilySpec(FamilyKind(args.family), **given)
    with open(args.operator_json, encoding="utf-8") as fh:
        return DiffOperator.from_json(json.load(fh))


def _resolve_operator(args: argparse.Namespace, parser: argparse.ArgumentParser) -> DiffOperator:
    source = _resolve_source(args, parser)
    return build_operator(source) if isinstance(source, FamilySpec) else source


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the JSON payload or the table text, never both


def _cmd_spectrum(args, parser) -> dict | str:
    op = _resolve_operator(args, parser)
    spec = op.spectrum(args.n_max)
    if args.format == "json":
        return {
            "operator": op.to_json(),
            "n_max": args.n_max,
            "spectrum": [
                {"degree": j, "eigenvalue_of_L": str(mu), "lambda_ode_convention": str(-mu)}
                for j, mu in enumerate(spec.values)
            ],
            "distinct": spec.distinct,
            "multiplicity": [
                {"eigenvalue_of_L": str(mu), "degrees": list(degs)}
                for mu, degs in spec.multiplicity.items()
            ],
        }
    header = f"{'degree':>6} {'eigenvalue of L':>18} {'lambda (ODE)':>14}"
    lines = [header, "-" * len(header)]
    lines += (f"{j:>6} {str(mu):>18} {str(-mu):>14}" for j, mu in enumerate(spec.values))
    if not spec.distinct:
        lines.append("warning: eigenvalue collisions present")
    return "\n".join(lines)


def _cmd_eigenfns(args, parser) -> dict | str:
    op = _resolve_operator(args, parser)
    results = eigentable(op, args.n_max)
    if args.format == "json":
        return {
            "operator": op.to_json(),
            "n_max": args.n_max,
            "eigenfunctions": [r.to_json() for r in results],
        }
    header = f"{'degree':>6} {'eigenvalue':>14} {'status':>24}  monic eigenfunction"
    lines = [header, "-" * len(header)]
    for r in results:
        monic = r.monic.pretty() if r.monic is not None else f"(eigenspace dim {r.eigenspace_dim})"
        lines.append(f"{r.degree:>6} {str(r.eigenvalue):>14} {r.status.value:>24}  {monic}")
    return "\n".join(lines)


def _cmd_weight(args, parser) -> dict | str:
    op = _resolve_operator(args, parser)
    if op.order != 2:
        raise ValueError("weight derivation requires a second-order operator")
    a, b = op.coeffs[2], op.coeffs[1]
    weight = derive_weight(a, b)
    ok = pearson_check(weight, a, b)
    if args.format == "json":  # symbolic_zero repeats ok, kept for byte-identical stdout
        return {**weight.to_json(), "pearson": {"ok": ok, "symbolic_zero": ok}}
    return "\n".join([
        f"weight:   {weight.formula()}",
        f"interval: {weight.interval.describe()}",
        f"pearson (pa)' = pb: {'pass' if ok else 'FAIL'}",
    ])


def _cmd_gram(args, parser) -> dict | str:
    report = gram_matrix(_resolve_source(args, parser), args.n_max, args.tol)
    return report.to_json() if args.format == "json" else report.format_table()


def _cmd_romanovski_report(args, parser) -> dict | str:
    report = finite_orthogonality_report(args.alpha, args.beta, args.n_max)
    return report.to_json() if args.format == "json" else report.format_table()


def _cmd_normalize(args, parser) -> dict | str:
    op = _resolve_operator(args, parser)
    normalized, norm, scale = normalize_operator(op)
    if args.format == "json":
        return {**norm.to_json(), "eigenvalue_scale": str(scale), "operator": normalized.to_json()}
    lines = [
        f"x = s*u + t with s={norm.s}, t={norm.t}; a(s*u+t) = {norm.c} * ({norm.normal_form})",
        f"normalized operator (eigenvalues scaled by {scale}):",
    ]
    lines += (f"  a_{k}(u) = {p.pretty('u')}" for k, p in enumerate(normalized.coeffs))
    return "\n".join(lines)


# name, help, handler, whether it takes an operator source (else Romanovski's own
# --alpha/--beta), whether it takes --n-max
_COMMANDS = (
    ("spectrum", "eigenvalues on P_n", _cmd_spectrum, True, True),
    ("eigenfns", "monic eigenfunction table", _cmd_eigenfns, True, True),
    ("weight", "symbolic Pearson weight", _cmd_weight, True, False),
    ("gram", "Gram matrix of eigenfunctions", _cmd_gram, True, True),
    ("romanovski-report", "finite orthogonality report", _cmd_romanovski_report, False, True),
    ("normalize", "affine normalization of the leading coefficient", _cmd_normalize, True, False),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specpoly",
        description="Polynomial eigenfunctions, Sturm-Liouville weights, and "
        "orthogonality for operators with polynomial coefficients.",
    )
    parser._negative_number_matcher = _NEGATIVE_RATIONAL
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, operator_source, n_max in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_RATIONAL
        if operator_source:
            _add_source_args(p)
        else:
            p.add_argument("--alpha", type=_fraction, required=True)
            p.add_argument("--beta", type=_fraction, default=Fraction(0))
        if n_max:
            p.add_argument("--n-max", type=int, default=6)
        p.add_argument("--format", choices=["json", "table"], default="json")
        if name == "gram":  # gram alone runs quadrature
            p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                           help="quadrature tolerance (default %(default)g)")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.handler(args, parser)
        print(json.dumps(out, indent=2) if args.format == "json" else out)
        sys.stdout.flush()  # a closed pipe must raise here, not at interpreter exit
        return 0
    except BrokenPipeError:
        # the reader closed stdout (`| head`): not an error.  What is still buffered
        # goes to devnull, so the interpreter's final flush prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _DOMAIN_ERRORS as exc:
        print(f"specpoly: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # python -m specpoly.cli exits as the entry point does
    from .__main__ import run

    run()
