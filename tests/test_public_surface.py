"""Every name that specpoly or one of its public modules lists in ``__all__``
resolves: a name removed from a module but left in a list fails here, not in
a user's ``from specpoly import *``.  The package's list is its modules' lists
concatenated, and importing the package leaves the CLI (and argparse) out.
The list itself is pinned: a name joins or leaves the public surface only
with an edit here."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import specpoly

SURFACE = [
    # ratpoly
    "Poly", "RatLike", "rat",
    # operator
    "DegreeViolation", "EmptyOperator", "DiffOperator", "OperatorMatrix", "Spectrum",
    # eigen
    "EigenStatus", "EigenResult", "monic_eigenfunction", "eigenspace_basis", "eigentable",
    "rref_kernel",
    # families
    "FamilyKind", "FamilySpec", "AffineNormalization", "build_operator", "bochner_normalize",
    "normalize_operator", "classical_presets",
    # weights
    "UnsupportedLeadingCoefficient", "PowerFactor", "Interval", "WeightExpr", "derive_weight",
    "pearson_check",
    # quadrature
    "DEFAULT_TOL", "NoConvergence",
    # orthogonality
    "NonIntegrable", "inner_product", "GramEntry", "OrthoReport", "gram_matrix",
    "RomanovskiPair", "RomanovskiReport", "finite_orthogonality_report",
]
# the first four live in the test oracles, and so does NotPolynomialReducible, the oracle's
# refusal; moment_reach is the integrability rule's reach (weights._classify); no public
# function returns a QuadResult (it stays defined in quadrature); gram_matrix takes an
# operator as well as a family; pearson_check returns a bool, not a PearsonVerdict
NOT_EXPORTED = ["boundary_vanishing", "BoundaryVerdict", "integrability", "IntegrabilityVerdict",
                "moment_reach", "QuadResult", "NotPolynomialReducible",
                "gram_matrix_for_operator", "PearsonVerdict"]

MODULES = ["specpoly"] + [
    f"specpoly.{m.name}" for m in pkgutil.iter_modules(specpoly.__path__) if not m.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_each_module_list_once():
    lists = [
        importlib.import_module(f"specpoly.{m}").__all__
        for m in ("ratpoly", "operator", "eigen", "families", "weights", "quadrature", "orthogonality")
    ]
    assert specpoly.__all__ == [name for names in lists for name in names]
    assert len(set(specpoly.__all__)) == len(specpoly.__all__)


def test_package_import_leaves_out_the_cli():
    # a fresh interpreter: this one may already have imported specpoly.cli
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, specpoly; print(sorted({'argparse', 'specpoly.cli'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_the_surface_is_pinned():
    assert specpoly.__all__ == SURFACE and len(SURFACE) == 37
    assert [n for n in NOT_EXPORTED if n in specpoly.__all__ or hasattr(specpoly, n)] == []
