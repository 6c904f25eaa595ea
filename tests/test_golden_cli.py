"""Byte-for-byte CLI output against committed golden files.

Each case runs ``cli.main`` in-process and compares its stdout with
``tests/golden/<name>.txt``.  The cases print exact rationals only (or
floats computed by IEEE arithmetic alone, such as a zero ``relative``).
``weight`` covers infinite intervals as well as finite ones: its Pearson
verdict is the exact identity, with no sampled float.  Every quadrature
entry is left out, and so is a Gram matrix on the moment route, whose
diagonals are ratios times a closed-form m_0.  In both, libm may differ in
the last digit between machines.  A Romanovski report prints no such float:
its valued pairs are exact zeros.

To regenerate after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from specpoly.cli import main

GOLDEN = Path(__file__).parent / "golden"
OP_JSON = str(GOLDEN / "op.json")  # the README's t(1-t) y'' + (1-t) y'

# weight (1-x)^1 (1+x)^2: integer exponents, so every Gram entry is exact
JACOBI = ("--family", "jacobi", "--alpha", "-5", "--beta", "1")

CASES = {
    # README examples
    "readme-spectrum-chaudhry-qadir-table": (
        "spectrum", "--preset", "chaudhry-qadir", "--n-max", "4", "--format", "table"),
    "readme-eigenfns-legendre": ("eigenfns", "--preset", "legendre", "--n-max", "8"),
    "readme-gram-legendre-table": (
        "gram", "--preset", "legendre", "--n-max", "8", "--format", "table"),
    "readme-normalize": ("normalize", "--operator-json", OP_JSON),
    # the table format of the commands whose README examples print JSON
    "eigenfns-legendre-table": (
        "eigenfns", "--preset", "legendre", "--n-max", "8", "--format", "table"),
    "weight-romanovski-13-2-table": (
        "weight", "--family", "romanovski", "--alpha", "-13/2", "--beta", "1/2",
        "--format", "table"),
    "normalize-table": ("normalize", "--operator-json", OP_JSON, "--format", "table"),
    # weight on finite intervals, half lines and the real line
    **{
        f"weight-{name}": ("weight", *source)
        for name, source in (
            ("legendre", ("--preset", "legendre")),
            ("chebyshev1", ("--preset", "chebyshev1")),
            ("chebyshev2", ("--preset", "chebyshev2")),
            ("chaudhry-qadir", ("--preset", "chaudhry-qadir")),
            ("hermite", ("--preset", "hermite")),
            ("laguerre", ("--preset", "laguerre")),
            ("jacobi-1-2", JACOBI),
            ("romanovski-13-2", ("--family", "romanovski", "--alpha", "-13/2", "--beta", "1/2")),
        )
    },
    # Romanovski reports on the moment route: every valued pair an exact 0.0
    **{
        f"romanovski-report-{name}{suffix}": (
            "romanovski-report", *params, "--n-max", "6", *fmt)
        for name, params in (
            ("15-2", ("--alpha", "-15/2", "--beta", "1/2")),
            # eigenvalue collisions and missing eigenfunctions
            ("7-0", ("--alpha", "-7", "--beta", "0")),
        )
        for suffix, fmt in (("", ()), ("-table", ("--format", "table")))
    },
    # JSON of the three exact commands
    **{
        f"{cmd}-{name}": (cmd, *source, "--n-max", "6")
        for cmd in ("spectrum", "eigenfns", "gram")
        for name, source in (
            ("legendre", ("--preset", "legendre")),
            ("chaudhry-qadir", ("--preset", "chaudhry-qadir")),
            ("jacobi-1-2", JACOBI),
        )
    },
}


def _stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = _stdout(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, out = _stdout(argv)
        assert code == 0, name
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
