"""Byte-for-byte CLI output against committed golden files.

Each case runs ``cli.main`` in-process and compares its stdout with
``tests/golden/<name>.txt``.  The cases print exact rationals only (or
floats computed by IEEE arithmetic alone, such as a zero ``relative``):
``weight`` is left out because its ``max_residual`` samples through
``math.tan``, and so is every quadrature entry, because libm may differ in
the last digit between machines.

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
