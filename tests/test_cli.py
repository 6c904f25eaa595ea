import gc
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import specpoly.orthogonality as orthogonality
from specpoly._record import Record
from specpoly.cli import main
from specpoly.eigen import EigenResult
from specpoly.operator import DiffOperator
from specpoly.orthogonality import OrthoReport, RomanovskiReport
from specpoly.weights import WeightExpr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# the operator-source group every command but romanovski-report takes, in --help order
SOURCE_OPTIONS = ["--preset", "--family", "--eps", "--alpha", "--beta", "--operator-json"]


def child_env() -> dict[str, str]:
    """This process's environment, with the tested src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def _refuse(*args, **kwargs):
    raise AssertionError("built an output format the call does not print")


UNSCALED_NOTE = (
    "nonzero off-diagonal entries without a scale (a diagonal norm diverges), "
    "which the max relative skips: "
)


class TestSpectrum:
    def test_chaudhry_qadir_table(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--preset", "chaudhry-qadir", "--n-max", "4",
            "--format", "table",
        )
        assert code == 0
        for value in ("0", "-1", "-4", "-9", "-16"):
            assert value in out

    def test_json_has_both_sign_conventions(self, capsys):
        data = run_json(
            capsys, "spectrum", "--preset", "legendre", "--n-max", "2"
        )
        assert data["spectrum"][2] == {
            "degree": 2,
            "eigenvalue_of_L": "-6",
            "lambda_ode_convention": "6",
        }
        assert data["distinct"] is True

    def test_family_source_with_rational_flags(self, capsys):
        data = run_json(
            capsys, "spectrum", "--family", "jacobi", "--eps", "-1",
            "--alpha", "-2", "--beta", "0", "--n-max", "3",
        )
        assert [row["eigenvalue_of_L"] for row in data["spectrum"]] == ["0", "-2", "-6", "-12"]

    @pytest.mark.parametrize("source, collide", [
        (("--family", "jacobi", "--eps", "1", "--alpha", "-2"), True),  # mu_1 = mu_2 = -2
        (("--preset", "legendre"), False),
    ])
    def test_table_warns_of_collisions(self, capsys, source, collide):
        code, out, _ = run(capsys, "spectrum", *source, "--n-max", "3", "--format", "table")
        assert code == 0
        assert out.endswith("\nwarning: eigenvalue collisions present\n") == collide
        assert out.count("warning") == collide


class TestEigenfns:
    def test_legendre_monic_json(self, capsys):
        data = run_json(capsys, "eigenfns", "--preset", "legendre", "--n-max", "2")
        assert data["eigenfunctions"][2]["monic"] == ["-1/3", "0", "1"]
        assert data["eigenfunctions"][2]["status"] == "UniqueMonic"

    def test_degenerate_status_surfaces(self, capsys):
        data = run_json(
            capsys, "eigenfns", "--family", "jacobi", "--eps", "1",
            "--alpha", "-2", "--beta", "0", "--n-max", "2",
        )
        entry = data["eigenfunctions"][2]
        assert entry["status"] == "Degenerate"
        assert entry["eigenspace_dim"] == 2


class TestWeight:
    def test_romanovski_weight_fields(self, capsys):
        data = run_json(
            capsys, "weight", "--family", "romanovski", "--alpha", "-13/2",
            "--beta", "1",
        )
        assert data["quad_exp"] == "-17/4"
        assert data["arctan_coeff"] == "1"
        assert data["pearson"]["ok"] is True

    def test_json_key_order(self, capsys):
        data = run_json(
            capsys, "weight", "--family", "romanovski", "--alpha", "-13/2", "--beta", "1"
        )
        assert list(data) == [
            "constant", "power_factors", "quad_exp", "exp_poly", "arctan_coeff", "interval",
            "formula", "pearson",
        ]
        assert list(data["interval"]) == ["lo", "hi"]
        assert list(data["pearson"]) == ["ok", "symbolic_zero"]

    def test_table_format_prints_formula(self, capsys):
        code, out, _ = run(
            capsys, "weight", "--preset", "chaudhry-qadir", "--format", "table"
        )
        assert code == 0
        assert "|x - 1|^(-1)" in out
        assert "pass" in out


class TestGram:
    def test_legendre_gram_json(self, capsys):
        data = run_json(capsys, "gram", "--preset", "legendre", "--n-max", "4")
        off_diag = [e for e in data["entries"] if e["m"] != e["n"]]
        assert all(e["value"] == "0" and e["method"] == "exact" for e in off_diag)
        assert data["off_diagonal_max_relative"] == 0.0

    def test_json_key_order(self, capsys):
        data = run_json(capsys, "gram", "--preset", "legendre", "--n-max", "2")
        assert list(data) == [
            "family", "max_degree", "degrees", "weight", "interval", "entries",
            "off_diagonal_max_relative", "notes",
        ]
        for e in data["entries"]:
            assert list(e) == [
                "m", "n", "value", "method", "integrable", "err_est", "relative", "note"]

    def test_operator_json_source(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["0", "-2"], ["1", "0", "-1"]]}))
        data = run_json(capsys, "gram", "--operator-json", str(path), "--n-max", "3")
        assert data["family"] == "custom operator"
        assert data["off_diagonal_max_relative"] == 0.0

    def test_quadrature_converges_at_default_size(self, capsys):
        data = run_json(capsys, "gram", "--family", "hermite", "--alpha", "-1", "--beta", "3")
        assert [e["method"] for e in data["entries"]] == ["quadrature"] * 28
        assert data["off_diagonal_max_relative"] <= 1e-12

    # this stopped with NoConvergence while the stopping rule measured the error against
    # tanh-sinh stops each entry on its own error estimate, so a converged matrix can
    # still leave off-diagonals above tol in relative size; the report says how many
    def test_off_diagonal_above_tol_is_noted(self, capsys):
        argv = ("gram", "--family", "hermite", "--alpha", "-1", "--beta", "3", "--n-max", "20")
        data = run_json(capsys, *argv)
        above = [e["relative"] for e in data["entries"] if (e["relative"] or 0) > 1e-10]
        assert above and max(above) == data["off_diagonal_max_relative"]
        note = f"off-diagonal entries with relative above tol 1e-10: {len(above)}, max {max(above):.3e}"
        assert data["notes"] == [note]
        code, out, _ = run(capsys, *argv, "--format", "table")
        assert code == 0 and out.splitlines()[2] == f"note: {note}"

    def test_off_diagonals_within_tol_add_no_note(self, capsys):
        data = run_json(capsys, "gram", "--preset", "chebyshev1", "--n-max", "6")
        assert {e["method"] for e in data["entries"]} == {"quadrature"}
        assert 0 < data["off_diagonal_max_relative"] <= 1e-10 and data["notes"] == []
        code, out, _ = run(capsys, "gram", "--preset", "chebyshev1", "--n-max", "6", "--format", "table")
        assert code == 0 and "note:" not in out

    # |value|, which a true zero built from large terms cannot meet
    def test_quadrature_converges_at_larger_sizes(self, capsys):
        data = run_json(capsys, "gram", "--preset", "hermite", "--n-max", "14")
        assert {e["method"] for e in data["entries"]} == {"quadrature"}
        assert data["off_diagonal_max_relative"] <= 1e-12

    # laguerre(alpha, beta) has the weight x^e e^(-c x) on (0, inf), e = beta - 1 and
    # c = -alpha, and monic norms n! Gamma(n + e + 1) / c^(2n + e + 1).  Quadrature left
    # the preset's off-diagonals up to 3e-10 at --n-max 18 and stopped with NoConvergence
    # on the preset at 20 and on laguerre(-3/2, 7/3) at 18.
    @pytest.mark.parametrize(
        "source, e, c",
        [
            (("--preset", "laguerre"), 0, 1),
            (("--preset", "laguerre", "--n-max", "14"), 0, 1),
            (("--preset", "laguerre", "--n-max", "18"), 0, 1),
            (("--preset", "laguerre", "--n-max", "20"), 0, 1),
            (("--family", "laguerre", "--alpha", "-3/2", "--beta", "7/3"), 4 / 3, 3 / 2),
            (("--family", "laguerre", "--alpha", "-3/2", "--beta", "7/3", "--n-max", "18"), 4 / 3, 3 / 2),
            (("--family", "laguerre", "--alpha", "-1", "--beta", "1/2"), -1 / 2, 1),
        ],
    )
    def test_laguerre_takes_the_moment_route(self, capsys, source, e, c):
        data = run_json(capsys, "gram", *source)
        for entry in data["entries"]:
            m, n, value = entry["m"], entry["n"], entry["value"]
            assert (entry["method"], entry["err_est"]) == ("moment", None), (m, n)
            if m != n:
                assert value == entry["relative"] == 0.0, (m, n)
            else:
                norm = math.factorial(n) * math.gamma(n + e + 1) / c ** (2 * n + e + 1)
                assert abs(value - norm) <= 1e-13 * norm, n
        assert data["off_diagonal_max_relative"] == 0.0

    def test_laguerre_diverging_diagonal_has_no_relative(self, capsys):
        # weight |x|^(-1) e^(-x): p_0 = 1 has a divergent norm, and its pairs with the
        # others, which vanish at 0, have values but no scale to be relative to
        data = run_json(capsys, "gram", "--family", "laguerre", "--alpha", "-1", "--beta", "0", "--n-max", "4")
        entries = {(e["m"], e["n"]): e for e in data["entries"]}
        assert not entries[0, 0]["integrable"]
        for n in range(1, 5):
            assert entries[0, n]["method"] == "moment" and entries[0, n]["value"] != 0.0
            assert entries[0, n]["relative"] is None
        assert data["off_diagonal_max_relative"] == 0.0

    # the max relative cannot see a nonzero off-diagonal without a scale, so a note
    # counts them; the Jacobi weight 1/(1 - x^2) diverges on the diagonals 0 and 1
    @pytest.mark.parametrize(
        "source, count",
        [
            (("--family", "laguerre", "--alpha", "-1", "--beta", "0", "--n-max", "4"), 4),
            (("--family", "laguerre", "--alpha", "2", "--beta", "-1", "--n-max", "4"), 6),
            (("--family", "jacobi", "--alpha", "0", "--beta", "0", "--n-max", "5"), 4),
        ],
    )
    def test_unscaled_off_diagonals_are_counted_in_a_note(self, capsys, source, count):
        data = run_json(capsys, "gram", *source)
        # exact values print as strings, so "0" is an exact zero
        unscaled = [e for e in data["entries"]
                    if e["m"] != e["n"] and e["value"] not in (None, 0.0, "0") and e["relative"] is None]
        assert len(unscaled) == count and data["notes"] == [UNSCALED_NOTE + str(count)]
        code, out, _ = run(capsys, "gram", *source, "--format", "table")
        assert code == 0 and out.splitlines()[2] == f"note: {UNSCALED_NOTE}{count}"

    @pytest.mark.parametrize(
        "source",
        [("--preset", "laguerre"), ("--preset", "chaudhry-qadir"),
         ("--family", "jacobi", "--alpha", "-5/2", "--beta", "-1/3"), ("--family", "romanovski", "--alpha", "-4")],
    )
    def test_scaled_off_diagonals_add_no_note(self, capsys, source):
        notes = run_json(capsys, "gram", *source, "--n-max", "5")["notes"]
        assert not any(note.startswith(UNSCALED_NOTE) for note in notes)

    @pytest.mark.parametrize("n_max, entries", [
        ("0", []),  # degree 0 is left out: no degree, no pair
        ("1", [{"m": 1, "n": 1, "value": "1/2", "method": "exact", "integrable": True,
                "err_est": None, "relative": None, "note": None}]),
    ])
    def test_chaudhry_qadir_smallest_sizes(self, capsys, monkeypatch, n_max, entries):
        # the certified regime at its division (1, 1) reads no eigenfunction, with or without
        # a pair to value
        def table(*args):
            raise AssertionError("built the eigentable")

        monkeypatch.setattr(orthogonality, "eigentable", table)
        data = run_json(capsys, "gram", "--preset", "chaudhry-qadir", "--n-max", n_max)
        assert data["degrees"] == list(range(1, int(n_max) + 1)) and data["entries"] == entries
        assert data["off_diagonal_max_relative"] is None

    def test_moment_overflow_is_domain_error(self, capsys, tmp_path):
        # (x - 1000) y'' + x y': weight |x - 1000|^999 e^x on (-inf, 1000), whose m_0 is
        # Gamma(1000) e^1000, far past a float's range
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["0", "1"], ["-1000", "1"]]}))
        code, out, err = run(capsys, "gram", "--operator-json", str(path), "--n-max", "2")
        assert code == 1 and out == ""
        assert err.startswith("specpoly: error: a moment entry on |x - 1000|^(999) * exp(x) overflows a float")

    @pytest.mark.parametrize("b, past", [
        (["801", "-1"], "underflows"), (["-799", "-1"], "overflows"),
    ])
    def test_moment_underflow_is_domain_error(self, capsys, tmp_path, b, past):
        # (x - 800) y'' + (801 - x) y': exp(-x) on (800, +inf), m_0 = e^-800, read every entry
        # as 0.000e+00, its norms too, and exited 0; its mirror (x + 800) y'' + (-799 - x) y',
        # exp(-x) on (-800, +inf) with m_0 = e^800, is refused as an overflow
        path = tmp_path / "op.json"
        a = ["-800", "1"] if past == "underflows" else ["800", "1"]
        path.write_text(json.dumps({"a": [["0"], b, a]}))
        code, out, err = run(capsys, "gram", "--operator-json", str(path), "--n-max", "2")
        assert (code, out) == (1, "")
        assert err == f"specpoly: error: a moment entry on exp(-x) {past} a float\n"

    def test_moment_entry_past_a_float_is_domain_error(self, capsys):
        # x y'' + (171 - x) y': weight x^170 e^(-x) on (0, inf), whose m_0 = 170! fits a float
        # but whose (1, 1) entry 171! does not, so the entry itself overflows, not the moment
        # ratios; an exact m_0 (ROADMAP item 8) would restate this
        code, out, err = run(capsys, "gram", "--family", "laguerre", "--alpha", "-1",
                             "--beta", "171", "--n-max", "1")
        assert (code, out) == (1, "")
        assert err == "specpoly: error: a moment entry on |x|^(170) * exp(-x) overflows a float\n"

    def test_exact_norms_past_a_float_keep_exact_relatives(self, capsys, tmp_path):
        # (x^2 - 10^6 x) y'' + (2x - 10^6) y': the weight 1 on (0, 10^6), whose exact monic
        # norm at n = 28 is past a float's range; --n-max 28 exited with an OverflowError
        # traceback
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["-1000000", "2"], ["0", "-1000000", "1"]]}))
        data = run_json(capsys, "gram", "--operator-json", str(path), "--n-max", "28")
        off = [e for e in data["entries"] if e["m"] != e["n"]]
        assert len(off) == 406 and data["notes"] == []
        assert all(e["method"] == "exact" and e["value"] == "0" and e["relative"] == 0.0 for e in off)
        assert data["off_diagonal_max_relative"] == 0.0
        norm = data["entries"][-1]
        assert (norm["m"], norm["n"]) == (28, 28)
        with pytest.raises(OverflowError):
            float(Fraction(norm["value"]))

    def test_exact_norms_below_a_float_keep_exact_relatives(self, capsys, tmp_path):
        # (x^2 - 10^-6 x) y'' + (2x - 10^-6) y': the weight 1 on (0, 10^-6), whose exact
        # monic norms from n = 15 on are below a float's smallest subnormal; 106 of the 406
        # exact-zero off-diagonals at --n-max 28 read relative null, for example (0, 25)
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["-1/1000000", "2"], ["0", "-1/1000000", "1"]]}))
        data = run_json(capsys, "gram", "--operator-json", str(path), "--n-max", "28")
        off = [e for e in data["entries"] if e["m"] != e["n"]]
        assert len(off) == 406 and data["notes"] == []
        assert all(e["method"] == "exact" and e["value"] == "0" and e["relative"] == 0.0 for e in off)
        assert data["off_diagonal_max_relative"] == 0.0
        norm = data["entries"][-1]
        assert (norm["m"], norm["n"]) == (28, 28) and float(Fraction(norm["value"])) == 0.0

    def test_half_line_without_exponential_is_non_integrable(self, capsys):
        # laguerre(0, 1) has the weight 1 on (0, inf): no pair is integrable
        data = run_json(capsys, "gram", "--family", "laguerre", "--alpha", "0", "--beta", "1", "--n-max", "3")
        assert data["interval"] == "(0, +inf)" and len(data["entries"]) == 10
        assert all(not e["integrable"] and e["value"] is None for e in data["entries"])

    # weights with exponent -2 or -3 at x = 1, where the eigenfunctions of degree >= 2 or
    # 3 vanish: these stopped with NoConvergence while Horner evaluated f near that root
    @pytest.mark.parametrize("alpha, beta", [("-1/3", "7/3"), ("1/2", "7/2"), ("2/3", "4/3")])
    def test_finite_end_root_converges(self, capsys, alpha, beta):
        data = run_json(
            capsys, "gram", "--family", "jacobi", "--alpha", alpha, "--beta", beta, "--n-max", "4"
        )
        off = [e for e in data["entries"] if e["m"] != e["n"] and e["relative"] is not None]
        assert off and all(e["relative"] <= 1e-10 for e in off)
        assert data["off_diagonal_max_relative"] <= 1e-10

    def test_quadrature_refusal_is_domain_error(self, capsys):
        code, out, err = run(capsys, "gram", "--family", "hermite", "--alpha", "-1", "--beta", "3", "--n-max", "24")
        assert code == 1 and out == ""
        assert err.startswith("specpoly: error: no convergence after 12 levels")


class TestRomanovskiReport:
    def test_report_flags(self, capsys):
        data = run_json(
            capsys, "romanovski-report", "--alpha", "-13/2", "--beta", "1",
            "--n-max", "5",
        )
        assert data["gamma"] == "-17/2"
        verdicts = {(p["m"], p["n"]): p["verdict"] for p in data["pairs"]}
        assert verdicts[(3, 4)] == "orthogonal"
        assert verdicts[(4, 5)] == "non-integrable"


    def test_json_key_order(self, capsys):
        data = run_json(
            capsys, "romanovski-report", "--alpha", "-6", "--beta", "0", "--n-max", "5"
        )
        assert list(data) == [
            "alpha", "beta", "gamma", "max_degree", "statuses", "degenerate_degree_pairs",
            "pairs",
        ]
        assert [3, 4] in data["degenerate_degree_pairs"]
        for p in data["pairs"]:
            assert list(p) == ["m", "n", "verdict", "value", "relative", "err_est", "detail"]


class TestNormalize:
    def test_round_trip_through_spectrum(self, capsys, tmp_path):
        # emit a normalized operator, then feed it back into spectrum
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["1", "1"], ["-8", "0", "2"]]}))
        data = run_json(capsys, "normalize", "--operator-json", str(path))
        assert data["normal_form"] == "x^2-1"
        assert data["s"] == "2" and data["c"] == "8"
        out_path = tmp_path / "normalized.json"
        out_path.write_text(json.dumps(data["operator"]))
        spectrum = run_json(
            capsys, "spectrum", "--operator-json", str(out_path), "--n-max", "3"
        )
        assert spectrum["spectrum"][2]["eigenvalue_of_L"]

    def test_preset_normalization(self, capsys):
        data = run_json(capsys, "normalize", "--preset", "legendre")
        assert data["normal_form"] == "x^2-1"
        assert data["eigenvalue_scale"] == "-1"
        assert data["operator"]["a"][2] == ["-1", "0", "1"]


class TestSchemas:
    TOP_LEVEL_KEYS = {
        "spectrum": {"operator", "n_max", "spectrum", "distinct", "multiplicity"},
        "eigenfns": {"operator", "n_max", "eigenfunctions"},
        "weight": {
            "constant",
            "power_factors",
            "quad_exp",
            "exp_poly",
            "arctan_coeff",
            "interval",
            "formula",
            "pearson",
        },
        "gram": {
            "family",
            "max_degree",
            "degrees",
            "weight",
            "interval",
            "entries",
            "off_diagonal_max_relative",
            "notes",
        },
        "normalize": {"s", "t", "c", "normal_form", "eigenvalue_scale", "operator"},
    }

    @pytest.mark.parametrize(
        "preset",
        ["legendre", "chebyshev1", "chebyshev2", "hermite", "laguerre", "chaudhry-qadir"],
    )
    @pytest.mark.parametrize("command", sorted(TOP_LEVEL_KEYS))
    def test_json_parses_for_every_command_and_preset(self, capsys, command, preset):
        argv = [command, "--preset", preset]
        if command in ("spectrum", "eigenfns", "gram"):
            argv += ["--n-max", "4"]
        data = run_json(capsys, *argv)
        assert set(data) == self.TOP_LEVEL_KEYS[command], command

    def test_gram_entry_keys(self, capsys):
        data = run_json(capsys, "gram", "--preset", "legendre", "--n-max", "2")
        for entry in data["entries"]:
            assert set(entry) == {
                "m",
                "n",
                "value",
                "method",
                "integrable",
                "err_est",
                "relative",
                "note",
            }

    def test_normalized_operator_accepted_everywhere(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["1", "1"], ["-8", "0", "2"]]}))
        data = run_json(capsys, "normalize", "--operator-json", str(path))
        out_path = tmp_path / "normalized.json"
        out_path.write_text(json.dumps(data["operator"]))
        for argv in (
            ["spectrum", "--operator-json", str(out_path), "--n-max", "3"],
            ["eigenfns", "--operator-json", str(out_path), "--n-max", "3"],
            ["weight", "--operator-json", str(out_path)],
            ["gram", "--operator-json", str(out_path), "--n-max", "3"],
            ["normalize", "--operator-json", str(out_path)],
        ):
            assert main(argv) == 0, argv
            capsys.readouterr()


class TestContract:
    # every command that takes an operator source; the source is resolved before any
    # other argument is checked
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n-max", "-1"],
        ["eigenfns", "--n-max", "-1"],
        ["gram", "--n-max", "-1"],
        ["gram", "--tol", "nan"],
        ["weight"],
        ["normalize"],
    ], ids=lambda argv: " ".join(argv))
    def test_missing_source_is_argument_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "provide exactly one of --preset, --family, --operator-json" in capsys.readouterr().err

    def test_two_sources_is_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--preset", "legendre", "--family", "hermite"])
        assert exc.value.code == 2

    def test_unknown_family_is_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--family", "bessel"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bessel'" in err
        assert "--family {jacobi,laguerre,hermite,romanovski,chaudhry-qadir}" in err

    @pytest.mark.parametrize("value", ["1/0", "abc"])
    def test_unparsable_rational_is_argument_error(self, capsys, value):
        # cli._fraction turns Fraction's ValueError and ZeroDivisionError into argparse's refusal
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--family", "romanovski", "--alpha", value, "--n-max", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --alpha: not a rational number: {value!r}" in err

    def test_invalid_operator_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"a": [["0"], ["0", "0", "1"]]}))  # deg(a_1)=2
        code, _, err = run(capsys, "spectrum", "--operator-json", str(path), "--n-max", "2")
        assert code == 1
        assert "degree" in err

    @pytest.mark.parametrize("payload, named", [
        ({"a": 5}, "5"),
        ({"a": [[None]]}, "[None]"),
        ({"a": [["1/0"]]}, "['1/0']"),
        ({"a": "123"}, "'123'"),
        ({"a": ["0", "12", "345"]}, "'0'"),
        ({"a": [{"1": 0}, ["0", "1"], ["1", "0", "-1"]]}, "{'1': 0}"),
        ({"a": [[True]]}, "[True]"),
        ({"a": [["0"], [float("inf")]]}, "[inf]"),
    ])
    def test_malformed_operator_json_is_domain_error(self, capsys, tmp_path, payload, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "spectrum", "--operator-json", str(path), "--n-max", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("specpoly: error: ")
        assert f"{named} is not a list of rationals" in err

    def test_operator_json_that_is_not_an_object_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2]))
        code, out, err = run(capsys, "spectrum", "--operator-json", str(path), "--n-max", "2")
        assert (code, out) == (1, "")
        assert err == 'specpoly: error: operator JSON must be an object with key "a"\n'

    def test_bessel_shape_weight_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["0", "1"], ["0", "0", "1"]]}))
        code, _, err = run(capsys, "weight", "--operator-json", str(path))
        assert code == 1
        assert "double root" in err

    def test_irrational_normalize_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["0"], ["-2", "0", "1"]]}))
        code, _, err = run(capsys, "normalize", "--operator-json", str(path))
        assert code == 1
        assert "irrational" in err

    @pytest.mark.parametrize("coeffs, reason", [
        # (2 - x^2) D^2 - 3x D
        ([["0"], ["0", "-3"], ["2", "0", "-1"]], "quadratic has irrational roots (discriminant 8)"),
        # (x^2 + 2) D^2
        ([["0"], ["0"], ["2", "0", "1"]],
         "quadratic is not rationally equivalent to x^2+1 (discriminant -8)"),
    ])
    def test_unnormalizable_quadratic_one_refusal(self, capsys, tmp_path, coeffs, reason):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": coeffs}))
        for argv in (
            ["gram", "--operator-json", str(path), "--n-max", "2"],
            ["weight", "--operator-json", str(path)],
            ["normalize", "--operator-json", str(path)],
        ):
            assert run(capsys, *argv) == (1, "", f"specpoly: error: {reason}\n"), argv

    def test_shifted_complex_quadratic_says_normalize_first(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["0", "1"], ["2", "-2", "1"]]}))  # (x-1)^2 + 1
        code, _, err = run(capsys, "gram", "--operator-json", str(path), "--n-max", "2")
        assert code == 1
        assert "normalize first" in err
        data = run_json(capsys, "normalize", "--operator-json", str(path))
        assert data["normal_form"] == "x^2+1"

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "gram", "--operator-json", "/nonexistent.json")
        assert code == 1

    @pytest.mark.parametrize("text, reason", [
        (json.dumps({"a": [["0"], ["0", "0"], []]}), "operator has no nonzero coefficients"),
        ("a: [[0], [1]]\n", "Expecting value: line 1 column 1 (char 0)"),
    ], ids=["all-zero", "not-json"])
    def test_unusable_operator_file_is_domain_error(self, capsys, tmp_path, text, reason):
        # EmptyOperator and json's JSONDecodeError, both ValueErrors, exit 1 with the reason
        path = tmp_path / "op.json"
        path.write_text(text)
        code, out, err = run(capsys, "spectrum", "--operator-json", str(path), "--n-max", "2")
        assert (code, out, err) == (1, "", f"specpoly: error: {reason}\n")

    def test_negative_rational_flag_value(self, capsys):
        data = run_json(
            capsys, "spectrum", "--family", "romanovski", "--alpha", "-13/2",
            "--n-max", "1",
        )
        assert data["spectrum"][1]["eigenvalue_of_L"] == "-13/2"

    # argparse takes a value that starts with "-" for an option unless it looks
    # like a negative number: every form Fraction parses must, signed or not
    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "-5."), ("--alpha", "-1e1"), ("--beta", "-2.5e-1"), ("--alpha", "-.5"),
        ("--alpha", "5."), ("--alpha", "1e1"),
    ])
    def test_decimal_and_exponent_flag_values(self, capsys, flag, value):
        source = ("spectrum", "--family", "romanovski", "--n-max", "2")
        code, out, err = run(capsys, *source, flag, value)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, *source, f"{flag}={value}")
        assert run(capsys, *source, flag, value, "--n-max", "-1") == (
            1, "", "specpoly: error: n must be >= 0\n")

    def test_byte_identical_output(self, capsys):
        args = ("gram", "--preset", "chebyshev1", "--n-max", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_tol_env_var_is_ignored(self, capsys, monkeypatch):
        # the tolerance has one source, --tol: a tolerance no sweep meets changes nothing
        args = ("gram", "--preset", "chebyshev1", "--n-max", "3")
        monkeypatch.delenv("SPECPOLY_TOL", raising=False)
        plain = run(capsys, *args)
        monkeypatch.setenv("SPECPOLY_TOL", "1e-300")
        assert run(capsys, *args) == plain
        assert plain[0] == 0 and plain[1]

    # one route each: quadrature, exact, moment, and a Gram matrix with no entry
    @pytest.mark.parametrize("source", [
        ("--preset", "chebyshev1", "--n-max", "3"),
        ("--preset", "legendre", "--n-max", "3"),
        ("--family", "romanovski", "--alpha", "-13/2", "--n-max", "3"),
        ("--preset", "chaudhry-qadir", "--n-max", "0"),
    ], ids=lambda source: " ".join(source))
    @pytest.mark.parametrize("tol", ["-1", "inf", "nan"])
    def test_bad_tol_is_domain_error(self, capsys, tol, source):
        code, out, err = run(capsys, "gram", *source, f"--tol={tol}")
        assert (code, out) == (1, "")
        assert err == f"specpoly: error: tol must be a finite positive number, not {float(tol)}\n"

    @pytest.mark.parametrize("argv, message", [
        (("spectrum", "--preset", "legendre"), "n must be >= 0"),
        (("eigenfns", "--preset", "legendre"), "n must be >= 0"),
        (("gram", "--preset", "legendre"), "n must be >= 0"),
        (("gram", "--family", "romanovski", "--alpha", "-13/2"), "n must be >= 0"),
        (("romanovski-report", "--alpha", "-13/2"), "n must be >= 0"),
    ], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
    def test_negative_n_max_is_domain_error(self, capsys, argv, message):
        # one degree check, the operator matrix's, gives every command its text
        assert run(capsys, *argv, "--n-max", "-1") == (1, "", f"specpoly: error: {message}\n")

    def test_negative_n_max_on_operator_json_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["0", "-2"], ["1", "0", "-1"]]}))  # Legendre
        code, out, err = run(capsys, "gram", "--operator-json", str(path), "--n-max", "-1")
        assert (code, out, err) == (1, "", "specpoly: error: n must be >= 0\n")

    def test_weight_of_higher_order_operator_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["0"], ["0"], ["1"]]}))  # the third derivative
        code, out, err = run(capsys, "weight", "--operator-json", str(path))
        assert (code, out) == (1, "")
        assert err == "specpoly: error: weight derivation requires a second-order operator\n"

    @pytest.mark.parametrize("command, options", [
        ("spectrum", ["--n-max", "--format", *SOURCE_OPTIONS]),
        ("eigenfns", ["--n-max", "--format", *SOURCE_OPTIONS]),
        ("weight", ["--format", *SOURCE_OPTIONS]),
        ("gram", ["--n-max", "--format", "--tol", *SOURCE_OPTIONS]),
        ("romanovski-report", ["--alpha", "--beta", "--n-max", "--format"]),
        ("normalize", ["--format", *SOURCE_OPTIONS]),
    ])
    def test_help_renders(self, capsys, command, options):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: specpoly {command}")
        # the option strings of each help entry in the order shown, read without
        # the layout, which differs between Python versions
        shown = []
        for line in re.sub(r"\x1b\[[\d;]*m", "", out).splitlines():
            if line.startswith("  -"):
                shown += re.findall(r"(?:^|, )(--?[a-z][\w-]*)", line[2:].split("  ")[0])
        assert shown == ["-h", "--help", *options]
        if command == "gram":
            assert "quadrature tolerance (default 1e-10)" in out

    def test_romanovski_report_requires_alpha(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["romanovski-report", "--beta", "1/2"])
        assert exc.value.code == 2
        assert "the following arguments are required: --alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("gram", "--preset", "legendre"),
        ("romanovski-report", "--alpha", "-13/2"),
    ], ids=" ".join)
    def test_json_call_builds_no_table(self, capsys, monkeypatch, argv):
        for report in (OrthoReport, RomanovskiReport):
            monkeypatch.setattr(report, "format_table", _refuse)
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--preset", "legendre"),
        ("eigenfns", "--preset", "legendre"),
        ("weight", "--preset", "legendre"),
        ("gram", "--preset", "legendre"),
        ("romanovski-report", "--alpha", "-13/2"),
        ("normalize", "--preset", "legendre"),
    ], ids=" ".join)
    def test_table_call_builds_no_json(self, capsys, monkeypatch, argv):
        for cls in (Record, DiffOperator, EigenResult, WeightExpr):
            monkeypatch.setattr(cls, "to_json", _refuse)
        assert run(capsys, *argv, "--format", "table")[0] == 0


    @pytest.mark.parametrize(
        "command", ["spectrum", "eigenfns", "weight", "normalize", "romanovski-report"]
    )
    def test_tol_only_where_quadrature_runs(self, capsys, command):
        # romanovski-report takes the moment route: no quadrature, no --tol
        source = ["--alpha", "-13/2"] if command == "romanovski-report" else ["--preset", "legendre"]
        with pytest.raises(SystemExit) as exc:
            main([command, *source, "--tol", "1e-8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_closed_stdout_is_not_an_error(self):
        # the reader closes the pipe before anything is written: every write fails
        proc = subprocess.Popen(
            [sys.executable, "-m", "specpoly", "eigenfns", "--preset", "legendre", "--n-max", "60"],
            env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")


class TestFamilySource:
    @pytest.mark.parametrize("command", ["gram", "spectrum"])
    def test_chaudhry_qadir_family_matches_preset(self, capsys, command):
        # the family flag and the preset name the same parameter-free operator
        by_family = run(capsys, command, "--family", "chaudhry-qadir", "--n-max", "5")
        by_preset = run(capsys, command, "--preset", "chaudhry-qadir", "--n-max", "5")
        assert by_family[0] == 0
        assert by_family == by_preset

    def test_jacobi_eps_defaults_to_minus_one(self, capsys):
        by_family = run(capsys, "spectrum", "--family", "jacobi", "--alpha", "-2", "--n-max", "4")
        assert by_family[0] == 0
        assert by_family == run(capsys, "spectrum", "--preset", "legendre", "--n-max", "4")

    # a parameter its source ignores is refused, not dropped
    @pytest.mark.parametrize("source", [
        ("--preset", "legendre", "--alpha", "5"),
        ("--preset", "chaudhry-qadir", "--eps", "1"),
        ("--operator-json", str(Path(__file__).parent / "golden" / "op.json"), "--beta", "1"),
    ], ids=lambda source: " ".join(source[::2]))
    def test_parameter_without_family_is_argument_error(self, capsys, source):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", *source])
        assert exc.value.code == 2
        assert "--alpha, --beta and --eps go with --family only" in capsys.readouterr().err

    @pytest.mark.parametrize("source, message", [
        (("--family", "laguerre", "--eps", "1"), "laguerre takes no eps"),
        (("--family", "romanovski", "--alpha", "-13/2", "--eps", "1"), "romanovski takes no eps"),
        (("--family", "chaudhry-qadir", "--alpha", "3"), "chaudhry-qadir takes no alpha or beta"),
        (("--family", "chaudhry-qadir", "--beta", "1/2"), "chaudhry-qadir takes no alpha or beta"),
    ], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
    def test_parameter_the_family_ignores_is_domain_error(self, capsys, source, message):
        code, out, err = run(capsys, "spectrum", *source, "--n-max", "2")
        assert (code, out, err) == (1, "", f"specpoly: error: {message}\n")


class TestColdStart:
    """`dataclasses` and `inspect` stay out of a command's process: their
    import was most of the package's start-up time."""

    @pytest.mark.parametrize(
        "entry",
        [
            "import specpoly.cli",
            # what `python -m specpoly spectrum --preset legendre` runs
            "sys.argv[1:] = ['spectrum', '--preset', 'legendre']; "
            "runpy.run_module('specpoly', run_name='__main__', alter_sys=True)",
        ],
        ids=["import", "spectrum"],
    )
    def test_no_dataclasses_or_inspect(self, entry):
        # the modules the entry imports, listed to stderr at exit
        probe = (
            "import atexit, runpy, sys; before = set(sys.modules); "
            "atexit.register(lambda: print(*sorted(set(sys.modules) - before), file=sys.stderr)); "
            + entry
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.split())
        assert "specpoly.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}


# a call that succeeds, a domain error and an argument error
EXIT_CASES = {
    "ok": ["gram", "--preset", "legendre", "--n-max", "4"],
    "domain error": ["gram", "--preset", "legendre", "--tol", "nan"],
    "argument error": ["spectrum", "--family", "bessel"],
}


class TestExit:
    """Only the process entry point, `python -m specpoly`, touches the collector: it
    freezes the heap once main has returned or raised, so the interpreter's shutdown
    skips its full collections.  An in-process main leaves the caller's collector alone."""

    @pytest.fixture(autouse=True)
    def _plain_stderr(self, monkeypatch):
        # argparse wraps usage to the terminal width and, from Python 3.14, may colour
        # it; both processes must print the same text
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("PYTHON_COLORS", "0")

    @staticmethod
    def in_process(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out.encode(), err

    @pytest.mark.parametrize("case", EXIT_CASES)
    def test_main_leaves_the_collector_alone(self, capsys, case):
        before = (gc.isenabled(), gc.get_freeze_count())
        code, _, _ = self.in_process(capsys, EXIT_CASES[case])
        assert code == {"ok": 0, "domain error": 1, "argument error": 2}[case]
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("case", EXIT_CASES)
    def test_process_matches_in_process_main(self, capsys, case):
        argv = EXIT_CASES[case]
        proc = subprocess.run(
            [sys.executable, "-m", "specpoly", *argv], env=child_env(),
            capture_output=True, timeout=60,
        )
        got = (proc.returncode, proc.stdout, proc.stderr.decode())
        assert got == self.in_process(capsys, argv)

    @pytest.mark.parametrize(
        "entry",
        [
            # python -m specpoly
            "runpy.run_module('specpoly', run_name='__main__', alter_sys=True)",
            # the installed `specpoly` script
            "from specpoly.__main__ import run; sys.exit(run())",
            # python -m specpoly.cli
            "runpy.run_module('specpoly.cli', run_name='__main__', alter_sys=True)",
        ],
        ids=["module", "script", "cli-module"],
    )
    def test_entry_point_freezes_before_exit(self, entry):
        # `specpoly spectrum --preset legendre`, with the frozen count read by an atexit
        # handler, after the entry point's finally
        probe = (
            "import atexit, gc, runpy, sys; "
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr)); "
            "sys.argv[1:] = ['spectrum', '--preset', 'legendre']; "
            + entry
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr) > 0
