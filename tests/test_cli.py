import json

import pytest

from specpoly.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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

    def test_operator_json_source(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"a": [["0"], ["0", "-2"], ["1", "0", "-1"]]}))
        data = run_json(capsys, "gram", "--operator-json", str(path), "--n-max", "3")
        assert data["family"] == "custom operator"
        assert data["off_diagonal_max_relative"] == 0.0

    @pytest.mark.parametrize(
        "source",
        [
            ("--preset", "laguerre"),
            ("--family", "hermite", "--alpha", "-1", "--beta", "3"),
            ("--family", "laguerre", "--alpha", "-3/2", "--beta", "7/3"),
            ("--family", "laguerre", "--alpha", "-1", "--beta", "1/2"),
        ],
    )
    def test_quadrature_converges_at_default_size(self, capsys, source):
        data = run_json(capsys, "gram", *source)
        assert [e["method"] for e in data["entries"]] == ["quadrature"] * 28
        assert data["off_diagonal_max_relative"] <= 1e-12

    @pytest.mark.parametrize(
        "source", [("laguerre", "8"), ("laguerre", "10"), ("laguerre", "14"), ("hermite", "14")]
    )
    def test_quadrature_refusal_is_domain_error(self, capsys, source):
        preset, n_max = source
        code, out, err = run(capsys, "gram", "--preset", preset, "--n-max", n_max)
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
    def test_missing_source_is_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--n-max", "3"])
        assert exc.value.code == 2

    def test_two_sources_is_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--preset", "legendre", "--family", "hermite"])
        assert exc.value.code == 2

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
    ])
    def test_malformed_operator_json_is_domain_error(self, capsys, tmp_path, payload, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "spectrum", "--operator-json", str(path), "--n-max", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("specpoly: error: ")
        assert f"{named} is not a list of rationals" in err

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

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "gram", "--operator-json", "/nonexistent.json")
        assert code == 1

    def test_negative_rational_flag_value(self, capsys):
        data = run_json(
            capsys, "spectrum", "--family", "romanovski", "--alpha", "-13/2",
            "--n-max", "1",
        )
        assert data["spectrum"][1]["eigenvalue_of_L"] == "-13/2"

    def test_byte_identical_output(self, capsys):
        args = ("gram", "--preset", "chebyshev1", "--n-max", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_tol_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECPOLY_TOL", "1e-6")
        data = run_json(capsys, "gram", "--preset", "chebyshev1", "--n-max", "2")
        assert data["off_diagonal_max_relative"] < 1e-5

    @pytest.mark.parametrize("source", ["env", "flag"])
    @pytest.mark.parametrize("tol", ["-1", "inf", "nan"])
    @pytest.mark.parametrize("command", ["gram", "romanovski-report"])
    def test_bad_tol_is_domain_error(self, capsys, monkeypatch, command, tol, source):
        args = {
            "gram": ["gram", "--preset", "chebyshev1", "--n-max", "3"],
            "romanovski-report": ["romanovski-report", "--alpha", "-13/2", "--n-max", "3"],
        }[command]
        if source == "env":
            monkeypatch.setenv("SPECPOLY_TOL", tol)
        else:
            args.append(f"--tol={tol}")
        code, out, err = run(capsys, *args)
        assert (code, out) == (1, "")
        assert "tolerance must be a finite positive number" in err
