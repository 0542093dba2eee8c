import json
from fractions import Fraction as F

import mpmath
import pytest

from compspec.cli import main
from compspec.continuation import evaluate, globalize
from compspec.symbols import parse_rhs, parse_symbol
from compspec.taxonomy import ClassificationReport


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_band_quadratic_json(self, capsys):
        code, out = run_cli(capsys, "classify", "--symbol", "-x^2+1.5*x",
                            "--interval", "(-inf,inf)", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "Prop 4.4"
        assert doc["sigma"] == {"kind": "all_plane"}
        assert doc["sigma_p"] == {"kind": "finite", "values": ["1"]}

    def test_round_trip(self, capsys):
        for symbol in ("-x^2+4*x", "1/2*arctan(x)", "x+1", "-x"):
            code, out = run_cli(capsys, "classify", "--symbol", symbol,
                                "--format", "json")
            assert code == 0
            doc = json.loads(out)
            report = ClassificationReport.from_json_dict(doc)
            assert report.to_json_dict() == doc

    def test_deterministic_output(self, capsys):
        runs = [run_cli(capsys, "classify", "--symbol", "-x^2+4*x",
                        "--format", "json")[1] for _ in range(2)]
        assert runs[0] == runs[1]

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "classify", "--symbol", "x^2")
        assert code == 0
        assert "case: Prop 3.12" in out


class TestSolve:
    def test_divergence_verdict(self, capsys):
        code, out = run_cli(capsys, "solve", "--symbol", "-x^2+x",
                            "--lambda", "2", "--gamma", "x", "--order", "30")
        assert code == 0
        assert "verdict: diverges" in out

    def test_head_coefficients_json(self, capsys):
        code, out = run_cli(capsys, "solve", "--symbol", "-x^2+x",
                            "--lambda", "2", "--gamma", "x", "--order", "5",
                            "--format", "json")
        doc = json.loads(out)
        assert doc["series"]["coeffs"] == ["0", "-1", "1", "-2", "7", "-34"]

    def test_resonance_exit_code(self, capsys):
        code = main(["solve", "--symbol", "1/2*x", "--lambda", "1/4",
                     "--gamma", "x^2", "--order", "4"])
        assert code == 2

    def test_section1_orientation(self, capsys):
        # f - (1/lam) f o phi = g  <=>  f(phi(x)) - lam f(x) = -lam*g.
        code, out = run_cli(capsys, "solve", "--symbol", "1/2*x",
                            "--lambda", "5", "--gamma", "1+x^2",
                            "--order", "2", "--orientation", "section1",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        base = [F(-1, 4), F(0), F(-4, 19)]
        assert [F(c) for c in doc["series"]["coeffs"]] == [-5 * c for c in base]


    def test_center_detection_asks_only_for_fixed_points(self, capsys,
                                                         monkeypatch):
        from compspec import rootwork

        def refuse(phi, *args):
            raise AssertionError("critical-point scan")

        monkeypatch.setattr(rootwork, "find_critical_points", refuse)
        code = main(["solve", "--symbol", "1/2*x", "--lambda", "5",
                     "--gamma", "1+x^2", "--order", "2"])
        assert code == 0
        assert "fixed point: 0" in capsys.readouterr().out


class TestEval:
    def test_exact_value_and_residual(self, capsys):
        code, out = run_cli(capsys, "eval", "--symbol", "1/2*x",
                            "--lambda", "5", "--gamma", "1+x^2",
                            "--at", "10", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "-1619/76"
        assert doc["trace"]["residual"] == "0"

    def test_arctan_residual_reported(self, capsys):
        code, out = run_cli(capsys, "eval", "--symbol", "1/2*arctan(x)",
                            "--lambda", "2", "--gamma", "1", "--at", "10",
                            "--precision", "256")
        assert code == 0
        assert "f(10) =" in out

    def test_value_printed_at_the_working_precision(self, capsys):
        code, out = run_cli(capsys, "eval", "--symbol", "1/2*arctan(x)",
                            "--lambda", "2", "--gamma", "x", "--at", "10",
                            "--precision", "256", "--format", "json")
        assert code == 0
        sol = globalize(parse_symbol("1/2*arctan(x)"), F(0), F(2),
                        parse_rhs("x"), order=24, precision=256)
        value, _ = evaluate(sol, F(10), precision=256)
        with mpmath.workprec(256):
            assert json.loads(out)["value"] == mpmath.nstr(value, 30)

    def test_rule_chain_and_depth_printed(self, capsys):
        code, out = run_cli(capsys, "eval", "--symbol", "1/2*arctan(x)",
                            "--lambda", "2", "--gamma", "1", "--at", "1000")
        assert code == 0
        assert "rules: forward-orbit (depth 1)" in out.splitlines()

    def test_basin_escape_exit_code(self, capsys):
        code = main(["eval", "--symbol", "x^2", "--lambda", "5",
                     "--gamma", "1", "--at", "2"])
        assert code == 2


class TestKoenigs:
    def test_series_output(self, capsys):
        code, out = run_cli(capsys, "koenigs", "--symbol", "1/2*x - x^2",
                            "--order", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["series"]["coeffs"][:3] == ["0", "1", "-4"]

    def test_eigenfunction_power(self, capsys):
        code, out = run_cli(capsys, "koenigs", "--symbol", "1/2*x",
                            "--order", "4", "--power", "3", "--format", "json")
        doc = json.loads(out)
        assert doc["series"]["coeffs"] == ["0", "0", "0", "1", "0"]


class TestOrbitCommand:
    def test_table(self, capsys):
        code, out = run_cli(capsys, "orbit", "--mu", "3", "--n", "3",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["points"][0]["x"] == "1.0"
        assert len(doc["points"]) == 3


class TestObstruct:
    def test_cubic_pieces(self, capsys):
        code, out = run_cli(capsys, "obstruct", "--symbol", "x^3",
                            "--lambda", "2",
                            "--pieces", "(-inf,0);(-1,1);(0,inf)",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NotSurjective"

    def test_union_piece_with_determining(self, capsys):
        code, out = run_cli(capsys, "obstruct", "--symbol", "-x^2+1.5*x",
                            "--lambda", "-1",
                            "--pieces",
                            "(-inf,1/2)+(1,inf)@(-inf,1/2);(0,3/2)",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "NotSurjective"

    def test_coverage_failure_is_math_error(self, capsys):
        code = main(["obstruct", "--symbol", "x^3", "--lambda", "2",
                     "--pieces", "(-inf,0);(0,inf)"])
        assert code == 2


class TestDemo45:
    def test_reference_margin(self, capsys):
        code, out = run_cli(capsys, "demo45", "--mu", "3", "--lambda", "-1/2",
                            "--k", "8", "--c", "1/8", "--n", "30",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["positive"] is True
        assert abs(float(doc["margin_bound"]) - 0.25) < 1e-9

    def test_bad_budget_usage_error(self, capsys):
        code = main(["demo45", "--mu", "3", "--lambda", "-1/2", "--k", "8",
                     "--c", "1/2", "--n", "30"])
        assert code == 1


class TestUsageErrors:
    def test_syntax_error_exit_one(self, capsys):
        assert main(["classify", "--symbol", "x ++ 2"]) == 1

    def test_missing_flag_exit_one(self, capsys):
        assert main(["solve", "--symbol", "x+1"]) == 1

    def test_constant_symbol_is_math_error(self, capsys):
        assert main(["classify", "--symbol", "5"]) == 2


class TestEnvironment:
    def test_precision_env_override(self, monkeypatch):
        from compspec.config import default_precision
        monkeypatch.setenv("COMPSPEC_PRECISION", "512")
        assert default_precision() == 512
        monkeypatch.setenv("COMPSPEC_PRECISION", "banana")
        with pytest.raises(ValueError, match="COMPSPEC_PRECISION='banana'"):
            default_precision()
        monkeypatch.delenv("COMPSPEC_PRECISION")
        assert default_precision() == 256

    @pytest.mark.parametrize("value", ["abc", "8", "-256", "1.5"])
    def test_bad_precision_env_is_a_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("COMPSPEC_PRECISION", value)
        code = main(["eval", "--symbol", "1/2*x", "--lambda", "3", "--gamma", "x",
                     "--at", "1/10"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"COMPSPEC_PRECISION={value!r}" in err


class TestComplexSolve:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_complex_lambda_with_numeric_gamma(self, capsys, fmt):
        # The solution series has mpc coefficients.
        code, out = run_cli(capsys, "solve", "--symbol", "1/2*x", "--lambda", "3+i",
                            "--gamma", "exp(x+1)", "--format", fmt)
        assert code == 0
        if fmt == "json":
            coeffs = json.loads(out)["series"]["coeffs"]
            assert coeffs[0][0] == "complex"
        else:
            assert "f_0 = (" in out


class TestEnclosureSerialization:
    def test_exact_rational_pair(self):
        from compspec import sturm
        from compspec.symbols import parse_symbol
        from compspec.rootwork import find_fixed_points
        recs = find_fixed_points(parse_symbol("x^5 - 3*x^3 + x + 1/7"))
        enclosures = [r.location for r in recs
                      if isinstance(r.location, sturm.Enclosure)]
        assert enclosures
        pair = enclosures[0].to_json_pair()
        assert F(pair[0]) < F(pair[1])
