import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from fractions import Fraction as F

import mpmath
import pytest

import compspec
from compspec.cli import main
from compspec.continuation import evaluate, globalize
from compspec.numbers import GaussianRational, parse_gaussian, scalar_from_json
from compspec.power_series import TruncatedSeries
from compspec.solver import solve_formal
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

    def test_a_32_digit_discriminant_is_bounded(self, capsys):
        # The fixed points are -1/2 +- sqrt(D)/2 for a 32-digit D, which
        # trial division alone would not split in time.
        def too_slow(signum, frame):
            raise TimeoutError("classify ran past 5 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            code, out = run_cli(capsys, "classify", "--symbol",
                                "x^2+x-100000000000000000000000000000007",
                                "--format", "json")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "Prop 4.5" and doc["certified"] is True
        assert ClassificationReport.from_json_dict(doc).to_json_dict() == doc


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

    def test_convergence_verdict_json(self, capsys):
        # f = -4/11 x^2 solves f(x/2) - 3 f(x) = x^2: no tail, no estimate.
        code, out = run_cli(capsys, "solve", "--symbol", "1/2*x", "--lambda", "3",
                            "--gamma", "x^2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["series"]["coeffs"][:3] == ["0", "0", "-4/11"]
        assert doc["radius"] == {"verdict": "converges", "radius_estimate": None}
        # Otherwise the estimate is the median root-test value |f_n|^(-1/n)
        # over the nonzero coefficients of the tail n >= order/2.
        code, out = run_cli(capsys, "solve", "--symbol", "1/2*arctan(x)", "--lambda", "2",
                            "--gamma", "x", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        coeffs = [F(c) for c in doc["series"]["coeffs"]]
        with mpmath.workprec(64):
            roots = sorted((abs(mpmath.mpf(c.numerator)) / c.denominator) ** (mpmath.mpf(-1) / n)
                           for n, c in enumerate(coeffs) if 2 * n >= len(coeffs) - 1 and c)
            median = mpmath.nstr(roots[len(roots) // 2], 12)
        assert doc["radius"] == {"verdict": "converges", "radius_estimate": median}

    def test_order_200_prints_and_reads_back(self, capsys):
        # Coefficients past 4300 digits: Python's default int/str limit.
        code, out = run_cli(capsys, "solve", "--symbol", "1/2*x+1/4*x^2", "--lambda", "3",
                            "--gamma", "x", "--order", "200", "--format", "json")
        assert code == 0
        series = TruncatedSeries.from_json_dict(json.loads(out)["series"])
        expected = solve_formal(parse_symbol("1/2*x+1/4*x^2"), F(0), F(3), parse_rhs("x"), 200)
        assert series == expected.series
        assert max(c.denominator for c in series.coeffs) > 10 ** 4300
        assert sys.get_int_max_str_digits() == 4300

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

    def test_numeric_multiplier_is_named(self, capsys):
        # The fixed point of -arctan(x)+1 comes from a scan, so its
        # multiplier is an mpf, not an enclosure.
        code = main(["obstruct", "--symbol", "-arctan(x)+1", "--lambda", "2",
                     "--pieces", "(-inf,inf)"])
        assert code == 2
        assert capsys.readouterr().err == (
            "UnresolvedVerdict: multiplier known only as an enclosure or "
            "numerically\n")


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


class TestMagnitudeBudget:
    """Towers of exp end in time: a report, or exit 2 with a typed message
    when an argument is past the magnitude budget."""

    @staticmethod
    def _classify(*args):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(compspec.__file__).parent.parent))
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "compspec.cli", "classify", *args],
                              env=env, capture_output=True, text=True, timeout=60)
        return done, time.perf_counter() - start

    @pytest.mark.parametrize("symbol", ["exp(exp(x))", "exp(x^3)", "sin(exp(exp(x)))",
                                        "exp(exp(exp(x)))"])
    def test_towers_finish(self, symbol):
        done, seconds = self._classify("--symbol", symbol)
        assert seconds < 5
        assert done.returncode == 0 and "case:" in done.stdout \
            or done.returncode == 2 and done.stderr.startswith("BudgetExceeded: ")

    def test_over_budget_self_map_check_exits_two(self):
        done, _ = self._classify("--symbol", "exp(exp(exp(x)))", "--interval", "(20,inf)")
        assert done.returncode == 2
        assert done.stderr.startswith("BudgetExceeded: exp of an argument of magnitude 2^")


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


    @pytest.mark.parametrize("argv", [
        ["koenigs", "--symbol", "1/2*arctan(x)", "--order", "8", "--precision", "-64"],
        ["eval", "--symbol", "1/2*arctan(x)", "--lambda", "2", "--gamma", "x",
         "--at", "1", "--precision", "-5"],
        ["solve", "--symbol", "1/2*x", "--lambda", "3", "--gamma", "x", "--precision", "15"],
        ["orbit", "--mu", "3", "--n", "3", "--precision", "0"],
        ["demo45", "--mu", "3", "--lambda", "-1/2", "--k", "8", "--c", "1/8",
         "--precision", "1.5"],
    ])
    def test_bad_precision_flag_is_a_usage_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"--precision={argv[-1]!r} is not an integer precision of at least 16 bits" \
            in captured.err

    def test_least_precision_flag_is_accepted(self, capsys):
        code, out = run_cli(capsys, "eval", "--symbol", "1/2*x", "--lambda", "5",
                            "--gamma", "1+x^2", "--at", "3/10", "--precision", "16")
        assert code == 0 and out.startswith("f(3/10) = -511/1900")

    def test_precision_above_the_ladder_ceiling(self, capsys):
        # f = -1/4 - 4/19 x^2 solves f(x/2) - 5 f(x) = 1 + x^2.
        code, out = run_cli(capsys, "eval", "--symbol", "1/2*x", "--lambda", "5",
                            "--gamma", "1+x^2", "--at", "3/10", "--precision", "5000")
        assert code == 0 and out.startswith("f(3/10) = -511/1900")


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


class TestComplexEval:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_numeric_complex_value(self, capsys, fmt):
        code, out = run_cli(capsys, "eval", "--symbol", "1/2*arctan(x)",
                            "--lambda", "2+i", "--gamma", "x", "--at", "5",
                            "--format", fmt)
        assert code == 0
        text = json.loads(out)["value"] if fmt == "json" \
            else out.splitlines()[0].removeprefix("f(5) = ")
        sol = globalize(parse_symbol("1/2*arctan(x)"), F(0), GaussianRational(2, 1),
                        parse_rhs("x"), order=24, precision=256)
        value, _ = evaluate(sol, F(5), precision=256)
        with mpmath.workprec(256):
            real, imag = mpmath.nstr(value.real, 30), mpmath.nstr(value.imag, 30)
        assert text == f"{real}+{imag}i" or text == f"{real}{imag}i"
        # The printed form is one --lambda accepts.
        back = parse_gaussian(text)
        assert abs(complex(float(back.re), float(back.im)) - complex(value)) < 1e-12

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_exact_gaussian_value(self, capsys, fmt):
        # f = c*x^2 with c/4 - (2+i)*c = 1, so f(5) = -140/13 + 80/13 i.
        code, out = run_cli(capsys, "eval", "--symbol", "1/2*x", "--lambda", "2+i",
                            "--gamma", "x^2", "--at", "5", "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["value"] == "-140/13+80/13i"
        else:
            assert out.splitlines()[0] == "f(5) = -140/13+80/13i"


class TestIrrationalCentre:
    # 1/4*x^2 - 1/2 fixes 2 -+ sqrt(6); the attracting one, 2 - sqrt(6), is
    # the detected centre.
    @pytest.mark.parametrize("centre", [(), ("--center", "2-sqrt(6)")])
    def test_solve(self, capsys, centre):
        code, out = run_cli(capsys, "solve", "--symbol", "1/4*x^2-1/2", "--lambda", "3",
                            "--gamma", "x", "--order", "4", *centre)
        assert code == 0
        assert out.splitlines()[0] == "fixed point: 2-sqrt(6)"

    @pytest.mark.parametrize("centre", [(), ("--center", "2-sqrt(6)")])
    def test_koenigs(self, capsys, centre):
        code, out = run_cli(capsys, "koenigs", "--symbol", "1/4*x^2-1/2",
                            "--order", "4", *centre)
        assert code == 0
        assert out.splitlines()[0] == "linearizer at 2-sqrt(6):"

    def test_enclosure_fixed_point_needs_a_centre(self, capsys):
        # x^3 + x^2 + x - 1/3 has one real root, neither rational nor quadratic.
        code = main(["solve", "--symbol", "x^3+x^2+2*x-1/3", "--lambda", "3",
                     "--gamma", "x", "--order", "4"])
        assert code == 2
        assert "known only as an enclosure" in capsys.readouterr().err


class TestTranscendentalCentre:
    # 1/2*arctan(x) + 1/4 has one fixed point, u = 0.4694..., found only by
    # the sampled scan; solve and koenigs refine it by Newton steps.
    SYMBOL = "1/2*arctan(x)+1/4"

    @staticmethod
    def oracle():
        with mpmath.workprec(400):
            return mpmath.findroot(lambda x: mpmath.atan(x) / 2 + mpmath.mpf(1) / 4 - x,
                                   mpmath.mpf("0.47"))

    def test_solve(self, capsys):
        code, out = run_cli(capsys, "solve", "--symbol", self.SYMBOL, "--lambda", "3",
                            "--gamma", "x", "--order", "4")
        assert code == 0
        lines = out.splitlines()
        u = self.oracle()
        assert lines[0] == f"fixed point: {mpmath.nstr(u, 30)}"
        # f_0 = gamma(u) / (1 - lambda) = -u/2, to the 20 digits printed
        assert lines[2].startswith("  f_0 = ")
        with mpmath.workprec(128):
            assert abs(mpmath.mpf(lines[2].split("= ")[1]) + u / 2) < mpmath.mpf(10) ** -19
        assert len([line for line in lines if line.startswith("  f_")]) == 5

    def test_solve_json_series_is_numeric(self, capsys):
        code, out = run_cli(capsys, "solve", "--symbol", self.SYMBOL, "--lambda", "3",
                            "--gamma", "x", "--order", "4", "--format", "json")
        assert code == 0
        series = json.loads(out)["series"]
        assert series["center"] == ["float", mpmath.nstr(self.oracle(), 30)]
        assert [c[0] for c in series["coeffs"]] == ["float"] * 5

    def test_solve_json_keeps_the_exact_lambda(self, capsys):
        # The numeric jets are solved against a numeric copy of lambda; the
        # report keeps the lambda that was asked for.
        code, out = run_cli(capsys, "solve", "--symbol", self.SYMBOL, "--lambda", "3",
                            "--gamma", "x", "--order", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["lambda"] == "3"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_solve_multiplier_is_numeric(self, capsys, fmt):
        # phi'(u) = 1 / (2 (1 + u^2)), tagged as a float in JSON so that it
        # does not read back as an exact decimal.
        code, out = run_cli(capsys, "solve", "--symbol", self.SYMBOL, "--lambda", "3",
                            "--gamma", "x", "--order", "2", "--format", fmt)
        assert code == 0
        with mpmath.workprec(400):
            expected = mpmath.nstr(1 / (2 * (1 + self.oracle() ** 2)), 30)
        if fmt == "json":
            doc = json.loads(out)
            assert doc["multiplier"] == ["float", expected]
            assert isinstance(scalar_from_json(doc["multiplier"]), mpmath.mpf)
        else:
            assert out.splitlines()[1] == f"multiplier: {expected}"

    def test_koenigs(self, capsys):
        code, out = run_cli(capsys, "koenigs", "--symbol", self.SYMBOL, "--order", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"linearizer at {mpmath.nstr(self.oracle(), 30)}:"
        assert lines[1:3] == ["  f_0 = 0.0", "  f_1 = 1.0"]

    def test_eval_still_needs_an_exact_centre(self, capsys):
        code = main(["eval", "--symbol", self.SYMBOL, "--lambda", "3",
                     "--gamma", "x", "--at", "1/2"])
        assert code == 2
        assert "known only as an enclosure or numerically" in capsys.readouterr().err
