import functools
import importlib.util
import json
import pathlib
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compspec import continuation
from compspec.config import default_precision
from compspec.continuation import (ForwardOrbitRule, GlobalSolution,
                                   InverseBranchRule, evaluate, extend_forward,
                                   extend_inverse_branch, extend_mirror,
                                   globalize, orbit_sum_check, preimage_orbit,
                                   prop45_witness_demo, telescoping_check)
from compspec.errors import (BasinEscape, BranchDomain, CompspecError,
                             HypothesisViolation, PrecisionLoss)
from compspec.intervals import Interval
from compspec.numbers import (GaussianRational, is_exact, is_rational, quadratic,
                              to_mpf, to_numeric)
from compspec.power_series import TruncatedSeries
from compspec.record import replace
from compspec.symbols import AnalyticSymbol, parse_rhs, parse_symbol


@pytest.fixture(scope="module")
def halving_solution():
    return globalize(parse_symbol("1/2*x"), F(0), F(5), parse_rhs("1+x^2"),
                     order=20)


@pytest.fixture(scope="module")
def arctan_solution():
    return globalize(parse_symbol("1/2*arctan(x)"), F(0), F(2), parse_rhs("1"),
                     order=20, precision=256)


@pytest.fixture(scope="module")
def parabolic_solution():
    return globalize(parse_symbol("-x^2+x"), F(0), F(2), parse_rhs("1"),
                     order=20, precision=256)


class TestForwardExtension:
    def test_polynomial_closed_form_exact(self, halving_solution):
        for x in (F(10), F(-10), F(100), F(-100)):
            assert extend_forward(halving_solution, x) == F(-1, 4) - F(4, 19) * x * x

    def test_core_point_is_depth_zero(self, halving_solution):
        value, trace = continuation._forward_walk(halving_solution, F(1, 3), 64)[:2]
        assert trace.depth == 0
        assert value == F(-1, 4) - F(4, 19) * F(1, 9)

    def test_arctan_residuals_at_256_bits(self, arctan_solution):
        bound = mpmath.mpf(2) ** -224
        for k in range(10):
            x = F(-10) + F(20 * k, 9)
            _value, trace = evaluate(arctan_solution, x, precision=256)
            residual = mpmath.mpf(trace.residual) if trace.residual not in ("", "0") \
                else mpmath.mpf(0)
            assert residual < bound

    def test_escape_raises(self):
        # Hand-build a solution object around the expanding map to check the
        # escape guard (the honest constructor would refuse it).
        from compspec.continuation import ForwardOrbitRule, GlobalSolution
        from compspec.record import replace
        sol = globalize(parse_symbol("1/2*x"), F(0), F(5), parse_rhs("1"),
                        order=20)
        diverging = parse_symbol("x^2")
        local = replace(sol.local, phi=diverging)
        fake = GlobalSolution(local=local, core=Interval(F(-1, 2), F(1, 2)),
                              rules=(ForwardOrbitRule(diverging.domain),))
        with pytest.raises(BasinEscape):
            extend_forward(fake, F(2))

    def test_depth_cap_raises(self):
        # -x keeps the orbit of 2 bounded and outside the core forever, so
        # only the depth cap stops the walk.
        from compspec.continuation import ForwardOrbitRule, GlobalSolution
        from compspec.record import replace
        sol = globalize(parse_symbol("1/2*x"), F(0), F(5), parse_rhs("1"),
                        order=20)
        flipping = parse_symbol("-x")
        local = replace(sol.local, phi=flipping)
        fake = GlobalSolution(local=local, core=Interval(F(-1, 2), F(1, 2)),
                              rules=(ForwardOrbitRule(flipping.domain),))
        with pytest.raises(BasinEscape, match="within 10000 steps"):
            extend_forward(fake, F(2))

    def test_escape_names_its_cause(self, parabolic_solution):
        # -x^2+x sends 10^6 to about -10^12, past the escape bound.
        with pytest.raises(BasinEscape,
                           match="passed the escape bound after 1 steps"):
            extend_forward(parabolic_solution, F(10 ** 6))

    def test_globalize_refuses_divergent_series(self):
        with pytest.raises(HypothesisViolation):
            globalize(parse_symbol("-x^2+x"), F(0), F(2), parse_rhs("x"),
                      order=20)

    def test_globalize_refuses_non_attracted_domain(self):
        with pytest.raises(HypothesisViolation):
            globalize(parse_symbol("x^2"), F(0), F(5), parse_rhs("1"), order=20)

    def test_globalize_asks_core_invariance_once(self, monkeypatch):
        calls = []
        original = AnalyticSymbol.maps_into

        def counting(self, source, targets, samples):
            calls.append((source, tuple(targets), samples))
            return original(self, source, targets, samples)

        monkeypatch.setattr(AnalyticSymbol, "maps_into", counting)
        sol = globalize(parse_symbol("1/2*arctan(x)"), F(0), F(2),
                        parse_rhs("x"), order=20)
        assert sol.basin.status == "sampled-true"
        assert calls.count((sol.core, (sol.core,), 128)) == 1

    @staticmethod
    def record_cores(monkeypatch):
        cores, original = [], continuation._core_invariant

        def spy(phi, core, c, parabolic):
            cores.append(core)
            return original(phi, core, c, parabolic)

        monkeypatch.setattr(continuation, "_core_invariant", spy)
        return cores

    def test_globalize_halves_the_core_until_it_is_invariant(self, monkeypatch):
        # f(x) = x solves f(phi(x)) - 2 f(x) = phi(x) - 2x, so the series
        # tail vanishes and the core starts at radius 1.  phi = x/2 + 2x^2
        # fixes 1/4 and maps 1/2 to 3/4: only the third core is invariant.
        cores = self.record_cores(monkeypatch)
        sol = globalize(parse_symbol("1/2*x+2*x^2"), F(0), F(2),
                        parse_rhs("-3/2*x+2*x^2"), check_basin=False)
        assert cores == [Interval(-1, 1), Interval(F(-1, 2), F(1, 2)),
                         Interval(F(-1, 4), F(1, 4))]
        assert sol.core == cores[-1]
        for x in (F(1, 5), F(-1, 3), F(-2, 5)):
            assert evaluate(sol, x)[0] == x

    def test_globalize_gives_up_on_a_repelling_fixed_point(self, monkeypatch):
        # phi'(0) = 2 + 1/2 = 5/2: no small interval around 0 is invariant.
        cores = self.record_cores(monkeypatch)
        with pytest.raises(HypothesisViolation,
                           match="could not certify an invariant core"):
            globalize(parse_symbol("1/2*arctan(4*x)+1/2*x-x^3"), F(0), F(2),
                      parse_rhs("x"), check_basin=False)
        radii = [core.upper for core in cores]
        assert len(radii) > 1 and radii[1:] == [r / 2 for r in radii[:-1]]
        assert radii[-1] / 2 < continuation._HARD_FLOOR <= radii[-1]

    @pytest.mark.parametrize("text,center", [("-x^2+3/2*x", F(1, 2)),
                                             ("1/2*x-x^2", F(0))])
    def test_basin_check_rejects_escaping_quadratics(self, text, center):
        # Orbits of x < 0 escape to -inf; the certified basin check says so
        # without computing exact roots of huge quadratic radicands.
        with pytest.raises(HypothesisViolation, match="not attracted"):
            globalize(parse_symbol(text), center, F(2), parse_rhs("x"),
                      order=24, precision=256)


class TestIrrationalCentre:
    # 1/4*x^2 - 1/2 fixes 2 -+ sqrt(6); 2 - sqrt(6) is attracting and orbits
    # beyond 2 + sqrt(6) escape.
    def test_core_has_rational_ends_around_the_centre(self):
        domain = Interval(F(-4), F(4))
        phi = parse_symbol("1/4*x^2-1/2", domain)
        u = quadratic(2, -1, 6)
        core = globalize(phi, u, F(3), parse_rhs("x", domain)).core
        assert is_rational(core.lower) and is_rational(core.upper)
        assert core.contains(u)
        assert phi.maps_into(core, [core], 128)[0]

    def test_escape_on_the_real_line(self):
        with pytest.raises(HypothesisViolation, match="not attracted") as info:
            globalize(parse_symbol("1/4*x^2-1/2"), quadratic(2, -1, 6), F(3),
                      parse_rhs("x"))
        witness = F(str(info.value).rsplit("witness ", 1)[1].rstrip(")"))
        assert abs(witness) > quadratic(2, 1, 6)


class TestComplexLambda:
    @pytest.mark.parametrize("x", [F(3, 2), F(5), F(-40)])
    def test_gaussian_lambda_evaluates(self, x):
        # Real phi and gamma: the solution for the conjugate lambda is the
        # complex conjugate of the solution for lambda.
        values = []
        for lam in (GaussianRational(2, 1), GaussianRational(2, -1)):
            sol = globalize(parse_symbol("1/2*arctan(x)"), F(0), lam,
                            parse_rhs("x"), order=24, precision=256)
            value, trace = evaluate(sol, x, precision=256)
            assert float(trace.residual or 0) < 1e-60
            values.append(value)
        with mpmath.workprec(256):
            assert values[0].imag != 0
            assert abs(values[0] - mpmath.conj(values[1])) < mpmath.mpf(2) ** -200


class TestInverseBranch:
    def test_branch_values(self, parabolic_solution):
        rule = parabolic_solution.rules[1]
        with mpmath.workprec(64):
            assert abs(rule.branch(mpmath.mpf(1) / 4) - mpmath.mpf(1) / 2) < 1e-15
            assert abs(rule.branch(mpmath.mpf(-2)) - (-1)) < 1e-15

    def test_inverse_extension_constant_solution(self, parabolic_solution):
        v = extend_inverse_branch(parabolic_solution, F(-1), precision=256)
        assert abs(v - (-1)) < mpmath.mpf(2) ** -224

    def test_outside_region_rejected(self, parabolic_solution):
        with pytest.raises(BranchDomain):
            extend_inverse_branch(parabolic_solution, F(3), precision=64)


class TestMirror:
    def test_mirror_matches_forward_on_overlap(self, parabolic_solution):
        y = F(7, 10)
        mirrored = extend_mirror(parabolic_solution, y, precision=256)
        forward = extend_forward(parabolic_solution, y, precision=256)
        assert abs(to_mpf(mirrored) - to_mpf(forward)) < mpmath.mpf(2) ** -224

    def test_symmetric_rhs_kills_the_correction(self, parabolic_solution):
        # gamma constant is symmetric about the axis, so the mirror value is
        # exactly the reflected value.
        y = F(4, 5)
        lhs = extend_mirror(parabolic_solution, y, precision=192)
        rhs = evaluate(parabolic_solution, 1 - y, precision=192)[0]
        assert abs(to_mpf(lhs) - to_mpf(rhs)) < mpmath.mpf(2) ** -160
        # And the quadratic symmetric right-hand side has an identically
        # vanishing correction term.
        gamma = parse_rhs("(x - 1/2)^2")
        for y in (F(4, 5), F(13, 10), F(1, 2)):
            assert gamma.eval(1 - y) == gamma.eval(y)

    def test_identity_rhs_correction_formula(self):
        # The displayed mirror identity: for gamma = id, lambda = 2, the
        # correction at y = 7/10 is (gamma(3/10) - gamma(7/10))/2 = -1/5.
        gamma = parse_rhs("x")
        y = F(7, 10)
        correction = (gamma.eval(1 - y) - gamma.eval(y)) / F(2)
        assert correction == F(-1, 5)

    def test_axis_point_is_consistent(self, parabolic_solution):
        y = F(1, 2)
        mirrored = extend_mirror(parabolic_solution, y, precision=128)
        direct = extend_forward(parabolic_solution, y, precision=128)
        assert abs(to_mpf(mirrored) - to_mpf(direct)) < mpmath.mpf(2) ** -100

    def test_cross_rule_agreement_on_overlaps(self, parabolic_solution):
        bound = mpmath.mpf(2) ** -224
        overlap_fwd_inv = F(1, 5)   # in (0,1) and below 1/4: not in branch region
        fwd = extend_forward(parabolic_solution, overlap_fwd_inv, 256)
        assert abs(to_mpf(fwd) - (-1)) < bound
        for y in (F(3, 5), F(9, 10)):
            fwd = extend_forward(parabolic_solution, y, 256)
            mir = extend_mirror(parabolic_solution, y, 256)
            assert abs(to_mpf(fwd) - to_mpf(mir)) < bound


class TestOrbitSum:
    def test_exact_polynomial_zero_residual(self, halving_solution):
        assert orbit_sum_check(halving_solution, F(10), 5) == 0

    def test_zero_steps_identity(self, halving_solution):
        assert orbit_sum_check(halving_solution, F(10), 0) == 0

    def test_one_step_is_the_equation(self, halving_solution):
        assert orbit_sum_check(halving_solution, F(7, 3), 1) == 0

    def test_numeric_residual_small(self, arctan_solution):
        residual = orbit_sum_check(arctan_solution, F(3), 6, precision=256)
        assert residual < mpmath.mpf(2) ** -200


class TestTraces:
    @staticmethod
    def chain(sol, x, precision=256):
        trace = evaluate(sol, x, precision=precision)[1]
        return trace.rule_chain, trace.depth

    def test_core_point(self, arctan_solution):
        assert self.chain(arctan_solution, F(1, 10)) == (("series",), 0)

    def test_forward_orbit(self, arctan_solution):
        assert self.chain(arctan_solution, F(1000)) == (("forward-orbit",), 1)

    def test_inverse_branch(self, parabolic_solution):
        assert self.chain(parabolic_solution, F(-2)) == (("inverse-branch",), 2)

    def test_mirror(self, parabolic_solution):
        assert self.chain(parabolic_solution, F(3)) == (
            ("mirror", "inverse-branch"), 2)

    def test_exact_answer(self, halving_solution):
        assert self.chain(halving_solution, F(100)) == (
            ("exact", "forward-orbit"), 7)
        assert self.chain(halving_solution, F(1, 3)) == (("exact", "series"), 0)


class TestRoundedCoefficients:
    def test_numeric_evaluation_rounds_each_coefficient_once(self, monkeypatch):
        from compspec import power_series, symbols
        sol = globalize(parse_symbol("1/2*arctan(x)"), F(0), F(2), parse_rhs("x"),
                        order=24, precision=256)
        series, gamma = sol.local.series, sol.gamma.body.coeffs
        rounded = []

        def counting(module, name, read):
            original = getattr(module, name)

            def wrapper(*args):
                rounded.append((read(*args[:-1]), args[-1]))
                return original(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(power_series, "raw_addend", lambda c: c)
        counting(symbols, "raw_addend", lambda c: c)
        counting(symbols, "raw_ratio", F)
        # Points outside the core, whose residual passes at the first
        # precision: the series is read at 256 + 32 bits and gamma at
        # 256 + 32 + 24.
        points = [mpmath.mpf(1) + F(k, 4) for k in range(20)]
        for x in points:
            evaluate(sol, x, precision=256)
        assert sorted(rounded) == sorted(
            [(series.center, 288)] + [(c, 288) for c in series.coeffs]
            + [(c, 312) for c in gamma])
        # Another precision rounds each coefficient once more.
        for x in points:
            evaluate(sol, x, precision=512)
        assert len(rounded) == 2 * (len(series.coeffs) + 1 + len(gamma))

    def test_the_memo_is_not_part_of_the_series_value(self):
        sol = globalize(parse_symbol("1/2*arctan(x)"), F(0), F(2), parse_rhs("x"),
                        order=24, precision=256)
        series = sol.local.series
        fresh = type(series)(series.center, series.coeffs)
        with mpmath.workprec(288):
            series.eval(mpmath.mpf(1) / 3)
        assert series._rounded and not hasattr(fresh, "_rounded")
        assert series == fresh and hash(series) == hash(fresh)
        assert series.to_json_dict() == fresh.to_json_dict()


class TestPrecisionLadder:
    """evaluate doubles the precision until the residual passes, and stops
    once two rungs agree on a residual above the tolerance B."""

    @pytest.fixture(scope="class")
    def arctan_x(self):
        return globalize(parse_symbol("1/2*arctan(x)"), F(0), F(2),
                         parse_rhs("x"), order=24, precision=256)

    @staticmethod
    def ladder(monkeypatch, residual_at=None):
        """Record the precision of each numeric residual; residual_at(work)
        replaces the residual when given."""
        works = []
        original = continuation._residual_numeric

        def wrapper(sol, x, value, work, f_phi=None):
            works.append(work)
            if residual_at is None:
                return original(sol, x, value, work, f_phi)
            return residual_at(work)
        monkeypatch.setattr(continuation, "_residual_numeric", wrapper)
        return works

    @pytest.mark.parametrize("bits", [256, 1024])
    def test_truncation_residual_stops_after_two_rungs(self, arctan_x,
                                                       monkeypatch, bits):
        works = self.ladder(monkeypatch)
        with pytest.raises(PrecisionLoss) as err:
            evaluate(arctan_x, F(3, 40), precision=bits)
        assert works == [bits, 2 * bits]
        assert str(err.value) == (
            f"residual 1.9e-30 above tolerance 2^-{bits - 32}, "
            f"unchanged from {bits} to {2 * bits} bits")

    def test_rounding_dominated_first_rung_still_succeeds(self, arctan_x,
                                                          monkeypatch):
        tiny = mpmath.mpf(2) ** -300
        works = self.ladder(monkeypatch, lambda work: {
            256: mpmath.mpf(2) ** -100, 512: tiny}[work])
        value, trace = evaluate(arctan_x, F(3, 40), precision=256)
        assert works == [256, 512]
        assert trace.residual == mpmath.nstr(tiny, 8)
        # The value of the second rung, rounded to the requested precision.
        with mpmath.workprec(512 + 32):
            second = continuation._dispatch(arctan_x, F(3, 40), 512)[0]
        with mpmath.workprec(256):
            assert value == +second

    def test_residual_near_the_tolerance_keeps_climbing(self, arctan_x,
                                                       monkeypatch):
        # Two equal residuals between B and 2*B are no proof that more
        # bits cannot help, so the ladder runs to the ceiling.
        near = mpmath.mpf(3) / 2 * mpmath.mpf(2) ** -224
        works = self.ladder(monkeypatch, lambda work: near)
        with pytest.raises(PrecisionLoss,
                           match="^residual above tolerance at 4096 bits$"):
            evaluate(arctan_x, F(3, 40), precision=256)
        assert works == [256, 512, 1024, 2048, 4096]

    def test_unsettled_ladder_reaches_the_ceiling(self, arctan_x, monkeypatch):
        works = self.ladder(monkeypatch,
                            lambda work: work * mpmath.mpf(2) ** -100)
        with pytest.raises(PrecisionLoss,
                           match="^residual above tolerance at 4096 bits$"):
            evaluate(arctan_x, F(3, 40), precision=256)
        assert works == [256, 512, 1024, 2048, 4096]


    def test_precision_above_the_ceiling_runs_one_rung(self, arctan_x,
                                                       halving_solution,
                                                       monkeypatch):
        works = self.ladder(monkeypatch)
        # f = -1/4 - 4/19 x^2 solves f(x/2) - 5 f(x) = 1 + x^2 exactly.
        value, trace = evaluate(halving_solution, F(3, 10), precision=5000)
        assert value == F(-511, 1900) and trace.residual == "0"
        assert works == []
        with pytest.raises(PrecisionLoss,
                           match="^residual above tolerance at 5000 bits$"):
            evaluate(arctan_x, F(3, 40), precision=5000)
        assert works == [5000]


class TestPreimageOrbit:
    def test_first_point_and_closed_form(self):
        orbit = preimage_orbit(F(3), 2, precision=128)
        assert orbit[0] == 1
        with mpmath.workprec(128):
            expected = (3 - mpmath.sqrt(5)) / 2
            assert abs(orbit[1] - expected) < mpmath.mpf(2) ** -120

    def test_strictly_decreasing_with_ratio_bound(self):
        for mu in (F(5, 2), F(3), F(5)):
            orbit = preimage_orbit(mu, 30, precision=128)
            with mpmath.workprec(128):
                bound = 2 / mpmath.mpf(mu.numerator) * mu.denominator
                for a, b in zip(orbit, orbit[1:]):
                    assert b < a
                    assert b / a < bound

    def test_ratio_tends_to_reciprocal(self):
        orbit = preimage_orbit(F(3), 40, precision=256)
        with mpmath.workprec(256):
            assert abs(orbit[-1] / orbit[-2] - mpmath.mpf(1) / 3) < 1e-6

    def test_forward_reiteration_returns_to_fixed_point(self):
        phi = parse_symbol("-x^2+3*x")
        orbit = preimage_orbit(F(3), 40, precision=512)
        with mpmath.workprec(512):
            x = orbit[-1]
            for _ in range(40):
                x = phi.eval(x, precision=512)
            assert abs(x - 2) < mpmath.mpf(10) ** -20

    def test_rejects_narrow_parameter(self):
        with pytest.raises(ValueError):
            preimage_orbit(F(2), 5)


class TestTelescoping:
    def test_attracting_wide_quadratic(self):
        # mu = 5/2 < 3: the inner fixed point mu - 1 attracts (0, mu), so a
        # genuine global solution exists on that invariant interval.
        mu = F(5, 2)
        phi = parse_symbol("-x^2+2.5*x", Interval(0, mu))
        gamma = parse_rhs("x", Interval(0, mu))
        sol = globalize(phi, mu - 1, F(3), gamma, order=40, precision=256,
                        core_radius=F(1, 64))
        residual = telescoping_check(sol, mu, 12, precision=256)
        assert residual < mpmath.mpf(2) ** -180


class TestWitnessDemo:
    def test_reference_margins(self):
        report = prop45_witness_demo(F(3), F(-1, 2), 8, F(1, 8), 30,
                                     precision=256)
        assert report.positive
        assert abs(mpmath.mpf(report.margin_bound) - F(1, 4)) < 1e-10
        assert mpmath.mpf(report.margin_actual) > 0

    def test_rejects_large_budget(self):
        with pytest.raises(ValueError):
            prop45_witness_demo(F(3), F(-1, 2), 8, F(1, 6), 30)

    def test_rejects_lambda_one(self):
        with pytest.raises(ValueError):
            prop45_witness_demo(F(3), F(1), 8, F(1, 8), 30)

    def test_rejects_large_lambda(self):
        with pytest.raises(ValueError):
            prop45_witness_demo(F(3), F(2), 8, F(1, 8), 30)

    def test_narrow_parameter_rejected(self):
        with pytest.raises(ValueError):
            prop45_witness_demo(F(2), F(-1, 2), 8, F(1, 8), 30)


# Values of the benchmark's eight orbit equations at the points of seeds 1
# and 900001 (the parabolic rule points included), at 64, 256 and 1024
# bits: evaluate and the three rule engines, each as repr(value) and trace
# or as the error it raises.  Recorded before the raw-tuple Horner kernel,
# which must reproduce them bit for bit.  A change that moves these values
# on purpose re-records each entry's results with orbit_values.
ORBIT_VALUES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "orbit_values.json").read_text())

_ENGINES = {"evaluate": continuation.evaluate,
            "extend_forward": lambda sol, x, bits:
                continuation._forward_walk(sol, x, bits)[:2],
            "extend_inverse_branch": continuation._extend_inverse_trace,
            "extend_mirror": continuation._extend_mirror_trace}


@functools.cache
def orbit_solution(eq):
    text, center, lam, gamma, check_basin = ORBIT_VALUES["equations"][eq]
    return globalize(parse_symbol(text), F(center), F(lam), parse_rhs(gamma),
                     order=24, precision=256, check_basin=check_basin)


def orbit_values(eq, x, bits) -> dict:
    out = {}
    for name, engine in _ENGINES.items():
        try:
            value, trace = engine(orbit_solution(eq), x, bits)
        except CompspecError as exc:
            out[name] = {"error": type(exc).__name__, "message": str(exc)}
            continue
        # Every value carries at most bits + 32 bits, so this repr reads
        # back to the same number.
        with mpmath.workprec(bits + 64):
            out[name] = {"value": repr(value), "trace": trace.to_json_dict()}
    return out


class TestPinnedOrbitValues:
    @pytest.mark.parametrize("entry", ORBIT_VALUES["values"],
                             ids=lambda e: f"{e['equation']}@{e['point']}/{e['bits']}")
    def test_orbit_values_unchanged(self, entry):
        assert orbit_values(entry["equation"], F(entry["point"]),
                            entry["bits"]) == entry["results"]

    def test_pins_cover_every_engine_and_outcome(self):
        results = [r for e in ORBIT_VALUES["values"] for r in e["results"].values()]
        assert len(ORBIT_VALUES["equations"]) == 8
        assert {e["bits"] for e in ORBIT_VALUES["values"]} == {64, 256, 1024}
        assert {r["error"] for r in results if "error" in r} >= {
            "PrecisionLoss", "BasinEscape", "BranchDomain", "ReflectedUncovered"}
        assert any(r["value"].startswith("mpf(") for r in results if "value" in r)
        assert any(r["value"].startswith("Fraction(") for r in results if "value" in r)


class TestResidualReusesTheWalk:
    """Outside the core, evaluate's residual takes f(phi(x)) from the walk
    that produced the value instead of walking phi(x) into the core again."""

    @pytest.fixture(scope="class")
    def arctan_small_core(self):
        # A core of radius 1/8 gives 1/2*arctan(x) orbits of depth 1 to 4.
        return globalize(parse_symbol("1/2*arctan(x)"), F(0), F(2),
                         parse_rhs("x"), order=24, precision=256,
                         core_radius=F(1, 8))

    @staticmethod
    def count(monkeypatch, sol):
        """Record the points of phi.eval and of the series reads of sol."""
        calls = {"phi": [], "series": []}
        phi_eval, series_eval = AnalyticSymbol.eval, TruncatedSeries.eval

        def counting_phi(self, x, precision=None):
            if self is sol.phi:
                calls["phi"].append(x)
            return phi_eval(self, x, precision)

        def counting_series(self, x):
            if self is sol.local.series:
                calls["series"].append(x)
            return series_eval(self, x)

        monkeypatch.setattr(AnalyticSymbol, "eval", counting_phi)
        monkeypatch.setattr(TruncatedSeries, "eval", counting_series)
        return calls

    @pytest.mark.parametrize("x,depth", [(F(3, 2), 1), (F(3), 2), (F(-7), 3),
                                         (F(100), 7)])
    def test_exact_walk_is_not_repeated(self, halving_solution, monkeypatch,
                                        x, depth):
        calls = self.count(monkeypatch, halving_solution)
        _value, trace = evaluate(halving_solution, x)
        assert trace == continuation.EvalTrace(("exact", "forward-orbit"),
                                               depth, "0")
        assert len(calls["phi"]) == depth and len(calls["series"]) == 1

    @pytest.mark.parametrize("x,depth", [(F(1, 5), 1), (F(1, 2), 2), (F(1), 3),
                                         (F(3), 4)])
    def test_numeric_walk_is_not_repeated(self, arctan_small_core, monkeypatch,
                                          x, depth):
        calls = self.count(monkeypatch, arctan_small_core)
        _value, trace = evaluate(arctan_small_core, x, precision=256)
        assert (trace.rule_chain, trace.depth) == (("forward-orbit",), depth)
        assert len(calls["phi"]) == depth and len(calls["series"]) == 1

    @pytest.mark.parametrize("x,walk,rules", [
        (F(-2), (F(-2), 256), ["inverse-branch"]),
        (F(3), (F(-2), 288), ["mirror", "inverse-branch"])])
    def test_inverse_branch_walk_is_not_repeated(self, monkeypatch, x, walk,
                                                 rules):
        # The inverse-branch engine answers an exact point numerically, so
        # the exact path falls through to the numeric residual of the first
        # rung, which walks only phi(x) = -6.
        walks = []
        original = continuation._extend_inverse_trace

        def spy(sol, y, precision):
            walks.append((y, precision))
            return original(sol, y, precision)
        monkeypatch.setattr(continuation, "_extend_inverse_trace", spy)
        value, trace = evaluate(orbit_solution("parabolic-l2"), x, precision=256)
        assert walks == [walk, (-6, 256)]
        with mpmath.workprec(320):
            assert repr(value) == "mpf('-1.0')"
        assert trace.to_json_dict() == {"rules": rules, "depth": 2,
                                        "residual": "0.0"}

    def test_in_core_residual_reads_the_series_at_phi_x(self, halving_solution,
                                                        arctan_solution,
                                                        monkeypatch):
        calls = self.count(monkeypatch, halving_solution)
        evaluate(halving_solution, F(1, 3))
        assert calls == {"phi": [F(1, 3)], "series": [F(1, 3), F(1, 6)]}
        with mpmath.workprec(288):
            x = to_mpf(F(1, 3))
            phi_x = arctan_solution.phi.eval(x, precision=288)
        calls = self.count(monkeypatch, arctan_solution)
        _value, trace = evaluate(arctan_solution, F(1, 3), precision=256)
        assert trace.depth == 0
        assert calls == {"phi": [x], "series": [x, phi_x]}

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_escape_bound_is_unchanged(self, halving_solution, bits):
        # The bound once rounded each Fraction endpoint of the core itself.
        sol = replace(halving_solution, core=Interval(F(-1, 3), F(2, 7)))
        with mpmath.workprec(bits):
            for x in (F(0), F(-7, 3), F(10 ** 6), mpmath.mpf(1) / 3):
                scale = abs(to_mpf(x)) + abs(to_mpf(F(sol.core.upper))) \
                    + abs(to_mpf(F(sol.core.lower)))
                old = 4 * scale + mpmath.mpf(2) ** 20
                assert continuation._escape_bound(sol, x)._mpf_ == old._mpf_

    def test_exactness_of_the_solution_is_read_once(self, halving_solution,
                                                    monkeypatch):
        checks = []
        original = TruncatedSeries.is_exact
        monkeypatch.setattr(TruncatedSeries, "is_exact",
                            lambda self: checks.append(self) or original(self))
        sol = replace(halving_solution)
        for x in (F(1, 3), F(3), F(100), mpmath.mpf(3)):
            evaluate(sol, x)
        assert checks == [sol.local.series]
        assert "_exact_data" in vars(sol)
        fresh = replace(halving_solution)
        assert "_exact_data" not in vars(fresh)
        assert sol == fresh and hash(sol) == hash(fresh)
        assert repr(sol) == repr(fresh)


# The residual of evaluate before it reused the walk: f(phi(x)) always
# from a second dispatch at phi(x).


def _rewalk_residual_exact(sol, x, value, f_phi=None):
    phi_x = sol.phi.eval(x)
    f_phi = continuation._dispatch(sol, phi_x, default_precision())[0]
    return f_phi - sol.lam * value - sol.gamma.eval(x)


def _rewalk_residual_numeric(sol, x, value, work, f_phi=None):
    with mpmath.workprec(work + 32):
        x_val = to_mpf(x)
        phi_x = sol.phi.eval(x_val, precision=work + 32)
        f_phi = continuation._dispatch(sol, phi_x, work)[0]
        lam = to_numeric(sol.lam)
        gamma_x = sol.gamma.eval(x_val, precision=work + 32)
        return f_phi - lam * value - gamma_x


def _benchmark_inputs():
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _benchmark_points():
    """(equation, point) of the benchmark's orbit inputs at seeds 2, 3, 7,
    the parabolic rule points included."""
    inputs, cases = _benchmark_inputs(), set()
    for seed in (2, 3, 7):
        data = inputs.orbit_inputs(seed)
        for eq, points in data["points"].items():
            cases.update((eq, x) for x in points)
        cases.update(("parabolic-l2", x)
                     for x in data["mirror"] + data["inverse"])
    return sorted(cases)


def _through(p, q, r):
    """The rational quadratic through three points (x, y), in Newton form."""
    (x0, y0), (x1, y1), (x2, y2) = p, q, r
    a1 = (y1 - y0) / (x1 - x0)
    a2 = ((y2 - y1) / (x2 - x1) - a1) / (x2 - x0)
    return AnalyticSymbol.from_coefficients(
        [y0 - a1 * x0 + a2 * x0 * x1, a1 - a2 * (x0 + x1), a2])


@functools.cache
def _guard_solution(kind):
    """Hand-built solutions around the halving equation where phi(x) falls
    first under an inverse-branch rule, under no rule, or where the orbit
    after phi(x) passes the escape bound of a walk from phi(x)."""
    sol = orbit_solution("halving-l5")
    if kind == "inverse":
        return replace(sol, rules=(
            InverseBranchRule(Interval(F(1), F(2)), lambda y: y / 2),
            ForwardOrbitRule(Interval.real_line())))
    if kind == "uncovered":
        return replace(sol, rules=(ForwardOrbitRule(Interval(F(4), F(16))),))
    # 2^22 -> 2 -> 2^21 -> 0: the bound at 2^22 is above 2^24, the bound
    # at 2 is about 2^20.
    phi = _through((F(2 ** 22), F(2)), (F(2), F(2 ** 21)), (F(2 ** 21), F(0)))
    return GlobalSolution(local=replace(sol.local, phi=phi), core=sol.core,
                          rules=(ForwardOrbitRule(phi.domain),))


# (label, solution key, point); the guard reuses f(phi(x)) for the first two.
_GUARD_CASES = (
    [("forward", "uncovered", F(k)) for k in (9, 12, 15)]
    + [("inverse", "inverse", F(k, 2)) for k in (5, 6, 7)]
    + [("uncovered", "uncovered", F(k)) for k in (5, 6, 7)]
    + [("far", "far", F(2 ** 22))])

# Exact points whose exact value gets an exact residual that comes out
# numeric, f(phi(x)) coming from the inverse-branch engine: at -99/100
# phi(x) = -1.9701 leaves the core (-1, 1), at 7/4 the mirror reads the
# core at -3/4 and phi(x) = -21/16.  No orbit point of the benchmark at
# seeds 1 and 900001 reaches this branch.
_EXACT_THEN_NUMERIC = (("parabolic-l2", F(-99, 100)), ("parabolic-l2", F(7, 4)),
                       ("inverse", "inverse", F(5, 2)))


def _two_path_evaluate(sol, x, precision):
    """evaluate as it was with an exact prologue ahead of the ladder, each
    dispatching x."""
    if continuation._exact_mode(sol, x):
        value, trace, f_next = continuation._dispatch(sol, x, precision)
        if is_exact(value):
            residual = continuation._residual_exact(sol, x, value, f_next)
            if is_exact(residual):
                if residual != 0:
                    raise PrecisionLoss("exact path produced a nonzero residual")
                return value, continuation.EvalTrace(
                    ("exact",) + trace.rule_chain, trace.depth, "0")
    work, previous = precision, None
    while work <= 4096:
        with mpmath.workprec(work + 32):
            value, trace, f_next = continuation._dispatch(sol, x, work)
            residual = continuation._residual_numeric(sol, x, value, work, f_next)
            bound = mpmath.mpf(2) ** (-(precision - 32))
            if abs(residual) < bound:
                with mpmath.workprec(precision):
                    return +value, continuation.EvalTrace(
                        trace.rule_chain, trace.depth, mpmath.nstr(abs(residual), 8))
            if previous is not None and abs(residual) > 2 * bound \
                    and abs(residual - previous) < bound / 4:
                raise PrecisionLoss(
                    f"residual {mpmath.nstr(abs(residual), 2)} above tolerance "
                    f"2^{32 - precision}, unchanged from {work // 2} to {work} bits")
            previous = residual
        work *= 2
    raise PrecisionLoss("residual above tolerance at 4096 bits")


class TestResidualReuseMatchesTheRewalk:
    def test_against_the_rewalk_oracle(self):
        seen = set()

        def outcome(sol, x, bits, engine=evaluate):
            try:
                value, trace = engine(sol, x, bits)
            except CompspecError as exc:
                return type(exc).__name__, str(exc)
            with mpmath.workprec(bits + 64):
                return repr(value), trace

        @settings(max_examples=250, deadline=None, derandomize=True,
                  database=None)
        @given(st.one_of(st.sampled_from(_benchmark_points()),
                         st.sampled_from(_GUARD_CASES)),
               st.sampled_from([64, 256, 1024]), st.booleans())
        def check(case, bits, numeric):
            if len(case) == 2:
                label, sol, x = None, orbit_solution(case[0]), case[1]
            else:
                label, sol, x = case[0], _guard_solution(case[1]), case[2]
            if numeric:
                x = to_mpf(x, bits)
            reused = []
            with pytest.MonkeyPatch.context() as patch:
                for name in ("_residual_exact", "_residual_numeric"):
                    def spy(*args, original=getattr(continuation, name)):
                        reused.append(args[-1] is not None)
                        return original(*args)
                    patch.setattr(continuation, name, spy)
                got = outcome(sol, x, bits)
            assert got == outcome(sol, x, bits, _two_path_evaluate)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(continuation, "_residual_exact",
                              _rewalk_residual_exact)
                patch.setattr(continuation, "_residual_numeric",
                              _rewalk_residual_numeric)
                assert got == outcome(sol, x, bits)
            if label is None and isinstance(got[1], continuation.EvalTrace):
                trace = got[1]
                if trace.rule_chain[-1] == "forward-orbit":
                    label = "core" if trace.depth == 1 else "forward"
            if label is not None:
                assert reused[0] == (label in ("core", "forward"))
                seen.add(label)

        for case in _EXACT_THEN_NUMERIC:
            for bits in (64, 256, 1024):
                check = example(case, bits, False)(check)
        check()
        assert seen == {"core", "forward", "inverse", "uncovered", "far"}
