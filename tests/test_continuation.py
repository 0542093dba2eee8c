from fractions import Fraction as F

import mpmath
import pytest

from compspec.continuation import (evaluate, extend_forward,
                                   extend_inverse_branch, extend_mirror,
                                   globalize, orbit_sum_check, preimage_orbit,
                                   prop45_witness_demo, telescoping_check)
from compspec.errors import BasinEscape, BranchDomain, HypothesisViolation
from compspec.intervals import Interval
from compspec.numbers import to_mpf
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
        from compspec.continuation import _extend_forward_trace
        value, trace = _extend_forward_trace(halving_solution, F(1, 3), 64)
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
        import dataclasses
        from compspec.continuation import ForwardOrbitRule, GlobalSolution
        sol = globalize(parse_symbol("1/2*x"), F(0), F(5), parse_rhs("1"),
                        order=20)
        diverging = parse_symbol("x^2")
        local = dataclasses.replace(sol.local, phi=diverging)
        fake = GlobalSolution(local=local, core=Interval(F(-1, 2), F(1, 2)),
                              rules=(ForwardOrbitRule(diverging.domain),))
        with pytest.raises(BasinEscape):
            extend_forward(fake, F(2))

    def test_depth_cap_raises(self):
        # -x keeps the orbit of 2 bounded and outside the core forever, so
        # only the depth cap stops the walk.
        import dataclasses
        from compspec.continuation import ForwardOrbitRule, GlobalSolution
        sol = globalize(parse_symbol("1/2*x"), F(0), F(5), parse_rhs("1"),
                        order=20)
        flipping = parse_symbol("-x")
        local = dataclasses.replace(sol.local, phi=flipping)
        fake = GlobalSolution(local=local, core=Interval(F(-1, 2), F(1, 2)),
                              rules=(ForwardOrbitRule(flipping.domain),))
        with pytest.raises(BasinEscape, match="within 10000 steps"):
            extend_forward(fake, F(2))

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

    @pytest.mark.parametrize("text,center", [("-x^2+3/2*x", F(1, 2)),
                                             ("1/2*x-x^2", F(0))])
    def test_basin_check_rejects_escaping_quadratics(self, text, center):
        # Orbits of x < 0 escape to -inf; the certified basin check says so
        # without computing exact roots of huge quadratic radicands.
        with pytest.raises(HypothesisViolation, match="not attracted"):
            globalize(parse_symbol(text), center, F(2), parse_rhs("x"),
                      order=24, precision=256)


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
