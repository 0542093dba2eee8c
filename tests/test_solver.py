import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from compspec.errors import (HypothesisViolation, NeutralOrSuperattracting,
                             ResonantEigenvalue, ZeroLambda)
from compspec.numbers import GaussianRational, quadratic
from compspec.power_series import Diverges, TruncatedSeries
from compspec.solver import (eigenfunction, koenigs, quadratic_id_recurrence,
                             schroeder_residual, smajdor_condition,
                             solve_formal)
from compspec.symbols import conjugate, parse_change, parse_rhs, parse_symbol


class TestSolveFormal:
    def test_linear_symbol_quadratic_rhs(self):
        sol = solve_formal(parse_symbol("1/2*x"), F(0), F(5),
                           parse_rhs("1+x^2"), 2)
        assert sol.series.coeffs == (F(-1, 4), F(0), F(-4, 19))
        assert all(c == 0 for c in sol.residual_series().coeffs)

    def test_resonance_detected(self):
        with pytest.raises(ResonantEigenvalue) as err:
            solve_formal(parse_symbol("1/2*x"), F(0), F(1, 4),
                         parse_rhs("x^2"), 2)
        assert err.value.order == 2

    def test_parabolic_identity_rhs(self):
        sol = solve_formal(parse_symbol("-x^2+x"), F(0), F(2), parse_rhs("x"), 3)
        assert sol.series.coeffs == (F(0), F(-1), F(1), F(-2))

    def test_zero_lambda_rejected(self):
        with pytest.raises(ZeroLambda):
            solve_formal(parse_symbol("1/2*x"), F(0), F(0), parse_rhs("x"), 2)

    def test_constant_term_formula(self):
        # f(u) = gamma(u) / (1 - lam) at every non-resonant lam
        sol = solve_formal(parse_symbol("-x^2+3*x"), F(2), F(7),
                           parse_rhs("x^2+1"), 4)
        assert sol.series.coeffs[0] == F(5) / (1 - 7)

    def test_gaussian_lambda_exact(self):
        lam = GaussianRational(0, 1)  # i
        sol = solve_formal(parse_symbol("1/2*x"), F(0), lam, parse_rhs("1+x"), 3)
        residual = sol.residual_series()
        assert all(c == 0 for c in residual.coeffs)
        # f(0) = gamma(0)/(1 - i) = (1 + i)/2
        assert sol.series.coeffs[0] == GaussianRational(F(1, 2), F(1, 2))

    def test_gaussian_lambda_with_numeric_jets(self):
        # sin is expanded off zero at the fixed point 1, so the jets are
        # numeric and the eigenvalue is carried as an mpc.
        phi = parse_symbol("1/2*x + 1/2 + 1/8*sin(x) - 1/8*sin(1)")
        sol = solve_formal(phi, F(1), GaussianRational(3, 1), parse_rhs("x"), 8)
        # f(1) = gamma(1)/(1 - (3 + i)) = (-2 + i)/5
        assert abs(sol.series.coeffs[0] - mpmath.mpc(-0.4, 0.2)) < 1e-15
        residual = sol.residual_series()
        assert max(abs(c) for c in residual.coeffs) < mpmath.mpf(2) ** -40

    @pytest.mark.parametrize("lam", [F(3), GaussianRational(3, 1)])
    def test_numeric_jets_solve_at_the_requested_precision(self, lam):
        # Numeric jets with an exact eigenvalue and right-hand side: the
        # triangular solve runs at 256 bits, not at the caller's 53.
        phi = parse_symbol("1/2*x + 1/2 + 1/8*sin(x) - 1/8*sin(1)")
        sol = solve_formal(phi, 1, lam, parse_rhs("x"), 8, precision=256)
        with mpmath.workprec(256):
            residual = sol.residual_series()
            assert max(abs(c) for c in residual.coeffs) < mpmath.mpf(2) ** -200

    @pytest.mark.parametrize("symbol, rhs", [("1/2*x", "exp(x+1)"),
                                             ("-x^2+x", "sin(x+1)")])
    def test_exact_phi_jet_with_numeric_gamma_jet(self, symbol, rhs):
        # The phi jet is exact and the gamma jet numeric: the solve runs on
        # the numeric image of both.
        sol = solve_formal(parse_symbol(symbol), 0, 3, parse_rhs(rhs), 8,
                           precision=256)
        with mpmath.workprec(256):
            residual = sol.residual_series()
            assert max(abs(c) for c in residual.coeffs) < mpmath.mpf(2) ** -200

    def test_residual_at_a_non_dyadic_exact_center(self):
        # The numeric phi jet is centred at the mpf image of 1/3, the
        # solution series at 1/3 itself.
        phi = parse_symbol("1/2*x + 1/6 + 1/8*sin(x) - 1/8*sin(1/3)")
        sol = solve_formal(phi, F(1, 3), 3, parse_rhs("x"), 8)
        assert sol.center == F(1, 3)
        with mpmath.workprec(256):
            residual = sol.residual_series()
            assert max(abs(c) for c in residual.coeffs) < mpmath.mpf(2) ** -200

    def test_fixed_point_checked_at_the_requested_precision(self):
        # |phi(u) - u| is about 4e-21: invisible at 53 bits, far above the
        # 2**-128 bound at 256.
        phi = parse_symbol("1/2*x + 1/2 + 1/8*sin(x) - 1/8*sin(1)")
        with pytest.raises(HypothesisViolation):
            solve_formal(phi, 1 + F(1, 10 ** 20), F(3), parse_rhs("x"), 8,
                         precision=256)

    def test_randomized_exact_residual_suite(self):
        # Polynomial symbols with a rational attracting fixed point at 0,
        # polynomial right-hand sides, rational lambda off the resonance
        # set: the residual vanishes identically through order 16.
        rng = random.Random(99)
        done = 0
        while done < 100:
            m = F(rng.randint(1, 9), 10)
            deg = rng.randint(2, 4)
            phi_coeffs = [F(0), m] + [F(rng.randint(-3, 3), rng.randint(1, 4))
                                      for _ in range(deg - 1)]
            phi = parse_symbol(_poly_text(phi_coeffs))
            gamma = parse_rhs(_poly_text(
                [F(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 5))]))
            lam = F(rng.randint(2, 30), rng.randint(1, 7))
            powers = {m ** n for n in range(17)}
            if lam in powers or lam == 0:
                continue
            sol = solve_formal(phi, F(0), lam, gamma, 16, estimate=False)
            assert all(c == 0 for c in sol.residual_series().coeffs)
            done += 1


def _poly_text(coeffs) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        term = f"{c}" if k == 0 else (f"{c}*x" if k == 1 else f"{c}*x^{k}")
        parts.append(term.replace("-", "- ") if False else term)
    text = " + ".join(parts) if parts else "0"
    return text.replace("+ -", "- ")


class TestQuadraticIrrationalCentre:
    """1/4*x^2 - 1/2 has the attracting fixed point u = 2 - sqrt(6)."""

    phi = parse_symbol("1/4*x^2-1/2")
    u = quadratic(2, -1, 6)

    @pytest.mark.parametrize("order", [16, 24])
    def test_radius_verdict_past_order_fifteen(self, order):
        sol = solve_formal(self.phi, self.u, F(3), parse_rhs("x"), order)
        assert sol.series.is_exact()
        assert not any(sol.residual_series().coeffs)
        assert sol.radius_verdict is not None

    def test_gaussian_lambda(self):
        lam = GaussianRational(3, 1)
        sol = solve_formal(self.phi, self.u, lam, parse_rhs("x"), 10,
                           precision=256)
        assert not sol.series.is_exact()
        with mpmath.workprec(256):
            assert all(abs(c) < mpmath.mpf(2) ** -240
                       for c in sol.residual_series().coeffs)

    def test_koenigs_series_json(self):
        sigma = koenigs(self.phi, self.u, 8)
        doc = sigma.to_json_dict()
        assert doc["center"] == "2-sqrt(6)"
        assert doc["coeffs"][2] == "-1/2-1/6*sqrt(6)"
        assert TruncatedSeries.from_json_dict(doc) == sigma


class TestQuadraticRecurrence:
    def test_frozen_head_lambda_two(self):
        assert quadratic_id_recurrence(F(2), 5) == [
            F(0), F(-1), F(1), F(-2), F(7), F(-34)]

    def test_lambda_minus_one(self):
        assert quadratic_id_recurrence(F(-1), 2) == [F(0), F(1, 2), F(1, 4)]

    def test_rejects_lambda_one(self):
        with pytest.raises(ResonantEigenvalue):
            quadratic_id_recurrence(F(1), 4)

    def test_sign_alternation(self):
        coeffs = quadratic_id_recurrence(F(2), 40)
        assert all((-1) ** n * coeffs[n] > 0 for n in range(1, 41))

    def test_factorial_growth_bound(self):
        coeffs = quadratic_id_recurrence(F(2), 40)
        assert all(abs(coeffs[n]) >= math.factorial(n - 1)
                   for n in range(2, 41))

    def test_oracle_agreement_with_solver(self):
        # Two independent code paths must agree coefficientwise.
        rng = random.Random(5)
        phi = parse_symbol("-x^2+x")
        ident = parse_rhs("x")
        for _ in range(20):
            lam = F(rng.randint(-40, 40), rng.randint(1, 9))
            if lam in (0, 1):
                continue
            direct = quadratic_id_recurrence(lam, 12)
            solved = solve_formal(phi, F(0), lam, ident, 12, estimate=False)
            assert direct == list(solved.series.coeffs)

    def test_divergence_verdict_at_order_forty(self):
        sol = solve_formal(parse_symbol("-x^2+x"), F(0), F(2), parse_rhs("x"), 40)
        assert isinstance(sol.radius_verdict, Diverges)


class TestSmajdor:
    def test_always_true_for_safe_lambda(self):
        assert all(smajdor_condition(F(2), F(1), 6))

    def test_single_failure_at_matching_power(self):
        flags = smajdor_condition(F(1, 8), F(1, 2), 5)
        assert flags == [True, True, True, False, True, True]

    def test_failure_at_order_zero(self):
        flags = smajdor_condition(F(1), F(1, 2), 3)
        assert flags == [False, True, True, True]

    def test_all_true_implies_solver_succeeds(self):
        lam, m = F(3, 5), F(1, 2)
        flags = smajdor_condition(lam, m, 8)
        assert all(flags)
        sol = solve_formal(parse_symbol("1/2*x - x^2"), F(0), lam,
                           parse_rhs("x+1"), 8, estimate=False)
        assert all(c == 0 for c in sol.residual_series().coeffs)


class TestKoenigs:
    def test_linear_is_identity(self):
        sigma = koenigs(parse_symbol("1/2*x"), F(0), 6)
        assert sigma.coeffs == (F(0), F(1), F(0), F(0), F(0), F(0), F(0))

    def test_quadratic_second_coefficient(self):
        sigma = koenigs(parse_symbol("1/2*x - x^2"), F(0), 8)
        assert sigma.coeffs[2] == F(-4)
        res = schroeder_residual(parse_symbol("1/2*x - x^2"), sigma, F(1, 2))
        assert all(c == 0 for c in res.coeffs)

    def test_arctan_exact_through_twenty(self):
        phi = parse_symbol("1/2*arctan(x)")
        sigma = koenigs(phi, F(0), 20)
        assert sigma.is_exact()
        res = schroeder_residual(phi, sigma, F(1, 2))
        assert all(c == 0 for c in res.coeffs)

    def test_rejects_neutral_and_superattracting(self):
        with pytest.raises(NeutralOrSuperattracting):
            koenigs(parse_symbol("-x^2+x"), F(0), 6)       # multiplier 1
        with pytest.raises(NeutralOrSuperattracting):
            koenigs(parse_symbol("x^2"), F(0), 6)          # multiplier 0
        with pytest.raises(NeutralOrSuperattracting):
            koenigs(parse_symbol("-x^2+4*x"), F(0), 6)     # multiplier 4

    def test_numeric_jets_at_the_requested_precision(self):
        phi = parse_symbol("1/2*x + 1/2 + 1/8*sin(x) - 1/8*sin(1)")
        sigma = koenigs(phi, 1, 12, precision=256)
        assert not sigma.is_exact()
        with mpmath.workprec(256):
            m = phi.jet(1, 1, precision=256).coeffs[1]
            res = schroeder_residual(phi, sigma, m, precision=256)
            assert max(abs(c) for c in res.coeffs) < mpmath.mpf(2) ** -200

    def test_radius_verdict_positive(self):
        from compspec.power_series import Converges, estimate_radius
        sigma = koenigs(parse_symbol("1/2*x - x^2"), F(0), 30)
        verdict = estimate_radius(sigma)
        assert isinstance(verdict, Converges)
        assert verdict.radius_estimate > 0

    def test_affine_functoriality(self):
        # koenigs(delta^-1 phi delta) equals koenigs(phi) o delta divided by
        # the affine slope, coefficientwise through order 12.
        phi = parse_symbol("1/2*x - x^2")
        delta = parse_change("2*x + 1")
        psi = conjugate(phi, delta)
        center = F(-1, 2)  # delta(-1/2) = 0
        lhs = koenigs(psi, center, 12)
        delta_jet = delta.forward.jet(center, 12)
        rhs = koenigs(phi, F(0), 12).compose(delta_jet) * F(1, 2)
        assert lhs.coeffs == rhs.coeffs


class TestEigenfunction:
    def test_monomial_eigenfunctions_of_halving(self):
        e3 = eigenfunction(parse_symbol("1/2*x"), F(0), 3, 6)
        assert e3.coeffs == (F(0),) * 3 + (F(1),) + (F(0),) * 3

    def test_power_zero_is_constant(self):
        e0 = eigenfunction(parse_symbol("1/2*arctan(x)"), F(0), 0, 5)
        assert e0.coeffs == (F(1),) + (F(0),) * 5

    def test_numeric_power_at_the_requested_precision(self):
        phi = parse_symbol("1/2*x + 1/2 + 1/8*sin(x) - 1/8*sin(1)")
        e = eigenfunction(phi, 1, 2, 12, precision=256)
        with mpmath.workprec(256):
            m = phi.jet(1, 1, precision=256).coeffs[1]
            res = schroeder_residual(phi, e, m ** 2, precision=256)
            assert max(abs(c) for c in res.coeffs) < mpmath.mpf(2) ** -200

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_arctan_eigenfunction_residuals(self, n):
        phi = parse_symbol("1/2*arctan(x)")
        e = eigenfunction(phi, F(0), n, 20)
        res = schroeder_residual(phi, e, F(1, 2) ** n)
        assert all(c == 0 for c in res.coeffs)


def test_solution_without_a_radius_estimate_writes_null():
    import json
    sol = solve_formal(parse_symbol("1/2*x"), F(0), 3, parse_rhs("x"), 20, estimate=False)
    assert sol.radius_verdict is None
    doc = sol.to_json_dict()
    assert doc["radius"] is None and '"radius": null' in json.dumps(doc)
