import ast
import functools
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F
from math import gcd

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from compspec import sturm, symbols
from compspec.errors import (BudgetExceeded, CompspecError, ConstantSymbolError,
                             DegreeOverflow, DomainError, ExpressionSyntaxError,
                             InvarianceFailure, NotADiffeomorphism, OrbitEscape)
from compspec.intervals import NEG_INF, POS_INF, Interval, is_finite
from compspec.numbers import QuadraticNumber, as_exact, quadratic, raw_ratio, to_mpf
from compspec.numbers import raw_point as _raw_point
from compspec.power_series import TruncatedSeries
from compspec.rootwork import analyze_symbol
from compspec.symbols import (Add, AnalyticSymbol, Call, Diffeomorphism, Limit, Mul,
                              NoFixedPoints, Poly, Pow, _grid_pairs, compile_slope,
                              compile_tree, conjugate, fold,
                              identity_diffeomorphism, normalize_quadratic,
                              parse_change, parse_rhs, parse_symbol, tree_jet,
                              tree_limit)
from compspec.taxonomy import kernel_dim, spectrum


def reference_eval(node, x):
    """Object-level mpmath evaluation of a folded tree at an mpf or mpc
    point, inside the caller's workprec: the reference the compiled
    kernel must match bit for bit on real points."""
    if isinstance(node, Poly):
        acc = None
        for c in reversed(node.coeffs):
            acc = to_mpf(c) if acc is None else acc * x + c
        return acc
    if isinstance(node, Add):
        total = mpmath.mpf(0)
        for p in node.parts:
            total += reference_eval(p, x)
        return total
    if isinstance(node, Mul):
        total = mpmath.mpf(1)
        for p in node.parts:
            total *= reference_eval(p, x)
        return total
    if isinstance(node, Pow):
        return reference_eval(node.base, x) ** node.exponent
    fn = {"exp": mpmath.exp, "arctan": mpmath.atan, "sin": mpmath.sin}[node.fn]
    return fn(reference_eval(node.arg, x))


class TestParser:
    def test_polynomial_body(self):
        s = parse_symbol("-x^2 + 3/2*x")
        assert s.poly_coeffs() == [F(0), F(3, 2), F(-1)]

    def test_elementary_body(self):
        s = parse_symbol("1/2*arctan(x)")
        assert not s.is_polynomial()
        assert s.eval(F(0), precision=64) == 0

    def test_constant_rejected(self):
        with pytest.raises(ConstantSymbolError):
            parse_symbol("5")
        with pytest.raises(ConstantSymbolError):
            parse_symbol("x - x + 2")
        with pytest.raises(ConstantSymbolError):
            parse_symbol("exp(x) - exp(x) + x^0")

    def test_rhs_constant_allowed(self):
        g = parse_rhs("1")
        assert g.poly_coeffs() == [F(1)]

    def test_decimal_promotes_to_exact_rational(self):
        s = parse_symbol("-x^2+1.5*x")
        assert s.poly_coeffs() == [F(0), F(3, 2), F(-1)]

    def test_polynomial_after_folding(self):
        s = parse_symbol("(x+1)^2 - 2*x - 1 + sin(0)*x")
        assert s.poly_coeffs() == [F(0), F(0), F(1)]

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_symbol("x + * 2")
        assert err.value.position == 4
        with pytest.raises(ExpressionSyntaxError):
            parse_symbol("cos(x)")
        with pytest.raises(ExpressionSyntaxError):
            parse_symbol("x^(1/2)")

    def test_folding_respects_the_degree_cap(self):
        with pytest.raises(DegreeOverflow):
            parse_symbol("x^5000")

    def test_trailing_whitespace_is_ignored(self):
        s = parse_symbol(" -x^2 + 3/2*x \t\n")
        assert s.poly_coeffs() == [F(0), F(3, 2), F(-1)]
        assert str(s) == "-x^2 + 3/2*x"

    def test_text_or_else_the_body_names_a_symbol(self):
        # A symbol built from a tree, such as an affine conjugate, has no
        # text; its str is the repr of its body.
        psi = conjugate(parse_symbol("-x^2+2*x+1"), normalize_quadratic(-1, 2, 1).delta)
        assert psi.text is None
        assert str(psi) == repr(psi.body)
        assert repr(psi) == f"AnalyticSymbol({psi.body!r}, domain=(-inf,inf))"

    def test_division_only_in_rational_literals(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_symbol("x/2")
        assert parse_symbol("1/2*x").poly_coeffs() == [F(0), F(1, 2)]


class TestEval:
    def test_fixed_point_arithmetic(self):
        assert parse_symbol("-x^2+3*x").eval(F(2)) == F(2)

    def test_exp_at_zero(self):
        v = parse_symbol("exp(x)", require_self_map=False).eval(F(0), precision=64)
        assert v == 1

    def test_arctan_against_high_precision_oracle(self):
        # Independent oracle: pi/8 at 200 bits.
        s = parse_symbol("1/2*arctan(x)")
        v = s.eval(F(1), precision=64)
        with mpmath.workprec(200):
            oracle = mpmath.pi / 8
            assert abs(v - oracle) < mpmath.mpf(2) ** -56

    def test_domain_error(self):
        s = parse_symbol("-x^2+x", Interval(0, 1))
        with pytest.raises(DomainError):
            s.eval(F(2))


def schoolbook_poly_eval(coeffs, x, precision):
    """Independent oracle: Horner's rule on mpf objects at precision + 24
    bits, the leading coefficient read as mpf(p) / q (a quadratic number
    through its parts) and every other one converted by mpmath at each
    step, then rounded to precision."""
    def lead_mpf(c):
        if isinstance(c, QuadraticNumber):
            return lead_mpf(c.p) + lead_mpf(c.q) * mpmath.sqrt(c.d)
        return mpmath.mpf(F(c).numerator) / F(c).denominator

    with mpmath.workprec(precision + 24):
        acc = lead_mpf(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
    with mpmath.workprec(precision):
        return +acc


def _poly_symbol(coeffs):
    return AnalyticSymbol(Poly(tuple(coeffs)), Interval.real_line(),
                          require_self_map=False, require_nonconstant=False)


def _same_value(got, want):
    raw = "_mpc_" if isinstance(want, mpmath.mpc) else "_mpf_"
    return type(got) is type(want) and getattr(got, raw) == getattr(want, raw)


_WIDE = st.one_of(st.integers(-10 ** 40, 10 ** 40),
                  st.builds(F, st.integers(-10 ** 40, 10 ** 40),
                            st.integers(1, 2 ** 300)))
_COEFF = st.one_of(st.just(F(0)), st.fractions(-4, 4, max_denominator=6), _WIDE)


@st.composite
def _rational_poly(draw):
    """Ascending coefficients with zero entries and a nonzero lead."""
    coeffs = draw(st.lists(_COEFF, min_size=0, max_size=10))
    return [F(c) for c in coeffs] + [F(draw(_WIDE.filter(bool)))]


@st.composite
def _wide_point(draw, bits):
    """An mpf with up to 300 more mantissa bits than ``bits``."""
    man = draw(st.integers(-2 ** (bits + 300), 2 ** (bits + 300)))
    return mpmath.mp.make_mpf(from_man_exp(man, draw(st.integers(-bits - 340, 8))))


class TestPolynomialEval:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data(), _rational_poly(), st.integers(53, 4096))
    def test_raw_kernel_matches_schoolbook_value_type_and_bits(self, data, coeffs,
                                                               precision):
        phi = _poly_symbol(coeffs)
        x = data.draw(_wide_point(precision + 24))
        want = schoolbook_poly_eval(coeffs, x, precision)
        # The second call reads the coefficients rounded by the first.
        assert _same_value(phi.eval(x, precision), want), (coeffs, x)
        assert _same_value(phi.eval(x, precision), want)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_rational_poly(), st.fractions(-4, 4, max_denominator=6),
           st.integers(-3, 3), st.integers(1, 3), st.sampled_from([53, 256]))
    def test_generic_horner_matches_schoolbook(self, coeffs, q, re, im, precision):
        # mpc points, and quadratic-irrational coefficients at mpf points,
        # take the generic Horner, which reads as the schoolbook one.
        quad = [c + q * quadratic(0, 1, 2) for c in coeffs]
        with mpmath.workprec(precision):
            x, z = mpmath.mpf(re) / 7, mpmath.mpc(re, im) / 3
        cases = [(coeffs, z), (quad, x), (quad, z)]
        for cs, point in cases:
            got = _poly_symbol(cs).eval(point, precision)
            assert _same_value(got, schoolbook_poly_eval(cs, point, precision)), cs

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.integers(53, 4096), st.sampled_from([-1, 1]))
    def test_leading_coefficient_is_rounded_as_to_mpf(self, data, precision, side):
        # A lead within 2**-(precision + 60) of a tie between two
        # precision-bit numbers: rounded at precision + 24 bits toward zero
        # rather than to nearest, it lands on the other side of the tie.
        m = data.draw(st.integers(2 ** (precision - 1), 2 ** precision - 1))
        lead = F(2 * m + 1, 2) + side * F(1, 2 ** (precision + 60))
        with mpmath.workprec(precision):
            x = mpmath.mpf(1)
        for coeffs in ([lead], [F(0), lead]):
            want = schoolbook_poly_eval(coeffs, x, precision)
            assert _same_value(_poly_symbol(coeffs).eval(x, precision), want), coeffs

    def test_restrictions_share_the_rounded_coefficients(self):
        phi = parse_symbol("-x^2+x")
        with mpmath.workprec(64):
            x = mpmath.mpf(1) / 3
        value = phi.eval(x, 64)
        restricted = phi.with_domain(Interval(0, 1))
        assert restricted._programs[88] is phi._programs[88]
        assert _same_value(restricted.eval(x, 64), value)


class TestJet:
    def test_polynomial_rearrangement(self):
        jet = parse_symbol("-x^2+x").jet(F(0), 3)
        assert jet.coeffs == (F(0), F(1), F(-1), F(0))

    def test_arctan_series_exact(self):
        jet = parse_symbol("1/2*arctan(x)").jet(F(0), 5)
        assert jet.coeffs == (F(0), F(1, 2), F(0), F(-1, 6), F(0), F(1, 10))

    def test_exp_jet(self):
        jet = parse_symbol("exp(x)", require_self_map=False).jet(F(0), 2)
        assert jet.coeffs == (F(1), F(1), F(1, 2))

    def test_sin_jet_exact(self):
        jet = parse_symbol("sin(x)", require_self_map=False).jet(F(0), 5)
        assert jet.coeffs == (F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120))

    @pytest.mark.parametrize("text,center,order", [
        ("1/2*arctan(x)", F(0), 6),
        ("exp(1/2*x)", F(1, 3), 5),
        ("sin(x^2) + exp(x)", F(-1, 2), 5),
        ("arctan(x + x^2)", F(1, 4), 4),
    ])
    def test_jets_against_cauchy_quadrature_oracle(self, text, center, order):
        # Independent oracle: Taylor coefficients through Cauchy-integral
        # quadrature over pointwise tree evaluation (no series recurrences).
        sym = parse_symbol(text, require_self_map=False)
        jet = sym.jet(center, order, precision=128)
        with mpmath.workprec(128):
            def fn(z):
                return reference_eval(sym.body, z)
            c = mpmath.mpf(center.numerator) / center.denominator
            oracle = mpmath.taylor(fn, c, order, method="quad", radius=0.25)
            for ours, theirs in zip(jet.coeffs, oracle):
                ours_f = ours if not isinstance(ours, F) \
                    else mpmath.mpf(ours.numerator) / ours.denominator
                assert abs(ours_f - theirs) < mpmath.mpf(2) ** -40

    def test_polynomial_jet_at_an_mpf_centre_keeps_its_precision(self):
        # The caller's mpmath precision (53 bits here) does not round the
        # coefficients of a jet asked for at 256 bits.
        with mpmath.workprec(256):
            u = mpmath.mpf(1) / 3
        jet = parse_rhs("x").jet(u, 2, precision=256)
        assert jet.coeffs[0] == u and jet.coeffs[0]._mpf_ == u._mpf_
        assert jet.coeffs[1:] == (1, 0)

    def test_jet_consistency_with_symbolic_derivatives(self):
        # Coefficient k times k! equals the k-th derivative computed by
        # repeated exact polynomial differentiation.
        import random
        from compspec import polynomials as polylib
        from compspec.symbols import AnalyticSymbol
        rng = random.Random(17)
        for _ in range(30):
            degree = rng.randint(1, 7)
            coeffs = [F(rng.randint(-8, 8), rng.randint(1, 5))
                      for _ in range(degree + 1)]
            if coeffs[-1] == 0:
                coeffs[-1] = F(1)
            if all(c == 0 for c in coeffs[1:]):
                coeffs[1] = F(1)
            sym = AnalyticSymbol.from_coefficients(coeffs)
            center = F(rng.randint(-4, 4), rng.randint(1, 3))
            jet = sym.jet(center, degree)
            deriv = [F(c) for c in coeffs]
            fact = 1
            for k in range(degree + 1):
                assert jet.coeffs[k] * fact == polylib.eval_at(deriv, center)
                deriv = polylib.derivative(deriv)
                fact *= k + 1


class TestIterate:
    def test_squares(self):
        assert parse_symbol("x^2").iterate(2, F(2)) == 16

    def test_halving(self):
        assert parse_symbol("1/2*x").iterate(3, F(8)) == 1

    def test_enters_fixed_point(self):
        # phi(1) = mu - 1 = 2 for mu = 3; the second step stays there.
        assert parse_symbol("-x^2+3*x").iterate(2, F(1)) == 2

    def test_composition_law(self):
        phi = parse_symbol("-x^2+3/2*x")
        x = F(1, 3)
        assert phi.iterate(5, x) == phi.iterate(2, phi.iterate(3, x))

    def test_orbit_escape(self):
        phi = parse_symbol("-x^2+x", Interval(0, 1))
        with pytest.raises(OrbitEscape):
            phi.iterate(1, F(2))


class TestConjugate:
    def test_quadratic_family_identity(self):
        # x + a(x-u)(x-v) with a=-1, u=0, v=1 conjugates to 2x - x^2.
        phi = parse_symbol("x - (x)*(x-1)")
        nf = normalize_quadratic(-1, 2, 0)
        psi = conjugate(phi, nf.delta)
        assert psi.poly_coeffs() == [F(0), F(2), F(-1)]

    def test_identity_change(self):
        phi = parse_symbol("-x^2+3*x")
        psi = conjugate(phi, identity_diffeomorphism())
        assert psi.poly_coeffs() == phi.poly_coeffs()

    def test_transcendental_change_fixes_origin(self):
        delta = parse_change("exp(x) - exp(-x)")
        psi = conjugate(parse_symbol("x^2"), delta)
        assert abs(psi.eval(mpmath.mpf(0), precision=64)) < mpmath.mpf(2) ** -60

    def test_transcendental_change_matches_direct_formula(self):
        delta = parse_change("exp(x) - exp(-x)")
        psi = conjugate(parse_symbol("x^2"), delta)
        with mpmath.workprec(80):
            x = mpmath.mpf("0.3")
            direct = delta.apply_inverse(delta.apply(x, 80) ** 2, 80)
            assert abs(psi.eval(x, precision=80) - direct) < mpmath.mpf(2) ** -60

    def test_affine_conjugation_of_elementary_stays_in_grammar(self):
        phi = parse_symbol("1/2*arctan(x)")
        delta = parse_change("2*x + 1")
        psi = conjugate(phi, delta)
        assert not psi.is_polynomial()
        with mpmath.workprec(80):
            x = mpmath.mpf("0.7")
            expected = (phi.eval(2 * x + 1, 80) - 1) / 2
            assert abs(psi.eval(x, 80) - expected) < mpmath.mpf(2) ** -70

    def test_affine_conjugation_rebuilds_sums_and_powers(self):
        # The tree has an Add and a Pow node around the variable; the
        # conjugate is the same map as the substituted text.
        phi = parse_symbol("1/2*x+1/8*sin(x)^2")
        psi = conjugate(phi, parse_change("2*x + 1"))
        assert isinstance(psi.body, Mul) and psi.text is None
        direct = parse_symbol("1/2*(1/2*(2*x+1)+1/8*sin(2*x+1)^2-1)")
        for x in (F(-3), F(1, 3), F(7, 2)):
            assert psi.eval(x, 96) == direct.eval(x, 96)

    def test_nonaffine_conjugate_jet(self):
        # psi = delta^-1 o phi o delta: the psi jet runs through a numeric
        # reversion of the delta jet, so delta o psi and phi o delta agree.
        phi = parse_symbol("1/2*x")
        delta = parse_change("exp(x) - exp(-x)")
        psi = conjugate(phi, delta)
        with mpmath.workprec(256):
            psi_jet = psi.jet(0, 12, 256)
            delta_jet = delta.forward.jet(0, 12, 256)
            lhs = delta.forward.jet(psi_jet.coeffs[0], 12, 256).compose(psi_jet)
            rhs = phi.jet(delta_jet.coeffs[0], 12, 256).compose(delta_jet)
            gap = max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs))
            assert gap < mpmath.mpf(2) ** -200

    def test_round_trip(self):
        phi = parse_symbol("-x^2+3*x")
        delta = parse_change("1/3*x - 2")
        inverse = parse_change("3*x + 6")
        psi = conjugate(phi, delta)
        back = conjugate(psi, inverse)
        for k in range(-10, 10):
            assert back.eval(F(k)) == phi.eval(F(k))

    def test_non_diffeo_rejected(self):
        with pytest.raises(NotADiffeomorphism):
            parse_change("x^2")

    def test_quadratic_irrational_change_at_numeric_points(self):
        # delta(x) = u - x with u = (1 + sqrt(5))/2: its coefficients are
        # quadratic irrationals, evaluated against an mpf point.
        nf = normalize_quadratic(1, 0, -1)
        with mpmath.workprec(128):
            x = mpmath.mpf("0.3")
            value = nf.delta.apply(x, 128)
            assert abs(value - (to_mpf(nf.fixed_u) - x)) < mpmath.mpf(2) ** -120

    def test_conjugate_by_quadratic_irrational_change_classifies(self):
        phi = parse_symbol("1/4*x^2-1/2")
        psi = conjugate(phi, normalize_quadratic(F(1, 4), 0, F(-1, 2)).delta)
        assert spectrum(psi).certified is False
        # The normal-form conjugate -x^2 + mu*x, mu possibly irrational,
        # keeps the original's leaf: only the certificate differs.
        for text, (a, b, c) in (("x^2-1", (1, 0, -1)),
                                ("1/4*x^2-1/2", (F(1, 4), 0, F(-1, 2))),
                                ("-1/3*x^2+x+2", (F(-1, 3), 1, 2)),
                                ("2*x^2-3", (2, 0, -3))):
            base = spectrum(parse_symbol(text)).to_json_dict()
            moved = spectrum(conjugate(parse_symbol(text),
                                       normalize_quadratic(a, b, c).delta)).to_json_dict()
            assert base["case"] == "Prop 4.5", text
            assert {k: v for k, v in moved.items() if k != "certified"} == \
                {k: v for k, v in base.items() if k != "certified"}, text


class TestNormalizeQuadratic:
    def test_no_fixed_points(self):
        assert normalize_quadratic(1, 1, 1) == NoFixedPoints()

    def test_square_map(self):
        nf = normalize_quadratic(1, 0, 0)
        assert nf.mu == 2
        assert nf.fixed_u == 1 and nf.fixed_v == 0
        psi = conjugate(parse_symbol("x^2"), nf.delta)
        assert psi.poly_coeffs() == [F(0), F(2), F(-1)]

    def test_double_root(self):
        nf = normalize_quadratic(-1, 1, 0)
        assert nf.mu == 1
        assert nf.fixed_u == nf.fixed_v == 0

    def test_irrational_fixed_points_stay_exact(self):
        # x^2 - 1: fixed points (1 +- sqrt5)/2, mu = 1 + sqrt5 > 2
        nf = normalize_quadratic(1, 0, -1)
        assert isinstance(nf.mu, QuadraticNumber)
        assert nf.mu == quadratic(1, 1, 5)
        assert nf.mu > 2
        psi = conjugate(parse_symbol("x^2-1"), nf.delta)
        assert psi.body.coeffs == (0, nf.mu, -1)
        assert psi.limit_at(POS_INF) == psi.limit_at(NEG_INF) == Limit("neg_inf")
        # Evaluated in the field: psi(mu) is exactly 0, psi(mu/2) = mu^2/4.
        assert tree_limit(psi.body, nf.mu) == Limit("finite", value=F(0))
        assert tree_limit(psi.body, nf.mu / 2).approx == to_mpf(nf.mu ** 2 / 4, 96)

    def test_mu_at_least_one(self):
        import random
        rng = random.Random(11)
        for _ in range(50):
            a = F(rng.randint(-6, 6) or 1, rng.randint(1, 4))
            b = F(rng.randint(-6, 6), rng.randint(1, 4))
            c = F(rng.randint(-6, 6), rng.randint(1, 4))
            nf = normalize_quadratic(a, b, c)
            if isinstance(nf, NoFixedPoints):
                continue
            assert nf.mu >= 1


class TestDiffeomorphism:
    def test_affine_round_trip_exact(self):
        delta = parse_change("-2*x + 3")
        assert delta.apply_inverse(delta.apply(F(5, 7))) == F(5, 7)

    def test_numeric_round_trip_precision(self):
        delta = parse_change("exp(x) - exp(-x)")
        for p in (64, 128, 256):
            err = delta.roundtrip_error(F(1, 2), precision=p)
            assert err < mpmath.mpf(2) ** (-(p - 16))

    def test_image_interval(self):
        delta = parse_change("exp(x) - exp(-x)")
        lo, hi = delta.image_interval()
        assert lo.kind == "neg_inf" and hi.kind == "pos_inf"


class TestImageMatchesDomain:
    """``conjugate`` needs the change onto the symbol's domain: its limits
    at the ends of its own domain must be the ends of the symbol's."""

    @pytest.mark.parametrize("change", ["arctan(x)", "2/3*arctan(x)"])
    def test_inexact_limit_off_a_finite_end_rejected(self, change):
        # The image (-pi/2, pi/2), resp. (-pi/3, pi/3), is not (-1, 1).
        with pytest.raises(DomainError):
            conjugate(parse_symbol("1/2*x", "(-1, 1)"), parse_change(change))

    def test_finite_limits_at_infinite_ends_rejected(self):
        with pytest.raises(DomainError):
            conjugate(parse_symbol("x^2"), parse_change("arctan(x)"))

    def test_onto_changes_accepted(self):
        psi = conjugate(parse_symbol("x^2"), parse_change("exp(x) - exp(-x)"))
        assert psi.domain == Interval.real_line()
        # delta = exp maps R onto (0, inf); psi(x) = log(exp(x)/2) = x - log 2.
        psi = conjugate(parse_symbol("1/2*x", "(0, inf)"), parse_change("exp(x)"))
        with mpmath.workprec(64):
            assert abs(psi.eval(F(0), 64) + mpmath.log(2)) < mpmath.mpf(2) ** -56


class TestNumericInverse:
    """The inverse of a non-affine change: one bracket walk from the middle
    of the domain, then bisection; a point outside the image raises."""

    @pytest.mark.parametrize("text,domain,y", [("x^3+x", "(0, 1)", "0.0001"),
                                               ("x^3+x", "(0, 1)", "1.9999"),
                                               ("exp(x) - exp(-x)", "(0, 1)", "0.001"),
                                               ("x^3+x", "(1, inf)", "100")])
    def test_preimages_near_the_ends(self, text, domain, y):
        delta = parse_change(text, domain)
        with mpmath.workprec(64):
            y = mpmath.mpf(y)
            x = delta.apply_inverse(y, 64)
            assert delta.forward.domain.contains(x)
            assert abs(delta.apply(x, 64) - y) < mpmath.mpf(2) ** -56 * (1 + y)

    @pytest.mark.parametrize("text,domain,y", [("x^3+x", "(0, 1)", 3),
                                               ("x^3+x", "(0, 1)", -1),
                                               ("x^3+x", "(0, 1)", 2),
                                               ("-x^3-x", "(1, inf)", 0),
                                               ("exp(x)", None, -1),
                                               ("arctan(x)", None, 2)])
    def test_point_outside_the_image_raises(self, text, domain, y):
        with pytest.raises(CompspecError):
            parse_change(text, domain).apply_inverse(y, 64)

    @pytest.mark.parametrize("inner", ["1/2*x+1/4000", "-1/2*x^2+3/2*x"])
    def test_pulled_back_fixed_points_on_a_bounded_domain(self, inner):
        # x^3+x maps (0, 1) onto (0, 2).  The preimage of the fixed point
        # 1/2000 lies within 1/1000 of the end of the domain.
        delta = parse_change("x^3+x", "(0, 1)")
        phi = parse_symbol(inner, "(0, 2)")
        base = analyze_symbol(phi).fixed_points
        moved = analyze_symbol(conjugate(phi, delta)).fixed_points
        assert len(moved) == len(base) == 1
        with mpmath.workprec(128):
            for m, b in zip(moved, base):
                assert abs(delta.apply(m.location, 128) - to_mpf(b.location)) \
                    < mpmath.mpf(2) ** -80

    @pytest.mark.parametrize("y", ["1e-50", "-1e-50", "1e-30", "-1e-30"])
    def test_tiny_preimages_are_right_to_relative_precision(self, y):
        # The preimage is about y itself, far below 2^-(64 + guard bits).
        delta = parse_change("x^3+x", "(-1, 1)")
        y = mpmath.mpf(y)
        x = delta.apply_inverse(y, 64)
        with mpmath.workprec(256):
            assert abs(delta.apply(x, 256) - y) < mpmath.mpf(2) ** -60 * abs(y)

    @pytest.mark.parametrize("text,domain", [("x^3+x", "(-1, 3)"),
                                             ("exp(x) - exp(-x)", "(-1/3, 5)")])
    def test_preimage_at_zero_on_an_asymmetric_domain(self, text, domain):
        # The bracket holds 0, so only the absolute floor stops bisection,
        # or a point where the change reads exactly 0 at the working
        # precision (exp(x) - exp(-x) does below about 2^-130).
        x = parse_change(text, domain).apply_inverse(0, 64)
        assert abs(x) < mpmath.mpf(2) ** -128

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=st.integers(1, 12), b=st.integers(1, 12), den=st.integers(1, 4),
           sign=st.sampled_from([1, -1]), t=st.integers(0, 98),
           domain=st.sampled_from(["(-1,2)", "(1/2,inf)", "(-inf,-3)", "(-inf,inf)"]))
    def test_round_trip(self, a, b, den, sign, t, domain):
        domain = Interval.parse(domain)
        delta = Diffeomorphism(AnalyticSymbol.from_coefficients(
            [0, sign * F(b, den), 0, sign * F(a, den)], domain, require_self_map=False))
        x = F(*_grid_pairs(domain, 99)[t])
        back = delta.apply_inverse(delta.apply(x, 96), 96)
        assert abs(to_mpf(back, 128) - to_mpf(x, 128)) < mpmath.mpf(2) ** -80 * (1 + abs(x))


class TestTransportedContainment:
    """psi = delta^(-1) o phi o delta maps S into T iff phi maps delta(S) into
    delta(T): a conjugated symbol's containment asks its inner symbol."""

    psi = conjugate(parse_symbol("1/2*x^3+1/2*x"), parse_change("exp(x) - exp(-x)"))
    # Decreasing changes, polynomial and elementary, on R and on (0, 1).
    by_cubic = conjugate(parse_symbol("1/2*x"), parse_change("-x^3-x"))
    on_unit = conjugate(parse_symbol("1/2*x", "(-2, 0)"), parse_change("-x^3-x", "(0, 1)"))
    by_sinh = conjugate(parse_symbol("1/2*x"), parse_change("exp(-x) - exp(x)"))

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = []
        inverse = Diffeomorphism._numeric_inverse

        def counted(change, y, precision):
            calls.append(y)
            return inverse(change, y, precision)
        monkeypatch.setattr(Diffeomorphism, "_numeric_inverse", counted)
        return calls

    def test_yes_answers_invert_nothing(self, inversions):
        assert not self.psi.with_domain(self.psi.domain).invariance_certified
        piece = Interval(F(-1, 4), F(1, 4))
        assert self.psi.maps_into(piece, [piece], 64) == (True, None, False)
        assert inversions == []

    def test_kernel_dim_inverts_only_for_the_analysis(self, inversions):
        analyze_symbol(self.psi)
        pulled_back = len(inversions)
        assert pulled_back > 0
        label = kernel_dim(self.psi, self.psi.domain, F(1, 4))
        assert label == kernel_dim(self.psi.body.inner, Interval.real_line(), F(1, 4))
        assert len(inversions) == 2 * pulled_back

    @pytest.mark.parametrize("name,source,targets,expected", [
        ("by_cubic", (0, 1), [(0, 1)], True),
        ("by_cubic", (F(1, 2), 1), [(F(1, 4), F(3, 4))], True),
        ("by_cubic", (-1, F(-1, 2)), [(F(-3, 4), F(-1, 4))], True),
        ("by_cubic", (-1, 1), [(-1, F(1, 10)), (0, 1)], True),
        ("by_cubic", (0, 1), [(0, F(1, 2))], False),
        ("by_cubic", (F(1, 2), 1), [(F(1, 3), F(3, 4))], False),
        ("by_cubic", (-1, 1), [(-1, F(-1, 10)), (F(1, 10), 1)], False),
        ("on_unit", (0, 1), [(0, 1)], True),
        ("on_unit", (F(1, 2), 1), [(F(1, 4), 5)], True),
        ("on_unit", (0, 1), [(F(1, 2), 3)], False),
        ("by_sinh", (F(1, 2), 1), [(F(1, 4), 1)], True),
        ("by_sinh", (F(1, 2), 1), [(F(1, 3), 1)], False)])
    def test_decreasing_change_agrees_with_sampled_images(self, name, source, targets,
                                                          expected):
        source = Interval(*source)
        targets = [Interval(*t) for t in targets]
        ok, witness, certified = getattr(self, name).maps_into(source, targets, 64)
        with mpmath.workprec(96):
            sampled = all(any(t.contains(y) for t in targets)
                          for y in self.grid_images(name, source))
            assert ok == sampled == expected
            assert certified is False
            # The witness is where the image crosses a target's end.
            assert ok or source.contains(witness)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def grid_images(cls, name, source):
        """psi at 64 grid points of the source, at 96 bits."""
        return [getattr(cls, name).eval(F(num, den), 96) for num, den in _grid_pairs(source, 64)]


class TestMagnitudeBudget:
    """exp and sin of an argument past 2^(2^14) raise a typed error instead
    of reducing it modulo ln 2 or pi to millions of bits."""

    @pytest.mark.parametrize("text, name", [("exp(exp(exp(x)))", "exp"),
                                            ("sin(exp(exp(x)))", "sin")])
    def test_over_budget_argument_raises(self, text, name):
        # exp(exp(20)) is about 2^(7*10^8).
        with pytest.raises(BudgetExceeded, match=rf"^{name} of an argument of magnitude "
                                                 r"2\^\d{9} is past the budget 2\^16384$"):
            parse_symbol(text).eval(20, 64)

    def test_exponent_too_long_to_print_is_named_by_its_size(self):
        # exp(9900) has magnitude 2^14283, within the budget, so exp(exp(9900))
        # is computed; its own exponent has about 4300 digits.
        with pytest.raises(BudgetExceeded, match=r"magnitude 2\^2\^14283 or more"):
            parse_symbol("exp(exp(exp(x)))").eval(9900, 64)

    @pytest.mark.parametrize("text", ["exp(x)", "sin(x)"])
    def test_budget_edge(self, text):
        # 2^16383 has magnitude 2^16384 (binary exponent plus bit count).
        phi = parse_symbol(text)
        phi.eval(2 ** 16383, 64)
        with pytest.raises(BudgetExceeded, match="magnitude 2\\^16385 "):
            phi.eval(2 ** 16384, 64)


class TestSelfMapChecks:
    def test_polynomial_invariance_certified(self):
        s = parse_symbol("-x^2+x", Interval(0, 1))
        assert s.invariance_certified

    def test_polynomial_non_self_map_rejected(self):
        with pytest.raises(DomainError):
            parse_symbol("x+1", Interval(0, 1))
        with pytest.raises(DomainError):
            parse_symbol("2*x", Interval(-1, 1))

    def test_elementary_flagged_uncertified(self):
        s = parse_symbol("1/2*arctan(x)")
        assert not s.invariance_certified

    def test_exp_diverges_on_bounded_interval(self):
        with pytest.raises(DomainError):
            parse_symbol("exp(x)", Interval(0, 1))


class TestMapsInto:
    def test_rational_polynomial_certified(self):
        phi = parse_symbol("x^3")
        assert phi.maps_into(Interval(-1, 1), [Interval(-1, 1)], 16) == (True, None, True)
        # x^3 leaves (0, 1) exactly where it crosses 1.
        assert phi.maps_into(Interval(0, 2), [Interval(0, 1)], 16) == (False, F(1), True)

    def test_elementary_sampled(self):
        phi = parse_symbol("1/2*arctan(x)")
        assert phi.maps_into(Interval(-1, 1), [Interval(-1, 1)], 64) == (True, None, False)
        ok, witness, certified = phi.maps_into(Interval(0, 4), [Interval(0, F(1, 2))], 64)
        assert not ok and not certified
        # 1/2*arctan(x) >= 1/2 exactly from x = tan(1) on.
        assert mpmath.tan(1) <= to_mpf(witness) < 4

    @pytest.mark.parametrize("text,source", [("2*x-1/2", Interval(0, 1)),
                                             ("arctan(x)", Interval(-1, 1))])
    def test_two_interval_target_union(self, text, source):
        # The image (-1/2, 3/2), resp. (-0.79, 0.79), needs both targets.
        phi = parse_symbol(text)
        union = [Interval(-1, F(1, 2)), Interval(0, 2)]
        assert phi.maps_into(source, union, 64)[0]
        assert not phi.maps_into(source, union[:1], 64)[0]
        assert not phi.maps_into(source, union[1:], 64)[0]
        ok, witness, _ = phi.maps_into(source, [Interval(-1, F(1, 2)),
                                                Interval(1, 2)], 64)
        assert not ok and source.contains(witness)

    def test_sampled_images_are_strict(self):
        # One sample, at 0, whose image 0 is the lower end of the target.
        phi = parse_symbol("1/2*arctan(x)")
        assert phi.maps_into(Interval(-1, 1), [Interval(0, 1)], 1) == (False, F(0), False)
        assert phi.maps_into(Interval(-1, 1), [Interval(-1, 1)], 1) == (True, None, False)

    def test_with_domain_records_the_certificate(self):
        assert parse_symbol("x^3").with_domain(Interval(-1, 1)).invariance_certified
        restricted = parse_symbol("1/2*arctan(x)").with_domain(Interval(-1, 1))
        assert restricted.domain == Interval(-1, 1)
        assert not restricted.invariance_certified
        with pytest.raises(InvarianceFailure) as info:
            parse_symbol("x^3").with_domain(Interval(0, 2))
        assert info.value.witness == F(1)

    @pytest.mark.parametrize("upper, contained", [(F(3), True), (F(2), False)])
    def test_quadratic_irrational_coefficients_sample_the_source(self, upper, contained):
        # The normal form of -x^2+2x+1 is -x^2+(1+sqrt(5))x, sampled at 96
        # bits.  Its exact image of (0, b) is (0, (3+sqrt(5))/2] for b = 3
        # and b = 2 alike, so only (0, 3) is invariant.
        sympy = pytest.importorskip("sympy")
        psi = conjugate(parse_symbol("-x^2+2*x+1"), normalize_quadratic(-1, 2, 1).delta)
        assert psi.body.coeffs[1] == quadratic(1, 1, 5)
        x = sympy.Symbol("x")
        body = -x ** 2 + (1 + sympy.sqrt(5)) * x
        image = sympy.calculus.util.function_range(body, x, sympy.Interval.open(0, upper))
        assert image.is_subset(sympy.Interval.open(0, upper)) is contained
        if contained:
            assert psi.with_domain(Interval(0, upper)).domain == Interval(0, upper)
            return
        with pytest.raises(InvarianceFailure) as info:
            psi.with_domain(Interval(0, upper))
        witness = info.value.witness
        assert witness == F(854, 1025)
        assert body.subs(x, sympy.Rational(854, 1025)) >= upper

    def test_irrational_interval_end_is_a_typed_error(self):
        # The repelling fixed point of x^2-1 is 1/2+sqrt(5)/2: an end that
        # containment does not support, named in a DomainError.
        phi = parse_symbol("x^2-1")
        q = analyze_symbol(phi).fixed_points[-1].location
        assert isinstance(q, QuadraticNumber)
        region = Interval(q, POS_INF)
        calls = [lambda: phi.with_domain(region),
                 lambda: kernel_dim(phi, region, 2),
                 lambda: parse_symbol("x^2-1", region),
                 lambda: parse_symbol("1/2*arctan(x)").with_domain(Interval(-q, q)),
                 lambda: phi.maps_into(Interval(0, 1), [Interval(-1, q)], 16)]
        for call in calls:
            with pytest.raises(DomainError, match=r"interval end -?1/2[+-]1/2\*sqrt\(5\)"):
                call()

    def test_kernel_dim_checks_its_region_once(self, monkeypatch):
        from compspec.taxonomy import kernel_dim
        phi = parse_symbol("x^3")
        calls = []
        original = sturm.poly_maps_into

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sturm, "poly_maps_into", counting)
        kernel_dim(phi, Interval(-1, 1), F(2))
        assert len(calls) == 1

    def test_crossing_witness_skips_exact_quadratic_roots(self, monkeypatch):
        # 3/2*x - x^2 crosses 1/3 at an irrational point; the witness comes
        # from bisection, without splitting the radicand.
        from compspec import numbers

        def refuse(n):
            raise AssertionError("radicand split")

        monkeypatch.setattr(numbers, "_squarefree_split", refuse)
        ok, witness = sturm.poly_maps_into([F(0), F(3, 2), F(-1)], Interval(0, 1),
                                           [Interval(F(1, 3), 2)])
        assert not ok and 0 < witness < 1


# ---------------------------------------------------------------------------
# The compiled evaluator


_COEFFS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=1000),
    st.builds(F, st.integers(-10**45, 10**45), st.integers(10**44, 10**45)))
_POLYS = st.lists(_COEFFS, min_size=1, max_size=4).map(lambda cs: Poly(tuple(cs)))
_BOUNDED_FNS = st.sampled_from(["arctan", "sin"])


def _trees(depth):
    """Trees over the grammar's nodes; ``exp`` only of a polynomial or of a
    bounded call, so values stay of a size mpmath computes quickly."""
    if depth == 0:
        return _POLYS
    sub = _trees(depth - 1)
    return st.one_of(
        _POLYS,
        st.lists(sub, min_size=2, max_size=3).map(lambda ps: Add(tuple(ps))),
        st.lists(sub, min_size=2, max_size=3).map(lambda ps: Mul(tuple(ps))),
        st.builds(Pow, sub, st.integers(2, 3)),
        st.builds(Call, _BOUNDED_FNS, sub),
        st.builds(Call, st.just("exp"), _POLYS | st.builds(Call, _BOUNDED_FNS, sub)))


_POINTS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=10**6),
    st.builds(F, st.integers(-4 * 10**40, 4 * 10**40), st.integers(10**40, 10**41)),
    # mpf points carrying up to 300 bits, more than some precisions keep
    st.builds(lambda m, e: mpmath.mp.make_mpf(from_man_exp(m, e)),
              st.integers(-2**300, 2**300), st.integers(-310, -298)))


def _coefficient_bits(c):
    """A jet coefficient as comparable data: an exact value with its class,
    or the raw tuple of an mpf."""
    if isinstance(c, tuple):
        return "mpf", c
    if isinstance(c, mpmath.mpf):
        return "mpf", c._mpf_
    return type(c), c


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=_trees(3), point=_POINTS, prec=st.sampled_from([53, 96, 120, 280]))
def test_compiled_tree_is_bit_identical_to_the_order_1_jet_value(raw, point, prec):
    x = _raw_point(point, prec)
    for tree in (raw, fold(raw)):
        with mpmath.workprec(prec):
            expected = tree_jet(tree, mpmath.mp.make_mpf(x), 1, exact=False).coeffs[0]
        got = compile_tree(tree, prec)(x)
        assert _coefficient_bits(got) == _coefficient_bits(expected)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=_trees(3), point=_POINTS, prec=st.sampled_from([53, 96, 120, 280]))
def test_value_kernel_is_the_value_of_the_slope_kernel(raw, point, prec):
    # One value semantics: the scans read the displacement and the slope
    # from the same lowered program.
    x = _raw_point(point, prec)
    for tree in (raw, fold(raw)):
        assert _coefficient_bits(compile_tree(tree, prec)(x)) == \
            _coefficient_bits(compile_slope(tree, prec)(x)[0])


def test_programs_run_libmp_only_through_the_backend_table():
    # Another backend (interval arithmetic, say) is a new op table, not
    # another compiler: no mpf_* name appears in the registers, the
    # lowering, the transcendental dispatch, the linker or the compile_*
    # entry points; every op the registers and the dispatch emit is in
    # _MPF, and every _MPF op but "const" and "rnd" is emitted somewhere.
    module = ast.parse(pathlib.Path(symbols.__file__).read_text())
    scopes = {node.name: node for node in module.body
              if (isinstance(node, ast.ClassDef) and node.name in ("_Program", "_Register"))
              or (isinstance(node, ast.FunctionDef)
                  and (node.name.startswith("compile_") or node.name == "_at_center"))}
    assert set(scopes) == {"_Program", "_Register", "_at_center",
                           "compile_tree", "compile_slope"}

    def names(scope):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(scope)
                if isinstance(n, (ast.Name, ast.Attribute))}

    used = set().union(*map(names, scopes.values()))
    assert sorted(name for name in used if name.startswith("mpf_")) == []
    calls = [n for n in ast.walk(module) if isinstance(n, ast.Call)]
    emitted = [n.args[0] for n in calls
               if isinstance(n.func, ast.Attribute) and n.func.attr == "_emit"]
    dispatched = [n.args[1] for n in calls
                  if isinstance(n.func, ast.Name) and n.func.id == "_at_center"]
    # Every op is a literal, except the one the dispatch emits for its callers.
    assert all(isinstance(op, ast.Constant) for op in dispatched)
    assert [op.id for op in emitted if not isinstance(op, ast.Constant)] == ["fn"]
    assert {n.args[0].id for n in ast.walk(scopes["_at_center"]) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "_emit"} == {"fn"}
    ops = {op.value for op in emitted + dispatched if isinstance(op, ast.Constant)}
    assert ops <= set(symbols._MPF)
    assert set(symbols._MPF) - {"const", "rnd"} <= ops
    # The program is recorded by tree_jet; it does not walk the tree itself.
    assert names(scopes["_Program"]) & {"Poly", "Add", "Mul", "Pow", "Call"} == set()


@pytest.mark.parametrize("text, value_calls, slope_calls", [
    ("sin(x)", 1, 1),
    ("1/2*arctan(x)", 2, 6),
    ("x+1+exp(x)-exp(1/2*x)", 7, 11),
    ("1/3*x^3+sin(x)*exp(x)", 7, 15),
    ("1/2*x + 1/2 + 1/8*sin(x) - 1/8*sin(1)", 8, 13),
])
def test_kernels_make_the_same_libmp_calls_per_point(text, value_calls, slope_calls):
    # Recording the jet also records steps no output reads (the cosine
    # series of sin, the order-1 term of arctan's g*g); the liveness pass
    # drops them, so a point costs as many libmp calls as the hand-lowered
    # program made.
    calls = []

    def counted(fn):
        def run(*args):
            calls.append(fn)
            return fn(*args)
        return run

    backend = {op: fn if op in ("const", "rnd") else counted(fn)
               for op, fn in symbols._MPF.items()}
    program = symbols._Program(parse_rhs(text).body)
    x = _raw_point(F(1, 3), 120)
    for outputs, expected in (([program.value], value_calls),
                              ([program.value, program.slope], slope_calls)):
        kernel = program.link(outputs, backend, 120)
        calls.clear()
        kernel(x)
        assert len(calls) == expected


# The scans' own points: reduced grid pairs rounded to 96 bits.
_GRID_POINTS = st.sampled_from(
    _grid_pairs(Interval(-4, 4), 64) + _grid_pairs(Interval.real_line(), 64)
).map(lambda pair: mpmath.mp.make_mpf(raw_ratio(*pair, 96)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=_trees(3), point=_GRID_POINTS | _POINTS,
       prec=st.sampled_from([64 + 24, 96 + 24, 256 + 24]))
def test_slope_kernel_is_bit_identical_to_the_order_1_jet(raw, point, prec):
    x = _raw_point(point, prec)
    for tree in (raw, fold(raw)):
        with mpmath.workprec(prec):
            expected = tree_jet(tree, mpmath.mp.make_mpf(x), 1, exact=False).coeffs
        got = compile_slope(tree, prec)(x)
        assert [_coefficient_bits(c) for c in got] == \
            [_coefficient_bits(c) for c in expected]


# Dense copies of the exact jet recurrences, which sum over every inner
# term, and of the series Horner loop: the oracles of the sparse jets and
# of the Taylor shift.

def _dense_series_exp(g):
    if g.coeffs[0] != 0:
        raise symbols._NeedNumeric
    n, h = g.order, g.coeffs
    out = [F(1)]
    for m in range(1, n + 1):
        acc = 0
        for k in range(1, m + 1):
            acc = acc + k * h[k] * out[m - k]
        out.append(as_exact(acc) / m)
    return TruncatedSeries(g.center, out)


def _dense_series_sin(g):
    if g.coeffs[0] != 0:
        raise symbols._NeedNumeric
    n, h = g.order, g.coeffs
    sins, coss = [F(0)], [F(1)]
    for m in range(1, n + 1):
        acc_s = 0
        acc_c = 0
        for k in range(1, m + 1):
            acc_s = acc_s + k * h[k] * coss[m - k]
            acc_c = acc_c + k * h[k] * sins[m - k]
        sins.append(as_exact(acc_s) / m)
        coss.append(as_exact(-acc_c) / m)
    return TruncatedSeries(g.center, sins)


def _horner_series(coeffs, center, order):
    ident = TruncatedSeries.identity(center, order)
    acc = TruncatedSeries.zero(center, order)
    for c in reversed(coeffs):
        acc = acc * ident + c
    return acc


def _dense_tree_jet(node, center, order):
    """``tree_jet(node, center, order, exact=True)`` through the dense
    recurrences and the series Horner loop."""
    if isinstance(node, Poly):
        return _horner_series(node.coeffs, center, order)
    if isinstance(node, Add):
        acc = TruncatedSeries.zero(center, order)
        for p in node.parts:
            acc = acc + _dense_tree_jet(p, center, order)
        return acc
    if isinstance(node, Mul):
        acc = None
        for p in node.parts:
            term = _dense_tree_jet(p, center, order)
            acc = term if acc is None else acc * term
        return acc
    if isinstance(node, Pow):
        return _dense_tree_jet(node.base, center, order).power(node.exponent)
    inner = _dense_tree_jet(node.arg, center, order)
    if node.fn == "exp":
        return _dense_series_exp(inner)
    if node.fn == "sin":
        return _dense_series_sin(inner)
    return symbols._series_arctan(inner, True)


def _exact_jet_or_none(jet, *args):
    try:
        return [(type(c), c) for c in jet(*args).coeffs]
    except symbols._NeedNumeric:
        return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(raw=_trees(3), poly=_POLYS, order=st.integers(0, 30),
       center=st.just(F(0)) | st.fractions(-4, 4, max_denominator=50).filter(bool))
@example(raw=Mul((Poly((F(1, 2),)), Call("sin", Poly((F(0), F(1)))))),
         poly=Poly((F(1), F(-2), F(3))), order=24, center=F(0))
@example(raw=Add((Poly((F(0), F(1, 2))), Call("sin", Pow(Poly((F(0), F(1))), 3)))),
         poly=Poly((F(1, 3),)), order=30, center=F(0))
@example(raw=Call("exp", Call("sin", Call("arctan", Poly((F(0), F(2), F(1, 5)))))),
         poly=Poly((F(0), F(0), F(-1))), order=17, center=F(0))
@example(raw=Mul((Call("exp", Poly((F(-3, 2), F(0), F(2, 3)))),
                  Call("sin", Poly((F(-3, 2), F(1)))))),
         poly=Poly((F(5), F(1, 7), F(0), F(-2))), order=12, center=F(3, 2))
def test_sparse_exact_jets_match_the_dense_recurrences(raw, poly, order, center):
    for tree in (raw, fold(raw)):
        want = _exact_jet_or_none(_dense_tree_jet, tree, center, order)
        got = _exact_jet_or_none(tree_jet, tree, center, order, True)
        assert got == want
    assert [(type(c), c) for c in symbols._series_from_poly(poly.coeffs, center, order).coeffs] \
        == [(type(c), c) for c in _horner_series(poly.coeffs, center, order).coeffs]


def _fraction_grid(domain, count):
    """The sample grid computed in Fraction arithmetic, point by point."""
    lo, hi = domain.lower, domain.upper
    ts = [F(k, count + 1) for k in range(1, count + 1)]
    if is_finite(lo) and is_finite(hi):
        return [lo + (hi - lo) * t for t in ts]
    if is_finite(lo):
        return [lo + t / (1 - t) for t in ts]
    if is_finite(hi):
        return [hi - t / (1 - t) for t in ts]
    return [(2 * t - 1) / (1 - (2 * t - 1) ** 2) for t in ts]


class TestCompiledKernel:
    @pytest.mark.parametrize("domain", [Interval(-1, 1), Interval(F(-7, 3), F(5, 11)),
                                        Interval.parse("(1/3,inf)"),
                                        Interval.parse("(-inf,-2/9)"),
                                        Interval.real_line()])
    @pytest.mark.parametrize("count", [1, 2, 63, 1024])
    def test_grid_pairs_are_the_reduced_grid(self, domain, count):
        pairs = _grid_pairs(domain, count)
        assert all(den > 0 and gcd(num, den) == 1 for num, den in pairs)
        assert [F(num, den) for num, den in pairs] == _fraction_grid(domain, count)

    @staticmethod
    def _count_compiles(monkeypatch):
        """Record each recording of a tree, as "record", and the precision
        of each link."""
        calls = []
        record, link = symbols._Program.__init__, symbols._Program.link

        def recording(self, node):
            calls.append("record")
            record(self, node)

        def linking(self, outputs, backend, prec):
            calls.append(prec)
            return link(self, outputs, backend, prec)

        monkeypatch.setattr(symbols._Program, "__init__", recording)
        monkeypatch.setattr(symbols._Program, "link", linking)
        return calls

    def test_parse_compiles_once_per_precision(self, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        phi = parse_symbol("1/2*arctan(x)")
        # The tree is recorded once; the constant backstop links it at 200
        # bits, and the self-map check on the whole line samples nothing.
        assert calls == ["record", 200]
        phi.eval(F(1, 3), 96)
        # eval and the whole 256-point scan share one kernel at 96 + 24 bits.
        phi.maps_into(Interval(-1, 1), [Interval(-1, 1)], 256)
        assert calls == ["record", 200, 120]

    def test_with_domain_reuses_the_parent_kernels(self, monkeypatch):
        phi = parse_symbol("1/2*arctan(x)")
        calls = self._count_compiles(monkeypatch)
        restricted = phi.with_domain(Interval(-1, 1))
        # The restriction records nothing: the scan of the bounded
        # restriction links at 96 + 24 bits and the limits at its finite
        # ends at 96 bits, each once.
        assert calls == [120, 96]
        for prec in (96, 120, 200):
            assert restricted._kernel(prec) is phi._kernel(prec)
            assert restricted._slope_kernel(prec) is phi._slope_kernel(prec)
        # Only the slope kernels are new, one link per precision.
        assert calls == [120, 96, 96, 120, 200]

    def test_globalize_and_evaluate_record_the_tree_once(self, monkeypatch):
        from compspec.continuation import evaluate, globalize
        calls = []
        record = symbols._Program.__init__

        def recording(self, node):
            calls.append(node)
            record(self, node)

        monkeypatch.setattr(symbols._Program, "__init__", recording)
        phi = parse_symbol("1/2*arctan(x)")
        sol = globalize(phi, F(0), F(2), parse_rhs("x"), order=24, precision=256)
        for precision in (256, 1024):
            for x in (F(3, 2), F(-4)):
                evaluate(sol, x, precision)
        assert calls.count(phi.body) == 1

    def test_sampled_maps_into_does_not_call_eval(self, monkeypatch):
        phi = parse_symbol("1/2*arctan(x)")
        calls = []
        original = AnalyticSymbol.eval

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(AnalyticSymbol, "eval", counting)
        assert phi.maps_into(Interval(-1, 1), [Interval(-1, 1)], 1024) == (True, None, False)
        assert not phi.maps_into(Interval(0, 4), [Interval(0, F(1, 2))], 64)[0]
        assert calls == []

    def test_maps_into_checks_the_domain(self):
        phi = parse_symbol("1/2*arctan(x)", Interval(-1, 1))
        # Grid points 2k/17 of (0, 2); the first outside (-1, 1) is 18/17.
        with pytest.raises(DomainError, match=r"18/17 is outside the domain \(-1,1\)"):
            phi.maps_into(Interval(0, 2), [Interval(-1, 1)], 16)

    def test_witness_is_the_exact_grid_point(self):
        phi = parse_symbol("1/2*arctan(x)")
        source = Interval(0, 4)
        ok, witness, _ = phi.maps_into(source, [Interval(0, F(1, 2))], 64)
        assert not ok and type(witness) is F
        grid = symbols._sample_grid(source, 64)
        assert witness in grid
        # The first grid point whose 96-bit image reaches 1/2.
        first, half = grid.index(witness), mpmath.mpf(0.5)
        assert all(phi.eval(x, 96) < half for x in grid[:first])
        assert not phi.eval(witness, 96) < half


# ---------------------------------------------------------------------------
# The self-map check on the whole line


def _calls_sin_of_exp(node, under_sin=False) -> bool:
    """Whether some ``sin`` has an ``exp`` in its argument: far out on a
    half-line grid such an argument needs millions of bits of pi."""
    if isinstance(node, Poly):
        return False
    if isinstance(node, (Add, Mul)):
        return any(_calls_sin_of_exp(p, under_sin) for p in node.parts)
    if isinstance(node, Pow):
        return _calls_sin_of_exp(node.base, under_sin)
    if node.fn == "exp" and under_sin:
        return True
    return _calls_sin_of_exp(node.arg, under_sin or node.fn == "sin")


_SCANNED_TREES = _trees(3).map(fold).filter(
    lambda t: not isinstance(t, Poly) and not _calls_sin_of_exp(t))
_QUADRATIC_POLYS = st.builds(
    lambda c, q: Poly((c, quadratic(1, q, 6), F(-1))),
    st.fractions(-3, 3, max_denominator=10), st.sampled_from([F(1), F(-1, 3)]))
_SOURCES = st.sampled_from([Interval(-1, 1), Interval(F(-7, 3), F(5, 11)),
                            Interval.parse("(1/3,inf)"), Interval.parse("(-inf,-2/9)"),
                            Interval.real_line()])
_WHOLE_LINE_TARGETS = st.sampled_from([
    [Interval.real_line()],
    [Interval(0, 1), Interval.real_line()],
    [Interval.parse("(-inf,-1)"), Interval.real_line(), Interval.parse("(2,inf)")]])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(body=_SCANNED_TREES | _QUADRATIC_POLYS, source=_SOURCES,
       targets=_WHOLE_LINE_TARGETS)
def test_whole_line_target_gives_the_scanned_answer(body, source, targets):
    phi = AnalyticSymbol(body, Interval.real_line(), require_self_map=False,
                         require_nonconstant=False)
    assert phi.maps_into(source, targets, 64) == phi._scan_maps_into(source, targets, 64)


def _count_calls(monkeypatch, *names):
    """Record each call of the named AnalyticSymbol methods by name."""
    calls = []
    for name in names:
        original = getattr(AnalyticSymbol, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(AnalyticSymbol, name, counting)
    return calls


# The scan-fact symbols on the whole line, and a quadratic-irrational
# polynomial, which a scan would evaluate exactly at each grid point.
_ON_THE_LINE = {
    e["symbol"]: functools.partial(parse_symbol, e["symbol"])
    for e in json.loads((pathlib.Path(__file__).parent / "data" / "scan_facts.json").read_text())
    if e["domain"] is None}
_ON_THE_LINE["-x^2+(1+sqrt6)*x"] = functools.partial(
    AnalyticSymbol.from_coefficients, [0, quadratic(1, 1, 6), -1])


@pytest.mark.parametrize("name", list(_ON_THE_LINE))
def test_self_map_check_on_the_line_samples_nothing(monkeypatch, name):
    calls = _count_calls(monkeypatch, "_scan_maps_into", "eval")
    phi = _ON_THE_LINE[name]()
    assert calls == [] and not phi.invariance_certified


def test_bounded_domains_are_still_scanned(monkeypatch):
    calls = _count_calls(monkeypatch, "_scan_maps_into")
    with pytest.raises(DomainError):
        parse_symbol("exp(x)", Interval(0, 1))
    assert calls == ["_scan_maps_into"]
    # A source outside the domain reaches the scan even for a whole-line target.
    phi = parse_symbol("1/2*arctan(x)", Interval(-1, 1))
    with pytest.raises(DomainError, match=r"18/17 is outside the domain"):
        phi.maps_into(Interval(0, 2), [Interval.real_line()], 16)


def test_triple_exponential_parses_quickly():
    # A 1,024-point scan of the whole line would evaluate exp(exp(exp(x)))
    # near |x| = 256 and not finish; the form of the body answers at once.
    code = ("import time; t = time.perf_counter(); from compspec.symbols import "
            "parse_symbol; parse_symbol('exp(exp(exp(x)))'); print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(symbols.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=30, check=True)
    assert float(out.stdout.split()[-1]) < 5


# ---------------------------------------------------------------------------
# Limits at the ends of the domain

_DATA = pathlib.Path(__file__).parent / "data"

# The symbols whose limits tests/data/limits.json records: the scan-fact
# symbols, three more elementary ones and the polynomial catalog, the last
# also on bounded domains, where the finite ends are exact.
LIMIT_SYMBOLS = [
    *((e["symbol"], e["domain"], e["self_map"])
      for e in json.loads((_DATA / "scan_facts.json").read_text())),
    ("1/2*sin(x)", None, True),
    ("1/2*x+1/8*sin(x)", None, True),
    ("exp(x) - exp(-x)", None, True),
    *((text, None, True) for text in (
        "x+1", "x^2+x+1", "-x", "x", "1/2*x^3+1/2*x", "x^2", "x^3", "-x^2+x",
        "-x^2+1.5*x", "-x^2+2*x", "-x^2+4*x")),
    ("-x^2+x", "(0,1)", True),
    ("x^2", "(-1,1)", True),
    ("1/2*x^3+1/2*x", "(-1/3,1)", True),
]


def limit_facts(text, domain, self_map) -> dict:
    """``limit_at`` at both infinite ends and at the finite ends of the
    domain: the kind, the exact value and the approximation to 30 digits.

    The data file holds one JSON object per line, ``dict(symbol=t,
    domain=d, self_map=s, limits=limit_facts(t, d, s))`` for each entry
    ``(t, d, s)`` of ``LIMIT_SYMBOLS``.
    """
    phi = parse_symbol(text, domain, require_self_map=self_map)
    ends = [NEG_INF, POS_INF] + [e for e in (phi.domain.lower, phi.domain.upper)
                                 if is_finite(e)]
    out = {}
    for end in ends:
        lim = phi.limit_at(end)
        out[str(end)] = [lim.kind,
                         None if lim.value is None else str(lim.value),
                         None if lim.approx is None else mpmath.nstr(lim.approx, 30)]
    return out


LIMIT_FACTS = json.loads((_DATA / "limits.json").read_text())


@pytest.mark.parametrize("entry", LIMIT_FACTS,
                         ids=lambda e: f"{e['symbol']} on {e['domain'] or '(-inf,inf)'}")
def test_limits_match_the_recorded_ones(entry):
    got = limit_facts(entry["symbol"], entry["domain"], entry["self_map"])
    assert got.keys() == entry["limits"].keys()
    for end, (kind, value, approx) in entry["limits"].items():
        assert got[end][:2] == [kind, value], end
        assert (got[end][2] is None) == (approx is None), end
        if approx is not None:
            with mpmath.workprec(128):
                new, old = mpmath.mpf(got[end][2]), mpmath.mpf(approx)
                assert abs(new - old) <= abs(old) * mpmath.mpf(2) ** -40, end


@pytest.mark.parametrize("text", ["exp(-x)*exp(x^2)", "exp(x^2)*exp(-x)"])
def test_a_zero_times_an_infinity_is_not_zero(text):
    # exp(-x) tends to an exact 0 and exp(x^2) to +inf: the kinds do not
    # decide the product (its limit is +inf), in either order.
    lim = parse_rhs(text).limit_at(POS_INF)
    assert lim == parse_rhs("exp(-x)*exp(x^2)").limit_at(POS_INF)
    assert lim.kind != "finite"


def test_sin_of_an_undecided_product_is_not_exact_zero():
    assert not parse_rhs("sin(exp(-x)*exp(x^2))").limit_at(POS_INF).exact


_PI_2 = Limit("finite", approx=mpmath.pi / 2)
_INEXACT_ZERO = Limit("finite", approx=mpmath.mpf(0))


@pytest.mark.parametrize("a,b,total,product", [
    (Limit("pos_inf"), Limit("neg_inf"), "unknown", "neg_inf"),
    (Limit("pos_inf"), Limit("bounded"), "pos_inf", "unknown"),
    (Limit("neg_inf"), F(-2), "neg_inf", "pos_inf"),
    (Limit("bounded"), _PI_2, "bounded", "bounded"),
    (Limit("unknown"), F(0), "unknown", "unknown"),
    (F(0), Limit("pos_inf"), "pos_inf", "unknown"),
    (F(0), Limit("bounded"), "bounded", F(0)),
    (F(0), _INEXACT_ZERO, "finite", "unknown"),
    (F(1, 2), 3, F(7, 2), F(3, 2)),
])
def test_limit_algebra(a, b, total, product):
    def check(lim, expected):
        if isinstance(expected, str):
            assert lim.kind == expected
        else:
            assert lim == Limit("finite", value=expected)

    def as_limit(v):
        return v if isinstance(v, Limit) else Limit("finite", value=F(v))

    for x, y in ((a, b), (b, a)):   # ints and Fractions on either side
        if isinstance(x, Limit) or isinstance(y, Limit):
            check(x + y, total)
            check(x * y, product)
    check(as_limit(a) + as_limit(b), total)
    check(as_limit(a) * as_limit(b), product)


@pytest.mark.parametrize("base, n, expected", [
    (Limit("neg_inf"), 3, "neg_inf"), (Limit("neg_inf"), 2, "pos_inf"),
    (Limit("pos_inf"), 3, "pos_inf"), (Limit("bounded"), 2, "bounded"),
    (Limit("finite", value=F(-2, 3)), 3, F(-8, 27)), (Limit("finite", value=F(0)), 2, F(0)),
])
def test_limit_power(base, n, expected):
    got = base ** n
    if isinstance(expected, str):
        assert got.kind == expected
    else:
        assert got == Limit("finite", value=expected) and got.exact


def _same_limit(a, b) -> bool:
    """Equal kinds and exact values, and approximations equal up to the
    rounding of 96-bit sums and products taken in another order."""
    if (a.kind, a.value, a.approx is None) != (b.kind, b.value, b.approx is None):
        return False
    eps = mpmath.mpf(2) ** -40
    return a.approx is None or mpmath.almosteq(a.approx, b.approx, eps, eps)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(_trees(2).map(fold), min_size=2, max_size=4), data=st.data(),
       op=st.sampled_from([Add, Mul]), end=st.sampled_from([NEG_INF, POS_INF]))
def test_limit_of_a_sum_or_product_does_not_depend_on_the_order(parts, data, op, end):
    shuffled = data.draw(st.permutations(parts))
    assert _same_limit(tree_limit(op(tuple(parts)), end),
                       tree_limit(op(tuple(shuffled)), end))


# ---------------------------------------------------------------------------
# Folding polynomial trees


def _schoolbook_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _schoolbook_fold(node) -> list:
    """The coefficients of a polynomial tree by term-by-term products and
    repeated multiplication, without any shortcut."""
    if isinstance(node, Poly):
        return list(node.coeffs)
    if isinstance(node, Add):
        out = [F(0)]
        for part in node.parts:
            p = _schoolbook_fold(part)
            n = max(len(out), len(p))
            out = [(out[i] if i < len(out) else F(0)) + (p[i] if i < len(p) else F(0))
                   for i in range(n)]
            while len(out) > 1 and out[-1] == 0:
                out.pop()
        return out
    if isinstance(node, Mul):
        out = [F(1)]
        for part in node.parts:
            out = _schoolbook_mul(out, _schoolbook_fold(part))
        return out
    out, base = [F(1)], _schoolbook_fold(node.base)
    for _ in range(node.exponent):
        out = _schoolbook_mul(out, base)
    return out


_FOLD_COEFFS = st.one_of(
    st.just(F(0)), st.just(F(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.builds(lambda p, q: quadratic(p, q, 2),
              st.fractions(min_value=-3, max_value=3, max_denominator=4),
              st.fractions(min_value=-3, max_value=3, max_denominator=4)))


def _fold_leaf(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return Poly(tuple(coeffs))


_POLY_TREES = st.recursive(
    st.lists(_FOLD_COEFFS, min_size=1, max_size=5).map(_fold_leaf),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Add(tuple(ps))),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Mul(tuple(ps))),
        st.builds(Pow, inner, st.integers(0, 4))),
    max_leaves=6)


class TestFoldArithmetic:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_POLY_TREES)
    def test_fold_matches_the_schoolbook_fold(self, tree):
        # Same value and same coefficient type (Fraction or QuadraticNumber)
        # in every position, zero entries and monomials included.
        folded = fold(tree)
        expected = _schoolbook_fold(tree)
        assert isinstance(folded, Poly)
        assert list(folded.coeffs) == expected
        assert [type(c) for c in folded.coeffs] == [type(c) for c in expected]

    def test_monomial_powers_and_constant_products(self):
        # x^7 and 3*x^2 squared come straight from the monomial; a constant
        # factor scales.
        assert fold(Pow(Poly((F(0), F(1))), 7)).coeffs == (F(0),) * 7 + (F(1),)
        assert fold(Pow(Poly((F(0), F(0), F(3))), 2)).coeffs == (F(0),) * 4 + (F(9),)
        root2 = quadratic(0, 1, 2)
        squared = fold(Pow(Poly((F(0), root2)), 2)).coeffs
        assert squared == (F(0), F(0), F(2)) and type(squared[2]) is F
        assert fold(Mul((Poly((root2,)), Poly((F(1), F(0), F(2)))))).coeffs \
            == (root2, F(0), 2 * root2)


@pytest.mark.parametrize("precision", [64, 256])
def test_affine_change_inverts_numeric_values(precision):
    # y = 3x + 1/5: the preimage of an mpf y is (y - 1/5)/3, taken exactly.
    from mpmath.libmp import to_rational
    change = parse_change("3*x+1/5", "(-1, 1)")
    for y in (mpmath.mpf(1) / 3, mpmath.mpf(-2.5), mpmath.mpf(3)):
        x = change.apply_inverse(y, precision)
        assert isinstance(x, mpmath.mpf)
        exact = (F(*to_rational(y._mpf_)) - F(1, 5)) / 3
        error = abs(F(*to_rational(x._mpf_)) - exact)
        assert error <= abs(exact) * F(1, 2 ** precision)
