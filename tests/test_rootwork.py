import importlib.util
import json
import pathlib
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compspec import polynomials as polylib
from compspec import rootwork, sturm, symbols
from compspec.errors import CompspecError, DomainError, HypothesisViolation
from compspec.intervals import NEG_INF, POS_INF, Interval, is_finite
from compspec.numbers import to_mpf
from compspec.rootwork import (AllFixed, analyze_symbol,
                               attraction_basin_check,
                               critical_set_bounded_away, find_critical_points,
                               find_fixed_points,
                               find_fixed_points_second_iterate,
                               is_diffeomorphism)
from compspec.symbols import (AnalyticSymbol, conjugate, parse_change,
                              parse_symbol)
from compspec.taxonomy import spectrum


def locations(records):
    return [r.location for r in records]


class TestFixedPoints:
    def test_quadratic_mu_4(self):
        recs = find_fixed_points(parse_symbol("-x^2+4*x"))
        assert locations(recs) == [0, 3]
        assert [r.multiplier for r in recs] == [4, -2]
        assert [r.kind for r in recs] == ["repelling", "repelling"]

    def test_cubic(self):
        recs = find_fixed_points(parse_symbol("1/2*x^3+1/2*x"))
        assert locations(recs) == [-1, 0, 1]
        assert [r.multiplier for r in recs] == [2, F(1, 2), 2]

    def test_enclosure_does_not_borrow_a_rational_root_multiplier(self):
        # Fixed points: the double root 0 and the real root near -0.4534 of
        # x^3 + 2x + 1, whose multiplier 1 - 5x^4 - 6x^2 - 2x is about 0.462.
        recs = find_fixed_points(parse_symbol("x - x^5 - 2*x^3 - x^2"))
        assert [r.multiplicity for r in recs] == [1, 2]
        first = recs[0]
        assert isinstance(first.location, sturm.Enclosure)
        assert first.location.hi < 0
        assert first.kind == "attracting"
        mlo, mhi = first.multiplier
        assert F(46, 100) < mlo <= mhi < F(47, 100)
        assert (recs[1].location, recs[1].kind) == (0, "neutral")

    def test_arctan_heuristic(self):
        recs = find_fixed_points(parse_symbol("1/2*arctan(x)"))
        assert len(recs) == 1
        assert recs[0].location == 0
        assert recs[0].multiplier == F(1, 2)
        assert recs[0].kind == "attracting"
        assert not recs[0].exact

    def test_no_fixed_points(self):
        assert find_fixed_points(parse_symbol("x^2+x+1")) == []

    def test_irrational_fixed_points_as_quadratic_numbers(self):
        from compspec.numbers import quadratic
        recs = find_fixed_points(parse_symbol("x^2-1"))
        assert recs[0].location == quadratic(F(1, 2), F(-1, 2), 5)
        assert recs[1].location == quadratic(F(1, 2), F(1, 2), 5)
        # multiplier at u = (1+sqrt5)/2 is 2u = 1 + sqrt5, repelling
        assert recs[1].multiplier == quadratic(1, 1, 5)
        assert recs[1].kind == "repelling"

    def test_degree_five_enclosures(self):
        phi = parse_symbol("x^5 - 3*x^3 + x + 1/7")
        recs = find_fixed_points(phi)
        displacement = polylib.sub(phi.rational_coeffs(), [F(0), F(1)])
        assert len(recs) == sturm.count_roots_open(displacement,
                                                   Interval.real_line())
        for rec in recs:
            if isinstance(rec.location, sturm.Enclosure):
                assert rec.location.has_sign_change()


def _two_cycle_oracle(p, domain):
    """Distinct roots of p(p(x)) - x in the domain, less those of p(x) - x."""
    identity = [F(0), F(1)]
    both = sturm.isolate_roots(polylib.sub(polylib.compose(p, p), identity), domain)
    fixed = sturm.isolate_roots(polylib.sub(p, identity), domain)
    return len(both) - len(fixed)


@st.composite
def _map_on_domain(draw):
    """A polynomial of degree 2 to 5 with numerators in [-2, 2] and
    denominators 1 or 2 on the real line; the same divided by the sum of
    its |coefficients| on the invariant interval (-1, 1); or -x^2 + mu*x
    on the invariant interval (0, mu) for mu in (1, 4), which has a 2-cycle
    for mu > 3 and a fixed point of multiplier -1 at mu = 3."""
    family = draw(st.sampled_from(("line", "scaled", "logistic")))
    if family == "logistic":
        mu = F(draw(st.integers(9, 31)), 8)
        return parse_symbol(f"-x^2+{mu}*x", Interval(F(0), mu))
    degree = draw(st.integers(2, 5))
    coeffs = [F(draw(st.integers(-2, 2)), draw(st.sampled_from((1, 2))))
              for _ in range(degree)]
    coeffs.append(F(draw(st.sampled_from((-2, -1, 1, 2))), draw(st.sampled_from((1, 2)))))
    if family == "line":
        return AnalyticSymbol.from_coefficients(coeffs)
    norm = sum(abs(c) for c in coeffs)
    return AnalyticSymbol.from_coefficients([c / norm for c in coeffs],
                                            Interval(F(-1), F(1)))


class TestSecondIterate:
    def test_involution_sentinel(self):
        assert find_fixed_points_second_iterate(parse_symbol("-x")) == AllFixed()
        assert find_fixed_points_second_iterate(parse_symbol("-x + 7")) == AllFixed()

    def test_parabolic_quadratic_unique(self):
        assert find_fixed_points_second_iterate(parse_symbol("-x^2+x")) == 0

    def test_arctan_unique(self):
        assert find_fixed_points_second_iterate(parse_symbol("1/2*arctan(x)")) == 0

    def test_two_cycle_detected(self):
        # mu = 7/2 > 3: the quadratic has a genuine 2-cycle.
        phi = parse_symbol("-x^2+3.5*x")
        assert find_fixed_points_second_iterate(phi) == 2
        assert len(find_fixed_points(phi)) == 2
        # The 2-cycle points swap under the symbol.
        p = phi.rational_coeffs()
        displacement = polylib.sub(p, [F(0), F(1)])
        roots = sturm.isolate_roots(polylib.sub(polylib.compose(p, p), [F(0), F(1)]),
                                    phi.domain)
        a, b = [r for r, _ in roots if polylib.eval_at(displacement, r) != 0]
        assert phi.eval(a) == b and phi.eval(b) == a

    @pytest.mark.parametrize("text, domain, count", [
        ("-x+x^3", "(-1/2,1/2)", 0),   # multiplier -1 at 0, no 2-cycle
        ("-x^2+7/2*x", "(-inf,inf)", 2),
        ("-2*arctan(x)", "(-inf,inf)", 2),
        ("1/2*arctan(x)", "(-inf,inf)", 0),
    ])
    def test_named_counts(self, text, domain, count):
        phi = parse_symbol(text, Interval.parse(domain))
        assert find_fixed_points_second_iterate(phi) == count
        if phi.is_rational_polynomial():
            assert _two_cycle_oracle(phi.rational_coeffs(), phi.domain) == count

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_map_on_domain())
    def test_count_matches_root_isolation(self, phi):
        assert find_fixed_points_second_iterate(phi) == \
            _two_cycle_oracle(phi.rational_coeffs(), phi.domain)

    def test_degree_overflow(self):
        from compspec.errors import DegreeOverflow
        text = "x^70 - x^69 + x"  # squared degree 4900 > 4096
        with pytest.raises(DegreeOverflow):
            find_fixed_points_second_iterate(parse_symbol(text))


def _sympy_open_count(f, domain):
    """Distinct real roots of the sympy Poly f strictly inside the domain:
    sympy counts them on the closed interval, and a root on a finite end is
    taken off."""
    sympy = pytest.importorskip("sympy")
    lo, hi = (sympy.Rational(end.numerator, end.denominator) if is_finite(end) else None
              for end in (domain.lower, domain.upper))
    return f.count_roots(lo, hi) - sum(1 for end in (lo, hi)
                                       if end is not None and f.eval(end) == 0)


def _sympy_two_cycle_count(p, domain):
    """Roots of p(p(x)) - x in the domain less those of p(x) - x, composed and
    counted by sympy alone."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x)
    identity = sympy.Poly(x, x)
    return (_sympy_open_count(f.compose(f) - identity, domain)
            - _sympy_open_count(f - identity, domain))


def _pool_polynomials():
    """The six pool polynomials of the benchmark and their mirrors -p(-x)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    pool = inputs.pool_polynomials()
    return pool + [inputs.mirror(p) for p in pool]


class TestSecondIterateAgainstSympy:
    """The 2-cycle count against sympy's composition and root counts, which
    share no code with the integer kernel of sturm."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_map_on_domain())
    def test_random_maps(self, phi):
        assert find_fixed_points_second_iterate(phi) == \
            _sympy_two_cycle_count(phi.rational_coeffs(), phi.domain)

    @pytest.mark.parametrize("coeffs", _pool_polynomials())
    def test_pool_and_mirrors(self, coeffs):
        phi = AnalyticSymbol.from_coefficients(coeffs)
        assert find_fixed_points_second_iterate(phi) == \
            _sympy_two_cycle_count(phi.rational_coeffs(), phi.domain)

    @pytest.mark.parametrize("mu", [F(k, 4) for k in range(5, 16)])
    def test_logistic_with_a_fixed_point_on_the_end(self, mu):
        # 0 is a fixed point on the lower end of (0, mu): p(p(x)) - x and
        # p(x) - x are deflated there.  mu = 3 has multiplier -1 at 2.
        phi = parse_symbol(f"-x^2+{mu}*x", Interval(F(0), mu))
        count = find_fixed_points_second_iterate(phi)
        assert count == _sympy_two_cycle_count(phi.rational_coeffs(), phi.domain)
        assert count == (2 if mu > 3 else 0)

    def test_multiplier_minus_one(self):
        phi = parse_symbol("-x+x^3", Interval.parse("(-1/2,1/2)"))
        assert find_fixed_points_second_iterate(phi) == 0
        assert _sympy_two_cycle_count(phi.rational_coeffs(), phi.domain) == 0


class TestDiffeo:
    def test_cubic_diffeo(self):
        verdict = is_diffeomorphism(parse_symbol("1/2*x^3+1/2*x"))
        assert verdict.value is True and verdict.certified

    def test_square_not_diffeo(self):
        verdict = is_diffeomorphism(parse_symbol("x^2"))
        assert verdict.value is False and verdict.certified
        assert "critical" in verdict.certificate

    def test_arctan_not_onto(self):
        verdict = is_diffeomorphism(parse_symbol("1/2*arctan(x)"))
        assert verdict.value is False
        assert not verdict.certified

    def test_bounded_interval_diffeo(self):
        phi = parse_symbol("-x^2+x", Interval(0, F(1, 2)))
        # increasing there, but the image (0, 1/4) is not all of (0, 1/2)
        verdict = is_diffeomorphism(phi)
        assert verdict.value is False

    def test_onto_bounded(self):
        phi = parse_symbol("-x^2+2*x", Interval(0, 1))
        verdict = is_diffeomorphism(phi)
        assert verdict.value is True and verdict.certified


class TestCriticalSet:
    def test_polynomial_always_bounded_away(self):
        assert critical_set_bounded_away(parse_symbol("x^2+x+1"), "upper") is True

    def test_over_budget_grid_points_have_no_slope_sign(self):
        # The slope of exp(exp(exp(x))) is past the magnitude budget at the
        # 13 grid points beyond x = 9.3; those points are missing, not zeros.
        assert find_critical_points(parse_symbol("exp(exp(exp(x)))")) == []

    def test_exp_no_critical_points(self):
        phi = parse_symbol("exp(1/2*x)")
        assert find_critical_points(phi) == []
        assert critical_set_bounded_away(phi, "upper") is True

    def test_vacuous_translation(self):
        assert critical_set_bounded_away(parse_symbol("x+1"), "upper") is True

    def test_tail_scan_past_the_one_critical_point(self):
        # The slope exp(x)+2x of exp(x)+x^2 increases, so its one zero is
        # the only critical point and the tail beyond it never turns.
        phi = parse_symbol("exp(x)+x^2")
        critical = find_critical_points(phi)
        with mpmath.workprec(64):
            zero = mpmath.findroot(lambda t: mpmath.exp(t) + 2 * t, mpmath.mpf("-0.35"))
            assert len(critical) == 1 and abs(critical[0] - zero) < mpmath.mpf(2) ** -40
        assert critical_set_bounded_away(phi, "upper", critical) is True

    def test_tail_scan_undecided_on_a_periodic_slope(self):
        # The slope 1+2cos(x) of x+3+2*sin(x) vanishes at +-2pi/3 + 2k*pi,
        # so the critical set is not bounded away from +inf; the scan
        # leaves that undecided.
        phi = parse_symbol("x+3+2*sin(x)")
        critical = find_critical_points(phi)
        with mpmath.workprec(64):
            for c in critical:
                k = mpmath.nint(c / (2 * mpmath.pi))
                off = abs(abs(c - 2 * k * mpmath.pi) - 2 * mpmath.pi / 3)
                assert off < mpmath.mpf(2) ** -40
        assert len(critical) > 2
        assert critical_set_bounded_away(phi, "upper", critical) is None

    def test_grid_zero_counted_once(self):
        # 0 is a grid point of (-2, 511) and the derivative's only zero; the
        # bracket that ends there is not bisected a second time.
        critical = find_critical_points(parse_symbol("arctan(x^2)", "(-2,511)"))
        assert critical == [0]


class TestBasin:
    def test_linear_contraction_certified(self):
        verdict = attraction_basin_check(parse_symbol("1/2*x"), Interval(-1, 1))
        assert verdict.status == "certified"

    def test_parabolic_right_basin_certified(self):
        phi = parse_symbol("-x^2+x", Interval(0, 1))
        verdict = attraction_basin_check(phi, Interval(0, F(1, 4)))
        assert verdict.status == "certified"

    def test_square_escape_witness(self):
        verdict = attraction_basin_check(parse_symbol("x^2"),
                                         Interval(F(-1, 2), F(1, 2)))
        assert verdict.status == "false"
        assert verdict.witness == 2
        assert verdict.certified

    def test_arctan_sampled(self):
        verdict = attraction_basin_check(parse_symbol("1/2*arctan(x)"),
                                         Interval(-1, 1))
        assert verdict.status == "sampled-true"

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolation):
            attraction_basin_check(parse_symbol("2*x"), Interval(-1, 1))

    # 1/2*x fixes the lower core edge 0, so the certified path declines and
    # the sampled orbits run through AnalyticSymbol.eval.

    def test_typed_error_in_sampled_orbit_is_not_a_proof(self, monkeypatch):
        phi = parse_symbol("1/2*x")
        monkeypatch.setattr(AnalyticSymbol, "eval", _raise(DomainError))
        verdict = attraction_basin_check(phi, Interval(0, 1))
        assert verdict.status == "false"
        assert verdict.certified is False

    def test_untyped_error_in_sampled_orbit_propagates(self, monkeypatch):
        phi = parse_symbol("1/2*x")
        monkeypatch.setattr(AnalyticSymbol, "eval", _raise(RuntimeError))
        with pytest.raises(RuntimeError):
            attraction_basin_check(phi, Interval(0, 1))

    def test_untyped_error_in_fixed_point_scan_propagates(self, monkeypatch):
        phi = parse_symbol("1/2*arctan(x)")
        # The scan reads phi(x) - x through raw_displacement's raw-tuple function.
        monkeypatch.setattr(AnalyticSymbol, "raw_displacement",
                            lambda self, precision: lambda x: _raise(RuntimeError)(self, x))
        with pytest.raises(RuntimeError):
            find_fixed_points(phi)


def _object_basin_witness(phi, core):
    """The sampled basin loop on mpf objects through phi.eval, the oracle
    of the raw loop: its result with the branch that produced it."""
    grid = symbols._sample_grid(phi.domain, 64)
    extra = [F(k) for k in (-2, -1, 1, 2) if phi.domain.contains(F(k))]
    with mpmath.workprec(64):
        big = mpmath.mpf(2) ** 256
        for start in list(grid) + extra:
            x = to_mpf(start)
            entered = False
            for _ in range(rootwork.MAX_ORBIT_STEPS):
                if core.contains(x):
                    entered = True
                    break
                try:
                    x = to_mpf(phi.eval(x, 64))
                except CompspecError:
                    return (start, False), "error"
                if abs(x) > big:
                    return (start, rootwork._escape_is_certain(phi, start)), "escape"
            if not entered:
                return (start, False), "stuck"
    return None, "none"


class TestRawBasinSamples:
    @pytest.mark.parametrize("text, domain, core, branch", [
        ("1/2*arctan(x)", Interval.real_line(), Interval(-1, 1), "none"),
        ("1/2*x+1/8*sin(x)", Interval.real_line(), Interval(F(-1, 3), F(1, 5)), "none"),
        ("1/2*arctan(x)", Interval(-1, POS_INF), Interval(F(-1, 2), F(1, 2)), "none"),
        ("1/2*sin(x)", Interval(-2, 2), Interval(F(-1, 2), F(1, 2)), "none"),
        ("exp(x)", Interval(0, POS_INF), Interval(F(1, 2), 1), "escape"),
        ("x+1/4*sin(x)", Interval.real_line(), Interval(-1, 1), "stuck"),
        ("3/2*sin(x)", Interval(-1, 1), Interval(F(-1, 4), F(1, 4)), "error"),
        # Orbits that leave the domain and would come back into the core.
        ("-1/2*arctan(x)", Interval(F(-1, 4), POS_INF), Interval(F(-1, 8), F(1, 8)), "error"),
        ("x^3", Interval.real_line(), Interval(F(-1, 2), F(1, 2)), "escape"),
        ("1/2*x", Interval.real_line(), Interval(0, 1), "stuck"),
        ("1/2*x", Interval(-3, 5), Interval(F(-1, 7), F(1, 3)), "none"),
    ])
    def test_raw_loop_matches_the_object_loop(self, text, domain, core, branch):
        phi = parse_symbol(text, domain, require_self_map=False)
        if phi.is_rational_polynomial() and branch == "stuck":
            assert rootwork._certified_basin(phi, core) is None
        want, took = _object_basin_witness(phi, core)
        assert took == branch
        starts = rootwork._basin_starts(phi.domain)
        assert [F(*pair) for pair in starts] == \
            symbols._sample_grid(phi.domain, 64) + \
            [F(k) for k in (-2, -1, 1, 2) if phi.domain.contains(F(k))]
        got = rootwork._sampled_basin_witness(phi, core, starts)
        assert got == want
        assert got is None or type(got[0]) is F

    @pytest.mark.parametrize("domain, walked", [(Interval.real_line(), 68),
                                                (Interval(-2, 2), 66),
                                                (Interval(F(-3, 2), POS_INF), 67)])
    def test_note_counts_the_starts_walked(self, domain, walked):
        # 64 grid points, then those of -2, -1, 1 and 2 inside the domain.
        verdict = attraction_basin_check(parse_symbol("1/2*arctan(x)", domain),
                                         Interval(-1, 1))
        assert verdict.note == f"all {walked} samples entered the core"


def _sympy_displacement(text):
    """phi(x) - x of a rational polynomial text, with sympy's symbol."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.sympify(text.replace("^", "**")) - x, x


def _sympy_end(end):
    sympy = pytest.importorskip("sympy")
    return sympy.Rational(end) if is_finite(end) else (sympy.oo if end is POS_INF else -sympy.oo)


class TestEscapeWitness:
    """The certified basin check's escape certificate on either side of the
    core, against the exact sign of phi(x) - x and its real roots."""

    @staticmethod
    def _run(monkeypatch, text, domain, core):
        seen, original = [], rootwork._escape_witness

        def spy(*args):
            result = original(*args)
            seen.append((args[2:], result))   # ((region, side), result)
            return result

        monkeypatch.setattr(rootwork, "_escape_witness", spy)
        verdict = attraction_basin_check(parse_symbol(text, domain), core)
        return verdict, seen

    # The orbit of the witness moves toward the fixed end of the domain
    # (-2, resp. 2), or toward an infinite end, past the fixed point
    # 2^(1/3) in the last case, which a sign-change enclosure holds.
    @pytest.mark.parametrize("text, domain, core, side", [
        ("x-1/4*x*(x+1)*(x+2)", Interval(-2, F(1, 2)), Interval(F(-1, 2), F(1, 4)), "lower"),
        ("x-1/4*x*(x-1)*(x-2)", Interval(F(-1, 2), 2), Interval(F(-1, 4), F(1, 2)), "upper"),
        ("1/2*x-x^2", Interval(NEG_INF, F(1, 4)), Interval(F(-1, 4), F(1, 8)), "lower"),
        ("1/2*x+1/4*x^4", Interval.real_line(), Interval(F(-1, 2), F(1, 2)), "upper"),
    ])
    def test_witness_moves_away_forever(self, monkeypatch, text, domain, core, side):
        sympy = pytest.importorskip("sympy")
        verdict, seen = self._run(monkeypatch, text, domain, core)
        assert [args[1] for args, _ in seen] == [side]
        assert verdict.status == "false" and verdict.certified
        w = sympy.Rational(verdict.witness)
        # phi(w) - w has the outward sign, and no fixed point lies between
        # w and the domain's end on that side, so every iterate stays
        # beyond w, outside the core.
        d, x = _sympy_displacement(text)
        roots = sympy.real_roots(sympy.Poly(d, x))
        if side == "lower":
            low = _sympy_end(domain.lower)
            assert w < core.lower and d.subs(x, w) < 0
            assert not [r for r in roots if low < r < w]
        else:
            high = _sympy_end(domain.upper)
            assert w > core.upper and d.subs(x, w) > 0
            assert not [r for r in roots if w < r < high]

    # No escape certificate applies: beyond the outermost fixed point in
    # the region (the double roots +-sqrt(2), whose integer bounds 2 and -2
    # lie past the domain's ends, resp. 2) phi(x) - x points back toward
    # the core.  The sampled check answers, unproven, and the fixed point
    # outside the core shows that the basin is not the whole domain.
    @pytest.mark.parametrize("text, domain, core, side", [
        ("x-1/8*x*(x^2-2)^2", Interval(F(-3, 2), 1), Interval(F(-1, 2), F(1, 2)), "lower"),
        ("x-1/8*x*(x^2-2)^2", Interval(F(-3, 2), F(3, 2)), Interval(F(-1, 2), F(1, 2)), "upper"),
        ("x-1/4*x*(x-1)*(x-2)", Interval.real_line(), Interval(F(-1, 4), F(1, 4)), "upper"),
    ])
    def test_no_certificate_falls_back_to_samples(self, monkeypatch, text, domain, core, side):
        sympy = pytest.importorskip("sympy")
        verdict, seen = self._run(monkeypatch, text, domain, core)
        assert [(args[1], result) for args, result in seen] == [(side, None)]
        assert verdict.status == "false" and not verdict.certified
        d, x = _sympy_displacement(text)
        region = seen[0][0][0]
        lo, hi = _sympy_end(region.lower), _sympy_end(region.upper)
        outer = [r for r in sympy.real_roots(sympy.Poly(d, x)) if lo < r < hi]
        assert outer
        if side == "upper":
            probe = max(outer) + 1 if hi == sympy.oo else (max(outer) + hi) / 2
            assert d.subs(x, probe) < 0
        else:
            probe = min(outer) - 1 if lo == -sympy.oo else (min(outer) + lo) / 2
            assert d.subs(x, probe) > 0


def _raise(error_type):
    def failing_eval(self, x, precision=None):
        raise error_type(f"eval failed at {x}")
    return failing_eval


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestComputedOnce:
    @pytest.mark.parametrize("text", ["sin(x)", "exp(1/2*x)"])
    def test_analysis_finds_critical_points_once(self, monkeypatch, text):
        phi = parse_symbol(text)
        calls = _counting(monkeypatch, rootwork, "find_critical_points")
        analyze_symbol(phi)
        assert len(calls) == 1

    def test_multiplier_certificates_once_per_polynomial(self, monkeypatch):
        # Three certificate gcds (multiplier 0, 1, -1) plus the gcds of root
        # isolation, however many enclosure roots the fixed points have.
        # p(x) - x = 16x^5 - 20x^3 + 5x - 1/3 has five irrational roots.
        phi = parse_symbol("16*x^5-20*x^3+6*x-1/3")
        calls = _counting(monkeypatch, sturm, "primitive_gcd")
        records = find_fixed_points(phi)
        assert sum(isinstance(r.location, sturm.Enclosure) for r in records) > 3
        assert len(calls) <= 14

    def test_covering_obstruction_builds_each_fact_once(self, monkeypatch):
        # Three invariance checks, and five restrictions (three pieces, two
        # overlaps) that share the symbol's integer facts: the restrictions
        # to the pieces ask the invariance checks' questions again.
        from compspec.taxonomy import CoverPiece, covering_obstruction
        phi = parse_symbol("x^3")
        compositions = _counting(monkeypatch, sturm, "compose_scaled")
        containments = _counting(monkeypatch, sturm, "poly_maps_into")
        chains = _counting(monkeypatch, sturm, "sturm_chain")
        pieces = [CoverPiece((Interval.parse(t),)) for t in ("(-inf,0)", "(-1,1)", "(0,inf)")]
        covering_obstruction(phi, F(2), pieces)
        assert len(compositions) == 1
        assert len(containments) == 5
        built = [tuple(sturm.primitive(args[0])) for args in chains]
        assert built and len(built) == len(set(built))

    @pytest.mark.parametrize("text", ["x^3", "-x^2+2*x"])
    def test_restrictions_share_the_facts(self, text):
        # A restriction reads the facts its parent filled on the whole line,
        # and finds what a symbol parsed on the smaller domain finds; x^3 on
        # (-1,0) and (0,1) has fixed points on both ends.
        phi = parse_symbol(text)
        analyze_symbol(phi)
        for domain in ("(-1,1)", "(-1,0)", "(0,1)", "(0,2)"):
            try:
                fresh = parse_symbol(text, domain)
            except CompspecError:
                with pytest.raises(CompspecError):
                    phi.with_domain(Interval.parse(domain))
                continue
            restricted = phi.with_domain(Interval.parse(domain))
            assert restricted.integer_facts() is phi.integer_facts()
            for fn in (find_fixed_points, find_critical_points,
                       find_fixed_points_second_iterate):
                assert repr(fn(restricted)) == repr(fn(fresh))


class TestBisection:
    def test_stops_when_the_bracket_stalls(self):
        # At 96 bits the bracket around pi/2 reaches adjacent floats well
        # before 200 halvings; the result is the one a full 200-step loop
        # gives.
        calls = []

        def sign_at(x):
            calls.append(x)
            return rootwork._sign(mpmath.cos(mpmath.mp.make_mpf(x))._mpf_)

        with mpmath.workprec(96):
            a, b = F(3, 2), F(8, 5)
            root = mpmath.mp.make_mpf(rootwork._bisect(
                sign_at, to_mpf(a)._mpf_, to_mpf(b)._mpf_, mpmath.cos(to_mpf(a)) < 0))
            lo, hi = to_mpf(a), to_mpf(b)
            for _ in range(200):
                mid = (lo + hi) / 2
                if mpmath.cos(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            assert root == (lo + hi) / 2
            assert abs(root - mpmath.pi / 2) < mpmath.mpf(2) ** -90
        assert len(calls) <= 110


class TestSturmProperties:
    def test_random_polynomials_self_consistency(self):
        # Isolated fixed-point count matches the Sturm variation count, and
        # every enclosure refines to width below 1e-30 keeping its sign
        # change.
        rng = random.Random(2024)
        line = Interval.real_line()
        tight = F(1, 10 ** 30)
        for _ in range(200):
            degree = rng.randint(1, 8)
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(degree + 1)]
            if coeffs[-1] == 0:
                coeffs[-1] = F(1)
            displacement = polylib.sub(coeffs, [F(0), F(1)])
            if polylib.is_zero(displacement) or polylib.degree(displacement) == 0:
                continue
            roots = sturm.isolate_roots(displacement, line)
            assert len(roots) == sturm.count_roots_open(displacement, line)
            for root, _mult in roots:
                if isinstance(root, sturm.Enclosure):
                    refined = root.refine(tight)
                    assert refined.width() < tight
                    assert refined.has_sign_change()

    def test_multiplicity_detection(self):
        # (x - 1)^2 (x + 2) has a double root at 1.
        p = polylib.mul(polylib.mul([F(-1), F(1)], [F(-1), F(1)]), [F(2), F(1)])
        roots = sturm.isolate_roots(p, Interval.real_line())
        assert [(r, m) for r, m in roots] == [(F(-2), 1), (F(1), 2)]


class TestConjugationInvariance:
    def test_multipliers_invariant_under_affine_change(self):
        phi = parse_symbol("-x^2+4*x")
        delta = parse_change("2*x+1")
        psi = conjugate(phi, delta)
        base = {r.location: r.multiplier for r in find_fixed_points(phi)}
        moved = find_fixed_points(psi)
        assert len(moved) == len(base)
        for rec in moved:
            original = delta.apply(rec.location)
            assert original in base
            assert base[original] == rec.multiplier

    def test_diffeo_flag_invariant(self):
        phi = parse_symbol("1/2*x^3+1/2*x")
        delta = parse_change("-1/3*x + 5")
        psi = conjugate(phi, delta)
        assert is_diffeomorphism(psi).value is True

    @pytest.mark.parametrize("inner", ["1/2*x^3+1/2*x", "1/2*x-x^2"])
    def test_conjugated_analysis_gives_the_direct_verdict(self, inner):
        # A non-affine change keeps the conjugate as a ConjugatedBody, which
        # the analysis and is_diffeomorphism each read off the inner symbol.
        phi = parse_symbol(inner)
        psi = conjugate(phi, parse_change("x^3+x"))
        assert isinstance(psi.body, symbols.ConjugatedBody)
        verdict = is_diffeomorphism(psi)
        assert analyze_symbol(psi).is_diffeo == verdict
        direct = is_diffeomorphism(phi)
        assert verdict.value is direct.value and not verdict.certified
        assert verdict.certificate == f"conjugation-invariant: {direct.certificate}"


class TestAnalyze:
    def test_sign_vs_id_set_only_without_fixed_points(self):
        up = analyze_symbol(parse_symbol("x^2+x+1"))
        assert up.sign_vs_id == "above"
        assert up.critical_bounded_away is True
        has = analyze_symbol(parse_symbol("-x^2+4*x"))
        assert has.sign_vs_id is None
        assert has.critical_bounded_away is None

    def test_diffeo_implies_no_critical_points(self):
        an = analyze_symbol(parse_symbol("1/2*x^3+1/2*x"))
        assert an.is_diffeo.value is True
        assert an.critical_points == []

    def test_certified_flags(self):
        assert analyze_symbol(parse_symbol("-x^2+x")).certified
        assert not analyze_symbol(parse_symbol("1/2*arctan(x)")).certified


# Scan facts of elementary symbols, recorded when every scan still read phi
# through eval and phi' through order-1 jets; the raw-tuple scans must
# reproduce them exactly.  Numbers print at 256 bits, enough digits to tell
# apart any two values of the 96- and 120-bit scans.
SCAN_FACTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "scan_facts.json").read_text())


def scan_facts(text, domain, self_map) -> dict:
    phi = parse_symbol(text, domain, require_self_map=self_map)
    out = {}
    with mpmath.workprec(256):
        for name, fn in (("analysis", lambda: analyze_symbol(phi)),
                         ("two_cycle_points",
                          lambda: find_fixed_points_second_iterate(phi)),
                         ("report", lambda: spectrum(phi).to_json_dict())):
            try:
                value = fn()
            except CompspecError as exc:
                out[name] = f"{type(exc).__name__}: {exc}"
                continue
            if name == "analysis":
                for field in ("fixed_points", "critical_points", "is_diffeo",
                              "critical_bounded_away", "has_two_cycle",
                              "is_involution", "sign_vs_id"):
                    out[field] = repr(getattr(value, field))
            elif name == "report":
                out[name] = json.dumps(value, sort_keys=True)
            else:
                out[name] = repr(value)
    return out


class TestRawScans:
    @pytest.mark.parametrize("entry", SCAN_FACTS, ids=lambda e: e["symbol"])
    def test_scan_facts_unchanged(self, entry):
        assert scan_facts(entry["symbol"], entry["domain"], entry["self_map"]) \
            == entry["facts"]

    def test_catalog_covers_the_scan_paths(self):
        facts = {e["symbol"]: e["facts"] for e in SCAN_FACTS}
        assert len(facts) >= 15
        # A finite domain whose second iterate leaves it, a 2-cycle count,
        # an exact grid zero of the displacement and an exact critical point.
        assert not next(e["self_map"] for e in SCAN_FACTS if e["symbol"] == "2*arctan(x)")
        assert facts["sin(3*x)"]["two_cycle_points"] == "4"
        # The single-iterate scan keeps exp(-x^2) of x+exp(-x^2); the 2-cycle
        # scan rounds phi(phi(x)) to x far out, and the count drops those.
        assert facts["x+exp(-x^2)"]["fixed_points"] == "[]"
        assert facts["x+exp(-x^2)"]["two_cycle_points"] == "0"
        phi = parse_symbol("x+exp(-x^2)")
        assert F(-1048575, 4096) in rootwork._scan_fixed_points(phi, 2)
        assert facts["1/2*x^2*exp(-x)"]["critical_points"] == "[mpf('2.0')]"

    def test_elementary_analysis_reads_no_jets_or_evals(self, monkeypatch):
        phi = parse_symbol("sin(x)")
        jets = _counting(monkeypatch, AnalyticSymbol, "jet")
        evals = _counting(monkeypatch, AnalyticSymbol, "eval")
        analyze_symbol(phi)
        assert jets == [] and evals == []

    def test_second_iterate_image_outside_the_domain_has_no_value(self):
        # 2*arctan(x) maps (-1, 1) onto (-pi/2, pi/2): beyond |x| = tan(1/2)
        # the intermediate image leaves the domain, so only the fixed point
        # 0 of phi itself is found, and it is not on a 2-cycle.
        phi = parse_symbol("2*arctan(x)", "(-1,1)", require_self_map=False)
        assert rootwork._scan_fixed_points(phi, 2) == [F(0)]
        assert find_fixed_points_second_iterate(phi) == 0


# Exact facts of the polynomial symbols of the classify benchmark (every
# text at seeds 1, 2, 3, 7 and 900001), each on the whole line, (-1, 1) and
# (0, inf): the report, the fixed points (enclosure polynomials included),
# the critical points and the 2-cycle count, or the error a restriction
# that is not a self-map raises.  Recorded before the per-body fact store,
# which must reproduce them exactly.
POLY_FACTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "poly_facts.json").read_text())


def poly_facts(text, domain) -> dict:
    try:
        phi = parse_symbol(text, domain)
        analysis = analyze_symbol(phi)
        report = spectrum(analysis)
    except CompspecError as exc:
        return {"error": type(exc).__name__}
    return {"report": json.dumps(report.to_json_dict(), sort_keys=True),
            "fixed_points": repr(analysis.fixed_points),
            "critical_points": repr(analysis.critical_points),
            "two_cycle_points": repr(find_fixed_points_second_iterate(phi))}


class TestPolyFacts:
    @pytest.mark.parametrize("entry", POLY_FACTS,
                             ids=lambda e: f"{e['symbol']} on {e['domain']}")
    def test_poly_facts_unchanged(self, entry):
        assert poly_facts(entry["symbol"], entry["domain"]) == entry["facts"]

    def test_catalog_covers_the_exact_paths(self):
        facts = [e["facts"] for e in POLY_FACTS]
        assert len(facts) == 162
        # Restrictions that are not self-maps, enclosed fixed points, and
        # points on 2-cycles all occur.
        assert any("error" in f for f in facts)
        assert any("Enclosure(" in f.get("fixed_points", "") for f in facts)
        assert any(f.get("two_cycle_points", "0") not in ("0", "AllFixed()")
                   for f in facts)


def test_rational_bound_below_a_root_just_under_an_integer():
    # 3 - 2^-80*sqrt(2) rounds to 3.0 at 64 bits, so the first lower
    # candidate, 3, lies above the root and the walk steps down to 2.
    from compspec.numbers import quadratic
    root = quadratic(3, F(-1, 2 ** 80), 2)
    with mpmath.workprec(300):
        assert int(mpmath.floor(3 - mpmath.sqrt(2) / mpmath.mpf(2) ** 80)) == 2
    lower = rootwork._rational_bound_beyond(root, "lower")
    assert lower == 2 and lower < root
    assert root < rootwork._rational_bound_beyond(root, "upper")
