import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from compspec.errors import CenterMismatch
from compspec.numbers import GaussianRational, is_exact, quadratic
from compspec.power_series import (Converges, Diverges, Inconclusive,
                                   TruncatedSeries, _solve_rational,
                                   estimate_radius)


def brute_force_poly_compose(outer, inner, order):
    """Independent oracle: expand sum_n outer[n] * inner(x)**n by plain
    polynomial multiplication and truncate."""
    def pmul(a, b):
        out = [F(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out[:order + 1]

    result = [F(0)] * (order + 1)
    power = [F(1)]
    for c in outer:
        for k, p in enumerate(power):
            if k <= order:
                result[k] += c * p
        power = pmul(power, inner)
    return result


def test_compose_identity_like():
    # f = x composed with the jet of x - x^2 at 0 returns that jet
    f = TruncatedSeries(F(0), [F(0), F(1), F(0), F(0)])
    g = TruncatedSeries(F(0), [F(0), F(1), F(-1), F(0)])
    assert f.compose(g).coeffs == g.coeffs


def test_compose_square_of_half():
    f = TruncatedSeries(F(0), [F(0), F(0), F(1)])
    g = TruncatedSeries(F(0), [F(0), F(1, 2), F(0)])
    assert f.compose(g).coeffs == (F(0), F(0), F(1, 4))


def test_compose_geometric_against_brute_force():
    # sum x^n composed with x - x^2, truncated at order 4
    outer = [F(1)] * 5
    inner = [F(0), F(1), F(-1)]
    expected = brute_force_poly_compose(outer, inner, 4)
    f = TruncatedSeries(F(0), outer)
    g = TruncatedSeries(F(0), inner + [F(0), F(0)])
    assert list(f.compose(g).coeffs) == expected == [F(1), F(1), F(0), F(-1), F(-1)]


def test_compose_random_against_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        order = rng.randint(2, 8)
        outer = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order + 1)]
        inner = [F(0)] + [F(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(order)]
        f = TruncatedSeries(F(0), outer)
        g = TruncatedSeries(F(0), inner)
        assert list(f.compose(g).coeffs) == brute_force_poly_compose(
            outer, inner, order)


def test_compose_center_mismatch():
    f = TruncatedSeries(F(1), [F(1), F(1)])
    g = TruncatedSeries(F(0), [F(0), F(1)])
    with pytest.raises(CenterMismatch):
        f.compose(g)


def test_mul_and_reciprocal():
    f = TruncatedSeries(F(0), [F(1), F(2), F(3)])
    inv = f.reciprocal()
    assert (f * inv).coeffs == (F(1), F(0), F(0))


def test_reversion_round_trip():
    f = TruncatedSeries(F(0), [F(0), F(2), F(1), F(-1), F(1, 3)])
    g = f.reversion()
    assert g.center == F(0)
    # g o f = identity through the order
    comp = g.compose(f)
    assert comp.coeffs == (F(0), F(1), F(0), F(0), F(0))


def test_reversion_shifted_center():
    f = TruncatedSeries(F(1), [F(3), F(1), F(5)])  # value 3 at center 1
    g = f.reversion()
    assert g.center == F(3)
    assert g.coeffs[0] == F(1)
    assert g.compose(f).coeffs == (F(1), F(1), F(0))


def test_solve_composition_residual():
    # c(s(x)) - 3*c(x) = 1 + x^2 for s = x/2 + x^2
    s = TruncatedSeries(F(0), [F(0), F(1, 2), F(1), F(0), F(0)])
    rhs = [F(1), F(0), F(1), F(0), F(0)]
    c = TruncatedSeries(F(0), s.solve_composition(F(3), rhs))
    residual = c.compose(s) - c * F(3)
    assert residual.coeffs == tuple(rhs)


def test_solve_composition_head_skips_its_rows():
    # Row 1 has pivot m - m = 0: the head fixes it instead.
    s = TruncatedSeries(F(0), [F(0), F(1, 2), F(-1), F(0)])
    c = s.solve_composition(F(1, 2), [F(0)] * 4, head=(F(0), F(1)))
    assert c[:2] == [F(0), F(1)]
    sigma = TruncatedSeries(F(0), c)
    assert (sigma.compose(s) - sigma * F(1, 2)).coeffs == (F(0),) * 4
    with pytest.raises(ZeroDivisionError):
        s.solve_composition(F(1, 2), [F(0)] * 4)


def test_integrate_differentiate():
    f = TruncatedSeries(F(0), [F(1), F(2), F(3)])
    assert f.integrate().differentiate().coeffs == f.coeffs


def test_radius_geometric_converges_near_one():
    series = TruncatedSeries(F(0), [F(1)] * 33)
    verdict = estimate_radius(series)
    assert isinstance(verdict, Converges)
    assert abs(verdict.radius_estimate - 1) < 0.1


def test_radius_polynomial_tail_is_entire():
    series = TruncatedSeries(F(0), [F(1), F(-2)] + [F(0)] * 31)
    verdict = estimate_radius(series)
    assert isinstance(verdict, Converges)
    assert verdict.radius_estimate is None


def test_radius_factorial_diverges():
    import math
    series = TruncatedSeries(F(0), [F(math.factorial(max(n - 1, 0)))
                                    for n in range(33)])
    verdict = estimate_radius(series)
    assert isinstance(verdict, Diverges)
    assert verdict.certificate["test"] == "factorial-growth"


def test_radius_requires_order_16():
    with pytest.raises(ValueError):
        estimate_radius(TruncatedSeries(F(0), [F(1)] * 10))


def test_radius_inconclusive_mixed_growth():
    rng = random.Random(3)
    coeffs = [F(rng.randint(1, 5)) ** (n ** 2 % 7) for n in range(33)]
    verdict = estimate_radius(TruncatedSeries(F(0), coeffs))
    assert isinstance(verdict, (Inconclusive, Converges))


def test_json_round_trip():
    series = TruncatedSeries(F(1, 2), [F(1), F(-2, 3), F(5)])
    doc = series.to_json_dict()
    back = TruncatedSeries.from_json_dict(doc)
    assert back == series


def test_json_round_trip_quadratic_coefficients():
    u = quadratic(2, -1, 6)
    series = TruncatedSeries(u, [u, F(1), quadratic(F(-1, 2), F(-1, 6), 6),
                                 GaussianRational(F(1, 3), -2)])
    doc = series.to_json_dict()
    assert doc["center"] == "2-sqrt(6)"
    assert doc["coeffs"] == ["2-sqrt(6)", "1", "-1/2-1/6*sqrt(6)", ["1/3", "-2"]]
    assert TruncatedSeries.from_json_dict(doc) == series


def test_json_round_trip_numeric_coefficients():
    with mpmath.workprec(256):
        coeffs = [mpmath.mpc(1, 2) / 3, mpmath.mpf(1) / 7, mpmath.mpc(-5, 0) / 7,
                  mpmath.mpc(0, 1) * mpmath.pi * 10**-8]
    doc = TruncatedSeries(F(0), coeffs).to_json_dict()
    assert [c[0] for c in doc["coeffs"]] == ["complex", "float", "complex", "complex"]
    back = TruncatedSeries.from_json_dict(doc)
    assert back.to_json_dict() == doc
    assert [type(c) for c in back.coeffs] == [type(c) for c in coeffs]
    with mpmath.workprec(256):
        for k in (0, 2, 3):
            assert abs(back.coeffs[k] - coeffs[k]) <= abs(coeffs[k]) * mpmath.mpf(10) ** -29


# ---------------------------------------------------------------------------
# The sparse product against the dense loop it replaced


def schoolbook_product(a, b):
    """Every j for every i, skipping only the exact zeros of the left
    operand: the term-by-term loop whose results the product keeps."""
    n = min(len(a), len(b)) - 1
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        if is_exact(a[i]) and a[i] == 0:
            continue
        for j in range(n - i + 1):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def schoolbook_reciprocal(c):
    inv0 = 1 / (F(c[0]) if isinstance(c[0], int) else c[0])
    out = [inv0]
    for n in range(1, len(c)):
        acc = 0
        for k in range(n):
            acc = acc + out[k] * c[n - k]
        out.append(-inv0 * acc)
    return out


def same_terms(got, want):
    return (len(got) == len(want)
            and all(type(g) is type(w) and g == w for g, w in zip(got, want)))


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# Most draws are exact zeros, so the series are sparse.
_rational = st.one_of(st.just(F(0)), st.just(F(0)), st.just(0), _small)
_gaussian = st.one_of(st.just(GaussianRational(0)),
                      st.builds(GaussianRational, _small, _small))
_numeric = st.one_of(st.just(mpmath.mpf(0)),
                     _small.map(lambda q: mpmath.mpf(q.numerator) / q.denominator),
                     st.builds(lambda x, y: mpmath.mpc(x, y),
                               st.integers(-3, 3), st.integers(-3, 3)))
_CLASSES = {
    "rational": _rational,
    "gaussian": st.one_of(_rational, _gaussian),
    "numeric": _numeric,
    "mixed": st.one_of(_rational, _rational, _numeric),
}


@st.composite
def _operands(draw):
    coeff = _CLASSES[draw(st.sampled_from(sorted(_CLASSES)))]
    a = draw(st.lists(coeff, min_size=1, max_size=12))
    b = draw(st.lists(coeff, min_size=1, max_size=12))
    return a, b


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_operands(), st.sampled_from([53, 113]))
def test_product_matches_schoolbook_value_and_type(operands, prec):
    a, b = operands
    with mpmath.workprec(prec):
        got = (TruncatedSeries(F(0), a) * TruncatedSeries(F(0), b)).coeffs
        want = schoolbook_product(a, b)
    assert same_terms(got, want), (a, b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_operands(), st.sampled_from([53, 113]))
def test_reciprocal_matches_schoolbook_value_and_type(operands, prec):
    c = operands[0]
    if c[0] == 0:
        c = [F(1)] + c[1:]
    with mpmath.workprec(prec):
        got = TruncatedSeries(F(0), c).reciprocal().coeffs
        want = schoolbook_reciprocal(c)
    assert same_terms(got, want), c


def test_numeric_zero_times_exact_zero_stays_numeric():
    # [t^1]: 1/3 * 1/3 is exact, and mpf(2) times the skipped exact zero
    # only makes the sum an mpf, as in the dense loop.
    a = TruncatedSeries(F(0), [F(1, 3), mpmath.mpf(2)])
    b = TruncatedSeries(F(0), [F(0), F(1, 3)])
    got = (a * b).coeffs[1]
    assert type(got) is mpmath.mpf and got == mpmath.mpf(1) / 9


class _Counted(F):
    """A rational that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return F.__mul__(self, other)

    def __rmul__(self, other):
        _Counted.products += 1
        return F.__rmul__(self, other)


def test_power_table_costs_degree_times_order_squared():
    # x - x^2 at order 200, with an mpf on the right-hand side so that the
    # term-by-term loop runs: the table [t^n] s^j walks two nonzeros of s
    # per nonzero of each power: 20,100 products (the dense loop made
    # 681,750).
    order = 200
    s = TruncatedSeries(F(0), [_Counted(0), _Counted(1), _Counted(-1)]
                        + [_Counted(0)] * (order - 2))
    _Counted.products = 0
    with mpmath.workprec(53):
        coeffs = s.solve_composition(F(3), [0, mpmath.mpf(1)] + [0] * (order - 1))
    assert _Counted.products <= order * order
    exact = s.solve_composition(F(3), [F(0), F(1)] + [F(0)] * (order - 1))
    assert coeffs[0] == exact[0] == 0
    assert all(type(c) is mpmath.mpf for c in coeffs[1:])
    with mpmath.workprec(53):
        assert all(abs(c - e) <= abs(e) * mpmath.mpf(2) ** -40
                   for c, e in zip(coeffs[1:], exact[1:]))


class _CountedInt(int):
    """An integer that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _CountedInt.products += 1
        return int(self) * other

    __rmul__ = __mul__


def test_integer_power_table_costs_degree_times_order_squared():
    # The rational solve builds the same table on integer numerators and
    # walks the same pairs: a nonzero of s for each nonzero of the previous
    # row (20,100 products at order 200).
    order = 200
    S = [_CountedInt(0), _CountedInt(1), _CountedInt(-1)] + [_CountedInt(0)] * (order - 2)
    rhs = [F(0), F(1)] + [F(0)] * (order - 1)
    _CountedInt.products = 0
    coeffs = _solve_rational(S, 1, order, F(3), rhs, ())
    assert 0 < _CountedInt.products <= order * order
    c = TruncatedSeries(F(0), coeffs)
    s = TruncatedSeries(F(0), [F(0), F(1), F(-1)] + [F(0)] * (order - 2))
    assert (c.compose(s) - c * F(3)).coeffs == (F(0), F(1)) + (F(0),) * (order - 1)


def test_exact_solve_returns_no_float():
    # Row 0's pivot 1 - 3 is an int, and the int 1 over it is still exact.
    got = TruncatedSeries(F(0), [F(0), F(1, 2)]).solve_composition(3, [1, 0])
    assert same_terms(got, [F(-1, 2), F(0)])


# ---------------------------------------------------------------------------
# The rational solve against the term-by-term loop


def _lifted(a, b):
    """a as mpmath converts it with an mpf b on the left (Fraction - mpf
    and Fraction / mpf have no fallback)."""
    if type(a) is F and type(b) is mpmath.mpf:
        return mpmath.mp.convert(a)
    return a


def schoolbook_solve(s, lam, rhs, head=()):
    """Row by row over the table [t^n] s^j of schoolbook products: the
    term-by-term loop whose values the rational solve keeps.  The int 1
    starts the table, as in that loop, so row 0's pivot is 1 - lam; an int
    over an int pivot is a Fraction, and a Fraction left of an mpf is
    converted as mpmath converts it."""
    n = len(s) - 1
    powers = [[1] + [F(0)] * n]
    for _ in range(n):
        powers.append(schoolbook_product(powers[-1], [F(0)] + list(s[1:])))
    coeffs = list(head)
    for k in range(len(coeffs), n + 1):
        acc = rhs[k]
        for j in range(k):
            if powers[j][k] != 0:
                term = coeffs[j] * powers[j][k]
                acc = _lifted(acc, term) - term
        pivot = _lifted(powers[k][k], lam) - lam
        if type(acc) is int and type(pivot) is int:
            acc = F(acc)
        coeffs.append(_lifted(acc, pivot) / pivot)
    return coeffs


_exact = st.one_of(st.integers(-3, 3), _small)


@st.composite
def _equations(draw):
    """s rational with a nonzero slope, rational lam (at times a power of
    the slope, so that a pivot vanishes), rhs mixing int and Fraction, and
    a head of length 0 to 2.  The mixed class puts one mpf into rhs or lam."""
    n = draw(st.integers(0, 10))
    slope = draw(_small.filter(bool))
    s = [draw(_rational), slope] + draw(st.lists(_rational, min_size=n, max_size=n))
    s = s[:n + 1]
    nonzero = _exact.filter(bool)
    lam = draw(st.one_of(nonzero, nonzero, nonzero,
                         st.integers(0, n).map(lambda k: slope ** k)))
    rhs = draw(st.lists(_exact, min_size=n + 1, max_size=n + 1))
    head = draw(st.lists(_exact, max_size=min(2, n + 1)))
    if draw(st.sampled_from(["rational", "mixed"])) == "mixed":
        k = draw(st.integers(-1, n))
        if k < 0:
            lam = mpmath.mpf(lam.numerator) / lam.denominator
        else:
            rhs[k] = mpmath.mpf(rhs[k].numerator) / rhs[k].denominator
    return s, lam, rhs, head


def _outcome(solve):
    """The coefficients, or ZeroDivisionError at a zero pivot, which both
    sides must share."""
    try:
        return solve()
    except ZeroDivisionError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_equations(), st.sampled_from([53, 113]))
def test_solve_matches_schoolbook_value_and_type(equation, prec):
    s, lam, rhs, head = equation
    with mpmath.workprec(prec):
        got = _outcome(lambda: TruncatedSeries(F(0), s).solve_composition(lam, rhs, head))
        want = _outcome(lambda: schoolbook_solve(s, lam, rhs, head))
    if isinstance(want, type):
        assert got is want, equation
    else:
        assert same_terms(got, want), equation


def test_int_row_0_over_an_int_pivot_is_a_fraction():
    # The mpf in rhs[1] sends the solve down the term-by-term loop, where
    # row 0 is the int 0 over the int pivot 1 - (-1).
    got = TruncatedSeries(F(0), [F(0), F(1)]).solve_composition(-1, [0, mpmath.mpf(1)])
    assert same_terms(got, [F(0), mpmath.mpf(0.5)])


def test_exact_jet_meets_an_mpf_lambda():
    # Fraction - mpf and Fraction / mpf have no fallback in mpmath: the
    # table entries of x - x^2 are converted as mpmath converts them.
    with mpmath.workprec(53):
        got = TruncatedSeries(F(0), [F(0), F(1), F(-1)]).solve_composition(
            mpmath.mpf(3), [0, 1, 0])
    assert same_terms(got, [mpmath.mpf(0), mpmath.mpf(-0.5), mpmath.mpf(0.25)])
    # A Fraction rhs entry after an mpf has entered the row sum.
    with mpmath.workprec(53):
        got = TruncatedSeries(F(0), [F(0), F(1), F(-1)]).solve_composition(
            F(3), [F(0), mpmath.mpf(1), F(1, 2)])
    assert same_terms(got, [F(0), mpmath.mpf(-0.5), mpmath.mpf(0)])


def test_json_float_coefficients_carry_30_digits():
    # Printed from the coefficient itself, not from a 53-bit copy of it.
    with mpmath.workprec(256):
        coeffs = [-mpmath.e / 2, mpmath.mpf(1) / 7]
    doc = TruncatedSeries(F(0), coeffs).to_json_dict()
    assert doc["coeffs"] == [["float", "-1.35914091422952261768014373568"],
                             ["float", "0.142857142857142857142857142857"]]


# ---------------------------------------------------------------------------
# Numeric evaluation: the raw-tuple Horner kernel against mpf objects


def schoolbook_eval(coeffs, center, x):
    """Independent oracle: Horner's rule on the scalars themselves, so
    mpmath converts and rounds every coefficient at every step."""
    t = x - center
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


def same_value(got, want):
    if type(got) is not type(want):
        return False
    if isinstance(want, mpmath.mpf):
        return got._mpf_ == want._mpf_
    if isinstance(want, mpmath.mpc):
        return got._mpc_ == want._mpc_
    return got == want


_wide = st.one_of(st.integers(-10 ** 40, 10 ** 40),
                  st.builds(F, st.integers(-10 ** 40, 10 ** 40),
                            st.integers(1, 2 ** 300)))
# Zero entries, small and large rationals, and now and then an mpf.
_exact_coeff = st.one_of(st.just(F(0)), st.just(0), _small, _wide)
_kernel_coeff = st.one_of(_exact_coeff, _exact_coeff, _exact_coeff,
                          _small.map(lambda q: mpmath.mpf(q.numerator) / q.denominator))
_center = st.one_of(st.just(F(0)), st.just(0), _small, _wide)


@st.composite
def _wide_point(draw, prec):
    """An mpf with up to 300 more mantissa bits than the working precision."""
    man = draw(st.integers(-2 ** (prec + 300), 2 ** (prec + 300)))
    return mpmath.mp.make_mpf(from_man_exp(man, draw(st.integers(-prec - 340, 8))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data(), st.lists(_kernel_coeff, min_size=1, max_size=14), _center,
       st.integers(53, 4096))
def test_numeric_eval_matches_schoolbook_value_type_and_bits(data, coeffs, center, prec):
    series = TruncatedSeries(center, coeffs)
    with mpmath.workprec(prec):
        x = data.draw(_wide_point(prec))
        want = schoolbook_eval(coeffs, center, x)
        # The second call reads the rounded coefficients kept on the series.
        assert same_value(series.eval(x), want), (coeffs, center, x)
        assert same_value(series.eval(x), want)


def test_one_coefficient_series_returns_its_coefficient():
    with mpmath.workprec(200):
        for c in (F(1, 3), 7, mpmath.mpf(2) / 3):
            got = TruncatedSeries(F(1, 2), [c]).eval(mpmath.mpf(5) / 7)
            assert got is c


_quadratic = st.builds(lambda p, q: quadratic(p, q, 2), _small, _small)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(_exact_coeff, _quadratic, _gaussian), min_size=1, max_size=8),
       _center, st.integers(-3, 3), st.integers(1, 3), st.sampled_from([53, 256]))
def test_generic_eval_matches_schoolbook(coeffs, center, re, im, prec):
    # mpc points, and quadratic-irrational or Gaussian coefficients, take
    # the generic Horner, which reads as the schoolbook one did.
    with mpmath.workprec(prec):
        for x in (mpmath.mpc(re, im) / 3, mpmath.mpf(re) / 7):
            want = schoolbook_eval(coeffs, center, x)
            assert same_value(TruncatedSeries(center, coeffs).eval(x), want), (coeffs, x)


def test_exact_and_numeric_centres_take_the_generic_horner():
    coeffs = [F(1, 3), F(-2, 7), F(5, 11)]
    with mpmath.workprec(128):
        for center, x in ((F(1, 2), F(3, 4)), (mpmath.mpf(1) / 3, mpmath.mpf(2) / 5)):
            got = TruncatedSeries(center, coeffs).eval(x)
            assert same_value(got, schoolbook_eval(coeffs, center, x))


def test_radius_needs_four_nonzero_tail_coefficients():
    # f_n = 2^-n at n = 12, 16, 20 and 24 only: a radius of 2, which the
    # root test sees from four tail coefficients but not from three.
    def series(ns):
        return TruncatedSeries(F(0), [F(1)] + [F(1, 2 ** n) if n in ns else F(0)
                                               for n in range(1, 25)])
    verdict = estimate_radius(series({16, 20, 24}))
    assert isinstance(verdict, Inconclusive)
    assert verdict.reason == "too few nonzero tail coefficients"
    verdict = estimate_radius(series({12, 16, 20, 24}))
    assert isinstance(verdict, Converges) and abs(verdict.radius_estimate - 2) < 1e-9
