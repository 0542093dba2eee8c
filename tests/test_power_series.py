import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compspec.errors import CenterMismatch
from compspec.numbers import GaussianRational, is_exact
from compspec.power_series import (Converges, Diverges, Inconclusive,
                                   TruncatedSeries, estimate_radius)


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
    # x - x^2 at order 200: the table [t^n] s^j walks two nonzeros of s per
    # nonzero of each power: 20,100 products (the dense loop made 681,750).
    order = 200
    s = TruncatedSeries(F(0), [_Counted(0), _Counted(1), _Counted(-1)]
                        + [_Counted(0)] * (order - 2))
    _Counted.products = 0
    coeffs = s.solve_composition(F(3), [F(0), F(1)] + [F(0)] * (order - 1))
    assert _Counted.products <= order * order
    c = TruncatedSeries(F(0), coeffs)
    assert (c.compose(s) - c * F(3)).coeffs == (F(0), F(1)) + (F(0),) * (order - 1)


def test_json_float_coefficients_carry_30_digits():
    # Printed from the coefficient itself, not from a 53-bit copy of it.
    with mpmath.workprec(256):
        coeffs = [-mpmath.e / 2, mpmath.mpf(1) / 7]
    doc = TruncatedSeries(F(0), coeffs).to_json_dict()
    assert doc["coeffs"] == [["float", "-1.35914091422952261768014373568"],
                             ["float", "0.142857142857142857142857142857"]]
