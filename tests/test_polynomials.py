"""The integer Horner kernels against the mpmath and Fraction arithmetic
they replace: ``eval_raw`` against ``mpf_mul``/``mpf_add`` step by step,
``raw_ratio`` against ``mpf_div(from_int(...))``, and ``eval_rational`` (with
the series and symbol evaluations routed through it) against Fraction
Horner, value and type; ``integer_form`` against an lcm oracle and
``sturm.sign_at`` against the sign of the Fraction Horner."""

import ast
import math
import pathlib
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (fnan, fninf, from_int, from_man_exp, fzero, mpf_add,
                          mpf_div, mpf_mul, round_nearest)

from compspec import polynomials as polylib
from compspec import sturm
from compspec.numbers import quadratic, raw_ratio
from compspec.power_series import TruncatedSeries
from compspec.symbols import AnalyticSymbol

PRECISIONS = st.one_of(st.sampled_from([53, 64, 96, 120, 280, 1048, 2112]),
                       st.integers(53, 2112))
SETTINGS = dict(deadline=None, derandomize=True, database=None)


def reference_eval_raw(descending, x, prec, rnd):
    """The Horner loop ``eval_raw`` replaces: one ``mpf_mul`` and one
    ``mpf_add`` per step."""
    acc = descending[0]
    for c in descending[1:]:
        acc = mpf_add(mpf_mul(acc, x, prec, rnd), c, prec, rnd)
    return acc


def reference_raw_ratio(num, den, prec):
    return mpf_div(from_int(num, prec, round_nearest), from_int(den), prec, round_nearest)


@st.composite
def raw_values(draw, prec, far=True):
    """A raw mpf tuple: zero, or a signed mantissa of up to 3 prec bits with
    an exponent near its size or, when ``far``, up to 4 prec away."""
    if draw(st.integers(0, 6)) == 0:
        return fzero
    bits = draw(st.sampled_from([1, 2, 5, prec // 2, prec, prec + 1, 3 * prec]))
    man = draw(st.integers(1, 2 ** bits - 1)) * draw(st.sampled_from([1, -1]))
    spread = 4 * prec if far and draw(st.booleans()) else prec // 4
    return from_man_exp(man, draw(st.integers(-spread, spread)) - bits)


@st.composite
def horner_cases(draw):
    prec = draw(PRECISIONS)
    descending = draw(st.lists(raw_values(prec), min_size=1, max_size=26))
    return descending, draw(raw_values(prec)), prec


@st.composite
def tie_cases(draw):
    """Coefficients of exactly prec bits and points of one to three bits,
    so that products and sums often fall halfway between two neighbours."""
    prec = draw(st.sampled_from([53, 64, 120, 280]))
    coeff = st.builds(lambda m, s, e: from_man_exp((m | 1 | 1 << (prec - 1)) * s, e),
                      st.integers(0, 2 ** prec - 1), st.sampled_from([1, -1]),
                      st.integers(-3, 3))
    descending = draw(st.lists(coeff, min_size=2, max_size=10))
    x = from_man_exp(draw(st.sampled_from([1, 3, 5, 7, -1, -3, -5])), draw(st.integers(-2, 2)))
    return descending, x, prec


@settings(max_examples=600, **SETTINGS)
@given(horner_cases())
def test_eval_raw_matches_mpmath_steps(case):
    descending, x, prec = case
    assert polylib.eval_raw(descending, x, prec, round_nearest) == \
        reference_eval_raw(descending, x, prec, round_nearest)


@settings(max_examples=300, **SETTINGS)
@given(tie_cases())
def test_eval_raw_rounds_ties_to_even(case):
    descending, x, prec = case
    assert polylib.eval_raw(descending, x, prec, round_nearest) == \
        reference_eval_raw(descending, x, prec, round_nearest)


@pytest.mark.parametrize("special", [fnan, fninf])
def test_eval_raw_special_values_follow_mpmath(special):
    c = from_man_exp(3, -1)
    for descending, x in [((c, special, c), c), ((special, c), c), ((c, c, c), special)]:
        assert polylib.eval_raw(descending, x, 120, round_nearest) == \
            reference_eval_raw(descending, x, 120, round_nearest)


def test_eval_raw_far_apart_addends():
    # A coefficient 2^-3000 below the running value, and one 2^3000 above it.
    for offset in (-3000, 3000):
        descending = (from_man_exp(5, 0), from_man_exp(-7, offset), from_man_exp(3, 0))
        x = from_man_exp(12345, -10)
        assert polylib.eval_raw(descending, x, 53, round_nearest) == \
            reference_eval_raw(descending, x, 53, round_nearest)


def test_eval_raw_of_one_coefficient_is_that_coefficient():
    c = from_man_exp(-9, 4)
    assert polylib.eval_raw((c,), from_man_exp(3, 0), 53, round_nearest) == c


def _odd_series():
    # arctan to order 24: every even coefficient is zero, the top one too.
    return TruncatedSeries(F(0), [F((-1) ** (n // 2), n) if n % 2 else F(0)
                                  for n in range(25)])


@pytest.mark.parametrize("prec", [53, 280, 1048])
def test_odd_series_stays_on_integers(monkeypatch, prec):
    # The points have 53 bits, so x - 0 is x itself at every precision.
    points = [mpmath.mpf(k) / 7 for k in (-5, -1, 2, 6)]
    descending = _odd_series()._rounded_coeffs(prec)[1]
    assert descending[0] == fzero
    expected = [reference_eval_raw(descending, x._mpf_, prec, round_nearest) for x in points]

    def refuse(*args):
        raise AssertionError("eval_raw left the integer path")

    monkeypatch.setattr(polylib, "mpf_add", refuse)
    monkeypatch.setattr(polylib, "mpf_mul", refuse)
    with mpmath.workprec(prec):
        assert [_odd_series().eval(x)._mpf_ for x in points] == expected


@st.composite
def ratio_cases(draw):
    prec = draw(PRECISIONS)
    if draw(st.booleans()):
        num = draw(st.integers(-2 ** (3 * prec), 2 ** (3 * prec)))
    else:   # prec + 1 bits ending in 1: rounding num is a tie
        num = (draw(st.integers(0, 2 ** prec - 1)) | 1 << prec | 1) * draw(st.sampled_from([1, -1]))
    den = draw(st.one_of(st.integers(1, 2 ** (2 * prec)),
                         st.builds(lambda k: 2 ** k, st.integers(0, 300))))
    return num, den, prec


@settings(max_examples=600, **SETTINGS)
@given(ratio_cases())
def test_raw_ratio_matches_mpf_div(case):
    num, den, prec = case
    got = raw_ratio(num, den, prec)
    assert got == reference_raw_ratio(num, den, prec)
    assert type(got[0]) is int


@st.composite
def rationals(draw, max_den=10 ** 6):
    num = draw(st.integers(-10 ** 12, 10 ** 12))
    den = draw(st.integers(1, max_den))
    return draw(st.sampled_from([F(num, den), num]))


@st.composite
def series_cases(draw):
    coeffs = draw(st.lists(rationals(), min_size=1, max_size=25))
    if draw(st.booleans()):
        coeffs = [F(c) for c in coeffs]
    return TruncatedSeries(draw(rationals(100)), coeffs), draw(rationals())


@settings(max_examples=300, **SETTINGS)
@given(series_cases())
def test_series_eval_matches_fraction_horner(case):
    series, x = case
    got, want = series.eval(x), polylib.eval_at(series.coeffs, x - series.center)
    assert got == want and type(got) is type(want)


def test_series_eval_keeps_int_results_and_other_fields():
    ints = TruncatedSeries(1, [2, 0, -3])
    assert ints.eval(4) == -25 and type(ints.eval(4)) is int
    assert ints.eval(F(1, 2)) == F(5, 4)
    mixed = TruncatedSeries(0, [1, F(1, 2)])
    assert mixed.eval(2) == 2 and type(mixed.eval(2)) is F
    sqrt2 = quadratic(0, 1, 2)
    assert mixed.eval(sqrt2) == polylib.eval_at(mixed.coeffs, sqrt2)
    at_root = TruncatedSeries(sqrt2, [F(1), F(1, 3)])
    assert at_root.eval(F(1)) == polylib.eval_at(at_root.coeffs, F(1) - sqrt2)


def test_series_keeps_its_integer_form_out_of_equality():
    series, fresh = _odd_series(), _odd_series()
    assert series.eval(F(1, 3)) == fresh.eval(F(1, 3))
    assert series._integer[1] == math.lcm(*range(1, 24, 2))
    again = TruncatedSeries(series.center, series.coeffs)
    assert not hasattr(again, "_integer") and again == series and hash(again) == hash(series)


@settings(max_examples=200, **SETTINGS)
@given(st.lists(rationals(), min_size=1, max_size=12), st.integers(0, 2), rationals())
def test_eval_rational_matches_fraction_horner(coeffs, zeros, x):
    coeffs = coeffs + [0] * zeros
    D = math.lcm(*(F(c).denominator for c in coeffs))
    P = [int(F(c) * D) for c in coeffs]
    while len(P) > 1 and P[-1] == 0:
        P.pop()
    assert polylib.integer_form(coeffs) == (P, D)
    got = polylib.eval_rational(P, D, x)
    expected = polylib.eval_at([F(c) for c in coeffs], F(x))
    assert got == expected and type(got) is F
    assert sturm.sign_at(P, x) == (expected > 0) - (expected < 0)


def test_only_polynomials_takes_an_lcm():
    # The integer form P/D of a rational polynomial has one home.
    callers = {path.name for path in pathlib.Path(polylib.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and "lcm" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert callers == {"polynomials.py"}


@settings(max_examples=100, **SETTINGS)
@given(st.lists(rationals(1000), min_size=2, max_size=8).filter(lambda c: c[-1] != 0),
       rationals())
def test_symbol_eval_matches_fraction_horner(coeffs, x):
    phi = AnalyticSymbol.from_coefficients(coeffs, require_self_map=False)
    got = phi.eval(x)
    assert got == polylib.eval_at(phi.poly_coeffs(), F(x)) and type(got) is F
