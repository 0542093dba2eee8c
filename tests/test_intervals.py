from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from compspec.errors import ExpressionSyntaxError
from compspec.intervals import (NEG_INF, POS_INF, Interval, intersect_unions,
                                is_finite, union_covers)
from compspec.numbers import quadratic, to_mpf
from compspec.sturm import complement_blocks


def test_parse_and_membership():
    iv = Interval.parse("(-1/2, 3)")
    assert iv.contains(F(0))
    assert not iv.contains(F(-1, 2))
    assert not iv.contains(F(3))
    whole = Interval.parse("(-inf,inf)")
    assert whole.contains(F(10 ** 12))


@pytest.mark.parametrize("prec", [53, 256])
def test_membership_of_mpf_points(prec):
    bounded = Interval(F(1, 3), F(2))
    below = Interval(NEG_INF, F(1, 3))
    above = Interval(F(-1), POS_INF)
    with mpmath.workprec(prec):
        edge = to_mpf(F(1, 3))
        step = mpmath.mpf(2) ** -(prec - 8)
        assert not bounded.contains(edge) and not below.contains(edge)
        assert bounded.contains(edge + step) and below.contains(edge - step)
        assert not bounded.contains(mpmath.mpf(2))
        assert above.contains(mpmath.mpf(10) ** 300)
        assert not above.contains(mpmath.mpf(-1))
        assert Interval.real_line().contains(-mpmath.mpf(10) ** 300)


def test_mpf_membership_rounds_bounds_at_the_working_precision():
    # The 53-bit image of 1/3 lies below 1/3 and the 256-bit image above.
    fine = to_mpf(F(1, 3), 256)
    ray = Interval(F(1, 3), POS_INF)
    with mpmath.workprec(53):
        assert ray.contains(fine)
    with mpmath.workprec(256):
        assert not ray.contains(fine)


def test_parse_rejects_garbage():
    with pytest.raises(ExpressionSyntaxError):
        Interval.parse("[0,1]")
    with pytest.raises(ExpressionSyntaxError):
        Interval.parse("(0;1)")
    with pytest.raises(ValueError):
        Interval(1, 1)


def test_union_covers_requires_overlap_at_shared_endpoints():
    line = Interval.real_line()
    assert union_covers([Interval(NEG_INF, 0), Interval(-1, 1),
                         Interval(0, POS_INF)], line)
    # (-inf,0) and (0,inf) miss the point 0
    assert not union_covers([Interval(NEG_INF, 0), Interval(0, POS_INF)], line)
    assert union_covers([Interval(0, 1)], Interval(F(1, 4), F(1, 2)))
    assert not union_covers([Interval(0, 1)], Interval(0, 2))


def test_intersect_unions():
    a = [Interval(NEG_INF, F(1, 2)), Interval(1, POS_INF)]
    b = [Interval(0, F(3, 2))]
    parts = intersect_unions(a, b)
    assert parts == [Interval(0, F(1, 2)), Interval(1, F(3, 2))]


def test_complement_blocks():
    blocks = complement_blocks([Interval(NEG_INF, 0), Interval(0, POS_INF)])
    assert blocks == [(F(0), F(0))]
    blocks = complement_blocks([Interval(0, 1)])
    assert blocks == [(NEG_INF, F(0)), (F(1), POS_INF)]
    assert complement_blocks([Interval.real_line()]) == []
    assert complement_blocks([]) == [(NEG_INF, POS_INF)]


_ENDS = st.one_of(st.fractions(min_value=-4, max_value=4, max_denominator=2),
                  st.sampled_from([NEG_INF, POS_INF]))


def _interval(ends):
    lo, hi = sorted(ends, key=lambda e: (e is not NEG_INF, e is POS_INF,
                                         e if is_finite(e) else 0))
    assume(lo is not POS_INF and hi is not NEG_INF and lo != hi)
    return Interval(lo, hi)


_INTERVALS = st.tuples(_ENDS, _ENDS).map(_interval)


@settings(max_examples=300, deadline=None)
@given(st.lists(_INTERVALS, max_size=4), _INTERVALS)
def test_union_covers_matches_brute_force(pieces, target):
    # Open-interval membership changes only at endpoints, so the endpoints,
    # the midpoints between them and one point beyond each side decide it.
    ends = sorted({e for iv in pieces + [target] for e in (iv.lower, iv.upper)
                   if is_finite(e)}) or [F(0)]
    probes = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])] \
        + [ends[0] - 1, ends[-1] + 1]
    expected = all(any(p.contains(t) for p in pieces)
                   for t in probes if target.contains(t))
    assert union_covers(pieces, target) == expected


# Endpoint rounding is memoised per working precision; the memo must give
# the answer of rounding each finite endpoint by to_mpf on every call.
@st.composite
def _memo_intervals(draw):
    """Rational, infinite and quadratic endpoints; two quadratic ones share
    their field, since numbers of different fields do not compare."""
    d = draw(st.sampled_from([2, 3, 5, 7, 10, 9973]))
    ends = st.one_of(
        st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6),
        st.builds(quadratic,
                  st.fractions(min_value=-5, max_value=5, max_denominator=1000),
                  st.fractions(min_value=-3, max_value=3,
                               max_denominator=1000).filter(bool),
                  st.just(d)),
        st.sampled_from([NEG_INF, POS_INF]))
    return _interval(draw(st.tuples(ends, ends)))


_PRECISIONS = st.sampled_from([53, 64, 96, 113, 256, 288, 1024, 4096])


def _formula_contains(iv, x):
    lo, hi = iv.lower, iv.upper
    lo_ok = not is_finite(lo) or to_mpf(lo) < x
    hi_ok = not is_finite(hi) or x < to_mpf(hi)
    return lo_ok and hi_ok


def _near(end, prec):
    """Exact mpf points at and within one ulp of end rounded at prec: the
    rounded value, its neighbours and the two midpoints between them."""
    man, exp = to_mpf(end, prec).man_exp
    return [mpmath.mpf(from_man_exp(2 * man + k, exp - 1)) for k in range(-2, 3)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_memo_intervals(), st.lists(_PRECISIONS, min_size=1, max_size=3))
def test_memoised_membership_matches_rounding_each_call(iv, precisions):
    for prec in precisions + precisions[:1]:
        points = [mpmath.mpf(0), mpmath.mpf(10) ** 40, -mpmath.mpf(10) ** 40]
        for end in (iv.lower, iv.upper):
            if is_finite(end):
                points += _near(end, prec) + _near(end, prec + 40)
        with mpmath.workprec(prec):
            for x in points:
                assert iv.contains(x) == _formula_contains(iv, x), (iv, x, prec)


def test_endpoints_are_rounded_once_per_precision(monkeypatch):
    from compspec import intervals
    rounded = []

    def counting(value, prec=None):
        rounded.append((value, mpmath.mp.prec))
        return to_mpf(value, prec)
    monkeypatch.setattr(intervals, "to_mpf", counting)
    iv = Interval(F(1, 3), quadratic(1, 1, 2))
    for prec in (53, 256, 53):
        with mpmath.workprec(prec):
            for k in range(10):
                iv.contains(mpmath.mpf(k) / 4)
    assert rounded == [(iv.lower, 53), (iv.upper, 53),
                       (iv.lower, 256), (iv.upper, 256)]
    # Exact points compare with the endpoints themselves.
    assert iv.contains(F(1, 2)) and not iv.contains(F(1, 3))
    assert len(rounded) == 4


def test_the_rounded_endpoints_are_not_part_of_the_interval_value():
    iv, fresh = Interval(F(1, 3), F(2)), Interval(F(1, 3), F(2))
    with mpmath.workprec(96):
        assert iv.contains(mpmath.mpf(1))
    assert iv._rounded and not hasattr(fresh, "_rounded")
    assert iv == fresh and hash(iv) == hash(fresh)
    assert repr(iv) == repr(fresh) and str(iv) == str(fresh)
