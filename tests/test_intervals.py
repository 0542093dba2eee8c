from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from compspec.errors import ExpressionSyntaxError
from compspec.intervals import (NEG_INF, POS_INF, Interval, intersect_unions,
                                is_finite, union_covers)
from compspec.numbers import to_mpf
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


def test_reflect():
    iv = Interval(F(1), POS_INF)
    ref = iv.reflect(F(1, 2))
    assert ref == Interval(NEG_INF, F(0))


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
