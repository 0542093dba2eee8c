"""Open intervals with exact rational or infinite endpoints.

Endpoints are ``Fraction`` or the module-level ``NEG_INF`` / ``POS_INF``
sentinels; membership tests for exact points are exact, and mpf points
are compared with the endpoints rounded at the working precision.  Also
provides the interval-set algebra of the covering machinery and of the
certified image containment (intersection, merged unions, complement
blocks, union coverage).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import mpf_lt

from .errors import DomainError, ExpressionSyntaxError
from .numbers import is_exact, is_rational, parse_rational, to_mpf


class _Infinity:
    """An infinite end.  It has no order: compare ends with ``ext_lt``."""

    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign

    def __eq__(self, other):
        return isinstance(other, _Infinity) and other.sign == self.sign

    def __hash__(self):
        return hash(("inf", self.sign))

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)


def is_finite(x) -> bool:
    return not isinstance(x, _Infinity)


def ext_lt(a, b) -> bool:
    """a < b on the extended line; finite values may be Fraction or
    QuadraticNumber (both support exact comparison)."""
    if isinstance(a, _Infinity):
        return a.sign < 0 and not (isinstance(b, _Infinity) and b.sign < 0)
    if isinstance(b, _Infinity):
        return b.sign > 0
    return a < b


def ext_min(a, b):
    return a if ext_lt(a, b) else b


def ext_max(a, b):
    return b if ext_lt(a, b) else a


class Interval:
    """Open interval (lower, upper) on the extended real line.

    ``_rounded``, set on the first mpf membership test and left out of
    equality, hashing and repr, keeps the endpoints rounded per precision.
    """

    __slots__ = ("lower", "upper", "_rounded")

    def __init__(self, lower, upper):
        lower = Fraction(lower) if isinstance(lower, (int, str)) else lower
        upper = Fraction(upper) if isinstance(upper, (int, str)) else upper
        if not ext_lt(lower, upper):
            raise ValueError(f"empty interval: ({lower}, {upper})")
        self.lower = lower
        self.upper = upper

    @classmethod
    def real_line(cls) -> "Interval":
        return cls(NEG_INF, POS_INF)

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse "(lo,hi)" with "inf"/"-inf" allowed."""
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ExpressionSyntaxError("interval must look like (lo,hi)", 0)
        parts = s[1:-1].split(",")
        if len(parts) != 2:
            raise ExpressionSyntaxError("interval needs exactly one comma", 1)

        def endpoint(token, k):
            token = token.strip()
            if token in ("inf", "+inf", "oo", "+oo"):
                return POS_INF
            if token in ("-inf", "-oo"):
                return NEG_INF
            try:
                return parse_rational(token)
            except (ValueError, ZeroDivisionError):
                raise ExpressionSyntaxError(f"bad endpoint {token!r}", k) from None

        return cls(endpoint(parts[0], 1), endpoint(parts[1], 2))

    def contains(self, x) -> bool:
        """Strict membership.  Exact points (int, Fraction, QuadraticNumber)
        compare exactly; an mpf point compares against the finite bounds
        rounded by ``to_mpf`` at the current mpmath working precision."""
        lo, hi = (self.lower, self.upper) if is_exact(x) else self._rounded_ends()
        lo_ok = not is_finite(lo) or lo < x
        hi_ok = not is_finite(hi) or x < hi
        return lo_ok and hi_ok

    def _rounded_ends(self):
        """The endpoints with each finite one through ``to_mpf`` at the
        working precision, computed once per precision."""
        prec = mpmath.mp.prec
        try:
            memo = self._rounded
        except AttributeError:
            memo = self._rounded = {}
        ends = memo.get(prec)
        if ends is None:
            ends = memo[prec] = tuple(to_mpf(e) if is_finite(e) else e
                                      for e in (self.lower, self.upper))
        return ends

    def raw_membership(self, bits: int):
        """Strict membership of a raw mpf tuple, against the finite ends
        rounded once by ``to_mpf`` at ``bits``: a predicate on tuples."""
        lo, hi = (to_mpf(end, bits)._mpf_ if is_finite(end) else None
                  for end in (self.lower, self.upper))
        return lambda x: (lo is None or mpf_lt(lo, x)) and (hi is None or mpf_lt(x, hi))

    def contains_interval(self, other: "Interval") -> bool:
        lo_ok = (not is_finite(self.lower)) or (
            is_finite(other.lower) and not ext_lt(other.lower, self.lower))
        hi_ok = (not is_finite(self.upper)) or (
            is_finite(other.upper) and not ext_lt(self.upper, other.upper))
        return lo_ok and hi_ok

    def intersect(self, other: "Interval"):
        lo = ext_max(self.lower, other.lower)
        hi = ext_min(self.upper, other.upper)
        if ext_lt(lo, hi):
            return Interval(lo, hi)
        return None

    def midpoint(self) -> Fraction:
        """A representative interior rational point."""
        lo, hi = self.lower, self.upper
        if is_finite(lo) and is_finite(hi):
            return (lo + hi) / 2
        if is_finite(lo):
            return lo + 1
        if is_finite(hi):
            return hi - 1
        return Fraction(0)

    def __eq__(self, other):
        return (isinstance(other, Interval)
                and self.lower == other.lower and self.upper == other.upper)

    def __hash__(self):
        return hash((self.lower, self.upper))

    def __repr__(self):
        return f"Interval({self.lower}, {self.upper})"

    def __str__(self):
        lo = "-inf" if self.lower == NEG_INF else str(self.lower)
        hi = "inf" if self.upper == POS_INF else str(self.upper)
        return f"({lo},{hi})"


def require_rational_ends(interval: Interval):
    """Raise DomainError, naming the end, when a finite end of the interval
    is not rational: containment is decided for rational and infinite
    ends only."""
    for end in (interval.lower, interval.upper):
        if is_finite(end) and not is_rational(end):
            raise DomainError(f"interval end {end} of {interval} is neither rational "
                              "nor infinite, which containment does not support")


def union_covers(pieces: list[Interval], target: Interval) -> bool:
    """Whether a finite union of open intervals covers the open target:
    no closed block of its complement meets the target.

    Open endpoints matter: (a,b) and (b,c) together do not cover b.
    """
    return not any(ext_lt(lo, target.upper) and ext_lt(target.lower, hi)
                   for lo, hi in complement_blocks(pieces))


def merge_open_union(union: list[Interval]) -> list[Interval]:
    """A finite open union as disjoint intervals in ascending order."""
    if not union:
        return []
    parts = sorted(union, key=_lower_key)
    merged = [parts[0]]
    for iv in parts[1:]:
        last = merged[-1]
        if ext_lt(iv.lower, last.upper):
            if ext_lt(last.upper, iv.upper):
                merged[-1] = Interval(last.lower, iv.upper)
        else:
            merged.append(iv)
    return merged


def complement_blocks(union: list[Interval]):
    """Closed complement of a finite open union, as (lo, hi) blocks on the
    extended line; lo == hi encodes a single missing point."""
    merged = merge_open_union(union)
    if not merged:
        return [(NEG_INF, POS_INF)]
    blocks = []
    if is_finite(merged[0].lower):
        blocks.append((NEG_INF, merged[0].lower))
    for a, b in zip(merged, merged[1:]):
        blocks.append((a.upper, b.lower))
    if is_finite(merged[-1].upper):
        blocks.append((merged[-1].upper, POS_INF))
    return blocks


def _lower_key(p: Interval):
    if not is_finite(p.lower):
        return (0, Fraction(0))
    return (1, p.lower)


def intersect_unions(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Pairwise intersection of two finite unions, as a sorted union."""
    out = []
    for p in a:
        for q in b:
            r = p.intersect(q)
            if r is not None:
                out.append(r)
    out.sort(key=_lower_key)
    return out
