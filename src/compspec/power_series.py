"""Truncated power series with exact coefficient arithmetic.

``TruncatedSeries`` is immutable; all operations return new series and are
closed over the coefficient exactness class: exact in (Fraction /
GaussianRational) gives exact out, and mpf/mpc coefficients stay numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import CenterMismatch
from .numbers import (GaussianRational, as_exact, format_rational, invert,
                      is_exact, same_point, to_mpf)


class TruncatedSeries:
    """Taylor polynomial sum_{n<=order} coeffs[n] * (x - center)**n."""

    __slots__ = ("center", "coeffs")

    def __init__(self, center, coeffs):
        self.center = center
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs)

    @classmethod
    def zero(cls, center, order):
        return cls(center, [Fraction(0)] * (order + 1))

    @classmethod
    def identity(cls, center, order):
        """The function x, expanded at center: center + (x - center)."""
        coeffs = [Fraction(0)] * (order + 1)
        coeffs[0] = center
        if order >= 1:
            coeffs[1] = Fraction(1)
        return cls(center, coeffs)

    def coefficient(self, n):
        return self.coeffs[n] if n <= self.order else Fraction(0)

    def truncate(self, order):
        if order >= self.order:
            return self
        return TruncatedSeries(self.center, self.coeffs[:order + 1])

    def _check_center(self, other):
        if isinstance(other, TruncatedSeries):
            if not same_point(other.center, self.center):
                raise CenterMismatch(
                    f"centers differ: {self.center} vs {other.center}")
            return other
        return None

    def __add__(self, other):
        o = self._check_center(other)
        if o is None:
            coeffs = list(self.coeffs)
            coeffs[0] = coeffs[0] + other
            return TruncatedSeries(self.center, coeffs)
        n = min(self.order, o.order)
        return TruncatedSeries(self.center,
                               [self.coeffs[i] + o.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.center, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product through the lower order.  Only the nonzero terms of both
        operands are walked, so the cost is (nonzeros of self) x (nonzeros
        of other) whichever side is sparse; each coefficient is still summed
        in ascending index of self."""
        o = self._check_center(other)
        if o is None:
            return TruncatedSeries(self.center, [c * other for c in self.coeffs])
        n = min(self.order, o.order)
        terms, zeros = [], []
        for j, b in enumerate(o.coeffs[:n + 1]):
            if _is_rational_zero(b):
                zeros.append(j)
            else:
                terms.append((j, b))
        out = [Fraction(0)] * (n + 1)
        promoted = set()
        for i, a in enumerate(self.coeffs[:n + 1]):
            if is_exact(a) and a == 0:
                continue
            for j, b in terms:
                if i + j > n:
                    break
                out[i + j] = out[i + j] + a * b
            if not isinstance(a, (int, Fraction)) and type(a) not in promoted:
                # a times a skipped zero is a zero of a's class (mpf, mpc,
                # GaussianRational): adding it turns an exact rational sum
                # into that class where the full product would, rounding it
                # there.  Every sum from i on then has the class, so later
                # terms of the same class have nothing left to convert.
                promoted.add(type(a))
                for j in zeros:
                    if i + j > n:
                        break
                    out[i + j] = out[i + j] + a * o.coeffs[j]
        return TruncatedSeries(self.center, out)

    __rmul__ = __mul__

    def power(self, k: int):
        result = TruncatedSeries(self.center,
                                 [Fraction(1)] + [Fraction(0)] * self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def reciprocal(self):
        """1/f; requires a nonzero constant term.  The inner sums walk only
        the nonzero coefficients of f."""
        c0 = self.coeffs[0]
        if is_exact(c0) and c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        inv0 = invert(c0)
        terms = [(j, c) for j, c in enumerate(self.coeffs)
                 if j and not _is_rational_zero(c)]
        out = [inv0]
        class_zeros = {}  # a zero of each non-rational class out has taken
        live = 0
        for n in range(1, self.order + 1):
            last = out[-1]
            if not isinstance(last, (int, Fraction)):
                class_zeros.setdefault(type(last), last * 0)
            while live < len(terms) and terms[live][0] <= n:
                live += 1
            acc = 0
            for j, c in reversed(terms[:live]):
                acc = acc + out[n - j] * c
            # A skipped term out[k] * 0 is a zero of out[k]'s class.  The
            # classes of out only widen with k and every kept term after the
            # first such k already has that class, so joining the class at
            # the end rounds as joining it in place would.
            for z in class_zeros.values():
                acc = acc + z
            out.append(-inv0 * acc)
        return TruncatedSeries(self.center, out)

    def differentiate(self):
        if self.order == 0:
            return TruncatedSeries(self.center, [Fraction(0)])
        return TruncatedSeries(
            self.center, [(i + 1) * c for i, c in enumerate(self.coeffs[1:])])

    def integrate(self, constant=Fraction(0)):
        out = [constant]
        for i, c in enumerate(self.coeffs):
            out.append(as_exact(c) / (i + 1))
        return TruncatedSeries(self.center, out[:self.order + 2])

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(x)): inner's constant term must equal self's center
        (to half the working precision when either is numeric)."""
        if not same_point(inner.coeffs[0], self.center):
            raise CenterMismatch(
                f"inner constant term {inner.coeffs[0]} != outer center {self.center}")
        n = min(self.order, inner.order)
        shifted = TruncatedSeries(inner.center,
                                  (Fraction(0),) + inner.coeffs[1:n + 1])
        result = TruncatedSeries.zero(inner.center, n)
        for c in reversed(self.coeffs[:n + 1]):
            result = result * shifted + c
        return result

    def solve_composition(self, lam, rhs, head=()) -> list:
        """Coefficients of the series c with c(self(x)) - lam*c(x) = rhs(x)
        through self's order, all expanded in powers of (x - center).

        With s = self - self(center), the table [t**n] s**j is built once
        and row n is solved with pivot [t**n] s**n - lam (multiplier**n -
        lam), skipping zero table entries.  ``head`` fixes the leading
        coefficients the caller already knows; a zero pivot raises
        ZeroDivisionError.
        """
        n = self.order
        s = TruncatedSeries(self.center, (Fraction(0),) + self.coeffs[1:])
        # The int 1 keeps the n = 0 pivot 1 - lam valid for an mpf lam.
        powers = [TruncatedSeries(self.center, [1] + [Fraction(0)] * n)]
        for _ in range(n):
            powers.append(powers[-1] * s)
        coeffs = list(head)
        for k in range(len(coeffs), n + 1):
            acc = rhs[k]
            for j in range(k):
                a = powers[j].coeffs[k]
                if a == 0:
                    continue
                acc = acc - coeffs[j] * a
            coeffs.append(acc / (powers[k].coeffs[k] - lam))
        return coeffs

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse: series g at self(center) with g(self(x)) = x.

        Requires an invertible linear coefficient.
        """
        c1 = self.coefficient(1)
        if is_exact(c1) and c1 == 0:
            raise ZeroDivisionError("linear coefficient vanishes; not invertible")
        # g(self(x)) = center + (x - center).  Int coefficients keep the
        # right-hand side valid against mpf jets (Fraction - mpf raises).
        x = [self.center, 1] + [0] * (self.order - 1)
        g = self.solve_composition(0, x, head=(self.center,))
        return TruncatedSeries(self.coeffs[0], g)

    def eval(self, x):
        """Horner evaluation of the Taylor polynomial at x."""
        t = x - self.center
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * t + c
        return acc

    def map_coefficients(self, fn):
        return TruncatedSeries(self.center, [fn(c) for c in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.center == other.center and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.center, self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries(center={self.center}, coeffs={list(self.coeffs)})"

    def to_json_dict(self):
        return {
            "center": _coeff_to_json(self.center),
            "order": self.order,
            "coeffs": [_coeff_to_json(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, doc):
        return cls(_coeff_from_json(doc["center"]),
                   [_coeff_from_json(c) for c in doc["coeffs"]])


def _is_rational_zero(c) -> bool:
    return isinstance(c, (int, Fraction)) and c == 0


# Significant digits of numeric coefficients in JSON.  They are read back
# at this many digits, so a document survives a round trip.
_JSON_DIGITS = 30


def _coeff_to_json(c):
    if isinstance(c, GaussianRational):
        if c.im == 0:
            return format_rational(c.re)
        return [format_rational(c.re), format_rational(c.im)]
    if isinstance(c, (int, Fraction)):
        return format_rational(Fraction(c))
    if isinstance(c, mpmath.mpc):
        return ["complex", mpmath.nstr(c.real, _JSON_DIGITS),
                mpmath.nstr(c.imag, _JSON_DIGITS)]
    if not isinstance(c, mpmath.mpf):
        c = mpmath.mpf(c)
    return ["float", mpmath.nstr(c, _JSON_DIGITS)]


def _coeff_from_json(doc):
    if isinstance(doc, str):
        return Fraction(doc)
    if isinstance(doc, list) and len(doc) == 2 and doc[0] == "float":
        with mpmath.workdps(_JSON_DIGITS):
            return mpmath.mpf(doc[1])
    if isinstance(doc, list) and len(doc) == 3 and doc[0] == "complex":
        with mpmath.workdps(_JSON_DIGITS):
            return mpmath.mpc(doc[1], doc[2])
    if isinstance(doc, list) and len(doc) == 2:
        return GaussianRational(Fraction(doc[0]), Fraction(doc[1]))
    raise ValueError(f"bad coefficient document: {doc!r}")


# ---------------------------------------------------------------------------
# Radius verdicts


@dataclass(frozen=True)
class Converges:
    radius_estimate: object  # mpf, or None for entire (polynomial) solutions

    kind = "converges"


@dataclass(frozen=True)
class Diverges:
    certificate: dict

    kind = "diverges"


@dataclass(frozen=True)
class Inconclusive:
    reason: str

    kind = "inconclusive"


def _abs_mpf(c):
    if isinstance(c, GaussianRational):
        return mpmath.sqrt(to_mpf(c.abs2()))
    if isinstance(c, (int, Fraction)):
        return abs(to_mpf(c))
    return abs(mpmath.mpf(c)) if not isinstance(c, mpmath.mpc) else abs(c)


def _exact_abs2(c) -> Fraction:
    if isinstance(c, GaussianRational):
        return c.abs2()
    f = Fraction(c)
    return f * f


def estimate_radius(series: TruncatedSeries):
    """Heuristic radius-of-convergence verdict from the coefficient tail.

    Root test estimates r_n = |f_n|**(-1/n) over the tail half must
    stabilize (relative spread < 25%) for a Converges verdict.  A Diverges
    verdict is issued only from exact coefficients, by checking the
    factorial lower bound |f_n| >= (n-1)! * (1/2)**n across the whole tail
    (an exact integer comparison), which forces radius zero when it
    persists.  Everything else is Inconclusive.
    """
    if series.order < 16:
        raise ValueError("radius estimation needs order >= 16")
    n0 = series.order // 2
    tail = [(n, series.coeffs[n]) for n in range(n0, series.order + 1)]
    nonzero = [(n, c) for n, c in tail if not c == 0]

    if not nonzero:
        # The entire data tail vanishes: the solution is a polynomial.
        return Converges(None)

    # Exact factorial-growth certificate, checked before the root test.
    if series.is_exact() and len(nonzero) == len(tail):
        ok = True
        for n, c in nonzero:
            if n == 0:
                ok = False
                break
            bound = Fraction(math.factorial(n - 1), 2 ** n)
            if _exact_abs2(c) < bound * bound:
                ok = False
                break
        if ok:
            return Diverges({
                "test": "factorial-growth",
                "c": "1/2",
                "window": [n0, series.order],
                "statement": "|f_n| >= (n-1)! * (1/2)**n across the window",
            })

    if len(nonzero) < 4:
        return Inconclusive("too few nonzero tail coefficients")

    with mpmath.workprec(64):
        estimates = []
        for n, c in nonzero:
            a = _abs_mpf(c)
            if a == 0:
                continue
            estimates.append(a ** (mpmath.mpf(-1) / n))
        estimates.sort()
        median = estimates[len(estimates) // 2]
        spread = (estimates[-1] - estimates[0]) / median if median > 0 else mpmath.inf
        if median > 0 and spread < mpmath.mpf("0.25"):
            return Converges(median)
    return Inconclusive("root-test estimates did not stabilize")
