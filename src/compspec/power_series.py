"""Truncated power series with exact coefficient arithmetic.

``TruncatedSeries`` is immutable; all operations return new series and are
closed over the coefficient exactness class: exact in gives exact out,
and mpf/mpc coefficients stay numeric.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import mpmath
from mpmath.libmp import mpf_sub

from . import polynomials as polylib
from .errors import CenterMismatch
from .numbers import (abs_mpf, as_exact, convert_left, exact_abs_compare, invert,
                      is_exact, is_mpf, is_rational, raw_addend, same_point,
                      scalar_from_json, scalar_to_json)
from .record import Record


class TruncatedSeries:
    """Taylor polynomial sum_{n<=order} coeffs[n] * (x - center)**n.

    ``_rounded`` and ``_integer``, left out of equality, hashing and JSON,
    keep the raw coefficients per precision and their integer form.
    """

    __slots__ = ("center", "coeffs", "_rounded", "_integer")

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
            if not is_rational(a) and type(a) not in promoted:
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
            if not is_rational(last):
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
        ZeroDivisionError.  When every input is an int or a Fraction the
        solve runs on integers (``_solve_rational``); any other coefficient
        takes the term-by-term loop below.
        """
        n = self.order
        slopes = self.coeffs[1:]
        if all(map(is_rational, (lam, *slopes, *rhs[:n + 1], *head))):
            return _solve_rational(*polylib.integer_form((0, *slopes)), n, lam, rhs, head)
        s = TruncatedSeries(self.center, (Fraction(0),) + self.coeffs[1:])
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
                term = coeffs[j] * a
                acc = convert_left(acc, term) - term
            pivot = convert_left(powers[k].coeffs[k], lam) - lam
            # Only row 0's pivot 1 - lam can be an int: an int over it is
            # a Fraction, not a float.
            acc = as_exact(acc) if isinstance(pivot, int) else convert_left(acc, pivot)
            coeffs.append(acc / pivot)
        return coeffs

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse: series g at self(center) with g(self(x)) = x.

        Requires an invertible linear coefficient.
        """
        c1 = self.coefficient(1)
        if is_exact(c1) and c1 == 0:
            raise ZeroDivisionError("linear coefficient vanishes; not invertible")
        # g(self(x)) = center + (x - center).
        x = [self.center, 1] + [0] * (self.order - 1)
        g = self.solve_composition(0, x, head=(self.center,))
        return TruncatedSeries(self.coeffs[0], g)

    def eval(self, x):
        """Horner evaluation of the Taylor polynomial at x - center.

        With a rational centre, an mpf x and int, Fraction or mpf
        coefficients run ``polylib.eval_raw`` on the raw values mpmath adds
        (``raw_addend``), a rational x and int and Fraction coefficients
        ``polylib.eval_rational`` on their integer form, both kept on the
        series; anything else ``polylib.eval_at``: the same bits and types.
        """
        if is_rational(x) and is_rational(self.center) and self._integer_form() is not None:
            return polylib.eval_rational(*self._integer, x - self.center)
        if is_mpf(x) and len(self.coeffs) > 1 and is_rational(self.center):
            prec, rnd = mpmath.mp._prec_rounding
            rounded = self._rounded_coeffs(prec)
            if rounded is not None:
                center, descending = rounded
                t = mpf_sub(x._mpf_, center, prec, rnd)
                return mpmath.mp.make_mpf(polylib.eval_raw(descending, t, prec, rnd))
        return polylib.eval_at(self.coeffs, x - self.center)

    def _rounded_coeffs(self, prec):
        """(centre, coefficients from the highest degree down) as raw
        addends at ``prec`` bits, computed once per precision; None when a
        coefficient is neither an int, a Fraction nor an mpf."""
        try:
            memo = self._rounded
        except AttributeError:
            memo = self._rounded = {} if all(
                is_rational(c) or is_mpf(c) for c in self.coeffs) else None
        if memo is None:
            return None
        rounded = memo.get(prec)
        if rounded is None:
            rounded = memo[prec] = (raw_addend(self.center, prec),
                                    tuple(raw_addend(c, prec) for c in reversed(self.coeffs)))
        return rounded

    def _integer_form(self):
        """(P, D), integers with coefficients P/D, computed once; None unless
        they are ints and Fractions, not all ints (whose value is an int)."""
        form = getattr(self, "_integer", False)
        if form is False:
            c = self.coeffs
            form = self._integer = (polylib.integer_form(c) if all(map(is_rational, c))
                                    and not all(isinstance(a, int) for a in c) else None)
        return form

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
            "center": scalar_to_json(self.center),
            "order": self.order,
            "coeffs": [scalar_to_json(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, doc):
        return cls(scalar_from_json(doc["center"]),
                   [scalar_from_json(c) for c in doc["coeffs"]])


def _is_rational_zero(c) -> bool:
    return is_rational(c) and c == 0


def _solve_rational(S, d, n, lam, rhs, head) -> list:
    """``solve_composition`` for s = S/d with integer numerators S (S[0] =
    0) and rational lam, rhs and head.  Row j of the table holds the
    integers d**j [t**k] s**j; the unknowns c_j/d**j are kept as integers
    e[j] over one common denominator, so each row's sum is one integer dot
    product and each coefficient one Fraction, equal to the term-by-term
    solve's."""
    terms = [(i, b) for i, b in enumerate(S) if b]
    table = [[1] + [0] * n]
    for j in range(1, n + 1):
        prev, row = table[-1], [0] * (n + 1)
        for k in range(j - 1, n + 1):
            a = prev[k]
            if a:
                for i, b in terms:
                    if k + i > n:
                        break
                    row[k + i] += a * b
        table.append(row)
    coeffs, e, den = list(head), [], 1
    for k, column in enumerate(zip(*table)):
        if k >= len(head):
            dot = sum(map(operator.mul, e, column))
            coeffs.append((rhs[k] - Fraction(dot, den))
                          / (Fraction(column[k], d ** k) - lam))
        v = Fraction(coeffs[k]) / d ** k
        if den % v.denominator:
            g = v.denominator // math.gcd(den, v.denominator)
            den, e = den * g, [x * g for x in e]
        e.append(v.numerator * (den // v.denominator))
    return coeffs


# ---------------------------------------------------------------------------
# Radius verdicts


class Converges(Record):
    radius_estimate: object  # mpf, or None for entire (polynomial) solutions

    kind = "converges"

    def to_json_dict(self):
        est = self.radius_estimate
        return {"verdict": self.kind,
                "radius_estimate": None if est is None else mpmath.nstr(est, 12)}


class Diverges(Record):
    certificate: dict

    kind = "diverges"

    def to_json_dict(self):
        return {"verdict": self.kind, "certificate": self.certificate}


class Inconclusive(Record):
    reason: str

    kind = "inconclusive"

    def to_json_dict(self):
        return {"verdict": self.kind, "reason": self.reason}


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
        if all(exact_abs_compare(c, Fraction(math.factorial(n - 1), 2 ** n)) >= 0
               for n, c in nonzero):
            return Diverges({
                "test": "factorial-growth",
                "c": "1/2",
                "window": [n0, series.order],
                "statement": "|f_n| >= (n-1)! * (1/2)**n across the window",
            })

    if len(nonzero) < 4:
        return Inconclusive("too few nonzero tail coefficients")

    with mpmath.workprec(64):
        estimates = sorted(abs_mpf(c) ** (mpmath.mpf(-1) / n) for n, c in nonzero)
        median = estimates[len(estimates) // 2]
        spread = (estimates[-1] - estimates[0]) / median if median > 0 else mpmath.inf
        if median > 0 and spread < mpmath.mpf("0.25"):
            return Converges(median)
    return Inconclusive("root-test estimates did not stabilize")
