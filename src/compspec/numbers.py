"""Exact scalar types: Gaussian rationals and real quadratic irrationals.

All spectral membership predicates in this package are decided over these
types, never over floats.  ``GaussianRational`` models eigenvalue probes
a + b*i with rational a, b; ``QuadraticNumber`` models fixed points and
multipliers of quadratic symbols, kept exactly as p + q*sqrt(d).
"""

from __future__ import annotations

import re
from fractions import Fraction

import mpmath


def to_mpf(value, prec=None):
    """Convert an exact scalar (int/Fraction/mpf) to mpf at ``prec`` bits."""
    ctx = mpmath.mp
    if prec is not None:
        with mpmath.workprec(prec):
            return to_mpf(value)
    if isinstance(value, Fraction):
        return ctx.mpf(value.numerator) / value.denominator
    if isinstance(value, QuadraticNumber):
        return value.to_mpf()
    return ctx.mpf(value)


def to_mpc(value, prec=None):
    if prec is not None:
        with mpmath.workprec(prec):
            return to_mpc(value)
    if isinstance(value, GaussianRational):
        return mpmath.mpc(to_mpf(value.re), to_mpf(value.im))
    if isinstance(value, mpmath.mpc):
        return value
    return mpmath.mpc(to_mpf(value))


def is_exact(value) -> bool:
    """Whether value is an exact scalar: int, Fraction, GaussianRational or
    QuadraticNumber.  Everything else (mpf, mpc) is numeric."""
    return isinstance(value, (int, Fraction, GaussianRational, QuadraticNumber))


def as_exact(value):
    """Promote an int to a Fraction; every other value is returned as is."""
    return Fraction(value) if isinstance(value, int) else value


def to_numeric(value):
    """Numeric image of a scalar at the working precision: mpf for real
    values (a GaussianRational with zero imaginary part included), mpc for
    non-real ones."""
    if isinstance(value, GaussianRational):
        return to_mpf(value.re) if value.im == 0 else to_mpc(value)
    if isinstance(value, mpmath.mpc):
        return value
    return to_mpf(value)


def same_point(a, b) -> bool:
    """a == b when both are exact; otherwise |a - b| <= 2**(-prec // 2) at
    the working precision, so an exact point and its numeric image agree."""
    if a == b:
        return True
    if is_exact(a) and is_exact(b):
        return False
    return (abs(to_numeric(a) - to_numeric(b))
            <= mpmath.mpf(2) ** (-mpmath.mp.prec // 2))


def invert(value):
    """1/value, exact for exact scalars (an int gives a Fraction)."""
    return 1 / as_exact(value)


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_DECIMAL_RE = re.compile(r"^[+-]?\d+\.\d*$|^[+-]?\.\d+$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p', 'p/q' or a decimal literal into an exact Fraction.

    Decimal input is promoted to the exact rational it denotes, never to a
    binary float, so membership predicates stay decidable.
    """
    text = text.strip()
    if _DECIMAL_RE.match(text):
        intpart, _, fracpart = text.partition(".")
        sign = -1 if intpart.startswith("-") else 1
        intpart = intpart.lstrip("+-") or "0"
        num = int(intpart) * 10 ** len(fracpart) + (int(fracpart) if fracpart else 0)
        return Fraction(sign * num, 10 ** len(fracpart))
    return Fraction(text)


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def convert(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value, 0)
        if isinstance(value, complex) and value.imag == 0 and value.real == int(value.real):
            return cls(int(value.real), 0)
        raise TypeError(f"cannot convert {value!r} to GaussianRational")

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        o = GaussianRational.convert(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.convert(other))

    def __rsub__(self, other):
        return GaussianRational.convert(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.convert(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.convert(other)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        num = self * o.conjugate()
        return GaussianRational(num.re / d, num.im / d)

    def __rtruediv__(self, other):
        return GaussianRational.convert(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return GaussianRational(1) / self ** (-n)
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, QuadraticNumber):
            return self.im == 0 and other == self.re
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        im = format_rational(abs(self.im))
        sign = "-" if self.im < 0 else "+"
        if self.re == 0 and self.im > 0:
            return f"{im}i"
        if self.re == 0:
            return f"-{im}i"
        return f"{format_rational(self.re)}{sign}{im}i"


_GAUSSIAN_RE = re.compile(
    r"^(?P<re>[+-]?[^+-]+?)?(?P<im>[+-][^+-]*)?i$", re.VERBOSE)


def parse_gaussian(text: str) -> GaussianRational:
    """Parse eigenvalue text: 'a/b', '1.5', 'i', '-i', 'a/b+c/di', '2-3i'."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty eigenvalue text")
    if not text.endswith("i"):
        return GaussianRational(parse_rational(text), 0)
    body = text[:-1]
    # Split real and imaginary at the last top-level sign (skip position 0).
    split = None
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/.eE":
            split = k
            break
    if split is None:
        re_part, im_part = "0", body or "1"
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = parse_rational(im_part)
    return GaussianRational(parse_rational(re_part) if re_part else Fraction(0), im)


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; returns (s, d). n must be positive."""
    s, d, k = 1, n, 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
            s *= k
        k += 1
    return s, d


def quadratic(p, q, d):
    """p + q*sqrt(d) with rational p, q and positive integer d.

    Collapses to a plain Fraction when the radical part vanishes.
    """
    p, q = Fraction(p), Fraction(q)
    if q == 0 or d == 0:
        return p
    if d < 0:
        raise ValueError("negative radicand: complex quadratic numbers unsupported")
    s, d0 = _squarefree_split(d)
    if d0 == 1:
        return p + q * s
    return QuadraticNumber(p, q * s, d0)


class QuadraticNumber:
    """Exact element p + q*sqrt(d) of a real quadratic field, q != 0."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: Fraction, q: Fraction, d: int):
        self.p = Fraction(p)
        self.q = Fraction(q)
        self.d = int(d)

    def _coerce(self, other):
        if isinstance(other, QuadraticNumber):
            if other.d != self.d:
                raise ValueError("mixing distinct quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(Fraction(other), Fraction(0), self.d)
        return None

    def _in_field(self, p: Fraction, q: Fraction):
        """p + q*sqrt(d) in this field; d is already squarefree, so unlike
        quadratic() this never splits the radicand."""
        return p if q == 0 else QuadraticNumber(p, q, self.d)

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(d)."""
        p, q = self.p, self.q
        if q == 0:
            return -1 if p < 0 else (0 if p == 0 else 1)
        if p == 0:
            return -1 if q < 0 else 1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # Opposite signs: compare p^2 with q^2 d.
        lhs, rhs = p * p, q * q * self.d
        if lhs == rhs:
            return 0
        bigger_rational = lhs > rhs
        if p > 0:
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._in_field(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._in_field(self.p - o.p, self.q - o.q)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._in_field(self.p * o.p + self.q * o.q * self.d,
                              self.p * o.q + self.q * o.p)

    __rmul__ = __mul__

    def conjugate(self):
        return QuadraticNumber(self.p, -self.q, self.d)

    def norm(self) -> Fraction:
        return self.p * self.p - self.q * self.q * self.d

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        num = self * o.conjugate()
        if isinstance(num, Fraction):
            return num / n
        return self._in_field(num.p / n, num.q / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return 1 / self ** (-n)
        result = Fraction(1)
        base = self
        while n:
            if n & 1:
                result = base * result
            base = base * base
            n >>= 1
        return result

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def _cmp(self, other) -> int:
        """Sign of the difference."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticNumber with {other!r}")
        diff = self._in_field(self.p - o.p, self.q - o.q)
        if isinstance(diff, QuadraticNumber):
            return diff.sign()
        return (diff > 0) - (diff < 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            return self._cmp(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def to_mpf(self):
        return to_mpf(self.p) + to_mpf(self.q) * mpmath.sqrt(self.d)

    def __repr__(self):
        return f"QuadraticNumber({self.p!r}, {self.q!r}, {self.d})"

    def __str__(self):
        q = format_rational(abs(self.q))
        head = "" if self.p == 0 else format_rational(self.p)
        sign = "-" if self.q < 0 else ("+" if head else "")
        mult = "" if abs(self.q) == 1 else f"{q}*"
        return f"{head}{sign}{mult}sqrt({self.d})"


_QUAD_RE = re.compile(
    r"^(?:(?P<head>[+-]?[0-9][0-9/.]*)(?=[+-]))?(?P<sign>[+-])?"
    r"(?:(?P<coef>[0-9][0-9/.]*)\*)?sqrt\((?P<rad>\d+)\)$")


def format_scalar(value) -> str:
    """Stable text form for exact scalars, used in JSON payloads."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def parse_scalar(text: str):
    """Inverse of format_scalar for Fractions, Gaussian rationals and
    quadratic numbers."""
    text = text.strip().replace(" ", "")
    if "sqrt" in text:
        m = _QUAD_RE.match(text)
        if not m:
            raise ValueError(f"bad quadratic literal {text!r}")
        head = parse_rational(m.group("head")) if m.group("head") else Fraction(0)
        coef = parse_rational(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("sign") == "-":
            coef = -coef
        return quadratic(head, coef, int(m.group("rad")))
    if text.endswith("i"):
        return parse_gaussian(text)
    return parse_rational(text)


def exact_abs_compare(value, bound: Fraction) -> int:
    """Sign of |value| - bound for exact real/Gaussian value, rational bound."""
    if isinstance(value, GaussianRational):
        lhs, rhs = value.abs2(), bound * bound
        return -1 if lhs < rhs else (0 if lhs == rhs else 1)
    mag = abs(value)
    if isinstance(mag, QuadraticNumber):
        return mag._cmp(bound)
    return -1 if mag < bound else (0 if mag == bound else 1)
