"""The scalar layer: exact rationals, Gaussian rationals and real quadratic
irrationals, their numeric images, and the one place that tells them apart.

All spectral membership predicates in this package are decided over exact
scalars, never over floats.  ``GaussianRational`` models eigenvalue probes
a + b*i with rational a, b; ``QuadraticNumber`` models fixed points and
multipliers of quadratic symbols, kept exactly as p + q*sqrt(d).  Every
other module asks this one about a scalar's class (``is_exact``,
``is_rational``, ``is_real_exact``) and goes through its conversions.

Mixing rule: an element of an exact field combined with an mpf, an mpc or
an element of another exact field gives the numeric result
``to_numeric(self) op other``, with ``other`` converted too when it is
exact, as a Fraction already does with an mpf.  ``==`` and ordering stay
exact-only.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath.libmp import from_int, from_rational, mpf_pos, round_nearest


def to_mpf(value, prec=None):
    """Convert an exact real scalar (int/Fraction/QuadraticNumber) or an mpf
    to mpf at ``prec`` bits, the working precision by default; a Fraction
    is built from raw tuples by ``raw_ratio``."""
    ctx = mpmath.mp
    if isinstance(value, Fraction):
        return ctx.make_mpf(raw_ratio(value.numerator, value.denominator,
                                      prec or ctx.prec))
    if prec is not None:
        with mpmath.workprec(prec):
            return to_mpf(value)
    if isinstance(value, QuadraticNumber):
        return to_mpf(value.p) + to_mpf(value.q) * mpmath.sqrt(value.d)
    return ctx.mpf(value)


def is_exact(value) -> bool:
    """Whether value is an exact scalar: int, Fraction, GaussianRational or
    QuadraticNumber.  Everything else (mpf, mpc) is numeric."""
    return isinstance(value, (int, Fraction, _FieldElement))


def is_rational(value) -> bool:
    """Whether value is an int or a Fraction."""
    return isinstance(value, (int, Fraction))


def is_real_exact(value) -> bool:
    """Whether value is an int, a Fraction or a QuadraticNumber."""
    return isinstance(value, (int, Fraction, QuadraticNumber))


def is_mpf(value) -> bool:
    """Whether value is a real numeric scalar, an mpf."""
    return isinstance(value, mpmath.mpf)


def _is_numeric(value) -> bool:
    return isinstance(value, (mpmath.mpf, mpmath.mpc))


def as_exact(value):
    """Promote an int to a Fraction; every other value is returned as is."""
    return Fraction(value) if isinstance(value, int) else value


def convert_left(a, b):
    """``a`` ready to stand left of ``- b`` or ``/ b``.  mpmath 1.3 defines
    neither ``Fraction - mpf`` nor ``Fraction / mpf``, so a Fraction that
    meets an mpf becomes the mpf mpmath makes of it when the mpf is on the
    left (``convert``: ``from_rational`` at the working precision and its
    default rounding); any other a is returned as is."""
    if isinstance(a, Fraction) and isinstance(b, mpmath.mpf):
        return mpmath.mp.convert(a)
    return a


def real_part(value):
    """An exact real scalar as itself (an int as a Fraction), a Gaussian
    rational on the real axis as its real part, any other as None."""
    if isinstance(value, GaussianRational):
        return value.re if value.im == 0 else None
    return as_exact(value)


def to_numeric(value):
    """Numeric image of a scalar at the working precision: mpf for real
    values (a GaussianRational with zero imaginary part included), mpc for
    non-real ones."""
    if isinstance(value, GaussianRational):
        if value.im == 0:
            return to_mpf(value.re)
        return mpmath.mpc(to_mpf(value.re), to_mpf(value.im))
    if isinstance(value, mpmath.mpc):
        return value
    return to_mpf(value)


def abs_mpf(value):
    """|value| as an mpf at the working precision; a Gaussian rational's
    through its exact norm."""
    if isinstance(value, GaussianRational):
        return mpmath.sqrt(to_mpf(value.norm()))
    return abs(to_numeric(value))


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


def exact_abs_compare(value, bound: Fraction) -> int:
    """Sign of |value| - bound for exact real/Gaussian value, rational bound."""
    if isinstance(value, GaussianRational):
        value, bound = value.norm(), bound * bound
    mag = abs(value)
    return -1 if mag < bound else (0 if mag == bound else 1)


def log_abs(x):
    """log|x| of an exact real scalar to 64 good bits: log1p near |x| = 1,
    and a quadratic number read off the larger of itself and its conjugate
    (their product is its norm), so that no digits cancel."""
    x = abs(x)
    if isinstance(x, QuadraticNumber) and x < abs(x.conjugate()):
        return mpmath.log(abs(to_mpf(x.norm()))) - log_abs(x.conjugate())
    if Fraction(1, 2) < x < 2:
        return mpmath.log1p(to_mpf(x - 1))
    return mpmath.log(to_mpf(x))


def bit_size(x) -> int:
    """Bit length of the rational coordinates of an exact real x.
    ratio**n == x forces n <= 2 * bit_size(x) + 2: the norm or denominators
    of ratio**n grow with n, unless ratio is a unit, whose modulus lies
    outside (1/phi, phi)."""
    if isinstance(x, QuadraticNumber):
        return bit_size(x.p) + bit_size(x.q) + x.d.bit_length()
    return x.numerator.bit_length() + x.denominator.bit_length()


# ---------------------------------------------------------------------------
# Raw mpf tuples for compiled evaluation


def raw_ratio(num, den, prec):
    """``to_mpf(Fraction(num, den))._mpf_`` at ``prec`` bits for a reduced
    pair: ``mpf(num)`` rounded to nearest, then divided by ``den`` as mpmath
    rounds it by default, here on integers with the remainder as sticky bit."""
    sign, man, exp, bc = num = from_int(num, prec, round_nearest)
    if not man:
        return num
    extra = prec + 2 + den.bit_length() - bc
    quot, rem = divmod(man << extra, den)
    quot = (quot << 1) | (rem > 0)
    shift = quot.bit_length() - prec
    q = quot >> (shift - 1)
    man = (q >> 1) + ((q & 1 and (q & 2 or quot & ((1 << (shift - 1)) - 1))) > 0)
    zeros = (man & -man).bit_length() - 1
    return (sign, man >> zeros, exp - extra - 1 + shift + zeros, man.bit_length() - zeros)


def raw_point(x, prec):
    """``to_mpf(x)._mpf_`` at ``prec`` bits, without entering workprec for
    Fraction and mpf points."""
    if isinstance(x, Fraction):
        return raw_ratio(x.numerator, x.denominator, prec)
    if isinstance(x, mpmath.mpf):
        return mpf_pos(x._mpf_, prec, round_nearest)
    return to_mpf(x, prec)._mpf_


def raw_addend(c, prec):
    """The raw value mpmath adds for ``acc + c``: ints exactly, Fractions
    through ``convert``, i.e. ``from_rational`` at its default rounding,
    and mpfs as they are."""
    if isinstance(c, int):
        return from_int(c)
    if isinstance(c, mpmath.mpf):
        return c._mpf_
    return from_rational(c.numerator, c.denominator, prec)


# ---------------------------------------------------------------------------
# Text forms


@contextmanager
def _any_int_digits():
    """Lift Python's limit on int/str conversions (4300 digits by default,
    none before it existed): an exact rational in a result or a JSON
    document may have any length.  Symbol text keeps the limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def format_rational(q: Fraction) -> str:
    with _any_int_digits():
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


def format_numeric(value, digits: int) -> str:
    """A numeric value to ``digits`` significant digits per part, rounded
    at the working precision; a complex one as 're+imi', the form
    parse_gaussian reads."""
    if isinstance(value, mpmath.mpc):
        re_text, im_text = (mpmath.nstr(to_mpf(part), digits)
                            for part in (value.real, value.imag))
        return f"{re_text}{'' if im_text.startswith('-') else '+'}{im_text}i"
    return mpmath.nstr(to_mpf(value), digits)


# ---------------------------------------------------------------------------
# Exact fields


def _numeric_op(op, a, b):
    """op on a and b with each exact operand replaced by its numeric image;
    NotImplemented when either operand is not a scalar."""
    if not (is_exact(a) or _is_numeric(a)) or not (is_exact(b) or _is_numeric(b)):
        return NotImplemented
    return op(to_numeric(a) if is_exact(a) else a,
              to_numeric(b) if is_exact(b) else b)


class _FieldElement:
    """x + y*w with rational x, y in the field Q(w), w*w = d.

    The arithmetic both exact fields share: GaussianRational is Q(sqrt(-1))
    and QuadraticNumber is Q(sqrt(d)) for a d > 1 from ``_squarefree_split``.
    Ints, Fractions and elements of the same field give exact results through
    ``_make``; any other scalar follows the module's mixing rule.
    """

    __slots__ = ("x", "y")

    def _coords(self, other):
        """(x, y) of other in this field, or None when it lies outside.  A
        radicand d' is this field's d when d*d' = r^2, as sqrt(d') = r/d*w."""
        if isinstance(other, (int, Fraction)):
            return other, 0
        if isinstance(other, _FieldElement):
            if other.d == self.d:
                return other.x, other.y
            dd = self.d * other.d
            if dd > 0 and math.isqrt(dd) ** 2 == dd:
                return other.x, other.y * Fraction(math.isqrt(dd), self.d)
        return None

    def __add__(self, other):
        o = self._coords(other)
        if o is None:
            return _numeric_op(operator.add, self, other)
        return self._make(self.x + o[0], self.y + o[1])

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.x, -self.y)

    def __sub__(self, other):
        o = self._coords(other)
        if o is None:
            return _numeric_op(operator.sub, self, other)
        return self._make(self.x - o[0], self.y - o[1])

    def __rsub__(self, other):
        o = self._coords(other)
        if o is None:
            return _numeric_op(operator.sub, other, self)
        return self._make(o[0] - self.x, o[1] - self.y)

    def __mul__(self, other):
        o = self._coords(other)
        if o is None:
            return _numeric_op(operator.mul, self, other)
        return self._make(self.x * o[0] + self.y * o[1] * self.d,
                          self.x * o[1] + self.y * o[0])

    __rmul__ = __mul__

    def _quotient(self, nx, ny, dx, dy):
        """(nx + ny*w) / (dx + dy*w): times the conjugate over the norm."""
        n = dx * dx - dy * dy * self.d
        if n == 0:
            raise ZeroDivisionError(f"division by zero {type(self).__name__}")
        return self._make((nx * dx - ny * dy * self.d) / n, (ny * dx - nx * dy) / n)

    def __truediv__(self, other):
        o = self._coords(other)
        if o is None:
            return _numeric_op(operator.truediv, self, other)
        return self._quotient(self.x, self.y, o[0], o[1])

    def __rtruediv__(self, other):
        o = self._coords(other)
        if o is None:
            return _numeric_op(operator.truediv, other, self)
        return self._quotient(o[0], o[1], self.x, self.y)

    def __pow__(self, n: int):
        if n < 0:
            return 1 / self ** (-n)
        result = self._make(Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                result = base * result
            base = base * base
            n >>= 1
        return result

    def conjugate(self):
        return self._make(self.x, -self.y)

    def norm(self) -> Fraction:
        """(x + y*w)(x - y*w) = x^2 - d*y^2 as an exact rational."""
        return self.x * self.x - self.y * self.y * self.d

    def __eq__(self, other):
        o = self._coords(other)
        if o is None:
            return NotImplemented
        return self.x == o[0] and self.y == o[1]

    def __hash__(self):
        # y^2 d and the sign of y do not depend on how d was split.
        return hash(self.x) if self.y == 0 else hash((self.x, self.y ** 2 * self.d, self.y > 0))

    def __bool__(self):
        return self.x != 0 or self.y != 0


class GaussianRational(_FieldElement):
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ()
    d = -1

    def __init__(self, re=0, im=0):
        self.x = Fraction(re)
        self.y = Fraction(im)

    def _make(self, x, y):
        return GaussianRational(x, y)

    @property
    def re(self) -> Fraction:
        return self.x

    @property
    def im(self) -> Fraction:
        return self.y

    abs2 = _FieldElement.norm

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


TRIAL_DIVISORS = 2 ** 16   # a factorization tries the divisors 2..TRIAL_DIVISORS


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d for a positive n; returns (s, d).  d is squarefree
    when n < 2^33, and otherwise has no square factor k^2 with k at most
    TRIAL_DIVISORS and is not itself a square."""
    s, d, k = 1, n, 2
    while k * k <= d and k <= TRIAL_DIVISORS:
        while d % (k * k) == 0:
            d //= k * k
            s *= k
        k += 1
    r = math.isqrt(d)
    return (s * r, 1) if r * r == d else (s, d)


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


def _sign(p: Fraction, q: Fraction, d: int) -> int:
    """Exact sign of p + q*sqrt(d)."""
    if q == 0:
        return -1 if p < 0 else (0 if p == 0 else 1)
    if p == 0:
        return -1 if q < 0 else 1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    # Opposite signs: compare p^2 with q^2 d.
    lhs, rhs = p * p, q * q * d
    if lhs == rhs:
        return 0
    bigger_rational = lhs > rhs
    if p > 0:
        return 1 if bigger_rational else -1
    return -1 if bigger_rational else 1


class QuadraticNumber(_FieldElement):
    """Exact element p + q*sqrt(d) of a real quadratic field, q != 0."""

    __slots__ = ("d",)

    def __init__(self, p: Fraction, q: Fraction, d: int):
        self.x = Fraction(p)
        self.y = Fraction(q)
        self.d = int(d)

    def _make(self, x, y):
        """x + y*sqrt(d) in this field; d is already squarefree, so unlike
        quadratic() this never splits the radicand."""
        return x if y == 0 else QuadraticNumber(x, y, self.d)

    @property
    def p(self) -> Fraction:
        return self.x

    @property
    def q(self) -> Fraction:
        return self.y

    def __abs__(self):
        return -self if _sign(self.x, self.y, self.d) < 0 else self

    def _cmp(self, other) -> int:
        """Sign of the difference."""
        o = self._coords(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticNumber with {other!r}")
        return _sign(self.x - o[0], self.y - o[1], self.d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

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
    return format_rational(value) if is_rational(value) else str(value)


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


# ---------------------------------------------------------------------------
# JSON codec

# Significant digits of numeric scalars in JSON.  They are read back at
# this many digits, so a document survives a round trip.
_JSON_DIGITS = 30


def scalar_to_json(c):
    """A scalar as JSON: an exact real as its format_scalar string, a
    non-real Gaussian rational as [re, im], an mpf as ["float", x] and an
    mpc as ["complex", re, im] with _JSON_DIGITS significant digits."""
    if isinstance(c, GaussianRational) and c.im != 0:
        return [format_rational(c.re), format_rational(c.im)]
    if is_exact(c):
        return format_scalar(c)
    if isinstance(c, mpmath.mpc):
        return ["complex", mpmath.nstr(c.real, _JSON_DIGITS),
                mpmath.nstr(c.imag, _JSON_DIGITS)]
    if not isinstance(c, mpmath.mpf):
        c = mpmath.mpf(c)
    return ["float", mpmath.nstr(c, _JSON_DIGITS)]


def scalar_from_json(doc):
    """Inverse of scalar_to_json."""
    with _any_int_digits():
        if isinstance(doc, str):
            return parse_scalar(doc)
        if isinstance(doc, list) and len(doc) == 2 and doc[0] == "float":
            with mpmath.workdps(_JSON_DIGITS):
                return mpmath.mpf(doc[1])
        if isinstance(doc, list) and len(doc) == 3 and doc[0] == "complex":
            with mpmath.workdps(_JSON_DIGITS):
                return mpmath.mpc(doc[1], doc[2])
        if isinstance(doc, list) and len(doc) == 2:
            return GaussianRational(Fraction(doc[0]), Fraction(doc[1]))
    raise ValueError(f"bad coefficient document: {doc!r}")
