"""Dense univariate polynomial arithmetic over exact scalars.

Coefficients are Fractions (ints are promoted) or QuadraticNumbers; the
ring operations, composition, derivative and evaluation work on both.
A rational polynomial p has one integer form P/D (``integer_form``) and
one homogeneous Horner d^k P(n/d) on integers (``homogeneous_horner``),
which ``eval_rational`` and ``sturm.sign_at`` share.  ``eval_raw`` keeps
its Horner on mpf mantissas, with the rounding inline for speed.
Coefficient lists are ascending (index = degree) with a nonzero leading
entry unless the polynomial is zero (empty list is not used; the zero
polynomial is ``[Fraction(0)]``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from mpmath.libmp import from_man_exp, mpf_add, mpf_mul, round_nearest

from .errors import DegreeOverflow
from .numbers import as_exact

DEGREE_CAP = 4096


def normalize(coeffs) -> list[Fraction]:
    out = [as_exact(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out or [Fraction(0)]


def degree(p) -> int:
    """Degree with the convention degree(0) = 0."""
    return len(p) - 1


def is_zero(p) -> bool:
    return all(c == 0 for c in p)


def add(p, q):
    n = max(len(p), len(q))
    return normalize([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def neg(p):
    return [-c for c in p]


def sub(p, q):
    return add(p, neg(q))


def scale(p, k):
    k = as_exact(k)
    return normalize([c * k for c in p])


def mul(p, q):
    if is_zero(p) or is_zero(q):
        return [Fraction(0)]
    if degree(p) + degree(q) > DEGREE_CAP:
        raise DegreeOverflow(f"product degree exceeds {DEGREE_CAP}")
    if len(p) == 1:
        return scale(q, p[0])
    if len(q) == 1:
        return scale(p, q[0])
    terms = [(j, b) for j, b in enumerate(q) if b != 0]
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in terms:
            out[i + j] += a * b
    return normalize(out)


def power(p, n: int):
    """p**n for n >= 0; a monomial c*x^k gives c**n * x^(k*n) directly."""
    support = [k for k, c in enumerate(p) if c != 0]
    if len(support) == 1:
        k = support[0]
        if k * n > DEGREE_CAP:
            raise DegreeOverflow(f"product degree exceeds {DEGREE_CAP}")
        return [Fraction(0)] * (k * n) + [as_exact(p[k]) ** n]
    result = [Fraction(1)]
    base = list(p)
    while n:
        if n & 1:
            result = mul(result, base)
        base_needed = n >> 1
        if base_needed:
            base = mul(base, base)
        n >>= 1
    return result


def compose(p, q):
    """p(q(x)) by Horner over polynomial coefficients."""
    if degree(p) * max(degree(q), 1) > DEGREE_CAP:
        raise DegreeOverflow(f"composition degree exceeds {DEGREE_CAP}")
    result = [Fraction(0)]
    for c in reversed(p):
        result = add(mul(result, q), [c])
    return result


def derivative(p):
    if len(p) == 1:
        return [Fraction(0)]
    return normalize([Fraction(i) * c for i, c in enumerate(p)][1:])


def eval_at(p, x):
    """Horner evaluation; works for Fraction, QuadraticNumber, Gaussian, mpf."""
    result = None
    for c in reversed(p):
        result = c if result is None else result * x + c
    return result


def integer_form(p) -> tuple[list[int], int]:
    """(P, D) with integers P, D > 0 and p = P/D, for a polynomial p with
    int or Fraction coefficients; trailing zeros are dropped."""
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    return ints, den


def homogeneous_horner(P, n, d) -> int:
    """d^k P(n/d) for integers P (ascending, degree k), n and d > 0."""
    v, scale = 0, 1
    for c in reversed(P):
        v = v * n + c * scale
        scale *= d
    return v


def eval_rational(P, D, x) -> Fraction:
    """P(x)/D for integers P (ascending) and D > 0 at a rational x = n/d."""
    d = x.denominator
    return Fraction(homogeneous_horner(P, x.numerator, d), D * d ** (len(P) - 1))


def eval_raw(descending, x, prec, rnd):
    """``eval_at`` on raw mpf tuples: ``descending`` holds the coefficients
    from the highest degree down, each already the raw value that mpmath's
    Horner step would make of it, and x is a raw tuple.  Each step is
    ``acc * x + c`` as mpf arithmetic rounds it at ``prec`` bits in
    rounding mode ``rnd``.  To nearest, the exact product, then the exact
    sum, of signed integer mantissas is rounded, ties to even: a correctly
    rounded step has one result.  Special values and far addends use mpmath."""
    acc = descending[0]
    if rnd == round_nearest and (x[1] or not x[2]) and (acc[1] or not acc[2]):
        xm, xe, m, e = (-x[1] if x[0] else x[1]), x[2], (-acc[1] if acc[0] else acc[1]), acc[2]
        for csign, cm, ce, _ in descending[1:]:
            m, e = m * xm, e + xe
            shift = m.bit_length() - prec
            if shift > 0:
                q, e = m >> (shift - 1), e + shift
                m = (q >> 1) + ((q & 1 and (q & 2 or m & ((1 << (shift - 1)) - 1))) > 0)
            if cm:
                cm = -cm if csign else cm
                if abs(e - ce) > 2 * prec:
                    csign, m, e, _ = mpf_add(from_man_exp(m, e), from_man_exp(cm, ce), prec, rnd)
                    m = -m if csign else m
                elif e > ce:
                    m, e = (m << (e - ce)) + cm, ce
                else:
                    m += cm << (ce - e)
                shift = m.bit_length() - prec
                if shift > 0:
                    q, e = m >> (shift - 1), e + shift
                    m = (q >> 1) + ((q & 1 and (q & 2 or m & ((1 << (shift - 1)) - 1))) > 0)
            elif ce:
                break  # a special coefficient
        else:
            return from_man_exp(m, e)
    for c in descending[1:]:
        acc = mpf_add(mpf_mul(acc, x, prec, rnd), c, prec, rnd)
    return acc


def div_rem(p, q):
    """Quotient and remainder of p by q, so p = quotient*q + remainder with
    degree(remainder) < degree(q); a constant q leaves remainder [0].

    Both inputs are normalized (nonzero lead unless zero); q is not zero.
    """
    lead, dq = as_exact(q[-1]), len(q) - 1
    rem = list(p)
    if len(rem) <= dq:
        return [Fraction(0)], rem
    monic = lead == 1
    quotient = [Fraction(0)] * (len(rem) - dq)
    for k in range(len(quotient) - 1, -1, -1):
        f = rem[k + dq] if monic else rem[k + dq] / lead
        quotient[k] = f
        if f:
            for i in range(dq):
                rem[i + k] -= f * q[i]
    rem = rem[:dq]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quotient, rem or [Fraction(0)]
