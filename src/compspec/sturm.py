"""Exact real-root certificates for rational polynomials.

A rational polynomial enters the kernel once, as its primitive integer
form (a positive multiple, so roots and signs are kept) or as P/D with
integer P and D > 0 (``polynomials.integer_form``).  From there everything
runs on Python integers: Sturm chains, gcds, square-free decomposition,
root deflation, exact division, composition, the shifts p - g of a
containment check, and signs at rational points (``sign_at``).  On top of
that kernel: open-interval root counts, isolation into exact roots
(rational, quadratic) or sign-change enclosures, refinement, and certified
range containment.  Counts and isolation split into a per-polynomial half,
``RealRoots``, and a per-interval half; ``IntegerFacts`` keeps every fact
of one polynomial map, so that a symbol and its restrictions derive each
once.  No floating point enters any certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd

from . import polynomials as poly
from .errors import DegreeOverflow
from .intervals import NEG_INF, POS_INF, Interval, complement_blocks, is_finite
from .numbers import TRIAL_DIVISORS, is_rational, quadratic, to_mpf
from .record import Record


def eval_sign_at_infinity(p, positive: bool) -> int:
    lead = p[-1]
    if lead == 0:
        return 0
    if positive or (len(p) - 1) % 2 == 0:
        return 1 if lead > 0 else -1
    return -1 if lead > 0 else 1


def sign_at(p, x) -> int:
    """Sign of p at x.  At a rational x = n/d it is the sign of d^k p(n/d),
    k = degree(p), by ``polynomials.homogeneous_horner``; other exact
    points (a QuadraticNumber) are evaluated in their own field."""
    if x is POS_INF:
        return eval_sign_at_infinity(p, True)
    if x is NEG_INF:
        return eval_sign_at_infinity(p, False)
    if is_rational(x):
        v = poly.homogeneous_horner(p, x.numerator, x.denominator)
    else:
        v = poly.eval_at(p, x)
    return -1 if v < 0 else (0 if v == 0 else 1)


def primitive(p) -> list[int]:
    """The integer polynomial with content 1 that is a positive multiple of
    the rational polynomial p: it has p's roots and p's signs."""
    ints = list(p) if all(type(c) is int for c in p) else poly.integer_form(p)[0]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    return _content_free(ints)


def _content_free(ints) -> list[int]:
    """An integer polynomial without trailing zeros divided by its positive
    content: ``primitive`` of a list that is already integer."""
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _slope(P) -> list[int]:
    """P' for an integer polynomial P ([0] for a constant)."""
    return [i * c for i, c in enumerate(P)][1:] or [0]


def _mul(a, b) -> list[int]:
    """Product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b, i):
                out[j] += c * e
    return out


def compose_scaled(a, P, D: int) -> list[int]:
    """D^k a(P/D) for integer polynomials a (of degree k) and P and an
    integer D > 0, by Horner on integers: a positive multiple of a(p) for
    p = P/D.  Raises DegreeOverflow past polynomials.DEGREE_CAP."""
    k = len(a) - 1
    if k * max(len(P) - 1, 1) > poly.DEGREE_CAP:
        raise DegreeOverflow(f"composition degree exceeds {poly.DEGREE_CAP}")
    out, scale = [a[-1]], 1
    for c in reversed(a[:-1]):
        scale *= D
        out = _mul(out, P)
        out[0] += c * scale
    return out


def exact_quotient(a, b) -> list[int]:
    """a / b for integer polynomials a and b != 0 when b divides a in
    Z[x] (for a primitive b, whenever it divides a in Q[x], by Gauss's
    lemma).  Raises ArithmeticError on a remainder."""
    lead, db = b[-1], len(b) - 1
    r, q = list(a), [0] * max(len(a) - db, 1)
    for k in range(len(a) - db - 1, -1, -1):
        f, m = divmod(r[k + db], lead)
        if m:
            break
        q[k] = f
        if f:
            for i in range(db):
                r[i + k] -= f * b[i]
    else:
        if not any(r[:db]):   # the remainder, or all of a when it is shorter
            return q
    raise ArithmeticError(f"{b} does not divide {a} over the integers")


def _pseudo_remainder(a, b) -> list[int]:
    """|lead(b)|^k times the remainder of a by b, for integer a and b, where
    k is the number of nonzero reduction steps: a positive multiple of the
    rational remainder, computed without a division."""
    lead, db = b[-1], len(b) - 1
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    r = list(a)
    while len(r) > db:
        top = r.pop()
        if top:
            f, shift = sign * top, len(r) - db
            r = ([scale * c for c in r[:shift]]
                 + [scale * c - f * e for c, e in zip(r[shift:], b)])
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return r or [0]


def sturm_chain(p) -> list[list[int]]:
    # Each pseudo-remainder is a positive multiple of the rational remainder,
    # so negated and divided by its positive content it keeps every sign in
    # the chain, with the coefficient bit-length kept down by the division.
    p = primitive(p)
    chain = [p, _content_free(_slope(p))]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append(_content_free([-c for c in r]))
    return chain


def sign_variations(chain, x) -> int:
    signs = [s for s in (sign_at(q, x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _deflate(p, r: Fraction):
    """(p with every factor d*x - n of r = n/d divided out, the number
    divided out), for a primitive integer p; the quotient is primitive."""
    k, factor = 0, [-r.numerator, r.denominator]
    while len(p) > 1 and sign_at(p, r) == 0:
        p, k = exact_quotient(p, factor), k + 1
    return p, k


def primitive_gcd(p, q) -> list[int]:
    """The gcd of two rational polynomials, p nonzero, as the primitive
    integer polynomial with positive lead, by primitive pseudo-remainders."""
    a, b = primitive(p), primitive(q)
    while any(b) and len(b) > 1:
        a, b = b, _content_free(_pseudo_remainder(a, b))
    if any(b):
        return [1]
    return a if a[-1] > 0 else [-c for c in a]


def squarefree_decomposition(w):
    """(w / g1, [g1, g2, ...]) for a nonconstant rational w, where
    g1 = gcd(w, w') and g(k+1) = gcd(gk, gk') down to a constant.

    Every entry is an integer polynomial: the gcds primitive with positive
    lead, and the first entry, the square-free part of w, the exact
    quotient of primitive(w) by g1 (a positive multiple of w / g1).  A root
    of w of multiplicity m is a root of exactly g1, ..., g(m-1).
    """
    w = primitive(w)
    chain, g = [], w
    while len(g) > 2:
        g = primitive_gcd(g, _slope(g))
        if len(g) == 1:
            break
        chain.append(g)
    return (exact_quotient(w, chain[0]) if chain else w), chain


class RealRoots:
    """The interval-independent half of count_roots_open and isolate_roots
    for one rational polynomial, kept as ``p``, its primitive integer form.

    Each part is built on first use and kept: the Sturm chains of p and of
    its deflations at roots that sit on the finite ends of a counted
    interval; and, for isolation, ``split()``.  The chains go into the store
    ``chains``, which the RealRoots of one map share, so that none is built
    twice.  count_roots_open and isolate_roots are the per-interval half; a
    one-shot call builds a RealRoots and uses it once.
    """

    def __init__(self, p, chains=None):
        self.p = primitive(p)
        self.chains = {} if chains is None else chains
        self._split = None

    def chain(self, q) -> list[list[int]]:
        """The Sturm chain of the primitive integer polynomial q, built once
        per store."""
        key = tuple(q)
        chain = self.chains.get(key)
        if chain is None:
            chain = self.chains[key] = sturm_chain(q)
        return chain

    def split(self):
        """(rational roots with their multiplicities, the square-free part
        of what is left after they are divided out or None when nothing is,
        that part's exact roots when its degree is at most 2 else None, the
        nested gcds of its square-free decomposition)."""
        if self._split is None:
            work, rationals = self.p, []
            for r in rational_roots(work):
                work, k = _deflate(work, r)
                rationals.append((r, k))
            sf, exact, gcds = None, None, []
            if len(work) > 1:
                sf, gcds = squarefree_decomposition(work)
                if len(sf) <= 3:
                    exact = solve_quadratic_exact(sf)
            self._split = rationals, sf, exact, gcds
        return self._split


def _real_roots(p) -> RealRoots:
    return p if isinstance(p, RealRoots) else RealRoots(p)


def count_roots_open(p, interval: Interval) -> int:
    """Number of distinct real roots of p strictly inside the open interval;
    p is a rational polynomial or its RealRoots."""
    roots = _real_roots(p)
    p = roots.p
    if not any(p):
        raise ValueError("zero polynomial has no root count")
    lo, hi = interval.lower, interval.upper
    # Deflate roots sitting exactly on finite endpoints so the Sturm count
    # over (lo, hi] needs no further adjustment.
    for endpoint in (lo, hi):
        if is_rational(endpoint):
            p = _deflate(p, endpoint)[0]
    if len(p) == 1:
        return 0
    chain = roots.chain(p)
    n = sign_variations(chain, lo) - sign_variations(chain, hi)
    if is_finite(hi) and sign_at(chain[0], hi) == 0:
        n -= 1  # (lo, hi] counted the endpoint root
    return n


class Enclosure(Record):
    """Certified isolating interval: p, a primitive integer polynomial,
    carries a sign change over [lo, hi].  p has no rational root
    (``isolate_roots`` deflates them first), so no midpoint that ``refine``
    probes is a root."""

    lo: Fraction
    hi: Fraction
    p: tuple

    def refine(self, width: Fraction) -> "Enclosure":
        lo, hi, p = self.lo, self.hi, self.p
        s_lo = sign_at(p, lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            if sign_at(p, mid) == s_lo:
                lo = mid
            else:
                hi = mid
        return Enclosure(lo, hi, self.p)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def has_sign_change(self) -> bool:
        return sign_at(self.p, self.lo) * sign_at(self.p, self.hi) < 0

    def holds_root_of(self, chain) -> bool:
        """Whether the polynomial with this Sturm chain has a root in the
        enclosure.  It must have none at lo or hi, which holds for every
        divisor of the polynomial isolate_roots returned the enclosure for."""
        return sign_variations(chain, self.lo) > sign_variations(chain, self.hi)

    def to_mpf(self):
        return (to_mpf(self.lo) + to_mpf(self.hi)) / 2


def cauchy_bound(p) -> Fraction:
    """1 + max |c_i| / |lead|, exact for int or Fraction coefficients."""
    if len(p) == 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p[:-1])) / abs(p[-1])


_DIVISOR_BUDGET = 4096


def _divisors(n: int):
    """The positive divisors of n, or None past the divisor budget or after
    TRIAL_DIVISORS trial divisions."""
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if d > TRIAL_DIVISORS:
            return None
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
        if len(out) > _DIVISOR_BUDGET:
            return None
    return out


def rational_roots(p) -> list[Fraction]:
    """All rational roots by divisor search; may miss roots only when the
    search space exceeds the budget (callers must tolerate that)."""
    q = primitive(p)
    roots = []
    while len(q) > 1 and q[0] == 0:
        q = q[1:]
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
    if len(q) == 1:
        return roots
    nums = _divisors(q[0])
    dens = _divisors(q[-1])
    if nums is None or dens is None or len(nums) * len(dens) > _DIVISOR_BUDGET:
        candidates = {Fraction(k) for k in range(-8, 9)}
        candidates |= {Fraction(1, k) for k in range(2, 9)}
        candidates |= {Fraction(-1, k) for k in range(2, 9)}
    else:
        candidates = {Fraction(s * n, d) for n in nums for d in dens for s in (1, -1)}
    for cand in candidates:
        if sign_at(q, cand) == 0 and cand not in roots:
            roots.append(cand)
    return sorted(roots)


def solve_quadratic_exact(p):
    """Exact real roots of a polynomial of degree <= 2, ascending."""
    p = poly.normalize(p)
    d = poly.degree(p)
    if d == 0:
        return []
    if d == 1:
        return [-p[0] / p[1]]
    a, b, c = p[2], p[1], p[0]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [-b / (2 * a)]
    # sqrt(num/den) = sqrt(num*den)/den; the second root is the conjugate
    # of the first, so the radicand is split once.
    center = -b / (2 * a)
    first = quadratic(center, Fraction(1, disc.denominator) / (2 * a),
                      disc.numerator * disc.denominator)
    return sorted([first, 2 * center - first])


def isolate_roots(p, interval: Interval):
    """Distinct real roots of p in the open interval, with multiplicities;
    p is a rational polynomial or its RealRoots.

    Returns [(root, multiplicity)] ascending, where root is a Fraction, a
    QuadraticNumber, or an Enclosure (sign-change certificate) of a root of
    p that contains no other root of p.
    """
    roots = _real_roots(p)
    if not any(roots.p):
        raise ValueError("zero polynomial")
    rationals, sf, exact, gcds = roots.split()
    results = [(r, k) for r, k in rationals if interval.contains(r)]
    if sf is not None:
        if exact is not None:
            found = [r for r in exact if interval.contains(r)]
        else:
            points = [r for r, _ in rationals]
            found = [_clear_of(enc, points) if isinstance(enc, Enclosure) else enc
                     for enc in _isolate_by_bisection(roots.chain(sf), interval)]
        chains = ([roots.chain(g) for g in gcds]
                  if any(isinstance(r, Enclosure) for r in found) else [])
        results += [(r, 1 + _gcds_vanishing_at(gcds, chains, r)) for r in found]
    return sorted(results, key=lambda rm: _position(rm[0]))


def _position(root):
    """Exact sort key of an isolated root: its value, or the lower end of its
    enclosure.  Enclosures are disjoint and clear of the exact roots."""
    return root.lo if isinstance(root, Enclosure) else root


def _clear_of(enc: Enclosure, points) -> Enclosure:
    """The enclosure refined until no point lies in [lo, hi]; the points
    are not roots of its polynomial, so the halving stops."""
    for r in points:
        while enc.lo <= r <= enc.hi:
            enc = enc.refine(enc.width() / 2)
    return enc


def _gcds_vanishing_at(gcds, chains, root) -> int:
    """How many of the nested gcds (with their Sturm chains when the root is
    an enclosure) have the root among their roots."""
    for k, g in enumerate(gcds):
        hit = (root.holds_root_of(chains[k]) if isinstance(root, Enclosure)
               else sign_at(g, root) == 0)
        if not hit:
            return k
    return len(gcds)


def _isolate_by_bisection(chain, interval: Interval):
    """Roots in the interval of the squarefree polynomial p = chain[0], from
    its Sturm chain, unordered: exact rationals hit by a bisection midpoint,
    else sign-change enclosures of p."""
    p = chain[0]
    bound = cauchy_bound(p)
    lo = interval.lower if is_finite(interval.lower) else -bound - 1
    hi = interval.upper if is_finite(interval.upper) else bound + 1
    lo, hi = Fraction(lo), Fraction(hi)
    # Every point is an endpoint of several subintervals: its sign
    # variations and its sign of p are computed once each.
    variations, signs = {}, {}

    def sign(x):
        if x not in signs:
            signs[x] = sign_at(p, x)
        return signs[x]

    def count(a, b):
        # Roots in (a, b]; the chain of a square-free polynomial counts a
        # root at b but not one at a.
        for x in (a, b):
            if x not in variations:
                variations[x] = sign_variations(chain, x)
        n = variations[a] - variations[b]
        return n - 1 if sign(b) == 0 else n

    found = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        if not a < b:
            continue
        n = count(a, b)
        if n == 0:
            continue
        if n > 1:
            mid = (a + b) / 2
            if sign(mid) == 0:
                found.append(mid)
            stack.append((a, mid))
            stack.append((mid, b))
            continue
        # Exactly one (simple) root: narrow to a sign-change bracket.
        aa, bb = a, b
        while True:
            sa, sb = sign(aa), sign(bb)
            if sa != 0 and sb != 0 and sa != sb:
                found.append(Enclosure(aa, bb, tuple(p)))
                break
            mid = (aa + bb) / 2
            if sign(mid) == 0:
                found.append(mid)
                break
            if count(aa, mid) == 1:
                bb = mid
            else:
                aa = mid
    return found


# ---------------------------------------------------------------------------
# Certified containment of polynomial images


def poly_maps_into(p, source: Interval, targets: list[Interval]):
    """Certified check that p(source) lies inside the open target union;
    p is a rational polynomial or its IntegerFacts, which keep the shifts
    p - g.

    Returns (ok, witness): witness is a rational point of the source whose
    image provably leaves the union (or None).  The test is exact: the
    image, a connected set, meets a closed complement block iff it crosses
    one of the block's finite edges or a sample value sits inside it.
    """
    facts = p if isinstance(p, IntegerFacts) else IntegerFacts(p)
    mid = source.midpoint()
    for g1, g2 in complement_blocks(targets):
        if g1 is NEG_INF and g2 is POS_INF:
            return False, mid
        side = {}   # the sign of p(mid) - g at each finite edge g
        for g in (g1, g2):
            if is_finite(g):
                shifted = facts.shift(g)
                if not any(shifted.p):
                    return False, mid
                if count_roots_open(shifted, source) > 0:
                    return False, _crossing_witness(shifted.p, source)
                side[g] = sign_at(shifted.p, mid)
        if not (side.get(g1, 0) < 0 or side.get(g2, 0) > 0):   # p(mid) in the block
            return False, mid
    return True, None


def _crossing_witness(shifted, source: Interval) -> Fraction:
    """The leftmost root of ``shifted`` in the source when it is rational,
    else the midpoint of its sign-change enclosure.  Bisection on the
    square-free part only: no rational-root search and no exact quadratic
    roots, whose radicands can be too large to split."""
    chain = sturm_chain(squarefree_decomposition(shifted)[0])
    return min(r.midpoint() if isinstance(r, Enclosure) else r
               for r in _isolate_by_bisection(chain, source))


# ---------------------------------------------------------------------------
# Integer facts of a polynomial map


def _minus_x(a, s: int) -> list[int]:
    """a(x) - s*x for an integer polynomial a."""
    out = list(a) + [0] * (2 - len(a))
    out[1] -= s
    return out


def _minus_constant(P, D: int, g) -> list[int]:
    """d P - n D for a rational g = n/d: a positive multiple of P/D - g."""
    n, d = Fraction(g).as_integer_ratio()
    out = [d * c for c in P]
    out[0] -= n * D
    return out


class IntegerFacts:
    """A rational polynomial map p = P/D, with integers P and D > 0, and the
    integer facts derived from it, each computed at most once:

    - ``displacement``: the RealRoots of p(x) - x, as the primitive P - D x;
    - ``critical``: the RealRoots of p';
    - ``second_iterate``: the RealRoots of q = (p(p(x)) - x) / (p(x) - x)
      and of gcd(q, p(x) - x), or None when p(p(x)) = x;
    - ``multiplier_chain(s)``: the Sturm chain of gcd(p(x) - x, p'(x) - s);
    - ``shift(g)``: the RealRoots of p - g, as d P - n D for g = n/d;
    - ``maps_into(source, targets)``: the answer of poly_maps_into.

    None of them depends on a domain, so one object serves the map on
    every interval it is restricted to.  All RealRoots share one store of
    Sturm chains.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)        # the rational coefficients
        self.P, self.D = poly.integer_form(self.coeffs)
        self._chains = {}
        self._multipliers = {}
        self._shifts = {}
        self._containment = {}

    def _roots(self, q) -> RealRoots:
        return RealRoots(q, self._chains)

    @cached_property
    def derivative(self) -> list[Fraction]:
        """p' with the rational coefficients ([0] for a constant p)."""
        return [i * c for i, c in enumerate(self.coeffs)][1:] or [Fraction(0)]

    @cached_property
    def critical(self) -> RealRoots:
        return self._roots(_slope(self.P))

    @cached_property
    def displacement(self) -> RealRoots:
        return self._roots(_minus_x(self.P, self.D))

    @cached_property
    def second_iterate(self):
        P, D = self.P, self.D
        # On integers, from p = P/D of degree k: D^(k+1) (p(p(x)) - x) is
        # D^k P(P/D) - D^(k+1) x.
        both = _minus_x(compose_scaled(P, P, D), D ** len(P))
        if not any(both):
            return None
        displacement = self.displacement.p
        # p(p(x)) - x = (p(p(x)) - p(x)) + (p(x) - x) is divisible by
        # p(x) - x, and exactly so on integers by Gauss's lemma.  The
        # quotient is p'(u) + 1 at a fixed point u, so the two share a root
        # only at a fixed point with multiplier -1.
        q = exact_quotient(both, displacement)
        return self._roots(q), self._roots(primitive_gcd(q, displacement))

    def multiplier_chain(self, s):
        """The Sturm chain of gcd(p(x) - x, p'(x) - s) for a rational s: its
        roots are the fixed points with multiplier s.  None when the gcd is
        constant."""
        if s not in self._multipliers:
            g = primitive_gcd(self.displacement.p, _minus_constant(_slope(self.P), self.D, s))
            self._multipliers[s] = self.displacement.chain(g) if len(g) > 1 else None
        return self._multipliers[s]

    def shift(self, g) -> RealRoots:
        """The RealRoots of p - g for a finite rational g."""
        roots = self._shifts.get(g)
        if roots is None:
            roots = self._shifts[g] = self._roots(_minus_constant(self.P, self.D, g))
        return roots

    def maps_into(self, source: Interval, targets: list[Interval]):
        """poly_maps_into(p, source, targets), asked once per question."""
        key = (source, tuple(targets))
        answer = self._containment.get(key)
        if answer is None:
            answer = self._containment[key] = poly_maps_into(self, source, targets)
        return answer
