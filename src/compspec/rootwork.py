"""Certified dynamics analysis of a symbol: fixed points with their
multipliers, 2-cycles, critical points, diffeomorphism and attraction-basin
certificates.

Rational polynomial symbols get exact Sturm-based certificates; elementary
symbols get sign-scan heuristics and every derived flag records that the
result is not certified.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import (fone, fzero, mpf_abs, mpf_add, mpf_lt, mpf_shift,
                          mpf_sub, round_nearest)

from . import polynomials as polylib
from . import sturm
from .errors import (BudgetExceeded, CompspecError, DomainError,
                     HypothesisViolation)
from .intervals import NEG_INF, POS_INF, Interval, is_finite
from .numbers import (abs_mpf, exact_abs_compare, is_exact, is_rational,
                      raw_point, raw_ratio, to_mpf)
from .record import Record, replace
from .sturm import Enclosure
from .symbols import AnalyticSymbol, ConjugatedBody, _grid_pairs

SUPERATTRACTING = "superattracting"
ATTRACTING = "attracting"
NEUTRAL = "neutral"
REPELLING = "repelling"
NEUTRAL_UNRESOLVED = "neutral?"

_REFINE_LIMIT = Fraction(1, 2 ** 512)
MAX_ORBIT_STEPS = 10_000    # orbit steps before a walk gives up on the core
# The sampled scans run on raw mpf tuples of this many bits: each
# application of phi is eval(x, _SCAN_BITS) and each slope is
# derivative_at(x, _SCAN_BITS).
_SCAN_BITS = 96


class FixedPointRecord(Record):
    """A certified (or scan-based) fixed point with its multiplier."""

    location: object          # Fraction | QuadraticNumber | Enclosure | mpf
    multiplier: object        # same exactness class as the location allows
    kind: str
    multiplicity: int = 1
    exact: bool = True


def _same_location(a, b) -> bool:
    """Whether two scanned locations (exact or mpf) are one point: equal
    when both are exact, else closer than 2**-40."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(to_mpf(a) - to_mpf(b)) < mpmath.mpf(2) ** -40


class AllFixed(Record):
    """Sentinel: the second iterate is the identity, every point is fixed."""


class DiffeoVerdict(Record):
    value: object             # True | False | None (unknown)
    certificate: str
    certified: bool

    def __bool__(self):
        return self.value is True

    def conjugated(self) -> "DiffeoVerdict":
        """The verdict for a conjugate of the map: the same value, uncertified."""
        return DiffeoVerdict(self.value, f"conjugation-invariant: {self.certificate}", False)


class BasinVerdict(Record):
    status: str               # certified | sampled-true | false
    witness: object = None
    certified: bool = False
    note: str = ""


class SymbolAnalysis(Record):
    symbol: AnalyticSymbol
    fixed_points: list
    has_two_cycle: bool       # an involution has 2-cycles
    critical_points: list
    is_diffeo: DiffeoVerdict
    sign_vs_id: object        # "above" | "below" | None
    critical_bounded_away: object  # True | False | None
    certified: bool
    is_identity: bool = False
    is_involution: bool = False

    def unique_fixed_point(self):
        """The record of the symbol's only fixed point when it has no
        2-cycle, so that the second iterate fixes that point alone."""
        if len(self.fixed_points) == 1 and not self.has_two_cycle:
            return self.fixed_points[0]
        return None


# ---------------------------------------------------------------------------
# Multipliers


def _interval_eval(p, lo: Fraction, hi: Fraction):
    """Range enclosure of p over [lo, hi] by interval Horner."""
    alo = ahi = Fraction(p[-1])
    for c in reversed(p[:-1]):
        products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(products) + c, max(products) + c
    return alo, ahi


def multiplier_kind(m) -> str:
    """The kind of a fixed point with multiplier m: decided exactly for an
    exact m; for a numeric m, within 2**-40 of modulus zero counts as
    superattracting and within 2**-40 of modulus one stays unresolved."""
    if is_exact(m):
        if m == 0:
            return SUPERATTRACTING
        side = exact_abs_compare(m, Fraction(1))
        if side == 0:
            return NEUTRAL
        return ATTRACTING if side < 0 else REPELLING
    mag = abs_mpf(m)
    tol = mpmath.mpf(2) ** -40
    if mag < tol:
        return SUPERATTRACTING
    if abs(mag - 1) < tol:
        return NEUTRAL_UNRESOLVED
    return ATTRACTING if mag < 1 else REPELLING


_SPECIAL_MULTIPLIERS = ((Fraction(0), SUPERATTRACTING),
                        (Fraction(1), NEUTRAL), (Fraction(-1), NEUTRAL))


def _fixed_point_records(facts: sturm.IntegerFacts, domain: Interval) -> list[FixedPointRecord]:
    """Records of the fixed points on the domain of the rational polynomial
    map p with these integer facts: each isolated root of p(x) - x with its
    multiplier and kind.

    An exact root gets its exact multiplier.  For an enclosure root,
    membership of the multiplier in {0, 1, -1} is decided by the gcd of
    p(x) - x with p'(x) - s, whose Sturm chain the facts keep: the gcd
    vanishes in the enclosure exactly when the enclosed fixed point is one
    of its roots.  Otherwise the enclosure refines until the multiplier
    interval separates from those circles.
    """
    roots = sturm.isolate_roots(facts.displacement, domain)
    certificates = []
    if any(isinstance(root, Enclosure) for root, _ in roots):
        for special, kind in _SPECIAL_MULTIPLIERS:
            chain = facts.multiplier_chain(special)
            if chain is not None:
                certificates.append((special, kind, chain))
    return [_root_record(facts.derivative, certificates, root, mult) for root, mult in roots]


def _root_record(dp, certificates, root, mult) -> FixedPointRecord:
    """The record of one isolated root: its location, multiplier and kind."""
    if not isinstance(root, Enclosure):
        m = polylib.eval_at(dp, root)
        return FixedPointRecord(root, m, multiplier_kind(m), mult, True)
    for special, kind, chain in certificates:
        if root.holds_root_of(chain):
            return FixedPointRecord(root, special, kind, mult, True)
    current, width = root, root.hi - root.lo
    while True:
        mlo, mhi = _interval_eval(dp, current.lo, current.hi)
        if mlo > 1 or mhi < -1:
            return FixedPointRecord(current, (mlo, mhi), REPELLING, mult, True)
        if -1 < mlo and mhi < 1 and (mlo > 0 or mhi < 0):
            return FixedPointRecord(current, (mlo, mhi), ATTRACTING, mult, True)
        if width <= _REFINE_LIMIT:
            return FixedPointRecord(current, (mlo, mhi), NEUTRAL_UNRESOLVED, mult, True)
        width = width / 2 ** 16
        current = current.refine(max(width, _REFINE_LIMIT))


# ---------------------------------------------------------------------------
# Fixed points


def find_fixed_points(phi: AnalyticSymbol) -> list[FixedPointRecord]:
    """Fixed points of the symbol on its domain.

    Complete with exact multiplicities for rational polynomial symbols;
    scan-based and flagged inexact otherwise.
    """
    facts = phi.integer_facts()
    if facts is not None:
        if phi.is_identity():
            raise ValueError("the identity fixes every point")
        return _fixed_point_records(facts, phi.domain)
    return [_heuristic_record(phi, x) for x in _scan_fixed_points(phi, 1)]


def find_fixed_points_second_iterate(phi: AnalyticSymbol):
    """AllFixed for an involution, else the number of points on 2-cycles of
    the symbol: fixed points of its second iterate that it does not fix.

    Exact for rational polynomial symbols (a Sturm count); for others the
    second-iterate scan locations that the symbol moves by 2**-40 or more.
    """
    facts = phi.integer_facts()
    if facts is not None:
        if facts.second_iterate is None:
            return AllFixed()
        # The roots of the quotient (p(p(x)) - x) / (p(x) - x), less those it
        # shares with p(x) - x: the fixed points with multiplier -1.
        q, shared = facts.second_iterate
        return (sturm.count_roots_open(q, phi.domain)
                - sturm.count_roots_open(shared, phi.domain))
    if _looks_like_involution(phi):
        return AllFixed()
    locations = _scan_fixed_points(phi, 2)
    apply = _raw_iterate(phi, 1)
    with mpmath.workprec(_SCAN_BITS):
        images = [mpmath.mp.make_mpf(apply(raw_point(x, _SCAN_BITS))) for x in locations]
        return sum(not _same_location(y, x) for y, x in zip(images, locations))


def _outside(phi: AnalyticSymbol, x) -> DomainError:
    """The DomainError of eval for a raw point x outside the domain."""
    return DomainError(f"{mpmath.mp.make_mpf(x)} is outside the domain {phi.domain}")


def _raw_iterate(phi: AnalyticSymbol, iterations: int, bits=_SCAN_BITS):
    """x -> phi^k(x) on raw tuples of at most ``bits`` bits, each step
    ``eval(x, bits)``; like eval, each step first checks its point against
    the domain bounds rounded at ``bits`` (``Interval.raw_membership``)."""
    image = phi.raw_eval(bits)
    inside = phi.domain.raw_membership(bits)

    def apply(x):
        for _ in range(iterations):
            if not inside(x):
                raise _outside(phi, x)
            x = image(x)
        return x
    return apply


def _raw_displacement(phi: AnalyticSymbol, iterations: int):
    """x -> phi^k(x) - x on raw tuples of at most _SCAN_BITS bits.  For
    k = 1 and an elementary body it is read from the folded tree of phi - x,
    so that phi(x) = x + exp(-x^2) keeps its displacement where the rounded
    phi(x) equals x; otherwise it is phi^k(x), rounded, minus x."""
    if iterations == 1 and phi.is_elementary():
        inside = phi.domain.raw_membership(_SCAN_BITS)
        move = phi.raw_displacement(_SCAN_BITS)

        def displacement(x):
            if not inside(x):
                raise _outside(phi, x)
            return move(x)
        return displacement
    apply = _raw_iterate(phi, iterations)
    return lambda x: mpf_sub(apply(x), x, _SCAN_BITS, round_nearest)


def _looks_like_involution(phi: AnalyticSymbol) -> bool:
    """Whether phi(phi(x)) stays within 2**-64 of x at 32 grid points.  The
    first image is taken at the grid point rounded to eval's working
    precision _SCAN_BITS + 24, which for an elementary body is eval at the
    exact point."""
    first = phi.raw_eval(_SCAN_BITS)
    second = _raw_iterate(phi, 1)
    tol = mpf_shift(fone, -64)
    for num, den in _grid_pairs(phi.domain, 32):
        try:
            y = second(first(raw_ratio(num, den, _SCAN_BITS + 24)))
        except CompspecError:
            return False
        gap = mpf_sub(y, raw_ratio(num, den, _SCAN_BITS), _SCAN_BITS, round_nearest)
        if mpf_lt(tol, mpf_abs(gap)):
            return False
    return True


def _scan_fixed_points(phi: AnalyticSymbol, iterations: int) -> list:
    """Locations where phi^k(x) = x on the symbol's domain, k the number of
    iterations, by a sign-change scan of the displacement phi^k(x) - x at
    1024 grid points with bisection refinement; not exhaustive.  A grid
    point whose iterate leaves the domain has no value."""
    displacement = _raw_displacement(phi, iterations)
    pairs = _grid_pairs(phi.domain, 1024)
    points = [raw_ratio(num, den, _SCAN_BITS) for num, den in pairs]
    locations = []
    with mpmath.workprec(_SCAN_BITS):
        values = []
        for x in points:
            try:
                values.append(displacement(x))
            except CompspecError:
                values.append(None)
        for (num, den), v in zip(pairs, values):
            if v == fzero:
                locations.append(Fraction(num, den))
        for i in range(len(points) - 1):
            va, vb = values[i], values[i + 1]
            if va is None or vb is None or va == fzero or vb == fzero:
                continue
            if va[0] != vb[0]:   # opposite signs
                root = mpmath.mp.make_mpf(_bisect(
                    lambda x: _sign(displacement(x)), points[i], points[i + 1], va[0] == 1))
                snapped = _snap_rational(displacement, root)
                locations.append(snapped if snapped is not None else root)
    deduped = []
    for x in locations:
        if not any(_same_location(x, y) for y in deduped):
            deduped.append(x)
    return deduped


def _sign(value) -> int:
    """Sign of a raw mpf tuple or an exact real scalar."""
    if isinstance(value, tuple):
        return 0 if value == fzero else (-1 if value[0] else 1)
    return (value > 0) - (value < 0)


def _bisect(sign_at, lo, hi, lo_negative):
    """Bisection on raw _SCAN_BITS-bit points lo < hi for a sign change of
    a function given by its sign; stops early when the bracket reaches
    adjacent floats.  Each midpoint is (lo + hi) / 2 rounded as mpmath
    rounds it at _SCAN_BITS bits."""
    for _ in range(200):
        mid = mpf_shift(mpf_add(lo, hi, _SCAN_BITS, round_nearest), -1)
        if mid == lo or mid == hi:
            break  # adjacent floats: the bracket cannot shrink any more
        s = sign_at(mid)
        if s == 0:
            return mid
        if (s < 0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return mpf_shift(mpf_add(lo, hi, _SCAN_BITS, round_nearest), -1)


def _snap_rational(displacement, root):
    """Try to replace a numeric root by a nearby small rational at which
    the raw displacement function (nearly) vanishes."""
    candidates = []
    for den in (1, 2, 3, 4, 6, 8, 12, 16):
        num = mpmath.nint(root * den)
        candidates.append(Fraction(int(num), den))
    for cand in candidates:
        if abs(to_mpf(cand) - root) < mpmath.mpf(2) ** -32:
            residual = mpmath.mp.make_mpf(displacement(raw_point(cand, _SCAN_BITS)))
            if residual == 0 or abs(residual) < mpmath.mpf(2) ** -88:
                return cand
    return None


def _heuristic_record(phi: AnalyticSymbol, location) -> FixedPointRecord:
    with mpmath.workprec(_SCAN_BITS):
        m = phi.derivative_at(location, precision=_SCAN_BITS)
        return FixedPointRecord(location=location, multiplier=m,
                                kind=multiplier_kind(m), multiplicity=1,
                                exact=False)


# ---------------------------------------------------------------------------
# Critical points and diffeomorphism certificate


def find_critical_points(phi: AnalyticSymbol):
    """Critical points on the domain: the isolated roots of p' for a
    rational polynomial p; otherwise the sign changes and zeros of the
    slope at 512 grid points, refined by bisection (not exhaustive).  A
    grid point whose slope is past the magnitude budget has no sign."""
    facts = phi.integer_facts()
    if facts is not None:
        if polylib.degree(facts.derivative) == 0:
            return []
        return [root for root, _ in sturm.isolate_roots(facts.critical, phi.domain)]
    slope = phi.raw_slope(_SCAN_BITS)
    points = [raw_ratio(num, den, _SCAN_BITS)
              for num, den in _grid_pairs(phi.domain, 512)]

    def sign(x):
        try:
            return _sign(slope(x))
        except BudgetExceeded:
            return None

    signs = [sign(x) for x in points] + [None]
    roots = []
    # Every exact grid zero once; bisect only brackets whose two ends are
    # nonzero with opposite signs.
    for i, (x, s) in enumerate(zip(points, signs)):
        if s == 0:
            roots.append(x)
        elif s and signs[i + 1] and s != signs[i + 1]:
            roots.append(_bisect(lambda t: _sign(slope(t)), x, points[i + 1], s < 0))
    return [mpmath.mp.make_mpf(x) for x in roots]


def is_diffeomorphism(phi: AnalyticSymbol, critical=None) -> DiffeoVerdict:
    """True iff the derivative never vanishes on the domain and the map is
    onto the domain (endpoint limits reach the interval ends).

    ``critical`` is the symbol's ``find_critical_points`` list when the
    caller already has it; None computes it.
    """
    if isinstance(phi.body, ConjugatedBody):
        return is_diffeomorphism(phi.body.inner).conjugated()
    if critical is None:
        critical = find_critical_points(phi)
    exact = phi.is_rational_polynomial()
    if exact:
        dp = phi.integer_facts().derivative
        if polylib.degree(dp) == 0 and dp[0] == 0:
            return DiffeoVerdict(False, "derivative vanishes identically", True)
    if critical:
        return DiffeoVerdict(False, "critical point inside the domain" if exact
                             else "critical point found by scan", exact)
    onto, certified = _onto_check(phi)
    certified = certified and exact
    if onto is True:
        return DiffeoVerdict(True, "monotone with limits onto the ends"
                             + ("" if exact else " (sampled)"), certified)
    if onto is False:
        return DiffeoVerdict(False, "image does not fill the interval", certified)
    return DiffeoVerdict(None, "endpoint limits unresolved", False)


def _onto_check(phi: AnalyticSymbol):
    lo_lim = phi.limit_at(phi.domain.lower)
    hi_lim = phi.limit_at(phi.domain.upper)
    increasing = _is_increasing(phi)
    if increasing is None:
        return None, False
    want_lo, want_hi = (phi.domain.lower, phi.domain.upper)
    if not increasing:
        lo_lim, hi_lim = hi_lim, lo_lim
    certified = phi.is_rational_polynomial()
    for lim, end in ((lo_lim, want_lo), (hi_lim, want_hi)):
        if lim.kind == "unknown" or lim.kind == "bounded":
            return None, False
        if end is POS_INF:
            if lim.kind != "pos_inf":
                return False, certified or lim.kind == "finite"
        elif end is NEG_INF:
            if lim.kind != "neg_inf":
                return False, certified or lim.kind == "finite"
        else:
            if lim.kind in ("pos_inf", "neg_inf"):
                return False, certified
            if lim.exact:
                if lim.value != Fraction(end):
                    return False, certified
            else:
                if abs(lim.approx - to_mpf(Fraction(end))) > mpmath.mpf(2) ** -40:
                    return False, False
                certified = False
    return True, certified


def _is_increasing(phi: AnalyticSymbol):
    """The sign of phi' at the domain's midpoint, exact for a rational
    polynomial and at 64 bits otherwise: True, False, or None at a zero."""
    mid = phi.domain.midpoint()
    if phi.is_rational_polynomial():
        v = sturm.sign_at(phi.integer_facts().critical.p, mid)
    else:
        with mpmath.workprec(64):
            v = phi.derivative_at(to_mpf(mid), 64)
    return None if v == 0 else v > 0


def critical_set_bounded_away(phi: AnalyticSymbol, end: str, critical=None):
    """Whether the critical set stays away from the chosen end ("upper" or
    "lower") of the domain.  Exact for polynomials (finitely many critical
    points); scan-based for elementary symbols.  ``critical`` is the
    symbol's ``find_critical_points`` list, computed when None."""
    if phi.is_rational_polynomial():
        return True
    crit = find_critical_points(phi) if critical is None else critical
    if not crit:
        return True
    bound = phi.domain.upper if end == "upper" else phi.domain.lower
    if is_finite(bound):
        return None
    # Infinite end: check a tail beyond the outermost found critical point.
    tail_start = max(crit) if end == "upper" else min(crit)
    signs = set()
    with mpmath.workprec(64):
        for k in range(1, 33):
            x = tail_start + k * 4 if end == "upper" else tail_start - k * 4
            d = to_mpf(phi.derivative_at(x, 64))
            signs.add((d > 0) - (d < 0))
            if 0 in signs or len(signs) > 1:
                return None
    return True


# ---------------------------------------------------------------------------
# Attraction basins


def attraction_basin_check(phi: AnalyticSymbol, core: Interval, *,
                           invariant_core: bool = False) -> BasinVerdict:
    """Certify (or sample) that the whole domain is attracted into the core.

    Hypothesis: the core is invariant with closure inside the domain.
    ``invariant_core`` says the caller has already asked
    ``phi.maps_into(core, [core], 128)`` and got yes, so it is not asked
    again.  The certified path needs a rational polynomial symbol, no fixed
    points outside the core, inward-pointing displacement signs, and image
    bounds that prevent jumping across the core.
    """
    _require_core_hypothesis(phi, core, invariant_core)
    if phi.is_rational_polynomial():
        verdict = _certified_basin(phi, core)
        if verdict is not None:
            return verdict
    starts = _basin_starts(phi.domain)
    witness = _sampled_basin_witness(phi, core, starts)
    if witness is None:
        return BasinVerdict("sampled-true", certified=False,
                            note=f"all {len(starts)} samples entered the core")
    point, proven = witness
    return BasinVerdict("false", witness=point, certified=proven,
                        note="orbit provably escapes" if proven
                        else "orbit failed to enter the core")


def _require_core_hypothesis(phi: AnalyticSymbol, core: Interval, invariant: bool):
    if not phi.domain.contains_interval(core):
        raise HypothesisViolation("core closure must sit inside the domain")
    if invariant:
        return
    ok, witness, _ = phi.maps_into(core, [core], 128)
    if not ok:
        raise HypothesisViolation(f"core is not invariant (witness x={witness})")


def _certified_basin(phi: AnalyticSymbol, core: Interval):
    displacement = phi.integer_facts().displacement
    domain = phi.domain
    regions = []
    if is_finite(core.upper) and (not is_finite(domain.upper)
                                  or core.upper < domain.upper):
        regions.append(("upper", Interval(core.upper, domain.upper)))
    if is_finite(core.lower) and (not is_finite(domain.lower)
                                  or domain.lower < core.lower):
        regions.append(("lower", Interval(domain.lower, core.lower)))
    for side, region in regions:
        edge = core.upper if side == "upper" else core.lower
        if sturm.sign_at(displacement.p, Fraction(edge)) == 0:
            return None  # fixed point pinned to the core edge
        n_fixed = sturm.count_roots_open(displacement, region)
        if n_fixed > 0:
            return _escape_witness(phi, displacement, region, side)
        # phi(x) - x points inward across the region: it does at the edge of
        # the invariant core, which is not fixed, and has no root in between.
        # Jump bound: the image of the outer region must not cross to the
        # far side of the core (and must stay inside the domain).
        target_lo = core.lower if side == "upper" else domain.lower
        target_hi = domain.upper if side == "upper" else core.upper
        ok, _, _ = phi.maps_into(region, [Interval(target_lo, target_hi)], 128)
        if not ok:
            return None
    return BasinVerdict("certified", certified=True,
                        note="no outside fixed points, inward displacement, "
                             "jump-safe image bounds")


def _rational_bound_beyond(root, side: str) -> Fraction:
    """A rational point strictly past an exact or enclosed root."""
    if isinstance(root, Enclosure):
        return root.hi if side == "upper" else root.lo
    if not is_rational(root):
        with mpmath.workprec(64):
            seed = int(mpmath.floor(to_mpf(root)))
        cand = Fraction(seed if side == "lower" else seed + 1)
        step = Fraction(1 if side == "upper" else -1)
        while (cand <= root) if side == "upper" else (cand >= root):
            cand += step
        return cand
    return Fraction(root)


def _escape_witness(phi: AnalyticSymbol, displacement: sturm.RealRoots, region: Interval,
                    side: str):
    """A point beyond every outer fixed point whose orbit provably moves
    away from the core forever, or None if no such certificate applies;
    ``displacement`` holds the roots of phi(x) - x."""
    roots = sturm.isolate_roots(displacement, region)
    bounds = [_rational_bound_beyond(r, side) for r, _ in roots]
    if side == "upper":
        base = max(bounds) if bounds else Fraction(region.lower)
        if is_finite(region.upper):
            if not base < Fraction(region.upper):
                return None
            candidate = (base + Fraction(region.upper)) / 2
        else:
            candidate = base + 1
        moving_away = sturm.sign_at(displacement.p, candidate) > 0
    else:
        base = min(bounds) if bounds else Fraction(region.upper)
        if is_finite(region.lower):
            if not Fraction(region.lower) < base:
                return None
            candidate = (Fraction(region.lower) + base) / 2
        else:
            candidate = base - 1
        moving_away = sturm.sign_at(displacement.p, candidate) < 0
    if moving_away:
        # Monotone escape: no fixed points beyond the candidate, so the
        # orbit never re-enters the core.
        return BasinVerdict("false", witness=candidate, certified=True,
                            note="orbit moves monotonically away from the core")
    return None


def _basin_starts(domain: Interval) -> list[tuple[int, int]]:
    """The starts of the sampled basin check as reduced (numerator,
    denominator) pairs: 64 grid points of the domain, then those of -2,
    -1, 1 and 2 that it contains."""
    return _grid_pairs(domain, 64) + [(k, 1) for k in (-2, -1, 1, 2)
                                      if domain.contains(Fraction(k))]


def _sampled_basin_witness(phi: AnalyticSymbol, core: Interval, starts):
    """(start, proven) for the first start whose 64-bit orbit fails to
    enter the core, else None.  An orbit fails when a step raises a
    CompspecError, a point outside the domain included (not proven), when
    a point passes 2**256 in size (proven if ``_escape_is_certain``), or
    when it is still outside after MAX_ORBIT_STEPS steps.  Orbits run on
    raw tuples, each step ``phi.eval(x, 64)`` (``_raw_iterate``), and core
    membership compares with the core's ends rounded at 64 bits."""
    step = _raw_iterate(phi, 1, 64)
    in_core = core.raw_membership(64)
    big = mpf_shift(fone, 256)
    for num, den in starts:
        x = raw_ratio(num, den, 64)
        for _ in range(MAX_ORBIT_STEPS):
            if in_core(x):
                break
            try:
                x = step(x)
            except CompspecError:
                return Fraction(num, den), False
            if mpf_lt(big, mpf_abs(x)):
                start = Fraction(num, den)
                return start, _escape_is_certain(phi, start)
        else:
            return Fraction(num, den), False
    return None


def _escape_is_certain(phi: AnalyticSymbol, start) -> bool:
    if not phi.is_rational_polynomial() or not is_rational(start):
        return False
    start, displacement = Fraction(start), phi.integer_facts().displacement
    v = sturm.sign_at(displacement.p, start)
    if v == 0 or not phi.domain.contains(start):
        return False
    region = Interval(start, phi.domain.upper) if v > 0 else Interval(phi.domain.lower, start)
    return sturm.count_roots_open(displacement, region) == 0


# ---------------------------------------------------------------------------
# Full analysis


def analyze_symbol(phi: AnalyticSymbol) -> SymbolAnalysis:
    """Assemble the dynamics facts the classifier consumes."""
    if isinstance(phi.body, ConjugatedBody):
        return _conjugated_analysis(phi)
    is_identity = phi.is_identity()
    if is_identity:
        return SymbolAnalysis(symbol=phi, fixed_points=[], has_two_cycle=False,
                              critical_points=[],
                              is_diffeo=DiffeoVerdict(True, "identity", True),
                              sign_vs_id=None, critical_bounded_away=None,
                              certified=True, is_identity=True, is_involution=False)
    fixed = find_fixed_points(phi)
    two_cycles = find_fixed_points_second_iterate(phi)
    involution = isinstance(two_cycles, AllFixed)
    critical = find_critical_points(phi)
    diffeo = is_diffeomorphism(phi, critical)
    sign_vs_id = None
    bounded_away = None
    if not fixed:
        sign_vs_id = _sign_against_identity(phi)
        end = "upper" if sign_vs_id == "above" else "lower"
        bounded_away = critical_set_bounded_away(phi, end, critical)
    certified = (phi.invariance_certified and diffeo.certified
                 and phi.is_rational_polynomial()
                 and all(r.exact for r in fixed))
    return SymbolAnalysis(symbol=phi, fixed_points=fixed,
                          has_two_cycle=involution or two_cycles > 0,
                          critical_points=critical, is_diffeo=diffeo,
                          sign_vs_id=sign_vs_id,
                          critical_bounded_away=bounded_away,
                          certified=certified, is_identity=False,
                          is_involution=involution)


def _sign_against_identity(phi: AnalyticSymbol):
    if phi.is_rational_polynomial():
        v = sturm.sign_at(phi.integer_facts().displacement.p, phi.domain.midpoint())
        return "above" if v > 0 else "below"
    with mpmath.workprec(64):
        x = to_mpf(phi.domain.midpoint())
        v = to_mpf(phi.eval(x, 64)) - x
        return "above" if v > 0 else "below"


def _conjugated_analysis(phi: AnalyticSymbol) -> SymbolAnalysis:
    body = phi.body
    inner = analyze_symbol(body.inner)
    change = body.change
    prec = 96

    def pull_back(x):
        return change.apply_inverse(
            x.to_mpf() if isinstance(x, Enclosure) else to_mpf(x), prec)

    with mpmath.workprec(prec):
        fixed = [replace(r, location=pull_back(r.location), exact=False)
                 for r in inner.fixed_points]
        critical = [pull_back(c) for c in inner.critical_points]
    return SymbolAnalysis(symbol=phi, fixed_points=fixed,
                          has_two_cycle=inner.has_two_cycle,
                          critical_points=critical,
                          is_diffeo=inner.is_diffeo.conjugated(),
                          sign_vs_id=inner.sign_vs_id,
                          critical_bounded_away=inner.critical_bounded_away,
                          certified=False, is_identity=inner.is_identity,
                          is_involution=inner.is_involution)
