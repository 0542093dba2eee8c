"""Globalization of local resolvent-equation solutions.

A trusted local series at an attracting (or parabolic quadratic) fixed
point extends along dynamics: forward orbits fall into the core and the
value unwinds through f(x) = (f(phi(x)) - gamma(x)) / lambda; a monotone
inverse branch handles regions the forward orbit leaves; a mirror identity
reflects across the symmetry axis of quadratic symbols.  The engines
share one walk into the core and one push-forward sum, and each reports
the rules and orbit depth it used.  Only evaluate checks its value against
the functional equation, with doubling precision escalation.  Outside the
core that check reuses f(phi(x)), the value the forward walk carried one
step before its last, so it measures only the rounding of that last step;
inside the core it reads the series at phi(x) and sees the truncation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import mpmath

from .config import default_precision
from .errors import (BasinEscape, BranchDomain, HypothesisViolation,
                     PrecisionLoss, ReflectedUncovered)
from .intervals import NEG_INF, POS_INF, Interval, is_finite
from .numbers import (as_exact, exact_abs_compare, is_exact, is_rational, to_mpf,
                      to_numeric)
from .power_series import Converges
from .record import Record
from .rootwork import MAX_ORBIT_STEPS, attraction_basin_check
from .solver import LocalSolution, solve_formal
from .symbols import AnalyticSymbol

_MAX_PRECISION = 4096
_HARD_FLOOR = Fraction(1, 2 ** 16)
# Orbit points below this size cannot trip an escape bound, which is at
# least 2^20 at any precision.
_ESCAPE_MARGIN = 2 ** 19


class ForwardOrbitRule(Record):
    region: Interval

    name = "forward-orbit"


class InverseBranchRule(Record):
    region: Interval
    branch: object          # callable y -> psi(y) in mpf arithmetic

    name = "inverse-branch"


class MirrorRule(Record):
    axis: Fraction
    region: Interval

    name = "mirror"


class EvalTrace(Record):
    rule_chain: tuple
    depth: int
    residual: str

    def to_json_dict(self):
        return {"rules": list(self.rule_chain), "depth": self.depth,
                "residual": self.residual}


class GlobalSolution(Record):
    local: LocalSolution
    core: Interval
    rules: tuple
    basin: object = None

    @property
    def phi(self) -> AnalyticSymbol:
        return self.local.phi

    @property
    def gamma(self) -> AnalyticSymbol:
        return self.local.gamma

    @property
    def lam(self):
        return self.local.lam

    @property
    def center(self):
        return self.local.series.center

    @cached_property
    def _exact_data(self) -> bool:
        """Whether the series, phi, gamma and lambda are all exact, so that
        exact points unwind exactly.  Computed once and kept in the
        instance dict, outside equality, hashing and repr."""
        local = self.local
        return (local.series.is_exact() and local.phi.is_rational_polynomial()
                and local.gamma.is_rational_polynomial() and is_exact(local.lam))


def _half(r_est, domain: Interval, center) -> Fraction:
    """Safe radius: half the estimate, capped at 1 and by the domain."""
    if r_est is None:
        r = Fraction(1)
    else:
        approx = mpmath.nstr(mpmath.mpf(r_est) / 2, 12)
        r = min(Fraction(1), Fraction(approx).limit_denominator(10 ** 9))
    lo, hi = domain.lower, domain.upper
    if is_finite(hi):
        gap = Fraction(hi) - Fraction(center)
        r = min(r, gap / 2)
    if is_finite(lo):
        gap = Fraction(center) - Fraction(lo)
        r = min(r, gap / 2)
    return max(r, _HARD_FLOOR)


def globalize(phi: AnalyticSymbol, u, lam, gamma: AnalyticSymbol,
              order: int = 24, precision=None, check_basin: bool = True,
              core_radius=None) -> GlobalSolution:
    """Build a global solution from a convergent local one.

    The core shrinks until it is forward-invariant (attracting case) or at
    least forward-invariant on its attracting half (parabolic multiplier
    one, where the inverse-branch and mirror rules carry the other side).
    The default core radius is half the estimated radius; callers chasing
    residuals beyond the truncation error of a finite-order series pass a
    smaller core_radius so the series is only read deep inside its disk.
    """
    precision = precision or default_precision()
    local = solve_formal(phi, u, lam, gamma, order, precision=precision)
    verdict = local.radius_verdict
    if not isinstance(verdict, Converges):
        raise HypothesisViolation(
            f"local series is not usable for extension: {verdict}")
    # Every core radius r below is at least the floor, so (c - r, c + r)
    # contains u.
    floor = min(_HARD_FLOOR, Fraction(core_radius or _HARD_FLOOR))
    c = _rational_near(u, floor / 4)
    r_safe = _half(verdict.radius_estimate, phi.domain, c)
    if core_radius is not None:
        r_safe = min(r_safe, Fraction(core_radius))
    m = local.multiplier
    parabolic = is_exact(m) and m == 1
    core = Interval(c - r_safe, c + r_safe)
    while not _core_invariant(phi, core, c, parabolic):
        r_safe = r_safe / 2
        if r_safe < _HARD_FLOOR:
            raise HypothesisViolation("could not certify an invariant core")
        core = Interval(c - r_safe, c + r_safe)
    basin = None
    if check_basin and not parabolic:
        basin = attraction_basin_check(phi, core, invariant_core=True)
        if basin.status == "false":
            raise HypothesisViolation(
                f"domain is not attracted to the core (witness {basin.witness})")
    rules = standard_parabolic_rules(phi) if parabolic \
        else (ForwardOrbitRule(phi.domain),)
    return GlobalSolution(local=local, core=core, rules=rules, basin=basin)


def _rational_near(u, tol: Fraction) -> Fraction:
    """u when it is rational, else a decimal rational closer to u than tol."""
    digits = 20
    while not is_rational(u):
        with mpmath.workprec(4 * digits):
            c = Fraction(mpmath.nstr(to_mpf(u), digits))
        if abs(c - u) < tol:
            return c
        digits *= 2
    return Fraction(u)


def _core_invariant(phi: AnalyticSymbol, core: Interval, c: Fraction,
                    parabolic: bool) -> bool:
    # A parabolic core only needs its attracting right half invariant.
    source = Interval(c, core.upper) if parabolic else core
    ok, _, _ = phi.maps_into(source, [source], 128)
    return ok


def standard_parabolic_rules(phi: AnalyticSymbol):
    """Extension rules for the parabolic quadratic x - x**2: forward orbits
    on (0, 1), the decreasing inverse branch on the negative axis, and the
    mirror identity across the critical axis 1/2."""
    coeffs = phi.rational_coeffs() if phi.is_rational_polynomial() else None
    if coeffs != [Fraction(0), Fraction(1), Fraction(-1)]:
        raise HypothesisViolation(
            "standard parabolic rules apply to the normal form x - x^2 only")

    def branch(y):
        # The monotone inverse of x - x^2 on (-inf, 1/2).
        return (1 - mpmath.sqrt(1 - 4 * y)) / 2

    return (ForwardOrbitRule(Interval(Fraction(0), Fraction(1))),
            InverseBranchRule(Interval(NEG_INF, Fraction(0)), branch),
            MirrorRule(Fraction(1, 2), Interval(Fraction(1, 2), POS_INF)))


# ---------------------------------------------------------------------------
# Rule engines: each walks into the core, reads the series and carries the
# value back, returning (value, EvalTrace); extend_* drop the trace.


def _exact_mode(sol: GlobalSolution, x) -> bool:
    return is_exact(x) and sol._exact_data


def _orbit_to_core(sol: GlobalSolution, x, start, step, escape=None):
    """The orbit start, step(start), ... up to and including its first
    point in the core; BasinEscape at MAX_ORBIT_STEPS steps or once a point
    has |point| > escape."""
    orbit = [start]
    while not sol.core.contains(orbit[-1]):
        depth = len(orbit) - 1
        if depth == MAX_ORBIT_STEPS:
            raise BasinEscape(depth, x)
        if escape is not None and abs(to_mpf(orbit[-1])) > escape:
            raise BasinEscape(depth, x, escaped=True)
        orbit.append(step(orbit[-1]))
    return orbit


def _push(sol: GlobalSolution, value, points, lam, work):
    """Carry f along points by f(phi(p)) = lam*f(p) + gamma(p)."""
    for p in points:
        value = lam * value + sol.gamma.eval(p, precision=work)
    return value


def _trace(rule: str, depth: int) -> EvalTrace:
    return EvalTrace(("series",) if depth == 0 else (rule,), depth, "")


def extend_forward(sol: GlobalSolution, x, precision=None):
    """Value at x through the forward orbit into the core.

    Exact inputs unwind exactly; numeric paths carry the working precision
    of the caller.  Points already inside the core evaluate the series at
    depth zero.
    """
    return _forward_walk(sol, x, precision or default_precision())[0]


def _escape_bound(sol: GlobalSolution, x):
    lower, upper = sol.core._rounded_ends()
    return 4 * (abs(to_mpf(x)) + abs(upper) + abs(lower)) + mpmath.mpf(2) ** 20


def _forward_walk(sol: GlobalSolution, x, precision):
    """(value, trace, f_next) of the forward engine.  f_next is f(orbit[1]),
    the value carried one step before the last, when a walk from orbit[1]
    would take this walk's later steps (``_same_rewalk``); else None."""
    exact = _exact_mode(sol, x)
    work = precision + 32
    with mpmath.workprec(work):
        orbit = _orbit_to_core(sol, x, x if exact else to_mpf(x),
                               lambda p: sol.phi.eval(p, precision=work),
                               escape=_escape_bound(sol, x))
        value = sol.local.series.eval(orbit[-1])
        lam = sol.lam if exact else to_numeric(sol.lam)
        f_next = None
        for p in reversed(orbit[:-1]):
            f_next, value = value, (value - sol.gamma.eval(p, precision=work)) / lam
        if not _same_rewalk(sol, orbit):
            f_next = None
        return value, _trace("forward-orbit", len(orbit) - 1), f_next


def _same_rewalk(sol: GlobalSolution, orbit) -> bool:
    """Whether ``_dispatch`` at orbit[1] would walk orbit[1:] as this walk
    did: orbit[1] is in the core, or the first rule holding it is a
    forward-orbit rule and no later point is near the escape bound."""
    if len(orbit) > 2:
        head = orbit[1]
        rule = next((r for r in sol.rules if r.region.contains(head)), None)
        if not isinstance(rule, ForwardOrbitRule):
            return False
    return all(abs(p) < _ESCAPE_MARGIN for p in orbit[2:-1])


def extend_inverse_branch(sol: GlobalSolution, x, precision=None):
    """Value at x through the inverse-branch orbit into the core.

    Uses the identity f(y) = lambda*f(psi(y)) + gamma(psi(y)) along the
    branch orbit, the transformed equation of the inverse symbol.
    """
    return _extend_inverse_trace(sol, x, precision or default_precision())[0]


def _extend_inverse_trace(sol: GlobalSolution, x, precision):
    rule = next((r for r in sol.rules if isinstance(r, InverseBranchRule)), None)
    if rule is None:
        raise BranchDomain("no inverse-branch rule configured")
    if not rule.region.contains(x) and not sol.core.contains(x):
        raise BranchDomain(f"{x} outside the inverse branch region {rule.region}")
    work = precision + 32
    with mpmath.workprec(work):
        orbit = _orbit_to_core(sol, x, to_mpf(x), rule.branch)
        # psi(orbit[k]) = orbit[k+1], so f(orbit[k]) = f(phi(orbit[k+1])).
        value = _push(sol, sol.local.series.eval(orbit[-1]), orbit[:0:-1],
                      sol.lam, work)
        return value, _trace("inverse-branch", len(orbit) - 1)


def extend_mirror(sol: GlobalSolution, y, precision=None):
    """Value at y by reflecting across the symmetry axis:
    f(y) = f(2*axis - y) + (gamma(2*axis - y) - gamma(y)) / lambda."""
    return _extend_mirror_trace(sol, y, precision or default_precision())[0]


def _extend_mirror_trace(sol: GlobalSolution, y, precision):
    rule = next((r for r in sol.rules if isinstance(r, MirrorRule)), None)
    if rule is None:
        raise ReflectedUncovered("no mirror rule configured")
    exact = _exact_mode(sol, y)
    work = precision + 32
    with mpmath.workprec(work):
        y_val = y if exact else to_mpf(y)
        reflected = 2 * rule.axis - y_val if exact else 2 * to_mpf(rule.axis) - y_val
        try:
            base, trace, _ = _dispatch(sol, reflected, work, allow_mirror=False)
        except (BranchDomain, BasinEscape) as exc:
            raise ReflectedUncovered(
                f"reflected point {reflected} not covered") from exc
        lam = sol.lam if exact else to_numeric(sol.lam)
        correction = (sol.gamma.eval(reflected, precision=work)
                      - sol.gamma.eval(y_val, precision=work)) / lam
        return base + correction, EvalTrace(("mirror",) + trace.rule_chain,
                                            trace.depth, "")


def _dispatch(sol: GlobalSolution, x, work, allow_mirror=True):
    """(value, trace, f_next) from the core or the first rule holding x;
    f_next is the forward walk's f(phi(x)), None from every other engine."""
    if sol.core.contains(x):
        point = x if _exact_mode(sol, x) else to_mpf(x)
        return sol.local.series.eval(point), _trace("series", 0), None
    for rule in sol.rules:
        if isinstance(rule, ForwardOrbitRule) and rule.region.contains(x):
            return _forward_walk(sol, x, work)
        if isinstance(rule, InverseBranchRule) and rule.region.contains(x):
            return (*_extend_inverse_trace(sol, x, work), None)
        if allow_mirror and isinstance(rule, MirrorRule) \
                and rule.region.contains(x):
            return (*_extend_mirror_trace(sol, x, work), None)
    raise BranchDomain(f"{x} is not covered by any extension rule")


def evaluate(sol: GlobalSolution, x, precision=None):
    """Value of the global solution with a residual certificate.

    Returns (value, trace), the trace naming the rules and orbit depth
    that produced the value.  The residual of the functional equation at x
    must sit below B = 2**-(precision-32); otherwise precision escalates by
    doubling up to the 4096-bit ceiling before PrecisionLoss, which names
    the last precision tried.  The requested precision is always tried,
    even above the ceiling, which bounds only the doubling.  The ladder
    stops early (Ziv's test) when a rung's residual is still above 2*B and
    within B/4 of the previous rung's: more bits no longer move it, so it
    is a truncation residual, not rounding.

    Each rung dispatches x once, and the exact path is the first rung: at
    an exact point of a solution whose series, phi, gamma and lambda are
    exact, an exact value gets the exact residual first.  Zero returns the
    value with an ``exact`` trace, an exact nonzero residual raises
    PrecisionLoss, and a residual that comes out numeric (f(phi(x)) from
    the inverse-branch engine) falls through to the numeric residual of
    the same value.

    At orbit depth d >= 1 the residual takes f(phi(x)) from the forward
    walk that produced the value, so it measures only the rounding of the
    walk's last step.  A second walk from phi(x) would give the same
    number bit for bit: in numeric mode the walk's first step is the
    residual's own phi(x) (``phi.eval`` of ``to_mpf(x)`` at work + 32 bits
    under that working precision), and the rest of it repeats the same
    calls at the same precision; in exact mode every step is exact.  Where
    that second walk could decide differently (phi(x) under another rule
    or none, or a later point near its escape bound) the residual walks
    phi(x) again, and an error of that walk is the error of evaluate.  In
    the core it reads the series at phi(x) and so sees the truncation.
    """
    precision = precision or default_precision()
    exact = _exact_mode(sol, x)
    work, previous = precision, None
    while True:
        with mpmath.workprec(work + 32):
            value, trace, f_next = _dispatch(sol, x, work)
            if exact and work == precision and is_exact(value):
                residual = _residual_exact(sol, x, value, f_next)
                if is_exact(residual):
                    if residual != 0:
                        raise PrecisionLoss("exact path produced a nonzero residual")
                    return value, EvalTrace(("exact",) + trace.rule_chain,
                                            trace.depth, "0")
            residual = _residual_numeric(sol, x, value, work, f_next)
            bound = mpmath.mpf(2) ** (-(precision - 32))
            if abs(residual) < bound:
                with mpmath.workprec(precision):
                    return +value, EvalTrace(trace.rule_chain, trace.depth,
                                             mpmath.nstr(abs(residual), 8))
            if previous is not None and abs(residual) > 2 * bound \
                    and abs(residual - previous) < bound / 4:
                raise PrecisionLoss(
                    f"residual {mpmath.nstr(abs(residual), 2)} above tolerance "
                    f"2^{32 - precision}, unchanged from {work // 2} to {work} bits")
            previous = residual
        if 2 * work > _MAX_PRECISION:
            raise PrecisionLoss(f"residual above tolerance at {work} bits")
        work *= 2


def _residual_exact(sol: GlobalSolution, x, value, f_phi=None):
    """f(phi(x)) - lam*f(x) - gamma(x); f(phi(x)) is f_phi when given,
    else the dispatch at phi(x)."""
    if f_phi is None:
        f_phi = _dispatch(sol, sol.phi.eval(x), default_precision())[0]
    return f_phi - sol.lam * value - sol.gamma.eval(x)


def _residual_numeric(sol: GlobalSolution, x, value, work, f_phi=None):
    """The residual of ``_residual_exact`` at work + 32 bits."""
    with mpmath.workprec(work + 32):
        x_val = to_mpf(x)
        if f_phi is None:
            f_phi = _dispatch(sol, sol.phi.eval(x_val, precision=work + 32),
                              work)[0]
        lam = to_numeric(sol.lam)
        gamma_x = sol.gamma.eval(x_val, precision=work + 32)
        return f_phi - lam * value - gamma_x


# ---------------------------------------------------------------------------
# Orbit-sum identities


def orbit_sum_check(sol: GlobalSolution, x, n: int, precision=None):
    """Residual of the n-step identity
    f(phi^[n](x)) = lam^n f(x) + sum_k lam^(n-1-k) gamma(phi^[k](x))."""
    precision = precision or default_precision()
    exact = _exact_mode(sol, x)
    work = precision + 32
    with mpmath.workprec(work):
        point = x if exact else to_mpf(x)
        lam = sol.lam if exact else to_numeric(sol.lam)
        orbit = [point]
        for _ in range(n):
            orbit.append(sol.phi.eval(orbit[-1], precision=work))
        lhs = _dispatch(sol, orbit[-1], work)[0]
        residual = lhs - _push(sol, _dispatch(sol, point, work)[0], orbit[:-1],
                               lam, work)
        if exact:
            return residual
        return abs(residual)


def preimage_orbit(mu, n: int, precision=None):
    """The backward orbit x_1 = 1, phi(x_k) = x_(k-1) inside (0, 1) for the
    normal form with parameter mu > 2, by the numerically stable form
    x_k = 2 x_(k-1) / (mu + sqrt(mu^2 - 4 x_(k-1))).

    Strictly decreasing with ratio below 2/mu; n forward steps on x_n
    return to the second fixed point mu - 1.
    """
    precision = precision or default_precision()
    mu = as_exact(mu)
    if not (is_exact(mu) and mu > 2):
        raise ValueError("parameter must be exact and greater than 2")
    if n < 1:
        raise ValueError("need at least one orbit point")
    with mpmath.workprec(precision):
        mu_val = to_mpf(mu)
        orbit = [mpmath.mpf(1)]
        for _ in range(n - 1):
            prev = orbit[-1]
            orbit.append(2 * prev / (mu_val + mpmath.sqrt(mu_val * mu_val - 4 * prev)))
        return orbit


def telescoping_check(sol: GlobalSolution, mu, n: int, precision=None):
    """The preimage-orbit specialization of the orbit-sum identity:
    gamma(mu-1)/(1-lam) versus the unwound sum along x_n.  Returns the
    absolute residual."""
    precision = precision or default_precision()
    orbit = preimage_orbit(mu, n, precision=precision)
    work = precision + 32
    with mpmath.workprec(work):
        lam = to_numeric(sol.lam)
        fixed = to_mpf(mu) - 1
        lhs = sol.gamma.eval(fixed, precision=work) / (1 - lam)
        # f(x_n) pushed along x_n, ..., x_1 lands on f(phi(x_1)) = f(mu - 1)
        acc = _push(sol, _dispatch(sol, orbit[-1], work)[0], orbit[::-1],
                    lam, work)
        return abs(lhs - acc)


# ---------------------------------------------------------------------------
# The non-surjectivity witness demonstration


class WitnessReport(Record):
    mu: object
    lam: object
    exponent: int
    margin_budget: Fraction
    depth: int
    orbit_tail: str
    middle_sum: str
    hypothesis_bound: str
    margin_bound: str
    margin_actual: str
    positive: bool

    def to_json_dict(self):
        return {
            "mu": str(self.mu), "lambda": str(self.lam), "k": self.exponent,
            "c": str(self.margin_budget), "n": self.depth,
            "orbit_tail": self.orbit_tail,
            "middle_sum": self.middle_sum,
            "hypothesis_bound": self.hypothesis_bound,
            "margin_bound": self.margin_bound,
            "margin_actual": self.margin_actual,
            "positive": self.positive,
        }


def prop45_witness_demo(mu, lam, k: int, c, n: int, precision=None) -> WitnessReport:
    """Numeric demonstration that no analytic solution exists for the
    constructed right-hand side when the parameter exceeds 2.

    The right-hand side is x**k * g(x) with g affine, g(mu-1) = 0 and
    g(1) = 1.  Under the hypothesis of a solution (which forces
    f(mu-1) = gamma(mu-1)/(1-lam) and f(0) = 0), the telescoped identity
    bounds the left side by the middle-sum budget; a positive margin
    contradicts it.  This is a report, not a proof object.
    """
    precision = precision or default_precision()
    mu = as_exact(mu)
    c = Fraction(c)
    lam = as_exact(lam)
    if not mu > 2:
        raise ValueError("parameter must exceed 2")
    if not c < Fraction(1, 6) or c <= 0:
        raise ValueError("margin budget must sit in (0, 1/6)")
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    if lam == 1 or lam == 0 or exact_abs_compare(lam, Fraction(1)) > 0:
        raise ValueError("eigenvalue must satisfy 0 < |lam| <= 1 and lam != 1")

    denom = mu - 2

    def gamma_exact(x: Fraction) -> Fraction:
        return x ** k * (mu - 1 - x) / denom

    orbit = preimage_orbit(mu, n, precision=precision)
    work = precision + 32
    with mpmath.workprec(work):
        lam_val = to_numeric(lam)
        mu_val = to_mpf(mu)

        def gamma_val(x):
            return x ** k * (mu_val - 1 - x) / to_mpf(denom)

        middle = lam_val * 0
        # sum over lam^(n-1-i) gamma(x_(n-i)) for i = 0..n-2 (all but gamma(x_1))
        for i in range(0, n - 1):
            middle = middle + lam_val ** (n - 1 - i) * gamma_val(orbit[n - 1 - i])
        gamma_one = gamma_exact(Fraction(1))          # = 1 by construction
        gamma_fixed = gamma_exact(mu - 1)             # = 0 by construction
        lhs_gap = abs(to_numeric(gamma_fixed) / (1 - lam_val) - to_mpf(gamma_one))
        hypothesis = to_mpf(c) * abs(lam_val) ** n
        margin_actual = lhs_gap - (hypothesis + abs(middle))
        margin_bound = lhs_gap - 6 * to_mpf(c)
        return WitnessReport(
            mu=mu, lam=lam, exponent=k, margin_budget=c, depth=n,
            orbit_tail=mpmath.nstr(orbit[-1], 12),
            middle_sum=mpmath.nstr(abs(middle), 12),
            hypothesis_bound=mpmath.nstr(hypothesis, 12),
            margin_bound=mpmath.nstr(margin_bound, 12),
            margin_actual=mpmath.nstr(margin_actual, 12),
            positive=bool(margin_bound > 0 and margin_actual > 0))
