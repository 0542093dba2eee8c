"""Globalization of local resolvent-equation solutions.

A trusted local series at an attracting (or parabolic quadratic) fixed
point extends along dynamics: forward orbits fall into the core and the
value unwinds through f(x) = (f(phi(x)) - gamma(x)) / lambda; a monotone
inverse branch handles regions the forward orbit leaves; a mirror identity
reflects across the symmetry axis of quadratic symbols.  The engines
share one walk into the core and one push-forward sum, and each reports
the rules and orbit depth it used.  Only evaluate checks its value against
the functional equation, with doubling precision escalation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .config import default_precision
from .errors import (BasinEscape, BranchDomain, HypothesisViolation,
                     PrecisionLoss, ReflectedUncovered)
from .intervals import NEG_INF, POS_INF, Interval, is_finite
from .numbers import (GaussianRational, as_exact, exact_abs_compare, is_exact,
                      to_mpf, to_numeric)
from .power_series import Converges
from .rootwork import attraction_basin_check
from .solver import LocalSolution, solve_formal
from .symbols import AnalyticSymbol

_MAX_PRECISION = 4096
_MAX_DEPTH = 10_000         # orbit steps before BasinEscape
_HARD_FLOOR = Fraction(1, 2 ** 16)


@dataclass(frozen=True)
class ForwardOrbitRule:
    region: Interval

    name = "forward-orbit"


@dataclass(frozen=True)
class InverseBranchRule:
    region: Interval
    branch: object          # callable y -> psi(y) in mpf arithmetic

    name = "inverse-branch"


@dataclass(frozen=True)
class MirrorRule:
    axis: Fraction
    region: Interval

    name = "mirror"


@dataclass(frozen=True)
class EvalTrace:
    rule_chain: tuple
    depth: int
    residual: str

    def to_json_dict(self):
        return {"rules": list(self.rule_chain), "depth": self.depth,
                "residual": self.residual}


@dataclass(frozen=True)
class GlobalSolution:
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
    r_safe = _half(verdict.radius_estimate, phi.domain, u)
    if core_radius is not None:
        r_safe = min(r_safe, Fraction(core_radius))
    m = local.multiplier
    parabolic = is_exact(m) and m == 1
    for _ in range(64):
        core = Interval(Fraction(u) - r_safe, Fraction(u) + r_safe)
        if _core_invariant(phi, core, u, parabolic):
            break
        r_safe = r_safe / 2
        if r_safe < _HARD_FLOOR:
            raise HypothesisViolation("could not certify an invariant core")
    else:
        raise HypothesisViolation("could not certify an invariant core")
    basin = None
    if check_basin and not parabolic:
        basin = attraction_basin_check(phi, core, max_depth=_MAX_DEPTH,
                                       invariant_core=True)
        if basin.status == "false":
            raise HypothesisViolation(
                f"domain is not attracted to the core (witness {basin.witness})")
    rules = standard_parabolic_rules(phi) if parabolic \
        else (ForwardOrbitRule(phi.domain),)
    return GlobalSolution(local=local, core=core, rules=rules, basin=basin)


def _core_invariant(phi: AnalyticSymbol, core: Interval, u, parabolic: bool) -> bool:
    # A parabolic core only needs its attracting right half invariant.
    source = Interval(Fraction(u), core.upper) if parabolic else core
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
    return (is_exact(x) and sol.local.series.is_exact()
            and sol.phi.is_rational_polynomial()
            and sol.gamma.is_rational_polynomial()
            and is_exact(sol.lam))


def _orbit_to_core(sol: GlobalSolution, x, start, step, escape=None):
    """The orbit start, step(start), ... up to and including its first
    point in the core; BasinEscape at _MAX_DEPTH steps or once a point has
    |point| > escape."""
    orbit = [start]
    while not sol.core.contains(orbit[-1]):
        depth = len(orbit) - 1
        if depth == _MAX_DEPTH or (escape is not None
                                   and abs(to_mpf(orbit[-1])) > escape):
            raise BasinEscape(depth, x)
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
    return _extend_forward_trace(sol, x, precision or default_precision())[0]


def _escape_bound(sol: GlobalSolution, x):
    scale = abs(to_mpf(x)) + abs(to_mpf(Fraction(sol.core.upper))) \
        + abs(to_mpf(Fraction(sol.core.lower)))
    return 4 * scale + mpmath.mpf(2) ** 20


def _extend_forward_trace(sol: GlobalSolution, x, precision):
    exact = _exact_mode(sol, x)
    work = precision + 32
    with mpmath.workprec(work):
        orbit = _orbit_to_core(sol, x, x if exact else to_mpf(x),
                               lambda p: sol.phi.eval(p, precision=work),
                               escape=_escape_bound(sol, x))
        value = sol.local.series.eval(orbit[-1])
        lam = sol.lam if exact else to_numeric(sol.lam)
        for p in reversed(orbit[:-1]):
            value = (value - sol.gamma.eval(p, precision=work)) / lam
        return value, _trace("forward-orbit", len(orbit) - 1)


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
        lam = to_numeric(sol.lam) if isinstance(sol.lam, GaussianRational) \
            else sol.lam
        # psi(orbit[k]) = orbit[k+1], so f(orbit[k]) = f(phi(orbit[k+1])).
        value = _push(sol, sol.local.series.eval(orbit[-1]), orbit[:0:-1],
                      lam, work)
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
            base, trace = _dispatch(sol, reflected, work, allow_mirror=False)
        except (BranchDomain, BasinEscape) as exc:
            raise ReflectedUncovered(
                f"reflected point {reflected} not covered") from exc
        lam = sol.lam if exact else to_numeric(sol.lam)
        correction = (sol.gamma.eval(reflected, precision=work)
                      - sol.gamma.eval(y_val, precision=work)) / lam
        return base + correction, EvalTrace(("mirror",) + trace.rule_chain,
                                            trace.depth, "")


def _dispatch(sol: GlobalSolution, x, work, allow_mirror=True):
    if sol.core.contains(x):
        point = x if _exact_mode(sol, x) else to_mpf(x)
        return sol.local.series.eval(point), _trace("series", 0)
    for rule in sol.rules:
        if isinstance(rule, ForwardOrbitRule) and rule.region.contains(x):
            return _extend_forward_trace(sol, x, work)
        if isinstance(rule, InverseBranchRule) and rule.region.contains(x):
            return _extend_inverse_trace(sol, x, work)
        if allow_mirror and isinstance(rule, MirrorRule) \
                and rule.region.contains(x):
            return _extend_mirror_trace(sol, x, work)
    raise BranchDomain(f"{x} is not covered by any extension rule")


def evaluate(sol: GlobalSolution, x, precision=None):
    """Value of the global solution with a residual certificate.

    Returns (value, trace), the trace naming the rules and orbit depth
    that produced the value.  The residual of the functional equation at x
    must sit below 2**-(precision-32); otherwise precision escalates by
    doubling up to the 4096-bit ceiling before PrecisionLoss.
    """
    precision = precision or default_precision()
    if _exact_mode(sol, x):
        value, trace = _dispatch(sol, x, precision)
        if is_exact(value):
            residual = _residual_exact(sol, x, value)
            if is_exact(residual):
                if residual != 0:
                    raise PrecisionLoss("exact path produced a nonzero residual")
                return value, EvalTrace(("exact",) + trace.rule_chain,
                                        trace.depth, "0")
    work = precision
    while work <= _MAX_PRECISION:
        with mpmath.workprec(work + 32):
            value, trace = _dispatch(sol, x, work)
            residual = _residual_numeric(sol, x, value, work)
            bound = mpmath.mpf(2) ** (-(precision - 32))
            if abs(residual) < bound:
                with mpmath.workprec(precision):
                    return +value, EvalTrace(trace.rule_chain, trace.depth,
                                             mpmath.nstr(abs(residual), 8))
        work *= 2
    raise PrecisionLoss(f"residual above tolerance at {_MAX_PRECISION} bits")


def _residual_exact(sol: GlobalSolution, x, value):
    phi_x = sol.phi.eval(x)
    f_phi, _ = _dispatch(sol, phi_x, default_precision())
    return f_phi - sol.lam * value - sol.gamma.eval(x)


def _residual_numeric(sol: GlobalSolution, x, value, work):
    with mpmath.workprec(work + 32):
        x_val = to_mpf(x)
        phi_x = sol.phi.eval(x_val, precision=work + 32)
        f_phi, _ = _dispatch(sol, phi_x, work)
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
        lhs, _ = _dispatch(sol, orbit[-1], work)
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


@dataclass(frozen=True)
class WitnessReport:
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
