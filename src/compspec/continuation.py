"""Globalization of local resolvent-equation solutions.

A trusted local series at an attracting (or parabolic quadratic) fixed
point extends along dynamics: forward orbits fall into the core and the
value unwinds through f(x) = (f(phi(x)) - gamma(x)) / lambda; a monotone
inverse branch handles regions the forward orbit leaves; a mirror identity
reflects across the symmetry axis of quadratic symbols.  Every returned
value is spot-checked against the functional equation, with doubling
precision escalation.
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
_HARD_FLOOR = Fraction(1, 2 ** 16)


@dataclass(frozen=True)
class ForwardOrbitRule:
    region: Interval
    max_depth: int = 10_000

    name = "forward-orbit"


@dataclass(frozen=True)
class InverseBranchRule:
    region: Interval
    branch: object          # callable y -> psi(y) in mpf arithmetic
    branch_range: Interval  # where psi lands
    max_depth: int = 10_000

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
              order: int = 24, precision=None, rules=None,
              check_basin: bool = True, max_depth: int = 10_000,
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
        basin = attraction_basin_check(phi, core, max_depth=max_depth,
                                       invariant_core=True)
        if basin.status == "false":
            raise HypothesisViolation(
                f"domain is not attracted to the core (witness {basin.witness})")
    if rules is None:
        if parabolic:
            rules = standard_parabolic_rules(phi, max_depth)
        else:
            rules = (ForwardOrbitRule(phi.domain, max_depth),)
    return GlobalSolution(local=local, core=core, rules=tuple(rules), basin=basin)


def _core_invariant(phi: AnalyticSymbol, core: Interval, u, parabolic: bool) -> bool:
    # A parabolic core only needs its attracting right half invariant.
    source = Interval(Fraction(u), core.upper) if parabolic else core
    ok, _, _ = phi.maps_into(source, [source], 128)
    return ok


def standard_parabolic_rules(phi: AnalyticSymbol, max_depth: int = 10_000):
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

    return (ForwardOrbitRule(Interval(Fraction(0), Fraction(1)), max_depth),
            InverseBranchRule(Interval(NEG_INF, Fraction(0)), branch,
                              Interval(NEG_INF, Fraction(0)), max_depth),
            MirrorRule(Fraction(1, 2), Interval(Fraction(1, 2), POS_INF)))


# ---------------------------------------------------------------------------
# Rule engines


def _series_value(sol: GlobalSolution, x):
    return sol.local.series.eval(x)


def _exact_mode(sol: GlobalSolution, x) -> bool:
    return (is_exact(x) and sol.local.series.is_exact()
            and sol.phi.is_rational_polynomial()
            and sol.gamma.is_rational_polynomial()
            and is_exact(sol.lam))


def extend_forward(sol: GlobalSolution, x, precision=None):
    """Value at x through the forward orbit into the core.

    Exact inputs unwind exactly; numeric paths carry the working precision
    of the caller.  Points already inside the core evaluate the series at
    depth zero.
    """
    value, _ = _extend_forward_trace(sol, x, precision or default_precision())
    return value


def _escape_bound(sol: GlobalSolution, x):
    scale = abs(to_mpf(x)) + abs(to_mpf(Fraction(sol.core.upper))) \
        + abs(to_mpf(Fraction(sol.core.lower)))
    return 4 * scale + mpmath.mpf(2) ** 20


def _extend_forward_trace(sol: GlobalSolution, x, precision):
    rule = next((r for r in sol.rules if isinstance(r, ForwardOrbitRule)), None)
    max_depth = rule.max_depth if rule else 10_000
    exact = _exact_mode(sol, x)
    work = precision + 32
    with mpmath.workprec(work):
        bound = _escape_bound(sol, x)
        current = x if exact else to_mpf(x)
        orbit = [current]
        depth = None
        for k in range(max_depth + 1):
            if sol.core.contains(current):
                depth = k
                break
            if abs(to_mpf(current)) > bound:
                raise BasinEscape(k, x)
            current = sol.phi.eval(current, precision=work)
            orbit.append(current)
        if depth is None:
            raise BasinEscape(max_depth, x)
        value = _series_value(sol, orbit[depth])
        lam = sol.lam if exact else to_numeric(sol.lam)
        for k in range(depth - 1, -1, -1):
            value = (value - sol.gamma.eval(orbit[k], precision=work)) / lam
        return value, EvalTrace(("series",) if depth == 0 else ("forward-orbit",),
                                depth, "")


def extend_inverse_branch(sol: GlobalSolution, x, precision=None):
    """Value at x through the inverse-branch orbit into the core.

    Uses the identity f(y) = lambda*f(psi(y)) + gamma(psi(y)) along the
    branch orbit, the transformed equation of the inverse symbol.
    """
    precision = precision or default_precision()
    rule = next((r for r in sol.rules if isinstance(r, InverseBranchRule)), None)
    if rule is None:
        raise BranchDomain("no inverse-branch rule configured")
    if not rule.region.contains(x) and not sol.core.contains(x):
        raise BranchDomain(f"{x} outside the inverse branch region {rule.region}")
    work = precision + 32
    with mpmath.workprec(work):
        current = to_mpf(x)
        orbit = [current]
        depth = None
        for k in range(rule.max_depth + 1):
            if sol.core.contains(current):
                depth = k
                break
            current = rule.branch(current)
            orbit.append(current)
        if depth is None:
            raise BasinEscape(rule.max_depth, x)
        value = _series_value(sol, orbit[depth])
        lam = to_numeric(sol.lam) if isinstance(sol.lam, GaussianRational) \
            else sol.lam
        for k in range(depth - 1, -1, -1):
            value = lam * value + sol.gamma.eval(orbit[k + 1], precision=work)
        return value


def extend_mirror(sol: GlobalSolution, y, precision=None):
    """Value at y by reflecting across the symmetry axis:
    f(y) = f(2*axis - y) + (gamma(2*axis - y) - gamma(y)) / lambda."""
    precision = precision or default_precision()
    rule = next((r for r in sol.rules if isinstance(r, MirrorRule)), None)
    if rule is None:
        raise ReflectedUncovered("no mirror rule configured")
    exact = _exact_mode(sol, y)
    work = precision + 32
    with mpmath.workprec(work):
        y_val = y if exact else to_mpf(y)
        reflected = 2 * rule.axis - y_val if exact else 2 * to_mpf(rule.axis) - y_val
        try:
            base = _dispatch(sol, reflected, work, allow_mirror=False)
        except (BranchDomain, BasinEscape) as exc:
            raise ReflectedUncovered(
                f"reflected point {reflected} not covered") from exc
        lam = sol.lam if exact else to_numeric(sol.lam)
        correction = (sol.gamma.eval(reflected, precision=work)
                      - sol.gamma.eval(y_val, precision=work)) / lam
        return base + correction


def _dispatch(sol: GlobalSolution, x, work, allow_mirror=True):
    if sol.core.contains(x):
        return _series_value(sol, x if _exact_mode(sol, x) else to_mpf(x))
    for rule in sol.rules:
        if isinstance(rule, ForwardOrbitRule) and rule.region.contains(x):
            value, _ = _extend_forward_trace(sol, x, work)
            return value
        if isinstance(rule, InverseBranchRule) and rule.region.contains(x):
            return extend_inverse_branch(sol, x, precision=work)
        if allow_mirror and isinstance(rule, MirrorRule) \
                and rule.region.contains(x):
            return extend_mirror(sol, x, precision=work)
    raise BranchDomain(f"{x} is not covered by any extension rule")


def evaluate(sol: GlobalSolution, x, precision=None):
    """Value of the global solution with a residual certificate.

    Returns (value, trace).  The residual of the functional equation at x
    must sit below 2**-(precision-32); otherwise precision escalates by
    doubling up to the 4096-bit ceiling before PrecisionLoss.
    """
    precision = precision or default_precision()
    if _exact_mode(sol, x):
        value = _dispatch(sol, x, precision)
        if is_exact(value):
            residual = _residual_exact(sol, x, value)
            if is_exact(residual):
                if residual != 0:
                    raise PrecisionLoss("exact path produced a nonzero residual")
                return value, EvalTrace(("exact",), 0, "0")
    work = precision
    while work <= _MAX_PRECISION:
        with mpmath.workprec(work + 32):
            value = _dispatch(sol, x, work)
            residual = _residual_numeric(sol, x, value, work)
            bound = mpmath.mpf(2) ** (-(precision - 32))
            if abs(residual) < bound:
                with mpmath.workprec(precision):
                    return +value, EvalTrace(("dispatch",), 0,
                                             mpmath.nstr(abs(residual), 8))
        work *= 2
    raise PrecisionLoss(f"residual above tolerance at {_MAX_PRECISION} bits")


def _residual_exact(sol: GlobalSolution, x, value):
    phi_x = sol.phi.eval(x)
    f_phi = _dispatch(sol, phi_x, default_precision())
    return f_phi - sol.lam * value - sol.gamma.eval(x)


def _residual_numeric(sol: GlobalSolution, x, value, work):
    with mpmath.workprec(work + 32):
        x_val = to_mpf(x)
        phi_x = sol.phi.eval(x_val, precision=work + 32)
        f_phi = _dispatch(sol, phi_x, work)
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
        lhs = _dispatch(sol, orbit[-1], work)
        acc = _dispatch(sol, point, work)
        for k in range(n):
            acc = lam * acc + sol.gamma.eval(orbit[k], precision=work)
        residual = lhs - acc
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
        x_n = orbit[-1]
        acc = _dispatch(sol, x_n, work)
        for k in range(n):
            point = orbit[n - 1 - k]
            acc = lam * acc + sol.gamma.eval(point, precision=work)
        # acc now equals lam^n f(x_n) + sum lam^(n-1-i) gamma(x_(n-i))
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
