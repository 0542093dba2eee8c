"""Formal power-series solutions of f(phi(x)) - lambda*f(x) = gamma(x) at a
fixed point, the explicit coefficient recurrence for the parabolic
quadratic, Koenigs linearization, and eigenfunction series.

The triangular solve is exact whenever the jets and the eigenvalue are
exact; the resonance condition lambda = multiplier**n aborts with a typed
error because the solution is then not unique.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .config import default_precision
from .errors import (HypothesisViolation, NeutralOrSuperattracting,
                     ResonantEigenvalue, ZeroLambda)
from .numbers import (as_exact, format_scalar, invert, is_exact, same_point,
                      scalar_to_json, to_numeric)
from .power_series import Inconclusive, TruncatedSeries, estimate_radius
from .record import Record
from .rootwork import ATTRACTING, multiplier_kind
from .symbols import AnalyticSymbol


class LocalSolution(Record):
    """Truncated formal solution at a fixed point, with its ingredients."""

    series: TruncatedSeries
    lam: object
    gamma: AnalyticSymbol
    phi: AnalyticSymbol
    multiplier: object
    resonances: tuple = ()
    radius_verdict: object = None
    phi_jet: TruncatedSeries = None
    gamma_jet: TruncatedSeries = None

    @property
    def center(self):
        return self.series.center

    def residual_series(self) -> TruncatedSeries:
        """f(phi(x)) - lambda*f(x) - gamma(x) through the stored order."""
        composed = self.series.compose(self.phi_jet)
        return composed - self.series * self.lam - self.gamma_jet

    def to_json_dict(self):
        verdict = self.radius_verdict
        return {
            "series": self.series.to_json_dict(),
            "lambda": _scalar_json(self.lam),
            "multiplier": _scalar_json(self.multiplier),
            "resonances": list(self.resonances),
            "radius": None if verdict is None else verdict.to_json_dict(),
        }


def _scalar_json(value):
    """An exact scalar as its text form; a numeric one tagged, through
    ``scalar_to_json``, so that it does not read back as exact."""
    return format_scalar(value) if is_exact(value) else scalar_to_json(value)


def _check_fixed_point(phi: AnalyticSymbol, u, precision):
    with mpmath.workprec(precision):
        fixed = same_point(phi.eval(u, precision=precision), u)
    if not fixed:
        raise HypothesisViolation(f"{u} is not a fixed point")


def _powers_equal(m_pow, lam) -> bool:
    if is_exact(m_pow) and is_exact(lam):
        return m_pow == lam
    return abs(to_numeric(m_pow) - to_numeric(lam)) < mpmath.mpf(2) ** -48


def solve_formal(phi: AnalyticSymbol, u, lam, gamma: AnalyticSymbol,
                 order: int, precision=None, estimate=True) -> LocalSolution:
    """The unique truncated solution of f(phi(x)) - lam*f(x) = gamma(x).

    Solved triangularly: (m**n - lam) f_n = gamma_n - (lower-order terms of
    the composition), so the constant term is gamma(u)/(1 - lam).  Exact
    residual zero through the requested order for exact inputs.
    """
    precision = precision or default_precision()
    if lam == 0:
        raise ZeroLambda("eigenvalue parameter must be nonzero")
    _check_fixed_point(phi, u, precision)
    phi_jet = phi.jet(u, order, precision=precision)
    gamma_jet = gamma.jet(u, order, precision=precision)
    m = phi_jet.coeffs[1] if order >= 1 else phi.derivative_at(u, precision)
    with mpmath.workprec(precision):
        flags = smajdor_condition(lam, m, order)
        if not all(flags):
            raise ResonantEigenvalue(flags.index(False))
        # A numeric jet is solved against a numeric copy of lam; the
        # solution keeps the caller's lam.
        jet, solve_lam = phi_jet, lam
        if not (phi_jet.is_exact() and gamma_jet.is_exact()):
            solve_lam = to_numeric(lam)
            jet = phi_jet.map_coefficients(to_numeric)
            gamma_jet = gamma_jet.map_coefficients(to_numeric)
        coeffs = jet.solve_composition(solve_lam, gamma_jet.coeffs)
    series = TruncatedSeries(u, coeffs)
    verdict = None
    if estimate and order >= 16:
        verdict = estimate_radius(series)
    elif estimate:
        verdict = Inconclusive("order below 16")
    return LocalSolution(series=series, lam=lam, gamma=gamma, phi=phi,
                         multiplier=m, radius_verdict=verdict,
                         phi_jet=phi_jet, gamma_jet=gamma_jet)


def smajdor_condition(lam, m, order: int) -> list[bool]:
    """Entry n: the uniqueness condition 1 - (1/lam) m**n != 0 holds, i.e.
    lam != m**n.  All-true through the order guarantees the triangular
    solve succeeds."""
    if lam == 0:
        raise ZeroLambda("eigenvalue parameter must be nonzero")
    out = []
    m_pow = m ** 0
    for _ in range(order + 1):
        out.append(not _powers_equal(m_pow, lam))
        m_pow = m_pow * m
    return out


def quadratic_id_recurrence(lam, order: int) -> list:
    """Coefficients of the formal solution for the parabolic quadratic map
    x - x**2 with right-hand side x, by the explicit binomial recurrence:

        f_0 = 0,  f_1 = 1/(1 - lam),
        f_n = 1/(1 - lam) * sum_{j=1..n//2} C(n-j, j) (-1)**(j-1) f_{n-j}.

    An independent code path from solve_formal, used as its cross-oracle.
    """
    lam = as_exact(lam)
    if lam == 1:
        raise ResonantEigenvalue(0)
    inv = invert(1 - lam)
    coeffs = [Fraction(0)]
    if order >= 1:
        coeffs.append(inv)
    for n in range(2, order + 1):
        acc = 0
        for j in range(1, n // 2 + 1):
            term = math.comb(n - j, j) * coeffs[n - j]
            acc = acc + (term if j % 2 == 1 else -term)
        coeffs.append(inv * acc)
    return coeffs


def koenigs(phi: AnalyticSymbol, u, order: int, precision=None) -> TruncatedSeries:
    """The linearizing series: sigma(u) = 0, sigma'(u) = 1, and
    sigma(phi(x)) = m*sigma(x) exactly through the order.

    Requires an attracting, non-superattracting multiplier.
    """
    precision = precision or default_precision()
    _check_fixed_point(phi, u, precision)
    phi_jet = phi.jet(u, order, precision=precision)
    if order < 1:
        raise ValueError("order must be at least 1")
    m = phi_jet.coeffs[1]
    if multiplier_kind(m) != ATTRACTING:
        raise NeutralOrSuperattracting(f"multiplier {m} not in 0 < |m| < 1")
    with mpmath.workprec(precision):
        coeffs = phi_jet.solve_composition(
            m, [m * 0] * (order + 1), head=(m * 0, m ** 0))
    return TruncatedSeries(u, coeffs)


def eigenfunction(phi: AnalyticSymbol, u, n: int, order: int,
                  precision=None) -> TruncatedSeries:
    """The n-th power of the linearizer: an eigenvector candidate for the
    eigenvalue m**n, with zero composition residual through the order."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return TruncatedSeries(u, [Fraction(1)] + [Fraction(0)] * order)
    precision = precision or default_precision()
    sigma = koenigs(phi, u, order, precision=precision)
    with mpmath.workprec(precision):
        return sigma.power(n)


def schroeder_residual(phi: AnalyticSymbol, sigma: TruncatedSeries,
                       eigenvalue, precision=None) -> TruncatedSeries:
    """sigma(phi(x)) - eigenvalue*sigma(x) through sigma's order."""
    precision = precision or default_precision()
    phi_jet = phi.jet(sigma.center, sigma.order, precision=precision)
    return sigma.compose(phi_jet) - sigma * eigenvalue
