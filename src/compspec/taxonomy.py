"""Spectral classification of composition operators from a symbol analysis.

The decision tree routes through the fixed-point taxonomy: identity,
fixed-point-free maps, involutions, a unique fixed point without 2-cycles
by its certified kind, pure powers, the quadratic family, and multiple
fixed points.  Every leaf reports structured set expressions for the
spectrum and the point spectrum, the eigenspace dimension on that point
spectrum (zero elsewhere), and the case label with its source citations.
Unresolvable branches return explicit supersets rather than guessing.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .errors import HypothesisViolation, InvarianceFailure, UnresolvedVerdict
from .intervals import Interval, intersect_unions, union_covers
from .numbers import (as_exact, bit_size, exact_abs_compare, format_scalar,
                      is_real_exact, log_abs, parse_scalar, real_part)
from .record import Record, replace
from .rootwork import (ATTRACTING, NEUTRAL, NEUTRAL_UNRESOLVED, REPELLING,
                       SUPERATTRACTING, SymbolAnalysis, analyze_symbol)
from .symbols import AnalyticSymbol, ConjugatedBody, normalize_quadratic

REPORT_VERSION = 1


# ---------------------------------------------------------------------------
# Spectral set expressions


class _Kind(Record):
    """A record whose JSON form is its kind alone."""

    def to_json_dict(self):
        return {"kind": self.kind}


class AllPlane(_Kind):
    kind = "all_plane"

    def contains(self, lam) -> bool:
        return True


class PuncturedPlane(_Kind):
    kind = "punctured_plane"

    def contains(self, lam) -> bool:
        return lam != 0


class Powers(Record):
    """{ratio**n : n >= 0}, optionally together with 0 (closure point)."""

    ratio: object
    include_zero: bool = False

    def __post_init__(self):
        if self.ratio == 0:
            raise ValueError("zero ratio: use a finite set instead")

    kind = "powers"

    def contains(self, lam) -> bool:
        if lam == 0:
            return self.include_zero
        real = real_part(lam)
        if real is None:
            return False
        ratio = as_exact(self.ratio)
        if real == 1 or exact_abs_compare(ratio, Fraction(1)) == 0:
            return real == 1 or real == ratio  # ratio is +-1
        # |ratio|**n = |real| pins n to within one of the 64-bit log ratio;
        # an n too large for the digits of real is rejected unpowered.
        with mpmath.workprec(64):
            t = log_abs(real) / log_abs(ratio)
        return any(0 < n <= 2 * bit_size(real) + 2 and ratio ** n == real
                   for n in {int(mpmath.floor(t)), int(mpmath.ceil(t))})

    def to_json_dict(self):
        return {"kind": self.kind, "ratio": format_scalar(self.ratio),
                "include_zero": self.include_zero}


class FiniteSet(Record):
    values: tuple

    kind = "finite"

    def contains(self, lam) -> bool:
        return any(lam == v for v in self.values)

    def to_json_dict(self):
        return {"kind": self.kind,
                "values": [format_scalar(v) for v in self.values]}


class ClosedDisk(Record):
    radius: Fraction

    kind = "closed_disk"

    def contains(self, lam) -> bool:
        return exact_abs_compare(lam, self.radius) <= 0

    def to_json_dict(self):
        return {"kind": self.kind, "radius": format_scalar(self.radius)}


class RealRay(Record):
    start: Fraction
    closed: bool = True

    kind = "real_ray"

    def contains(self, lam) -> bool:
        real = real_part(lam)
        if real is None:
            return False
        return real >= self.start if self.closed else real > self.start

    def to_json_dict(self):
        return {"kind": self.kind, "from": format_scalar(self.start),
                "closed": self.closed}


class _Parts(Record):
    parts: tuple

    def contains(self, lam) -> bool:
        return any(p.contains(lam) for p in self.parts)

    def to_json_dict(self):
        return {"kind": self.kind, "parts": [p.to_json_dict() for p in self.parts]}


class SetUnion(_Parts):
    kind = "union"


class SupersetOf(_Parts):
    """The spectrum contains the union of the parts (``contains``); the rest is open."""

    kind = "superset_of"


def set_expr_from_json(doc):
    kind = doc["kind"]
    if kind == "all_plane":
        return AllPlane()
    if kind == "punctured_plane":
        return PuncturedPlane()
    if kind == "powers":
        return Powers(parse_scalar(doc["ratio"]), doc["include_zero"])
    if kind == "finite":
        return FiniteSet(tuple(parse_scalar(v) for v in doc["values"]))
    if kind == "closed_disk":
        return ClosedDisk(Fraction(parse_scalar(doc["radius"])))
    if kind == "real_ray":
        return RealRay(Fraction(parse_scalar(doc["from"])), doc["closed"])
    if kind == "union":
        return SetUnion(tuple(set_expr_from_json(p) for p in doc["parts"]))
    if kind == "superset_of":
        return SupersetOf(tuple(set_expr_from_json(p) for p in doc["parts"]))
    raise ValueError(f"unknown set expression kind {kind!r}")


# ---------------------------------------------------------------------------
# Eigenspace dimensions


class DimZero(_Kind):
    kind = "zero"


class DimFinite(Record):
    k: int

    kind = "finite"

    def to_json_dict(self):
        return {"kind": self.kind, "k": self.k}


class DimInfinite(Record):
    tag: str  # "A(T)" | "A_+(R)" | "A(J)"

    kind = "infinite"

    def to_json_dict(self):
        return {"kind": self.kind, "tag": self.tag}


class DimWholeSpace(_Kind):
    kind = "whole_space"


def _dim_from_json(doc):
    if doc["kind"] == "zero":
        return DimZero()
    if doc["kind"] == "finite":
        return DimFinite(doc["k"])
    if doc["kind"] == "infinite":
        return DimInfinite(doc["tag"])
    return DimWholeSpace()


class EigenDim(Record):
    """dim ker(C - lam): ``dim`` on ``members``, the point spectrum, and
    zero elsewhere (Thm 2.2).  In JSON, the two first-match rules "when
    lam is a member" and "otherwise zero"."""

    members: object   # FiniteSet | Powers | PuncturedPlane
    dim: object

    def dimension(self, lam):
        return self.dim if self.members.contains(lam) else DimZero()

    def to_json_list(self):
        members = self.members
        if isinstance(members, Powers):
            when = {"when": "power_of", "ratio": format_scalar(members.ratio)}
        elif isinstance(members, PuncturedPlane):
            when = {"when": "nonzero"}
        elif len(members.values) == 1:
            when = {"when": "equals", "value": format_scalar(members.values[0])}
        else:
            when = {"when": "in_set", "values": [format_scalar(v) for v in members.values]}
        return [dict(when, dim=self.dim.to_json_dict()),
                {"when": "otherwise", "dim": DimZero().to_json_dict()}]

    @classmethod
    def from_json_list(cls, docs):
        """The inverse of to_json_list: ValueError on a list it never writes."""
        first = docs[0] if docs else {}
        when = first.get("when")
        if when == "equals":
            members = FiniteSet((parse_scalar(first["value"]),))
        elif when == "in_set":
            members = FiniteSet(tuple(parse_scalar(v) for v in first["values"]))
        elif when == "power_of":
            members = Powers(parse_scalar(first["ratio"]))
        elif when == "nonzero":
            members = PuncturedPlane()
        else:
            raise ValueError(f"unknown eigen rule {when!r}")
        eigen = cls(members, _dim_from_json(first["dim"]))
        if eigen.to_json_list() != docs:
            raise ValueError(f"not an eigenspace dimension list: {docs!r}")
        return eigen


# ---------------------------------------------------------------------------
# Classification report


class ClassificationReport(Record):
    case_id: str
    sigma_p: object
    sigma: object
    eigen: EigenDim
    resolved: bool
    open_problem: object
    certified: bool
    citations: tuple
    notes: tuple = ()

    def to_json_dict(self):
        return {
            "version": REPORT_VERSION,
            "case": self.case_id,
            "sigma": self.sigma.to_json_dict(),
            "sigma_p": self.sigma_p.to_json_dict(),
            "eigen": self.eigen.to_json_list(),
            "resolved": self.resolved,
            "open_problem": self.open_problem,
            "certified": self.certified,
            "citations": list(self.citations),
            "notes": list(self.notes),
        }

    @classmethod
    def from_json_dict(cls, doc):
        return cls(case_id=doc["case"],
                   sigma_p=set_expr_from_json(doc["sigma_p"]),
                   sigma=set_expr_from_json(doc["sigma"]),
                   eigen=EigenDim.from_json_list(doc["eigen"]),
                   resolved=doc["resolved"],
                   open_problem=doc["open_problem"],
                   certified=doc["certified"],
                   citations=tuple(doc["citations"]),
                   notes=tuple(doc["notes"]))


# ---------------------------------------------------------------------------
# Point spectrum (the five-way split)


def _base_multiplier(analysis: SymbolAnalysis):
    """Multiplier and kind of the symbol's unique fixed point when it has no
    2-cycle, else (None, None)."""
    record = analysis.unique_fixed_point()
    return (None, None) if record is None else (record.multiplier, record.kind)


def _eigen(members, dim):
    """sigma_p and its EigenDim, which share the one set object."""
    return members, EigenDim(members, dim)


def _constants_only():
    return _eigen(FiniteSet((Fraction(1),)), DimFinite(1))


def point_spectrum(analysis: SymbolAnalysis):
    """sigma_p and eigenspace dimensions from the fixed-point taxonomy."""
    if analysis.is_identity:
        return _eigen(FiniteSet((Fraction(1),)), DimWholeSpace())
    if not analysis.fixed_points:
        # A fixed-point-free map lies strictly on one side of the identity,
        # so its second iterate is fixed-point-free too (no 2-cycles).
        if analysis.critical_bounded_away is True:
            return _eigen(PuncturedPlane(), DimInfinite("A(T)"))
        if analysis.critical_bounded_away is None:
            raise UnresolvedVerdict("critical-set tail behaviour undecided")
        return _constants_only()
    if analysis.is_involution:
        return _eigen(FiniteSet((Fraction(-1), Fraction(1))), DimInfinite("A_+(R)"))
    m, kind = _base_multiplier(analysis)
    if kind == NEUTRAL_UNRESOLVED:
        raise UnresolvedVerdict("multiplier enclosure straddles modulus one")
    if kind in (ATTRACTING, REPELLING):
        if not is_real_exact(m):
            raise UnresolvedVerdict("multiplier known only as an enclosure "
                                    "or numerically")
        if kind == ATTRACTING or not analysis.critical_points:
            return _eigen(Powers(as_exact(m)), DimFinite(1))
    return _constants_only()


def _decided_point_spectrum(analysis: SymbolAnalysis):
    """point_spectrum, or None where the taxonomy leaves it undecided."""
    try:
        return point_spectrum(analysis)
    except UnresolvedVerdict:
        return None


# ---------------------------------------------------------------------------
# Spectrum lower bound


def spectrum_lower_bound(analysis: SymbolAnalysis):
    """Union of {0} (non-diffeomorphism), the point spectrum ({1} where it is
    undecided), and the multiplier power sets at hyperbolic fixed points."""
    parts = []
    if analysis.is_diffeo.value is not True:
        parts.append(FiniteSet((Fraction(0),)))
    decided = _decided_point_spectrum(analysis)
    parts.append(decided[0] if decided else FiniteSet((Fraction(1),)))
    for record in analysis.fixed_points:
        if record.kind in (ATTRACTING, REPELLING) and is_real_exact(record.multiplier):
            candidate = Powers(as_exact(record.multiplier))
            if candidate not in parts:
                parts.append(candidate)
    return SetUnion(tuple(parts))


# ---------------------------------------------------------------------------
# The classification decision tree


def spectrum(target) -> ClassificationReport:
    """Full classification of a symbol (or precomputed analysis).

    Total: every branch returns a report; branches the sources leave open
    return explicit supersets with resolved=False.  Every leaf reports the
    point spectrum of point_spectrum and branches on the certified kind of
    the fixed point, never on the size of its multiplier.
    """
    symbol = target if isinstance(target, AnalyticSymbol) else target.symbol
    if isinstance(symbol.body, ConjugatedBody):
        return replace(spectrum(symbol.body.inner), certified=False)
    analysis = analyze_symbol(symbol) if target is symbol else target
    certified = analysis.certified
    decided = _decided_point_spectrum(analysis)

    if analysis.is_identity:
        sigma_p, eigen = decided
        return ClassificationReport(
            case_id="Thm 2.2(b3)", sigma_p=sigma_p, sigma=FiniteSet((Fraction(1),)),
            eigen=eigen, resolved=True, open_problem=None, certified=certified,
            citations=("Thm 2.2(b3)",),
            notes=("identity symbol: the operator is the identity",))

    if not analysis.fixed_points:
        return _no_fixed_point_leaf(analysis, decided, certified)

    if analysis.is_involution:
        sigma_p, eigen = decided
        return ClassificationReport(
            case_id="Thm 2.2(b2)", sigma_p=sigma_p, sigma=sigma_p, eigen=eigen,
            resolved=True, open_problem=None, certified=certified,
            citations=("Thm 2.2(b2)", "Prop 2.1(1)"),
            notes=("derived rule: (C - lam)(C + lam) = (1 - lam^2) I inverts "
                   "the resolvent for lam outside {-1, 1}",))

    m, kind = _base_multiplier(analysis)
    mu = _quadratic_mu(analysis.symbol)
    if m is None:
        return _several_fixed_points_leaf(analysis, mu, decided, certified)
    if kind == NEUTRAL_UNRESOLVED or not is_real_exact(m):
        return _fallback_leaf(analysis, decided, certified,
                              note="multiplier undecided at modulus one")
    sigma_p, eigen = decided
    diffeo = analysis.is_diffeo.value
    if kind == SUPERATTRACTING:
        return ClassificationReport(
            case_id="Cor 3.6", sigma_p=sigma_p, sigma=FiniteSet((Fraction(1), Fraction(0))),
            eigen=eigen, resolved=True, open_problem=None,
            certified=certified, citations=("Cor 3.6", "Thm 2.2(c)", "Prop 2.1(1)"),
            notes=("superattracting fixed point: powers collapse to {1, 0}",))
    if kind == ATTRACTING:
        return ClassificationReport(
            case_id="Cor 3.6", sigma_p=sigma_p,
            sigma=Powers(as_exact(m), include_zero=diffeo is not True), eigen=eigen,
            resolved=True, open_problem=None,
            certified=certified and diffeo is not None,
            citations=("Cor 3.6", "Thm 2.2(b1)", "Prop 2.1(1)"), notes=())
    if kind == NEUTRAL:
        if mu is not None:
            return quadratic_spectrum(mu, certified=certified)
        return _fallback_leaf(analysis, decided, certified, note="neutral multiplier")
    if diffeo is True:
        return ClassificationReport(
            case_id="Cor 3.7", sigma_p=sigma_p, sigma=Powers(as_exact(m)), eigen=eigen,
            resolved=True, open_problem=None, certified=certified,
            citations=("Cor 3.7", "Thm 2.2(b1)"), notes=())
    parts = (FiniteSet((Fraction(0),)), Powers(as_exact(m)))
    return ClassificationReport(
        case_id="Problem 3.8", sigma_p=sigma_p, sigma=SupersetOf(parts),
        eigen=eigen, resolved=False, open_problem="Problem 3.8",
        certified=certified,
        citations=("Problem 3.8", "Prop 2.1", "Thm 2.2"), notes=())


def _no_fixed_point_leaf(analysis, decided, certified) -> ClassificationReport:
    if analysis.critical_bounded_away is not True:
        sigma_p, eigen = decided or _constants_only()
        if decided is None:
            sigma_p = SupersetOf((sigma_p,))
        return ClassificationReport(
            case_id="Problem 3.2", sigma_p=sigma_p,
            sigma=SupersetOf((FiniteSet((Fraction(0), Fraction(1))),)),
            eigen=eigen, resolved=False, open_problem="Problem 3.2",
            certified=certified,
            citations=("Problem 3.2", "Thm 2.2(c)", "Prop 2.1(1)"),
            notes=("critical-set tail behaviour undecided" if decided is None
                   else "critical set not bounded away from the relevant end",))
    sigma_p, eigen = decided
    diffeo = analysis.is_diffeo.value
    if diffeo is True:
        return ClassificationReport(
            case_id="Cor 3.1(a)", sigma_p=sigma_p, sigma=PuncturedPlane(),
            eigen=eigen, resolved=True, open_problem=None, certified=certified,
            citations=("Cor 3.1(a)", "Thm 2.2(a)"), notes=())
    if diffeo is False:
        return ClassificationReport(
            case_id="Cor 3.1(b)", sigma_p=sigma_p, sigma=AllPlane(),
            eigen=eigen, resolved=True, open_problem=None, certified=certified,
            citations=("Cor 3.1(b)", "Thm 2.2(a)", "Prop 2.1(1)"), notes=())
    return ClassificationReport(
        case_id="Cor 3.1", sigma_p=sigma_p, sigma=SupersetOf((PuncturedPlane(),)),
        eigen=eigen, resolved=False, open_problem=None, certified=certified,
        citations=("Cor 3.1", "Thm 2.2(a)", "Prop 2.1(1)"),
        notes=("diffeomorphism verdict undecided: whether 0 lies in the "
               "spectrum is open",))


def _quadratic_mu(symbol: AnalyticSymbol):
    """mu of the normal form -x^2 + mu*x of a rational quadratic symbol with
    a fixed point, or of one already -x^2 + b*x with b irrational, else None."""
    if not symbol.is_polynomial() or len(symbol.body.coeffs) != 3:
        return None
    c, b, a = symbol.body.coeffs
    if symbol.is_rational_polynomial():
        return normalize_quadratic(a, b, c).mu
    return 1 + abs(b - 1) if (c, a) == (0, -1) else None   # fixed points 0, b - 1


def quadratic_spectrum(mu, *, certified=True) -> ClassificationReport:
    """Classification of the normal form -x^2 + mu*x by parameter ranges:
    the parabolic case (partial ray), the full-plane band 1 < mu <= 2, and
    the partial disk-and-powers superset for mu > 2."""
    mu = as_exact(mu)
    if mu < 1:
        raise ValueError("normal form parameter must be at least 1")
    ones, eigen = _constants_only()
    if mu == 1:
        sigma = SupersetOf((FiniteSet((Fraction(0),)), RealRay(Fraction(1), True)))
        return ClassificationReport(
            case_id="Prop 4.1", sigma_p=ones, sigma=sigma,
            eigen=eigen, resolved=False, open_problem="Prop 4.1 partial",
            certified=certified,
            citations=("Prop 4.1", "Prop 2.1(1)", "Thm 2.2(c)"),
            notes=("divergence certificate available for real lam > 1 with "
                   "identity right-hand side",))
    if mu <= 2:
        return ClassificationReport(
            case_id="Prop 4.4", sigma_p=ones, sigma=AllPlane(),
            eigen=eigen, resolved=True, open_problem=None, certified=certified,
            citations=("Prop 4.4", "Thm 3.11", "Thm 2.2"),
            notes=("kernel dimensions reported per Thm 2.2; the source text "
                   "asserts one-dimensional kernels for every lam, which "
                   "conflicts with its own point spectrum {1}",))
    parts = (ClosedDisk(Fraction(1)), Powers(mu), Powers(2 - mu))
    return ClassificationReport(
        case_id="Prop 4.5", sigma_p=ones,
        sigma=SupersetOf(parts), eigen=eigen, resolved=False,
        open_problem="Prop 4.5 partial", certified=certified,
        citations=("Prop 4.5", "Prop 2.1", "Thm 2.2(c)"),
        notes=("power sets with neutral ratio stay inside the closed disk",))


def _several_fixed_points_leaf(analysis, mu, decided, certified) -> ClassificationReport:
    sigma_p, eigen = decided
    power = analysis.symbol.affine_power_exponent()
    if power is not None:
        return ClassificationReport(
            case_id="Prop 3.12", sigma_p=sigma_p, sigma=AllPlane(), eigen=eigen,
            resolved=True, open_problem=None, certified=certified,
            citations=("Prop 3.12", "Lemma 3.13", "Prop 2.1", "Thm 3.11"),
            notes=(f"affinely equivalent to the power map with exponent {power}",))
    if mu is not None:
        return quadratic_spectrum(mu, certified=certified)
    hyperbolic = all(r.kind in (ATTRACTING, REPELLING) and is_real_exact(r.multiplier)
                     for r in analysis.fixed_points)
    if analysis.is_diffeo.value is True and len(analysis.fixed_points) > 1 and hyperbolic:
        return ClassificationReport(
            case_id="Prop 3.9", sigma_p=sigma_p, sigma=PuncturedPlane(), eigen=eigen,
            resolved=True, open_problem=None, certified=certified,
            citations=("Prop 3.9", "Thm 2.2(c)", "Prop 2.1(1)"), notes=())
    return _fallback_leaf(analysis, decided, certified,
                          note="no classification leaf applies")


def _fallback_leaf(analysis, decided, certified, note) -> ClassificationReport:
    sigma_p, eigen = decided or _constants_only()
    return ClassificationReport(
        case_id="partial lower bound", sigma_p=sigma_p,
        sigma=SupersetOf(spectrum_lower_bound(analysis).parts), eigen=eigen,
        resolved=False, open_problem=None, certified=certified,
        citations=("Prop 2.1", "Thm 2.2"), notes=(note,))


# ---------------------------------------------------------------------------
# Kernel dimensions on invariant intervals


class KernelDimLabel(Record):
    finite: bool
    value: object  # int when finite, tag string when infinite

    @classmethod
    def of_finite(cls, k: int):
        return cls(True, k)

    @classmethod
    def of_infinite(cls, tag: str):
        return cls(False, tag)

    def to_json_dict(self):
        if self.finite:
            return {"kind": "finite", "k": self.value}
        return {"kind": "infinite", "tag": self.value}

    def __str__(self):
        return f"Finite({self.value})" if self.finite else f"Infinite({self.value})"


def kernel_dim(phi: AnalyticSymbol, region: Interval, lam) -> KernelDimLabel:
    """dim ker(C - lam I) on real analytic functions over the invariant
    region, per the fixed-point taxonomy of the restricted symbol."""
    analysis = analyze_symbol(phi.with_domain(region))
    if lam == 0:
        _, kind = _base_multiplier(analysis)
        return KernelDimLabel.of_finite(1 if kind == SUPERATTRACTING else 0)
    dim = point_spectrum(analysis)[1].dimension(lam)
    if isinstance(dim, DimZero):
        return KernelDimLabel.of_finite(0)
    if isinstance(dim, DimFinite):
        return KernelDimLabel.of_finite(dim.k)
    if isinstance(dim, DimWholeSpace):
        return KernelDimLabel.of_infinite("A(J)")
    return KernelDimLabel.of_infinite(dim.tag)


# ---------------------------------------------------------------------------
# Covering obstruction


class CoverPiece(Record):
    """An invariant open piece: one interval or a union of two, with the
    interval that determines kernel elements (reflection/preimage rules
    from the construction, declared, not guessed)."""

    intervals: tuple
    determining: Interval = None
    note: str = ""

    def __post_init__(self):
        if self.determining is None:
            if len(self.intervals) != 1:
                raise ValueError("multi-interval pieces must declare the "
                                 "determining interval")
            object.__setattr__(self, "determining", self.intervals[0])

    def label(self) -> str:
        return " U ".join(str(iv) for iv in self.intervals)


class CoveringObstruction(Record):
    pieces: tuple
    lam: object
    piece_kernels: tuple
    intersection_kernels: tuple  # ((i, j, interval, label), ...)
    verdict: str                 # "NotSurjective" | "Inconclusive"
    invariance_certified: bool

    def to_json_dict(self):
        return {
            "lambda": str(self.lam),
            "pieces": [{"intervals": [str(iv) for iv in p.intervals],
                        "determining": str(p.determining),
                        "note": p.note,
                        "kernel": k.to_json_dict()}
                       for p, k in zip(self.pieces, self.piece_kernels)],
            "intersections": [{"pair": [i, j], "region": str(region),
                               "kernel": label.to_json_dict()}
                              for i, j, region, label in self.intersection_kernels],
            "verdict": self.verdict,
            "invariance_certified": self.invariance_certified,
        }


def covering_obstruction(phi: AnalyticSymbol, lam, pieces) -> CoveringObstruction:
    """Compare kernel dimensions on invariant pieces against pairwise
    intersections; all pieces finite with some infinite intersection rules
    out surjectivity of C - lam I."""
    pieces = tuple(pieces)
    all_intervals = [iv for p in pieces for iv in p.intervals]
    if not union_covers(all_intervals, phi.domain):
        raise HypothesisViolation("pieces do not cover the domain")
    certified = True
    for piece in pieces:
        for component in piece.intervals:
            ok, witness, sure = phi.maps_into(component, list(piece.intervals), 256)
            if not ok:
                raise InvarianceFailure(f"image of {component} leaves the piece",
                                        witness=witness)
            certified &= sure
    piece_kernels = tuple(kernel_dim(phi, p.determining, lam) for p in pieces)
    inter_kernels = []
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            overlap = intersect_unions(list(pieces[i].intervals),
                                       list(pieces[j].intervals))
            if not overlap:
                continue
            det = intersect_unions([pieces[i].determining],
                                   [pieces[j].determining])
            region = det[0] if det else overlap[0]
            inter_kernels.append((i, j, region, kernel_dim(phi, region, lam)))
    all_finite = all(k.finite for k in piece_kernels)
    some_infinite = any(not label.finite for _, _, _, label in inter_kernels)
    verdict = "NotSurjective" if (all_finite and some_infinite) else "Inconclusive"
    return CoveringObstruction(pieces=pieces, lam=lam,
                               piece_kernels=piece_kernels,
                               intersection_kernels=tuple(inter_kernels),
                               verdict=verdict,
                               invariance_certified=certified)
