import importlib.util
import json
import pathlib
import random
import time
from fractions import Fraction as F

import pytest

from compspec.errors import HypothesisViolation, UnresolvedVerdict
from compspec.intervals import NEG_INF, POS_INF, Interval
from compspec.numbers import GaussianRational, parse_gaussian, quadratic
from compspec.record import replace
from compspec.rootwork import analyze_symbol
from compspec.symbols import conjugate, parse_change, parse_symbol
from compspec.taxonomy import (AllPlane, ClassificationReport, ClosedDisk,
                               CoverPiece, DimFinite, DimInfinite, DimWholeSpace,
                               DimZero, EigenDim, FiniteSet, Powers, PuncturedPlane,
                               RealRay, SupersetOf, covering_obstruction,
                               kernel_dim, point_spectrum, quadratic_spectrum,
                               spectrum, spectrum_lower_bound)

# Probe grid for membership coherence: 64 exact values.
PROBES = [GaussianRational(F(a, b), F(c, d))
          for a in (-2, 0, 1, 3) for b in (1, 2)
          for c in (-1, 0, 2, 5) for d in (1, 3)][:64]


class TestPointSpectrum:
    def test_exponential_all_nonzero(self):
        sigma_p, eigen = point_spectrum(analyze_symbol(parse_symbol("exp(1/2*x)")))
        assert sigma_p == PuncturedPlane()
        assert eigen.dimension(F(3)).tag == "A(T)"
        assert eigen.dimension(F(0)).kind == "zero"

    def test_arctan_powers(self):
        sigma_p, eigen = point_spectrum(analyze_symbol(parse_symbol("1/2*arctan(x)")))
        assert sigma_p == Powers(F(1, 2), include_zero=False)
        assert eigen.dimension(F(1, 8)).k == 1
        assert eigen.dimension(F(1, 3)).kind == "zero"

    def test_involution_even_functions(self):
        sigma_p, eigen = point_spectrum(analyze_symbol(parse_symbol("-x")))
        assert sigma_p == FiniteSet((F(-1), F(1)))
        assert eigen.dimension(F(-1)).tag == "A_+(R)"

    def test_critical_set_not_bounded_away_gives_constants_only(self):
        # No analysis decides False yet: a fixed-point-free map whose
        # critical set reaches the end it moves toward has only constants.
        analysis = replace(analyze_symbol(parse_symbol("exp(x)+x^2")),
                           critical_bounded_away=False)
        sigma_p, eigen = point_spectrum(analysis)
        assert sigma_p == FiniteSet((F(1),))
        assert eigen.dimension(F(1)).k == 1
        assert eigen.dimension(F(2)).kind == "zero"
        report = spectrum(analysis)
        assert report.case_id == "Problem 3.2"
        assert (report.sigma_p, report.eigen) == (sigma_p, eigen)
        assert report.notes == ("critical set not bounded away from the relevant end",)

    def test_cubic_constants_only(self):
        sigma_p, eigen = point_spectrum(analyze_symbol(parse_symbol("1/2*x^3+1/2*x")))
        assert sigma_p == FiniteSet((F(1),))
        assert eigen.dimension(F(1)).k == 1


class TestSpectrumLowerBound:
    def test_square_map(self):
        lower = spectrum_lower_bound(analyze_symbol(parse_symbol("x^2")))
        assert lower.contains(F(0))
        assert lower.contains(F(1))
        assert lower.contains(F(8))       # 2^3
        assert not lower.contains(F(3))

    def test_wide_quadratic(self):
        lower = spectrum_lower_bound(analyze_symbol(parse_symbol("-x^2+4*x")))
        for probe in (F(0), F(1), F(16), F(-8), F(4)):
            assert lower.contains(probe)
        assert not lower.contains(F(3))

    def test_identity(self):
        lower = spectrum_lower_bound(analyze_symbol(parse_symbol("x")))
        assert lower.contains(F(1))
        assert not lower.contains(F(0))


CATALOG = [
    ("exp(1/2*x)", "Cor 3.1(b)", AllPlane(), PuncturedPlane(), True),
    ("x+1", "Cor 3.1(a)", PuncturedPlane(), PuncturedPlane(), True),
    ("x^2+x+1", "Cor 3.1(b)", AllPlane(), PuncturedPlane(), True),
    ("1/2*arctan(x)", "Cor 3.6", Powers(F(1, 2), include_zero=True),
     Powers(F(1, 2), include_zero=False), True),
    ("-x", "Thm 2.2(b2)", FiniteSet((F(-1), F(1))), FiniteSet((F(-1), F(1))), True),
    ("x", "Thm 2.2(b3)", FiniteSet((F(1),)), FiniteSet((F(1),)), True),
    ("1/2*x^3+1/2*x", "Prop 3.9", PuncturedPlane(), FiniteSet((F(1),)), True),
    ("x^2", "Prop 3.12", AllPlane(), FiniteSet((F(1),)), True),
    ("x^3", "Prop 3.12", AllPlane(), FiniteSet((F(1),)), True),
    ("-x^2+x", "Prop 4.1",
     SupersetOf((FiniteSet((F(0),)), RealRay(F(1), True))),
     FiniteSet((F(1),)), False),
    ("-x^2+1.5*x", "Prop 4.4", AllPlane(), FiniteSet((F(1),)), True),
    # mu = 2 sits in the same band, but the map is affinely conjugate to the
    # square map, so the power leaf fires first; the sets agree either way.
    ("-x^2+2*x", "Prop 3.12", AllPlane(), FiniteSet((F(1),)), True),
    ("-x^2+4*x", "Prop 4.5",
     SupersetOf((ClosedDisk(F(1)), Powers(F(4)), Powers(F(-2)))),
     FiniteSet((F(1),)), False),
    # Fixed-point-free with critical points, decided by the tail scan: one
    # critical point, resp. the zeros +-2pi/3 + 2k*pi of 1+2cos(x).
    ("exp(x)+x^2", "Cor 3.1(b)", AllPlane(), PuncturedPlane(), True),
    ("x+3+2*sin(x)", "Problem 3.2", SupersetOf((FiniteSet((F(0), F(1))),)),
     SupersetOf((FiniteSet((F(1),)),)), False),
]


class TestSpectrumCatalog:
    @pytest.mark.parametrize("text,case,sigma,sigma_p,resolved", CATALOG)
    def test_catalog_entry(self, text, case, sigma, sigma_p, resolved):
        report = spectrum(parse_symbol(text))
        assert report.case_id == case
        assert report.sigma == sigma
        assert report.sigma_p == sigma_p
        assert report.resolved is resolved
        assert (report.open_problem is not None) == (not resolved)

    @pytest.mark.parametrize("text,case,sigma,sigma_p,resolved", CATALOG)
    def test_membership_coherence(self, text, case, sigma, sigma_p, resolved):
        report = spectrum(parse_symbol(text))
        for lam in PROBES:
            if report.sigma_p.contains(lam):
                assert report.sigma.contains(lam), f"{text}: {lam}"

    @pytest.mark.parametrize("text,case,sigma,sigma_p,resolved", CATALOG)
    def test_zero_membership_iff_not_diffeo(self, text, case, sigma, sigma_p,
                                            resolved):
        analysis = analyze_symbol(parse_symbol(text))
        report = spectrum(analysis)
        if analysis.is_diffeo.value is True:
            assert not report.sigma.contains(F(0))
        elif analysis.is_diffeo.value is False:
            assert report.sigma.contains(F(0))

    @pytest.mark.parametrize("text,case,sigma,sigma_p,resolved", CATALOG)
    def test_json_round_trip(self, text, case, sigma, sigma_p, resolved):
        report = spectrum(parse_symbol(text))
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert ClassificationReport.from_json_dict(doc) == report

    def test_totality_on_odd_inputs(self):
        # Neutral multipliers and scan-based analyses still yield reports.
        for text in ("sin(x)", "x - x^3", "x^2 - 1", "-x^2+3*x", "exp(x)-1"):
            report = spectrum(parse_symbol(text))
            assert isinstance(report, ClassificationReport)

    def test_large_prime_coefficient(self):
        # The second iterate's constant-term divisors would take ~10^10
        # trial divisions; bounded, the rational-root search falls back to
        # small candidates and bisection finds the rest.
        report = spectrum(parse_symbol("1/100003*x^3+1/2*x"))
        assert report.case_id == "Prop 3.9"
        assert report.sigma == PuncturedPlane()
        assert report.sigma_p == FiniteSet((F(1),))

    def test_unresolved_reports_use_superset(self):
        report = spectrum(parse_symbol("x - x^3"))
        if not report.resolved:
            assert isinstance(report.sigma, SupersetOf)

    def test_resolved_iff_sigma_not_superset(self):
        symbols = [text for text, *_ in CATALOG]
        symbols += ["sin(x)", "x - x^3", "x^2 - 1", "-x^2+3*x"]
        for text in symbols:
            report = spectrum(parse_symbol(text))
            assert report.resolved == (not isinstance(report.sigma, SupersetOf))


class TestQuadraticSpectrum:
    def test_parabolic_partial(self):
        report = quadratic_spectrum(F(1))
        assert report.open_problem == "Prop 4.1 partial"
        assert report.sigma.contains(F(0))
        assert report.sigma.contains(F(5))
        assert not report.sigma.contains(F(1, 2))

    def test_band_full_plane(self):
        assert quadratic_spectrum(F(3, 2)).sigma == AllPlane()
        assert quadratic_spectrum(F(2)).sigma == AllPlane()

    def test_wide_partial(self):
        report = quadratic_spectrum(F(4))
        assert report.open_problem == "Prop 4.5 partial"
        disk_point = GaussianRational(F(1, 2), F(1, 2))
        assert report.sigma.contains(disk_point)
        assert report.sigma.contains(F(16))
        assert report.sigma.contains(F(4))
        assert not report.sigma.contains(F(3))

    def test_neutral_companion_ratio_at_three(self):
        report = quadratic_spectrum(F(3))
        assert report.sigma.contains(F(-1))   # (2 - mu)^1
        assert report.sigma.contains(F(9))

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            quadratic_spectrum(F(1, 2))

    def test_irrational_parameter_path(self):
        # x^2 - 1 has fixed points (1 +- sqrt5)/2 and normal-form parameter
        # 1 + sqrt5 > 2: the wide-quadratic partial leaf, kept exact.
        from compspec.numbers import quadratic
        report = spectrum(parse_symbol("x^2-1"))
        assert report.case_id == "Prop 4.5"
        golden = quadratic(1, 1, 5)
        assert report.sigma.contains(golden)            # mu^1
        assert report.sigma.contains(golden * golden)   # mu^2
        assert report.sigma.contains(F(1, 2))           # inside the disk
        assert not report.sigma.contains(F(3))
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert ClassificationReport.from_json_dict(doc) == report


class TestConjugationInvariance:
    AFFINE_PAIRS = [
        ("-x^2+4*x", "2*x+1"),
        ("-x^2+1.5*x", "-x+3"),
        ("x^2", "1/2*x"),
        ("1/2*x^3+1/2*x", "3*x-2"),
        ("1/2*arctan(x)", "2*x"),
    ]

    @pytest.mark.parametrize("phi_text,delta_text", AFFINE_PAIRS)
    def test_affine_pairs_reports_identical(self, phi_text, delta_text):
        phi = parse_symbol(phi_text)
        delta = parse_change(delta_text)
        psi = conjugate(phi, delta)
        assert spectrum(psi).to_json_dict() == spectrum(phi).to_json_dict()

    @pytest.mark.parametrize("s", [2, 3])
    def test_transcendental_pairs_match_up_to_certification(self, s):
        phi = parse_symbol(f"x^{s}")
        delta = parse_change("exp(x) - exp(-x)")
        psi = conjugate(phi, delta)
        base = spectrum(phi).to_json_dict()
        moved = spectrum(psi).to_json_dict()
        assert moved["certified"] is False
        for key in ("case", "sigma", "sigma_p", "eigen", "resolved",
                    "open_problem"):
            assert moved[key] == base[key]

    def test_inverse_symbol_duality(self):
        # The spectra of a diffeomorphism and its inverse are reciprocal
        # sets, checked on the probe grid.
        pairs = [("1/2*x", "2*x"), ("x+1", "x-1"), ("-x", "-x")]
        contraction = spectrum(parse_symbol("1/2*x"))
        assert contraction.sigma == Powers(F(1, 2))
        for forward_text, inverse_text in pairs:
            forward = spectrum(parse_symbol(forward_text))
            backward = spectrum(parse_symbol(inverse_text))
            for lam in PROBES:
                if lam == 0:
                    continue
                inv = GaussianRational(1, 0) / lam
                assert forward.sigma.contains(lam) == \
                    backward.sigma.contains(inv), (forward_text, lam)


class TestRestrictedConjugate:
    """A conjugated symbol is analysed through its inner symbol on the whole
    domain, so a restriction to a smaller interval is refused."""

    psi = conjugate(parse_symbol("1/2*x^3+1/2*x"), parse_change("exp(x) - exp(-x)"))
    small = Interval(F(-1, 5), F(1, 5))

    def test_kernel_dim_refuses(self):
        with pytest.raises(HypothesisViolation):
            kernel_dim(self.psi, self.small, F(1, 4))

    def test_with_domain_refuses(self):
        with pytest.raises(HypothesisViolation):
            spectrum(self.psi.with_domain(self.small))

    def test_whole_domain_still_allowed(self):
        assert self.psi.with_domain(self.psi.domain).domain == self.psi.domain


class TestKernelDim:
    def test_arctan_power(self):
        label = kernel_dim(parse_symbol("1/2*arctan(x)"), Interval.real_line(),
                           F(1, 8))
        assert label.finite and label.value == 1

    def test_arctan_off_spectrum(self):
        label = kernel_dim(parse_symbol("1/2*arctan(x)"), Interval.real_line(),
                           F(1, 3))
        assert label.finite and label.value == 0

    def test_quadratic_band_interior_interval(self):
        phi = parse_symbol("-x^2+1.5*x")
        label = kernel_dim(phi, Interval(F(0), F(1, 2)), F(7))
        assert not label.finite and label.value == "A(T)"

    def test_involution_even_space(self):
        label = kernel_dim(parse_symbol("-x"), Interval.real_line(), F(1))
        assert not label.finite and label.value == "A_+(R)"

    def test_lambda_zero_conventions(self):
        # Superattracting unique fixed point: dimension one; otherwise zero.
        assert kernel_dim(parse_symbol("x^2"), Interval(-1, 1), F(0)).value == 1
        assert kernel_dim(parse_symbol("1/2*x"), Interval.real_line(),
                          F(0)).value == 0

    def test_invariance_required(self):
        from compspec.errors import InvarianceFailure
        with pytest.raises(InvarianceFailure):
            kernel_dim(parse_symbol("-x^2+4*x"), Interval(0, 1), F(2))


class TestCoveringObstruction:
    X3_PIECES = [CoverPiece((Interval(NEG_INF, F(0)),)),
                 CoverPiece((Interval(F(-1), F(1)),)),
                 CoverPiece((Interval(F(0), POS_INF),))]

    @pytest.mark.parametrize("lam", [F(2), F(-1), F(1, 2), GaussianRational(0, 1)])
    def test_cubic_power_not_surjective(self, lam):
        obstruction = covering_obstruction(parse_symbol("x^3"), lam,
                                           self.X3_PIECES)
        assert obstruction.verdict == "NotSurjective"
        assert all(k.finite for k in obstruction.piece_kernels)
        assert any(not k.finite for _, _, _, k in
                   obstruction.intersection_kernels)
        assert obstruction.invariance_certified

    @pytest.mark.parametrize("mu_text,mu", [("-x^2+1.5*x", F(3, 2)),
                                            ("-x^2+2*x", F(2))])
    @pytest.mark.parametrize("lam", [F(2), F(-1)])
    def test_band_quadratics_not_surjective(self, mu_text, mu, lam):
        phi = parse_symbol(mu_text)
        pieces = [CoverPiece((Interval(NEG_INF, mu - 1), Interval(F(1), POS_INF)),
                             determining=Interval(NEG_INF, mu - 1),
                             note="values on (1, inf) mirror the left branch"),
                  CoverPiece((Interval(F(0), mu),))]
        obstruction = covering_obstruction(phi, lam, pieces)
        assert obstruction.verdict == "NotSurjective"

    def test_single_piece_inconclusive(self):
        obstruction = covering_obstruction(
            parse_symbol("1/2*arctan(x)"), F(2),
            [CoverPiece((Interval.real_line(),))])
        assert obstruction.verdict == "Inconclusive"

    def test_coverage_enforced(self):
        with pytest.raises(HypothesisViolation):
            covering_obstruction(parse_symbol("x^3"), F(2),
                                 [CoverPiece((Interval(NEG_INF, F(0)),)),
                                  CoverPiece((Interval(F(0), POS_INF),))])

    def test_even_power_reduction_pieces(self):
        # Even exponent: the punctured line with the determining positive
        # half, against the unit interval.
        phi = parse_symbol("x^2")
        pieces = [CoverPiece((Interval(NEG_INF, F(0)), Interval(F(0), POS_INF)),
                             determining=Interval(F(0), POS_INF),
                             note="negative values determined by x -> x^2"),
                  CoverPiece((Interval(F(-1), F(1)),))]
        obstruction = covering_obstruction(phi, F(3), pieces)
        assert obstruction.verdict == "NotSurjective"


class TestPowersMembership:
    def test_exponent_past_4096(self):
        arctan = parse_symbol("1/2*arctan(x)")
        for n in (4096, 4097):
            label = kernel_dim(arctan, Interval.real_line(), F(1, 2) ** n)
            assert label.finite and label.value == 1

    def test_ratio_near_one(self):
        r = F(10001, 10000)
        start = time.perf_counter()
        assert Powers(r).contains(r ** 5000)
        assert not Powers(r).contains(r ** 5000 + F(1, 10 ** 9))
        assert time.perf_counter() - start < 1

    def test_golden_ratio_powers(self):
        golden = quadratic(F(1, 2), F(1, 2), 5)
        assert Powers(golden).contains(golden ** 200)
        assert not Powers(golden).contains(golden ** 200 + 1)
        assert Powers(golden - 1).contains((golden - 1) ** 60)
        assert Powers(-golden).contains((-golden) ** 7)
        assert not Powers(-golden).contains(golden ** 7)

    def test_candidate_longer_than_lambda_rejected(self):
        # log 2 / log(1 + 2^-200) is about 2^199.5: far more digits than 2.
        assert not Powers(1 + F(1, 2 ** 200)).contains(F(2))
        # Norm 1 and modulus within 2^-28 of 1: the norm does not grow, the
        # denominators of the powers do.
        t = F(1, 2 ** 30)
        near_one = quadratic((1 + 2 * t * t) / (1 - 2 * t * t), 2 * t / (1 - 2 * t * t), 2)
        assert near_one.norm() == 1
        assert not Powers(near_one).contains(F(2))
        assert Powers(near_one).contains(near_one ** 5)

    def test_signs_and_closure_point(self):
        assert Powers(F(-2)).contains(F(-8))
        assert not Powers(F(-2)).contains(F(8))
        assert not Powers(F(2)).contains(F(1, 2))
        assert Powers(F(2), include_zero=True).contains(F(0))
        assert not Powers(F(2)).contains(F(0))
        assert not Powers(F(2)).contains(GaussianRational(8, 1))


ELEMENTARY = ["sin(x)", "exp(1/2*x)", "1/2*arctan(x)", "1/2*sin(x)",
              "x+1+exp(x)-exp(1/2*x)", "1/2*x+1/8*sin(x)", "exp(x)-1",
              "1/2*x + 1/2 + 1/8*sin(x) - 1/8*sin(1)"]


def _benchmark_inputs():
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _seeded_polynomials(count):
    inputs = _benchmark_inputs()
    rng = random.Random(12345)
    return [inputs.poly_text(inputs.random_poly(rng, rng.randint(2, 5)))
            for _ in range(count)]


class TestOneDecision:
    def test_fixed_point_free_with_undecided_diffeomorphism(self):
        # No fixed points and no critical points, but the endpoint limits
        # leave the diffeomorphism verdict open: only 0 is undecided.
        analysis = analyze_symbol(parse_symbol("x+1+exp(x)-exp(1/2*x)"))
        assert analysis.is_diffeo.value is None
        assert analysis.critical_points == []
        report = spectrum(analysis)
        assert report.case_id == "Cor 3.1"
        assert (report.sigma_p, report.eigen) == point_spectrum(analysis)
        assert report.sigma_p == PuncturedPlane()
        assert report.sigma == SupersetOf((PuncturedPlane(),))
        assert report.resolved is False
        assert "undecided" in report.notes[0]

    def test_leaves_report_point_spectrum(self):
        texts = [text for text, *_ in CATALOG] + _seeded_polynomials(40) + ELEMENTARY
        for text in texts:
            analysis = analyze_symbol(parse_symbol(text))
            report = spectrum(analysis)
            try:
                decided = point_spectrum(analysis)
            except UnresolvedVerdict:
                continue
            assert (report.sigma_p, report.eigen) == decided, text


class TestEigenDim:
    """EigenDim(members, dim): dim on the point spectrum, zero elsewhere."""

    def test_members_are_the_point_spectrum(self):
        data = pathlib.Path(__file__).parent / "data" / "scan_facts.json"
        reference = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
        texts = ([text for text, *_ in CATALOG] + _seeded_polynomials(300)
                 + list(json.loads(reference.read_text())["classify"]))
        symbols = [parse_symbol(text) for text in texts] + [
            parse_symbol(e["symbol"], e["domain"], require_self_map=e["self_map"])
            for e in json.loads(data.read_text())]
        undecided_tail = 0
        for phi in symbols:
            report = spectrum(phi)
            if report.notes == ("critical-set tail behaviour undecided",):
                # Problem 3.2 with sigma_p only bounded below by {1}.
                undecided_tail += 1
                assert report.sigma_p == SupersetOf((FiniteSet((F(1),)),))
                assert report.eigen.members is report.sigma_p.parts[0]
            else:
                assert report.eigen.members is report.sigma_p, phi
        assert undecided_tail >= 2

    def test_dimension_is_dim_on_the_members_only(self):
        eigen = EigenDim(Powers(F(1, 2)), DimFinite(1))
        assert [eigen.dimension(lam) for lam in (F(1), F(1, 8), F(2), F(0))] == \
            [DimFinite(1), DimFinite(1), DimZero(), DimZero()]

    @pytest.mark.parametrize("members, dim, when", [
        (FiniteSet((F(1),)), DimWholeSpace(), "equals"),
        (FiniteSet((F(-1), F(1))), DimInfinite("A_+(R)"), "in_set"),
        (Powers(quadratic(1, -1, 2)), DimFinite(1), "power_of"),
        (PuncturedPlane(), DimInfinite("A(T)"), "nonzero"),
    ])
    def test_json_round_trip(self, members, dim, when):
        eigen = EigenDim(members, dim)
        docs = json.loads(json.dumps(eigen.to_json_list()))
        assert [d["when"] for d in docs] == [when, "otherwise"]
        assert docs[1] == {"when": "otherwise", "dim": {"kind": "zero"}}
        assert EigenDim.from_json_list(docs) == eigen

    @pytest.mark.parametrize("docs", [
        [{"when": "nonzero", "dim": {"kind": "infinite", "tag": "A(T)"}},
         {"when": "equals", "value": "0", "dim": {"kind": "finite", "k": 1}},
         {"when": "otherwise", "dim": {"kind": "zero"}}],
        [{"when": "equals", "value": "1", "dim": {"kind": "finite", "k": 1}},
         {"when": "otherwise", "dim": {"kind": "finite", "k": 1}}],
        [{"when": "equals", "value": "1", "dim": {"kind": "finite", "k": 1}},
         {"when": "nonzero", "dim": {"kind": "zero"}}],
        [{"when": "between", "value": "1", "dim": {"kind": "finite", "k": 1}},
         {"when": "otherwise", "dim": {"kind": "zero"}}],
        [{"when": "equals", "value": "1", "dim": {"kind": "half"}},
         {"when": "otherwise", "dim": {"kind": "zero"}}],
    ], ids=["three rules", "otherwise nonzero", "last not otherwise", "unknown when",
            "unknown dim"])
    def test_rejects_lists_it_never_writes(self, docs):
        with pytest.raises(ValueError):
            EigenDim.from_json_list(docs)


class TestReferenceReports:
    """The recorded benchmark reports, read only."""

    @pytest.fixture(scope="class")
    def reference(self):
        path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
        return json.loads(path.read_text())

    def test_classify_entries(self, reference):
        for text, recorded in reference["classify"].items():
            report = spectrum(parse_symbol(text))
            assert json.dumps(report.to_json_dict(), sort_keys=True) == recorded, text

    def test_obstruct_entries(self, reference):
        for op_id, text, lam, pieces in _benchmark_inputs().OBSTRUCTIONS:
            value = parse_gaussian(lam)
            cover = [CoverPiece(tuple(Interval.parse(t) for t in intervals),
                                determining=Interval.parse(det) if det else None)
                     for intervals, det in pieces]
            result = covering_obstruction(parse_symbol(text),
                                          value.re if value.im == 0 else value, cover)
            assert json.dumps(result.to_json_dict(), sort_keys=True) == \
                reference["obstruct"][op_id], op_id


def test_kernel_of_the_identity_is_the_whole_space():
    # C f = f o x is the identity operator: ker(C - I) is all of A(J), and
    # C - lam I = (1 - lam) I is injective for lam != 1.
    identity = parse_symbol("x")
    for region in (Interval(-1, 1), Interval.real_line()):
        label = kernel_dim(identity, region, 1)
        assert label.to_json_dict() == {"kind": "infinite", "tag": "A(J)"}
        assert kernel_dim(identity, region, 2).to_json_dict() == {"kind": "finite", "k": 0}
