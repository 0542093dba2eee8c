import ast
import pathlib
import random
import sys
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compspec import polynomials as polylib
from compspec import sturm
from compspec.intervals import NEG_INF, POS_INF, Interval
from compspec.numbers import QuadraticNumber, quadratic


def _random_factor(rng):
    """A random rational factor of degree 1-3 with small coefficients."""
    degree = rng.choice((1, 1, 2, 3))
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree)]
    return coeffs + [F(rng.choice((-2, -1, 1, 2)))]


def _random_product(rng):
    p = [F(rng.randint(1, 5), rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        p = polylib.mul(p, polylib.power(_random_factor(rng), rng.randint(1, 3)))
    return p


def _meets(root, a, b) -> bool:
    """Whether an isolated root (exact or enclosure) meets [a, b]."""
    if isinstance(root, sturm.Enclosure):
        return root.lo <= b and a <= root.hi
    return a <= root <= b


def _assert_matches_sympy(coeffs):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expected = sympy.Poly(list(reversed(coeffs)), x, domain="QQ").intervals()
    roots = sturm.isolate_roots(coeffs, Interval.real_line())
    assert [m for _, m in roots] == [m for _, m in expected]
    for (root, _), ((a, b), _) in zip(roots, expected):
        assert _meets(root, F(int(a.p), int(a.q)), F(int(b.p), int(b.q)))


class TestIsolationOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_sympy_on_products_of_powers(self, seed):
        rng = random.Random(seed)
        for _ in range(5):
            _assert_matches_sympy(_random_product(rng))

    def test_enclosure_next_to_a_deflated_double_root(self):
        # -x^2 (125/2 x^3 + 150 x + 75): the cubic's real root lies near
        # -0.47, left of the double root 0.
        _assert_matches_sympy([F(0), F(0), F(-75), F(-150), F(0), F(-125, 2)])


class TestMultiplicity:
    def test_enclosure_root(self):
        # x (x^3 - 2)^2: a simple rational root and a double root 2^(1/3).
        p = polylib.mul([F(0), F(1)], polylib.power([F(-2), F(0), F(0), F(1)], 2))
        (zero, m0), (cube_root, m1) = sturm.isolate_roots(p, Interval.real_line())
        assert (zero, m0) == (F(0), 1)
        assert isinstance(cube_root, sturm.Enclosure) and m1 == 2
        assert 0 < cube_root.lo and cube_root.lo ** 3 < 2 < cube_root.hi ** 3

    def test_quadratic_irrational_roots(self):
        # (x^2 - 2)^2: both roots +-sqrt(2) are double.
        p = polylib.power([F(-2), F(0), F(1)], 2)
        roots = sturm.isolate_roots(p, Interval.real_line())
        assert roots == [(quadratic(0, -1, 2), 2), (quadratic(0, 1, 2), 2)]
        assert all(isinstance(r, QuadraticNumber) for r, _ in roots)

    def test_enclosures_exclude_rational_roots(self):
        # -x^2 (x^3 + 2x + 1): the first enclosure from bisection is (-4, 4),
        # which contains the double root 0.
        p = [F(0), F(0), F(-1), F(-2), F(0), F(-1)]
        roots = sturm.isolate_roots(p, Interval.real_line())
        assert [m for _, m in roots] == [1, 2]
        enc = roots[0][0]
        assert isinstance(enc, sturm.Enclosure) and enc.hi < 0
        assert enc.has_sign_change()


class TestDivRem:
    def test_by_a_constant(self):
        assert polylib.div_rem([F(1), F(2)], [F(2)]) == ([F(1, 2), F(1)], [F(0)])

    def test_lower_degree_dividend(self):
        assert polylib.div_rem([F(3), F(1)], [F(1), F(0), F(1)]) == ([F(0)], [F(3), F(1)])

    def test_division_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            p = _random_product(rng)
            q = _random_factor(rng)
            quotient, rem = polylib.div_rem(p, q)
            assert polylib.add(polylib.mul(quotient, q), rem) == p
            assert polylib.is_zero(rem) or polylib.degree(rem) < polylib.degree(q)


class TestRationalRoots:
    def test_trial_division_is_bounded(self):
        # A prime constant term near 10^12 would need 10^6 trial divisions.
        assert sturm._divisors(10 ** 12 + 39) is None
        assert sturm._divisors(12) == {1, 2, 3, 4, 6, 12}

    def test_large_constant_term_falls_back_to_small_candidates(self):
        # (x - 1/2)(x - (10^12 + 39)): the small root is still found.
        p = polylib.mul([F(-1, 2), F(1)], [F(-(10 ** 12 + 39)), F(1)])
        assert F(1, 2) in sturm.rational_roots(p)


class TestIsolationOrder:
    def test_enclosures_with_equal_approximations_come_out_ascending(self):
        # (x^3 - 2)(x^3 - 2 - 2^-200 x): two real roots about 2^-202 apart,
        # so any rounded key of fewer than ~200 bits ties them.
        p = polylib.mul([F(-2), F(0), F(0), F(1)], [F(-2), -F(1, 2 ** 200), F(0), F(1)])
        (left, _), (right, _) = sturm.isolate_roots(p, Interval.real_line())
        assert isinstance(left, sturm.Enclosure) and isinstance(right, sturm.Enclosure)
        assert left.hi <= right.lo

    def test_quadratic_and_rational_roots_interleave_exactly(self):
        # (x - 7/5)(x^2 - 2): -sqrt(2) < 7/5 < sqrt(2).
        p = polylib.mul([F(-7, 5), F(1)], [F(-2), F(0), F(1)])
        roots = [r for r, _ in sturm.isolate_roots(p, Interval.real_line())]
        assert roots == [quadratic(0, -1, 2), F(7, 5), quadratic(0, 1, 2)]


# ---------------------------------------------------------------------------
# The integer kernel against the rational remainder sequence it replaces


def _content_free(p):
    den = lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    g = gcd(*ints)
    return [F(c // g) if g > 1 else F(c) for c in ints]


def _reference_sturm_chain(p):
    p = _content_free(polylib.normalize(p))
    chain = [p, _content_free(polylib.derivative(p))]
    while polylib.degree(chain[-1]) > 0:
        _, r = polylib.div_rem(chain[-2], chain[-1])
        if polylib.is_zero(r):
            break
        chain.append(_content_free(polylib.neg(r)))
    return chain


def _reference_gcd(p, q):
    a, b = polylib.normalize(p), polylib.normalize(q)
    if polylib.is_zero(a):
        return b
    a, b = _content_free(a), _content_free(b)
    while not polylib.is_zero(b) and polylib.degree(b) > 0:
        a, b = b, _content_free(polylib.div_rem(a, b)[1])
    if not polylib.is_zero(b):
        return [F(1)]
    return polylib.scale(a, F(1) / a[-1])


def _reference_sign_at(p, x):
    if x is POS_INF or x is NEG_INF:
        return sturm.eval_sign_at_infinity(p, x is POS_INF)
    v = polylib.eval_at(p, x)
    return -1 if v < 0 else (0 if v == 0 else 1)


def _reference_variations(chain, x):
    signs = [s for s in (_reference_sign_at(q, x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


_SMALL = st.fractions(min_value=-12, max_value=12, max_denominator=12)
_WIDE = st.builds(F, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200))
_RADICANDS = st.sampled_from([2, 3, 5, 6, 7, 10])


@st.composite
def _factor(draw):
    """(factor, its exact real roots) for one kind of factor."""
    kind = draw(st.sampled_from(["rational", "quadratic", "binomial", "wide", "small"]))
    if kind == "binomial":
        # c + lead x^n: its remainders skip degrees, so a pseudo-division
        # step count is odd and a negative lead would flip a chain sign.
        n, c = draw(st.integers(2, 5)), draw(_SMALL)
        return [c] + [F(0)] * (n - 1) + [F(draw(st.sampled_from([-3, -1, 1, 2])))], []
    if kind == "rational":
        r = draw(_SMALL)
        return [-r, F(1)], [r]
    if kind == "quadratic":
        # (x - c)^2 - d has the roots c -+ sqrt(d).
        c, d = draw(_SMALL), draw(_RADICANDS)
        return [c * c - d, -2 * c, F(1)], [quadratic(c, -1, d), quadratic(c, 1, d)]
    coeff = _WIDE if kind == "wide" else _SMALL
    coeffs = draw(st.lists(coeff, min_size=2, max_size=4))
    return polylib.normalize(coeffs[:-1] + [coeffs[-1] or F(1)]), []


@st.composite
def _polynomial(draw):
    """(p, exact roots of p): repeated factors of each kind times a
    rational constant, up to 200-bit coefficients."""
    p, roots = [draw(st.one_of(_SMALL, _WIDE).filter(bool))], []
    for _ in range(draw(st.integers(1, 4))):
        f, f_roots = draw(_factor())
        p = polylib.mul(p, polylib.power(f, draw(st.integers(1, 3))))
        roots += f_roots
    return p, roots


_POINTS = st.one_of(
    st.integers(-40, 40),
    _SMALL,
    st.builds(F, st.integers(-2 ** 300, 2 ** 300), st.integers(2 ** 256, 2 ** 300)),
    st.sampled_from([POS_INF, NEG_INF]),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_polynomial(), _polynomial(), st.lists(_POINTS, max_size=6))
def test_integer_kernel_matches_rational_remainders(pr, qr, points):
    (p, roots), (q, _) = pr, qr
    chain, ref = sturm.sturm_chain(p), _reference_sturm_chain(p)
    assert chain == ref
    assert all(type(c) is int for member in chain for c in member)
    for other in (polylib.derivative(p), q, polylib.mul(p, q)):
        g = sturm.primitive_gcd(p, other)
        assert all(type(c) is int for c in g)
        assert gcd(*g) == 1 and g[-1] > 0
        assert _monic(g) == _reference_gcd(p, other)
    for x in points + roots:
        assert [sturm.sign_at(a, x) for a in chain] == [_reference_sign_at(b, x) for b in ref]
        assert sturm.sign_variations(chain, x) == _reference_variations(ref, x)


def _monic(g):
    return [F(c, g[-1]) for c in g]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_polynomial())
def test_squarefree_decomposition_runs_on_integers(pr):
    w = pr[0]
    sf, gcds = sturm.squarefree_decomposition(w)
    assert all(type(c) is int for member in [sf] + gcds for c in member)
    # The Fraction chain gcd(w, w'), gcd(g1, g1'), ... down to a constant.
    ref, g = [], w
    while polylib.degree(g) >= 2:
        g = _reference_gcd(g, polylib.derivative(g))
        if polylib.degree(g) == 0:
            break
        ref.append(g)
    assert [_monic(g) for g in gcds] == ref
    product, target = polylib.mul(sf, gcds[0]) if gcds else sf, sturm.primitive(w)
    k = F(product[-1]) / target[-1]
    assert k > 0 and product == [k * c for c in target]


def test_cauchy_bound_is_exact_on_integers():
    bound = sturm.cauchy_bound([1, 0, 3])
    assert bound == F(4, 3) and type(bound) is F
    assert sturm.cauchy_bound([F(1, 3), F(0), F(1)]) == F(4, 3)


# The polynomials names sturm may use, with the functions (``Class.method``
# for a method) allowed to use each (None: any).  Everything else in sturm
# runs on integers.
_STURM_POLYNOMIALS_NAMES = {
    "DEGREE_CAP": None,
    # The integer form P/D, taken once where a rational polynomial enters.
    "integer_form": ("primitive", "IntegerFacts.__init__"),
    "homogeneous_horner": ("sign_at",),    # d^k p(n/d) at a rational point
    "eval_at": ("sign_at",),               # at a quadratic-irrational point
    "normalize": ("solve_quadratic_exact",),
    "degree": ("solve_quadratic_exact",),
}


def _attributes_of(node, aliases, owner=None):
    """(enclosing function or method, as ``Class.method``, attribute) for
    every ``alias.attribute``."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                and child.value.id in aliases):
            yield owner, child.attr
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = child.name if owner is None else f"{owner}.{child.name}"
        yield from _attributes_of(child, aliases, inner)


def test_sturm_uses_polynomials_only_at_its_boundary():
    tree = ast.parse(pathlib.Path(sturm.__file__).read_text())
    aliases, offences = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.endswith("polynomials"):
                offences += [f"imports {a.name}" for a in node.names]
            aliases |= {a.asname or a.name for a in node.names if a.name == "polynomials"}
    for owner, name in _attributes_of(tree, aliases):
        if name not in _STURM_POLYNOMIALS_NAMES or \
                owner not in (_STURM_POLYNOMIALS_NAMES[name] or (owner,)):
            offences.append(f"{owner}: {name}")
    assert offences == []


def test_spectrum_takes_one_integer_form(monkeypatch):
    # The rational coefficients become integers once, in IntegerFacts;
    # every later primitive() is of an integer polynomial.
    from compspec.symbols import parse_symbol
    from compspec.taxonomy import spectrum
    callers, integer_form = [], polylib.integer_form

    def recording(p):
        callers.append(sys._getframe(1).f_code)
        return integer_form(p)

    monkeypatch.setattr(polylib, "integer_form", recording)
    for text in ("1/2*x^5-3/2*x^3+1/3*x", "-x^2+1/2*x+3/4", "x^3-2*x+1/7"):
        callers.clear()
        spectrum(parse_symbol(text))
        assert callers == [sturm.IntegerFacts.__init__.__code__], text


def _second_iterate_fixed_points():
    # p(p(x)) - x for p = -2+x-x^2+x^3+x^6-x^7, of degree 49.
    p = [F(-2), F(1), F(-1), F(1), F(0), F(0), F(1), F(-1)]
    return polylib.sub(polylib.compose(p, p), [F(0), F(1)])


def _described(roots):
    return [(str(r.lo), str(r.hi), m) if isinstance(r, sturm.Enclosure) else (str(r), m)
            for r, m in roots]


_X = [F(0), F(1)]

_ISOLATED = [
    (_second_iterate_fixed_points(), Interval.real_line(),
     [("-647405/524288", "-1286615/1048576", 1), ("-1286615/1048576", "-319605/262144", 1),
      ("-155705/131072", "-73755/65536", 1), ("0", "8195/8192", 1),
      ("8195/8192", "8195/4096", 1)]),
    (polylib.mul(_X, polylib.power([F(-2), F(0), F(0), F(1)], 2)), Interval.real_line(),
     [("0", 1), ("1", "2", 2)]),
    (polylib.mul(polylib.power([F(-2), F(0), F(1)], 2), polylib.power([F(-1, 3), F(1)], 3)),
     Interval.real_line(), [("-sqrt(2)", 2), ("1/3", 3), ("sqrt(2)", 2)]),
    ([F(0), F(0), F(-1), F(-2), F(0), F(-1)], Interval.real_line(),
     [("-1/2", "-1/4", 1), ("0", 2)]),
    ([F(1, 7), F(4), F(0), F(-5), F(0), F(1)], Interval(F(-1), F(3)),
     [("-1", "-1/2", 1), ("-1/2", "0", 1), ("1", "3/2", 1), ("3/2", "2", 1)]),
]


@pytest.mark.parametrize("p, interval, expected", _ISOLATED)
def test_isolation_is_unchanged_on_fixed_examples(p, interval, expected):
    # Expected: the output of the rational-remainder kernel.
    assert _described(sturm.isolate_roots(p, interval)) == expected


def test_sign_at_a_quadratic_point():
    # (x^2 - 2)(x - 1) at 1 + sqrt(2), -1 - sqrt(2) and sqrt(2).
    p = [2, -2, -1, 1]
    assert sturm.sign_at(p, quadratic(1, 1, 2)) == 1
    assert sturm.sign_at(p, quadratic(-1, -1, 2)) == -1
    assert sturm.sign_at(p, quadratic(0, 1, 2)) == 0


def test_bisection_evaluates_each_point_once(monkeypatch):
    points = []
    sign_variations = sturm.sign_variations

    def recording(chain, x):
        points.append(x)
        return sign_variations(chain, x)

    monkeypatch.setattr(sturm, "sign_variations", recording)
    sf = sturm.squarefree_decomposition(_second_iterate_fixed_points())[0]
    roots = sturm._isolate_by_bisection(sturm.sturm_chain(sf), Interval.real_line())
    assert len(roots) == 5
    assert len(points) == len(set(points))


# Narrower than _SMALL, which _factor and _polynomial read when they draw.
_TINY = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _rational_polynomial(draw, min_degree=1, max_degree=5):
    coeffs = draw(st.lists(_TINY, min_size=min_degree, max_size=max_degree))
    return coeffs + [draw(_TINY.filter(lambda c: c != 0))]


class TestIntegerKernel:
    """The integer helpers against the Fraction arithmetic of polynomials."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_rational_polynomial())
    def test_composition_is_the_scaled_rational_one(self, p):
        P, D = polylib.integer_form(p)
        assert D > 0 and [F(c, D) for c in P] == polylib.normalize(p)
        both = sturm.compose_scaled(P, P, D)
        assert all(type(c) is int for c in both)
        assert both == [D ** len(P) * c for c in polylib.compose(p, p)]

    def test_composition_keeps_the_degree_cap(self):
        from compspec.errors import DegreeOverflow
        with pytest.raises(DegreeOverflow):
            sturm.compose_scaled([0] * 70 + [1], [0] * 70 + [1], 1)

    def test_exact_quotient(self):
        # (x - 1)(2x + 3) / (2x + 3), and a zero dividend.
        assert sturm.exact_quotient([-3, 1, 2], [3, 2]) == [-1, 1]
        assert sturm.exact_quotient([0], [3, 2]) == [0]

    @pytest.mark.parametrize("a, b", [
        ([1, 0, 1], [-1, 1]),      # x^2 + 1 by x - 1: remainder 2
        ([1, 1], [2, 2]),          # divides over Q, not over Z
        ([1, 2], [0, 0, 1]),       # nonzero a of lower degree
    ])
    def test_exact_quotient_raises_on_a_non_divisor(self, a, b):
        with pytest.raises(ArithmeticError):
            sturm.exact_quotient(a, b)

    def test_primitive_gcd_is_a_positive_multiple_of_the_monic_gcd(self):
        p = polylib.mul([F(-1, 2), F(1)], [F(3), F(-2), F(-5, 3)])
        q = polylib.mul([F(-1, 2), F(1)], [F(1), F(1)])
        g = sturm.primitive_gcd(p, q)
        assert g == [-1, 2] and _monic(g) == _reference_gcd(p, q) == [F(-1, 2), F(1)]


def _sympy_open_count(coeffs, lo, hi):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x)
    ends = [sympy.Rational(e.numerator, e.denominator) if e is not None else None
            for e in (lo, hi)]
    return f.count_roots(*ends) - sum(1 for e in ends if e is not None and f.eval(e) == 0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(a=_TINY, gap=st.fractions(min_value=F(1, 3), max_value=4, max_denominator=4),
       ma=st.integers(1, 3), mb=st.integers(0, 3), rest=_rational_polynomial(0, 3),
       shape=st.sampled_from(("both", "lower", "upper")))
def test_count_with_roots_on_the_ends_matches_sympy(a, gap, ma, mb, rest, shape):
    # Roots of multiplicity ma at a and mb at b = a + gap, on the finite
    # ends of (a, b), (a, inf) or (-inf, b).
    b = a + gap
    p = polylib.mul(polylib.mul(polylib.power([-a, F(1)], ma), polylib.power([-b, F(1)], mb)),
                    rest)
    lo = None if shape == "upper" else a
    hi = None if shape == "lower" else b
    interval = Interval(NEG_INF if lo is None else lo, POS_INF if hi is None else hi)
    assert sturm.count_roots_open(p, interval) == _sympy_open_count(p, lo, hi)


@pytest.mark.parametrize("lo, hi", [
    (F(0), quadratic(0, 1, 2)), (quadratic(0, 1, 2), quadratic(0, 2, 2)),
    (quadratic(0, -1, 2), quadratic(0, 1, 2)), (F(1), quadratic(1, 1, 2)),
    (quadratic(0, -2, 2), quadratic(1, -1, 2))])
def test_count_with_a_root_on_an_irrational_end_matches_sympy(lo, hi):
    # (x^2 - 2)(x - 1)(x^2 - 8): an end at +-sqrt(2) or +-2*sqrt(2) is a
    # root that the Sturm count over (lo, hi] must not include.
    sympy = pytest.importorskip("sympy")
    p = polylib.mul(polylib.mul([F(-2), F(0), F(1)], [F(-1), F(1)]), [F(-8), F(0), F(1)])
    x = sympy.Symbol("x")
    roots = set(sympy.real_roots((x ** 2 - 2) * (x - 1) * (x ** 2 - 8)))
    ends = [sympy.Rational(e.p) + sympy.Rational(e.q) * sympy.sqrt(e.d)
            if isinstance(e, QuadraticNumber) else sympy.Rational(e) for e in (lo, hi)]
    expected = sum(1 for r in roots if ends[0] < r < ends[1])
    assert sturm.count_roots_open(p, Interval(lo, hi)) == expected
