import random
from fractions import Fraction as F

import pytest

from compspec import polynomials as polylib
from compspec import sturm
from compspec.intervals import Interval
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
