from fractions import Fraction as F

import pytest

from compspec.numbers import (GaussianRational, QuadraticNumber, format_scalar,
                              parse_gaussian, parse_rational, parse_scalar,
                              quadratic, to_mpf)


def test_parse_rational_decimal_is_exact():
    assert parse_rational("1.5") == F(3, 2)
    assert parse_rational("-0.25") == F(-1, 4)
    assert parse_rational("7/3") == F(7, 3)
    assert parse_rational("4") == F(4)


@pytest.mark.parametrize("text,expected", [
    ("2", GaussianRational(2, 0)),
    ("-1/2", GaussianRational(F(-1, 2), 0)),
    ("i", GaussianRational(0, 1)),
    ("-i", GaussianRational(0, -1)),
    ("3/4-2/5i", GaussianRational(F(3, 4), F(-2, 5))),
    ("1.5+0.5i", GaussianRational(F(3, 2), F(1, 2))),
    ("0+1i", GaussianRational(0, 1)),
])
def test_parse_gaussian(text, expected):
    assert parse_gaussian(text) == expected


def test_gaussian_arithmetic():
    z = GaussianRational(1, 2)
    w = GaussianRational(F(1, 2), -1)
    assert (z * w).re == F(5, 2)
    assert (z * w).im == F(0)
    assert z + w == GaussianRational(F(3, 2), 1)
    assert (z / z) == 1
    assert z ** 2 == GaussianRational(-3, 4)
    assert z.abs2() == 5


def test_gaussian_power_matches_repeated_multiplication():
    z = GaussianRational(F(1, 3), F(-2, 7))
    acc = GaussianRational(1, 0)
    for k in range(6):
        assert z ** k == acc
        acc = acc * z


def test_quadratic_collapse_to_rational():
    assert quadratic(F(1, 2), F(1, 3), 9) == F(3, 2)
    assert quadratic(F(1), F(0), 5) == F(1)
    assert isinstance(quadratic(0, 1, 5), QuadraticNumber)


def test_quadratic_field_arithmetic():
    golden = quadratic(F(1, 2), F(1, 2), 5)  # (1 + sqrt 5)/2
    # The golden ratio satisfies x^2 = x + 1.
    assert golden * golden == golden + 1
    assert golden > 1
    assert golden < 2
    inv = 1 / golden
    assert golden * inv == 1
    assert golden ** 3 == golden * golden * golden


def test_quadratic_sign_and_abs():
    a = quadratic(-3, 1, 5)   # sqrt5 - 3 < 0
    assert a < 0
    assert abs(a) == quadratic(3, -1, 5)
    b = quadratic(-2, 1, 5)   # sqrt5 - 2 > 0
    assert b > 0


def test_arithmetic_does_not_split_the_radicand_again(monkeypatch):
    from compspec import numbers
    a = quadratic(1, 1, 10 ** 12 + 39)
    d = a.d

    def refuse(n):
        raise AssertionError("radicand split again")

    monkeypatch.setattr(numbers, "_squarefree_split", refuse)
    assert a + 1 == QuadraticNumber(F(2), F(1), d)
    assert a - a == 0 and isinstance(a - a, F)
    assert a * a == QuadraticNumber(F(1 + d), F(2), d)
    assert a * a.conjugate() == 1 - d
    assert (a * 3) / a == 3
    assert a / 2 == QuadraticNumber(F(1, 2), F(1, 2), d)
    assert 1 < a < 10 ** 7 and a > 0 and a != 1
    assert a ** 2 - 2 * a == d - 1


def test_scalar_round_trip():
    values = [F(3, 7), F(-2), GaussianRational(F(1, 2), F(-3, 4)),
              quadratic(1, 1, 5), quadratic(0, F(-1, 2), 2)]
    for v in values:
        assert parse_scalar(format_scalar(v)) == v


def test_to_mpf_precision():
    import mpmath
    with mpmath.workprec(80):
        x = to_mpf(F(1, 3))
        assert abs(x * 3 - 1) < mpmath.mpf(2) ** -75
