import ast
import operator
import pathlib
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import compspec
from compspec.numbers import (GaussianRational, QuadraticNumber, format_scalar,
                              is_exact, parse_gaussian, parse_rational,
                              parse_scalar, quadratic, to_mpf, to_numeric)


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


def test_a_radicand_past_the_trial_divisors_is_the_same_field():
    # p = 65537 is the first prime past the trial divisors and q = 2^61 - 1
    # is prime, so p^2 q keeps its square factor and is not itself a square.
    p, q = 65537, 2 ** 61 - 1
    a, b = quadratic(0, p, q), quadratic(0, 1, p * p * q)
    assert (a.d, b.d) == (q, p * p * q)
    assert a == b and b == a and hash(a) == hash(b)
    assert a - b == 0 and isinstance(a - b, F)
    assert a < b + 1 and b * b == p * p * q
    assert quadratic(1, -p, q) == quadratic(1, -1, p * p * q) != quadratic(1, 1, p * p * q)
    assert len({a, b, -a, -b}) == 2


def test_a_large_radicand_splits_within_the_trial_budget():
    # One square factor past 2^16 and a 32-digit radicand: a square
    # remainder is folded in, any other kept as it is.
    assert quadratic(0, 1, 4 * 65537 ** 2) == 2 * 65537
    big = 100000000000000000000000000000007
    assert parse_scalar(f"sqrt({big})") == quadratic(0, 1, big)
    assert parse_scalar(format_scalar(quadratic(1, 2, big))) == quadratic(1, 2, big)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(-10 ** 60, 10 ** 60), st.integers(1, 2 ** 400),
       st.integers(53, 4096), st.booleans())
def test_to_mpf_of_a_fraction_is_mpf_of_the_numerator_over_the_denominator(
        num, den, prec, explicit):
    q = F(num, den)
    with mpmath.workprec(prec):
        want = mpmath.mpf(q.numerator) / q.denominator
    with mpmath.workprec(53 if explicit else prec):
        got = to_mpf(q, prec) if explicit else to_mpf(q)
    assert type(got) is mpmath.mpf and got._mpf_ == want._mpf_


def test_src_leaves_the_rounding_mode_at_round_to_nearest():
    # raw_ratio, and through it to_mpf, rounds to nearest whatever the
    # context says; the package never sets another rounding mode.
    assert mpmath.mp._prec_rounding[1] == "n"
    package = pathlib.Path(compspec.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            for target in targets:
                names = _names(target)
                assert not names & {"rounding", "_prec_rounding"}, (path.name, node.lineno)


# ---------------------------------------------------------------------------
# The mixing rule

_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=64)
_NONZERO = _RATIONALS.filter(lambda q: q != 0)
_FLOATS = st.floats(min_value=-100, max_value=100, allow_nan=False)
_FIELD_ELEMENTS = st.one_of(
    st.builds(GaussianRational, _RATIONALS, _RATIONALS),
    st.builds(lambda p, q: quadratic(p, q, 2), _RATIONALS, _NONZERO),
    st.builds(lambda p, q: quadratic(p, q, 3), _RATIONALS, _NONZERO),
)
_SCALARS = st.one_of(
    st.integers(-20, 20), _RATIONALS, _FIELD_ELEMENTS,
    _FLOATS.map(mpmath.mpf), st.builds(mpmath.mpc, _FLOATS, _FLOATS),
)
_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _field(value):
    """The exact field a scalar lies in; None for a numeric one."""
    if isinstance(value, (int, F)):
        return "Q"
    if isinstance(value, GaussianRational):
        return "Q(i)"
    if isinstance(value, QuadraticNumber):
        return f"Q(sqrt({value.d}))"
    return None


def _image(value):
    return to_numeric(value) if is_exact(value) else value


@settings(max_examples=400, deadline=None)
@given(_FIELD_ELEMENTS, _SCALARS, st.sampled_from(_OPS), st.booleans())
def test_mixing_table(element, other, op, element_first):
    """A field element against every scalar class, on either side.  Pairs
    without a field element are Python's and mpmath's own arithmetic (there
    Fraction - mpf raises TypeError and Fraction + mpf rounds the Fraction
    toward zero), so the table leaves them out."""
    a, b = (element, other) if element_first else (other, element)
    assume(op is not operator.truediv or b != 0)
    with mpmath.workprec(200):
        result = op(a, b)
        expected = op(_image(a), _image(b))
        if None not in {_field(a), _field(b)} and len({_field(a), _field(b)} - {"Q"}) <= 1:
            assert is_exact(result)
            assert abs(_image(result) - expected) <= 2 ** -150 * (1 + abs(expected))
        else:
            assert result == expected


@given(st.one_of(st.builds(GaussianRational, _RATIONALS, _RATIONALS),
                 st.builds(lambda p, q: quadratic(p, q, 5), _RATIONALS, _NONZERO)))
def test_field_element_never_equals_its_numeric_image(value):
    image = to_numeric(value)
    assert not value == image and not image == value
    assert value != image


def test_distinct_quadratic_fields_mix_numerically():
    a, b = quadratic(0, 1, 2), quadratic(0, 1, 3)
    assert a * b == to_numeric(a) * to_numeric(b)
    assert a != b


# ---------------------------------------------------------------------------
# Only numbers.py knows the scalar classes

_SCALAR_CLASSES = {"Fraction", "GaussianRational", "QuadraticNumber", "mpf", "mpc"}
_FIELD_CLASSES = {"GaussianRational", "QuadraticNumber"}


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_numbers_names_scalar_classes():
    package = pathlib.Path(compspec.__file__).parent
    offences = []
    for path in sorted(package.glob("*.py")):
        if path.name == "numbers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                named = _names(node.args[1]) & _SCALAR_CLASSES
                if named:
                    offences.append(f"{path.name}:{node.lineno} isinstance {sorted(named)}")
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                named = {alias.name for alias in node.names} & _FIELD_CLASSES
                if named:
                    offences.append(f"{path.name}:{node.lineno} imports {sorted(named)}")
    assert offences == []


def test_no_module_imports_dataclasses():
    # Value types derive from record.Record; dataclasses (and the inspect
    # machinery it loads) stays out of every process.
    package = pathlib.Path(compspec.__file__).parent
    offences = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {node.module}
            else:
                continue
            if "dataclasses" in modules:
                offences.append(f"{path.name}:{node.lineno}")
    assert offences == []
