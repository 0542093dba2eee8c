"""Real analytic self-maps of an interval: parsing, evaluation, Taylor
jets, iteration, conjugation, and the quadratic normal form.

Grammar (see the package README): polynomials over exact rationals plus
``exp``, ``arctan`` and ``sin`` nodes.  A symbol's body is its expression
tree after constant folding: a single ``Poly`` node, an exact coefficient
list, for a polynomial; any other tree is handled numerically, with exact
jets whenever every transcendental node is expanded at an argument value
of zero.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import reduce
from math import gcd

import mpmath
from mpmath.libmp import (mpf_add, mpf_atan, mpf_cos_sin, mpf_div, mpf_exp,
                          mpf_mul, mpf_neg, mpf_pi, mpf_pos, mpf_pow_int,
                          mpf_shift, mpf_sin, round_nearest, to_rational)

from . import polynomials as polylib
from . import sturm
from .config import default_precision
from .errors import (BudgetExceeded, ConstantSymbolError, DomainError,
                     ExpressionSyntaxError, HypothesisViolation, InvarianceFailure,
                     NotADiffeomorphism, OrbitEscape)
from .intervals import (POS_INF, Interval, ext_lt, ext_max, ext_min, is_finite,
                        require_rational_ends)
from .numbers import (as_exact, invert, is_exact, is_mpf, is_rational,
                      parse_rational, raw_addend, raw_point, raw_ratio, to_mpf)
from .power_series import TruncatedSeries
from .record import Record

_GUARD_BITS = 24


# ---------------------------------------------------------------------------
# Expression trees


class Poly(Record):
    coeffs: tuple


class Add(Record):
    parts: tuple


class Mul(Record):
    parts: tuple


class Pow(Record):
    base: object
    exponent: int


class Call(Record):
    fn: str  # exp | arctan | sin
    arg: object


_SPECIAL_AT_ZERO = {"exp": Fraction(1), "arctan": Fraction(0), "sin": Fraction(0)}


def _split_scalar(node):
    """Split a rational prefactor off a folded non-polynomial node."""
    if isinstance(node, Mul) and isinstance(node.parts[0], Poly) \
            and len(node.parts[0].coeffs) == 1:
        rest = node.parts[1:]
        core = rest[0] if len(rest) == 1 else Mul(rest)
        return node.parts[0].coeffs[0], core
    return Fraction(1), node


def fold(node):
    """Bottom-up constant folding and like-term collection.

    Polynomial subtrees collapse into ``Poly`` nodes; transcendental calls
    at argument zero take their exact special value.
    """
    if isinstance(node, Poly):
        return node
    if isinstance(node, Add):
        parts = []
        for raw in node.parts:
            f = fold(raw)
            parts.extend(f.parts if isinstance(f, Add) else [f])
        acc = [Fraction(0)]
        groups: dict = {}
        order = []
        for f in parts:
            if isinstance(f, Poly):
                acc = polylib.add(acc, f.coeffs)
                continue
            coeff, core = _split_scalar(f)
            if core not in groups:
                groups[core] = Fraction(0)
                order.append(core)
            groups[core] += coeff
        rest = []
        for core in order:
            c = groups[core]
            if c == 0:
                continue
            rest.append(core if c == 1 else Mul((Poly((c,)), core)))
        if not rest:
            return Poly(tuple(acc))
        out = list(rest)
        if not (len(acc) == 1 and acc[0] == 0):
            out = [Poly(tuple(acc))] + out
        return out[0] if len(out) == 1 else Add(tuple(out))
    if isinstance(node, Mul):
        parts = []
        for raw in node.parts:
            f = fold(raw)
            parts.extend(f.parts if isinstance(f, Mul) else [f])
        acc = [Fraction(1)]
        rest = []
        for f in parts:
            if isinstance(f, Poly):
                acc = polylib.mul(acc, f.coeffs)
            else:
                rest.append(f)
        if len(acc) == 1 and acc[0] == 0:
            return Poly((Fraction(0),))
        if not rest:
            return Poly(tuple(acc))
        if len(acc) == 1 and acc[0] == 1:
            return rest[0] if len(rest) == 1 else Mul(tuple(rest))
        return Mul((Poly(tuple(acc)),) + tuple(rest))
    if isinstance(node, Pow):
        base = fold(node.base)
        n = node.exponent
        if n == 0:
            return Poly((Fraction(1),))
        if n == 1:
            return base
        if isinstance(base, Poly):
            return Poly(tuple(polylib.power(base.coeffs, n)))
        if isinstance(base, Pow):
            return Pow(base.base, base.exponent * n)
        return Pow(base, n)
    if isinstance(node, Call):
        arg = fold(node.arg)
        if isinstance(arg, Poly) and len(arg.coeffs) == 1 and arg.coeffs[0] == 0:
            return Poly((_SPECIAL_AT_ZERO[node.fn],))
        return Call(node.fn, arg)
    raise TypeError(f"unknown node {node!r}")


def tree_has_variable(node) -> bool:
    if isinstance(node, Poly):
        return len(node.coeffs) > 1
    if isinstance(node, Add):
        return any(tree_has_variable(p) for p in node.parts)
    if isinstance(node, Mul):
        return any(tree_has_variable(p) for p in node.parts)
    if isinstance(node, Pow):
        return tree_has_variable(node.base)
    return tree_has_variable(node.arg)


def substitute_affine(node, scale: Fraction, offset: Fraction):
    """Replace the variable by scale*x + offset; stays inside the grammar."""
    if isinstance(node, Poly):
        return Poly(tuple(polylib.compose(node.coeffs, [offset, scale])))
    if isinstance(node, Add):
        return Add(tuple(substitute_affine(p, scale, offset) for p in node.parts))
    if isinstance(node, Mul):
        return Mul(tuple(substitute_affine(p, scale, offset) for p in node.parts))
    if isinstance(node, Pow):
        return Pow(substitute_affine(node.base, scale, offset), node.exponent)
    return Call(node.fn, substitute_affine(node.arg, scale, offset))


# ---------------------------------------------------------------------------
# Parser


_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_]+)"
                       r"|(?P<op>[-+*^()/]))")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ExpressionSyntaxError(
                        f"unexpected character {text[pos]!r}", pos)
                break
            if m.lastgroup or m.group().strip():
                kind = ("num" if m.group("num") else
                        "name" if m.group("name") else "op")
                self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        node = self.parse_expr()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ExpressionSyntaxError(f"unexpected trailing {value!r}", pos)
        return node

    def parse_expr(self):
        terms = []
        kind, value, _ = self.peek()
        sign = Fraction(1)
        if kind == "op" and value in "+-":
            self.next()
            if value == "-":
                sign = Fraction(-1)
        first = self.parse_term()
        terms.append(first if sign == 1 else Mul((Poly((sign,)), first)))
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                term = self.parse_term()
                terms.append(term if value == "+" else Mul((Poly((Fraction(-1),)), term)))
            else:
                break
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                factors.append(self.parse_factor())
            else:
                break
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def parse_factor(self):
        base = self.parse_base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "num" or "." in value:
                raise ExpressionSyntaxError("exponent must be a nonnegative integer", pos)
            return Pow(base, int(value))
        return base

    def parse_base(self):
        kind, value, pos = self.next()
        if kind == "num":
            frac = parse_rational(value)
            nkind, nvalue, _ = self.peek()
            if "." not in value and nkind == "op" and nvalue == "/":
                # rational literal p/q
                self.next()
                dkind, dvalue, dpos = self.next()
                if dkind != "num" or "." in dvalue:
                    raise ExpressionSyntaxError("denominator must be a positive integer", dpos)
                if int(dvalue) == 0:
                    raise ExpressionSyntaxError("zero denominator", dpos)
                frac = Fraction(int(value), int(dvalue))
            return Poly((frac,))
        if kind == "name":
            if value == "x":
                return Poly((Fraction(0), Fraction(1)))
            if value in ("exp", "arctan", "sin"):
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(value, arg)
            raise ExpressionSyntaxError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(f"unexpected token {value!r}", pos)


# ---------------------------------------------------------------------------
# Compiled tree evaluation and jets

_RND = round_nearest

# exp and cos_sin reduce their argument modulo ln 2 or pi, to as many bits
# as the argument's binary exponent: past 2^14 bits one call takes over
# 10 ms (measured on a 2-core x86-64 machine, Python 3.11, pure-Python
# mpmath, with ln 2 and pi not yet cached), and a tower like exp(exp(x))
# reaches exponents of millions of bits.
_MAGNITUDE_BUDGET = 2 ** 14


def _within_budget(name, fn):
    """The libmp function fn, raising BudgetExceeded on an argument of
    binary exponent (the raw tuple's exponent plus bit count) past the
    budget."""
    def guarded(x, prec, rnd):
        magnitude = x[2] + x[3]
        if magnitude > _MAGNITUDE_BUDGET:
            # The exponent itself may have millions of digits.
            size = (magnitude if magnitude.bit_length() <= 64
                    else f"2^{magnitude.bit_length() - 1} or more")
            raise BudgetExceeded(f"{name} of an argument of magnitude 2^{size} "
                                 f"is past the budget 2^{_MAGNITUDE_BUDGET}")
        return fn(x, prec, rnd)
    return guarded


# The backend of a lowered program: each op as the mpmath.libmp function
# that runs it, ``fn(*sources, prec, rnd)``, with its rounding, and "const",
# which converts an exact operand once, at link time, as mpmath does (a
# Fraction through ``from_rational`` at its default rounding, an int exactly).
_MPF = {"add": mpf_add, "mul": mpf_mul, "div": mpf_div, "neg": mpf_neg,
        "exp": _within_budget("exp", mpf_exp), "atan": mpf_atan,
        "cos_sin": _within_budget("sin", mpf_cos_sin),
        "const": raw_addend, "rnd": _RND}


class _Register:
    """A value that a lowered program computes at run time.  Its operators
    record the instruction that computes their result, so ``tree_jet`` run
    on the point's register records the jet as the program.  An exact
    operand is combined as it is, except that adding an exact zero and
    multiplying or dividing by an exact one are left out: on a value of at
    most ``prec`` bits they return it unchanged.  The register goes first
    in a commutative op (the backend rounds the exact result, so the order
    is free)."""

    __slots__ = ("program", "index")

    def __init__(self, program, index):
        self.program = program
        self.index = index

    def __add__(self, other):
        if not isinstance(other, _Register) and other == 0:
            return self
        return self.program._emit("add", self, other)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, _Register) and other == 1:
            return self
        return self.program._emit("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _Register) and other == 1:
            return self
        return self.program._emit("div", self, other)

    def __rtruediv__(self, other):
        return self.program._emit("div", other, self)

    def __neg__(self):
        return self.program._emit("neg", self)


def _names(registers):
    return ", ".join(f"r{i}" for i in registers)


class _Program:
    """The order-1 jet of a folded tree lowered to straight-line code:
    ``value`` and ``slope`` are its two outputs.

    The program is recorded by running ``tree_jet`` on registers: register
    0 holds the point, and each operation on a ``_Register`` appends one
    instruction ``(op, outs, srcs)`` over integer register indices.  Ints
    and Fractions are exact and known when the tree is lowered, so the jet
    combines them itself; an exact operand of an op becomes a constant
    register that the backend converts.  Nothing in the recording depends
    on a precision: ``link`` binds one and converts the constants, so a
    tree is recorded once and ``kernel`` links it once per precision.
    """

    def __init__(self, node):
        self.size = 1          # register 0 holds the point
        self.code = []
        self.constants = {}    # (type, exact operand) -> register index
        self.kernels = {}      # (prec, with slope) -> linked kernel
        self.compiled = {}     # kernel source -> its code object
        self.value, self.slope = tree_jet(node, _Register(self, 0), 1, exact=False).coeffs

    def kernel(self, prec, slope=False):
        """The value kernel at ``prec`` bits, or with ``slope`` the (value,
        slope) kernel, each linked on first use."""
        kernel = self.kernels.get((prec, slope))
        if kernel is None:
            outputs = [self.value, self.slope] if slope else [self.value]
            kernel = self.kernels[prec, slope] = self.link(outputs, _MPF, prec)
        return kernel

    def link(self, outputs, backend, prec):
        """The kernel ``x -> outputs`` (a single output bare) at ``prec``
        bits as one Python function: the instructions that the outputs
        need, in order, each calling ``backend[op]``; a backward liveness
        pass drops the rest.  The source holds only op names and register
        indices, so it is compiled once for every precision; constants,
        exact outputs and the precision are bound in its namespace."""
        live = {out.index for out in outputs if isinstance(out, _Register)}
        code = []
        for op, outs, srcs in reversed(self.code):
            if live.intersection(outs):
                live.update(srcs)
                code.append(f"    {_names(outs)} = {op}({_names(srcs)}, prec, rnd)")
        namespace = dict(backend, prec=prec)
        namespace.update((f"r{i}", backend["const"](q, prec))
                         for (_, q), i in self.constants.items())
        results = []
        for k, out in enumerate(outputs):   # an exact output is bound as it is
            if not isinstance(out, _Register):
                namespace[f"r{self.size + k}"], out = out, _Register(self, self.size + k)
            results.append(out.index)
        source = "\n".join(["def kernel(r0):", *reversed(code), f"    return {_names(results)}"])
        compiled = self.compiled.get(source)
        if compiled is None:
            compiled = self.compiled[source] = compile(source, "<kernel>", "exec")
        exec(compiled, namespace)
        return namespace["kernel"]

    def _operand(self, v):
        """The index of a register, or of the constant register of an
        exact operand."""
        if isinstance(v, _Register):
            return v.index
        index = self.constants.get((type(v), v))
        if index is None:
            index = self.constants[(type(v), v)] = self.size
            self.size += 1
        return index

    def _emit(self, op, *srcs, outs=1):
        """One instruction ``outs = backend[op](*srcs, prec, rnd)``."""
        regs = [_Register(self, self.size + k) for k in range(outs)]
        self.size += outs
        self.code.append((op, tuple(r.index for r in regs),
                          tuple(self._operand(s) for s in srcs)))
        return regs[0] if outs == 1 else regs


def compile_tree(node, prec):
    """``compile_slope``'s kernel with the slope's instructions left out:
    the value, bit for bit, as a raw tuple (an exact Fraction when it does
    not depend on the point, never for a folded tree with a call)."""
    return _Program(node).kernel(prec)


def compile_slope(node, prec):
    """A folded tree's value and slope as a function of one raw mpf tuple
    of at most ``prec`` bits: ``kernel(x) -> (value, slope)``, each an
    exact Fraction or a raw tuple.

    Bit-identical to the coefficients of ``tree_jet(node, to_mpf(x), 1,
    exact=False)`` inside ``workprec(prec)``, classes included: which of
    them stay exact depends on the tree alone, so it is decided when the
    tree is lowered, and the kernel runs only the mpf steps.
    """
    return _Program(node).kernel(prec, slope=True)


class _NeedNumeric(Exception):
    """Raised by exact jets when a transcendental node sits off zero."""


def _series_from_poly(coeffs, center, order):
    """The polynomial with these coefficients expanded at ``center``
    through ``order``.  At a rational center with rational coefficients
    this is one exact Taylor shift, p(center + t); any other center (an
    mpf, or a program's point register) runs Horner over series, whose
    steps fix how a numeric jet and a recorded program round."""
    if is_rational(center) and all(is_rational(c) for c in coeffs):
        shifted = polylib.compose(coeffs, [center, Fraction(1)])[:order + 1]
        return TruncatedSeries(center, shifted + [Fraction(0)] * (order + 1 - len(shifted)))
    ident = TruncatedSeries.identity(center, order)
    acc = TruncatedSeries.zero(center, order)
    for c in reversed(coeffs):
        acc = acc * ident + c
    return acc


def _at_center(g: TruncatedSeries, fn):
    """``mpmath.<fn>`` (exp, atan or cos_sin) of g's constant term; while a
    program is recorded (the center is its point register), the
    instruction that computes it."""
    if isinstance(g.center, _Register):
        return g.center.program._emit(fn, g.coeffs[0], outs=2 if fn == "cos_sin" else 1)
    return getattr(mpmath, fn)(g.coeffs[0])


def _exact_terms(g: TruncatedSeries):
    """The pairs (k, k*g_k) for the nonzero g_k, k >= 1, of an exact
    series whose constant term is zero: the derivative terms that the
    recurrences of exp and sin sum (``_NeedNumeric`` for a nonzero
    constant term)."""
    if g.coeffs[0] != 0:
        raise _NeedNumeric
    return [(k, k * c) for k, c in enumerate(g.coeffs) if k and c != 0]


def _series_exp(g: TruncatedSeries, exact: bool):
    """exp of g by m*e_m = sum_k k*g_k*e_(m-k).  The exact path walks only
    the nonzero g_k; the numeric one sums every k, in ascending order."""
    n = g.order
    if exact:
        terms = _exact_terms(g)
        out = [Fraction(1)]
        for m in range(1, n + 1):
            out.append(sum((c * out[m - k] for k, c in terms if k <= m), Fraction(0)) / m)
        return TruncatedSeries(g.center, out)
    h = g.coeffs
    out = [_at_center(g, "exp")]
    for m in range(1, n + 1):
        acc = 0
        for k in range(1, m + 1):
            acc = acc + k * h[k] * out[m - k]
        out.append(as_exact(acc) / m)
    return TruncatedSeries(g.center, out)


def _series_sin(g: TruncatedSeries, exact: bool):
    """sin of g, with cos alongside, by m*s_m = sum_k k*g_k*c_(m-k) and
    m*c_m = -sum_k k*g_k*s_(m-k).  The exact path walks only the nonzero
    g_k; the numeric one sums every k, in ascending order."""
    n = g.order
    if exact:
        terms = _exact_terms(g)
        sins, coss = [Fraction(0)], [Fraction(1)]
        for m in range(1, n + 1):
            live = [(k, c) for k, c in terms if k <= m]
            sins.append(sum((c * coss[m - k] for k, c in live), Fraction(0)) / m)
            coss.append(-sum((c * sins[m - k] for k, c in live), Fraction(0)) / m)
        return TruncatedSeries(g.center, sins)
    c0, s0 = _at_center(g, "cos_sin")
    h = g.coeffs
    sins, coss = [s0], [c0]
    for m in range(1, n + 1):
        acc_s = 0
        acc_c = 0
        for k in range(1, m + 1):
            acc_s = acc_s + k * h[k] * coss[m - k]
            acc_c = acc_c + k * h[k] * sins[m - k]
        sins.append(as_exact(acc_s) / m)
        coss.append(as_exact(-acc_c) / m)
    return TruncatedSeries(g.center, sins)


def _series_arctan(g: TruncatedSeries, exact: bool):
    if exact:
        if g.coeffs[0] != 0:
            raise _NeedNumeric
        a0 = Fraction(0)
    else:
        a0 = _at_center(g, "atan")
    if g.order == 0:
        return TruncatedSeries(g.center, [a0])
    denom = (g * g + 1).truncate(g.order - 1)
    integrand = g.differentiate() * denom.reciprocal()
    return integrand.integrate(a0).truncate(g.order)


def tree_jet(node, center, order, exact: bool):
    """The Taylor series of a tree at ``center`` through ``order``: the one
    definition of jet semantics.  It runs eagerly on numbers (exact
    coefficients, or ``_NeedNumeric`` when ``exact`` and a transcendental
    node sits off zero; mpf coefficients at the working precision
    otherwise), and traced on a ``_Program``'s registers, where the same
    operations record the lowered program."""
    if isinstance(node, Poly):
        return _series_from_poly(node.coeffs, center, order)
    if isinstance(node, Add):
        acc = TruncatedSeries.zero(center, order)
        for p in node.parts:
            acc = acc + tree_jet(p, center, order, exact)
        return acc
    if isinstance(node, Mul):
        acc = None
        for p in node.parts:
            term = tree_jet(p, center, order, exact)
            acc = term if acc is None else acc * term
        return acc
    if isinstance(node, Pow):
        return tree_jet(node.base, center, order, exact).power(node.exponent)
    inner = tree_jet(node.arg, center, order, exact)
    if node.fn == "exp":
        return _series_exp(inner, exact)
    if node.fn == "sin":
        return _series_sin(inner, exact)
    return _series_arctan(inner, exact)


# ---------------------------------------------------------------------------
# Limits at interval ends

_LIMIT_PREC = 96   # bits of every approximation a limit computes
_LIMIT_FNS = {"exp": mpf_exp, "arctan": mpf_atan, "sin": mpf_sin}


class Limit(Record):
    """The limit of a function toward an end of its domain.

    ``+`` and ``*`` give the limit of a sum or product from the limits of
    its two parts, with ints and Fractions allowed on either side, and
    ``**`` that of an integer power.  ``+`` and ``*`` are commutative and
    associative, so a fold over the parts of a sum or product does not
    depend on their order.  ``unknown`` absorbs everything, and so do
    ``+inf + -inf``, an infinity times an exact zero or a bounded value,
    and an inexact zero in a product.  Otherwise an infinity absorbs the
    finite and bounded terms of a sum and sets the sign of a product, an
    exact zero absorbs the finite and bounded factors, and a bounded value
    the finite parts.  Exact parts combine exactly, the rest at 96 bits.
    """

    kind: str  # finite | pos_inf | neg_inf | bounded | unknown
    value: object = None   # exact Fraction when known exactly
    approx: object = None  # mpf estimate when finite but inexact

    @property
    def exact(self) -> bool:
        return self.kind == "finite" and self.value is not None

    def sign(self):
        if self.kind != "finite":
            return {"pos_inf": 1, "neg_inf": -1}.get(self.kind)
        v = self.value if self.exact else self.approx
        return (v > 0) - (v < 0)

    def raw(self):
        """A finite limit's value as a raw mpf tuple of at most 96 bits."""
        return raw_point(self.value, _LIMIT_PREC) if self.exact else self.approx._mpf_

    def __add__(self, other):
        other = _as_limit(other)
        kinds = {self.kind, other.kind}
        if "unknown" in kinds or kinds == {"pos_inf", "neg_inf"}:
            return _UNKNOWN
        for kind in ("pos_inf", "neg_inf", "bounded"):
            if kind in kinds:
                return Limit(kind)
        return _finite(self, other, operator.add, mpf_add)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_limit(other)
        kinds = {self.kind, other.kind}
        signs = self.sign(), other.sign()
        infinite = not kinds.isdisjoint(("pos_inf", "neg_inf"))
        inexact_zero = any(s == 0 and not lim.exact
                           for s, lim in zip(signs, (self, other)))
        if "unknown" in kinds or inexact_zero \
                or (infinite and (0 in signs or "bounded" in kinds)):
            return _UNKNOWN
        if 0 in signs:
            return _ZERO
        if infinite:
            return Limit("pos_inf" if signs[0] * signs[1] > 0 else "neg_inf")
        if "bounded" in kinds:
            return _BOUNDED
        return _finite(self, other, operator.mul, mpf_mul)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if self.kind == "neg_inf":
            return Limit("neg_inf" if n % 2 == 1 else "pos_inf")
        if self.kind != "finite":
            return self
        if self.exact:
            return Limit("finite", value=self.value ** n)
        return _approx(mpf_pow_int(self.approx._mpf_, n, _LIMIT_PREC, _RND))


_UNKNOWN = Limit("unknown")
_BOUNDED = Limit("bounded")
_ZERO = Limit("finite", value=Fraction(0))


def _as_limit(value) -> Limit:
    """A limit as it is, an exact scalar as its constant limit: exact when
    rational, else its 96-bit approximation."""
    if isinstance(value, Limit):
        return value
    if is_rational(value):
        return Limit("finite", value=Fraction(value))
    return _approx(raw_point(value, _LIMIT_PREC))


def _approx(raw) -> Limit:
    return Limit("finite", approx=mpmath.mp.make_mpf(raw))


def _finite(a: Limit, b: Limit, op, mpf_op) -> Limit:
    """``op`` of two finite limits: exact on exact values, else ``mpf_op``
    at 96 bits."""
    if a.exact and b.exact:
        return Limit("finite", value=op(a.value, b.value))
    return _approx(mpf_op(a.raw(), b.raw(), _LIMIT_PREC, _RND))


def _call_limit(fn: str, arg: Limit) -> Limit:
    """The limit of ``fn`` (exp, arctan or sin) of a part whose limit is
    ``arg``."""
    if arg.kind in ("pos_inf", "neg_inf"):
        if fn == "exp":
            return Limit("pos_inf") if arg.kind == "pos_inf" else _ZERO
        if fn == "sin":
            return _BOUNDED
        half_pi = mpf_shift(mpf_pi(_LIMIT_PREC, _RND), -1)
        return _approx(half_pi if arg.kind == "pos_inf" else mpf_neg(half_pi))
    if arg.kind != "finite":       # bounded or unknown, for each of the three
        return arg
    if arg.exact and arg.value == 0:
        return Limit("finite", value=_SPECIAL_AT_ZERO[fn])
    return _approx(_LIMIT_FNS[fn](arg.raw(), _LIMIT_PREC, _RND))


def tree_limit(node, end) -> Limit:
    """The limit of a folded tree toward ``end``, an infinity or an exact
    point: the ``Limit`` operators folded over its parts.  A polynomial
    tends to the infinity of its sign toward an infinite end, and takes
    its value at a finite one, evaluated exactly (and rounded to 96 bits
    when it is irrational)."""
    if isinstance(node, Poly):
        coeffs = node.coeffs
        if is_finite(end) or len(coeffs) == 1:
            return _as_limit(polylib.eval_at(coeffs, end))
        return Limit("pos_inf" if sturm.sign_at(coeffs, end) > 0 else "neg_inf")
    if isinstance(node, Add):
        return reduce(operator.add, (tree_limit(p, end) for p in node.parts))
    if isinstance(node, Mul):
        return reduce(operator.mul, (tree_limit(p, end) for p in node.parts))
    if isinstance(node, Pow):
        return tree_limit(node.base, end) ** node.exponent
    return _call_limit(node.fn, tree_limit(node.arg, end))


# ---------------------------------------------------------------------------
# Symbol bodies


class ConjugatedBody(Record):
    inner: "AnalyticSymbol"
    change: "Diffeomorphism"


def _grid_pairs(domain: Interval, count: int) -> list[tuple[int, int]]:
    """``count`` interior points of the domain as reduced (numerator,
    denominator) pairs: evenly spaced on a bounded interval, through
    t/(1-t) on a half-line and t/(1-t^2) on the real line."""
    lo, hi = domain.lower, domain.upper
    m = count + 1
    if is_finite(lo) and is_finite(hi):
        lo, hi = Fraction(lo), Fraction(hi)
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        den = b * d * m
        raw = [(a * d * m + (c * b - a * d) * k, den) for k in range(1, m)]
    elif is_finite(lo):
        lo = Fraction(lo)
        a, b = lo.numerator, lo.denominator
        raw = [(a * (m - k) + b * k, b * (m - k)) for k in range(1, m)]
    elif is_finite(hi):
        hi = Fraction(hi)
        c, d = hi.numerator, hi.denominator
        raw = [(c * (m - k) - d * k, d * (m - k)) for k in range(1, m)]
    else:
        raw = [((2 * k - m) * m, m * m - (2 * k - m) ** 2) for k in range(1, m)]
    pairs = []
    for num, den in raw:
        g = gcd(num, den)
        pairs.append((num // g, den // g))
    return pairs


def _sample_grid(domain: Interval, count: int) -> list[Fraction]:
    return [Fraction(num, den) for num, den in _grid_pairs(domain, count)]


def _nudged(value, direction: int):
    """An infinity or a rational as it is, any other value as its 96-bit
    rounding moved by 2**-88 of one plus its size up (+1) or down (-1)."""
    if not is_finite(value) or is_rational(value):
        return value
    q = Fraction(*to_rational(raw_point(value, 96)))
    return q + direction * (1 + abs(q)) / 2 ** 88


class AnalyticSymbol:
    """A non-constant real analytic map on an open interval.

    The body is the folded tree of the map (a ``Poly`` node, with Fraction
    or QuadraticNumber coefficients, when it is a polynomial) or a
    ``ConjugatedBody``.  Symbols are self-maps by default (the composition
    operator needs phi(J) inside J); coordinate changes are built with
    ``require_self_map=False`` since they map one interval onto another.
    """

    __slots__ = ("body", "domain", "invariance_certified", "text", "_programs", "_facts")

    def __init__(self, body, domain: Interval, *, text=None,
                 require_self_map=True, require_nonconstant=True):
        self.body = body
        self.domain = domain
        self.text = text
        # The compiled forms of the body, shared by every restriction: the
        # tree of an elementary body lowered once, under "tree"
        # (``_program``), or the rounded coefficients of a rational
        # polynomial body per precision (``_rounded_coeffs``).
        self._programs = {}
        # The integer facts of a rational polynomial body, filled on use.
        self._facts = (sturm.IntegerFacts(body.coeffs)
                       if isinstance(body, Poly) and all(is_rational(c) for c in body.coeffs)
                       else None)
        if require_nonconstant:
            self._check_nonconstant()
        self.invariance_certified = self._check_self_map() if require_self_map else False

    # -- construction ------------------------------------------------------

    @classmethod
    def from_coefficients(cls, coeffs, domain=None, *,
                          require_self_map=True) -> "AnalyticSymbol":
        return cls(Poly(tuple(polylib.normalize(coeffs))),
                   domain or Interval.real_line(), require_self_map=require_self_map)

    def _check_nonconstant(self):
        if not tree_has_variable(self.body):
            raise ConstantSymbolError("expression contains no variable")
        if self.is_elementary():
            # Numeric backstop against disguised constants.
            kernel = self._kernel(200)
            with mpmath.workprec(200):
                samples = [mpmath.mp.make_mpf(kernel(raw_point(Fraction(k, 7), 200)))
                           for k in (-9, -3, 1, 2, 5, 8, 13)]
                spread = max(samples) - min(samples)
                if spread < mpmath.mpf(2) ** (-180):
                    raise ConstantSymbolError("expression is numerically constant")

    def _check_self_map(self) -> bool:
        ok, witness, certified = self.maps_into(self.domain, [self.domain], 1024)
        if not ok:
            raise DomainError(
                f"not a self-map: image leaves the interval near x={witness}")
        if not certified and self._diverges_inside(self.domain):
            raise DomainError("not a self-map: diverges inside a bounded interval")
        return certified

    def maps_into(self, source: Interval, targets: list[Interval], samples: int):
        """Whether phi maps the source interval into the union of the open
        targets: (ok, witness, certified).

        Rational polynomials get the exact Sturm certificate, answered once
        per question by the integer facts.  A conjugated body takes its
        inner symbol's answer on the images of the intervals under the
        change (``_transported_maps_into``), uncertified.  Any other tree
        is finite at every real point, so a whole-line target accepts it
        without sampling when the source lies in the domain.  Otherwise the
        images of ``samples`` grid points of the source, at 96 bits, must
        each lie strictly inside some target.  Both answers are flagged
        uncertified, so reports read as they did when the whole line was
        sampled too.  The witness is a source point whose image leaves the
        union, or None.  An interval end that is neither rational nor
        infinite raises DomainError.
        """
        for interval in (source, *targets):
            require_rational_ends(interval)
        if self._facts is not None:
            ok, witness = self._facts.maps_into(source, targets)
            return ok, witness, True
        if isinstance(self.body, ConjugatedBody):
            return self._transported_maps_into(source, targets, samples)
        if self.domain.contains_interval(source) \
                and any(not (is_finite(t.lower) or is_finite(t.upper)) for t in targets):
            return True, None, False
        if self.is_elementary():
            return self._scan_maps_into(source, targets, samples)
        # Polynomials with quadratic-irrational coefficients, evaluated exactly.
        with mpmath.workprec(96):
            for x in _sample_grid(source, samples):
                y = self.eval(x, 96)
                if not any(t.contains(y) for t in targets):
                    return False, x, False
        return True, None, False

    def _transported_maps_into(self, source: Interval, targets: list[Interval], samples: int):
        """psi = delta^(-1) o phi o delta maps the source into the targets iff
        phi maps delta(source) into their images (delta is monotone and onto
        phi's domain); a failing witness is pulled back through delta."""
        change, inner = self.body.change, self.body.inner
        parts = (t.intersect(self.domain) for t in targets)
        images = (change.image_of(t, inner.domain, inward=True) for t in parts if t is not None)
        ok, witness, _ = inner.maps_into(change.image_of(source, inner.domain, inward=False),
                                         [t for t in images if t is not None], samples)
        return ok, witness if ok else change.apply_inverse(witness, 96), False

    def _scan_maps_into(self, source: Interval, targets: list[Interval], samples: int):
        """The sampled ``maps_into`` of an elementary body on raw mpf tuples:
        each grid point goes through ``eval(x, 96)``'s exact steps, and its
        image is compared with the target bounds rounded once at 96 bits."""
        prec = 96 + _GUARD_BITS
        image = self.raw_eval(96)
        members = [t.raw_membership(96) for t in targets]
        check_domain = not self.domain.contains_interval(source)
        for num, den in _grid_pairs(source, samples):
            if check_domain and not self.domain.contains(Fraction(num, den)):
                raise DomainError(f"{Fraction(num, den)} is outside the domain {self.domain}")
            y = image(raw_ratio(num, den, prec))
            if not any(inside(y) for inside in members):
                return False, Fraction(num, den), False
        return True, None, False

    def _program(self):
        """The tree lowered once; its kernels are linked once per
        precision, on first use."""
        program = self._programs.get("tree")
        if program is None:
            program = self._programs["tree"] = _Program(self.body)
        return program

    def _kernel(self, prec):
        """The tree's value kernel at ``prec`` bits (``compile_tree``)."""
        return self._program().kernel(prec)

    def _slope_kernel(self, prec):
        """The tree's (value, slope) kernel at ``prec`` bits (``compile_slope``)."""
        return self._program().kernel(prec, slope=True)

    def _rounded_coeffs(self, prec):
        """A rational polynomial body's coefficients from the highest
        degree down, as ``eval`` rounds them at ``prec`` bits: the leading
        one as ``to_mpf`` does (``raw_ratio``), the others as mpmath adds
        them (``raw_addend``).  Computed once per precision and kept in
        ``_programs``, which holds no lowered tree for a ``Poly`` body."""
        rounded = self._programs.get(prec)
        if rounded is None:
            lead, *rest = reversed(self.body.coeffs)
            rounded = self._programs[prec] = (
                raw_ratio(lead.numerator, lead.denominator, prec),
                *(raw_addend(c, prec) for c in rest))
        return rounded

    def raw_eval(self, precision):
        """``eval(x, precision)`` as a function of a raw mpf tuple x of at
        most ``precision`` + 24 bits, returning a raw tuple; the caller
        checks the domain.  Elementary bodies run the compiled tree; other
        bodies go through ``eval`` itself."""
        if self.is_elementary():
            kernel = self._kernel(precision + _GUARD_BITS)
            return lambda x: mpf_pos(kernel(x), precision, _RND)
        return lambda x: self.eval(mpmath.mp.make_mpf(x), precision)._mpf_

    def raw_displacement(self, precision):
        """phi(x) - x for an elementary body, as ``raw_eval`` gives phi(x):
        the folded tree of phi - x runs at ``precision`` + 24 bits and is
        rounded once, so an x term of phi cancels exactly rather than after
        phi(x) is rounded.  The caller checks the domain."""
        kernel = compile_tree(fold(Add((self.body, Poly((Fraction(0), Fraction(-1)))))),
                              precision + _GUARD_BITS)
        return lambda x: mpf_pos(kernel(x), precision, _RND)

    def raw_slope(self, precision):
        """``derivative_at(x, precision)`` as a function of a raw mpf tuple
        x of at most ``precision`` + 24 bits: an exact scalar or a raw
        tuple.  Elementary bodies run the compiled (value, slope) kernel;
        other bodies go through ``derivative_at`` at working precision
        ``precision``.  The caller checks the domain."""
        if self.is_elementary():
            kernel = self._slope_kernel(precision + _GUARD_BITS)
            return lambda x: kernel(x)[1]

        def slope(x):
            with mpmath.workprec(precision):
                d = self.derivative_at(mpmath.mp.make_mpf(x), precision)
            return d if is_exact(d) else d._mpf_
        return slope

    def _diverges_inside(self, domain: Interval) -> bool:
        """Whether phi tends to an infinity on a side where the domain is bounded."""
        kinds = {self.limit_at(domain.lower).kind, self.limit_at(domain.upper).kind}
        return (("pos_inf" in kinds and is_finite(domain.upper))
                or ("neg_inf" in kinds and is_finite(domain.lower)))

    # -- basic structure ----------------------------------------------------

    def is_polynomial(self) -> bool:
        return isinstance(self.body, Poly)

    def is_elementary(self) -> bool:
        """Whether the body is a folded tree with a call."""
        return not isinstance(self.body, (Poly, ConjugatedBody))

    def is_rational_polynomial(self) -> bool:
        return self._facts is not None

    def integer_facts(self) -> "sturm.IntegerFacts | None":
        """The integer facts of a rational polynomial body, shared by every
        restriction of the symbol; None for any other body."""
        return self._facts

    def poly_coeffs(self) -> list[Fraction]:
        if not self.is_polynomial():
            raise TypeError("not a polynomial symbol")
        return list(self.body.coeffs)

    def rational_coeffs(self) -> list[Fraction]:
        if self._facts is None:
            raise TypeError("not a rational polynomial symbol")
        return list(self._facts.coeffs)

    def is_identity(self) -> bool:
        return self.is_polynomial() and tuple(self.body.coeffs) == (0, 1)

    def affine_power_exponent(self):
        """s when the symbol is affinely conjugate to x**s with s >= 2 on the
        whole line, else None.

        Such maps are exactly lead*(x - c)**s + c where the critical point c
        is fixed; odd exponents additionally need a positive leading
        coefficient (the conjugating slope is a real (s-1)-th root).
        """
        if not self.is_rational_polynomial() or self.domain != Interval.real_line():
            return None
        coeffs = self.rational_coeffs()
        s = len(coeffs) - 1
        if s < 2:
            return None
        lead = coeffs[-1]
        if s % 2 == 1 and lead <= 0:
            return None
        center = -coeffs[-2] / (s * lead)
        shifted = polylib.compose(coeffs, [center, Fraction(1)])
        expected = [Fraction(0)] * (s + 1)
        expected[0], expected[s] = center, lead
        return s if shifted == polylib.normalize(expected) else None

    # -- evaluation ---------------------------------------------------------

    def eval(self, x, precision=None):
        """phi(x): exact for rational polynomials at exact points, else mpf
        with error below 2**-(precision-8).  A rational polynomial runs
        ``eval_rational`` at rational points, ``eval_raw`` on ``_rounded_coeffs``
        at mpf ones; other inputs run ``polylib.eval_at``, to the same bits."""
        precision = precision or default_precision()
        if not self._point_in_domain(x, precision):
            raise DomainError(f"{x} is outside the domain {self.domain}")
        if self.is_polynomial():
            coeffs = self.body.coeffs
            if self._facts is not None and is_rational(x):
                return polylib.eval_rational(self._facts.P, self._facts.D, x)
            if is_exact(x):
                return polylib.eval_at(coeffs, as_exact(x))
            prec = precision + _GUARD_BITS
            if self._facts is not None and is_mpf(x):
                rnd = mpmath.mp._prec_rounding[1]
                acc = polylib.eval_raw(self._rounded_coeffs(prec), x._mpf_, prec, rnd)
                return mpmath.mp.make_mpf(mpf_pos(acc, precision, rnd))
            with mpmath.workprec(prec):
                result = polylib.eval_at((*coeffs[:-1], to_mpf(coeffs[-1])), x)
            with mpmath.workprec(precision):
                return +result
        if isinstance(self.body, ConjugatedBody):
            change, inner = self.body.change, self.body.inner
            with mpmath.workprec(precision + 2 * _GUARD_BITS):
                mid = inner.eval(change.apply(x, precision + 2 * _GUARD_BITS),
                                 precision + 2 * _GUARD_BITS)
                result = change.apply_inverse(mid, precision + 2 * _GUARD_BITS)
            with mpmath.workprec(precision):
                return +result
        prec = precision + _GUARD_BITS
        result = self._kernel(prec)(raw_point(x, prec))
        return mpmath.mp.make_mpf(mpf_pos(result, precision, _RND))

    def _point_in_domain(self, x, precision) -> bool:
        """Strict membership; a finite bound is rounded at ``precision``
        only where an mpf point is compared against it."""
        domain = self.domain
        if is_exact(x) or not (is_finite(domain.lower) or is_finite(domain.upper)):
            return domain.contains(x)
        with mpmath.workprec(precision):
            return domain.contains(x)

    def derivative_at(self, x, precision=None):
        """phi'(x), the slope of the order-1 jet; exact where the jet is
        exact.  An elementary body reads the numeric slope from its compiled
        (value, slope) kernel at ``precision`` + 24 bits, which gives the
        jet's coefficient bit for bit without building series."""
        if not self.is_elementary():
            return self.jet(x, 1, precision=precision).coeffs[1]
        precision = precision or default_precision()
        if not self._point_in_domain(x, precision):
            raise DomainError(f"jet center {x} outside {self.domain}")
        if is_rational(x):
            try:
                return tree_jet(self.body, Fraction(x), 1, exact=True).coeffs[1]
            except _NeedNumeric:
                pass
        prec = precision + _GUARD_BITS
        slope = self._slope_kernel(prec)(raw_point(x, prec))[1]
        return slope if is_rational(slope) else mpmath.mp.make_mpf(slope)

    # -- jets ----------------------------------------------------------------

    def jet(self, center, order, precision=None) -> TruncatedSeries:
        """Taylor coefficients through the requested order; exact whenever
        every transcendental node is expanded at zero."""
        precision = precision or default_precision()
        if order < 0:
            raise ValueError("order must be >= 0")
        if not self._point_in_domain(center, precision):
            raise DomainError(f"jet center {center} outside {self.domain}")
        if self.is_polynomial():
            with mpmath.workprec(precision + _GUARD_BITS):
                return _series_from_poly(self.body.coeffs, as_exact(center), order)
        if isinstance(self.body, ConjugatedBody):
            return self._conjugated_jet(center, order, precision)
        tree = self.body
        if is_rational(center):
            try:
                return tree_jet(tree, Fraction(center), order, exact=True)
            except _NeedNumeric:
                pass
        with mpmath.workprec(precision + _GUARD_BITS):
            series = tree_jet(tree, to_mpf(center), order, exact=False)
        return series

    def _conjugated_jet(self, center, order, precision):
        change, inner = self.body.change, self.body.inner
        with mpmath.workprec(precision + 2 * _GUARD_BITS):
            w = to_mpf(center)
            fwd = change.forward.jet(w, order, precision)
            inner_jet = inner.jet(fwd.coeffs[0], order, precision)
            comp = inner_jet.compose(fwd)
            u3 = change.apply_inverse(comp.coeffs[0], precision)
            back = change.forward.jet(u3, order, precision).reversion()
            back = TruncatedSeries(comp.coeffs[0], back.coeffs)
            return back.compose(comp)

    # -- iteration -----------------------------------------------------------

    def iterate(self, n: int, x, precision=None):
        """n-fold composition applied to x, checking the orbit stays inside
        the domain step by step."""
        precision = precision or default_precision()
        if n < 0:
            raise ValueError("iteration count must be >= 0")
        current = x
        if not self._point_in_domain(current, precision):
            raise OrbitEscape(0, current)
        for k in range(n):
            current = self.eval(current, precision=precision)
            if k + 1 < n and not self._point_in_domain(current, precision):
                raise OrbitEscape(k + 1, current)
        return current

    # -- limits ---------------------------------------------------------------

    def limit_at(self, end) -> Limit:
        """Limit of the symbol toward an end of its domain: ``tree_limit``,
        except that an elementary body at a rational end is its value,
        computed at 96 bits by the compiled tree."""
        if isinstance(self.body, ConjugatedBody):
            return _UNKNOWN
        if is_rational(end) and self.is_elementary():
            approx = self._kernel(96)(raw_point(end, 96))
            return Limit("finite", approx=mpmath.mp.make_mpf(approx))
        return tree_limit(self.body, end)

    # -- display ---------------------------------------------------------------

    def __str__(self):
        return self.text or repr(self.body)

    def __repr__(self):
        return f"AnalyticSymbol({self}, domain={self.domain})"

    def with_domain(self, domain: Interval) -> "AnalyticSymbol":
        """The same map restricted to a smaller invariant interval; raises
        InvarianceFailure, with a witness, when the image leaves it.  A
        conjugated symbol is analysed through its inner symbol on the whole
        domain, so it cannot be restricted (HypothesisViolation)."""
        if isinstance(self.body, ConjugatedBody) and domain != self.domain:
            raise HypothesisViolation(
                f"a conjugated symbol cannot be restricted to {domain}")
        ok, witness, certified = self.maps_into(domain, [domain], 1024)
        if not ok:
            raise InvarianceFailure(f"image of {domain} leaves the interval",
                                    witness=witness)
        if not certified and self._diverges_inside(domain):
            raise InvarianceFailure(f"image of {domain} diverges inside the interval")
        restricted = AnalyticSymbol(self.body, domain, text=self.text,
                                    require_self_map=False, require_nonconstant=False)
        restricted.invariance_certified = certified
        # Same body: the same lowered tree, rounded coefficients and integer facts.
        restricted._programs, restricted._facts = self._programs, self._facts
        return restricted


def parse_symbol(text: str, domain=None, *, require_self_map=True) -> AnalyticSymbol:
    """Parse expression text into a symbol over the given open interval.

    The body is the folded tree; a constant map raises ConstantSymbolError.
    """
    domain = domain or Interval.real_line()
    if isinstance(domain, str):
        domain = Interval.parse(domain)
    body = fold(_Parser(text).parse())
    if isinstance(body, Poly) and len(body.coeffs) == 1:
        raise ConstantSymbolError(f"{text!r} denotes a constant map")
    return AnalyticSymbol(body, domain, text=text.strip(),
                          require_self_map=require_self_map)


def parse_change(text: str, domain=None) -> "Diffeomorphism":
    """Parse a coordinate change (no self-map requirement)."""
    return Diffeomorphism(parse_symbol(text, domain, require_self_map=False))


def parse_rhs(text: str, domain=None) -> AnalyticSymbol:
    """Parse a right-hand side function: constants allowed, no self-map
    requirement."""
    domain = domain or Interval.real_line()
    if isinstance(domain, str):
        domain = Interval.parse(domain)
    return AnalyticSymbol(fold(_Parser(text).parse()), domain, text=text.strip(),
                          require_self_map=False, require_nonconstant=False)


def identity_symbol(domain=None) -> AnalyticSymbol:
    return AnalyticSymbol.from_coefficients([0, 1], domain)


# ---------------------------------------------------------------------------
# Diffeomorphisms and conjugation


class Diffeomorphism:
    """An invertible analytic coordinate change with a usable inverse.

    The inverse is exact (affine forward maps) or a bracketed numeric root
    solve against the forward map.  A non-affine change takes its critical
    points and its direction from ``rootwork``.
    """

    __slots__ = ("forward", "increasing", "_affine")

    def __init__(self, forward: AnalyticSymbol):
        self.forward = forward
        self._affine = None
        if forward.is_polynomial() and len(forward.body.coeffs) == 2:
            offset, scale = forward.body.coeffs
            self._affine = (scale, offset)  # y = scale*x + offset
            self.increasing = scale > 0
            if scale == 0:
                raise NotADiffeomorphism("affine map with zero slope")
            return
        from .rootwork import _is_increasing, find_critical_points  # rootwork imports symbols
        self.increasing = _is_increasing(forward)
        if self.increasing is None or find_critical_points(forward):
            raise NotADiffeomorphism("critical point inside the domain")

    def image_interval(self):
        """The image of the forward map as limits at the domain ends."""
        lo = self.forward.limit_at(self.forward.domain.lower)
        hi = self.forward.limit_at(self.forward.domain.upper)
        return (lo, hi) if self.increasing else (hi, lo)

    def image_of(self, interval: Interval, onto: Interval, *, inward: bool):
        """The image of an interval of the domain under a change onto
        ``onto``, clipped to it (None when empty): an end of the domain goes
        to the matching end of ``onto``, any other to the change's value
        there, ``_nudged`` inward or outward so that rounding only shrinks,
        resp. grows, the image."""
        domain = self.forward.domain
        near, far = (onto.lower, onto.upper) if self.increasing else (onto.upper, onto.lower)
        ends = [near if interval.lower == domain.lower else self.apply(interval.lower, 96),
                far if interval.upper == domain.upper else self.apply(interval.upper, 96)]
        lo, hi = ends if self.increasing else ends[::-1]
        lo = ext_max(_nudged(lo, 1 if inward else -1), onto.lower)
        hi = ext_min(_nudged(hi, -1 if inward else 1), onto.upper)
        return Interval(lo, hi) if ext_lt(lo, hi) else None

    def apply(self, x, precision=None):
        precision = precision or default_precision()
        if self._affine is not None and is_exact(x):
            scale, offset = self._affine
            return scale * x + offset
        return self.forward.eval(x, precision=precision)

    def apply_inverse(self, y, precision=None):
        precision = precision or default_precision()
        if self._affine is not None:
            scale, offset = self._affine
            if is_exact(y):
                return (y - offset) * invert(scale)
            with mpmath.workprec(precision + _GUARD_BITS):
                return (y - to_mpf(offset)) / to_mpf(scale)
        return self._numeric_inverse(y, precision)

    def _numeric_inverse(self, y, precision):
        """The preimage of y: one walk from the domain's midpoint, its step
        doubling toward an infinite end and halving the gap to a finite one,
        brackets a sign change of the change minus y, and bisection narrows
        it.  DomainError when there is none, as outside the image.

        Bisection stops at a width of 2^-(precision + guard) relative to the
        bracket's smaller end, or, when the bracket holds 0, at the absolute
        floor 2^-(4*precision); its budget reaches that floor from the
        widest bracket the walk makes."""
        prec = precision + 2 * _GUARD_BITS
        domain = self.forward.domain
        with mpmath.workprec(prec):
            target = to_mpf(y)

            def shifted(x):
                return self.forward.eval(x, precision=prec) - target

            a = b = to_mpf(domain.midpoint())
            fa = fb = shifted(a)
            end, step = (domain.upper, 1) if (fa < 0) == self.increasing else (domain.lower, -1)
            for _ in range(2 * prec):
                if fb == 0 or (fb < 0) != (fa < 0):
                    break
                a, fa = b, fb
                b = (a + to_mpf(end)) / 2 if is_finite(end) else a + step
                step *= 2
                # At a finite end's last float the sign cannot change.
                fb = shifted(b) if b != a and domain.contains(b) else fa
            else:
                raise DomainError(f"{y} is outside the image of the coordinate change {self}")
            relative = mpmath.ldexp(1, -(precision + _GUARD_BITS))
            floor = mpmath.ldexp(1, -4 * precision)
            for _ in range(6 * prec):   # bisection; a and b in either order
                mid = (a + b) / 2
                fm = shifted(mid)
                if fm == 0:
                    return mid
                if (fm < 0) == (fa < 0):
                    a, fa = mid, fm
                else:
                    b = mid
                scale = min(abs(a), abs(b)) if (a < 0) == (b < 0) else 0
                if abs(b - a) < max(relative * scale, floor):
                    break
            return (a + b) / 2

    def roundtrip_error(self, x, precision=None):
        precision = precision or default_precision()
        with mpmath.workprec(precision + _GUARD_BITS):
            y = self.apply(x, precision)
            back = self.apply_inverse(y, precision)
            if is_exact(back) and is_exact(x):
                return back - x
            return abs(to_mpf(back) - to_mpf(x))

    def __str__(self):
        return f"{self.forward}"

    def __repr__(self):
        return f"Diffeomorphism({self.forward!r})"


def identity_diffeomorphism(domain=None) -> Diffeomorphism:
    return Diffeomorphism(identity_symbol(domain))


def conjugate(phi: AnalyticSymbol, delta: Diffeomorphism) -> AnalyticSymbol:
    """The conjugated symbol delta^(-1) o phi o delta on delta's domain.

    Exact (and in-grammar) for affine changes; other changes produce a
    numerically evaluated composite flagged as uncertified.
    """
    _require_image_matches(delta, phi.domain)
    new_domain = delta.forward.domain
    if delta._affine is not None:
        scale, offset = delta._affine
        inv_scale = invert(scale)
        if phi.is_polynomial():
            inner = polylib.compose(phi.body.coeffs, [offset, scale])
            coeffs = polylib.scale(polylib.sub(inner, [offset]), inv_scale)
            return AnalyticSymbol(Poly(tuple(coeffs)), new_domain)
        if phi.is_elementary() and is_rational(scale) and is_rational(offset):
            sub = substitute_affine(phi.body, scale, offset)
            body = fold(Mul((Poly((inv_scale,)), Add((sub, Poly((-offset,)))))))
            return AnalyticSymbol(body, new_domain)
    return AnalyticSymbol(ConjugatedBody(phi, delta), new_domain, require_nonconstant=False)


def _require_image_matches(delta: Diffeomorphism, target: Interval):
    """DomainError unless the change's limits at its domain's ends are the
    target's ends: equal when exact, within 2**-40 when approximated."""
    for lim, end in zip(delta.image_interval(), (target.lower, target.upper)):
        if lim.kind == "unknown":
            continue
        if not is_finite(end):
            missed = lim.kind != ("pos_inf" if end is POS_INF else "neg_inf")
        elif lim.kind in ("pos_inf", "neg_inf"):
            raise DomainError("coordinate change overshoots the symbol domain")
        else:   # a bounded limit at a finite end is not checked
            missed = lim.kind == "finite" and (lim.value != end if lim.exact else
                                               abs(lim.approx - to_mpf(end)) > mpmath.mpf(2) ** -40)
        if missed:
            raise DomainError("coordinate change is not onto the symbol domain")


# ---------------------------------------------------------------------------
# Quadratic normal form


class NoFixedPoints(Record):
    """Sentinel: the quadratic has no real fixed point."""


class QuadraticNormalForm(Record):
    """Data of the reduction to -x**2 + mu*x: the parameter, the affine
    change achieving it, and the original fixed points (u, v)."""

    mu: object                # Fraction or QuadraticNumber, >= 1
    delta: Diffeomorphism
    fixed_u: object
    fixed_v: object


def normalize_quadratic(a, b, c):
    """Reduce a*x^2 + b*x + c to its normal form -x^2 + mu*x, mu >= 1.

    Returns NoFixedPoints when the fixed point equation has no real root;
    otherwise chooses the fixed point ordering that makes
    mu = 1 + a*(u - v) at least one, and the affine change
    delta(x) = -x/a + u realizing the conjugation exactly.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        raise ValueError("leading coefficient must be nonzero")
    roots = sturm.solve_quadratic_exact([c, b - 1, a])
    if not roots:
        return NoFixedPoints()
    if len(roots) == 1:
        u = v = roots[0]
    else:
        low, high = roots
        if a < 0:
            u, v = low, high
        else:
            u, v = high, low
    mu = 1 + a * (u - v)
    delta_sym = AnalyticSymbol(Poly((u, Fraction(-1) / a)),
                               Interval.real_line(), require_self_map=False)
    delta = Diffeomorphism(delta_sym)
    return QuadraticNormalForm(mu=mu, delta=delta, fixed_u=u, fixed_v=v)
