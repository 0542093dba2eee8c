"""Command-line front end.

Subcommands: classify, solve, eval, koenigs, orbit, obstruct, demo45.
Exit codes: 0 success, 2 typed mathematical errors (resonance, basin
escape, domain problems), 1 usage errors.  JSON output is deterministic:
exact values serialize as rational strings and no timestamps appear.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath

from .config import default_precision, parse_precision
from .errors import (CompspecError, DomainError, ExpressionSyntaxError,
                     HypothesisViolation)
from .intervals import Interval
from .numbers import (format_numeric, format_scalar, is_exact, is_rational,
                      is_real_exact, parse_gaussian, parse_scalar)

# Each subcommand imports its own pipeline, so that a process loads only
# the modules its command uses: classify and obstruct never load the
# solver or continuation, solve and koenigs never load the taxonomy.

_USAGE_EXIT = 1
_MATH_EXIT = 2


def _precision(text: str) -> int:
    """The type of ``--precision``: ``parse_precision``, as a usage error."""
    try:
        return parse_precision(text, "--precision")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(parser, *, symbol=True, lam=False, gamma=False, order=False,
                precision=True):
    if symbol:
        parser.add_argument("--symbol", required=True, help="expression text")
        parser.add_argument("--interval", default="(-inf,inf)",
                            help="open interval, e.g. (0,1) or (-inf,inf)")
    if lam:
        parser.add_argument("--lambda", dest="lam", required=True,
                            help="eigenvalue: rational, decimal or a+bi")
    if gamma:
        parser.add_argument("--gamma", required=True,
                            help="right-hand side expression")
        parser.add_argument("--orientation", choices=("resolvent", "section1"),
                            default="resolvent",
                            help="equation form; section1 rescales the "
                                 "right-hand side by -lambda")
    if order:
        parser.add_argument("--order", type=int, default=24)
    if precision:
        parser.add_argument("--precision", type=_precision, default=None)
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compspec",
        description="Spectra of composition operators on real analytic "
                    "functions, and global solutions of the resolvent "
                    "equation f(phi(x)) - lambda*f(x) = gamma(x).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="spectral classification of a symbol")
    _add_common(p, precision=False)

    p = sub.add_parser("solve", help="formal series solution at a fixed point")
    _add_common(p, lam=True, gamma=True, order=True)
    p.add_argument("--center", default=None,
                   help="fixed point (default: detected)")

    p = sub.add_parser("eval", help="evaluate the global solution at a point")
    _add_common(p, lam=True, gamma=True, order=True)
    p.add_argument("--at", required=True, help="evaluation point (rational)")
    p.add_argument("--center", default=None)

    p = sub.add_parser("koenigs", help="linearizing series at an attracting "
                                       "fixed point")
    _add_common(p, order=True)
    p.add_argument("--center", default=None)
    p.add_argument("--power", type=int, default=None,
                   help="return the n-th power (an eigenfunction)")

    p = sub.add_parser("orbit", help="preimage orbit toward the repelling "
                                     "fixed point of the quadratic normal form")
    p.add_argument("--mu", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision", type=_precision, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("obstruct", help="covering obstruction to surjectivity")
    _add_common(p, lam=True, precision=False)
    p.add_argument("--pieces", required=True,
                   help="semicolon-separated pieces; union components are "
                        "joined by + and an optional @interval declares the "
                        "determining interval, e.g. "
                        "\"(-inf,0.5)+(1,inf)@(-inf,0.5);(0,1.5)\"")

    p = sub.add_parser("demo45", help="non-surjectivity witness margins for "
                                      "the wide quadratic family")
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--precision", type=_precision, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _parse_lambda(text: str):
    lam = parse_gaussian(text)
    return lam.re if lam.im == 0 else lam


def _scale_rhs(gamma, factor: Fraction):
    from .symbols import AnalyticSymbol, Mul, Poly
    if isinstance(gamma.body, Poly):
        body = Poly(tuple(c * factor for c in gamma.body.coeffs))
    else:
        body = Mul((Poly((factor,)), gamma.body))
    return AnalyticSymbol(body, gamma.domain,
                          require_self_map=False, require_nonconstant=False)


def _load_equation(args):
    from .symbols import parse_rhs, parse_symbol
    domain = Interval.parse(args.interval)
    phi = parse_symbol(args.symbol, domain)
    lam = _parse_lambda(args.lam)
    gamma = parse_rhs(args.gamma, domain)
    if args.orientation == "section1":
        if not is_rational(lam):
            raise ExpressionSyntaxError(
                "section1 orientation needs a real rational eigenvalue", 0)
        gamma = _scale_rhs(gamma, Fraction(-lam))
    return phi, lam, gamma


# Newton steps that may refine a scanned fixed point before it is refused.
_NEWTON_STEPS = 8


def _detect_center(phi, requested, precision=None):
    """The expansion point: ``--center`` when given, else the first
    attracting (or else the first) fixed point.  A scanned location is
    known only numerically; given a precision, Newton steps at precision +
    24 bits refine it until the solver's fixed-point check accepts it."""
    if requested is not None:
        return parse_scalar(requested)
    from .rootwork import find_fixed_points
    from .sturm import Enclosure
    records = [] if phi.is_identity() else find_fixed_points(phi)
    if not records:
        raise CompspecError("the symbol has no fixed point to expand at")
    attracting = [r for r in records
                  if r.kind in ("attracting", "superattracting", "neutral")]
    pick = attracting[0] if attracting else records[0]
    if is_real_exact(pick.location):
        return pick.location
    if precision is not None and not isinstance(pick.location, Enclosure):
        center = _newton_center(phi, pick.location, precision)
        if center is not None:
            return center
    raise CompspecError("fixed point is known only as an enclosure or numerically; "
                        "pass --center explicitly")


def _newton_center(phi, x, precision):
    """x <- x - (phi(x) - x) / (phi'(x) - 1) from a scanned fixed point,
    until ``solver._check_fixed_point`` accepts x at ``precision``; None
    when it does not within _NEWTON_STEPS steps."""
    from .solver import _check_fixed_point
    work = precision + 24
    for _ in range(_NEWTON_STEPS):
        with mpmath.workprec(work):
            try:
                x = x - (phi.eval(x, work) - x) / (phi.derivative_at(x, work) - 1)
            except (DomainError, ZeroDivisionError):
                return None   # the step left the domain or met slope 1
        try:
            _check_fixed_point(phi, x, precision)
        except HypothesisViolation:
            continue
        return x
    return None


def _center_text(center, precision) -> str:
    if is_exact(center):
        return format_scalar(center)
    with mpmath.workprec(precision):
        return format_numeric(center, 30)


def _emit(args, text_lines, doc):
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _series_text(series) -> list[str]:
    lines = []
    for n, c in enumerate(series.coeffs):
        if is_exact(c):
            lines.append(f"  f_{n} = {format_scalar(c)}")
        else:
            lines.append(f"  f_{n} = {mpmath.nstr(c, 20)}")
    return lines


def _cmd_classify(args) -> int:
    from .symbols import parse_symbol
    from .taxonomy import spectrum
    phi = parse_symbol(args.symbol, Interval.parse(args.interval))
    report = spectrum(phi)
    doc = report.to_json_dict()
    lines = [f"symbol: {phi}",
             f"case: {report.case_id}",
             f"sigma: {json.dumps(doc['sigma'])}",
             f"sigma_p: {json.dumps(doc['sigma_p'])}",
             f"resolved: {report.resolved}",
             f"certified: {report.certified}",
             f"open problem: {report.open_problem}",
             f"citations: {', '.join(report.citations)}"]
    _emit(args, lines, doc)
    return 0


def _cmd_solve(args) -> int:
    from .solver import solve_formal
    phi, lam, gamma = _load_equation(args)
    precision = args.precision or default_precision()
    center = _detect_center(phi, args.center, precision)
    sol = solve_formal(phi, center, lam, gamma, args.order, precision=precision)
    doc = sol.to_json_dict()
    lines = [f"fixed point: {_center_text(center, precision)}",
             f"multiplier: {_center_text(sol.multiplier, precision)}"]
    lines += _series_text(sol.series)
    verdict = doc["radius"]
    lines.append(f"verdict: {verdict['verdict'] if verdict else 'n/a'}")
    _emit(args, lines, doc)
    return 0


def _cmd_eval(args) -> int:
    from .continuation import evaluate, globalize
    phi, lam, gamma = _load_equation(args)
    center = _detect_center(phi, args.center)
    precision = args.precision or default_precision()
    sol = globalize(phi, center, lam, gamma, order=args.order,
                    precision=precision)
    point = Fraction(args.at)
    value, trace = evaluate(sol, point, precision=precision)
    with mpmath.workprec(precision):
        value_text = format_scalar(value) if is_exact(value) \
            else format_numeric(value, 30)
    doc = {"at": format_scalar(point), "value": value_text,
           "trace": trace.to_json_dict(),
           "core": str(sol.core)}
    lines = [f"f({point}) = {value_text}",
             f"rules: {', '.join(trace.rule_chain)} (depth {trace.depth})",
             f"residual: {trace.residual or '0'}"]
    _emit(args, lines, doc)
    return 0


def _cmd_koenigs(args) -> int:
    from .solver import eigenfunction, koenigs
    from .symbols import parse_symbol
    phi = parse_symbol(args.symbol, Interval.parse(args.interval))
    precision = args.precision or default_precision()
    center = _detect_center(phi, args.center, precision)
    if args.power is not None:
        series = eigenfunction(phi, center, args.power, args.order,
                               precision=precision)
        label = f"eigenfunction power {args.power}"
    else:
        series = koenigs(phi, center, args.order, precision=precision)
        label = "linearizer"
    doc = {"kind": label, "series": series.to_json_dict()}
    _emit(args, [f"{label} at {_center_text(center, precision)}:"] + _series_text(series),
          doc)
    return 0


def _cmd_orbit(args) -> int:
    from .continuation import preimage_orbit
    precision = args.precision or default_precision()
    mu = Fraction(args.mu)
    orbit = preimage_orbit(mu, args.n, precision=precision)
    with mpmath.workprec(precision):
        rows = [(k + 1, mpmath.nstr(x, 24),
                 mpmath.nstr(orbit[k] / orbit[k - 1], 12) if k else "")
                for k, x in enumerate(orbit)]
    doc = {"mu": format_scalar(mu), "n": args.n,
           "points": [{"index": i, "x": x, "ratio": r} for i, x, r in rows]}
    lines = [f"preimage orbit for mu={mu}:"]
    lines += [f"  x_{i} = {x}" + (f"   ratio {r}" if r else "") for i, x, r in rows]
    _emit(args, lines, doc)
    return 0


def _parse_pieces(text: str):
    from .taxonomy import CoverPiece
    pieces = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        determining = None
        if "@" in chunk:
            chunk, det_text = chunk.split("@", 1)
            determining = Interval.parse(det_text.strip())
        intervals = tuple(Interval.parse(part.strip())
                          for part in chunk.split("+"))
        pieces.append(CoverPiece(intervals, determining=determining))
    if not pieces:
        raise ExpressionSyntaxError("no pieces given", 0)
    return pieces


def _cmd_obstruct(args) -> int:
    from .symbols import parse_symbol
    from .taxonomy import covering_obstruction
    phi = parse_symbol(args.symbol, Interval.parse(args.interval))
    lam = _parse_lambda(args.lam)
    pieces = _parse_pieces(args.pieces)
    obstruction = covering_obstruction(phi, lam, pieces)
    doc = obstruction.to_json_dict()
    lines = [f"verdict: {obstruction.verdict}"]
    for piece, kernel in zip(obstruction.pieces, obstruction.piece_kernels):
        lines.append(f"  piece {piece.label()}: kernel {kernel}")
    for i, j, region, kernel in obstruction.intersection_kernels:
        lines.append(f"  intersection {i} & {j} on {region}: kernel {kernel}")
    _emit(args, lines, doc)
    return 0


def _cmd_demo45(args) -> int:
    from .continuation import prop45_witness_demo
    precision = args.precision or default_precision()
    report = prop45_witness_demo(Fraction(args.mu), _parse_lambda(args.lam),
                                 args.k, Fraction(args.c), args.n,
                                 precision=precision)
    doc = report.to_json_dict()
    lines = [f"margin (6c budget): {report.margin_bound}",
             f"margin (actual sums): {report.margin_actual}",
             f"positive: {report.positive}",
             "note: a positive margin contradicts the existence of a "
             "solution; reported, not asserted as a theorem"]
    _emit(args, lines, doc)
    return 0


_HANDLERS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "koenigs": _cmd_koenigs,
    "orbit": _cmd_orbit,
    "obstruct": _cmd_obstruct,
    "demo45": _cmd_demo45,
}


_VALUE_FLAGS = {"--symbol", "--interval", "--lambda", "--gamma", "--at",
                "--center", "--mu", "--c", "--pieces", "--order",
                "--precision", "--n", "--k", "--power", "--format",
                "--orientation"}


def _join_flag_values(argv):
    """Glue '--flag value' into '--flag=value' so expression arguments that
    begin with a minus sign survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_flag_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except ExpressionSyntaxError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except CompspecError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _MATH_EXIT


if __name__ == "__main__":
    sys.exit(main())
