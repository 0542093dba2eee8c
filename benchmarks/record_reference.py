"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit that defines the references:

    python3 benchmarks/record_reference.py

It rewrites benchmarks/reference.json.  Classification, obstruction and
CLI outputs are recorded byte for byte.  Evaluation references are
recorded at 1024 bits: through ``evaluate`` for points outside the core,
and from an order-150 series (checked against order 200) for points inside
it, where ``evaluate`` raises PrecisionLoss at this commit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath  # noqa: E402

import inputs  # noqa: E402
from workloads import Builder, agree, report_json, to_mpf  # noqa: E402

from compspec import continuation, solver, symbols, taxonomy  # noqa: E402

REFERENCE_PATH = os.path.join(HERE, "reference.json")
DIGITS = 110


@functools.lru_cache(maxsize=None)
def local_solution(eq: str, order: int):
    text, center, lam, gamma = inputs.EQUATIONS[eq]
    return solver.solve_formal(symbols.parse_symbol(text), center, lam,
                               symbols.parse_rhs(gamma), order,
                               precision=1200, estimate=False)


def series_value(eq: str, x, order: int):
    local = local_solution(eq, order)
    with mpmath.workprec(1200):
        arg = x if local.series.is_exact() else to_mpf(x)
        return to_mpf(local.series.eval(arg))


def in_core_reference(eq: str, x, bits: int = 220) -> str:
    low, high = series_value(eq, x, 150), series_value(eq, x, 200)
    if not agree(low, high, bits=bits):
        raise SystemExit(f"series reference for {eq} at {x} has not converged")
    with mpmath.workprec(1200):
        return mpmath.nstr(high, DIGITS)


def orbit_references() -> dict:
    out = {}
    for eq, (core, mid, far) in inputs.POINT_GRIDS.items():
        text, center, lam, gamma = inputs.EQUATIONS[eq]
        sol = continuation.globalize(
            symbols.parse_symbol(text), center, lam, symbols.parse_rhs(gamma),
            order=24, precision=256, check_basin=eq not in inputs.NO_BASIN)
        table = {str(x): in_core_reference(eq, x) for x in core}
        for x in list(mid) + list(far):
            value = continuation.evaluate(sol, x, precision=1024)[0]
            with mpmath.workprec(1200):
                table[str(x)] = mpmath.nstr(to_mpf(value), DIGITS)
        out[eq] = table
    return out


def main() -> int:
    refs = {"classify": {}, "obstruct": {}, "series": {}, "orbit": {},
            "cli": {}, "cli_arctan": {}, "cli_item4": {}}
    builder = Builder(ROOT, refs)
    texts = inputs.CATALOG_POLYNOMIALS + [inputs.poly_text(q)
                                          for p in inputs.pool_polynomials()
                                          for q in (p, inputs.mirror(p))]
    for text in texts:
        refs["classify"][text] = report_json(
            taxonomy.spectrum(symbols.parse_symbol(text)))
    for spec in inputs.OBSTRUCTIONS:
        refs["obstruct"][spec[0]] = builder.obstruction_op(*spec).run({})
    for op in builder.series_ops(0):
        if "arctan" in op.id:
            refs["series"][op.id] = [str(c) for c in op.run({}).coeffs]
    refs["orbit"] = orbit_references()
    for cid, argv in inputs.CLI_FIXED:
        if cid != "eval:item4@3/10":
            run = builder.cli_command(argv + ["--format", "json"])
            refs["cli"][cid] = run({})
    # The CLI prints 30 digits, so 100 bits of agreement suffice here.
    refs["cli_item4"]["eval:item4@3/10"] = in_core_reference(
        "item4-l2", F(3, 10), bits=100)
    text, center, lam, gamma = inputs.EQUATIONS["arctan-l2"]
    sol = continuation.globalize(symbols.parse_symbol(text), center, lam,
                                 symbols.parse_rhs(gamma), order=24, precision=256)
    for k in inputs.ARCTAN_EVAL_AT:
        value = continuation.evaluate(sol, F(k), precision=1024)[0]
        with mpmath.workprec(1200):
            refs["cli_arctan"][str(k)] = mpmath.nstr(to_mpf(value), DIGITS)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
