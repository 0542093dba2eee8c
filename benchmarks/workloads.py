"""Operation lists of the four workloads, with their output checks.

Each check compares with a reference recorded at the seed commit
(``reference.json``, written by ``record_reference.py``) or with an
independent oracle: the binomial recurrence for x - x^2, a Horner
evaluation of the functional equation written here, the closed form of the
halving equation, reflection invariance of the classification, and
agreement between extension rules.

Program functions are always looked up through their module at call time
(``symbols.parse_symbol(...)``), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import mpmath

import inputs
from harness import MissingInput, Op

from compspec import cli, continuation, solver, symbols, taxonomy
from compspec.intervals import Interval
from compspec.numbers import parse_gaussian

TOL_BITS = 200
# `compspec eval` prints 30 digits, but only about 16 are right: the
# command rounds the value to the default 53-bit mpmath precision
# (numbers.to_mpf without prec) before printing.  Its printed values are
# therefore checked to 50 bits; tighten to 90 once the command keeps its
# working precision.
CLI_VALUE_BITS = 50
BUDGET_S = {"classify-poly": 30.0, "series": 30.0, "orbit": 1.0, "cli": 5.0}

# Known failures at the seed commit, by operation id prefix, with diagnosis.
KNOWN_FAILURES = {
    "orbit/globalize/item4-l2": "hangs in numbers._squarefree_split via "
        "attraction_basin_check -> sturm.poly_maps_into -> _crossing_witness "
        "-> isolate_roots -> solve_quadratic_exact, before any orbit unwinding",
    "orbit/globalize/attracting-l2": "same hang as item4-l2",
    "cli/eval:item4@3/10": "same hang, inside the CLI's globalize",
    "orbit/evaluate/item4-l2": "in-core points: exact path produces a "
        "nonzero residual (PrecisionLoss)",
    "orbit/evaluate/attracting-l2": "in-core points: exact path produces a "
        "nonzero residual (PrecisionLoss)",
    "orbit/evaluate/arctan": "in-core points: residual above tolerance at "
        "4096 bits (PrecisionLoss); the same holds for every non-polynomial "
        "numeric solution",
    "orbit/evaluate/sin-l3": "in-core points: PrecisionLoss, as for arctan",
    "orbit/evaluate/mixed-l2": "in-core points: PrecisionLoss, as for arctan",
    "cli/eval:arctan": "not a failure, a precision defect: the printed value "
        "has 30 digits of which about 16 are right (see CLI_VALUE_BITS)",
}


class CliExit(Exception):
    """A CLI command exited with a nonzero code."""

    def __init__(self, code: int, stderr: str):
        first = stderr.split(":", 1)[0].strip() or "no-message"
        super().__init__(f"exit {code}: {stderr.strip()[:200]}")
        self.outcome_detail = f"exit{code}:{first}"


def to_mpf(value):
    if isinstance(value, F):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


def agree(value, reference, bits: int = TOL_BITS) -> bool:
    """|value - reference| <= 2^-bits * max(1, |reference|); the reference
    may be a decimal string, read at 1100 bits."""
    with mpmath.workprec(1100):
        x, y = to_mpf(value), to_mpf(reference)
        return abs(x - y) <= mpmath.mpf(2) ** -bits * max(1, abs(y))


def series_residual(f, phi, lam, gamma, order: int) -> list:
    """Coefficients of f(phi(x)) - lam*f(x) - gamma(x) through ``order``,
    for polynomial phi with phi(0) = 0, by Horner's rule on truncated
    coefficient lists (center 0)."""
    acc = [F(0)] * (order + 1)
    for c in reversed(f):
        nxt = [F(0)] * (order + 1)
        for i, a in enumerate(acc):
            if a:
                for j, b in enumerate(phi):
                    if b and i + j <= order:
                        nxt[i + j] += a * b
        nxt[0] += c
        acc = nxt
    gamma = list(gamma) + [F(0)] * (order + 1)
    return [acc[n] - lam * f[n] - gamma[n] for n in range(order + 1)]


def coeff_bits(series) -> int:
    """Summed bit length of the exact coefficients of a series."""
    return sum(c.numerator.bit_length() + c.denominator.bit_length()
               for c in series.coeffs if isinstance(c, F))


def report_json(report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True)


def canonical(doc):
    """A report document with the parts of every set expression sorted."""
    if isinstance(doc, dict):
        out = {k: canonical(v) for k, v in doc.items()}
        if isinstance(out.get("parts"), list):
            out["parts"] = sorted(out["parts"], key=lambda p: json.dumps(p, sort_keys=True))
        return out
    if isinstance(doc, list):
        return [canonical(v) for v in doc]
    return doc


def repeated(op: Op, times: int) -> list[Op]:
    """The operation and times-1 copies with ids suffixed #2, #3, ..."""
    return [op] + [Op(f"{op.id}#{k}", op.run, op.check, op.stores, op.work)
                   for k in range(2, times + 1)]


class Builder:
    """Builds one workload's operations for a seed; holds the references
    and the memo of costly checks (identical outputs are checked once)."""

    def __init__(self, root: str, references: dict):
        self.root = root
        self.refs = references
        self._memo: dict = {}

    def _recorded(self, table, key):
        """Byte-identical comparison with a recorded output."""
        return lambda out: out == self.refs[table][key]

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- classify-poly ----------------------------------------------------------

    def classify_ops(self, seed: int) -> list[Op]:
        data = inputs.classify_inputs(seed)
        ops = [self._spectrum_op(t, self._recorded("classify", t))
               for t in data["catalog"]]
        for text in data["pool"]:
            ops.append(self._spectrum_op(text, self._recorded("classify", text)))
        for spec in data["obstructions"]:
            ops.append(self.obstruction_op(*spec))
        once = {f"classify/spectrum/{text}" for text in data["slow"]}
        ops = [r for op in ops
               for r in repeated(op, 1 if op.id in once else inputs.REPEATS)]
        ops += [self._spectrum_op(text, self._mirror_oracle(text))
                for text in data["seeded"]]
        return inputs.shuffled(ops, data["order"])

    def _spectrum_op(self, text, check) -> Op:
        def run(state):
            return report_json(taxonomy.spectrum(symbols.parse_symbol(text)))
        return Op(f"classify/spectrum/{text}", run, lambda out, s: check(out))

    def _mirror_oracle(self, text):
        """The report of -p(-x) must equal the report of p (conjugation),
        up to the order of set parts, which follows the fixed points from
        left to right and so is reversed in the mirror image."""
        def check(out):
            def mirrored():
                coeffs = symbols.parse_symbol(text).rational_coeffs()
                phi = symbols.parse_symbol(inputs.poly_text(inputs.mirror(coeffs)))
                return canonical(taxonomy.spectrum(phi).to_json_dict())
            return canonical(json.loads(out)) == self.memo(("mirror", text), mirrored)
        return check

    def obstruction_op(self, op_id, text, lam, pieces) -> Op:
        def run(state):
            phi = symbols.parse_symbol(text)
            value = parse_gaussian(lam)
            value = value.re if value.im == 0 else value
            cover = [taxonomy.CoverPiece(
                tuple(Interval.parse(t) for t in intervals),
                determining=Interval.parse(det) if det else None)
                for intervals, det in pieces]
            result = taxonomy.covering_obstruction(phi, value, cover)
            return json.dumps(result.to_json_dict(), sort_keys=True)
        check = self._recorded("obstruct", op_id)
        return Op(f"classify/obstruct/{op_id}", run, lambda out, s: check(out))

    # -- series -----------------------------------------------------------------

    def series_ops(self, seed: int) -> list[Op]:
        data = inputs.series_inputs(seed)
        ops = [self._parabolic_solve_op(F(2), n) for n in data["orders"]]
        ops += [self._parabolic_solve_op(lam, 30) for lam in data["seeded_lambdas"]]
        ops.append(self._koenigs_quadratic_op())
        ops.append(self._arctan_series_op("koenigs", None))
        ops += [self._arctan_series_op("eigenfunction", n) for n in (2, 3)]
        ops = [self._parabolic_solve_op(F(2), n) for n in data["slow_orders"]] + [
            r for op in ops for r in repeated(op, inputs.REPEATS)]
        return inputs.shuffled(ops, data["order"])

    def _parabolic_solve_op(self, lam, order) -> Op:
        op_id = f"series/solve_formal/-x^2+x/lam={lam}/order={order}"

        def run(state):
            phi = symbols.parse_symbol("-x^2+x")
            return solver.solve_formal(phi, F(0), lam, symbols.parse_rhs("x"), order)

        def check(sol, state):
            coeffs = list(sol.series.coeffs)
            if not all(isinstance(c, F) for c in coeffs):
                return False

            def verdict():
                if coeffs != solver.quadratic_id_recurrence(lam, order):
                    return False
                if any(series_residual(coeffs, [F(0), F(1), F(-1)], lam,
                                       [F(0), F(1)], order)):
                    return False
                # The program's own residual is costly past order 60.
                return order > 60 or not any(sol.residual_series().coeffs)
            return self.memo((op_id, tuple(coeffs)), verdict)

        return Op(op_id, run, check, work=lambda sol: coeff_bits(sol.series))

    def _koenigs_quadratic_op(self) -> Op:
        order = 64

        def run(state):
            return solver.koenigs(symbols.parse_symbol("1/2*x - x^2"), F(0), order)

        def check(sigma, state):
            coeffs = list(sigma.coeffs)
            if not all(isinstance(c, F) for c in coeffs) or coeffs[2] != -4:
                return False
            # sigma(phi(x)) = m*sigma(x): the residual with gamma = 0, lam = m.
            return self.memo(("koenigs-quadratic", tuple(coeffs)), lambda: not any(
                series_residual(coeffs, [F(0), F(1, 2), F(-1)], F(1, 2), [], order)))

        return Op("series/koenigs/1/2*x-x^2/order=64", run, check,
                  work=coeff_bits)

    def _arctan_series_op(self, kind, power) -> Op:
        order = 32
        op_id = f"series/{kind}/1/2*arctan(x)/order={order}" + (
            f"/power={power}" if power else "")

        def run(state):
            phi = symbols.parse_symbol("1/2*arctan(x)")
            if power:
                return solver.eigenfunction(phi, F(0), power, order)
            return solver.koenigs(phi, F(0), order)

        def check(series, state):
            coeffs = [str(c) for c in series.coeffs]
            if not series.is_exact() or coeffs != self.refs["series"][op_id]:
                return False

            def residual_zero():
                phi = symbols.parse_symbol("1/2*arctan(x)")
                eigenvalue = F(1, 2) ** (power or 1)
                return not any(solver.schroeder_residual(phi, series, eigenvalue).coeffs)
            return self.memo((op_id, tuple(coeffs)), residual_zero)

        return Op(op_id, run, check, work=coeff_bits)

    # -- orbit ------------------------------------------------------------------

    def orbit_ops(self, seed: int) -> list[Op]:
        data = inputs.orbit_inputs(seed)
        ops = []
        for eq in inputs.EQUATIONS:
            ops.append(self._globalize_op(eq, check_basin=True))
            if eq in inputs.NO_BASIN:
                ops.append(self._globalize_op(eq, check_basin=False))
            for x in data["points"][eq]:
                for bits in inputs.ORBIT_BITS:
                    ops.append(self._evaluate_op(eq, x, bits))
        for y in data["mirror"]:
            ops.append(self._rule_op("extend_forward", y, store=f"rule:{y}"))
            ops.append(self._rule_op("extend_mirror", y, compare=f"rule:{y}"))
        for x in data["inverse"]:
            ops.append(self._rule_op("extend_inverse_branch", x, store=f"rule:{x}"))
            ops.append(self._rule_op("extend_mirror", 1 - x, compare=f"rule:{x}"))
        return ops

    def _globalize_op(self, eq, check_basin) -> Op:
        text, center, lam, gamma = inputs.EQUATIONS[eq]
        name = "globalize" if check_basin else "globalize-nobasin"

        def run(state):
            phi = symbols.parse_symbol(text)
            return continuation.globalize(phi, center, lam, symbols.parse_rhs(gamma),
                                          order=24, precision=256,
                                          check_basin=check_basin)

        def check(sol, state):
            return sol.core.contains(center) and sol.local.series.order == 24

        return Op(f"orbit/{name}/{eq}", run, check, stores=f"{name}:{eq}")

    def _evaluate_op(self, eq, x, bits) -> Op:
        def run(state):
            # The default solution where it exists, else the one built
            # without the basin check.
            sol = state.get(f"globalize:{eq}") or state.get(f"globalize-nobasin:{eq}")
            if sol is None:
                raise MissingInput(f"no global solution for {eq}")
            return continuation.evaluate(sol, x, precision=bits)[0]

        def check(value, state):
            if eq == "halving-l5":  # closed form -1/4 - 4/19*x^2
                return value == F(-1, 4) - F(4, 19) * x * x
            return agree(value, self.refs["orbit"][eq][str(x)])

        return Op(f"orbit/evaluate/{eq}@{x}/{bits}", run, check)

    def _rule_op(self, rule, x, store=None, compare=None) -> Op:
        def run(state):
            sol = state.get("globalize:parabolic-l2")
            if sol is None:
                raise MissingInput("no global solution for parabolic-l2")
            return getattr(continuation, rule)(sol, x, 256)

        def check(value, state):
            # lambda = 2, gamma = 1: the solution is the constant -1.  Two
            # rules reaching the same point must agree as well.
            return agree(value, "-1") and (
                compare not in state or agree(value, state[compare]))

        return Op(f"orbit/{rule}/parabolic-l2@{x}", run, check, store)

    # -- cli --------------------------------------------------------------------

    def cli_ops(self, seed: int, in_process: bool = False) -> list[Op]:
        data = inputs.cli_inputs(seed)
        commands = [(cid, argv, self._cli_fixed_check(cid))
                    for cid, argv in data["fixed"]]
        for k in data["arctan_at"]:
            commands.append((f"eval:arctan@{k}",
                             ["eval", "--symbol", "1/2*arctan(x)", "--lambda", "2",
                              "--gamma", "x", "--at", str(k)],
                             self._cli_value_check("cli_arctan", str(k))))
        for x in data["halving_at"]:
            exact = F(-1, 4) - F(4, 19) * x * x
            commands.append((f"eval:halving@{x}",
                             ["eval", "--symbol", "1/2*x", "--lambda", "5",
                              "--gamma", "1+x^2", "--at", str(x)],
                             lambda out, exact=exact:
                             json.loads(out)["value"] == str(exact)))
        commands = inputs.shuffled(commands, data["order"])
        ops = []
        for cid, argv, check in commands:
            argv = argv + ["--format", "json"]
            ops.append(Op(f"cli/{cid}", self.cli_command(argv),
                          lambda out, s, c=check: c(out)))
            if in_process:
                ops.append(Op(f"cli-main/{cid}", self._main_run(argv),
                              lambda out, s, c=check: c(out)))
        return ops

    def _cli_fixed_check(self, cid):
        if cid == "eval:item4@3/10":
            return self._cli_value_check("cli_item4", cid)
        return self._recorded("cli", cid)

    def _cli_value_check(self, table, key):
        return lambda out: agree(json.loads(out)["value"], self.refs[table][key],
                                 bits=CLI_VALUE_BITS)

    def cli_env(self) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env

    def cli_command(self, argv):
        command = [sys.executable, "-m", "compspec.cli"] + argv
        env = self.cli_env()

        def run(state):
            with subprocess.Popen(command, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  env=env, cwd=self.root) as proc:
                try:
                    out, err = proc.communicate()
                except BaseException:  # the budget's OpTimeout included
                    proc.kill()
                    proc.wait()
                    raise
            if proc.returncode != 0:
                raise CliExit(proc.returncode, err)
            return out
        return run

    @staticmethod
    def _main_run(argv):
        def run(state):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise CliExit(code, err.getvalue())
            return out.getvalue()
        return run

    # -- dispatch ---------------------------------------------------------------

    def ops(self, workload: str, seed: int, in_process_cli: bool = False) -> list[Op]:
        if workload == "cli":
            return self.cli_ops(seed, in_process=in_process_cli)
        return {"classify-poly": self.classify_ops, "series": self.series_ops,
                "orbit": self.orbit_ops}[workload](seed)

