"""Closed-loop operation runner: per-operation budget, outcomes, statistics.

One client in one process runs the fixed operation list of a workload, one
operation at a time.  Every operation runs under a wall-clock budget
enforced with SIGALRM; the timeout exception derives from BaseException so
that no ``except Exception`` inside the program can swallow it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import mpmath

OK, ERROR, TIMEOUT, WRONG = "ok", "error", "timeout", "wrong"


class OpTimeout(BaseException):
    """Raised by the alarm handler when an operation overruns its budget."""


class MissingInput(Exception):
    """An operation needs the output of an earlier one that did not succeed."""


@dataclass
class Op:
    """One operation of a workload.

    ``run(state)`` performs the work and returns the output; ``state`` is a
    per-pass dict through which an operation reads outputs of earlier ones
    (a global solution built by a ``globalize`` operation, say).
    ``check(output, state)`` returns True when the output is correct.
    ``stores`` names the state key that receives the output on success;
    ``work(output)`` gives the computed work size (summed coefficient bits)
    that a traced run records.
    """

    id: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], bool]
    stores: str | None = None
    work: Callable[[Any], int] | None = None


@dataclass
class Outcome:
    op_id: str
    status: str          # ok, error, timeout or wrong
    detail: str          # error type name, or "" when ok
    seconds: float

    def label(self) -> str:
        return f"{self.status}:{self.detail}" if self.detail else self.status


def _on_alarm(signum, frame):
    raise OpTimeout()


def call_with_budget(fn, budget: float):
    """Call fn() and raise OpTimeout if it runs longer than budget seconds."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(op: Op, state: dict, budget: float, tracer=None) -> Outcome:
    """Run one operation under the budget, then check its output.

    The check runs outside the timed region and with tracing paused.  A
    timed-out operation's trace records are discarded, so that counters
    repeat exactly from run to run.
    """
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter()
    try:
        output = call_with_budget(lambda: op.run(state), budget)
    except OpTimeout:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op(keep=False)
        return Outcome(op.id, TIMEOUT, "", elapsed)
    except Exception as exc:  # every failure is recorded by its type
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op(keep=True)
        return Outcome(op.id, ERROR,
                       getattr(exc, "outcome_detail", type(exc).__name__), elapsed)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        if op.work is not None:
            tracer.add("power_series.coeff_bits", op.work(output))
        tracer.end_op(keep=True)
    try:
        correct = bool(op.check(output, state))
    except Exception as exc:
        correct = False
        detail = f"check raised {type(exc).__name__}"
    else:
        detail = "" if correct else "check failed"
    if not correct:
        return Outcome(op.id, WRONG, detail, elapsed)
    if op.stores:
        state[op.stores] = output
    return Outcome(op.id, OK, "", elapsed)


def run_pass(ops: list[Op], budget: float, tracer=None, probe=None) -> list[Outcome]:
    state: dict = {}
    outcomes = []
    for op in ops:
        if probe is not None:
            probe.tick()
        outcomes.append(run_op(op, state, budget, tracer))
    return outcomes


def _exact_calibration():
    # Rational arithmetic with growing integers, as in Sturm chains and
    # exact series: Horner's rule for a truncated composition.
    f = [Fraction(1, k + 2) for k in range(30)]
    phi = (Fraction(0), Fraction(1), Fraction(-1, 3))
    acc = [Fraction(0)] * 30
    for c in reversed(f):
        nxt = [Fraction(0)] * 30
        for i, a in enumerate(acc):
            if a:
                for j, b in enumerate(phi):
                    if b and i + j < 30:
                        nxt[i + j] += a * b
        nxt[0] += c
        acc = nxt
    return acc


def _numeric_calibration():
    # Interpreter-bound work: pure-Python mpmath at 256 bits, small ints.
    with mpmath.workprec(256):
        x = mpmath.mpf(1) / 3
        for _ in range(300):
            x = x * x + mpmath.mpf(1) / 7
    total = 0
    for i in range(15000):
        total += (i * i) % 7
    return x, total


class SpeedProbe:
    """The machine's speed during a run, from fixed work that never calls
    the program.

    On a shared machine the processor's speed drifts by 20-30% from one
    minute to the next, which moves every timing of a run together.  The
    probe times two small calibration loops (exact rational and
    interpreter-bound) between operations, about every 0.3 s.  The loops
    gain more from the machine's fast spells than the workloads do (about
    1.7x against 1.3x on the reference machine), so ``factor()`` is the
    ratio of the nominal calibration time to the run's median one, raised
    to ELASTICITY (fitted on 20 runs of classify-poly and series that
    straddled fast and slow spells).  A measured time multiplied by the
    factor estimates the time at the reference machine's nominal speed.
    No change to the program can move the factor.
    """

    NOMINAL_S = 0.0058   # geometric mean of the two loops, reference machine
    INTERVAL_S = 0.3
    ELASTICITY = 0.6

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self):
        start = time.perf_counter()
        _exact_calibration()
        middle = time.perf_counter()
        _numeric_calibration()
        end = time.perf_counter()
        self.samples.append(math.sqrt((middle - start) * (end - middle)))
        self._next = end + self.INTERVAL_S

    def tick(self):
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self) -> float:
        return (self.NOMINAL_S / statistics.median(self.samples)) ** self.ELASTICITY


def scaled(outcome: Outcome, factor: float) -> float:
    """An operation's latency at reference speed.  A timeout lasted the
    budget, whatever the machine's speed, so it is not scaled."""
    return outcome.seconds if outcome.status == TIMEOUT else factor * outcome.seconds


def tail(latencies: list[float]):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n).  With n samples sorted ascending, the
    value at index n-11 has exactly ten samples above it, which makes it
    the 100*(n-10)/n percentile.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def pass_wall(passes: list[list[Outcome]], factor: float = 1.0) -> float:
    """Wall time of one pass over the operation list: the sum over
    operations of each one's median latency across passes.

    On a shared machine the speed of the processor drifts by 20% within
    seconds; a per-operation median drops the passes an operation spent in
    a slow spell, where the median of whole-pass sums would not.
    """
    return sum(statistics.median(scaled(p[i], factor) for p in passes)
               for i in range(len(passes[0])))


def summarize(passes: list[list[Outcome]], factor: float = 1.0) -> dict:
    """End-to-end figures over all passes of a run.

    wall_s is given by pass_wall (checks and harness work excluded);
    latency percentiles pool every operation of every pass, failures
    included at their time-to-failure.  Latencies are scaled to reference
    speed by ``factor`` (see SpeedProbe); factor 1 gives the raw figures.
    """
    outcomes = [o for p in passes for o in p]
    latencies = [scaled(o, factor) for o in outcomes]
    tail_value, tail_pct, n = tail(latencies)
    attempted = len(outcomes)
    wrong = sum(o.status == WRONG for o in outcomes)
    failed = sum(o.status != OK for o in outcomes)
    return {
        "wall_s": pass_wall(passes, factor),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_value,
        "tail_percentile": tail_pct,
        "n": n,
        "passes": len(passes),
        "pass_wall_s": [sum(o.seconds for o in p) for p in passes],
        "attempted": attempted,
        "failed": failed,
        "wrong_outputs": wrong,
        "fail_share": failed / attempted,
        "ok_share": (attempted - failed) / attempted,
    }


def outcome_list(passes: list[list[Outcome]]) -> dict:
    """Per-operation outcome labels and latencies (ms) by stable id, one
    entry per pass, and the operation's median latency."""
    table: dict[str, dict] = {}
    for p in passes:
        for o in p:
            entry = table.setdefault(o.op_id, {"outcomes": [], "ms": []})
            entry["outcomes"].append(o.label())
            entry["ms"].append(1000.0 * o.seconds)
    for entry in table.values():
        entry["median_ms"] = statistics.median(entry["ms"])
    return table
