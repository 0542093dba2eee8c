"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import json  # noqa: E402

import pytest  # noqa: E402

import harness  # noqa: E402
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from harness import ERROR, OK, TIMEOUT, WRONG, Op  # noqa: E402

from compspec import symbols  # noqa: E402


@pytest.fixture(scope="module")
def builder():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return workloads.Builder(os.path.dirname(HERE), json.load(fh))


@pytest.mark.parametrize("generate", [inputs.classify_inputs, inputs.series_inputs,
                                      inputs.orbit_inputs, inputs.cli_inputs])
def test_inputs_repeat_for_a_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_operation_lists_repeat_for_a_seed(builder, workload):
    ids = [op.id for op in builder.ops(workload, 3)]
    assert ids == [op.id for op in builder.ops(workload, 3)]
    assert len(ids) == len(set(ids))


def test_mirror_is_an_involution():
    p = inputs.pool_polynomials()[0]
    assert inputs.mirror(inputs.mirror(p)) == p


def test_held_out_seed_has_references(builder):
    # Every generated input of the held-out seed can be checked.
    for workload in inputs.WORKLOADS:
        for op in builder.ops(workload, inputs.HELD_OUT_SEED):
            if op.id.startswith("orbit/evaluate/"):
                point = op.id[len("orbit/evaluate/"):].rsplit("/", 1)[0]
                eq, x = point.split("@")
                assert x in builder.refs["orbit"][eq]
            if op.id.startswith("cli/eval:arctan@"):
                assert op.id.split("@")[1] in builder.refs["cli_arctan"]


def _op(run, check=lambda out, state: out == 1):
    return Op("fake", run, check)


def _swallowing_overrun(state):
    # An overrun inside a broad handler must still end as a timeout.
    try:
        while True:
            time.sleep(0.01)
    except Exception:
        return 1


@pytest.mark.parametrize("run, check, status, detail", [
    (lambda state: 1, lambda out, state: out == 1, OK, ""),
    (lambda state: 2, lambda out, state: out == 1, WRONG, "check failed"),
    (lambda state: 1 / 0, lambda out, state: True, ERROR, "ZeroDivisionError"),
    (_swallowing_overrun, lambda out, state: True, TIMEOUT, ""),
])
def test_outcome_classification(run, check, status, detail):
    outcome = harness.run_op(_op(run, check), {}, budget=0.2)
    assert (outcome.status, outcome.detail) == (status, detail)
    if status == TIMEOUT:
        assert 0.2 <= outcome.seconds < 2.0


def test_failures_count_in_summary():
    ops = [_op(lambda state: 1), _op(lambda state: 2), _op(lambda state: [][1])]
    passes = [harness.run_pass(ops * 4, budget=1.0) for _ in range(2)]
    summary = harness.summarize(passes)
    assert summary["attempted"] == 24
    assert summary["failed"] == 16
    assert summary["wrong_outputs"] == 8
    assert summary["ok_share"] == pytest.approx(8 / 24)


def test_tail_has_ten_samples_beyond():
    value, percentile, n = harness.tail([float(i) for i in range(40)])
    assert (value, percentile, n) == (29.0, 75.0, 40)
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10)


def _traced_counters(ops):
    t = tracing.Tracer()
    t.install()
    try:
        outcomes = harness.run_pass(ops, budget=0.5, tracer=t)
        return outcomes, t.counters()
    finally:
        t.uninstall()


def test_counters_repeat_exactly(builder):
    cheap = [op for op in builder.ops("classify-poly", 1)
             if op.id.split("/", 2)[2] in ("x^3", "-x^2+4*x", "1/2*x^3+1/2*x")
             or "band2" in op.id]
    cheap += [op for op in builder.ops("orbit", 1) if "halving-l5" in op.id]
    cheap += [op for op in builder.ops("series", 1)
              if op.id.endswith("lam=2/order=30")]

    def overrun(state):  # traced calls, then a timeout: its records are dropped
        while True:
            symbols.parse_symbol("x^2")
    cheap.insert(3, Op("overrun", overrun, lambda out, state: True))

    first_outcomes, first = _traced_counters(cheap)
    _, second = _traced_counters(cheap)
    assert [o.status for o in first_outcomes].count(TIMEOUT) == 1
    assert all(o.status in (OK, TIMEOUT) for o in first_outcomes)
    assert first == second
    assert first["sturm.sturm_chain.calls"] > 0
    assert first["symbols.jet.calls"] > 0
    assert first["power_series.coeff_bits"] > 0


def test_uninstall_restores_the_program():
    from compspec import cli, rootwork, sturm, taxonomy
    before = (sturm.sturm_chain, taxonomy.analyze_symbol, rootwork.analyze_symbol,
              cli.main, symbols.AnalyticSymbol.jet)
    t = tracing.Tracer()
    t.install()
    assert taxonomy.analyze_symbol is not before[1]
    t.uninstall()
    assert (sturm.sturm_chain, taxonomy.analyze_symbol, rootwork.analyze_symbol,
            cli.main, symbols.AnalyticSymbol.jet) == before
