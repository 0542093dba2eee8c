"""compspec benchmark: one workload per run, or all four in turn.

    python3 benchmarks/run.py --workload classify-poly --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Workloads: classify-poly, series, orbit, cli (see NOTES.md).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 a separate traced run gives the per-layer ones.  The full
run record (outcome of every operation by id, tail percentile and sample
count, per-layer figures) is written to benchmarks/out/.

Run from the repository root; the program is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# Seconds one pass over the operation list takes on the reference machine
# (2-core x86-64 machine shared with other tenants, Python 3.11,
# pure-Python mpmath).  The number of passes follows from --seconds and
# these constants alone, so every run of a workload has the same number of
# samples.
NOMINAL_PASS_S = {"classify-poly": 6.5, "series": 5.0, "orbit": 3.3, "cli": 12.5}
MIN_PASSES = 3
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mib": "MiB", "ok_share": "share"}
REPORTED_ONLY = {"fail_share": "share", "wrong_outputs": "count"}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import compspec.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_import(env) -> float:
    """Import time of compspec.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def setup_once(workload, seed, in_process_cli):
    """Import, input generation, reference loading and warm-up, timed."""
    import workloads
    from harness import Op, run_op

    start = time.perf_counter()
    with open(os.path.join(HERE, "reference.json")) as fh:
        refs = json.load(fh)
    builder = workloads.Builder(ROOT, refs)
    ops = builder.ops(workload, seed, in_process_cli)
    warm = _warm_up_op(workload, builder)
    run_op(Op("warm-up", warm, lambda out, state: True), {}, 60.0)
    in_process = time.perf_counter() - start
    import_s = measure_import(builder.cli_env())
    return import_s + in_process, import_s, ops


def _warm_up_op(workload, builder):
    """A small operation of the workload's kind, so lazy set-up is done."""
    from fractions import Fraction as F

    from compspec import continuation, solver, symbols, taxonomy
    if workload == "cli":
        return builder.cli_command(["classify", "--symbol", "x^2"])
    if workload == "classify-poly":
        return lambda state: taxonomy.spectrum(symbols.parse_symbol("x^3-x"))
    if workload == "series":
        return lambda state: solver.solve_formal(
            symbols.parse_symbol("-x^2+x"), F(0), F(3), symbols.parse_rhs("x"), 8)

    def orbit(state):
        sol = continuation.globalize(symbols.parse_symbol("1/2*x"), F(0), F(3),
                                     symbols.parse_rhs("x"), order=24)
        return continuation.evaluate(sol, F(7), precision=256)
    return orbit


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def run_workload(args) -> tuple[dict, dict]:
    sys.path.insert(0, SRC)
    import harness
    import tracer as tracing
    import workloads

    trace = bool(args.trace)
    probe = harness.SpeedProbe()
    setup_times, import_times = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        total, imported, ops = setup_once(args.workload, args.seed, trace)
        setup_times.append(total)
        import_times.append(imported)
    setup_s = statistics.median(setup_times)
    import_s = statistics.median(import_times)
    budget = workloads.BUDGET_S[args.workload]
    passes_n = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "budget_s": budget, "operations_per_pass": len(ops)}
    if not trace:
        passes = [harness.run_pass(ops, budget, probe=probe) for _ in range(passes_n)]
        factor = probe.factor()
        summary = harness.summarize(passes, factor)
        summary["raw"] = dict(harness.summarize(passes), setup_s=setup_s)
        summary["setup_s"] = factor * setup_s
        summary["peak_rss_mib"] = peak_rss_mib(args.workload)
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        shown = dict(metrics, **{name: {"value": summary[name], "unit": unit}
                                 for name, unit in REPORTED_ONLY.items()})
    else:
        half = max(1, passes_n // 2)
        plain = [harness.run_pass(ops, budget, probe=probe) for _ in range(half)]
        t = tracing.Tracer()
        t.install()
        try:
            traced, counters, spans = [], None, []
            for _ in range(half):
                t.reset()
                traced.append(harness.run_pass(ops, budget, t, probe))
                counters = counters or t.counters()
                spans.append(t.spans())
        finally:
            t.uninstall()
        passes = plain + traced
        factor = probe.factor()
        summary = harness.summarize(passes, factor)
        per_layer = dict(counters)
        for name in spans[0]:
            per_layer[name] = factor * statistics.median(s[name] for s in spans)
        per_layer["cli.import.s"] = factor * import_s
        per_layer["cli.process.s"] = statistics.median(
            sum(harness.scaled(o, factor) for o in p if o.op_id.startswith("cli/"))
            for p in traced)
        per_layer["trace.overhead_s"] = (harness.pass_wall(traced, factor)
                                         - harness.pass_wall(plain, factor))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(per_layer.items())}
        shown = metrics
    record.update({"speed_factor": factor, "speed_samples": probe.samples,
                   "summary": summary, "metrics": metrics,
                   "outcomes": harness.outcome_list(passes),
                   "known_failures": workloads.KNOWN_FAILURES})
    return record, shown


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".distinct_ratio"):
        return "ratio"
    if name.endswith(".coeff_bits"):
        return "bits"
    return "count"


def write_record(record) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{record['workload']}-seed{record['seed']}"
                                 f"-trace{record['trace']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    return path


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        print(f"== {workload}")
        print(proc.stdout.rstrip())
        if proc.returncode != 0:
            print(proc.stderr.rstrip(), file=sys.stderr)
            status = proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "compspec", "__init__.py")):
        print(f"compspec sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record, shown = run_workload(args)
    summary = record["summary"]
    print(f"workload {args.workload} seed {args.seed}: {summary['passes']} passes of "
          f"{record['operations_per_pass']} operations, budget {record['budget_s']} s")
    print(f"op_tail_ms is p{summary['tail_percentile']:.1f} of n={summary['n']}; "
          f"times at reference speed (measured times x {record['speed_factor']:.4f})")
    for name, metric in shown.items():
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"record: {os.path.relpath(write_record(record), ROOT)}")
    print(json.dumps({"correct": summary["wrong_outputs"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
