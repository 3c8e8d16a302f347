"""fraccalc benchmark: solve linear Jumarie FDEs and check every answer.

Run from the root of a checkout:

    python3 bench/run.py --workload grid_eval --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): grid_eval, solve_batch, sampled_ops, cli_cold.
Each is a closed loop with one client: one process, one thread, the next op
starting only when the previous one returned. Inputs come from --seed; ops
run until --seconds of op time have passed, stopping at a cycle boundary.
Every op is checked against an offline oracle (oracle.py) outside its timed
region.

--trace 0 prints the end-to-end metrics; --trace 1 is a separate run that
wraps the library's public functions in spans (spans.py), replays the
recorded layer inputs and prints the per-layer metrics. Either way the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; `failed` counts failed ops outside the known-defect classes,
and `correct` is true when there are none and the oracle passed its own
cross-check. Spans of a traced run are written to .bench_out/.

The library is imported from src/ of the checkout, never from an installed
copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import os

# The launcher pins native thread pools before numpy is first imported;
# child interpreters inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import itertools
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("grid_eval", "solve_batch", "sampled_ops", "cli_cold")

#: Fresh interpreters per set-up and import probe; the median is reported.
SETUP_RUNS = 7
PROBE_RUNS = 3

SETUP_CODE = """
import time
t0 = time.perf_counter()
import fraccalc
sol = fraccalc.solve_fde(fraccalc.FDEProblem(0.5, (2.0, 3.0, 1.0), (1.0, 0.0)))
fraccalc.eval_solution(sol, [0.5])
print(time.perf_counter() - t0)
"""

SPECIAL_IMPORT_CODE = """
import importlib.util, sys, time, types
t0 = time.perf_counter()
spec = importlib.util.find_spec("fraccalc")
package = types.ModuleType("fraccalc")
package.__path__ = list(spec.submodule_search_locations)
sys.modules["fraccalc"] = package
import fraccalc.special
print(time.perf_counter() - t0)
"""

CLI_IMPORT_CODE = """
import time
t0 = time.perf_counter()
import fraccalc.cli
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "setup_s": "s", "throughput_ops_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
    "failed_frac": "fraction", "err_margin_digits": "digits", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "mittag_leffler.ml.busy_s": "s",
    "mittag_leffler.ml.calls": "count",
    "mittag_leffler.ml.us_per_call": "us",
    "mittag_leffler.ml.terms_mean": "count",
    "mittag_leffler.ml.failed": "count",
    "special.gamma_ratio.ns_per_call": "ns",
    "special.import_s": "s",
    "solver.solve_fde.busy_s": "s",
    "solver.eval_solution.busy_s": "s",
    "solver.eval_real_form.busy_s": "s",
    "solver.find_roots.busy_s": "s",
    "solver.find_roots.failed": "count",
    "solver.apply_ics.busy_s": "s",
    "solver.apply_ics.failed": "count",
    "solver.to_real_form.busy_s": "s",
    "solver.residual.busy_s": "s",
    "alpha_series.series_from_ml.busy_s": "s",
    "alpha_series.apply_operator.busy_s": "s",
    "fractional_ops.SampledFunction.busy_s": "s",
    "fractional_ops.jumarie_deriv_num.busy_s": "s",
    "fractional_ops.jumarie_deriv_num.calls": "count",
    "fractional_ops.rl_integral_num.busy_s": "s",
    "fractional_ops.rl_integral_num.calls": "count",
    "fractional_ops.node_pairs": "count",
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    "cli.main.busy_s": "s",
    "cli.parse_problem.busy_s": "s",
    "trace.overhead_frac": "fraction",
}


def _child(code_args, env) -> str:
    """Standard output of a fresh interpreter run with code_args."""
    return subprocess.run([sys.executable, *code_args], capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=120, check=True).stdout


def setup_seconds(env) -> float:
    """Median over fresh interpreters of `import fraccalc` plus one warm-up call."""
    return statistics.median(float(_child(["-c", SETUP_CODE], env))
                             for _ in range(SETUP_RUNS))


def special_import_seconds(env) -> float:
    """Median over fresh interpreters of importing fraccalc.special alone.

    The package is registered without running its __init__, which imports
    every module, so only special and what it imports are timed.
    """
    return statistics.median(float(_child(["-c", SPECIAL_IMPORT_CODE], env))
                             for _ in range(PROBE_RUNS))


def python_start_seconds(env) -> float:
    """Median wall time of a bare interpreter, timed from outside."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        _child(["-c", "pass"], env)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child, in MB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


# ----------------------------------------------------------------------

class Tally:
    """Outcome of every op of a run, kept as counts so that the benchmark's
    own memory stays flat however many ops run."""

    def __init__(self, continuous_alpha: bool):
        self.continuous_alpha = continuous_alpha
        self.latencies = []
        self.reasons = Counter()       # (class, reason) of every failed op
        self.unexpected = 0            # failures outside the known-defect classes
        self.worst_ratio = 0.0         # worst error/bound of a passing non-defect op
        self.props = defaultdict(Counter)
        self.alphas = set()

    def add(self, op, latency, ratio, failure):
        self.latencies.append(latency)
        if failure:
            self.reasons[(("known defect " if op.defect else "") + op.cls, failure)] += 1
            self.unexpected += not op.defect
        elif not op.defect and ratio is not None:
            # a known-defect op that happens to pass says nothing about digits
            self.worst_ratio = max(self.worst_ratio, ratio)
        if len(self.alphas) < 32:
            self.alphas.add(op.alpha)
        for key, value in op.props.items():
            if key == "min_re_a_t_alpha":
                key, value = "re_a_t_alpha_le_-10", value <= -10.0
            elif key == "alpha" and self.continuous_alpha:
                value = f"{min(int(value * 10), 9) / 10:.1f}"   # bins of width 0.1
            self.props[key][value] += 1

    def shares(self) -> dict:
        """Share of ops with each input property, for later claims to cite."""
        n = len(self.latencies)
        out = {}
        for key, counts in sorted(self.props.items()):
            if all(isinstance(v, bool) for v in counts):
                out[key] = counts[True] / n
            else:
                out[key] = {str(v): c / n for v, c in sorted(counts.items())}
        return out

    def report(self):
        print(f"ops: {len(self.latencies)} attempted, {sum(self.reasons.values())} "
              f"failed, {self.unexpected} of them outside the known-defect classes")
        for (label, why), count in sorted(self.reasons.items()):
            print(f"  failed {count:5d}  {label}: {why}")
        print("properties: " + json.dumps(self.shares(), sort_keys=True))


def run_loop(workload, rng, seconds: float, timed_op, tally: Tally):
    """Cycles of generated ops until `seconds` of op time have passed.

    timed_op(op) runs the op and returns (latency, seconds spent, output,
    exception); the two times differ only in the traced run, which runs
    each op twice. The check runs after it, outside the timed region.
    """
    busy = 0.0
    while busy < seconds:
        classes = list(workload.cycle)
        rng.shuffle(classes)
        for cls in classes:
            op = workload.make(cls, rng)
            latency, spent, out, exc = timed_op(op)
            busy += spent
            if exc is not None:
                ratio, failure = None, f"raised {type(exc).__name__}"
            else:
                ratio, failure = workload.check(op, out)
            tally.add(op, latency, ratio, failure)


def timed(workload, op):
    """(latency, output, exception) of one execution of op."""
    t0 = time.perf_counter()
    try:
        out, exc = workload.run(op), None
    except Exception as err:       # every library failure is a measured outcome
        out, exc = None, err
    return time.perf_counter() - t0, out, exc


def tail(latencies):
    """The latency at the highest percentile with at least ten samples beyond
    it, as (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def warm_up(workload, rng):
    """One untimed op, so that lazy imports and caches are filled before timing."""
    if workload.warm_class is not None:
        workload.run(workload.make(workload.warm_class, random.Random(rng.random())))


def end_to_end(workload, rng, seconds, env, tally):
    setup = setup_seconds(env)
    warm_up(workload, rng)

    def once(op):
        latency, out, exc = timed(workload, op)
        return latency, latency, out, exc

    run_loop(workload, rng, seconds, once, tally)
    latencies = tally.latencies
    tail_value, tail_pct, beyond = tail(latencies)
    print(f"op_tail_s is the p{tail_pct:.2f} latency of {len(latencies)} ops "
          f"({beyond} beyond it)")
    print(f"max_rel_err = {tally.worst_ratio:.6g} of the op's accuracy bound "
          "(worst passing op outside the known-defect classes)")
    return {
        "setup_s": setup,
        "throughput_ops_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "failed_frac": sum(tally.reasons.values()) / len(latencies),
        # the worst error is heavy-tailed across seeds; its order of
        # magnitude, the digits left before the bound, is what repeats
        "err_margin_digits": -math.log10(tally.worst_ratio) if tally.worst_ratio else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(workload, rng, seconds, env, name, seed, tally):
    from spans import (Tracer, patched, replay_alpha_series, replay_gamma_ratio,
                       replay_ml)
    from fraccalc import cli

    tracer = Tracer()
    warm_up(workload, rng)
    seconds_by_mode = {False: 0.0, True: 0.0}
    op_ids = itertools.count()

    def twice(op):
        # the same input untraced and traced, alternating which goes first
        op_id = next(op_ids)
        runs = {}
        for traced_run in ((False, True) if op_id % 2 else (True, False)):
            if traced_run:
                with patched(tracer):
                    runs[True] = tracer.run_op(op_id, timed, workload, op)
            else:
                runs[False] = timed(workload, op)
            seconds_by_mode[traced_run] += runs[traced_run][0]
        latency, out, exc = runs[True]
        return latency, runs[False][0] + latency, out, exc

    run_loop(workload, rng, seconds, twice, tally)

    OUT.mkdir(exist_ok=True)
    if name == "cli_cold":
        # in-process replay of the same documents: cli self time and parsing
        doc_path = OUT / "cli-replay.json"
        with patched(tracer):
            for command, doc in workload.made:
                cli.parse_problem(doc)
                doc_path.write_text(doc, encoding="utf-8")
                with redirect_stdout(io.StringIO()):
                    cli.main([command, str(doc_path)])

    busy, calls, failed = tracer.self_times()
    ml = replay_ml(tracer)
    series = replay_alpha_series(tracer)
    # computed, not counted: each operator pairs node j with nodes 0..j
    node_pairs = sum(count * n * (n + 1) for n, count in tally.props.get("N", {}).items())
    metrics = {
        "mittag_leffler.ml.busy_s": busy["mittag_leffler.ml"],
        "mittag_leffler.ml.calls": calls["mittag_leffler.ml"],
        "mittag_leffler.ml.us_per_call": ml["us_per_call"],
        "mittag_leffler.ml.terms_mean": ml["terms_mean"],
        "mittag_leffler.ml.failed": ml["failed"],
        "special.gamma_ratio.ns_per_call": replay_gamma_ratio(sorted(tally.alphas)),
        "special.import_s": special_import_seconds(env),
        "solver.solve_fde.busy_s": busy["solver.solve_fde"],
        "solver.eval_solution.busy_s": busy["solver.eval_solution"],
        "solver.eval_real_form.busy_s": busy["solver.eval_real_form"],
        "solver.find_roots.busy_s": busy["solver.find_roots"],
        "solver.find_roots.failed": failed["solver.find_roots"],
        "solver.apply_ics.busy_s": busy["solver.apply_ics"],
        "solver.apply_ics.failed": failed["solver.apply_ics"],
        "solver.to_real_form.busy_s": busy["solver.to_real_form"],
        "solver.residual.busy_s": busy["solver.residual"],
        "alpha_series.series_from_ml.busy_s": series["series_from_ml"],
        "alpha_series.apply_operator.busy_s": series["apply_operator"],
        "fractional_ops.SampledFunction.busy_s": busy["fractional_ops.SampledFunction"],
        "fractional_ops.jumarie_deriv_num.busy_s": busy["fractional_ops.jumarie_deriv_num"],
        "fractional_ops.jumarie_deriv_num.calls": calls["fractional_ops.jumarie_deriv_num"],
        "fractional_ops.rl_integral_num.busy_s": busy["fractional_ops.rl_integral_num"],
        "fractional_ops.rl_integral_num.calls": calls["fractional_ops.rl_integral_num"],
        "fractional_ops.node_pairs": node_pairs,
        "cli.python_start_s": python_start_seconds(env),
        "cli.import_s": statistics.median(float(_child(["-c", CLI_IMPORT_CODE], env))
                                          for _ in range(PROBE_RUNS)),
        "cli.main.busy_s": busy["cli.main"],
        "cli.parse_problem.busy_s": busy["cli.parse_problem"],
        "trace.overhead_frac": seconds_by_mode[True] / seconds_by_mode[False] - 1.0,
    }
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}; "
          f"{busy['op']:.3f} s of op time fell outside traced library calls")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fraccalc" / "__init__.py").is_file():
        print(f"error: no fraccalc package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fraccalc
    if Path(fraccalc.__file__).resolve().parent != (SRC / "fraccalc").resolve():
        print(f"error: fraccalc imported from {fraccalc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import oracle
    import workloads

    env = workloads.child_env(str(ROOT))
    print("env: " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    oracle_ok, oracle_err = oracle.self_check()
    print(f"oracle self-check: {'PASS' if oracle_ok else 'FAIL'} "
          f"(worst relative error {oracle_err:.2e} against exp and wofz)")

    workload = {
        "grid_eval": workloads.GridEval,
        "solve_batch": workloads.SolveBatch,
        "sampled_ops": workloads.SampledOps,
    }.get(args.workload)
    workload = workload() if workload else workloads.CliCold(str(ROOT), env)
    rng = random.Random(args.seed)
    tally = Tally(continuous_alpha=args.workload == "solve_batch")

    if args.trace:
        metrics = traced(workload, rng, args.seconds, env, args.workload,
                         args.seed, tally)
        units = PER_LAYER
    else:
        metrics = end_to_end(workload, rng, args.seconds, env, tally)
        units = END_TO_END

    tally.report()
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": oracle_ok and tally.unexpected == 0,
        "attempted": len(tally.latencies),
        "failed": tally.unexpected,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
