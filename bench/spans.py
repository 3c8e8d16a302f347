"""Spans and counters around calls into the library, recorded from outside it.

`patched(tracer)` swaps selected public functions of the library modules
for wrappers while a traced run lasts and restores them afterwards; the
library code itself is untouched. A span records name, start, end, parent
span, op id and the exception type if the call raised. Hot leaf functions
(`ml`, the per-node differintegrals) are too frequent for one span each:
their wrapper adds calls and time to counters and to the enclosing span's
leaf time instead. Self time of a span is its duration minus its child
spans and leaf time. Spans stay in memory and are written out at exit.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

from fraccalc import alpha_series, cli, fractional_ops, solver
from fraccalc.exceptions import ConvergenceError
from fraccalc.special import gamma_ratio

#: solver functions that get one span per call.
SOLVER_SPANS = ("solve_fde", "find_roots", "apply_ics", "to_real_form",
                "eval_solution", "eval_real_form", "residual")

#: Replays keep their cost bounded whatever the traced run recorded.
ML_REPLAY_CALLS = 20000
RESIDUAL_REPLAYS = 300


class Tracer:
    """In-memory span log for one traced run."""

    def __init__(self):
        # [id, parent, op, name, start, end, error, leaf seconds]
        self.spans = []
        self._stack = []
        self.op = None
        self.leaf_calls = Counter()
        self.leaf_time = Counter()
        self.ml_args = (array("d"), array("d"), array("d"), array("d"))
        self.residual_inputs = []

    def span(self, name, fn, on_call=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else None
            rec = [len(self.spans), parent, self.op, name, 0.0, 0.0, None, 0.0]
            self.spans.append(rec)
            self._stack.append(rec)
            rec[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def leaf(self, name, fn, on_call=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.leaf_calls[name] += 1
                self.leaf_time[name] += dt
                if self._stack:
                    self._stack[-1][7] += dt
        return wrapper

    def _record_ml(self, alpha, z, tol=1e-12):
        z = complex(z)
        for column, value in zip(self.ml_args, (alpha, z.real, z.imag, tol)):
            column.append(value)

    def _record_residual(self, solution, problem, series_order=60):
        if len(self.residual_inputs) < RESIDUAL_REPLAYS:
            self.residual_inputs.append((solution, problem, series_order))

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) as op `op_id` under a root span named "op"."""
        self.op = op_id
        try:
            return self.span("op", fn)(*args)
        finally:
            self.op = None

    def self_times(self):
        """(self seconds, calls, raised) per span name, leaf counters included."""
        covered = defaultdict(float)
        for rec in self.spans:
            if rec[1] is not None:
                covered[rec[1]] += rec[5] - rec[4]
        busy, calls, failed = Counter(), Counter(), Counter()
        for rec in self.spans:
            busy[rec[3]] += rec[5] - rec[4] - covered[rec[0]] - rec[7]
            calls[rec[3]] += 1
            failed[rec[3]] += rec[6] is not None
        busy.update(self.leaf_time)
        calls.update(self.leaf_calls)
        return busy, calls, failed

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "name", "start", "end", "error", "leaf_s"),
                    rec))) + "\n")
            fh.write(json.dumps({"leaf_calls": self.leaf_calls,
                                 "leaf_s": self.leaf_time}) + "\n")


@contextmanager
def patched(tracer: Tracer):
    """Wrap the library's public entry points in spans while the block runs."""
    saved = []

    def put(owner, attr, new):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for name in SOLVER_SPANS:
        hook = tracer._record_residual if name == "residual" else None
        wrapper = tracer.span(f"solver.{name}", getattr(solver, name), hook)
        put(solver, name, wrapper)
        if name in vars(cli):      # the CLI calls its own imported references
            put(cli, name, wrapper)
    # eval_solution and eval_real_form reach ml through the solver namespace
    put(solver, "ml", tracer.leaf("mittag_leffler.ml", solver.ml, tracer._record_ml))
    put(cli, "parse_problem", tracer.span("cli.parse_problem", cli.parse_problem))
    put(cli, "main", tracer.span("cli.main", cli.main))
    for name in ("jumarie_deriv_num", "rl_integral_num"):
        put(fractional_ops, name,
            tracer.leaf(f"fractional_ops.{name}", getattr(fractional_ops, name)))
    sampled = fractional_ops.SampledFunction
    put(sampled, "from_callable", classmethod(tracer.span(
        "fractional_ops.SampledFunction", vars(sampled)["from_callable"].__func__)))
    try:
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# ----------------------------------------------------------------------
# replays: the recorded inputs of a layer, timed in a tight loop

def replay_ml(tracer: Tracer) -> dict:
    """us per call, mean terms_used and ConvergenceError count of `ml`, on an
    evenly strided sample of the (alpha, z, tol) arguments the run recorded."""
    alphas, re, im, tols = tracer.ml_args
    total = len(alphas)
    if total == 0:
        return {"us_per_call": 0.0, "terms_mean": 0.0, "failed": 0}
    stride = max(1, total // ML_REPLAY_CALLS)
    picks = range(0, total, stride)
    ml = solver.ml
    terms = failed = 0
    busy = 0.0
    for i in picks:
        z = complex(re[i], im[i])
        t0 = time.perf_counter()
        try:
            terms += ml(alphas[i], z, tols[i]).terms_used
        except ConvergenceError:
            failed += 1
        busy += time.perf_counter() - t0
    calls = len(picks)
    return {"us_per_call": busy / calls * 1e6,
            "terms_mean": terms / max(1, calls - failed), "failed": failed}


def replay_gamma_ratio(alphas, min_seconds: float = 0.2) -> float:
    """ns per gamma_ratio call on the lattice ratios Gamma(1+k a)/Gamma(1+(k+1) a), k < 60."""
    pairs = [(1.0 + k * a, 1.0 + (k + 1) * a) for a in alphas for k in range(60)]
    calls = 0
    t0 = time.perf_counter()
    while True:
        for p, q in pairs:
            gamma_ratio(p, q)
        calls += len(pairs)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / calls * 1e9


def replay_alpha_series(tracer: Tracer) -> dict:
    """Seconds in series_from_ml and apply_operator on the recorded residual inputs."""
    busy = Counter()
    for solution, problem, order in tracer.residual_inputs:
        t0 = time.perf_counter()
        for mode in solution.modes:
            alpha_series.series_from_ml(solution.alpha, mode.root, order)
        busy["series_from_ml"] += time.perf_counter() - t0
        total = alpha_series.zero_series(solution.alpha, order)
        for mode in solution.modes:
            total = total.add(solver.mode_series(
                solution.alpha, mode.root, mode.degree, order).scale(mode.amplitude))
        t0 = time.perf_counter()
        total.apply_operator(problem.char_coeffs)
        busy["apply_operator"] += time.perf_counter() - t0
    return busy
