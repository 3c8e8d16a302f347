"""The four benchmark workloads: input generators, the timed op, and its check.

Every workload runs in cycles. A cycle is a fixed list of input classes in a
seeded random order; the run stops at a cycle boundary, so each class keeps
its designed share of the ops whatever the seed. Classes marked as known
defects reproduce failures of the library at the time the benchmark was
written (see ROADMAP.md, Baseline); their ops are expected to fail and are
reported by reason, while any failure in another class marks the run
incorrect.

The timed op calls the library through module attributes
(`solver.solve_fde`, ...), so the traced run can wrap them in spans without
touching library code.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from fraccalc import cli, fractional_ops, solver

import oracle

#: grid_eval and cli_cold draw alpha from this set, so a per-alpha cache can hit.
ALPHA_SET = (0.3, 0.5, 0.8, 1.0)

#: Bound on the pointwise error of y(t), relative to max(|y| on the grid, |ics|).
VALUE_BOUND = 1e-9
#: Bound on |c_k - c_k^ref| relative to the majorant scale of c_k, k <= order.
COEFF_BOUND = 1e-8
COEFF_ORDER = 60


@dataclass
class Op:
    """One generated input. `defect` marks a known-defect class."""

    cls: str
    defect: bool
    alpha: float
    props: dict
    data: dict


# ----------------------------------------------------------------------
# shared generators

def _good_radius(alpha: float) -> float:
    """|a| t^alpha up to which the largest term of E_alpha stays below ~1e3.

    The largest term of E_alpha(-r) is about exp(r^(1/alpha)); past it the
    series cancels and double precision loses digits the benchmark's bound
    does not allow for.
    """
    return 0.8 * math.log(1e4) ** alpha


def _distinct_roots(rng, count: int, radius: float, sep: float, avoid=()):
    """`count` new roots (real, or conjugate pairs) with |a| <= radius, pairwise
    at least `sep` apart and at least `sep` from every root in `avoid`.

    Magnitudes are stratified: of the m real roots and pairs drawn, each
    takes |a| from its own of m equal slices of [0.2, 1] * radius, so the
    cost of evaluating the modes, which grows with |a|, varies little from
    one input to the next.
    """
    while True:
        kinds, left = [], count
        while left > 0:
            kinds.append(2 if left >= 2 and rng.random() < 0.5 else 1)
            left -= kinds[-1]
        slices = rng.sample(range(len(kinds)), len(kinds))
        roots = []
        for kind, piece in zip(kinds, slices):
            for _ in range(200):
                r = radius * (0.2 + 0.8 * (piece + rng.random()) / len(kinds))
                if kind == 2:
                    theta = rng.uniform(0.3, math.pi - 0.3)
                    new = [cmath.rect(r, theta), cmath.rect(r, -theta)]
                    if abs(new[0] - new[1]) < sep:
                        continue
                else:
                    new = [complex(rng.choice((-1.0, 1.0)) * r, 0.0)]
                if all(abs(a - b) >= sep for a in new for b in list(avoid) + roots):
                    roots.extend(new)
                    break
            else:                   # boxed in: draw the whole set again
                break
        if len(roots) == count:
            return roots


def _expand(roots) -> list:
    """Real ascending coefficients of prod (lambda - r); roots closed under conjugation."""
    poly = [1.0 + 0.0j]
    for r in roots:
        lifted = [0.0 + 0.0j] * (len(poly) + 1)
        for k, c in enumerate(poly):
            lifted[k] -= r * c
            lifted[k + 1] += c
        poly = lifted
    return [c.real for c in poly]


def _ics(rng, n: int) -> list:
    first = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)
    return [first] + [rng.uniform(-1.0, 1.0) for _ in range(n - 1)]


def _root_props(roots, alpha: float, t_end: float, stiff: bool,
                repeated: bool) -> dict:
    return {
        "degree": len(roots),
        "alpha": alpha,
        "stiff_decay": stiff,
        "repeated_roots": repeated,
        "conjugate_pair": any(abs(r.imag) > 0.0 for r in roots),
        "min_re_a_t_alpha": min(r.real for r in roots) * t_end ** alpha,
    }


def _fde_input(rng, kind: str, alpha: float, degree: int, t_end: float = 1.0) -> Op:
    """A real problem for grid_eval and cli_cold.

    good: distinct roots inside _good_radius, at least 0.4 radius apart.
    stiff: one decaying mode with a t^alpha in [-12, -10] among good roots
      (ROADMAP Baseline: at alpha = 1/2 the series cancels into junk).
    repeated: a double real root among good roots (the t^alpha E ansatz
      is not a kernel element at alpha < 1).
    """
    radius = _good_radius(alpha) / t_end ** alpha
    if kind == "good":
        roots = _distinct_roots(rng, degree, radius, 0.4 * radius)
    elif kind == "stiff":
        decay = complex(-rng.uniform(10.0, 12.0) / t_end ** alpha, 0.0)
        roots = [decay] + _distinct_roots(rng, degree - 1, radius, 0.15 * radius, [decay])
    elif kind == "repeated":
        double = complex(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0) * radius, 0.0)
        roots = [double, double] + _distinct_roots(rng, degree - 2, radius,
                                                    0.15 * radius, [double])
    else:
        raise ValueError(kind)
    return Op(f"{kind} alpha={alpha} degree={degree}", kind != "good", alpha,
              _root_props(roots, alpha, t_end, kind == "stiff", kind == "repeated"),
              {"coeffs": _expand(roots), "ics": _ics(rng, degree), "t_end": t_end})


def _value_error(values, ref, ics) -> float:
    scale = max(max(abs(v) for v in ref), max(abs(c) for c in ics))
    return max(abs(complex(v) - r) for v, r in zip(values, ref)) / scale


def _coeff_error(modes, alpha: float, ref, scales) -> float:
    """Worst |c_k - c_k^ref| / scale_k, c_k from (root, degree, amplitude) modes."""
    ks = np.arange(len(ref))
    inv_gamma = np.array([math.exp(-math.lgamma(1.0 + k * alpha)) for k in ks])
    c = np.zeros(len(ref), dtype=complex)
    for root, degree, amp in modes:
        shift = ks - degree
        live = shift >= 0
        c[live] += amp * np.power(complex(root), shift[live]) * inv_gamma[shift[live]]
    return float(np.max(np.abs(c - np.asarray(ref)) / np.asarray(scales)))


def _judge(ratio: float):
    """(error over bound, failure reason or None), as every check returns."""
    return ratio, None if ratio <= 1.0 else "outside bound"


# ----------------------------------------------------------------------
# workloads

class GridEval:
    """Solve a degree 2-4 problem and evaluate it on a 1001-point grid."""

    # every (alpha, degree) pair once per cycle keeps the cost mix fixed; the
    # known defects mirror the ROADMAP cases {alpha 1/2, roots [-10, -1]}
    # and {alpha 1/2, roots [-1, -1]}
    cycle = [("good", a, d) for a in ALPHA_SET for d in (2, 3, 4)] + \
        [("stiff", 0.5, 2), ("repeated", 0.5, 2)]
    warm_class = ("good", 1.0, 2)
    points = 1001
    check_stride = 20

    def make(self, cls, rng):
        return _fde_input(rng, *cls)

    def run(self, op):
        d = op.data
        problem = solver.FDEProblem(op.alpha, tuple(d["coeffs"]), tuple(d["ics"]))
        ts = [d["t_end"] * i / (self.points - 1) for i in range(self.points)]
        sol = solver.solve_fde(problem)
        values = solver.eval_solution(sol, ts)
        real = solver.eval_real_form(sol, ts) if sol.real_form is not None else None
        return ts, values, real

    def check(self, op, out):
        ts, values, real = out
        pick = slice(None, None, self.check_stride)
        ref = oracle.solution_values(op.alpha, op.data["coeffs"], op.data["ics"], ts[pick])
        err = _value_error(values[pick], ref, op.data["ics"])
        if real is not None:
            err = max(err, _value_error(real[pick], ref, op.data["ics"]))
        return _judge(err / VALUE_BOUND)


class SolveBatch:
    """parse_problem -> solve_fde -> residual(60), what `fraccalc solve` computes.

    good: degree 2-8, distinct roots with |a| <= 2.5 at least 0.5 apart
      (from degree 9 on, apply_ics' |det| test trips now and then).
    Known defects (ROADMAP Baseline), degree 2-11 at alpha < 1 unless stated:
      gaussian: degree 12-16 with N(0, 1) coefficients, where find_roots
        often fails;
      repeated: a double real root, where the t^alpha E ansatz is wrong;
      close: two real roots 1e-5 apart, which find_roots cannot separate;
      stiff: a root in [-14, -12], where apply_ics' |det| test often
        declares the system singular.
    """

    cycle = ["good"] * 6 + ["gaussian", "repeated", "close", "stiff"]
    warm_class = "good"

    def make(self, cls, rng):
        alpha = 1.0 - rng.random() * 0.95          # continuous in (0.05, 1]
        roots = None
        if cls == "gaussian":
            degree = rng.randint(12, 16)
            coeffs = [rng.gauss(0.0, 1.0) for _ in range(degree + 1)]
        elif cls == "good":
            roots = _distinct_roots(rng, rng.randint(2, 8), 2.5, 0.5)
        else:
            alpha = min(alpha, 0.95)
            a = rng.uniform(-3.0, 3.0)
            seed = [complex(r, 0.0) for r in {
                "repeated": (a, a), "close": (a, a + 1e-5),
                "stiff": (-rng.uniform(12.0, 14.0),)}[cls]]
            roots = seed + _distinct_roots(rng, rng.randint(2, 11) - len(seed),
                                           3.0, 0.2, seed)
        if roots is not None:
            degree = len(roots)
            coeffs = _expand(roots)
        ics = _ics(rng, degree)
        if roots is not None and rng.random() < 0.5:
            operator = {"factors": [[r.real, r.imag] for r in roots]}
        else:
            operator = {"coefficients": coeffs}
        doc = json.dumps({"alpha": alpha, "operator": operator,
                          "initial_conditions": ics})
        props = {"degree": degree, "alpha": alpha,
                 "stiff_decay": cls == "stiff", "repeated_roots": cls == "repeated",
                 "close_roots": cls == "close", "gaussian_coefficients": cls == "gaussian",
                 "conjugate_pair": bool(roots) and any(r.imag != 0.0 for r in roots),
                 "operator_form": next(iter(operator))}
        return Op(cls, cls != "good", alpha, props,
                  {"doc": doc, "coeffs": coeffs, "ics": ics})

    def run(self, op):
        problem = cli.parse_problem(op.data["doc"])
        sol = solver.solve_fde(problem)
        res = solver.residual(sol, problem, COEFF_ORDER)
        return problem, sol, res

    def check(self, op, out):
        _, sol, _ = out
        ref, scales = oracle.lattice_coeffs(op.alpha, op.data["coeffs"],
                                            op.data["ics"], COEFF_ORDER)
        modes = [(m.root, m.degree, m.amplitude) for m in sol.modes]
        return _judge(_coeff_error(modes, op.alpha, ref, scales) / COEFF_BOUND)


class SampledOps:
    """L1 Jumarie derivative and RL integral of A t^gamma at every node.

    Smooth data (gamma >= 2) must meet the scheme orders, h^(2-alpha) for
    L1 and h^2 for the product trapezoid. Rough data (gamma in {0.5, 1.5})
    are a known-defect class: near t = 0 both schemes fall below those
    orders on a uniform grid.
    """

    # N = 4000 holds four of the seven slots, so that both the median and
    # the tail latency fall inside its group whatever the cycle count; the
    # latency of the N = 2000 ops alone swings with the host's load
    cycle = ["N1000", "N2000", "N4000", "N4000", "N4000", "N4000", "rough"]
    warm_class = "N1000"
    alphas = (0.3, 0.5, 0.8)

    def make(self, cls, rng):
        alpha = rng.choice(self.alphas)
        if cls == "rough":
            n, gamma = 1000, rng.choice((0.5, 1.5))
        else:
            n, gamma = int(cls[1:]), rng.choice((2.0, 2.5, 3.0, 3.5))
        amp = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        props = {"N": n, "alpha": alpha, "gamma": gamma, "rough_data": cls == "rough"}
        return Op(cls, cls == "rough", alpha, props,
                  {"n": n, "gamma": gamma, "amp": amp, "t_end": 1.0})

    def run(self, op):
        d = op.data
        amp, gamma, n, t_end = d["amp"], d["gamma"], d["n"], d["t_end"]
        f = fractional_ops.SampledFunction.from_callable(
            lambda x: amp * x ** gamma, 0.0, t_end, n)
        nodes = [t_end * j / n for j in range(n + 1)]
        deriv = [fractional_ops.jumarie_deriv_num(f, op.alpha, t) for t in nodes[1:]]
        integ = [fractional_ops.rl_integral_num(f, op.alpha, t) for t in nodes]
        return nodes, deriv, integ

    def check(self, op, out):
        nodes, deriv, integ = out
        d = op.data
        a, g, amp = op.alpha, d["gamma"], d["amp"]
        t = np.asarray(nodes)
        h = d["t_end"] / d["n"]
        exact_d = amp * math.gamma(1 + g) / math.gamma(1 + g - a) * t[1:] ** (g - a)
        exact_i = amp * math.gamma(1 + g) / math.gamma(1 + g + a) * t ** (g + a)
        # smooth-data error constants, max|f''| taken at t_end
        m2 = abs(amp * g * (g - 1.0)) * d["t_end"] ** (g - 2.0)
        bound_d = h ** (2.0 - a) * m2 / math.gamma(2.0 - a)
        bound_i = h ** 2 * m2 * d["t_end"] ** a / math.gamma(1.0 + a)
        err_d = float(np.max(np.abs(np.asarray(deriv) - exact_d)))
        err_i = float(np.max(np.abs(np.asarray(integ) - exact_i)))
        return _judge(max(err_d / bound_d, err_i / bound_i))


class CliCold:
    """One `python -m fraccalc.cli solve|eval|verify -` child per op."""

    # (command, input class); the fourth op of each cycle rotates over the
    # known-defect cases: junk output, or a verify verdict of PASS on junk
    cycle = [("solve", "good"), ("eval", "good"), ("verify", "good"), ("defect", None)]
    defect_ops = [("eval", "stiff"), ("verify", "stiff"),
                  ("solve", "repeated"), ("verify", "repeated")]
    defect_alpha, defect_degree = 0.5, 2
    warm_class = None

    def __init__(self, root: str, env: dict):
        self.root = root
        self.env = env
        self.rotation = 0
        self.made = []             # (command, document) of every op, for replays

    def make(self, cls, rng):
        command, kind = cls
        if command == "defect":
            command, kind = self.defect_ops[self.rotation % len(self.defect_ops)]
            self.rotation += 1
        if kind == "good":
            op = _fde_input(rng, kind, rng.choice(ALPHA_SET), rng.choice((2, 3, 4)))
        else:
            op = _fde_input(rng, kind, self.defect_alpha, self.defect_degree)
        op.cls = f"{command} {op.cls}"
        op.props["command"] = command
        op.data["command"] = command
        op.data["doc"] = json.dumps({
            "alpha": op.alpha, "operator": {"coefficients": op.data["coeffs"]},
            "initial_conditions": op.data["ics"]})
        self.made.append((command, op.data["doc"]))
        return op

    def run(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "fraccalc.cli", op.data["command"], "-"],
            input=op.data["doc"], capture_output=True, text=True,
            cwd=self.root, env=self.env, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, op, out):
        code, stdout = out
        d = op.data
        ts = [i / 50 for i in range(51)]
        if d["command"] == "verify":
            if code not in (0, 5):
                return None, f"exit {code}"
            problem = solver.FDEProblem(op.alpha, tuple(d["coeffs"]), tuple(d["ics"]))
            try:
                values = solver.eval_solution(solver.solve_fde(problem), ts)
                ref = oracle.solution_values(op.alpha, d["coeffs"], d["ics"], ts)
                right = _value_error(values, ref, d["ics"]) <= VALUE_BOUND
            except Exception:          # the library cannot produce the values
                right = False
            return None, None if (code == 0) == right else "wrong verdict"
        if code != 0:
            return None, f"exit {code}"
        if d["command"] == "eval":
            rows = [line.split(",") for line in stdout.splitlines()[1:]]
            values = [complex(float(r[1]), float(r[2])) for r in rows]
            ref = oracle.solution_values(op.alpha, d["coeffs"], d["ics"],
                                         [float(r[0]) for r in rows])
            return _judge(_value_error(values, ref, d["ics"]) / VALUE_BOUND)
        block = json.loads(stdout.split("machine:\n", 1)[1])
        modes = [(complex(*r), j, complex(*a)) for r, j, a in
                 zip(block["roots"], block["degrees"], block["amplitudes"])]
        ref, scales = oracle.lattice_coeffs(op.alpha, d["coeffs"], d["ics"], 30)
        return _judge(_coeff_error(modes, op.alpha, ref, scales) / COEFF_BOUND)


def child_env(root: str) -> dict:
    """Environment for child interpreters: the checkout's src first on the path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONNOUSERSITE"] = "1"
    return env
