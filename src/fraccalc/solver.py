"""Linear constant-coefficient fractional ODEs in the sequential Jumarie derivative.

The operator sum_m p_m D^(m*alpha) factorizes over the roots of its
characteristic polynomial sum_m p_m lambda^m. A simple root a contributes
the mode E_alpha(a t^alpha), which is an exact coefficientwise eigenfunction
of D^alpha on the t^(k*alpha) lattice, so distinct-root solutions carry
series residuals at rounding level. A root of multiplicity r also
contributes t^(j*alpha) E_alpha(a t^alpha) for 1 <= j < r; that construction
rests on a product rule which is exact only at alpha = 1, so the solver
builds those modes as written, flags them, and quantifies their inherent
residual (see deviation_report) instead of pretending it vanishes.

Initial conditions are the values of the sequential derivatives D^(k*alpha) y
at 0 for k = 0..n-1; these are the constant terms of the successive series
derivatives, which keeps the amplitude fit well posed on the lattice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .alpha_series import AlphaSeries, series_from_ml, zero_series
from .exceptions import (ConvergenceError, DomainError, FracCalcError,
                         NoConvergenceError, PairingError, SingularSystemError)
from .mittag_leffler import ml, ml_grid
from .special import gamma

_SWEEP_BUDGET = 500          # simultaneous-iteration sweeps before giving up
_ROOT_RESIDUAL_TOL = 1e-12   # acceptance threshold for |poly(root)|
_EXACTNESS_TOL = 1e-12       # "holds at alpha = 1" threshold for deviations


# ----------------------------------------------------------------------
# problem and solution containers

@dataclass(frozen=True)
class FDEProblem:
    """Operator sum p_m D^(m*alpha), p_n != 0, with n initial conditions.

    char_coeffs lists p_0..p_n ascending; ics lists the sequential
    derivatives of y at 0, [y(0), D^alpha y(0), ..., D^((n-1)alpha) y(0)].
    grid, when present, is (t_end, num_points) for evaluation commands.
    """

    alpha: float
    char_coeffs: tuple
    ics: tuple
    grid: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"FDEProblem requires 0 < alpha <= 1, got {self.alpha}")
        coeffs = tuple(complex(c) for c in self.char_coeffs)
        if len(coeffs) < 2:
            raise DomainError("operator degree must be at least 1")
        if coeffs[-1] == 0:
            raise DomainError("leading operator coefficient must be nonzero")
        ics = tuple(complex(c) for c in self.ics)
        if len(ics) != len(coeffs) - 1:
            raise DomainError(
                f"need {len(coeffs) - 1} initial conditions, got {len(ics)}")
        object.__setattr__(self, "char_coeffs", coeffs)
        object.__setattr__(self, "ics", ics)
        if self.grid is not None:
            t_end, points = self.grid
            t_end, points = float(t_end), int(points)
            if not t_end > 0.0 or points < 2:
                raise DomainError(f"bad evaluation grid {self.grid}")
            object.__setattr__(self, "grid", (t_end, points))

    @property
    def degree(self) -> int:
        return len(self.char_coeffs) - 1


@dataclass(frozen=True)
class Mode:
    """Basis term amplitude * t^(degree*alpha) * E_alpha(root * t^alpha)."""

    root: complex
    degree: int
    amplitude: Optional[complex] = None

    def __post_init__(self):
        if self.degree < 0:
            raise DomainError("mode degree must be >= 0")
        object.__setattr__(self, "root", complex(self.root))
        if self.amplitude is not None:
            object.__setattr__(self, "amplitude", complex(self.amplitude))


@dataclass(frozen=True)
class RealModeTerm:
    """One term of the real rendering, times t^(degree*alpha):

        E_alpha(a t^alpha) [cos_amp * cos_alpha(b t^alpha)
                            + sin_amp * sin_alpha(b t^alpha)]

    with b = 0 collapsing to cos_amp * E_alpha(a t^alpha). Pointwise values
    are produced by recombining the underlying conjugate modes, which is
    what the displayed form equals at alpha = 1 and whenever a = 0; for
    a != 0 and alpha < 1 the literal product display differs from the mode
    sum by exactly the product-law deviation reported elsewhere.
    """

    a: float
    b: float
    degree: int
    cos_amp: float
    sin_amp: float


@dataclass(frozen=True)
class Solution:
    """Modes of a solved problem, with an optional real-form rendering."""

    alpha: float
    modes: tuple
    real_form: Optional[tuple] = None
    notes: tuple = ()

    def amplitudes_set(self) -> bool:
        return all(m.amplitude is not None for m in self.modes)


@dataclass(frozen=True)
class DeviationRow:
    identity: str
    alpha: float
    t: float
    deviation: float
    exact_at_alpha1: bool


@dataclass(frozen=True)
class DeviationReport:
    """Per-identity, per-alpha deviations; alpha = 1 rows must be exact."""

    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if row.alpha == 1.0 and row.deviation > _EXACTNESS_TOL:
                raise FracCalcError(
                    f"identity {row.identity} deviates at alpha=1 "
                    f"({row.deviation:.3e}); evaluation is broken")


# ----------------------------------------------------------------------
# characteristic roots

def _polyval(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _polyder(coeffs: Sequence[complex]) -> list:
    return [k * coeffs[k] for k in range(1, len(coeffs))]


def _cluster(points: Sequence[complex], tol: float) -> list:
    """Greedy centroid-linkage grouping of points within distance tol."""
    groups: list = []
    for p in sorted(points, key=lambda w: (w.real, w.imag)):
        for grp in groups:
            centroid = sum(grp) / len(grp)
            if abs(p - centroid) <= tol:
                grp.append(p)
                break
        else:
            groups.append([p])
    return groups


def find_roots(char_coeffs: Sequence[complex],
               cluster_tol: float = 1e-8) -> list:
    """All roots of sum p_m lambda^m with multiplicities, as (root, mult) pairs.

    Runs simultaneous Weierstrass (Durand-Kerner) sweeps on the monic
    polynomial. Iterates near a multiple root settle in a cloud of radius
    about eps^(1/mult), never reaching the merge tolerance on their own, so
    after the sweeps all iterates are grouped at a coarse radius and each
    multi-iterate group is replaced by its centroid and polished with a
    multiplicity-aware Newton step. cluster_tol (absolute distance) then
    decides which polished roots merge into one root with summed
    multiplicity; genuinely distinct roots closer than the coarse grouping
    radius are outside the supported range and are rejected by the final
    residual check.

    Raises NoConvergenceError when the sweep budget ends without roots whose
    polynomial residual meets tolerance.
    """
    coeffs = [complex(c) for c in char_coeffs]
    if len(coeffs) < 2:
        raise DomainError("operator degree must be at least 1")
    if coeffs[-1] == 0:
        raise DomainError("leading coefficient must be nonzero")
    monic = [c / coeffs[-1] for c in coeffs]
    n = len(monic) - 1
    if n == 1:
        return [(-monic[0], 1)]

    radius = 1.0 + max(abs(c) for c in monic[:-1])  # Cauchy bound
    z = [radius * cmath.exp(1j * (2.0 * math.pi * (k + 0.25) / n + 0.35))
         for k in range(n)]
    converged = False
    for _ in range(_SWEEP_BUDGET):
        max_step = 0.0
        for i in range(n):
            den = 1.0 + 0.0j
            for j in range(n):
                if j != i:
                    den *= z[i] - z[j]
            if den == 0:
                z[i] += (1e-6 + 1e-6j) * radius  # split coincident iterates
                continue
            w = _polyval(monic, z[i]) / den
            z[i] -= w
            max_step = max(max_step, abs(w))
        if max_step <= 1e-14 * (1.0 + max(abs(x) for x in z)):
            converged = True
            break

    # Iterates around an m-fold root either stall in, or freeze across, a
    # cloud of radius about eps^(1/m); eps^(1/(n+1)) dominates every
    # multiplicity the polynomial can carry, so group at that radius,
    # leave singletons alone, and polish each multi-group from its
    # centroid (for a symmetric cloud already the root to second order).
    scale = 1.0 + max(abs(x) for x in z)
    coarse = scale * (2.3e-16) ** (1.0 / (n + 1))
    deriv = _polyder(monic)
    polished = []
    for grp in _cluster(z, coarse):
        mult = len(grp)
        if mult == 1:
            polished.extend(grp)
            continue
        c = sum(grp) / mult
        for _ in range(60):
            dv = _polyval(deriv, c)
            if dv == 0:
                break
            step = mult * _polyval(monic, c) / dv
            c -= step
            if abs(step) <= 1e-15 * (1.0 + abs(c)):
                break
        polished.extend([c] * mult)

    # real coefficients force real-or-conjugate roots; the polish of a
    # frozen cloud can leave imaginary residue below the cluster tolerance,
    # which would masquerade as an unpaired complex root downstream
    if all(c.imag == 0.0 for c in monic):
        polished = [complex(w.real, 0.0)
                    if abs(w.imag) <= cluster_tol * (1.0 + abs(w)) else w
                    for w in polished]

    coeff_scale = sum(abs(c) for c in monic)
    result = []
    for grp in _cluster(polished, cluster_tol):
        root = sum(grp) / len(grp)
        bound = _ROOT_RESIDUAL_TOL * coeff_scale * max(1.0, abs(root)) ** n
        if abs(_polyval(monic, root)) > bound:
            raise NoConvergenceError(
                f"root iteration left residual {abs(_polyval(monic, root)):.3e} "
                f"at {root} after {_SWEEP_BUDGET} sweeps"
                + ("" if converged else " (budget exhausted)"))
        result.append((root, len(grp)))
    result.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return result


# ----------------------------------------------------------------------
# mode construction and amplitude fit

def mode_series(alpha: float, root: complex, degree: int, order: int) -> AlphaSeries:
    """Unit-amplitude series of t^(degree*alpha) E_alpha(root t^alpha).

    The coefficients are those of E_alpha shifted up by `degree` lattice
    slots, exactly.
    """
    if degree < 0 or degree >= order:
        raise DomainError(f"mode degree {degree} needs series order > {degree}")
    base = series_from_ml(alpha, root, order)
    if degree == 0:
        return base
    coeffs = (0.0 + 0.0j,) * degree + base.coeffs[:order + 1 - degree]
    return AlphaSeries(alpha, coeffs)


def general_solution(alpha: float, roots: Sequence) -> Solution:
    """One mode per root per degree 0..multiplicity-1, amplitudes unset."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"general_solution requires 0 < alpha <= 1, got {alpha}")
    modes = []
    notes = []
    for root, mult in sorted(roots, key=lambda rm: (complex(rm[0]).real,
                                                    complex(rm[0]).imag)):
        if mult < 1:
            raise DomainError("root multiplicities must be >= 1")
        for j in range(mult):
            modes.append(Mode(root=complex(root), degree=j))
        if mult > 2:
            notes.append(
                f"root {complex(root)}: multiplicity {mult} extends the "
                "t^(j*alpha) mode pattern past the derived j <= 1 case")
    if alpha != 1.0 and any(m.degree >= 1 for m in modes):
        notes.append(
            "degree >= 1 modes satisfy the equation only at alpha = 1; "
            "their residual is reported, not assumed zero")
    return Solution(alpha=alpha, modes=tuple(modes), notes=tuple(notes))


def apply_ics(solution: Solution, ics: Sequence[complex],
              series_order: Optional[int] = None) -> Solution:
    """Fit mode amplitudes to the sequential derivative values at 0.

    Builds the matrix M[k][i] = constant term of D^(k*alpha) applied to the
    unit mode i (for a degree-0 mode this is root^k exactly) and solves
    M a = ics by partial-pivot elimination. A determinant below 1e-12 of the
    row scale means a degenerate mode set and raises SingularSystemError.
    """
    modes = solution.modes
    n = len(modes)
    if len(ics) != n:
        raise DomainError(f"need {n} initial conditions, got {len(ics)}")
    order = series_order if series_order is not None else max(16, n + 8)
    matrix = np.empty((n, n), dtype=complex)
    for i, mode in enumerate(modes):
        s = mode_series(solution.alpha, mode.root, mode.degree, order)
        for k in range(n):
            matrix[k, i] = s.coeffs[0]
            if k < n - 1:
                s = s.jumarie_deriv()
    row_scale = float(np.prod(np.abs(matrix).max(axis=1)))
    det = complex(np.linalg.det(matrix))
    if abs(det) <= 1e-12 * row_scale:
        raise SingularSystemError(
            f"initial-condition system is singular (|det| = {abs(det):.3e})")
    amps = np.linalg.solve(matrix, np.asarray([complex(c) for c in ics]))
    fitted = tuple(replace(m, amplitude=complex(a)) for m, a in zip(modes, amps))
    return replace(solution, modes=fitted, real_form=None)


# ----------------------------------------------------------------------
# real form

def to_real_form(solution: Solution) -> Solution:
    """Group conjugate mode pairs a +- ib into trigonometric terms.

    The pair amplitudes A1 (root a+ib) and B1 (root a-ib) become
    cos_amp = A1 + B1 and sin_amp = i(A1 - B1), both real when the problem
    data were real. Raises PairingError when a non-real root lacks a
    conjugate partner of equal degree, or when the amplitudes are not
    conjugate-symmetric.
    """
    if not solution.amplitudes_set():
        raise DomainError("fit amplitudes before rendering the real form")
    modes = solution.modes
    used = [False] * len(modes)
    terms = []
    for i, mode in enumerate(modes):
        if used[i]:
            continue
        root_scale = 1.0 + abs(mode.root)
        if abs(mode.root.imag) <= 1e-12 * root_scale:
            amp = mode.amplitude
            if abs(amp.imag) > 1e-9 * (1.0 + abs(amp)):
                raise PairingError(
                    f"real root {mode.root} carries non-real amplitude {amp}")
            used[i] = True
            terms.append(RealModeTerm(a=mode.root.real, b=0.0, degree=mode.degree,
                                      cos_amp=amp.real, sin_amp=0.0))
            continue
        partner = None
        for j in range(i + 1, len(modes)):
            if used[j] or modes[j].degree != mode.degree:
                continue
            if abs(modes[j].root - mode.root.conjugate()) <= 1e-8 * root_scale:
                partner = j
                break
        if partner is None:
            raise PairingError(f"no conjugate partner for root {mode.root}")
        used[i] = used[partner] = True
        pos, neg = ((mode, modes[partner]) if mode.root.imag > 0
                    else (modes[partner], mode))
        cos_amp = pos.amplitude + neg.amplitude
        sin_amp = 1j * (pos.amplitude - neg.amplitude)
        amp_scale = 1.0 + abs(cos_amp) + abs(sin_amp)
        if max(abs(cos_amp.imag), abs(sin_amp.imag)) > 1e-9 * amp_scale:
            raise PairingError(
                f"amplitudes for roots {pos.root}/{neg.root} are not "
                "conjugate-symmetric; real form undefined")
        terms.append(RealModeTerm(a=pos.root.real, b=pos.root.imag,
                                  degree=mode.degree,
                                  cos_amp=cos_amp.real, sin_amp=sin_amp.real))
    return replace(solution, real_form=tuple(terms))


# ----------------------------------------------------------------------
# evaluation

def _mode_values(alpha: float, roots: Sequence[complex], t_values: Sequence[float],
                 tol: float) -> tuple:
    """(x, values): x[p] = t_p^alpha and values[i][p] = E_alpha(roots[i] x[p]).

    One ml_grid call per root. A failure is reported, as a pointwise loop
    would report it, for the earliest failing t and the first root failing
    there, so each later root only needs the points before that t.
    """
    ts = [float(t) for t in t_values]
    for t in ts:
        if t < 0.0:
            raise DomainError(f"evaluation requires t >= 0, got {t}")
    # Python's ** per point: np.power can differ from it in the last place
    x = np.array([t ** alpha for t in ts])
    values, failure = [], None
    for root in roots:
        end = len(ts) if failure is None else failure.index
        try:
            values.append(ml_grid(alpha, root * x[:end], tol).value)
        except ConvergenceError as exc:
            failure = exc
    if failure is not None:
        raise ConvergenceError(
            f"mode evaluation failed at t={ts[failure.index]}: {failure}",
            partial_sum=failure.partial_sum, last_term=failure.last_term,
            terms_used=failure.terms_used) from failure
    return x, values


def eval_solution(solution: Solution, t_values: Sequence[float],
                  tol: float = 1e-12) -> list:
    """Pointwise mode sum amplitude * t^(j*alpha) * E_alpha(root t^alpha)."""
    if not solution.amplitudes_set():
        raise DomainError("fit amplitudes before evaluating")
    x, values = _mode_values(solution.alpha, [m.root for m in solution.modes],
                             t_values, tol)
    total = np.zeros(len(x), dtype=complex)
    for mode, value in zip(solution.modes, values):
        total += mode.amplitude * x ** mode.degree * value
    return total.tolist()


def eval_real_form(solution: Solution, t_values: Sequence[float],
                   tol: float = 1e-12) -> list:
    """Pointwise values of the real-form terms (conjugate recombination).

    The modes of a pair a +- ib carry amplitudes (cos_amp -+ i sin_amp)/2, and
    E_alpha(conj z) = conj E_alpha(z), so the pair sums to
    cos_amp Re E + sin_amp Im E with E = E_alpha((a + ib) t^alpha): one
    evaluation per pair.
    """
    if solution.real_form is None:
        raise DomainError("real form not set; call to_real_form first")
    x, values = _mode_values(solution.alpha,
                             [complex(term.a, term.b) for term in solution.real_form],
                             t_values, tol)
    total = np.zeros(len(x))
    for term, value in zip(solution.real_form, values):
        total += x ** term.degree * (term.cos_amp * value.real
                                     + term.sin_amp * value.imag)
    return total.tolist()


def eval_solution_classical(solution: Solution, t_values: Sequence[float]) -> list:
    """Textbook exponential evaluation, valid only for alpha = 1.

    An independent path (cmath.exp instead of the series evaluator) used to
    cross-check the alpha = 1 reduction.
    """
    if solution.alpha != 1.0:
        raise DomainError("classical evaluation requires alpha = 1")
    if not solution.amplitudes_set():
        raise DomainError("fit amplitudes before evaluating")
    return [sum(m.amplitude * t ** m.degree * cmath.exp(m.root * t)
                for m in solution.modes) for t in t_values]


# ----------------------------------------------------------------------
# residuals and deviations

def residual(solution: Solution, problem: FDEProblem,
             series_order: int = 60) -> float:
    """Series residual of the fitted solution under the full operator.

    The solution is assembled as an AlphaSeries to the requested order, the
    operator applied coefficientwise, and the largest residual coefficient
    over the usable orders returned, normalized by the largest solution
    coefficient. Exactly zero solutions report zero.
    """
    if solution.alpha != problem.alpha:
        raise DomainError("solution and problem have different alpha")
    if series_order < problem.degree + 10:
        raise DomainError(
            f"series order must be at least degree+10 = {problem.degree + 10}")
    if not solution.amplitudes_set():
        raise DomainError("fit amplitudes before computing residuals")
    total = zero_series(solution.alpha, series_order)
    for mode in solution.modes:
        total = total.add(
            mode_series(solution.alpha, mode.root, mode.degree,
                        series_order).scale(mode.amplitude))
    applied = total.apply_operator(problem.char_coeffs)
    denom = total.max_abs_coeff()
    if denom == 0.0:
        return 0.0
    return applied.max_abs_coeff() / denom


def repeated_root_defect(alpha: float, order: int = 24) -> float:
    """Leading defect of the repeated-root ansatz, per unit root.

    (D^alpha - a)(t^alpha E_alpha(a t^alpha)) is claimed to equal
    Gamma(1+alpha) E_alpha(a t^alpha); on the lattice the two differ first
    at the t^alpha slot, by a * |Gamma(1+2 alpha)/Gamma(1+alpha)^2 - 2|.
    Computed here term by term for a = 1, so the return value is that Gamma
    expression; it vanishes only at alpha = 1.
    """
    e_series = series_from_ml(alpha, 1.0, order)
    shifted = mode_series(alpha, 1.0, 1, order)
    factored = shifted.apply_operator((-1.0, 1.0))     # (D^alpha - 1) t^alpha E
    claimed = e_series.truncated(factored.order).scale(gamma(1.0 + alpha))
    defect = factored.add(claimed.scale(-1.0))
    return abs(defect.coeffs[1])


def deviation_report(alphas: Sequence[float], pair=(1.0, 1.0),
                     t: float = 1.0, tol: float = 1e-13) -> DeviationReport:
    """Quantify the identities that hold pointwise only at alpha = 1.

    For each alpha the report carries, at the designated t:

    * product_law:   |E(a t^alpha) E(b t^alpha) - E((a+b) t^alpha)|
    * reciprocal_law:|E(a t^alpha) E(-a t^alpha) - 1|
    * repeated_root_ansatz: the per-unit-root leading defect (reported with
      t = 0 since it is a coefficient at the series origin)

    exact_at_alpha1 marks rows whose deviation is below 1e-12, which must
    hold for every alpha = 1 row.
    """
    a, b = complex(pair[0]), complex(pair[1])
    rows = []
    for alpha in alphas:
        alpha = float(alpha)
        x = float(t) ** alpha
        ea = ml(alpha, a * x, tol).value
        eb = ml(alpha, b * x, tol).value
        eab = ml(alpha, (a + b) * x, tol).value
        ea_neg = ml(alpha, -a * x, tol).value
        dev_product = abs(ea * eb - eab)
        dev_recip = abs(ea * ea_neg - 1.0)
        dev_ansatz = repeated_root_defect(alpha)
        rows.extend([
            DeviationRow("product_law", alpha, float(t), dev_product,
                         dev_product <= _EXACTNESS_TOL),
            DeviationRow("reciprocal_law", alpha, float(t), dev_recip,
                         dev_recip <= _EXACTNESS_TOL),
            DeviationRow("repeated_root_ansatz", alpha, 0.0, dev_ansatz,
                         dev_ansatz <= _EXACTNESS_TOL),
        ])
    return DeviationReport(tuple(rows))


# ----------------------------------------------------------------------

def _data_is_real(problem: FDEProblem) -> bool:
    return all(abs(c.imag) == 0.0 for c in problem.char_coeffs + problem.ics)


def solve_fde(problem: FDEProblem, series_order: Optional[int] = None,
              cluster_tol: float = 1e-8) -> Solution:
    """Full pipeline: roots, mode basis, amplitude fit, real form when real."""
    roots = find_roots(problem.char_coeffs, cluster_tol)
    sol = general_solution(problem.alpha, roots)
    sol = apply_ics(sol, problem.ics, series_order)
    if _data_is_real(problem):
        sol = to_real_form(sol)
    return sol
