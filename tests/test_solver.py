"""Characteristic-root solver: roots, modes, fits, residuals, deviations."""

import dataclasses
import math

import pytest

from fraccalc import (ConvergenceError, DomainError, FDEProblem, Mode,
                      PairingError, SingularSystemError, Solution, apply_ics,
                      deviation_report, eval_real_form, eval_solution,
                      eval_solution_classical, find_roots, general_solution,
                      ml, mode_series, repeated_root_defect, residual,
                      series_from_ml, solve_fde, to_real_form)

# 200-term series values at alpha = 1/2 (mpmath, 50 digits):
# E(1) = 5.0089800807622834663, E(2) = 108.94090438997797241
PRODUCT_LAW_DEV_HALF = 83.851022940504640616   # |E(1)^2 - E(2)|
ANSATZ_DEFECT_HALF = 0.72676045526483731385    # |4/pi - 2|
E2_PLUS_E3 = 27.474593022118317968


def _roots_match(got, expected, tol=1e-7):
    if len(got) != len(expected):
        return False
    expected = sorted(expected, key=lambda rm: (complex(rm[0]).real,
                                                complex(rm[0]).imag))
    return all(abs(g - complex(e)) <= tol and gm == em
               for (g, gm), (e, em) in zip(got, expected))


# ----------------------------------------------------------------------
# find_roots

def test_roots_distinct_real():
    assert _roots_match(find_roots((6.0, -5.0, 1.0)), [(2.0, 1), (3.0, 1)], 1e-12)


def test_roots_conjugate_pair():
    # lambda^2 - 2a lambda + (a^2+b^2), a=1, b=2
    assert _roots_match(find_roots((5.0, -2.0, 1.0)), [(1 - 2j, 1), (1 + 2j, 1)], 1e-12)


def test_roots_double():
    assert _roots_match(find_roots((2.25, -3.0, 1.0)), [(1.5, 2)])


def test_roots_triple_and_mixed():
    assert _roots_match(find_roots((-1.0, 3.0, -3.0, 1.0)), [(1.0, 3)])
    assert _roots_match(find_roots((2.0, -3.0, 0.0, 1.0)), [(-2.0, 1), (1.0, 2)])


def test_roots_quartic_unit_circle():
    assert _roots_match(find_roots((-1.0, 0.0, 0.0, 0.0, 1.0)),
                        [(-1.0, 1), (-1j, 1), (1j, 1), (1.0, 1)], 1e-10)


def test_roots_degree_one_and_validation():
    assert _roots_match(find_roots((3.0, 2.0)), [(-1.5, 1)], 1e-14)
    with pytest.raises(DomainError):
        find_roots((1.0,))
    with pytest.raises(DomainError):
        find_roots((1.0, 2.0, 0.0))


def test_roots_scale_invariant():
    base = find_roots((1.69, -1.0, 1.0))
    scaled = find_roots(tuple(7.0 * c for c in (1.69, -1.0, 1.0)))
    assert all(abs(a - b) <= 1e-13 for (a, _), (b, _) in zip(base, scaled))


# ----------------------------------------------------------------------
# general_solution / apply_ics

def test_general_solution_modes():
    sol = general_solution(0.5, [(1.0, 1)])
    assert len(sol.modes) == 1 and sol.modes[0].degree == 0
    assert sol.modes[0].amplitude is None

    sol = general_solution(0.5, [(2.0, 2)])
    assert [m.degree for m in sol.modes] == [0, 1]
    assert any("only at alpha = 1" in n for n in sol.notes)

    sol = general_solution(0.5, [(2.0, 3)])
    assert [m.degree for m in sol.modes] == [0, 1, 2]
    assert any("multiplicity 3" in n for n in sol.notes)


def test_apply_ics_single_mode():
    sol = apply_ics(general_solution(0.5, [(1.5, 1)]), (1.0,))
    assert abs(sol.modes[0].amplitude - 1.0) <= 1e-14


def test_apply_ics_classical_pair():
    sol = apply_ics(general_solution(1.0, [(2.0, 1), (3.0, 1)]), (2.0, 5.0))
    assert all(abs(m.amplitude - 1.0) <= 1e-12 for m in sol.modes)


def test_apply_ics_double_root_uses_gamma_slot():
    # y = (A t^a + B) E(a t^a): y(0) = B, D^a y(0) = A Gamma(1+a) + B a
    alpha, a = 0.5, 1.5
    sol = apply_ics(general_solution(alpha, [(a, 2)]), (0.0, 1.0))
    amp = {m.degree: m.amplitude for m in sol.modes}
    assert abs(amp[0]) <= 1e-13
    assert abs(amp[1] - 1.0 / math.gamma(1.5)) <= 1e-13


def test_apply_ics_rejects_degenerate_modes():
    dup = Solution(alpha=0.5, modes=(Mode(1.0, 0), Mode(1.0, 0)))
    with pytest.raises(SingularSystemError):
        apply_ics(dup, (1.0, 0.0))


def test_apply_ics_wrong_count():
    with pytest.raises(DomainError):
        apply_ics(general_solution(0.5, [(1.0, 1)]), (1.0, 2.0))


# ----------------------------------------------------------------------
# real form

def test_real_form_cosine():
    # D^2 y + y = 0, y(0)=1, y'(0)=0 -> cos t
    prob = FDEProblem(alpha=1.0, char_coeffs=(1.0, 0.0, 1.0), ics=(1.0, 0.0))
    sol = solve_fde(prob)
    assert sol.real_form is not None
    term = sol.real_form[0]
    assert abs(term.a) <= 1e-12 and abs(term.b - 1.0) <= 1e-12
    assert abs(term.cos_amp - 1.0) <= 1e-12 and abs(term.sin_amp) <= 1e-12
    ts = [i / 10 for i in range(11)]
    values = eval_real_form(sol, ts, tol=1e-14)
    assert max(abs(v - math.cos(t)) for v, t in zip(values, ts)) <= 1e-12


def test_real_form_keeps_real_modes():
    prob = FDEProblem(alpha=0.5, char_coeffs=(-2.0, 1.0, 1.0), ics=(1.0, 0.0))
    sol = solve_fde(prob)
    assert all(term.b == 0.0 for term in sol.real_form)
    ts = [i / 10 for i in range(11)]
    mode_sum = eval_solution(sol, ts, tol=1e-13)
    rendered = eval_real_form(sol, ts, tol=1e-13)
    assert max(abs(r - v) for r, v in zip(rendered, mode_sum)) <= 1e-12


def test_real_form_equivalence_fractional_pair():
    prob = FDEProblem(alpha=0.5, char_coeffs=(1.69, -1.0, 1.0), ics=(1.0, 0.0))
    sol = solve_fde(prob)
    pair_terms = [t for t in sol.real_form if t.b != 0.0]
    assert len(pair_terms) == 1
    ts = [i / 25 for i in range(26)]
    mode_sum = eval_solution(sol, ts, tol=1e-13)
    assert max(abs(v.imag) for v in mode_sum) <= 1e-12
    rendered = eval_real_form(sol, ts, tol=1e-13)
    assert max(abs(r - v) for r, v in zip(rendered, mode_sum)) <= 1e-10


def test_real_form_requires_conjugate_partner():
    lone = Solution(alpha=0.5, modes=(Mode(1.0 + 2.0j, 0, amplitude=1.0),))
    with pytest.raises(PairingError):
        to_real_form(lone)


# ----------------------------------------------------------------------
# residuals

def test_residual_distinct_roots_small():
    prob = FDEProblem(alpha=0.5, char_coeffs=(-2.0, 1.0, 1.0), ics=(1.0, 0.0))
    sol = solve_fde(prob)
    assert residual(sol, prob, 60) <= 1e-10


def test_residual_conjugate_pair_small():
    prob = FDEProblem(alpha=0.5, char_coeffs=(1.69, -1.0, 1.0), ics=(1.0, 0.0))
    sol = solve_fde(prob)
    assert residual(sol, prob, 60) <= 1e-10


def test_residual_repeated_root_not_small():
    # pure t^alpha E(t^alpha) mode of (D^alpha - 1)^2; the full-operator
    # residual normalized by the largest solution coefficient is pi/2 - 1
    prob = FDEProblem(alpha=0.5, char_coeffs=(1.0, -2.0, 1.0), ics=(0.0, 1.0))
    sol = solve_fde(prob)
    pure = dataclasses.replace(
        sol, real_form=None,
        modes=tuple(dataclasses.replace(m, amplitude=float(m.degree))
                    for m in sol.modes))
    value = residual(pure, prob, 60)
    assert value > 0.1
    assert abs(value - (math.pi / 2.0 - 1.0)) <= 1e-10


def test_repeated_root_defect_witness():
    # leading gap of (D^a - a)(t^a E) against Gamma(1+a) E, at order t^a
    assert abs(repeated_root_defect(0.5) - ANSATZ_DEFECT_HALF) <= 1e-12
    assert abs(repeated_root_defect(0.5) - abs(4.0 / math.pi - 2.0)) <= 1e-12
    assert repeated_root_defect(1.0) <= 1e-14


def test_residual_requires_margin():
    prob = FDEProblem(alpha=0.5, char_coeffs=(-2.0, 1.0, 1.0), ics=(1.0, 0.0))
    sol = solve_fde(prob)
    with pytest.raises(DomainError):
        residual(sol, prob, prob.degree + 5)


def test_kernel_property_every_factor():
    for alpha in (0.3, 0.5, 0.8, 1.0):
        for root in (1.0, -2.0, 1.0 + 2.0j):
            s = series_from_ml(alpha, root, 40)
            out = s.apply_operator((-root, 1.0))
            assert out.max_abs_coeff() <= 1e-12 * max(1.0, s.max_abs_coeff())


# ----------------------------------------------------------------------
# evaluation

def test_eval_solution_at_zero_sums_constant_modes():
    prob = FDEProblem(alpha=0.5, char_coeffs=(-2.0, 1.0, 1.0), ics=(1.0, 0.0))
    sol = solve_fde(prob)
    y0 = eval_solution(sol, [0.0])[0]
    assert abs(y0 - 1.0) <= 1e-12


def test_eval_solution_classical_sum():
    prob = FDEProblem(alpha=1.0, char_coeffs=(6.0, -5.0, 1.0), ics=(2.0, 5.0))
    sol = solve_fde(prob)
    y1 = eval_solution(sol, [1.0], tol=1e-14)[0]
    assert abs(y1 - E2_PLUS_E3) <= 1e-9


def test_eval_solution_half_order_mode():
    sol = apply_ics(general_solution(0.5, [(1.0, 1)]), (1.0,))
    y1 = eval_solution(sol, [1.0], tol=1e-14)[0]
    assert abs(y1 - 5.0089800807622834663) <= 1e-10


def test_eval_solution_propagates_convergence_failure():
    sol = apply_ics(general_solution(0.3, [(30.0, 1)]), (1.0,))
    with pytest.raises(ConvergenceError) as err:
        eval_solution(sol, [1.0])
    assert "t=1.0" in str(err.value)


@pytest.mark.parametrize("far", [8.0, -8.0])
def test_eval_grid_failure_names_earliest_t(far):
    # at alpha = 0.3 the root-1 mode fails only at t = 1e4 and the root-far
    # mode from t = 1 on: the earliest failing t is reported, whichever
    # mode comes first
    roots = [(1.0, 1), (far, 1)]
    sol = to_real_form(apply_ics(general_solution(0.3, roots), (1.0, 0.0)))
    ts = [0.0, 0.25, 1.0, 3.0, 1e4]
    with pytest.raises(ConvergenceError) as scalar:
        ml(0.3, far)
    for evaluate in (eval_solution, eval_real_form):
        with pytest.raises(ConvergenceError) as err:
            evaluate(sol, ts)
        assert "t=1.0:" in str(err.value)
        assert err.value.terms_used == scalar.value.terms_used
        assert err.value.partial_sum == scalar.value.partial_sum


def _scalar_mode_sum(sol, ts):
    """y(t) one point and one mode at a time, with the scalar ml."""
    return [sum(m.amplitude * (t ** sol.alpha) ** m.degree
                * ml(sol.alpha, m.root * t ** sol.alpha).value for m in sol.modes)
            for t in ts]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("coeffs", [
    (6.0, -5.0, 1.0),           # distinct real roots 2, 3
    (5.0, -2.0, 1.0),           # conjugate pair 1 +- 2i
    (2.25, -3.0, 1.0),          # double root 1.5
    (-2.0, 0.0, 1.0, 1.0),      # root 1 and the pair -1 +- i
])
def test_grid_eval_matches_scalar_mode_sum(alpha, coeffs):
    prob = FDEProblem(alpha=alpha, char_coeffs=coeffs,
                      ics=(1.0, -0.5, 0.25)[:len(coeffs) - 1])
    sol = solve_fde(prob)
    ts = [2.0 * i / 200 for i in range(201)]
    want = _scalar_mode_sum(sol, ts)
    scale = max(abs(w) for w in want)
    got = eval_solution(sol, ts)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * scale
    rendered = eval_real_form(sol, ts)
    assert max(abs(r - w.real) for r, w in zip(rendered, want)) <= 1e-14 * scale


def test_eval_negative_t_rejected():
    sol = apply_ics(general_solution(0.5, [(1.0, 1)]), (1.0,))
    with pytest.raises(DomainError):
        eval_solution(sol, [-0.5])


def test_eval_classical_requires_alpha_one():
    sol = apply_ics(general_solution(0.5, [(1.0, 1)]), (1.0,))
    with pytest.raises(DomainError):
        eval_solution_classical(sol, [0.5])


def test_ic_consistency_series_derivatives():
    prob = FDEProblem(alpha=0.5, char_coeffs=(1.69, -1.0, 1.0), ics=(1.0, 0.5))
    sol = solve_fde(prob)
    order = 16
    total = None
    for m in sol.modes:
        part = mode_series(prob.alpha, m.root, m.degree, order).scale(m.amplitude)
        total = part if total is None else total.add(part)
    for k, ic in enumerate(prob.ics):
        assert abs(total.coeffs[0] - ic) <= 1e-10
        total = total.jumarie_deriv()
    assert abs(eval_solution(sol, [0.0])[0] - prob.ics[0]) <= 1e-10


def test_complex_coefficient_pipeline_skips_real_form():
    # D^a y = -i y with y(0) = 1: single mode at root -i, no real rendering
    prob = FDEProblem(alpha=0.5, char_coeffs=(1j, 1.0), ics=(1.0,))
    sol = solve_fde(prob)
    assert sol.real_form is None
    assert abs(sol.modes[0].root - (-1j)) <= 1e-14
    assert residual(sol, prob, 40) <= 1e-12
    y = eval_solution(sol, [0.5], tol=1e-13)[0]
    direct = ml(0.5, -1j * 0.5 ** 0.5, tol=1e-13).value
    assert abs(y - direct) <= 1e-12


def test_solution_scaling_equivariance():
    base = FDEProblem(alpha=0.5, char_coeffs=(1.69, -1.0, 1.0), ics=(1.0, 0.0))
    scaled = FDEProblem(alpha=0.5,
                        char_coeffs=tuple(-3.5 * c for c in base.char_coeffs),
                        ics=base.ics)
    sol_a, sol_b = solve_fde(base), solve_fde(scaled)
    for ma, mb in zip(sol_a.modes, sol_b.modes):
        assert abs(ma.root - mb.root) <= 1e-13
        assert abs(ma.amplitude - mb.amplitude) <= 1e-13


# ----------------------------------------------------------------------
# deviations

def test_deviation_report_exact_at_alpha_one():
    report = deviation_report([1.0])
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.deviation <= 1e-12
        assert row.exact_at_alpha1


def test_deviation_report_alpha_half_witnesses():
    report = deviation_report([0.5])
    by_name = {row.identity: row for row in report.rows}
    assert abs(by_name["product_law"].deviation - PRODUCT_LAW_DEV_HALF) <= 1e-8
    assert abs(by_name["repeated_root_ansatz"].deviation
               - ANSATZ_DEFECT_HALF) <= 1e-10
    recip = by_name["reciprocal_law"].deviation
    e_pos = ml(0.5, 1.0, tol=1e-14).value
    e_neg = ml(0.5, -1.0, tol=1e-14).value
    assert abs(recip - abs(e_pos * e_neg - 1.0)) <= 1e-10
    assert not any(row.exact_at_alpha1 for row in report.rows)


# ----------------------------------------------------------------------
# problem validation

def test_problem_validation():
    with pytest.raises(DomainError):
        FDEProblem(alpha=1.5, char_coeffs=(1.0, 1.0), ics=(1.0,))
    with pytest.raises(DomainError):
        FDEProblem(alpha=0.5, char_coeffs=(1.0, 0.0), ics=(1.0,))
    with pytest.raises(DomainError):
        FDEProblem(alpha=0.5, char_coeffs=(1.0, 1.0), ics=(1.0, 2.0))
    with pytest.raises(DomainError):
        FDEProblem(alpha=0.5, char_coeffs=(1.0, 1.0), ics=(1.0,),
                   grid=(-1.0, 51))
