"""Mittag-Leffler evaluation and the fractional trigonometric series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccalc import (ConvergenceError, DomainError, cos_alpha, ml, ml_grid,
                      ml_period, sin_alpha)

E = math.e
TWO_PI = 6.2831853071795864769

# E_{1/2}(1) = exp(1) erfc(-1); mpmath 50 digits, matches the 200-term series
ML_HALF_AT_1 = 5.0089800807622834663


def test_exponential_reduction():
    got = ml(1.0, 1.0, tol=1e-14)
    assert abs(got.value - E) <= 1e-14 * E


def test_zero_argument_is_one():
    for alpha in (0.1, 0.5, 1.0, 1.7, 2.0):
        got = ml(alpha, 0.0)
        assert got.value == 1.0 + 0.0j
        assert got.terms_used == 1


def test_half_order_closed_form():
    got = ml(0.5, 1.0, tol=1e-14)
    assert abs(got.value - ML_HALF_AT_1) <= 1e-12


def test_cosh_reduction():
    # E_2(z^2) = cosh(z)
    for i in range(16):
        z = 3.0 * i / 15.0
        got = ml(2.0, z * z, tol=1e-14)
        assert abs(got.value - math.cosh(z)) <= 1e-11


def test_truncation_estimate_respects_tolerance():
    for tol in (1e-6, 1e-10, 1e-13):
        got = ml(0.7, 2.0 + 1.0j, tol=tol)
        assert got.truncation_estimate < tol * max(1.0, abs(got.value))


def test_monotone_truncation():
    estimates = [ml(0.6, 2.0 + 1.0j, tol=tol).truncation_estimate
                 for tol in (1e-6, 1e-9, 1e-12)]
    assert estimates[0] > estimates[1] > estimates[2]


def test_term_budget_exhaustion():
    with pytest.raises(ConvergenceError) as err:
        ml(0.3, 40.0)
    assert err.value.terms_used is not None
    assert err.value.partial_sum is not None


@pytest.mark.parametrize("alpha,tol", [(0.0, 1e-12), (2.5, 1e-12), (1.0, 0.0)])
def test_ml_domain(alpha, tol):
    with pytest.raises(DomainError):
        ml(alpha, 1.0, tol=tol)


def _scalar_or_error(alpha, z, tol=1e-12):
    try:
        return ml(alpha, z, tol)
    except ConvergenceError as exc:
        return exc


def _assert_same_error(got, want, index):
    assert got.index == index
    assert got.terms_used == want.terms_used
    assert got.partial_sum == want.partial_sum
    # repr also tells NaN parts and signed zeros apart
    assert repr(got.last_term) == repr(want.last_term)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_min=True),
       re=st.floats(-12.0, 12.0), im=st.floats(0.0, 12.0),
       ts=st.lists(st.floats(0.0, 1.5), max_size=12))
def test_grid_matches_scalar_pointwise(alpha, re, im, ts):
    # root * t^alpha for t = 0 and the drawn t, each with the conjugate root
    # and a negative real root of the same modulus
    root = complex(re, im)
    z = [w * t ** alpha for t in [0.0] + ts
         for w in (root, root.conjugate(), -abs(root))]
    want = [_scalar_or_error(alpha, w) for w in z]
    failed = [i for i, w in enumerate(want) if isinstance(w, ConvergenceError)]
    if failed:
        with pytest.raises(ConvergenceError) as err:
            ml_grid(alpha, np.array(z))
        _assert_same_error(err.value, want[failed[0]], failed[0])
        return
    got = ml_grid(alpha, np.array(z))
    for i, w in enumerate(want):
        assert got.value[i] == w.value
        assert got.terms_used[i] == w.terms_used
        assert got.truncation_estimate[i] == w.truncation_estimate
    # E(conj z) = conj E(z) holds exactly, which eval_real_form relies on
    assert np.array_equal(got.value[1::3], got.value[0::3].conj())


@pytest.mark.parametrize("alpha,bad", [
    (0.3, 40.0),                      # a term overflows after 267 terms
    (0.01, 1.03),                     # term budget exhausted
    (1.0, 1e300),                     # the second term is inf + nan j
    (1.0, 1.5e308 + 1.5e308j),        # finite parts, modulus overflows
])
def test_grid_convergence_error_parity(alpha, bad):
    with pytest.raises(ConvergenceError) as scalar:
        ml(alpha, bad)
    # the error names the lowest failing index, whatever fails later
    z = np.array([0.5, bad, 2.0, 1e300 + 1e300j])
    with pytest.raises(ConvergenceError) as grid:
        ml_grid(alpha, z)
    _assert_same_error(grid.value, scalar.value, 1)


def test_grid_shape_and_domain():
    got = ml_grid(0.5, np.array([], dtype=complex))
    assert got.value.shape == got.terms_used.shape == (0,)
    with pytest.raises(DomainError):
        ml_grid(0.5, np.zeros((2, 2)))
    with pytest.raises(DomainError):
        ml_grid(2.5, np.zeros(3))


def test_trig_alpha_one_reduction():
    for t in (0.0, 0.5, 1.0, 2.0):
        assert abs(cos_alpha(1.0, t, tol=1e-14) - math.cos(t)) <= 1e-12
        assert abs(sin_alpha(1.0, t, tol=1e-14) - math.sin(t)) <= 1e-12


def test_trig_leading_terms():
    for alpha in (0.3, 0.5, 0.8):
        assert cos_alpha(alpha, 0.0) == 1.0
        assert sin_alpha(alpha, 0.0) == 0.0


def test_trig_is_real_imag_decomposition():
    # exact series rearrangement of E_alpha(i t^alpha)
    for alpha in (0.3, 0.5, 0.8, 1.0):
        for t in (0.0, 0.5, 1.0, 2.0, 3.0):
            z = 1j * t ** alpha
            whole = ml(alpha, z, tol=1e-14).value
            assert abs(whole.real - cos_alpha(alpha, t, tol=1e-14)) <= 1e-11
            assert abs(whole.imag - sin_alpha(alpha, t, tol=1e-14)) <= 1e-11


def test_cos_half_matches_series_oracle():
    assert abs(cos_alpha(0.5, 1.0, tol=1e-14)
               - ml(0.5, 1j, tol=1e-14).value.real) <= 1e-13


@pytest.mark.parametrize("alpha,t", [(1.5, 1.0), (0.5, -1.0)])
def test_trig_domain(alpha, t):
    with pytest.raises(DomainError):
        cos_alpha(alpha, t)
    with pytest.raises(DomainError):
        sin_alpha(alpha, t)


def test_period_alpha_one_is_two_pi():
    m = ml_period(1.0, 10.0)
    assert m is not None
    assert abs(m - TWO_PI) <= 1e-8


def test_period_absent_when_no_minimum_qualifies():
    # dense-scan fixture: for alpha=0.9 the deepest |E-1| minimum on (0, 20]
    # is about 0.63 at M ~ 6.25, nowhere near the period threshold
    assert ml_period(0.9, 20.0) is None


def test_period_contract_case_short_range():
    # range ends before the alpha=1 period at 2*pi
    assert ml_period(1.0, 3.0) is None


def test_period_domain():
    with pytest.raises(DomainError):
        ml_period(1.5, 10.0)
    with pytest.raises(DomainError):
        ml_period(0.5, -1.0)
