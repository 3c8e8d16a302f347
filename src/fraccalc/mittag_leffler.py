"""One-parameter Mittag-Leffler function and fractional trigonometric series.

E_alpha(z) = sum_{k>=0} z^k / Gamma(1 + k*alpha) is summed directly with
Kahan compensation. Successive terms come from the ratio recurrence
term_{k+1} = term_k * z * Gamma(1+k*alpha)/Gamma(1+(k+1)*alpha); the ratio
is an exact Gamma quotient while both arguments fit in a double and is
formed in log space afterwards (deep in the convergent tail, where its
extra rounding cannot matter).

ml evaluates one point; ml_grid evaluates a whole array of points in one
vectorised pass with the same arithmetic, so both give identical numbers.
cos_alpha and sin_alpha are the real and imaginary parts of E_alpha(i t^alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ConvergenceError, DomainError
from .special import gamma_ratio

#: Hard cap on the number of summed terms. The plain series covers the
#: argument ranges the solver produces; asymptotic or integral
#: representations for very large |z| are deliberately not provided.
TERM_BUDGET = 2000

#: |E_alpha(i M^alpha) - 1| must fall below this for M to count as a period.
PERIOD_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MLEvaluation:
    """Value of E_alpha(z) plus summation diagnostics.

    truncation_estimate is the magnitude of the first omitted term, so on
    success it is below tol * max(1, |value|). From ml_grid each field is an
    array with one entry per grid point.
    """

    value: complex
    terms_used: int
    truncation_estimate: float


def _check_args(name: str, alpha: float, tol: float) -> None:
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"{name} requires 0 < alpha <= 2, got {alpha}")
    if not tol > 0.0:
        raise DomainError(f"{name} requires tol > 0, got {tol}")


def _overflow_error(label: str, total: complex, term: complex, k: int,
                    index: Optional[int] = None) -> ConvergenceError:
    return ConvergenceError(
        f"{label}: running term or sum overflowed after {k} terms; "
        "argument outside the plain-series range",
        partial_sum=total, last_term=term, terms_used=k, index=index)


def _budget_error(label: str, total: complex, term: complex, k: int,
                  index: Optional[int] = None) -> ConvergenceError:
    return ConvergenceError(
        f"{label}: term budget of {TERM_BUDGET} exhausted before the "
        f"stopping rule fired (|last term| = {abs(term):.3e})",
        partial_sum=total, last_term=term, terms_used=k, index=index)


def ml(alpha: float, z: complex, tol: float = 1e-12) -> MLEvaluation:
    """Evaluate E_alpha(z) for 0 < alpha <= 2 by direct summation.

    Terms are summed with Kahan compensation until the pending term drops
    below tol * max(1, |partial sum|); that term is reported as the
    truncation estimate and is not added. Raises ConvergenceError when a
    term or the partial sum overflows or the term budget runs out, which
    happens for large |z| combined with small alpha.
    """
    _check_args("ml", alpha, tol)
    label = f"ml(alpha={alpha})"
    z = complex(z)
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    term = 1.0 + 0.0j
    k = 0
    while k < TERM_BUDGET:
        try:
            mag, size = abs(term), abs(total)
        except OverflowError:       # finite parts whose modulus overflows
            mag = size = math.inf
        if not (math.isfinite(mag) and math.isfinite(size)):
            raise _overflow_error(label, total, term, k)
        if mag < tol * max(1.0, size):
            return MLEvaluation(total, k, mag)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        term = term * z * gamma_ratio(1.0 + k * alpha, 1.0 + (k + 1) * alpha)
        k += 1
    raise _budget_error(label, total, term, k)


def ml_grid(alpha: float, z: np.ndarray, tol: float = 1e-12) -> MLEvaluation:
    """Evaluate E_alpha at every point of the 1-D array z in one pass.

    Each point follows exactly the arithmetic of ml, so value, terms_used
    and truncation_estimate (arrays here) equal ml's point by point under
    ==. The recurrence runs on all points at once with one gamma_ratio call
    per term, points that met the stopping rule are dropped from the arrays
    whenever they make up half of them, and working memory is a few arrays
    of len(z).

    When points fail, raises ConvergenceError for the lowest-index failing
    point, with the partial_sum, last_term and terms_used that ml reports
    for it and that position as index.
    """
    _check_args("ml_grid", alpha, tol)
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise DomainError(f"ml_grid requires a 1-D array, got shape {z.shape}")
    label = f"ml_grid(alpha={alpha})"
    n = z.size
    value = np.empty(n, dtype=complex)
    terms_used = np.empty(n, dtype=int)
    truncation = np.empty(n)
    # Per point: grid index, argument, pending term, Kahan sum and
    # compensation. Real and imaginary parts are kept apart so that every
    # product is formed as CPython forms it; numpy's complex multiply can
    # round differently in the last place.
    idx = np.arange(n)
    zr, zi = z.real.copy(), z.imag.copy()
    tr, ti = np.ones(n), np.zeros(n)
    sr, si, cr, ci = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    live = np.ones(n, dtype=bool)
    failure = None
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while idx.size and k < TERM_BUDGET:
            mag, size = np.hypot(tr, ti), np.hypot(sr, si)
            bad = live & ~(np.isfinite(mag) & np.isfinite(size))
            done = live & ~bad & (mag < tol * np.maximum(1.0, size))
            if done.any():
                hit = idx[done]
                value.real[hit] = sr[done]
                value.imag[hit] = si[done]
                terms_used[hit] = k
                truncation[hit] = mag[done]
                live &= ~done
            if bad.any():
                # indices are ascending, and only points before the failing
                # one can still replace it as the reported failure
                j = np.flatnonzero(bad)[0]
                failure = _overflow_error(label, complex(sr[j], si[j]),
                                          complex(tr[j], ti[j]), k, int(idx[j]))
                live[j:] = False
            # Finished points ride along until half the arrays are dead:
            # dropping them at every step costs more than it saves, and
            # arrays of ever-changing size fragment the heap.
            if 2 * np.count_nonzero(live) <= live.size:
                idx, zr, zi, tr, ti, sr, si, cr, ci = (
                    a[live] for a in (idx, zr, zi, tr, ti, sr, si, cr, ci))
                live = live[live]
            yr, yi = tr - cr, ti - ci
            ur, ui = sr + yr, si + yi
            cr, ci = (ur - sr) - yr, (ui - si) - yi
            sr, si = ur, ui
            g = gamma_ratio(1.0 + k * alpha, 1.0 + (k + 1) * alpha)
            pr, pi = tr * zr - ti * zi, tr * zi + ti * zr
            # CPython before 3.14 multiplies a complex by a float g as by
            # complex(g, 0.0), which fixes signed zeros and NaN parts
            tr, ti = pr * g - pi * 0.0, pr * 0.0 + pi * g
            k += 1
    if live.any():
        j = np.flatnonzero(live)[0]
        raise _budget_error(label, complex(sr[j], si[j]), complex(tr[j], ti[j]),
                            k, int(idx[j]))
    if failure is not None:
        raise failure
    return MLEvaluation(value, terms_used, truncation)


def _check_trig_args(name: str, alpha: float, t: float, tol: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"{name} requires 0 < alpha <= 1, got {alpha}")
    if t < 0.0:
        raise DomainError(f"{name} requires t >= 0, got {t}")
    if not tol > 0.0:
        raise DomainError(f"{name} requires tol > 0, got {tol}")


def cos_alpha(alpha: float, t: float, tol: float = 1e-12) -> float:
    """sum_{k>=0} (-1)^k t^(2k*alpha) / Gamma(1+2k*alpha), the real part
    of E_alpha(i t^alpha)."""
    _check_trig_args("cos_alpha", alpha, t, tol)
    return ml(alpha, 1j * float(t) ** alpha, tol).value.real


def sin_alpha(alpha: float, t: float, tol: float = 1e-12) -> float:
    """sum_{k>=0} (-1)^k t^((2k+1)*alpha) / Gamma(1+(2k+1)*alpha), the
    imaginary part of E_alpha(i t^alpha)."""
    _check_trig_args("sin_alpha", alpha, t, tol)
    return ml(alpha, 1j * float(t) ** alpha, tol).value.imag


def _distance_to_one(alpha: float, m: float) -> float:
    return abs(ml(alpha, 1j * m ** alpha, tol=1e-13).value - 1.0)


def _golden_minimize(f: Callable[[float], float], lo: float, hi: float,
                     rel_width: float = 1e-12) -> float:
    """Golden-section search for the minimizer of a unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_width * max(1.0, abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def ml_period(alpha: float, search_max: float,
              scan_points: int = 2048) -> Optional[float]:
    """Smallest M in (0, search_max] with E_alpha(i M^alpha) = 1, or None.

    |E_alpha(i M^alpha) - 1| is scanned on a uniform grid; each interior
    local minimum is refined by golden-section search and accepted when the
    refined distance falls below PERIOD_TOLERANCE. For alpha = 1 this
    recovers 2*pi; for alpha < 1 there is typically no such M and the scan
    comes back empty.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"ml_period requires 0 < alpha <= 1, got {alpha}")
    if not search_max > 0.0:
        raise DomainError(f"ml_period requires search_max > 0, got {search_max}")

    step = search_max / scan_points
    x = np.array([((i + 1) * step) ** alpha for i in range(scan_points)])
    values = np.abs(ml_grid(alpha, 1j * x, tol=1e-13).value - 1.0)
    for i in range(1, scan_points - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            lo = i * step          # grid point i-1 maps to M = i*step
            hi = (i + 2) * step
            m_star = _golden_minimize(lambda m: _distance_to_one(alpha, m), lo, hi)
            if _distance_to_one(alpha, m_star) < PERIOD_TOLERANCE:
                return m_star
    return None
