"""Root-free oracle for linear Jumarie FDEs: the companion-matrix lattice series.

With Y = (y, D^a y, ..., D^((n-1)a) y) the equation sum_m p_m D^(m a) y = 0
reads D^a Y = C Y, C the companion matrix, so on the t^(k a) lattice

    Y(t) = sum_k C^k Y(0) t^(k a) / Gamma(1 + k a)

(Garrappa & Popolizio, Computing the matrix Mittag-Leffler function with
applications to fractional calculus, J. Sci. Comput. 77, 2018). The oracle
needs neither characteristic roots nor an initial-condition fit, so it shares
no step with the solver it checks.

Pointwise values are summed in mpmath at a precision chosen from the largest
term of the series over the evaluation interval, not at a fixed dps: for
E_{1/2}(-14) the terms reach 1e85, so 50 digits would leave the oracle itself
wrong.
"""

from __future__ import annotations

import math

import mpmath

#: Digits carried beyond the largest term, relative to the data scale.
GUARD_DIGITS = 25


def _mp(z: complex):
    z = complex(z)
    return mpmath.mpf(z.real) if z.imag == 0.0 else mpmath.mpc(z.real, z.imag)


def _companion(char_coeffs):
    """Last row of the companion matrix, -p_m / p_n for m < n."""
    p = [_mp(c) for c in char_coeffs]
    return [-c / p[-1] for c in p[:-1]]


def _step(row, v):
    """C v for the companion matrix with last row `row`."""
    return v[1:] + [mpmath.fsum(c * x for c, x in zip(row, v))]


def _majorant_logs(char_coeffs, ics):
    """Yield log10 of max_i (|C|^k |Y0|)_i for k = 0, 1, 2, ...

    |C|^k |Y0| bounds every component of C^k Y0 and the rounding error of
    computing it, so it sets both the working precision and the error scale.
    Kept in double precision with a running log scale so that large powers
    never overflow.
    """
    p = [complex(c) for c in char_coeffs]
    row = [abs(c / p[-1]) for c in p[:-1]]
    v = [abs(complex(c)) for c in ics]
    log_scale = 0.0
    while True:
        top = max(v)
        if top == 0.0:
            yield -math.inf
        else:
            log_scale += math.log10(top)
            v = [x / top for x in v]
            yield log_scale
        v = v[1:] + [sum(c * x for c, x in zip(row, v))]


def lattice_coeffs(alpha: float, char_coeffs, ics, order: int):
    """Exact series coefficients c_k = (C^k Y0)_0 / Gamma(1 + k alpha), k <= order.

    Returns (coeffs, scales): coeffs as complex doubles, scales[k] the
    majorant (|C|^k |Y0|)_max / Gamma(1 + k alpha), an a-priori error scale
    for c_k that depends on no value under test. C^k Y0 is formed in
    mpmath at 30 digits, which leaves its rounding far below 1e-20 of the
    majorant at the orders used here; the Gamma divisor is a double, good
    to a few ulps.
    """
    logs = _majorant_logs(char_coeffs, ics)
    with mpmath.workdps(30):
        row = _companion(char_coeffs)
        v = [_mp(c) for c in ics]
        coeffs, scales = [], []
        for k in range(order + 1):
            g = math.lgamma(1.0 + k * alpha)
            coeffs.append(complex(v[0]) / math.exp(g))
            # clamped to the double range; an op that far out fails its check
            scales.append(10.0 ** min(next(logs) - g / math.log(10.0), 300.0))
            v = _step(row, v)
    return coeffs, scales


def solution_values(alpha: float, char_coeffs, ics, ts):
    """y(t) at each t in ts from the lattice series, as complex doubles.

    A first pass over the majorant terms
    M_k = (|C|^k |Y0|)_max T^(k alpha) / Gamma(1 + k alpha), T = max(ts),
    fixes both the number of terms (until M_k, past its peak, is
    GUARD_DIGITS + 5 digits below the data scale max|Y0|) and the working
    precision (the peak's size over that scale plus GUARD_DIGITS).
    """
    t_end = max(float(t) for t in ts)
    n = len(ics)
    data_scale = math.log10(max(abs(complex(c)) for c in ics))
    log_t = math.log10(t_end) if t_end > 0.0 else -math.inf
    cutoff = data_scale - GUARD_DIGITS - 5
    peak = prev = -math.inf
    for k, maj in enumerate(_majorant_logs(char_coeffs, ics)):
        term = maj - math.lgamma(1.0 + k * alpha) / math.log(10.0)
        if k:
            term += k * alpha * log_t
        peak = max(peak, term)
        if k >= n and term < cutoff and term <= prev:
            break
        if k > 200_000:
            raise ArithmeticError("lattice series did not reach its cutoff")
        prev = term
    count = k + 1
    dps = max(30, int(math.ceil(peak - data_scale)) + GUARD_DIGITS)
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        row = _companion(char_coeffs)
        v = [_mp(c) for c in ics]
        d = []
        for k in range(count):
            d.append(v[0] * mpmath.rgamma(1 + k * a))
            v = _step(row, v)
        out = []
        for t in ts:
            x = mpmath.mpf(float(t)) ** a
            acc = 0
            for c in reversed(d):
                acc = acc * x + c
            out.append(complex(acc))
    return out


def ml_value(alpha: float, z: complex) -> complex:
    """E_alpha(z) as the degree-1 lattice series: C = [z], Y0 = [1], t = 1."""
    return solution_values(alpha, (-complex(z), 1.0), (1.0,), (1.0,))[0]


def self_check():
    """Cross-check the oracle against closed forms; returns (ok, worst rel err).

    alpha = 1 against exp (mpmath), alpha = 1/2 against the Faddeeva function,
    E_{1/2}(z) = w(-i z) = exp(z^2) erfc(-z) (scipy.special.wofz). The points
    include E_{1/2}(-14), where a fixed 50-digit summation is already wrong.
    """
    from scipy.special import wofz

    worst = 0.0
    for z in (-20.0, -14.0, -1.0, 2.5, complex(-3.0, 4.0)):
        ref = complex(mpmath.exp(_mp(z)))
        worst = max(worst, abs(ml_value(1.0, z) - ref) / abs(ref))
    for z in (-14.0, -10.0, -3.0, 0.5, 2.0, complex(-2.0, 1.5)):
        ref = complex(wofz(-1j * complex(z)))
        worst = max(worst, abs(ml_value(0.5, z) - ref) / abs(ref))
    return worst <= 1e-13, worst
