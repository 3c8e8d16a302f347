"""Fractional calculus on the t^alpha lattice.

Mittag-Leffler evaluation, exact generalized power-series algebra for the
Jumarie derivative, product-integration differintegrals on sampled data,
and a characteristic-root solver for linear constant-coefficient fractional
differential equations, including a report quantifying the identities that
hold pointwise only at alpha = 1.
"""

from .alpha_series import AlphaSeries, monomial, series_from_ml, zero_series
from .exceptions import (AlphaMismatchError, ConvergenceError, DomainError,
                         FracCalcError, GridError, NoConvergenceError,
                         OrderError, PairingError, ParseError, PoleError,
                         SingularityError, SingularSystemError,
                         ValidationError)
from .fractional_ops import (ConvergenceStudy, SampledFunction,
                             convergence_order, jumarie_deriv_num,
                             rl_deriv_num, rl_integral_num,
                             shifted_power_frac_integral)
from .mittag_leffler import (MLEvaluation, cos_alpha, ml, ml_grid, ml_period,
                             sin_alpha)
from .solver import (DeviationReport, DeviationRow, FDEProblem, Mode,
                     RealModeTerm, Solution, apply_ics, deviation_report,
                     eval_real_form, eval_solution, eval_solution_classical,
                     find_roots, general_solution, mode_series,
                     repeated_root_defect, residual, solve_fde, to_real_form)
from .special import beta, gamma, gamma_ratio, incomplete_beta, log_gamma

__version__ = "0.1.0"
