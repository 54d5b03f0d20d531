"""Exact power-series coefficients and midpoint integration for the
Lane-Emden equation f'' + (2/x) f' + f^n = 0 with f(0) = 1, f'(0) = 0.

The symbolic engine produces the Maclaurin coefficients a_k as exact
polynomials in the polytropic index n, evaluates them as arbitrary
precision fractions, and cross-checks them with independent oracles; the
numeric side integrates the equation with the seeded midpoint method.
Everything, the series kernel and the stepping loop included, is plain
Python.
"""

from ._backend import backend_name
from .evaluation import (
    eval_series_exact,
    eval_series_float,
    residual_coefficients,
)
from .exact import N, IndexPolynomial
from .integrate import (
    IntegrationResult,
    IntegratorConfig,
    interpolate_zero,
    seed_values,
    solve_midpoint,
)
from .parsing import ExpressionError, parse_expression
from .series import (
    CoefficientTable,
    TruncatedSeries,
    compute_coefficients,
    evaluate_table,
    verify_c_by_power,
)

__version__ = "1.0.0"

__all__ = [
    "CoefficientTable",
    "ExpressionError",
    "IndexPolynomial",
    "IntegrationResult",
    "IntegratorConfig",
    "N",
    "TruncatedSeries",
    "backend_name",
    "compute_coefficients",
    "eval_series_exact",
    "eval_series_float",
    "evaluate_table",
    "interpolate_zero",
    "parse_expression",
    "residual_coefficients",
    "seed_values",
    "solve_midpoint",
    "verify_c_by_power",
]
