"""Evaluation of truncated series solutions and the exact residual check.

A :class:`TruncatedSeries` is the degree-``m`` polynomial obtained by
evaluating the symbolic coefficient table at a fixed index.  It can be
evaluated in floating point (Horner over ``u = x**2``, exploiting that the
series is even) or as an exact fraction.  :func:`residual_coefficients`
substitutes the truncated series back into f'' + (2/x) f' + f^n using
brute-force exact series arithmetic; by construction of the recurrence the
result must vanish identically through order ``m - 2``, which makes it the
strongest available correctness oracle for the coefficient engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from ._kernels import _horner
from .exact import CoeffLike
from .series import CoefficientTable, TruncatedSeries, _evaluated_power

if TYPE_CHECKING:
    import numpy as np


def eval_series_float(
    s: TruncatedSeries, x: float | np.ndarray
) -> float | np.ndarray:
    """Value of the truncated series at ``x`` in double precision.

    Horner evaluation over ``u = x**2`` using only the even coefficients
    (odd ones are identically zero), which are converted from ``Fraction``
    to float once per series.  ``x`` is a float or any one-dimensional
    float64 buffer (an ndarray, or an ``array("d")`` such as the samples of
    :func:`~lane_emden.integrate.solve_midpoint`, viewed without a copy);
    an array is evaluated elementwise by the same multiplies and adds in the
    same order (numpy fuses none of them), so each element equals the
    scalar result bit for bit.  An ``x`` too large for the sum gives
    ``inf`` or ``nan`` silently, as it does for Python floats; a
    coefficient beyond the float range raises :class:`OverflowError`.
    """
    # numpy is imported at first use: of the commands, only compare loads it
    import numpy as np

    x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return _horner(s.even_floats, x * x)


def eval_series_exact(s: TruncatedSeries, x: CoeffLike) -> Fraction:
    """Exact rational value of the truncated series at a rational ``x``."""
    return _horner(s.a_values[::2], Fraction(x) ** 2)


def residual_coefficients(t: CoefficientTable, n_value: int) -> list[Fraction]:
    """Exact residual coefficients of the truncated series in the equation.

    Substituting the table's f = sum_{k<=m} a_k x^k into f'' + (2/x) f' +
    f^n and collecting powers gives the coefficient of ``x**j`` as

        (j + 2) * (j + 3) * a_{j+2} + (f^n)_j      for j = 0 .. m-2,

    with ``f^n`` computed by repeated truncated multiplication (integer
    index required for exactness), the integer power kept on the table
    for :func:`~lane_emden.series.verify_c_by_power` too.  Every entry
    must be exactly zero; each is one fraction over the power's ``den**n``
    (``den`` at n = 0).
    """
    nums, den, power = _evaluated_power(t, n_value, "exact residual check")
    scale = den ** max(n_value, 1)
    lift_a, lift_power = scale // den, scale // den**n_value
    return [Fraction(k * (k + 1) * nums[k] * lift_a
                     + power[k - 2] * lift_power, scale)
            for k in range(2, len(nums))]
