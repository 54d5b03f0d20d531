"""Midpoint (two-stage Runge-Kutta) integration of the Lane-Emden equation.

The second-order equation is integrated as the first-order system

    dF/dx = H
    dH/dx = -F**n - (2/x) * H

on a uniform grid with step ``dx``.  The 2/x term is singular at the
origin, so the first three grid points (x <= 3*dx) are seeded from the
truncated power series instead of being stepped; from there on one
midpoint step is taken per grid point.  The step uses the half-step
predictor ``F_half`` inside the power term of the full-step slope while
the predictors themselves are built from the stored sample; that
asymmetric formulation is kept deliberately (see ``_kernels``).

Integration stops before appending a sample with F < 0 (termination
``crossed_zero``, with the first zero located by linear interpolation into
the rejected sample) or when the next grid point would pass ``xmax``
(termination ``reached_xmax``; the cap exists because for n >= 5 the
solution stays positive forever).

The samples are stored in three ``array("d")`` buffers, 24 bytes a grid
point, and the result's arrays are views of those buffers, not copies.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Literal, Optional

from . import _kernels
from .series import compute_coefficients

if TYPE_CHECKING:
    import numpy as np

Termination = Literal["crossed_zero", "reached_xmax"]

CROSSED_ZERO: Termination = "crossed_zero"
REACHED_XMAX: Termination = "reached_xmax"

# Most grid points one run may cover, ``xmax / dx``.  At 24 bytes a stored
# sample this bounds a run's samples to about 1.2 GB.
MAX_STEPS = 50_000_000

# Order of the truncated series that seeds the grid points x <= 3*dx.
SEED_ORDER = 10


class SeedDivergenceError(ValueError):
    """The truncated seed series is plainly not converging at its ``x``."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Grid step and safety cap of one integration run."""

    dx: float
    xmax: float = 50.0

    def __post_init__(self):
        if not math.isfinite(self.dx) or not self.dx > 0:
            raise ValueError("dx must be finite and positive")
        if not math.isfinite(self.xmax):
            # for n >= 5 the solution has no zero, so xmax alone stops it
            raise ValueError("xmax must be finite")
        if not self.xmax > 3 * self.dx:
            raise ValueError("xmax must exceed the seeded region 3*dx")
        if self.xmax / self.dx > MAX_STEPS:
            raise ValueError(
                f"xmax/dx must not exceed {MAX_STEPS} grid steps"
            )


@dataclass(frozen=True)
class IntegrationResult:
    """Sampled solution on the uniform grid plus termination info."""

    xs: np.ndarray
    Fs: np.ndarray
    Hs: np.ndarray
    termination: Termination
    first_zero: Optional[float] = field(default=None)


@lru_cache(maxsize=None)
def _seed_polys():
    """The even polynomials ``a_0, a_2, ..., a_SEED_ORDER``."""
    return compute_coefficients(SEED_ORDER).a[::2]


def seed_values(n: float, x: float) -> tuple[float, float]:
    """Series values (F, H) near the origin, H being the termwise derivative.

    F is the truncated series of order ``SEED_ORDER``; H drops to order
    ``SEED_ORDER - 1``.  Each a_k is evaluated exactly at the rational ``n``
    and rounded once; one beyond the float range raises OverflowError.

    The series' radius of convergence shrinks as ``n`` grows.  Where its
    last term ``a_10 x**10`` is larger in magnitude than the one before,
    the truncation is plainly not converging, and SeedDivergenceError is
    raised instead of returning values that mean nothing.
    """
    if x < 0:
        raise ValueError("seed evaluation needs x >= 0")
    n_exact = Fraction(n)
    evens = [float(p.evaluate(n_exact)) for p in _seed_polys()]
    u = x * x
    # |a_10 x**10| > |a_8 x**8|, divided by x**8; for n > 0, a_8(n) != 0
    if abs(evens[-1]) * u > abs(evens[-2]):
        raise SeedDivergenceError(
            f"the order-{SEED_ORDER} seed series does not converge at "
            f"x={x!r} for n={n!r}; use a smaller step"
        )
    F = 0.0
    for c in reversed(evens):
        F = F * u + c
    H = 0.0
    for j in range(len(evens) - 1, 0, -1):
        H = H * u + 2 * j * evens[j]
    H *= x
    return F, H


def interpolate_zero(
    x_last: float, f_last: float, x_reject: float, f_reject: float
) -> float:
    """Linear interpolation of the zero crossing between two samples."""
    return x_last + (x_reject - x_last) * f_last / (f_last - f_reject)


def solve_midpoint(n: float, cfg: IntegratorConfig) -> IntegrationResult:
    """Integrate the equation for index ``n`` on the grid defined by ``cfg``.

    Grid points with x <= 3*dx take their values from :func:`seed_values`,
    which raises SeedDivergenceError where ``dx`` is too coarse for the
    series at this ``n``; every later point is one midpoint step.  A sample
    with F < 0 is never stored: it only feeds the interpolated
    ``first_zero`` estimate.
    """
    if n < 0:
        raise ValueError("index n must be nonnegative")
    dx = float(cfg.dx)
    xs = array("d", [0.0])
    Fs = array("d", [1.0])
    Hs = array("d", [0.0])

    crossed = False
    x_reject = f_reject = 0.0
    for i in (1, 2, 3):
        # x <= 3*dx < xmax: IntegratorConfig requires xmax > 3*dx, the
        # same float product, so every seeded point lies inside the cap.
        x = i * dx
        F, H = seed_values(n, x)
        if F < 0.0:
            # Step too coarse for the seed region; treat like a rejected
            # stepped sample so the zero can still be bracketed.
            crossed = True
            x_reject, f_reject = x, F
            break
        xs.append(x)
        Fs.append(F)
        Hs.append(H)
    else:
        crossed, x_reject, f_reject = _kernels.midpoint_steps(
            float(n), dx, float(cfg.xmax), xs, Fs, Hs
        )

    if crossed:
        termination = CROSSED_ZERO
        zero = interpolate_zero(xs[-1], Fs[-1], x_reject, f_reject)
    else:
        termination = REACHED_XMAX
        zero = None
    # numpy is imported at first use, so the exact commands never load it
    import numpy as np

    return IntegrationResult(
        xs=np.frombuffer(xs),
        Fs=np.frombuffer(Fs),
        Hs=np.frombuffer(Hs),
        termination=termination,
        first_zero=zero,
    )
