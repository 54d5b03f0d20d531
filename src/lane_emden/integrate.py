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
from typing import Literal, Optional

import numpy as np

from . import _kernels
from .series import compute_coefficients

Termination = Literal["crossed_zero", "reached_xmax"]

CROSSED_ZERO: Termination = "crossed_zero"
REACHED_XMAX: Termination = "reached_xmax"

# Most grid points one run may cover, ``xmax / dx``.  At 24 bytes a stored
# sample this bounds a run's samples to about 1.2 GB.
MAX_STEPS = 50_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    """Grid step, safety cap, and series order for the startup region."""

    dx: float
    xmax: float = 50.0
    seed_order: int = 10

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
        if self.seed_order < 2 or self.seed_order % 2:
            raise ValueError("seed_order must be an even integer >= 2")


@dataclass(frozen=True)
class IntegrationResult:
    """Sampled solution on the uniform grid plus termination info."""

    xs: np.ndarray
    Fs: np.ndarray
    Hs: np.ndarray
    termination: Termination
    first_zero: Optional[float] = field(default=None)


@lru_cache(maxsize=None)
def _seed_polys(seed_order: int):
    return compute_coefficients(seed_order).a


def _seed_coefficients(n: float, seed_order: int) -> list[float]:
    """Even series coefficients a_0, a_2, ... evaluated at the index ``n``.

    Evaluation is exact (``n`` is taken as the rational it represents) with
    a single rounding at the end.
    """
    polys = _seed_polys(seed_order)
    n_exact = Fraction(n)
    return [float(p.evaluate(n_exact)) for p in polys[::2]]


def seed_values(
    n: float, x: float, seed_order: int = 10
) -> tuple[float, float]:
    """Series values (F, H) near the origin, H being the termwise derivative.

    F is the truncated series of order ``seed_order``; H drops to order
    ``seed_order - 1``.
    """
    if x < 0:
        raise ValueError("seed evaluation needs x >= 0")
    evens = _seed_coefficients(n, seed_order)
    u = x * x
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

    Grid points with x <= 3*dx take their values from :func:`seed_values`;
    every later point is one midpoint step.  A sample with F < 0 is never
    stored: it only feeds the interpolated ``first_zero`` estimate.
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
        x = i * dx
        if x > cfg.xmax:
            break
        F, H = seed_values(n, x, cfg.seed_order)
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
    return IntegrationResult(
        xs=np.frombuffer(xs),
        Fs=np.frombuffer(Fs),
        Hs=np.frombuffer(Hs),
        termination=termination,
        first_zero=zero,
    )


def first_zero(r: IntegrationResult) -> Optional[float]:
    """First zero of F located by the run, or None if F never crossed."""
    return r.first_zero
