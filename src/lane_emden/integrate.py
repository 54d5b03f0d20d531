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

A run hands over its samples a chunk at a time, each in three
``array("d")`` buffers of its own, and between chunks keeps only the last
sample, the one the next step reads.  :func:`solve_midpoint` gathers the
chunks into three buffers, 24 bytes a grid point; they export the buffer
protocol, so an array library can view them in place.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import _kernels
from .series import compute_coefficients

# Most grid points one run may cover, ``xmax / dx``.  At 24 bytes a stored
# sample this bounds the buffers of a :func:`solve_midpoint` result to about
# 1.2 GB; a run streamed chunk by chunk holds one chunk at a time.
MAX_STEPS = 50_000_000

# Most samples a run hands over at a time, and so the rows of a float CSV
# formatted, joined and written at a time.  Larger chunks gain little speed
# and raise peak memory: a chunk is held as Python floats and as joined
# text while it is formatted.
CHUNK_ROWS = 4096

# Order of the truncated series that seeds the grid points x <= 3*dx.
SEED_ORDER = 10


class SeedDivergenceError(ValueError):
    """The truncated seed series is plainly not converging at its ``x``."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Grid step and safety cap of one integration run.

    A bad value raises ValueError(``"<param>: <reason>"``); the CLI prints
    it after ``argument --``, so that it names the option.
    """

    dx: float
    xmax: float = 50.0

    def __post_init__(self):
        # for n >= 5 the solution has no zero, so xmax alone stops it
        for name in ("dx", "xmax"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be finite and > 0")
        if not self.xmax > 3 * self.dx:
            raise ValueError("xmax: must exceed the seeded region 3*dx")
        if self.xmax / self.dx > MAX_STEPS:
            raise ValueError(f"dx: xmax/dx must not exceed {MAX_STEPS} "
                             "grid steps")


def _check_index(n: float) -> None:
    """Raise ValueError, as ``"n: <reason>"``, unless ``n`` is finite and >= 0."""
    if not 0 <= n < math.inf:
        raise ValueError("n: must be finite and nonnegative")


@dataclass(frozen=True)
class IntegrationResult:
    """Sampled solution on the uniform grid plus termination info.

    ``xs``, ``Fs`` and ``Hs`` are the ``array("d")`` buffers the run
    filled, one element per stored grid point.  ``termination`` is
    ``"crossed_zero"`` or ``"reached_xmax"``.
    """

    xs: array
    Fs: array
    Hs: array
    termination: str
    first_zero: Optional[float] = None


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
    F = _kernels._horner(evens, u)
    H = x * _kernels._horner(
        [2 * j * evens[j] for j in range(1, len(evens))], u
    )
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
    ``first_zero`` estimate.  A negative or non-finite ``n`` raises
    ValueError before any work is done.
    """
    columns = (array("d"), array("d"), array("d"))
    run = _midpoint_run(n, cfg, CHUNK_ROWS)
    while True:
        try:
            chunk = next(run)
        except StopIteration as done:
            return IntegrationResult(*columns, *done.value)
        for column, part in zip(columns, chunk):
            column.extend(part)


def _midpoint_run(n: float, cfg: IntegratorConfig, chunk: int):
    """The run of :func:`solve_midpoint`, a ``chunk`` of samples at a time.

    Yields ``(xs, Fs, Hs)``, three ``array("d")`` of its own for each
    chunk, which the run never touches again: the first holds the origin,
    the seeded samples and the steps after them, up to ``max(chunk, 4)``
    samples, and each later one up to ``chunk`` more.  No chunk is empty.
    Returns ``(termination, first_zero)``.  The first ``next`` raises
    whatever the seed raises.
    """
    _check_index(n)
    dx = float(cfg.dx)
    xs = array("d", [0.0])
    Fs = array("d", [1.0])
    Hs = array("d", [0.0])

    stop = None
    for i in (1, 2, 3):
        # x <= 3*dx < xmax: IntegratorConfig requires xmax > 3*dx, the
        # same float product, so every seeded point lies inside the cap.
        x = i * dx
        F, H = seed_values(n, x)
        if F < 0.0:
            # Step too coarse for the seed region; treat like a rejected
            # stepped sample so the zero can still be bracketed.
            stop = True, x, F
            break
        xs.append(x)
        Fs.append(F)
        Hs.append(H)

    grid = (float(n), dx, float(cfg.xmax))
    carried = 0  # 1 once each chunk starts from the last sample before it
    while True:
        if stop is None:
            stop = _kernels.midpoint_steps(*grid, xs, Fs, Hs, carried + chunk)
        # the one sample that the next step and the zero's interpolation read
        last = xs[-1], Fs[-1], Hs[-1]
        if carried:
            del xs[0], Fs[0], Hs[0]
        if xs:
            yield xs, Fs, Hs
        if stop is not None:
            break
        xs, Fs, Hs = (array("d", [value]) for value in last)
        carried = 1

    crossed, x_reject, f_reject = stop
    if not crossed:
        return "reached_xmax", None
    return "crossed_zero", interpolate_zero(*last[:2], x_reject, f_reject)
