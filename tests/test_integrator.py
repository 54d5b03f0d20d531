"""Midpoint integrator, series seeding, and zero location."""

import functools
import math
from array import array
from fractions import Fraction

import numpy as np
import pytest

from lane_emden import (
    IntegratorConfig,
    compute_coefficients,
    eval_series_float,
    evaluate_table,
    interpolate_zero,
    seed_values,
    solve_midpoint,
)
from lane_emden import _kernels
from lane_emden._backend import kernels
from lane_emden.integrate import MAX_STEPS, SeedDivergenceError, _midpoint_run


class TestConfig:
    def test_defaults(self):
        cfg = IntegratorConfig(dx=1e-3)
        assert cfg.xmax == 50.0

    @pytest.mark.parametrize("dx", [0.0, -1e-3])
    def test_step_must_be_positive(self, dx):
        with pytest.raises(ValueError, match=r"^dx: must be finite and > 0$"):
            IntegratorConfig(dx=dx)

    def test_xmax_must_exceed_seed_region(self):
        with pytest.raises(ValueError, match=r"^xmax: must exceed the seeded"):
            IntegratorConfig(dx=1.0, xmax=2.0)

    @pytest.mark.parametrize("dx, xmax", [
        (0.1, math.inf), (0.1, math.nan), (math.inf, 50.0),
        (math.inf, math.inf),
    ])
    def test_step_and_cap_must_be_finite(self, dx, xmax):
        # only constructs: an unbounded xmax would never stop at n >= 5
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(dx=dx, xmax=xmax)

    def test_grid_steps_are_bounded(self):
        # only constructs: the run itself would store 24 bytes a step
        IntegratorConfig(dx=50.0 / MAX_STEPS, xmax=50.0)
        with pytest.raises(ValueError, match="grid steps"):
            IntegratorConfig(dx=50.0 / MAX_STEPS / 2, xmax=50.0)
        with pytest.raises(ValueError, match="grid steps"):
            IntegratorConfig(dx=5e-324, xmax=1.0)


class TestSeedValues:
    def test_center(self):
        assert seed_values(3.0, 0.0) == (1.0, 0.0)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError, match="x >= 0"):
            seed_values(3.0, -1.0)

    def test_matches_truncated_series(self):
        s = evaluate_table(compute_coefficients(10), 3)
        f, _ = seed_values(3.0, 0.1)
        assert f == pytest.approx(eval_series_float(s, 0.1), abs=1e-15)

    def test_quadratic_case_is_exact(self):
        # index 0 solution is 1 - x**2/6 with slope -x/3
        f, h = seed_values(0.0, 1.0)
        assert f == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert h == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_derivative_matches_difference_quotient(self):
        _, h = seed_values(1.5, 0.05)
        fp, _ = seed_values(1.5, 0.05 + 1e-6)
        fm, _ = seed_values(1.5, 0.05 - 1e-6)
        assert h == pytest.approx((fp - fm) / 2e-6, abs=1e-8)

    @pytest.mark.parametrize("n_value, x", [
        (1000.0, 0.3), (1e5, 0.1), (1e30, 0.1),
        # sin(x)/x converges everywhere, but ten terms do not reach x = 11
        (1.0, 11.0),
    ])
    def test_diverging_truncation_rejected(self, n_value, x):
        # seed_values(1000.0, 0.3) gave F = -13.39 for a solution in (0, 1]
        with pytest.raises(SeedDivergenceError, match="does not converge"):
            seed_values(n_value, x)

    @pytest.mark.parametrize("n_value, x", [
        (0.0, 30.0), (1.0, 10.0), (3.0, 2.5), (1000.0, 0.11),
    ])
    def test_converging_truncation_accepted(self, n_value, x):
        # n = 0 has a_8 = a_10 = 0; the others are just inside the bound
        # |a_10| x**2 <= |a_8| (x = 10.49, 2.57 and 0.1155 at the bound)
        f, _ = seed_values(n_value, x)
        assert math.isfinite(f)


class TestInterpolateZero:
    def test_midpoint_of_symmetric_bracket(self):
        assert interpolate_zero(1.0, 0.01, 1.1, -0.01) == pytest.approx(1.05)

    def test_weighted(self):
        assert interpolate_zero(0.0, 3.0, 1.0, -1.0) == pytest.approx(0.75)


class TestSolveMidpoint:
    def test_result_grid(self):
        r = solve_midpoint(1.0, IntegratorConfig(dx=1e-2))
        assert r.xs[0] == 0.0
        assert r.Fs[0] == 1.0
        assert r.Hs[0] == 0.0
        assert np.allclose(np.diff(r.xs), 1e-2, rtol=0, atol=1e-12)

    def test_stored_samples_stay_positive(self):
        r = solve_midpoint(1.0, IntegratorConfig(dx=1e-2))
        assert (np.frombuffer(r.Fs) > 0.0).all()

    def test_quadratic_zero(self):
        r = solve_midpoint(0.0, IntegratorConfig(dx=1e-3))
        assert r.termination == "crossed_zero"
        assert r.first_zero == pytest.approx(math.sqrt(6.0), abs=1e-3)

    @pytest.mark.parametrize("dx", [0.1, 1 / 3, 1e-3])
    def test_cap_just_past_seed_region(self, dx):
        # the smallest cap IntegratorConfig accepts: every seeded point is
        # stored and the first stepped one would pass it
        cfg = IntegratorConfig(dx=dx, xmax=math.nextafter(3 * dx, math.inf))
        r = solve_midpoint(3.0, cfg)
        assert len(r.xs) == 4
        assert r.xs[-1] == 3 * dx
        assert r.termination == "reached_xmax"

    def test_zero_inside_seed_region(self):
        # index 0 at dx = 1: F = 1 - x**2/6 is negative at the third seed
        r = solve_midpoint(0.0, IntegratorConfig(dx=1.0))
        assert len(r.xs) == 3
        assert r.termination == "crossed_zero"
        f_reject, _ = seed_values(0.0, 3.0)
        assert r.first_zero == interpolate_zero(2.0, r.Fs[2], 3.0, f_reject)
        assert r.first_zero == pytest.approx(2.4)

    def test_seed_too_coarse_for_index_rejected(self):
        with pytest.raises(SeedDivergenceError):
            solve_midpoint(1000.0, IntegratorConfig(dx=0.1))
        r = solve_midpoint(1000.0, IntegratorConfig(dx=0.01, xmax=1.0))
        assert r.termination == "reached_xmax"
        assert r.first_zero is None

    def test_sinc_zero(self):
        r = solve_midpoint(1.0, IntegratorConfig(dx=1e-3))
        assert r.first_zero == pytest.approx(math.pi, abs=1e-3)

    def test_sinc_zero_fine_step(self):
        r = solve_midpoint(1.0, IntegratorConfig(dx=1e-4))
        assert r.first_zero == pytest.approx(math.pi, abs=1e-6)

    def test_rational_index_zero(self):
        r = solve_midpoint(1.5, IntegratorConfig(dx=1e-3))
        assert r.first_zero == pytest.approx(3.65375, abs=1e-3)

    def test_critical_index_never_crosses(self):
        r = solve_midpoint(5.0, IntegratorConfig(dx=1e-2, xmax=20.0))
        assert r.termination == "reached_xmax"
        assert r.first_zero is None
        assert (np.frombuffer(r.Fs) > 0.0).all()
        # analytic solution (1 + x**2/3) ** (-1/2) at the last grid point
        x_end = r.xs[-1]
        assert r.Fs[-1] == pytest.approx(
            (1.0 + x_end**2 / 3.0) ** -0.5, abs=1e-4
        )

    def test_first_zero_none_accessor(self):
        r = solve_midpoint(5.0, IntegratorConfig(dx=1e-1, xmax=10.0))
        assert r.first_zero is None

    @pytest.mark.parametrize("n_value", [0.0, 1.0, 1.5, 2.0, 3.0])
    def test_profile_decreases(self, n_value):
        r = solve_midpoint(n_value, IntegratorConfig(dx=1e-2))
        assert (np.diff(r.Fs) < 0.0).all()

    def test_seed_and_stepping_agree(self):
        # the first stepped sample must match the series it was seeded from
        for n_value in (1.0, 3.0):
            for dx in (1e-2, 1e-3):
                r = solve_midpoint(n_value, IntegratorConfig(dx=dx))
                f_seed, _ = seed_values(n_value, 4 * dx)
                assert abs(r.Fs[4] - f_seed) <= 10.0 * dx**3

    def test_slope_consistent_with_samples(self):
        dx = 1e-3
        r = solve_midpoint(1.0, IntegratorConfig(dx=dx))
        Fs, Hs = np.frombuffer(r.Fs), np.frombuffer(r.Hs)
        lhs = (Fs[1:] - Fs[:-1]) / dx
        rhs = 0.5 * (Hs[1:] + Hs[:-1])
        assert np.abs(lhs - rhs).max() <= 0.2 * dx**2

    def test_second_order_convergence(self):
        x_probe = 2.0
        errs = []
        for dx in (2e-3, 1e-3, 5e-4):
            r = solve_midpoint(1.0, IntegratorConfig(dx=dx))
            i = round(x_probe / dx)
            exact = math.sin(x_probe) / x_probe
            errs.append(abs(r.Fs[i] - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.6)

    @pytest.mark.parametrize("n_value", [math.nan, math.inf, -1.0])
    def test_negative_or_nonfinite_index_rejected(self, n_value):
        # nan and inf used to escape from Fraction(n) in seed_values as a
        # ValueError about NaN and an OverflowError
        with pytest.raises(ValueError, match="finite and nonnegative"):
            solve_midpoint(n_value, IntegratorConfig(dx=1e-2))

    def test_zero_against_fine_step_oracle(self):
        coarse = solve_midpoint(3.0, IntegratorConfig(dx=1e-3))
        fine = solve_midpoint(3.0, IntegratorConfig(dx=2e-4))
        assert abs(coarse.first_zero - fine.first_zero) < 5e-3


# First zeros xi_1, from mpmath's ``odefun`` (a Taylor-series ODE solver)
# at 20 digits, started at x = 1/2 from the exact series.  At n = 3/2 and
# 3 the values agree with LITERATURE_XI1 of test_acceptance.py to all 12
# of its digits; the others are not yet checked against Horedt,
# *Polytropes* (2004).
MPMATH_XI1 = {
    0.5: 2.75269805406499,
    1.5: 3.65375373621912,
    2.5: 5.35527545901078,
    3.0: 6.89684861937696,
    4.5: 31.8364632446943,
}
# C(n) = (first_zero - xi_1) / dx**2 for the midpoint run, measured at
# dx = 1e-3 and 5e-4 (-0.107 and -0.097 at n = 1/2, 0.185 and 0.202 at
# 3/2, 0.804 and 0.813 at 5/2, 1.362 and 1.374 at 3, 10.95 and 10.93 at
# 9/2); the larger magnitude.  The error may pass |C(n)| * dx**2 by at
# most ERROR_MARGIN.
ERROR_CONSTANT = {
    0.5: -0.107, 1.5: 0.202, 2.5: 0.813, 3.0: 1.374, 4.5: 10.95,
}
ERROR_MARGIN = 1.25


@functools.lru_cache(maxsize=None)
def first_zero_error(n_value, dx):
    run = solve_midpoint(n_value, IntegratorConfig(dx))
    return run.first_zero - MPMATH_XI1[n_value]


class TestFirstZeroOracle:
    @pytest.mark.parametrize("n_value", sorted(MPMATH_XI1))
    @pytest.mark.parametrize("dx", [1e-3, 5e-4])
    def test_error_within_its_constant(self, n_value, dx):
        bound = ERROR_MARGIN * abs(ERROR_CONSTANT[n_value]) * dx**2
        assert abs(first_zero_error(n_value, dx)) <= bound

    @pytest.mark.parametrize("n_value", [2.5, 3.0, 4.5])
    def test_halving_the_step_quarters_the_error(self, n_value):
        # Measured 3.957, 3.966 and 4.007.  At n = 1/2 it is 4.41 and at
        # n = 3/2 3.65: below n = 2, F**n is not smooth at the zero, so
        # the order is not clean.
        errors = [first_zero_error(n_value, dx) for dx in (1e-3, 5e-4)]
        assert 3.9 <= errors[0] / errors[1] <= 4.1


class TestSampleStorage:
    @pytest.mark.parametrize("n_value, dx, xmax", [
        (1.5, 1e-3, 50.0), (3.0, 1e-3, 50.0), (5.0, 1e-2, 10.0),
    ])
    def test_arrays_match_list_stepping_bitwise(self, n_value, dx, xmax):
        xs, Fs, Hs = [0.0], [1.0], [0.0]
        for i in (1, 2, 3):
            f, h = seed_values(n_value, i * dx)
            xs.append(i * dx)
            Fs.append(f)
            Hs.append(h)
        crossed, x_stop, f_stop = _kernels.midpoint_steps(
            n_value, dx, xmax, xs, Fs, Hs
        )
        r = solve_midpoint(n_value, IntegratorConfig(dx=dx, xmax=xmax))
        for got, want in ((r.xs, xs), (r.Fs, Fs), (r.Hs, Hs)):
            assert isinstance(got, array) and got.typecode == "d"
            assert got.tobytes() == array("d", want).tobytes()
        assert r.termination == ("crossed_zero" if crossed else "reached_xmax")
        if crossed:
            assert r.first_zero == interpolate_zero(
                xs[-1], Fs[-1], x_stop, f_stop
            )


class TestPausedRun:
    """A run handed over ``chunk`` samples at a time is bit for bit whole."""

    @pytest.mark.parametrize("n_value, dx, xmax, stop", [
        (3.0, 1e-3, 50.0, "crossed_zero"),
        (1.5, 1e-3, 50.0, "crossed_zero"),
        (5.0, 1e-2, 10.0, "reached_xmax"),
    ])
    # None: one chunk of the whole run, so the stop lands on its pause
    @pytest.mark.parametrize("chunk", [1, 7, 4096, None])
    def test_buffers_match_unpaused_run(self, n_value, dx, xmax, stop, chunk):
        cfg = IntegratorConfig(dx=dx, xmax=xmax)
        whole = solve_midpoint(n_value, cfg)
        stored = len(whole.xs)
        chunk = chunk or stored
        run = _midpoint_run(n_value, cfg, chunk)
        parts = []
        while True:
            try:
                parts.append(next(run))
            except StopIteration as done:
                termination, first_zero = done.value
                break
        # the origin and the three seeded samples come in the first chunk,
        # and no chunk is empty
        ends = [*range(max(chunk, 4), stored, chunk), stored]
        sizes = [end - start for start, end in zip([0] + ends, ends)]
        assert [len(xs) for xs, _, _ in parts] == sizes
        assert termination == whole.termination == stop
        assert first_zero == whole.first_zero
        for i, want in enumerate((whole.xs, whole.Fs, whole.Hs)):
            got = [part[i] for part in parts]
            assert all(isinstance(a, array) and a.typecode == "d"
                       for a in got)
            assert b"".join(a.tobytes() for a in got) == want.tobytes()

    def test_no_empty_chunk(self):
        # 80 samples: the step after the second chunk's pause passes xmax
        cfg = IntegratorConfig(dx=0.125, xmax=9.875)
        run = _midpoint_run(5.0, cfg, 40)
        assert [len(xs) for xs, _, _ in run] == [40, 40]

    def test_kernel_pauses_at_the_bound(self):
        xs, Fs, Hs = [1.0], [1.0], [0.0]
        assert kernels.midpoint_steps(3.0, 0.1, 50.0, xs, Fs, Hs, 3) is None
        assert len(xs) == len(Fs) == len(Hs) == 3
        # a bound already reached takes no step
        assert kernels.midpoint_steps(3.0, 0.1, 50.0, xs, Fs, Hs, 2) is None
        assert len(xs) == 3


class TestKernelGuards:
    def test_non_integer_index_stops_before_negative_base(self):
        # force F to cross inside a step so F_half goes nonpositive
        xs, Fs, Hs = [1.0], [1e-9], [-1.0]
        crossed, x_stop, f_stop = kernels.midpoint_steps(
            1.5, 0.1, 50.0, xs, Fs, Hs
        )
        assert crossed
        assert f_stop <= 0.0
        assert math.isfinite(x_stop) and math.isfinite(f_stop)
        assert len(Fs) == 1

    def test_integer_index_steps_through(self):
        # integer powers of a negative base are fine for one trial step
        xs, Fs, Hs = [1.0], [1e-9], [-1.0]
        crossed, _, f_stop = kernels.midpoint_steps(
            2.0, 0.1, 50.0, xs, Fs, Hs
        )
        assert crossed
        assert f_stop < 0.0
