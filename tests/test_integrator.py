"""Midpoint integrator, series seeding, and zero location."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lane_emden import (
    IntegratorConfig,
    TruncatedSeries,
    eval_series_float,
    interpolate_zero,
    seed_values,
    solve_midpoint,
)
from lane_emden import _kernels
from lane_emden._backend import kernels
from lane_emden.integrate import MAX_STEPS, SeedDivergenceError


class TestConfig:
    def test_defaults(self):
        cfg = IntegratorConfig(dx=1e-3)
        assert cfg.xmax == 50.0

    @pytest.mark.parametrize("dx", [0.0, -1e-3])
    def test_step_must_be_positive(self, dx):
        with pytest.raises(ValueError):
            IntegratorConfig(dx=dx)

    def test_xmax_must_exceed_seed_region(self):
        with pytest.raises(ValueError):
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

    def test_matches_truncated_series(self):
        s = TruncatedSeries.for_index(3, 10)
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
        assert (r.Fs > 0.0).all()

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
        assert (r.Fs > 0.0).all()
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
        lhs = (r.Fs[1:] - r.Fs[:-1]) / dx
        rhs = 0.5 * (r.Hs[1:] + r.Hs[:-1])
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

    def test_zero_against_fine_step_oracle(self):
        coarse = solve_midpoint(3.0, IntegratorConfig(dx=1e-3))
        fine = solve_midpoint(3.0, IntegratorConfig(dx=2e-4))
        assert abs(coarse.first_zero - fine.first_zero) < 5e-3


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
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(want).tobytes()
        assert r.termination == ("crossed_zero" if crossed else "reached_xmax")
        if crossed:
            assert r.first_zero == interpolate_zero(
                xs[-1], Fs[-1], x_stop, f_stop
            )


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
