"""Truncated series evaluation and the residual oracle."""

import math
import warnings
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lane_emden import (
    TruncatedSeries,
    compute_coefficients,
    eval_series_exact,
    eval_series_float,
    evaluate_table,
    residual_coefficients,
)
from lane_emden.series import MAX_ORACLE_INDEX

TABLE20 = compute_coefficients(20)


class TestConstruction:
    def test_from_table(self):
        s = evaluate_table(TABLE20, 3)
        assert isinstance(s, TruncatedSeries)
        assert s.n_value == 3
        assert s.max_index == 20
        assert s.a_values[4] == Fraction(1, 40)

    def test_low_order_values(self):
        s = evaluate_table(compute_coefficients(4), 3)
        assert s.a_values == (
            Fraction(1), Fraction(0), Fraction(-1, 6), Fraction(0),
            Fraction(1, 40),
        )

    def test_rational_index(self):
        s = evaluate_table(compute_coefficients(4), Fraction(3, 2))
        assert s.a_values[4] == Fraction(1, 80)


class TestFloatEvaluation:
    def test_center(self):
        s = evaluate_table(compute_coefficients(8), 3)
        assert eval_series_float(s, 0.0) == 1.0

    def test_quadratic_solution_vanishes_at_its_root(self):
        s = evaluate_table(compute_coefficients(2), 0)
        assert abs(eval_series_float(s, math.sqrt(6.0))) < 1e-12

    def test_sinc_solution(self):
        s = evaluate_table(compute_coefficients(28), 1)
        for x in (0.25, 1.0, 2.0, 3.0):
            assert eval_series_float(s, x) == pytest.approx(
                math.sin(x) / x, abs=1e-12
            )

    def test_even_function(self):
        s = evaluate_table(compute_coefficients(20), 3)
        for x in (0.3, 1.7):
            assert eval_series_float(s, x) == eval_series_float(s, -x)

    def test_truncation_error_is_next_term(self):
        s8 = evaluate_table(compute_coefficients(8), 3)
        s10 = evaluate_table(compute_coefficients(10), 3)
        for x in (0.125, 0.5, 1.0):
            diff = abs(eval_series_float(s8, x) - eval_series_float(s10, x))
            bound = 1.01 * abs(float(s10.a_values[10])) * x**10 + 1e-15
            assert diff <= bound

    @given(
        st.sampled_from([0, 1, Fraction(3, 2), 3, 5]),
        st.integers(0, 30),
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=16),
    )
    def test_array_matches_scalar_bitwise(self, n_value, m, xs):
        s = evaluate_table(compute_coefficients(m), n_value)
        # 1e20 overflows inside the Horner loop (from m = 16 at n = 3),
        # 1e200 already in x*x.
        xs = xs + [1e20, 1e200]
        # A numpy RuntimeWarning (overflow, invalid) fails the test:
        # overflow stays as silent for arrays as it is for Python floats.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = eval_series_float(s, np.array(xs))
        assert values.dtype == np.float64 and values.shape == (len(xs),)
        for x, value in zip(xs, values):
            scalar = eval_series_float(s, x)
            assert type(scalar) is float
            assert np.float64(scalar).tobytes() == value.tobytes(), x


    def test_sample_buffer_matches_array(self):
        # the samples solve_midpoint returns go in as they are, unconverted
        s = evaluate_table(compute_coefficients(10), 3)
        xs = array("d", [0.0, 0.5, 1.0, 2.5])
        assert np.shares_memory(np.asarray(xs), xs)
        got = eval_series_float(s, xs)
        want = eval_series_float(s, np.array(xs.tolist()))
        assert got.tobytes() == want.tobytes()


class TestExactEvaluation:
    def test_half_point_value(self):
        # 1 - (1/6)(1/2)**2 + (1/40)(1/2)**4 at index 3
        s = evaluate_table(compute_coefficients(4), 3)
        assert eval_series_exact(s, Fraction(1, 2)) == Fraction(1843, 1920)

    def test_center(self):
        s = evaluate_table(compute_coefficients(12), 2)
        assert eval_series_exact(s, Fraction(0)) == 1

    def test_low_order(self):
        s = evaluate_table(compute_coefficients(2), 1)
        assert eval_series_exact(s, Fraction(1)) == Fraction(5, 6)

    @given(
        st.integers(0, 5),
        st.builds(Fraction, st.integers(0, 8), st.integers(1, 4)),
    )
    def test_float_tracks_exact(self, n_value, x):
        s = evaluate_table(compute_coefficients(12), n_value)
        exact = float(eval_series_exact(s, x))
        approx = eval_series_float(s, float(x))
        assert approx == pytest.approx(exact, rel=1e-13, abs=1e-13)


class TestResiduals:
    @pytest.mark.parametrize("n_value", range(6))
    def test_vanish_for_integer_indices(self, n_value):
        res = residual_coefficients(TABLE20, n_value)
        assert len(res) == 19
        assert all(r == 0 for r in res)

    def test_low_order_table(self):
        res = residual_coefficients(compute_coefficients(4), 0)
        assert all(r == 0 for r in res)

    def test_defaults_to_table_order(self):
        res = residual_coefficients(compute_coefficients(8), 1)
        assert all(r == 0 for r in res)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            residual_coefficients(TABLE20, Fraction(1, 2))

    def test_index_bounded(self):
        assert not any(residual_coefficients(TABLE20, MAX_ORACLE_INDEX))
        with pytest.raises(ValueError) as exc:
            residual_coefficients(TABLE20, MAX_ORACLE_INDEX + 1)
        assert str(exc.value) == (
            "exact residual check needs an integer index from 0 to"
            f" {MAX_ORACLE_INDEX}"
        )

    def test_detects_wrong_coefficient(self):
        t = compute_coefficients(6)
        e = evaluate_table(t, 3)
        bad = tuple(
            v + Fraction(1, 7) if k == 4 else v
            for k, v in enumerate(e.a_values)
        )
        broken = type(t)(
            a=tuple(type(t.a[0])((v,)) for v in bad),
            c=t.c,
        )
        res = residual_coefficients(broken, 3)
        assert any(r != 0 for r in res)
