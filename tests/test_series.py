"""Recurrence output, the generic power recurrence, and evaluation."""

import contextlib
import dataclasses
import math
import os
import signal
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lane_emden import (
    IndexPolynomial,
    IntegratorConfig,
    N,
    compute_coefficients,
    evaluate_table,
    parse_expression,
    residual_coefficients,
    series,
    solve_midpoint,
    verify_c_by_power,
)
from lane_emden import _kernels
from lane_emden._kernels import (
    FORK_ORDER,
    _monomial,
    _newton,
    _newton_horner,
    lee_series_tables,
)
from lane_emden.series import MAX_ORACLE_INDEX, MAX_ORDER, _power_truncated

from children import no_child_left, record_forks
from reference_series import miller_power, mul_truncated
from reference_tables import INDEX1_A, INDEX3_A, SYMBOLIC_A

TABLE28 = compute_coefficients(28)


class TestRecurrence:
    def test_seed_values(self):
        t = compute_coefficients(0)
        assert t.a[0] == IndexPolynomial((1,))
        assert t.c[0] == IndexPolynomial((1,))

    def test_minimal_order(self):
        t = compute_coefficients(1)
        assert t.a == (IndexPolynomial((1,)), IndexPolynomial(()))

    def test_first_nontrivial(self):
        t = compute_coefficients(2)
        assert t.a[2] == IndexPolynomial((Fraction(-1, 6),))

    def test_c_tracks_power(self):
        t = compute_coefficients(4)
        assert t.c[2] == IndexPolynomial((0, Fraction(-1, 6)))
        assert t.a[4] == IndexPolynomial((0, Fraction(1, 120)))

    def test_kernel_tables_are_reduced_integer_lists(self):
        # a_4 = n/120 as numerators of n**j over one denominator
        a_num, a_den, _, _ = lee_series_tables(4)
        assert a_num[4] == [0, 1]
        assert a_den[4] == 120

    def test_c6(self):
        t = compute_coefficients(8)
        assert str(t.c[6]) == "-n*(122*n**2 - 183*n + 70)/45360"

    def test_odd_indices_vanish(self):
        for k in range(1, 29, 2):
            assert TABLE28.a[k].degree == -1
            assert TABLE28.c[k].degree == -1

    @pytest.mark.parametrize("k", sorted(SYMBOLIC_A))
    def test_reference_expressions(self, k):
        assert TABLE28.a[k] == parse_expression(SYMBOLIC_A[k])

    def test_recurrence_consistency(self):
        # (k**2 + k) * a[k] + c[k-2] must vanish identically
        for k in range(2, 29, 2):
            lhs = (k * k + k) * TABLE28.a[k] + TABLE28.c[k - 2]
            assert lhs.degree == -1

    def test_degree_grows_linearly(self):
        for j in range(1, 15):
            assert TABLE28.a[2 * j].degree == j - 1

    def test_index_zero_kills_higher_terms(self):
        # at n = 0 the solution is the quadratic 1 - x**2/6
        for j in range(2, 15):
            assert TABLE28.a[2 * j].evaluate(Fraction(0)) == 0

    def test_sign_alternation_at_positive_index(self):
        for n_value in (1, 3):
            e = evaluate_table(TABLE28, n_value)
            for j in range(15):
                v = e.a_values[2 * j]
                assert v != 0
                assert (v > 0) == (j % 2 == 0)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError) as exc:
            compute_coefficients(-1)
        assert str(exc.value) == f"m: must be between 0 and {MAX_ORDER}"

    def test_order_bounded_before_any_work(self):
        # without the bound, m = MAX_ORDER + 1 ran the kernel for about 6 s
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            compute_coefficients(MAX_ORDER + 1)
        assert str(exc.value) == f"m: must be between 0 and {MAX_ORDER}"
        assert time.perf_counter() - start < 1.0

    def test_table_is_prefix_stable(self):
        small = compute_coefficients(10)
        assert small.a == TABLE28.a[:11]
        assert small.c == TABLE28.c[:11]


class TestRationalIndexOracle:
    @settings(max_examples=50, deadline=None)
    @given(
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
        st.integers(0, 40),
    )
    @example(Fraction(7, 3), 40)
    def test_matches_numeric_recurrence(self, n0, m):
        # a_k built one order at a time in Fractions at n0, never touching
        # the symbolic kernel: c_{k-2} is the power recurrence applied to
        # the a terms found so far.
        want = [Fraction(1), Fraction(0)][: m + 1]
        for k in range(2, m + 1):
            c = miller_power(want[: k - 1], n0, k - 2)[k - 2]
            want.append(-c / (k * k + k))
        t = compute_coefficients(m)
        assert [t.a[k].evaluate(n0) for k in range(m + 1)] == want


class TestInterpolate:
    @given(st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=12),
           st.integers(0, 3))
    def test_recovers_integer_polynomial(self, coeffs, extra):
        # values at one node per coefficient, plus ``extra`` spare nodes
        nodes = len(coeffs) + extra
        values = [sum(c * x**j for j, c in enumerate(coeffs))
                  for x in range(nodes)]
        assert _monomial(_newton(values)) == coeffs + [0] * extra

    @given(st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=12),
           st.integers(1, 10**6))
    def test_newton_gcd_is_monomial_gcd(self, coeffs, scale):
        # the kernel reduces c_k in Newton form; a common factor makes the
        # gcd more than 1 in most cases
        coeffs = [c * scale for c in coeffs]
        values = [sum(c * x**j for j, c in enumerate(coeffs))
                  for x in range(len(coeffs))]
        assert math.gcd(*_newton(values)) == math.gcd(*coeffs)

    @given(st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=12),
           st.integers(0, 40))
    def test_newton_horner_is_the_value(self, coeffs, x):
        newton = _newton([sum(c * y**j for j, c in enumerate(coeffs))
                          for y in range(len(coeffs))])
        want = sum(c * x**j for j, c in enumerate(coeffs))
        assert _newton_horner(newton, x) == want


@contextlib.contextmanager
def deadline(seconds):
    """Fail the test, instead of hanging it, past ``seconds`` of wall time.

    The failure is not an ``OSError`` or ``EOFError``, so the kernel does
    not take it for a dead worker and lets it through.
    """
    def expire(*_):
        pytest.fail(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestForkedKernel:
    """``lee_series_tables`` on two processes and on one: the same tables.

    From ``FORK_ORDER`` up, with two usable CPUs and no other thread, a
    worker is forked for the odd nodes; the usable CPU count is forced,
    except under the real affinity.  No worker outlives its call.
    """

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children ``os.fork`` makes in this test; none
        is left after it, running or unreaped."""
        yield record_forks(monkeypatch)
        assert no_child_left()

    @staticmethod
    def tables(monkeypatch, m, cpus):
        monkeypatch.setattr(_kernels, "_usable_cpus", lambda: cpus)
        return lee_series_tables(m)

    @pytest.mark.parametrize("m", [FORK_ORDER, 140, 200])
    def test_forked_tables_are_the_in_process_ones(
        self, monkeypatch, forks, m
    ):
        forked = self.tables(monkeypatch, m, 2)
        assert len(forks) == 1
        assert self.tables(monkeypatch, m, 1) == forked
        assert len(forks) == 1
        a_num, a_den = forked[:2]
        for k, text in SYMBOLIC_A.items():
            got = IndexPolynomial.from_integers(a_num[k], a_den[k])
            assert got == parse_expression(text), k

    def test_real_affinity(self, monkeypatch, forks):
        # forks under taskset -c 0,1, and not under taskset -c 0
        tables = lee_series_tables(FORK_ORDER)
        assert len(forks) == (len(os.sched_getaffinity(0)) >= 2)
        assert tables == self.tables(monkeypatch, FORK_ORDER, 1)

    def test_one_cpu_forks_nothing(self, monkeypatch, forks):
        tables = self.tables(monkeypatch, FORK_ORDER, 1)
        assert forks == []
        assert tables == self.tables(monkeypatch, FORK_ORDER, 2)

    def test_lower_order_forks_nothing(self, monkeypatch, forks):
        tables = self.tables(monkeypatch, FORK_ORDER - 2, 2)
        assert forks == []
        forked = self.tables(monkeypatch, FORK_ORDER, 2)
        assert len(forks) == 1
        assert tables == tuple(column[:FORK_ORDER - 1] for column in forked)

    def test_other_thread_forks_nothing(self, monkeypatch, forks):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            tables = self.tables(monkeypatch, FORK_ORDER, 2)
        finally:
            release.set()
            waiter.join(60)
        assert not waiter.is_alive()
        assert forks == []
        assert tables == self.tables(monkeypatch, FORK_ORDER, 2)
        assert len(forks) == 1

    def test_error_in_this_process_reaps_the_worker(
        self, monkeypatch, forks
    ):
        parent, monomial = os.getpid(), _kernels._monomial

        def fail(newton):
            if os.getpid() == parent and len(newton) > 20:
                raise LookupError("mid-run")
            return monomial(newton)

        monkeypatch.setattr(_kernels, "_monomial", fail)
        with deadline(60), pytest.raises(LookupError, match="mid-run"):
            self.tables(monkeypatch, FORK_ORDER, 2)
        assert len(forks) == 1

    def test_killed_worker_is_run_again_in_process(
        self, monkeypatch, forks
    ):
        parent, horner = os.getpid(), _kernels._newton_horner
        steps, runs = _kernels._steps, []

        def die(newton, x):
            if os.getpid() != parent and x > 20:
                os.kill(os.getpid(), signal.SIGKILL)
            return horner(newton, x)

        def record(m, r, stride, swap):
            if os.getpid() == parent:
                runs.append(stride)
            return steps(m, r, stride, swap)

        monkeypatch.setattr(_kernels, "_newton_horner", die)
        monkeypatch.setattr(_kernels, "_steps", record)
        with deadline(60):
            tables = self.tables(monkeypatch, FORK_ORDER, 2)
        assert len(forks) == 1
        assert runs == [2, 1]  # the forked run, then the run in process
        monkeypatch.setattr(_kernels, "_newton_horner", horner)
        assert tables == self.tables(monkeypatch, FORK_ORDER, 1)


class TestMillerPower:
    def test_square_of_one_plus_x(self):
        assert miller_power([1, 1], 2, 2) == [
            Fraction(1), Fraction(2), Fraction(1)
        ]

    def test_square_of_two_plus_x(self):
        assert miller_power([2, 1], 2, 2) == [
            Fraction(4), Fraction(4), Fraction(1)
        ]

    def test_identity_power(self):
        assert miller_power([2, 3, 5], 1, 4) == [
            Fraction(2), Fraction(3), Fraction(5), Fraction(0), Fraction(0)
        ]

    def test_zeroth_power(self):
        assert miller_power([7, 1, 4], 0, 3) == [
            Fraction(1), Fraction(0), Fraction(0), Fraction(0)
        ]

    def test_cube_matches_series_power(self):
        e = evaluate_table(compute_coefficients(4), 3)
        b = [e.a_values[k] for k in range(5)]
        c = miller_power(b, 3, 4)
        assert c[2] == Fraction(-1, 2)
        assert c[4] == Fraction(19, 120)

    def test_negative_integer_power(self):
        # 1/(2 + x) = 1/2 - x/4 + x**2/8 - ...
        assert miller_power([2, 1], -1, 2) == [
            Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)
        ]

    def test_fractional_power_of_unit_series(self):
        # (1 + x**2/3) ** (-1/2) reproduces the index-5 closed form
        c = miller_power([1, 0, Fraction(1, 3)], Fraction(-1, 2), 8)
        e = evaluate_table(compute_coefficients(8), 5)
        for k in range(9):
            assert c[k] == e.a_values[k]

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            miller_power([0, 1], 2, 3)

    def test_fractional_power_needs_unit_leading_coefficient(self):
        with pytest.raises(ValueError):
            miller_power([2, 1], Fraction(1, 2), 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            miller_power([1, 1], 2, -1)

    @given(
        st.lists(
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
            min_size=1,
            max_size=5,
        ).filter(lambda b: b[0] != 0),
        st.integers(0, 4),
    )
    def test_matches_repeated_multiplication(self, b, q):
        m = 6
        got = miller_power(b, q, m)
        want = [Fraction(1)] + [Fraction(0)] * m
        for _ in range(q):
            want = mul_truncated(want, b, m)
        assert got == want


class TestEvaluateTable:
    def test_index_one_reciprocal_factorials(self):
        e = evaluate_table(TABLE28, 1)
        for k, v in INDEX1_A.items():
            assert e.a_values[k] == v
            assert v == Fraction((-1) ** (k // 2), math.factorial(k + 1))

    def test_index_three(self):
        e = evaluate_table(TABLE28, 3)
        for k, v in INDEX3_A.items():
            assert e.a_values[k] == v

    def test_index_zero_truncates(self):
        e = evaluate_table(TABLE28, 0)
        assert e.a_values[0] == 1
        assert e.a_values[2] == Fraction(-1, 6)
        assert all(e.a_values[k] == 0 for k in range(3, 29))

    def test_index_five_binomial_form(self):
        e = evaluate_table(TABLE28, 5)
        for j in range(15):
            want = Fraction((-1) ** j * math.comb(2 * j, j), 12**j)
            assert e.a_values[2 * j] == want

    def test_rational_index(self):
        e = evaluate_table(TABLE28, Fraction(3, 2))
        assert e.a_values[4] == Fraction(1, 80)

    def test_metadata(self):
        e = evaluate_table(TABLE28, 3)
        assert e.n_value == 3
        assert e.max_index == 28


class TestVerifyCByPower:
    @pytest.mark.parametrize("n_value", range(6))
    def test_integer_indices(self, n_value):
        t = compute_coefficients(20)
        assert verify_c_by_power(t, n_value)

    def test_defaults_to_table_order(self):
        assert verify_c_by_power(compute_coefficients(12), 2)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            verify_c_by_power(TABLE28, Fraction(3, 2))

    def test_index_bounded_before_any_work(self):
        # without the bound, index 20,000 ran for more than 110 s
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            verify_c_by_power(compute_coefficients(20), 20_000)
        assert str(exc.value) == (
            "brute-force power check needs an integer index from 0 to"
            f" {MAX_ORACLE_INDEX}"
        )
        assert time.perf_counter() - start < 1.0

    def test_index_at_the_bound(self):
        assert verify_c_by_power(compute_coefficients(20), MAX_ORACLE_INDEX)

    def test_detects_corruption(self):
        t = compute_coefficients(6)
        broken = type(t)(
            a=t.a,
            c=t.c[:6] + (t.c[6] + 1,),
        )
        assert not verify_c_by_power(broken, 3)


@pytest.fixture
def power_indices(monkeypatch):
    """The index of each brute-force power the oracles compute."""
    indices = []
    power_truncated = series._power_truncated

    def counted(b, q, m):
        indices.append(q)
        return power_truncated(b, q, m)

    monkeypatch.setattr(series, "_power_truncated", counted)
    return indices


class TestTableOrder:
    """The order of a table or series is read off its tuples."""

    def test_order_is_the_length_of_a(self):
        t = compute_coefficients(6)
        assert t.max_index == 6
        assert evaluate_table(t, 3).max_index == 6
        shorter = type(t)(a=t.a[:4], c=t.c[:4])
        assert shorter.max_index == 3
        assert verify_c_by_power(shorter, 3)
        assert not any(residual_coefficients(shorter, 3))

    def test_order_is_not_a_constructor_argument(self):
        t = compute_coefficients(6)
        with pytest.raises(TypeError):
            type(t)(max_index=3, a=t.a, c=t.c)
        s = evaluate_table(t, 3)
        with pytest.raises(TypeError):
            type(s)(n_value=s.n_value, max_index=3, a_values=s.a_values)


class TestSharedPower:
    """Both oracles read one power per table and index, kept on the table."""

    def test_both_oracles_share_one_power(self, power_indices):
        t = compute_coefficients(12)
        assert not any(residual_coefficients(t, 3))
        assert verify_c_by_power(t, 3)
        assert power_indices == [3]

    def test_each_index_has_its_own_power(self, power_indices):
        t = compute_coefficients(12)
        assert verify_c_by_power(t, 3)
        assert verify_c_by_power(t, 2)
        assert not any(residual_coefficients(t, 2))
        assert power_indices == [3, 2]

    def test_rebuilt_tables_start_empty(self, power_indices):
        t = compute_coefficients(12)
        assert verify_c_by_power(t, 3)
        broken_c = t.c[:4] + (t.c[4] + 1,) + t.c[5:]
        assert not verify_c_by_power(type(t)(a=t.a, c=broken_c), 3)
        assert not verify_c_by_power(dataclasses.replace(t, c=broken_c), 3)
        broken_a = t.a[:4] + (t.a[4] + 1,) + t.a[5:]
        broken = dataclasses.replace(t, a=broken_a)
        assert any(residual_coefficients(broken, 3))
        assert power_indices == [3, 3, 3, 3]

    def test_index_checked_on_every_call(self, power_indices):
        t = compute_coefficients(12)
        assert verify_c_by_power(t, 3)
        assert verify_c_by_power(t, MAX_ORACLE_INDEX)
        for oracle, check in [
            (verify_c_by_power, "brute-force power check"),
            (residual_coefficients, "exact residual check"),
        ]:
            with pytest.raises(ValueError) as exc:
                oracle(t, MAX_ORACLE_INDEX + 1)
            assert str(exc.value) == (
                f"{check} needs an integer index from 0 to {MAX_ORACLE_INDEX}"
            )
        assert power_indices == [3, MAX_ORACLE_INDEX]

    def test_power_over_the_least_common_denominator(self):
        # of the values, not of the polynomials: over the latter, the
        # power at n = 10 took up to twice as long
        t = compute_coefficients(40)
        nums, den, _ = series._evaluated_power(t, 10, "check")
        a_vals = evaluate_table(t, 10).a_values
        assert den == math.lcm(*[v.denominator for v in a_vals])
        assert [Fraction(v, den) for v in nums] == list(a_vals)

    def test_memo_is_not_part_of_the_value(self):
        t = compute_coefficients(12)
        assert verify_c_by_power(t, 3)
        assert not any(residual_coefficients(t, 2))
        fresh = type(t)(t.a, t.c)
        assert t == fresh
        assert hash(t) == hash(fresh)
        assert repr(t) == repr(fresh)


def _perturbed(t, a_index, c_index):
    """``t`` with ``a[a_index]`` and ``c[c_index]`` off by nonzero terms.

    The ``c`` term vanishes at n = 0 and n = 3, so the power check passes
    there when the ``a`` table is intact.
    """
    a, c = list(t.a), list(t.c)
    if a_index is not None:
        a[a_index] += (N + 1) / 7
    if c_index is not None:
        c[c_index] += N * (N - 3) / 5
    return type(t)(tuple(a), tuple(c))


class TestOraclesAgainstReferences:
    """Both oracles against plain ``Fraction`` references at every index.

    The references evaluate the table with ``evaluate_table`` and take
    the power by repeated ``mul_truncated``, so a slip in the oracles'
    integer scaling shows as a wrong value, not only as a wrong verdict.
    """

    TABLE = compute_coefficients(12)

    @pytest.mark.parametrize("a_index, c_index", [
        (None, None),
        (None, 4),
        (None, 7),
        (5, 4),
        (6, 7),
    ])
    @pytest.mark.parametrize("q", range(MAX_ORACLE_INDEX + 1))
    def test_values(self, q, a_index, c_index):
        t = _perturbed(self.TABLE, a_index, c_index)
        m = t.max_index
        a_vals = evaluate_table(t, q).a_values
        power = [Fraction(1)] + [Fraction(0)] * m
        for _ in range(q):
            power = mul_truncated(power, a_vals, m)
        assert residual_coefficients(t, q) == [
            k * (k + 1) * a_vals[k] + power[k - 2] for k in range(2, m + 1)
        ]
        c_vals = [c.evaluate(q) for c in t.c]
        assert verify_c_by_power(t, q) == (c_vals == power)

    def test_wrong_length_c_table_fails(self):
        t = self.TABLE
        for c in (t.c[:-1], t.c + (IndexPolynomial(()),)):
            assert not verify_c_by_power(dataclasses.replace(t, c=c), 3)


class TestMulTruncated:
    def test_basic(self):
        u = [Fraction(1), Fraction(1)]
        assert mul_truncated(u, u, 2) == [
            Fraction(1), Fraction(2), Fraction(1)
        ]

    def test_truncates(self):
        u = [Fraction(1), Fraction(1)]
        assert mul_truncated(u, u, 1) == [Fraction(1), Fraction(2)]

    def test_short_inputs_padded(self):
        assert mul_truncated([Fraction(2)], [Fraction(3)], 3) == [
            Fraction(6), Fraction(0), Fraction(0), Fraction(0)
        ]


class TestIntegerClearedPower:
    @given(
        st.lists(
            st.one_of(
                st.just(Fraction(0)),
                st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
            ),
            max_size=7,
        ),
        st.integers(0, 6),
        st.integers(0, 8),
    )
    def test_matches_repeated_mul_truncated(self, b, q, m):
        want = [Fraction(1)] + [Fraction(0)] * m
        for _ in range(q):
            want = mul_truncated(want, b, m)
        den = math.lcm(*[v.denominator for v in b])
        power = _power_truncated([int(v * den) for v in b], q, m)
        assert [Fraction(p, den**q) for p in power] == want


class TestRadiusOfConvergence:
    """The series' radius of convergence against the integrator's first zero.

    For a non-integer ``n``, ``f**n`` has a branch point where ``f = 0``, so
    the even series in ``u = x**2`` converges up to ``xi_1**2`` unless a
    complex singularity lies closer.  The radius is fitted from the ratios
    ``r_k = a_{2k} / a_{2k-2}`` of the exact coefficients, extrapolated
    linearly in ``1/k`` through the last two of them (Domb & Sykes 1957).
    """

    TABLE = compute_coefficients(140)

    def ratios(self, n_value):
        a = evaluate_table(self.TABLE, n_value).a_values[::2]
        return [float(a[k] / a[k - 1]) for k in range(1, len(a))]

    def fitted_radius(self, n_value):
        ratios = self.ratios(n_value)
        # the line through (1/(K-1), r_{K-1}) and (1/K, r_K), at 1/k = 0
        limit = ratios[-1] + (ratios[-1] - ratios[-2]) * (len(ratios) - 1)
        return abs(limit) ** -0.5

    @pytest.mark.parametrize("n_value, first_zero", [
        (Fraction(1, 2), 2.75269805),
        (Fraction(3, 2), 3.65375374),
    ])
    def test_radius_is_the_first_zero(self, n_value, first_zero):
        radius = self.fitted_radius(n_value)
        numeric = solve_midpoint(float(n_value), IntegratorConfig(dx=1e-4))
        assert radius == pytest.approx(numeric.first_zero, rel=1e-3)
        assert radius == pytest.approx(first_zero, rel=1e-3)

    def test_index_3_singularity_is_complex(self):
        # the ratios settle at a negative limit: the nearest singularity is
        # off the real axis, well inside the first zero
        ratios = self.ratios(Fraction(3))
        assert all(r < 0 for r in ratios[-10:])
        radius = self.fitted_radius(Fraction(3))
        assert radius == pytest.approx(2.575, abs=1e-3)
        numeric = solve_midpoint(3.0, IntegratorConfig(dx=1e-4))
        assert numeric.first_zero == pytest.approx(6.897, abs=1e-3)
