"""Exact rational arithmetic and index polynomials."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lane_emden import IndexPolynomial, N
from lane_emden.exact import MAX_BITS, MAX_DEGREE, MAX_POWER_BITS

from reference_series import mul_truncated

rationals = st.builds(
    Fraction, st.integers(-20, 20), st.integers(1, 20)
)
polynomials = st.lists(rationals, min_size=0, max_size=5).map(IndexPolynomial)
monomials = st.builds(
    lambda c, d: IndexPolynomial((0,) * d + (c,)), rationals, st.integers(0, 5)
)
factors = st.one_of(polynomials, monomials)
# ints, Fractions and polynomials of few values, so equal pairs come often
few_scalars = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
few_values = st.one_of(
    few_scalars,
    st.builds(Fraction, few_scalars),
    st.lists(few_scalars, max_size=3).map(IndexPolynomial),
)
# (nums, den) with a shared factor, negatives and trailing zeros
integer_forms = st.builds(
    lambda vs, f, zeros, d: ([v * f for v in vs] + [0] * zeros, d * f),
    st.lists(st.integers(-20, 20), max_size=6),
    st.integers(1, 12),
    st.integers(0, 3),
    st.integers(1, 12),
)


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        p = IndexPolynomial((1, 2, 0, 0))
        assert p.degree == 1
        assert p.coefficients == (Fraction(1), Fraction(2))

    def test_zero_polynomial(self):
        z = IndexPolynomial(())
        assert z.degree == -1
        assert not z
        assert str(z) == "0"

    def test_int_coefficients_coerced(self):
        p = IndexPolynomial((1, -3))
        assert all(isinstance(c, Fraction) for c in p.coefficients)

    @given(integer_forms)
    def test_integer_constructor_matches_rationals(self, form):
        nums, den = form
        got = IndexPolynomial.from_integers(nums, den)
        want = IndexPolynomial(Fraction(v, den) for v in nums)
        assert got == want
        assert hash(got) == hash(want)
        assert got.coefficients == want.coefficients

    def test_integer_form_is_reduced(self):
        p = IndexPolynomial.from_integers([0, 6, -4, 0], 10)
        assert (p.nums, p.den) == ((0, 3, -2), 5)
        assert IndexPolynomial.from_integers([0, 0], 7).den == 1

    def test_integer_constructor_rejects_nonpositive_den(self):
        with pytest.raises(ValueError):
            IndexPolynomial.from_integers([1], 0)

    def test_coefficient_out_of_range_is_zero(self):
        p = IndexPolynomial((1, 2))
        assert p.coefficient(7) == 0

    def test_n_constant(self):
        assert N.degree == 1
        assert N.coefficient(1) == 1
        assert N.coefficient(0) == 0


class TestArithmetic:
    def test_add(self):
        a = IndexPolynomial((Fraction(1, 2), 1))
        b = IndexPolynomial((Fraction(1, 2), -1))
        assert a + b == IndexPolynomial((1,))

    def test_add_cancels_to_zero(self):
        a = IndexPolynomial((0, Fraction(1, 120)))
        assert (a + (-a)).degree == -1

    def test_scalar_add(self):
        assert N + 1 == IndexPolynomial((1, 1))
        assert 1 + N == IndexPolynomial((1, 1))
        with pytest.raises(TypeError):
            N + "x"

    def test_sub(self):
        assert N - N == IndexPolynomial(())
        assert (N - 1) - N == IndexPolynomial((-1,))
        assert 1 - N == IndexPolynomial((1, -1))

    def test_mul(self):
        # (-1/6) * (-n/6) = n/36
        a = IndexPolynomial((Fraction(-1, 6),))
        b = IndexPolynomial((0, Fraction(-1, 6)))
        assert a * b == IndexPolynomial((0, Fraction(1, 36)))

    def test_mul_by_zero(self):
        assert (N * IndexPolynomial(())).degree == -1

    def test_mul_degrees_add(self):
        assert (N * N).degree == 2
        assert (N * N) == IndexPolynomial((0, 0, 1))

    def test_scalar_mul(self):
        assert 2 * N == IndexPolynomial((0, 2))
        assert N * Fraction(1, 2) == IndexPolynomial((0, Fraction(1, 2)))

    def test_truediv_scalar(self):
        assert N / 2 == IndexPolynomial((0, Fraction(1, 2)))

    def test_truediv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            N / 0

    def test_eq_against_scalar(self):
        assert IndexPolynomial((Fraction(1, 2),)) == Fraction(1, 2)
        assert IndexPolynomial(()) == 0
        assert N != 1
        assert (N == "x") is False

    def test_hash_consistent_with_eq(self):
        assert hash(IndexPolynomial((0, 1))) == hash(N)
        assert len({1, IndexPolynomial((1,))}) == 1
        assert len({Fraction(1, 2), IndexPolynomial((Fraction(1, 2),))}) == 1
        assert hash(IndexPolynomial(())) == hash(0)

    @given(few_values, few_values)
    def test_equal_values_hash_equal(self, p, q):
        if p == q:
            assert hash(p) == hash(q)
        assert (p == q) == (q == p)

    @given(polynomials, polynomials)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polynomials, polynomials, polynomials)
    def test_add_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polynomials, polynomials)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polynomials, polynomials, polynomials)
    def test_mul_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials)
    def test_additive_inverse(self, p):
        assert (p + (-p)).degree == -1

    @given(polynomials)
    def test_one_is_identity(self, p):
        one = IndexPolynomial((1,))
        assert p * one == p

    @given(polynomials, polynomials)
    def test_add_and_sub_match_coefficient_sums(self, p, q):
        # compared coefficient by coefficient, so no polynomial arithmetic
        # and no == of IndexPolynomial is involved
        size = max(p.degree, q.degree) + 1
        a = [p.coefficient(j) for j in range(size)]
        b = [q.coefficient(j) for j in range(size)]
        total, difference = p + q, p - q
        assert [total.coefficient(j) for j in range(size)] == [
            x + y for x, y in zip(a, b)]
        assert [difference.coefficient(j) for j in range(size)] == [
            x - y for x, y in zip(a, b)]
        assert max(total.degree, difference.degree) < size

    @given(factors, factors)
    def test_mul_matches_full_product(self, p, q):
        degree = p.degree + q.degree
        full = mul_truncated(p.coefficients, q.coefficients, degree)
        assert p * q == IndexPolynomial(full)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            N ** -1


class TestPowerBounds:
    """``**`` on an IndexPolynomial checks the power bounds before any
    multiplication, as the parser does."""

    def test_power_of_a_sum_over_the_degree(self):
        # without the bound this took seconds of multiplying
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            (N + 1) ** 3000
        assert str(exc.value) == f"degree above {MAX_DEGREE}"
        assert time.perf_counter() - start < 1.0

    def test_monomial_power_over_the_degree(self):
        with pytest.raises(ValueError) as exc:
            N ** (MAX_DEGREE + 1)
        assert str(exc.value) == f"degree above {MAX_DEGREE}"

    def test_power_over_the_coefficient_bits(self):
        # 3/7 has a 2-bit numerator and a 3-bit denominator
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            IndexPolynomial((Fraction(3, 7),)) ** MAX_BITS
        assert str(exc.value) == f"coefficients above {MAX_BITS} bits"
        assert time.perf_counter() - start < 1.0

    def test_power_of_a_sum_over_its_size(self):
        # degree 998 and 701 * 499 coefficient bits pass the bounds above,
        # but the power has about 350 Mbit: over 10 s without this bound
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            IndexPolynomial((-1, 0, 2**700)) ** 499
        assert str(exc.value) == (
            f"power of a sum above {MAX_POWER_BITS} bits in all"
        )
        assert time.perf_counter() - start < 1.0

    def test_power_size_at_the_bound(self):
        # (c*n + 1)**4 has 5 coefficients: with b bits of c plus the 1-bit
        # denominator, its estimate is 5 * b * 4, and 4 * b is within
        # MAX_BITS, so the size bound alone decides
        b = MAX_POWER_BITS // 20
        base = 2 ** (b - 2) * N + 1
        assert (base**4).coefficient(4) == 2 ** (4 * (b - 2))
        with pytest.raises(ValueError) as exc:
            (2 * base - 1) ** 4
        assert str(exc.value) == (
            f"power of a sum above {MAX_POWER_BITS} bits in all"
        )

    def test_power_size_counts_the_common_denominator(self):
        # Each 1/p has about 10 bits in lowest terms, but the base is
        # multiplied in over the product of all 101 primes, about 860
        # bits: counted in lowest terms, this power took 3 s.
        primes = [p for p in range(2, 600) if all(p % d for d in range(2, p))]
        base = IndexPolynomial([Fraction(1, p) for p in primes[:101]])
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            base ** 10
        assert str(exc.value) == (
            f"power of a sum above {MAX_POWER_BITS} bits in all"
        )
        assert time.perf_counter() - start < 1.0

    def test_powers_within_the_bounds(self):
        assert N**MAX_DEGREE == IndexPolynomial((0,) * MAX_DEGREE + (1,))
        binomial = [math.comb(50, k) for k in range(51)]
        assert (N + 1) ** 50 == IndexPolynomial(binomial)


class TestEvaluate:
    def test_constant(self):
        assert IndexPolynomial((Fraction(-1, 6),)).evaluate(Fraction(7)) == Fraction(-1, 6)

    def test_linear(self):
        p = IndexPolynomial((0, Fraction(1, 120)))
        assert p.evaluate(Fraction(3)) == Fraction(1, 40)
        assert p.evaluate(Fraction(0)) == 0

    def test_quadratic(self):
        # -n*(8n - 5)/15120 at n = 1 is -3/15120 = -1/5040
        p = IndexPolynomial((0, Fraction(5, 15120), Fraction(-8, 15120)))
        assert p.evaluate(Fraction(1)) == Fraction(-1, 5040)

    @given(
        st.lists(st.one_of(st.just(Fraction(0)), rationals), max_size=12),
        st.one_of(rationals, st.integers(-30, 30)),
    )
    def test_matches_fraction_horner(self, coeffs, x):
        want = Fraction(0)
        for c in reversed(coeffs):
            want = want * x + c
        got = IndexPolynomial(coeffs).evaluate(x)
        assert type(got) is Fraction
        assert got == want

    @given(polynomials, polynomials, rationals)
    def test_evaluation_is_ring_homomorphism(self, p, q, x):
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


class TestCanonicalString:
    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ((1,), "1"),
            ((Fraction(-1, 6),), "-1/6"),
            ((0, Fraction(1, 120)), "n/120"),
            ((0, 1), "n"),
            ((0, -1), "-n"),
            ((0, 0, 1), "n**2"),
            ((0, Fraction(2, 3)), "2*n/3"),
            ((0, Fraction(5, 15120), Fraction(-8, 15120)),
             "-n*(8*n - 5)/15120"),
            ((0, Fraction(1, 2), Fraction(1, 2)), "n*(n + 1)/2"),
            ((Fraction(-5, 15120), Fraction(8, 15120)), "(8*n - 5)/15120"),
            ((-3, 0, 1), "n**2 - 3"),
            ((4, 2), "2*(n + 2)"),
            ((), "0"),
        ],
    )
    def test_examples(self, coeffs, expected):
        assert str(IndexPolynomial(coeffs)) == expected

    def test_factored_n_power(self):
        # n**2 factored out when the two lowest coefficients vanish
        p = IndexPolynomial((0, 0, 1, 1))
        assert str(p) == "n**2*(n + 1)"

    def test_no_spurious_parens_for_monomial(self):
        assert str(IndexPolynomial((0, 0, Fraction(1, 4)))) == "n**2/4"
