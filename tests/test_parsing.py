"""Expression parser for canonical coefficient strings."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lane_emden import (
    ExpressionError,
    IndexPolynomial,
    N,
    parse_expression,
)
from lane_emden.parsing import MAX_BITS, MAX_DEGREE, MAX_LITERAL_DIGITS

from reference_series import mul_truncated
from reference_tables import SYMBOLIC_A

rationals = st.builds(
    Fraction, st.integers(-20, 20), st.integers(1, 20)
)
polynomials = st.lists(rationals, min_size=0, max_size=5).map(IndexPolynomial)
# Half the coefficients zero, so that sparse polynomials and monomials occur.
sparse_coefficients = st.one_of(st.just(Fraction(0)), rationals)
long_polynomials = st.lists(
    sparse_coefficients, min_size=0, max_size=41
).map(IndexPolynomial)
monomials = st.builds(
    lambda c, d: IndexPolynomial((0,) * d + (c,)), rationals, st.integers(0, 5)
)


class TestGrammar:
    def test_integer(self):
        assert parse_expression("1") == IndexPolynomial((1,))

    def test_variable(self):
        assert parse_expression("n") == N

    def test_unary_minus(self):
        assert parse_expression("-1/6") == IndexPolynomial((Fraction(-1, 6),))

    def test_double_unary(self):
        assert parse_expression("--n") == N

    def test_division_by_constant(self):
        assert parse_expression("n/120") == IndexPolynomial((0, Fraction(1, 120)))

    def test_product_and_parens(self):
        p = parse_expression("-n*(8*n - 5)/15120")
        assert p == IndexPolynomial(
            (0, Fraction(5, 15120), Fraction(-8, 15120))
        )
        assert p.coefficient(1) == Fraction(1, 3024)
        assert p.coefficient(2) == Fraction(-1, 1890)

    def test_integer_power(self):
        assert parse_expression("2**3") == IndexPolynomial((8,))
        assert parse_expression("n**2") == IndexPolynomial((0, 0, 1))

    def test_power_binds_tighter_than_mul(self):
        assert parse_expression("n**2*n") == IndexPolynomial((0, 0, 0, 1))

    def test_unary_binds_looser_than_power(self):
        assert parse_expression("-n**2") == IndexPolynomial((0, 0, -1))

    def test_whitespace_tolerated(self):
        assert parse_expression("  n *( n+1 ) / 2 ") == parse_expression(
            "n*(n + 1)/2"
        )

    def test_subtraction_chain_is_left_associative(self):
        assert parse_expression("1 - n - n") == IndexPolynomial((1, -2))

    def test_division_chain_is_left_associative(self):
        assert parse_expression("n/2/3") == IndexPolynomial((0, Fraction(1, 6)))


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "()",
            "n +",
            "* n",
            "(n",
            "n)",
            "1..2",
            "3.5",
            "x",
            "n n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    def test_division_by_zero_constant(self):
        with pytest.raises(ExpressionError):
            parse_expression("n/0")

    def test_division_by_expression_that_vanishes(self):
        with pytest.raises(ExpressionError):
            parse_expression("1/(n - n)")

    def test_division_by_polynomial(self):
        with pytest.raises(ExpressionError):
            parse_expression("n/(n + 1)")

    def test_fractional_exponent(self):
        with pytest.raises(ExpressionError):
            parse_expression("2**(1/2)")

    def test_negative_exponent(self):
        with pytest.raises(ExpressionError):
            parse_expression("n**-1")

    def test_polynomial_exponent(self):
        with pytest.raises(ExpressionError):
            parse_expression("2**n")

    def test_error_reports_position(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("n + @")
        assert "4" in str(exc.value)

    def test_is_value_error(self):
        assert issubclass(ExpressionError, ValueError)


class TestBounds:
    def test_power_degree(self):
        assert parse_expression(f"n**{MAX_DEGREE}").degree == MAX_DEGREE
        with pytest.raises(ExpressionError, match="degree") as exc:
            parse_expression(f"n**{MAX_DEGREE + 1}")
        assert "position 1" in str(exc.value)
        with pytest.raises(ExpressionError, match="degree"):
            parse_expression("(n + 1)**100000")

    def test_product_degree(self):
        half = MAX_DEGREE // 2
        assert parse_expression(f"n**{half}*n**{half}").degree == 2 * half
        with pytest.raises(ExpressionError, match="degree"):
            parse_expression(f"n**{half}*n**{half + 1}")

    def test_power_coefficient_bits(self):
        # 2 has a 2-bit numerator and a 1-bit denominator.
        parse_expression(f"2**{MAX_BITS // 3}")
        with pytest.raises(ExpressionError, match="bits"):
            parse_expression(f"2**{MAX_BITS // 3 + 1}")
        with pytest.raises(ExpressionError, match="bits"):
            parse_expression("((2**1000)**1000)**1000")

    def test_literal_digits(self):
        longest = "9" * MAX_LITERAL_DIGITS
        assert parse_expression(longest) == int(longest)
        with pytest.raises(ExpressionError, match="position 4"):
            parse_expression("n + 1" + longest)


class TestRoundTrip:
    @pytest.mark.parametrize("k", sorted(SYMBOLIC_A))
    def test_reference_expressions(self, k):
        text = SYMBOLIC_A[k]
        p = parse_expression(text)
        assert str(p) == text
        assert parse_expression(str(p)) == p

    @given(polynomials)
    def test_str_parse_identity(self, p):
        assert parse_expression(str(p)) == p

    @given(long_polynomials)
    def test_str_parse_identity_long(self, p):
        assert parse_expression(str(p)) == p


def _power_by_multiplication(q, e):
    """``q**e`` as ``e`` products by the plain ``Fraction`` loop."""
    degree = max(q.degree * e, 0)
    power = [Fraction(1)]
    for _ in range(e):
        power = mul_truncated(power, q.coefficients, degree)
    return IndexPolynomial(power)


class TestPower:
    @given(st.one_of(polynomials, monomials), st.integers(0, 6))
    def test_matches_repeated_multiplication(self, q, e):
        want = _power_by_multiplication(q, e)
        assert parse_expression(f"({q})**{e}") == want

    @pytest.mark.parametrize("text, want", [
        ("0**0", 1),
        ("0**3", 0),
        ("n**0", 1),
        ("(n - n)**0", 1),
        ("(-2/3)**3", Fraction(-8, 27)),
        ("(2*n)**3", IndexPolynomial((0, 0, 0, 8))),
    ])
    def test_edge_cases(self, text, want):
        assert parse_expression(text) == want
