"""Expression parser for canonical coefficient strings."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lane_emden import (
    ExpressionError,
    IndexPolynomial,
    N,
    compute_coefficients,
    parse_expression,
)
from lane_emden import parsing
from lane_emden.exact import MAX_BITS, MAX_DEGREE, MAX_POWER_BITS
from lane_emden.parsing import MAX_DEPTH, MAX_LITERAL_DIGITS

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
        with pytest.raises(ExpressionError) as exc:
            parse_expression("n/0")
        assert str(exc.value) == "division by zero at position 1"

    def test_division_by_expression_that_vanishes(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("1/(n - n)")
        assert str(exc.value) == "division by zero at position 1"

    def test_division_by_polynomial(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("n/(n + 1)")
        assert str(exc.value) == (
            "division by a polynomial is not allowed at position 1"
        )

    def test_fractional_exponent(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("2**(1/2)")
        assert str(exc.value) == (
            "exponent must be a nonnegative integer at position 1"
        )

    def test_negative_exponent(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("n**-1")
        assert str(exc.value) == (
            "exponent must be a nonnegative integer at position 1"
        )

    def test_polynomial_exponent(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("2**n")
        assert str(exc.value) == (
            "exponent must be an integer constant at position 1"
        )

    @pytest.mark.parametrize("text, message", [
        ("n*(n + 1", "missing closing parenthesis at position 2"),
        ("(n", "missing closing parenthesis at position 0"),
        ("((n)", "missing closing parenthesis at position 0"),
        ("(n + (1)", "missing closing parenthesis at position 0"),
        ("n**2/(n**2 - n*n + n)",
         "division by a polynomial is not allowed at position 4"),
        ("n + 1/(2*n - 2*n)", "division by zero at position 5"),
        ("n*(2*n)**(n - n + n)",
         "exponent must be an integer constant at position 7"),
        ("n + n**(3/2)", "exponent must be a nonnegative integer at position 5"),
        ("n + n**(2 - 3)",
         "exponent must be a nonnegative integer at position 5"),
        ("n + n**(4/2)**(1 - 2)",
         "exponent must be a nonnegative integer at position 12"),
        ("n)", "unexpected token ')' at position 1"),
        ("(n + 1))", "unexpected token ')' at position 7"),
        ("* n", "unexpected token '*' at position 0"),
        ("()", "unexpected token ')' at position 1"),
        ("n n", "unexpected token 'n' at position 2"),
        ("1 + 2 3", "unexpected token '3' at position 6"),
        ("n*/2", "unexpected token '/' at position 2"),
        ("n**)", "unexpected token ')' at position 3"),
        ("n +", "unexpected end of expression at end of input"),
        ("(", "unexpected end of expression at end of input"),
        ("n**", "unexpected end of expression at end of input"),
        ("-", "unexpected end of expression at end of input"),
        ("n*(n - ", "unexpected end of expression at end of input"),
        ("", "empty expression"),
        ("   ", "empty expression"),
        ("\t\n\u3000", "empty expression"),
    ])
    def test_message_in_full(self, text, message):
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        assert str(exc.value) == message

    def test_error_reports_position(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("n + @")
        assert str(exc.value) == "unexpected character '@' at position 4"

    @pytest.mark.parametrize("text, char, pos", [
        ("@n + 1", "@", 0),
        ("n + 1.5", ".", 5),
        ("n*(n + 1)/2;", ";", 11),
        ("n\u2003+\xa0x", "x", 4),
        ("\u3000\t\n\u00e9", "\u00e9", 3),
    ])
    def test_unexpected_character_message(self, text, char, pos):
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        assert str(exc.value) == (
            f"unexpected character {char!r} at position {pos}"
        )

    @pytest.mark.parametrize("text, char, pos", [
        ("\u0663*n + \uff11", "\u0663", 0),
        ("n + \uff11", "\uff11", 4),
    ])
    def test_non_ascii_digits_rejected(self, text, char, pos):
        # str.isdigit and the regex \d accept them, and int() reads them
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        assert str(exc.value) == (
            f"unexpected character {char!r} at position {pos}"
        )

    def test_first_bad_character_is_reported(self):
        # The whole text is tokenized before parsing, so a bad character
        # wins over a syntax error that comes before it.
        with pytest.raises(ExpressionError) as exc:
            parse_expression("n + + * x")
        assert str(exc.value) == "unexpected character 'x' at position 8"

    def test_unicode_whitespace_separates_tokens(self):
        assert parse_expression("n\xa0+ 1") == N + 1

    def test_is_value_error(self):
        assert issubclass(ExpressionError, ValueError)


class TestBounds:
    def test_power_degree(self):
        assert parse_expression(f"n**{MAX_DEGREE}").degree == MAX_DEGREE
        with pytest.raises(ExpressionError) as exc:
            parse_expression(f"n**{MAX_DEGREE + 1}")
        assert str(exc.value) == f"degree above {MAX_DEGREE} at position 1"
        with pytest.raises(ExpressionError) as exc:
            parse_expression("(n + 1)**100000")
        assert str(exc.value) == f"degree above {MAX_DEGREE} at position 7"

    def test_product_degree(self):
        half = MAX_DEGREE // 2
        assert parse_expression(f"n**{half}*n**{half}").degree == 2 * half
        with pytest.raises(ExpressionError) as exc:
            parse_expression(f"n**{half}*n**{half + 1}")
        assert str(exc.value) == f"degree above {MAX_DEGREE} at position 6"

    def test_powers_of_sums_share_one_degree_budget(self, monkeypatch):
        # each power alone is within MAX_DEGREE; together they are not
        assert parse_expression("(n + 1)**999").degree == 999
        computed, original = [], parsing._power

        def power(terms, den, e):
            computed.append(e)
            return original(terms, den, e)

        monkeypatch.setattr(parsing, "_power", power)
        with pytest.raises(ExpressionError) as exc:
            parse_expression("+".join(["(n+1)**999"] * 10))
        assert str(exc.value) == (
            f"powered sums above total degree {MAX_DEGREE} at position 16"
        )
        # raised at the second power, before it is computed
        assert computed == [999]
        half = MAX_DEGREE // 2
        text = f"(n + 1)**{half} + (2 - n)**{half}"
        assert parse_expression(text).degree == half
        with pytest.raises(ExpressionError) as exc:
            parse_expression(f"(n + 1)**{half} - (2 - n)**{half + 1}")
        assert str(exc.value) == (
            f"powered sums above total degree {MAX_DEGREE} at position 22"
        )

    def test_monomial_powers_are_not_counted(self):
        text = " + ".join([f"n**{MAX_DEGREE}"] * 10 + ["2**5*(n + 1)**999"])
        assert parse_expression(text).coefficient(MAX_DEGREE) == 10

    def test_power_coefficient_bits(self):
        # 2 has a 2-bit numerator and a 1-bit denominator.
        parse_expression(f"2**{MAX_BITS // 3}")
        with pytest.raises(ExpressionError) as exc:
            parse_expression(f"2**{MAX_BITS // 3 + 1}")
        assert str(exc.value) == (
            f"coefficients above {MAX_BITS} bits at position 1"
        )
        with pytest.raises(ExpressionError) as exc:
            parse_expression("((2**1000)**1000)**1000")
        assert str(exc.value) == (
            f"coefficients above {MAX_BITS} bits at position 17"
        )

    def test_budget_reported_before_coefficient_bits(self):
        # The second power is over both the budget for powers of sums and
        # MAX_BITS; the parser checks its budget before exact._power checks
        # the bits.
        with pytest.raises(ExpressionError) as exc:
            parse_expression("(n+1)**999 + (2**2000*n + 1)**600")
        assert str(exc.value) == (
            f"powered sums above total degree {MAX_DEGREE} at position 28"
        )
        with pytest.raises(ExpressionError) as exc:
            parse_expression("(2**2000*n + 1)**600")
        assert str(exc.value) == (
            f"coefficients above {MAX_BITS} bits at position 15"
        )

    def test_power_of_a_sum_size(self):
        # within the degree, bits and budget bounds, but about 350 Mbit of
        # result: over 10 s of multiplying without exact._power's size bound
        start = time.perf_counter()
        with pytest.raises(ExpressionError) as exc:
            parse_expression("(2**700*n**2-1)**499")
        assert str(exc.value) == (
            f"power of a sum above {MAX_POWER_BITS} bits in all at position 15"
        )
        assert time.perf_counter() - start < 1.0

    def test_power_bits_count_reduced_coefficients(self):
        # 6/4 is 3/2: 2 + 2 bits, not 3 + 3.
        e = MAX_BITS // 4
        assert parse_expression(f"(6/4)**{e}") == Fraction(3, 2) ** e
        with pytest.raises(ExpressionError) as exc:
            parse_expression(f"(6/4)**{e + 1}")
        assert str(exc.value) == (
            f"coefficients above {MAX_BITS} bits at position 5"
        )

    @pytest.mark.parametrize("text, pos", [
        ("(" * 200 + "n" + ")" * 200, MAX_DEPTH),
        ("-" * 1000 + "n", MAX_DEPTH),
        ("n**" * 2000 + "1", 3 * MAX_DEPTH),
    ])
    def test_nesting_depth(self, text, pos):
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        assert str(exc.value) == (
            f"nesting deeper than {MAX_DEPTH} at position {pos}"
        )

    def test_nesting_at_the_bound(self):
        depth = MAX_DEPTH - 1
        assert parse_expression("(" * depth + "n" + ")" * depth) == N
        assert parse_expression("-" * depth + "n") == (-1) ** depth * N
        assert parse_expression("1**" * depth + "1") == 1

    def test_literal_digits(self):
        longest = "9" * MAX_LITERAL_DIGITS
        assert parse_expression(longest) == int(longest)
        with pytest.raises(ExpressionError) as exc:
            parse_expression("n + 1" + longest)
        assert str(exc.value) == (
            f"integer literal longer than {MAX_LITERAL_DIGITS} digits"
            " at position 4"
        )


class TestBoundedWork:
    @pytest.mark.parametrize("text", ["0**(10**4000)", "(n - n)**(10**4000)"])
    def test_zero_to_a_huge_power(self, text):
        # A zero base passes both power bounds whatever the exponent, so
        # its power must be taken without work in the exponent's size.
        start = time.perf_counter()
        assert parse_expression(text) == 0
        assert time.perf_counter() - start < 1.0

    def test_base_reduced_before_the_power(self):
        # Each coefficient is 1 in lowest terms, so the bits bound passes;
        # unreduced, the power would carry 10**80000 through every step.
        text = "((10**400*n + 10**400)/10**400)**200"
        start = time.perf_counter()
        assert parse_expression(text) == parse_expression("(n + 1)**200")
        assert time.perf_counter() - start < 1.0

    @given(st.text(st.sampled_from(list("0123456789n()+-*/ \t\n\xa0.x@^\u0663")),
                   max_size=40))
    def test_any_text_parses_or_raises_expression_error(self, text):
        # No IndexError, KeyError, ZeroDivisionError, RecursionError, ...
        try:
            result = parse_expression(text)
        except ExpressionError:
            return
        assert isinstance(result, IndexPolynomial)


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

    def test_tables_at_coeffs_size(self):
        # The `coeffs` workload's order: degrees up to 70 and coefficients
        # of up to about 2000 bits.
        table = compute_coefficients(140)
        for k, p in enumerate(table.a + table.c):
            assert parse_expression(str(p)) == p, k


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
        assert q**e == want

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


# Random expression trees, each drawn as (tokens, value, level): the tokens
# of its text, its value built by IndexPolynomial's ring operators, and the
# grammar level it parses at, so a child is parenthesised only where the
# grammar needs it.
SUM, TERM, UNARY, POWER, ATOM = range(5)
whitespace = st.sampled_from(["", " ", "  ", "\t", "\n", " \t\n "])


def _at_level(node, level):
    tokens, _, own = node
    return tokens if own >= level else ("(", *tokens, ")")


def _signed(args):
    sign, node = args
    value = node[1] if sign == "+" else -node[1]
    return (sign, *_at_level(node, UNARY)), value, UNARY


def _chain(level, operand_level, apply):
    """Left-associative chain: the first operand at ``level`` and the rest
    at ``operand_level``."""

    def build(args):
        first, rest = args
        tokens, value = list(_at_level(first, level)), first[1]
        for op, node in rest:
            tokens += [op, *_at_level(node, operand_level)]
            value = apply(op, value, node[1])
        return tuple(tokens), value, level

    return build


def _sum(op, a, b):
    return a + b if op == "+" else a - b


def _product(op, a, b):
    return a * b if op == "*" else a / b


def _power(args):
    base, e = args
    value = base[1]
    # Keep the sizes small: a large base is raised to the first power only.
    if value.degree > 8 or max(map(abs, value.nums), default=0) > 2**64:
        e = 1
    return (*_at_level(base, ATOM), "**", str(e)), value**e, POWER


leaves = st.one_of(
    st.integers(0, 99).map(lambda k: ((str(k),), IndexPolynomial((k,)), ATOM)),
    st.just((("n",), N, ATOM)),
    st.builds(
        lambda k, d: ((str(k), "/", str(d)), IndexPolynomial((k,)) / d, TERM),
        st.integers(0, 99), st.integers(1, 30),
    ),
)
divisors = st.builds(
    lambda sign, k: ((sign, str(k)) if sign else (str(k),),
                     -k if sign else k, UNARY if sign else ATOM),
    st.sampled_from(["", "-"]),
    st.integers(1, 30),
)


def _extend(nodes):
    return st.one_of(
        st.tuples(st.sampled_from("+-"), nodes).map(_signed),
        st.tuples(
            nodes, st.lists(st.tuples(st.sampled_from("+-"), nodes),
                            min_size=1, max_size=4),
        ).map(_chain(SUM, TERM, _sum)),
        st.tuples(
            nodes, st.lists(st.one_of(st.tuples(st.just("*"), nodes),
                                      st.tuples(st.just("/"), divisors)),
                            min_size=1, max_size=3),
        ).map(_chain(TERM, UNARY, _product)),
        st.tuples(nodes, st.integers(0, 3)).map(_power),
    )


trees = st.recursive(leaves, _extend, max_leaves=12)


class TestExpressionTrees:
    @given(trees, st.data())
    def test_parse_matches_ring_operators(self, tree, data):
        tokens, value, _ = tree
        gaps = data.draw(st.lists(whitespace, min_size=len(tokens) + 1,
                                  max_size=len(tokens) + 1))
        text = gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:]))
        assert parse_expression(text) == value
