"""Parser for the canonical coefficient expression syntax.

Accepts the forms produced by ``str(IndexPolynomial)`` and, more generally,
any expression over integers and the symbol ``n`` built from ``+ - * / **``
and parentheses, e.g. ``-n*(8*n - 5)/15120``.  Division is only defined by
a nonzero constant and exponents must be nonnegative integer constants, so
every valid expression denotes a polynomial in ``n`` with exact rational
coefficients.  An expression whose degree, powered coefficients or integer
literals exceed the bounds below raises :class:`ExpressionError` before the
work is done.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exact import IndexPolynomial, N


class ExpressionError(ValueError):
    """Raised for syntax errors, non-polynomial constructs and inputs over
    the bounds below."""


# Bounds on the work one expression can ask for.  No product or power may
# exceed MAX_DEGREE, and no power may raise coefficients of b bits to an
# exponent e with b*e above MAX_BITS.  Every other operation only adds to
# the coefficient sizes, so the work stays bounded by the length of the
# text.  ``a[k]`` has
# degree k/2 - 1, so a table would need k > 2000 to print a degree above
# MAX_DEGREE, and its coefficients stay far below MAX_BITS.
# MAX_LITERAL_DIGITS is CPython's default limit for converting a decimal
# string to an int.
MAX_DEGREE = 1000
MAX_BITS = 1 << 20
MAX_LITERAL_DIGITS = 4300


_TOKEN = re.compile(r"\d+|\*\*|[n()+\-*/]")


def _reject_nonspace(text: str, start: int, end: int) -> None:
    for i in range(start, end):
        if not text[i].isspace():
            raise ExpressionError(
                f"unexpected character {text[i]!r} at position {i}"
            )


def _tokenize(text: str):
    tokens = []
    pos = 0
    for match in _TOKEN.finditer(text):
        _reject_nonspace(text, pos, match.start())
        tokens.append((match.group(), match.start()))
        pos = match.end()
    _reject_nonspace(text, pos, len(text))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def take(self):
        token, pos = self.tokens[self.index]
        self.index += 1
        return token, pos

    def error(self, message: str, pos=None):
        where = "end of input" if pos is None else f"position {pos}"
        raise ExpressionError(f"{message} at {where}")

    def bound_degree(self, degree, pos):
        if degree > MAX_DEGREE:
            self.error(f"degree above {MAX_DEGREE}", pos)

    # expr := term (('+' | '-') term)*
    def expr(self) -> IndexPolynomial:
        result = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    # term := unary (('*' | '/') unary)*
    def term(self) -> IndexPolynomial:
        result = self.unary()
        while self.peek() in ("*", "/"):
            op, pos = self.take()
            rhs = self.unary()
            if op == "*":
                self.bound_degree(result.degree + rhs.degree, pos)
                result = result * rhs
            else:
                if rhs.degree >= 1:
                    self.error("division by a polynomial is not allowed", pos)
                if not rhs:
                    self.error("division by zero", pos)
                result = result / rhs.coefficient(0)
        return result

    # unary := ('+' | '-') unary | power
    def unary(self) -> IndexPolynomial:
        if self.peek() in ("+", "-"):
            op, _ = self.take()
            value = self.unary()
            return value if op == "+" else -value
        return self.power()

    # power := atom ('**' unary)?   -- exponent must be a constant integer >= 0
    def power(self) -> IndexPolynomial:
        base = self.atom()
        if self.peek() == "**":
            _, pos = self.take()
            exponent = self.unary()
            if exponent.degree >= 1:
                self.error("exponent must be an integer constant", pos)
            value = exponent.coefficient(0)
            if value.denominator != 1 or value < 0:
                self.error("exponent must be a nonnegative integer", pos)
            self.bound_degree(base.degree * value, pos)
            if _bits(base) * value > MAX_BITS:
                self.error(f"coefficients above {MAX_BITS} bits", pos)
            return base ** int(value)
        return base

    # atom := INT | 'n' | '(' expr ')'
    def atom(self) -> IndexPolynomial:
        token = self.peek()
        if token is None:
            self.error("unexpected end of expression")
        token, pos = self.take()
        if token.isdigit():
            if len(token) > MAX_LITERAL_DIGITS:
                self.error(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits",
                    pos,
                )
            return IndexPolynomial((Fraction(int(token)),))
        if token == "n":
            return N
        if token == "(":
            inner = self.expr()
            if self.peek() != ")":
                self.error("missing closing parenthesis", pos)
            self.take()
            return inner
        self.error(f"unexpected token {token!r}", pos)


def _bits(p: IndexPolynomial) -> int:
    """Largest numerator plus denominator bit length of a coefficient."""
    return max(
        (c.numerator.bit_length() + c.denominator.bit_length()
         for c in p.coefficients),
        default=0,
    )


def parse_expression(text: str) -> IndexPolynomial:
    """Parse an expression in ``n`` into an :class:`IndexPolynomial`."""
    parser = _Parser(text)
    if not parser.tokens:
        raise ExpressionError("empty expression")
    result = parser.expr()
    if parser.peek() is not None:
        token, pos = parser.tokens[parser.index]
        raise ExpressionError(f"unexpected token {token!r} at position {pos}")
    return result
