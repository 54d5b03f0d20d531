"""Parser for the canonical coefficient expression syntax.

Accepts the forms produced by ``str(IndexPolynomial)`` and, more generally,
any expression over integers and the symbol ``n`` built from ``+ - * / **``
and parentheses, e.g. ``-n*(8*n - 5)/15120``.  Division is only defined by
a nonzero constant and exponents must be nonnegative integer constants, so
every valid expression denotes a polynomial in ``n`` with exact rational
coefficients.  Each sum is added up once, with one reduction, so a
canonical string costs work near linear in its length.  An expression
whose degree, powered coefficients, integer literals or nesting exceed the
bounds below raises :class:`ExpressionError` before the work is done.
"""

from __future__ import annotations

import re
from math import gcd

from .exact import IndexPolynomial, N, _signed_sum


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
# string to an int.  MAX_DEPTH bounds the nesting of parentheses, signs
# and exponents, which the parser follows by recursion, well inside
# Python's recursion limit; canonical strings nest 3 deep
# (``n*(n**2 + 1)``).
MAX_DEGREE = 1000
MAX_BITS = 1 << 20
MAX_LITERAL_DIGITS = 4300
MAX_DEPTH = 100


# A token, or any other character that is not whitespace.  Literals are
# ASCII digits only: ``\d`` would also match other scripts' digits.
_TOKEN = re.compile(r"([0-9]+|\*\*|[n()+\-*/])|(\S)")


def _tokenize(text: str):
    """The tokens of ``text`` as ``(token, position)`` pairs."""
    tokens = []
    for match in _TOKEN.finditer(text):
        token, other = match.groups()
        if other is not None:
            raise ExpressionError(
                f"unexpected character {other!r} at position {match.start()}"
            )
        tokens.append((token, match.start()))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        # What peek() reads: the tokens, then None at the end.
        self.kinds = [token for token, _ in self.tokens] + [None]
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.kinds[self.index]

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
        terms = [(1, self.term())]
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            terms.append((1 if op == "+" else -1, self.term()))
        return _signed_sum(terms) if len(terms) > 1 else terms[0][1]

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
    # Parentheses, signs and exponents all nest through here.
    def unary(self) -> IndexPolynomial:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            pos = None
            if self.peek() is not None:
                pos = self.tokens[self.index][1]
            self.error(f"nesting deeper than {MAX_DEPTH}", pos)
        if self.peek() in ("+", "-"):
            op, _ = self.take()
            value = self.unary()
            value = value if op == "+" else -value
        else:
            value = self.power()
        self.depth -= 1
        return value

    # power := atom ('**' unary)?   -- exponent must be a constant integer >= 0
    def power(self) -> IndexPolynomial:
        base = self.atom()
        if self.peek() == "**":
            _, pos = self.take()
            exponent = self.unary()
            if exponent.degree >= 1:
                self.error("exponent must be an integer constant", pos)
            value = exponent.nums[0] if exponent.nums else 0
            if exponent.den != 1 or value < 0:
                self.error("exponent must be a nonnegative integer", pos)
            self.bound_degree(base.degree * value, pos)
            if _bits(base) * value > MAX_BITS:
                self.error(f"coefficients above {MAX_BITS} bits", pos)
            return base**value
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
            return IndexPolynomial.from_integers((int(token),))
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
    """Largest numerator plus denominator bit length of a coefficient in
    lowest terms."""
    den, most = p.den, 0
    for v in p.nums:
        g = gcd(v, den)
        most = max(most, (v // g).bit_length() + (den // g).bit_length())
    return most


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
