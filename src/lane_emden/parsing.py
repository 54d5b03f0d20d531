"""Parser for the canonical coefficient expression syntax.

Accepts the forms produced by ``str(IndexPolynomial)`` and, more generally,
any expression over integers and the symbol ``n`` built from ``+ - * / **``
and parentheses, e.g. ``-n*(8*n - 5)/15120``.  Division is only defined by
a nonzero constant and exponents must be nonnegative integer constants, so
every valid expression denotes a polynomial in ``n`` with exact rational
coefficients.

The tokens come from one regex pass.  Every intermediate value is a sparse
``(terms, den)`` pair of :mod:`lane_emden.exact`, whose ``_sum``,
``_product`` and ``_power`` do the arithmetic without reducing.  A
canonical term ``c*n**e`` takes two ``factor`` calls and one dict entry:
``n**INT`` is read in place, without a call for the exponent or
``_power``, and a monomial times a monomial without ``_product``; every
other form, and each of these at a bound, takes the general path.  Only
a base about to be raised to a power is reduced first, and the result is
reduced once, at the end, so a canonical string costs work near linear
in its length.
Token positions are worked out only to report an error.  An expression
over the bounds below, or a power over those of :mod:`lane_emden.exact`,
raises :class:`ExpressionError` with its position before the work is done.
"""

from __future__ import annotations

import re
from itertools import islice

from .exact import MAX_DEGREE, IndexPolynomial, _polynomial
from .exact import _power, _product, _sum


class ExpressionError(ValueError):
    """Raised for syntax errors, non-polynomial constructs and inputs over
    the bounds below."""


# Bounds on the work one expression can ask for, beyond the bounds that
# ``exact._power`` puts on each power.  No product may exceed MAX_DEGREE.
# A power of a base with two or more terms multiplies the base in e times,
# so the degrees d*e that such powers raise add up to at most MAX_DEGREE
# per expression; monomial powers (``n**38``) do not count.  Every other
# operation only adds to the coefficient sizes, so the work stays bounded
# by the length of the text.  MAX_LITERAL_DIGITS is CPython's default
# limit for converting a decimal string to an int.  MAX_DEPTH bounds the
# nesting of parentheses, signs and exponents, which the parser follows by
# recursion, well inside Python's recursion limit; canonical strings nest
# 3 deep (``n*(n**2 + 1)``).
MAX_LITERAL_DIGITS = 4300
MAX_DEPTH = 100


# A token, or an empty match before any other character that is not
# whitespace, so that findall gives "" for each such character.  Literals
# are ASCII digits only: ``\d`` would also match other scripts' digits.
_TOKEN = re.compile(r"[0-9]+|\*\*|[n()+\-*/]|(?=\S)")


class _Parser:
    """Recursive descent over the token list; each method returns a sparse
    ``(terms, den)`` value and leaves ``self.i`` at the next token."""

    def __init__(self, text: str):
        self.text = text
        # findall's tokens, then None at the end.
        self.tokens = _TOKEN.findall(text) + [None]
        self.i = 0
        self.depth = 0
        # the degrees d*e raised so far by powers of sums
        self.powered = 0

    def position(self, index: int) -> int:
        """Offset in the text of the token at ``index``."""
        return next(islice(_TOKEN.finditer(self.text), index, None)).start()

    def error(self, message: str, index: int):
        if self.tokens[index] is None:
            where = "end of input"
        else:
            where = f"position {self.position(index)}"
        raise ExpressionError(f"{message} at {where}")

    # expr := term (('+' | '-') term)*
    def expr(self):
        parts = [(1, self.term())]
        tokens = self.tokens
        while (op := tokens[self.i]) in ("+", "-"):
            self.i += 1
            parts.append((1 if op == "+" else -1, self.term()))
        return _sum(parts) if len(parts) > 1 else parts[0][1]

    # term := factor (('*' | '/') factor)*
    def term(self):
        terms, den = self.factor()
        tokens = self.tokens
        while (op := tokens[self.i]) in ("*", "/"):
            at = self.i
            self.i += 1
            rhs, rden = self.factor()
            if op == "*":
                if len(terms) == 1 == len(rhs):
                    # a monomial times a monomial, as in c*n**e
                    ((i, x),), ((j, y),) = terms.items(), rhs.items()
                    if i + j <= MAX_DEGREE:
                        terms, den = {i + j: x * y}, den * rden
                        continue
                # a zero factor cannot take the sum over the bound
                if terms and rhs and max(terms) + max(rhs) > MAX_DEGREE:
                    self.error(f"degree above {MAX_DEGREE}", at)
                terms, den = _product(terms, rhs), den * rden
                continue
            if not rhs:
                self.error("division by zero", at)
            if max(rhs) >= 1:
                self.error("division by a polynomial is not allowed", at)
            # terms/den divided by c/rden is terms*rden/(den*c), c != 0
            c = rhs[0]
            terms = _product(terms, {0: rden if c > 0 else -rden})
            den *= abs(c)
        return terms, den

    # factor := ('+' | '-') factor | atom ('**' factor)?
    # atom := INT | 'n' | '(' expr ')'
    # Parentheses, signs and exponents all nest through here.  The
    # exponent must be a constant integer >= 0.
    def factor(self):
        at = self.i
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH}", at)
        tokens = self.tokens
        token = tokens[at]
        self.i = at + 1
        if token == "n":
            # n**INT, as in c*n**e, without the exponent's factor call or
            # _power.  Any other exponent, and one past a bound (its depth
            # step included), takes the general path and its errors.
            e = tokens[at + 2] if tokens[at + 1] == "**" else None
            if (e and e.isdigit() and tokens[at + 3] != "**"
                    and self.depth < MAX_DEPTH and len(e) <= MAX_LITERAL_DIGITS
                    and (degree := int(e)) <= MAX_DEGREE):
                self.i = at + 3
                self.depth -= 1
                return {degree: 1}, 1
            terms, den = {1: 1}, 1
        elif token == "(":
            terms, den = self.expr()
            if tokens[self.i] != ")":
                self.error("missing closing parenthesis", at)
            self.i += 1
        elif token == "-" or token == "+":
            terms, den = self.factor()
            if token == "-":
                terms = {j: -v for j, v in terms.items()}
            self.depth -= 1
            return terms, den
        elif token is None:
            self.error("unexpected end of expression", at)
        elif token.isdigit():
            if len(token) > MAX_LITERAL_DIGITS:
                self.error(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits",
                    at,
                )
            value = int(token)
            terms, den = ({0: value} if value else {}), 1
        else:
            self.error(f"unexpected token {token!r}", at)
        if tokens[self.i] == "**":
            at = self.i
            self.i += 1
            exponent, eden = self.factor()
            if exponent and max(exponent) >= 1:
                self.error("exponent must be an integer constant", at)
            e, rest = divmod(exponent.get(0, 0), eden)
            if rest:
                self.error("exponent must be a nonnegative integer", at)
            # a power over MAX_DEGREE is _power's to reject
            if len(terms) > 1 and max(terms) * e <= MAX_DEGREE:
                self.powered += max(terms) * e
            if self.powered > MAX_DEGREE:
                self.error(f"powered sums above total degree {MAX_DEGREE}", at)
            try:
                terms, den = _power(terms, den, e)
            except ValueError as exc:
                self.error(str(exc), at)
        self.depth -= 1
        return terms, den


def parse_expression(text: str) -> IndexPolynomial:
    """Parse an expression in ``n`` into an :class:`IndexPolynomial`."""
    parser = _Parser(text)
    tokens = parser.tokens
    if "" in tokens:
        pos = parser.position(tokens.index(""))
        raise ExpressionError(
            f"unexpected character {text[pos]!r} at position {pos}"
        )
    if tokens[0] is None:
        raise ExpressionError("empty expression")
    terms, den = parser.expr()
    if tokens[parser.i] is not None:
        parser.error(f"unexpected token {tokens[parser.i]!r}", parser.i)
    return _polynomial(terms, den)
