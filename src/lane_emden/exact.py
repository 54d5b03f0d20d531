"""Exact rational arithmetic and dense polynomials in the index symbol ``n``.

All coefficient algebra in this package is exact.  Rational values are
plain :class:`fractions.Fraction` instances (re-exported as ``Rational``),
which already guarantee the canonical reduced form with a positive
denominator.  :class:`IndexPolynomial` is a dense univariate polynomial in
the polytropic index ``n`` with ``Fraction`` coefficients; it supports ring
arithmetic, integer powers, exact Horner evaluation, and a canonical
factored string form

    -n*(8*n - 5)/15120

in which the highest power of ``n`` dividing the polynomial is pulled out,
the remaining integer polynomial is primitive (content 1) with a positive
leading coefficient, and a single positive integer denominator is kept.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Rational = Fraction

_ZERO = Fraction(0)

CoeffLike = Union[int, Fraction]

_BINARY_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


def rat_arith(op: str, x: Rational, y: Rational) -> Rational:
    """Apply one of the four exact rational operations ``add sub mul div``.

    Division by zero raises :class:`ZeroDivisionError`.
    """
    try:
        func = _BINARY_OPS[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None
    return func(Fraction(x), Fraction(y))


class IndexPolynomial:
    """Dense polynomial in ``n`` with exact rational coefficients.

    ``coefficients[j]`` holds the coefficient of ``n**j``.  Trailing zero
    coefficients are trimmed on construction, so the zero polynomial has an
    empty coefficient tuple and every other polynomial has a nonzero leading
    coefficient.  Instances are immutable; all operations return new
    polynomials in canonical form.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[CoeffLike] = ()):
        coeffs = [
            c if isinstance(c, Fraction) else Fraction(c) for c in coefficients
        ]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, value: CoeffLike) -> "IndexPolynomial":
        return cls((value,))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of ``n**j`` (zero beyond the stored degree)."""
        if 0 <= j < len(self._coeffs):
            return self._coeffs[j]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other) -> "IndexPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            if c:
                out[j] += c
        return IndexPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IndexPolynomial":
        return IndexPolynomial(-c if c else c for c in self._coeffs)

    def __sub__(self, other) -> "IndexPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IndexPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "IndexPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IndexPolynomial()
        if any(b[:-1]):
            a, b = b, a
        if not any(b[:-1]):
            # ``b`` is a monomial c*n**d: scale ``a`` by c, shift it by d.
            c = b[-1]
            scaled = [ai * c if ai else ai for ai in a]
            return IndexPolynomial([_ZERO] * (len(b) - 1) + scaled)
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
        return IndexPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e) -> "IndexPolynomial":
        """``self`` raised to a nonnegative integer power ``e``."""
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        a = self._coeffs
        if any(a[:-1]):
            return IndexPolynomial(_power_truncated(a, e, self.degree * e))
        # Zero, a constant or a monomial c*n**d: raise c and scale d.
        if not a:
            return IndexPolynomial((0**e,))
        return IndexPolynomial([_ZERO] * (self.degree * e) + [a[-1] ** e])

    def __truediv__(self, scalar) -> "IndexPolynomial":
        if isinstance(scalar, (int, Fraction)):
            return self * (Fraction(1) / Fraction(scalar))
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- evaluation and printing -------------------------------------------

    def evaluate(self, value: CoeffLike) -> Fraction:
        """Exact Horner evaluation at a rational point ``p/q``.

        The coefficients are cleared to integers over their least common
        denominator ``D``; Horner then runs on ints, adding the term of
        ``n**j`` scaled by ``q**(d - j)``, and the sum is divided by
        ``D * q**d`` once.
        """
        value = Fraction(value)
        coeffs = self._coeffs
        if not coeffs:
            return Fraction(0)
        p, q = value.numerator, value.denominator
        den = lcm(*(c.denominator for c in coeffs))
        acc = 0
        q_pow = 1
        for c in reversed(coeffs):
            acc = acc * p + c.numerator * (den // c.denominator) * q_pow
            q_pow *= q
        return Fraction(acc, den * q ** (len(coeffs) - 1))

    def __call__(self, value: CoeffLike) -> Fraction:
        return self.evaluate(value)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        sign, num, den, npow, prim = _factored_parts(self._coeffs)
        pieces = []
        if num != 1:
            pieces.append(str(num))
        if npow == 1:
            pieces.append("n")
        elif npow >= 2:
            pieces.append(f"n**{npow}")
        if len(prim) > 1:
            body = _render_primitive(prim)
            # A bare multi-term body would bind a leading minus to its
            # first term only, so it must be parenthesised when negated.
            if pieces or den != 1 or sign < 0:
                pieces.append(f"({body})")
            else:
                pieces.append(body)
        if not pieces:
            pieces.append("1")
        text = "*".join(pieces)
        if den != 1:
            text += f"/{den}"
        return ("-" if sign < 0 else "") + text

    def __repr__(self) -> str:
        return f"IndexPolynomial({[str(c) for c in self._coeffs]})"


def _coerce(value) -> "IndexPolynomial":
    if isinstance(value, IndexPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return IndexPolynomial((value,))
    return NotImplemented


def _power_truncated(b: Sequence[Fraction], q: int, m: int) -> list[Fraction]:
    """Coefficients of ``(sum b_l x^l) ** q`` through ``x**m``, exactly.

    The ``b`` are cleared to integers over their least common denominator
    ``D``, the ``q`` truncated products run on ints, and each coefficient
    is divided by ``D**q`` once at the end.
    """
    den = lcm(*(c.denominator for c in b))
    terms = [
        (j, c.numerator * (den // c.denominator))
        for j, c in enumerate(b[: m + 1]) if c
    ]
    power = [1] + [0] * m
    for _ in range(q):
        out = [0] * (m + 1)
        for i, p in enumerate(power):
            if p:
                for j, v in terms:
                    if i + j > m:
                        break
                    out[i + j] += p * v
        power = out
    scale = den**q
    return [Fraction(p, scale) for p in power]


def _factored_parts(coeffs):
    """Decompose into sign * (num/den) * n**npow * primitive(n).

    ``primitive`` is a list of ints with content 1 and a positive leading
    coefficient; its constant term is nonzero because every power of ``n``
    was moved into ``npow``.
    """
    npow = 0
    while not coeffs[npow]:
        npow += 1
    rest = coeffs[npow:]
    den = 1
    for c in rest:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in rest]
    content = 0
    for v in ints:
        content = gcd(content, v)
    sign = -1 if ints[-1] < 0 else 1
    prim = [sign * v // content for v in ints]
    scale = Fraction(content, den)
    return sign, scale.numerator, scale.denominator, npow, prim


def _render_primitive(prim) -> str:
    """Render an integer polynomial in descending powers: ``8*n - 5``."""
    parts = []
    for e in range(len(prim) - 1, -1, -1):
        c = prim[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            term = str(mag)
        elif e == 1:
            term = "n" if mag == 1 else f"{mag}*n"
        else:
            term = f"n**{e}" if mag == 1 else f"{mag}*n**{e}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f" + {term}" if c > 0 else f" - {term}")
    return "".join(parts)


#: The polynomial ``n`` itself, convenient for building expressions.
N = IndexPolynomial((0, 1))
