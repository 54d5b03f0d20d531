"""Exact rational arithmetic and dense polynomials in the index symbol ``n``.

All coefficient algebra in this package is exact.  Rational values are
plain :class:`fractions.Fraction` instances.
:class:`IndexPolynomial` is a dense polynomial in the polytropic index
``n`` stored in the series kernel's reduced form: integer numerators over
one positive denominator coprime to their content.  Ring arithmetic,
integer powers and Horner evaluation run on those integers, and the
canonical factored string form

    -n*(8*n - 5)/15120

is read straight off them: the highest power of ``n`` dividing the
polynomial is pulled out, and the remaining integer polynomial is
primitive (content 1) with a positive leading coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

CoeffLike = Union[int, Fraction]


def _reduce(nums: list[int], den: int) -> tuple[list[int], int]:
    """``nums``/``den`` (``den >= 1``) reduced: trailing zeros popped in
    place, and all divided by their gcd, so ``den`` becomes coprime to the
    content of ``nums``."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g > 1:
        nums = [v // g for v in nums]
        den //= g
    return nums, den


class IndexPolynomial:
    """Dense polynomial in ``n`` with exact rational coefficients.

    The coefficient of ``n**j`` is ``nums[j] / den``.  ``nums`` is a tuple
    of ints with no trailing zero, so the zero polynomial has empty
    ``nums``, and ``den`` is a positive int coprime to the content of
    ``nums``; that form is canonical.  Instances are immutable; all
    operations return new polynomials in canonical form.
    """

    __slots__ = ("nums", "den")

    def __new__(cls, coefficients: Iterable[CoeffLike] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        den = lcm(*[c.denominator for c in coeffs])
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        return cls.from_integers(nums, den)

    @classmethod
    def from_integers(cls, nums: Iterable[int], den: int = 1):
        """The polynomial ``sum nums[j] * n**j / den``, for ``den >= 1``."""
        if den < 1:
            raise ValueError("denominator must be >= 1")
        poly = object.__new__(cls)
        nums, poly.den = _reduce(list(nums), den)
        poly.nums = tuple(nums)
        return poly

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients of ``n**0, n**1, ...`` as fractions."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of ``n**j`` (zero beyond the stored degree)."""
        if 0 <= j < len(self.nums):
            return Fraction(self.nums[j], self.den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other) -> "IndexPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _signed_sum(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> "IndexPolynomial":
        return self.from_integers([-v for v in self.nums], self.den)

    def __sub__(self, other) -> "IndexPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _signed_sum(((1, self), (-1, other)))

    def __rsub__(self, other) -> "IndexPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _signed_sum(((1, other), (-1, self)))

    def __mul__(self, other) -> "IndexPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.nums, other.nums
        out = _int_mul(a, b, len(a) + len(b) - 2)
        return self.from_integers(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e) -> "IndexPolynomial":
        """``self`` raised to a nonnegative integer power ``e``."""
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        a, den, degree = self.nums, self.den**e, self.degree * e
        if any(a[:-1]):
            return self.from_integers(_int_power(a, e, degree), den)
        # Zero, a constant or a monomial c*n**d: raise c and scale d.
        if not a:
            return IndexPolynomial((0**e,))
        return self.from_integers([0] * degree + [a[-1] ** e], den)

    def __truediv__(self, scalar) -> "IndexPolynomial":
        if isinstance(scalar, (int, Fraction)):
            return self * (Fraction(1) / Fraction(scalar))
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    # -- evaluation and printing -------------------------------------------

    def evaluate(self, value: CoeffLike) -> Fraction:
        """Exact Horner evaluation at a rational point ``p/q``.

        Horner runs on the integer numerators, adding the term of ``n**j``
        scaled by ``q**(d - j)``, and the sum is divided by
        ``den * q**d`` once.
        """
        value = Fraction(value)
        nums = self.nums
        if not nums:
            return Fraction(0)
        p, q = value.numerator, value.denominator
        acc = 0
        q_pow = 1
        for v in reversed(nums):
            acc = acc * p + v * q_pow
            q_pow *= q
        return Fraction(acc, self.den * q ** (len(nums) - 1))

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        sign, num, npow, prim = _factored_parts(self.nums)
        den = self.den
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
        return f"IndexPolynomial({[str(c) for c in self.coefficients]})"


def _coerce(value) -> "IndexPolynomial":
    if isinstance(value, IndexPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return IndexPolynomial((value,))
    return NotImplemented


def _signed_sum(
    terms: Sequence[tuple[int, IndexPolynomial]],
) -> IndexPolynomial:
    """``sum sign * p`` over ``(sign, p)`` pairs with signs +-1: one lcm of
    the denominators, one pass of scaled numerators and one reduction."""
    den = lcm(*[p.den for _, p in terms])
    out = [0] * max(len(p.nums) for _, p in terms)
    for sign, p in terms:
        scale = sign * (den // p.den)
        for j, v in enumerate(p.nums):
            if v:
                out[j] += v * scale
    return IndexPolynomial.from_integers(out, den)


def _int_mul(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    """Integer coefficients of ``a(x) * b(x)`` through ``x**m``."""
    out = [0] * (m + 1)
    for i, ai in enumerate(a[: m + 1]):
        if ai:
            for j, bj in enumerate(b[: m + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _int_power(nums: Sequence[int], q: int, m: int) -> list[int]:
    """Integer coefficients of ``(sum nums[l] x^l) ** q`` through ``x**m``."""
    power = [1] + [0] * m
    for _ in range(q):
        power = _int_mul(power, nums, m)
    return power


def _power_truncated(b: Sequence[CoeffLike], q: int, m: int) -> list[Fraction]:
    """Coefficients of ``(sum b_l x^l) ** q`` through ``x**m``, exactly.

    The ``b`` are cleared to integers over one denominator ``D``, as an
    :class:`IndexPolynomial` stores them, the power runs on ints, and each
    coefficient is divided by ``D**q`` once at the end.
    """
    base = IndexPolynomial(b[: m + 1])
    scale = base.den**q
    return [Fraction(p, scale) for p in _int_power(base.nums, q, m)]


def _factored_parts(nums):
    """Decompose reduced numerators into sign * num * n**npow * primitive(n).

    ``num``, their content, is coprime to the denominator.  ``primitive``
    is a list of ints with content 1 and a positive leading coefficient;
    its constant term is nonzero because every power of ``n`` is in ``npow``.
    """
    npow = 0
    while not nums[npow]:
        npow += 1
    rest = nums[npow:]
    content = gcd(*rest)
    sign = -1 if rest[-1] < 0 else 1
    prim = [sign * v // content for v in rest]
    return sign, content, npow, prim


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
