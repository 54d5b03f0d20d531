"""Exact rational arithmetic and dense polynomials in the index symbol ``n``.

All coefficient algebra in this package is exact.  Rational values are
plain :class:`fractions.Fraction` instances.
:class:`IndexPolynomial` is a dense polynomial in the polytropic index
``n`` stored in the series kernel's reduced form: integer numerators over
one positive denominator coprime to their content.  Horner evaluation
runs on those integers, and the canonical factored string form

    -n*(8*n - 5)/15120

is read straight off them: the highest power of ``n`` dividing the
polynomial is pulled out, and the remaining integer polynomial is
primitive (content 1) with a positive leading coefficient.

The package's one polynomial arithmetic runs on sparse pairs
``(terms, den)``: each power of ``n`` maps to its nonzero integer
numerator, over one positive denominator that is not reduced on the way.
:func:`_sum`, :func:`_product` and :func:`_power` serve the ring operators
and the expression parser alike; :func:`_polynomial` reduces a pair once,
and :func:`_power` alone checks the power bounds below, for both.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

CoeffLike = Union[int, Fraction]

# Bounds on the work of one power: its degree is at most MAX_DEGREE, and
# coefficients of b bits (numerator plus denominator, in lowest terms) may
# be raised to e only with b*e <= MAX_BITS.  ``a[k]`` has degree k/2 - 1,
# so a table would need k > 2000 to print a degree above MAX_DEGREE, and
# its coefficients stay far below MAX_BITS.  A base of two or more terms
# is multiplied in e times: its power's size, estimated as (d*e + 1) * b
# * e for degree d and b bits of the largest numerator plus the common
# denominator, is at most MAX_POWER_BITS.  The slowest power found at
# that bound took 2 s on a 2-vCPU machine; (n + 1)**999 estimates 2 Mbit.
MAX_DEGREE = 1000
MAX_BITS = 1 << 20
MAX_POWER_BITS = 1 << 22


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
        other = _terms(other)
        if other is NotImplemented:
            return NotImplemented
        return _polynomial(*_sum(((1, _terms(self)), (1, other))))

    __radd__ = __add__

    def __neg__(self) -> "IndexPolynomial":
        return self.from_integers([-v for v in self.nums], self.den)

    def __sub__(self, other) -> "IndexPolynomial":
        other = _terms(other)
        if other is NotImplemented:
            return NotImplemented
        return _polynomial(*_sum(((1, _terms(self)), (-1, other))))

    def __rsub__(self, other) -> "IndexPolynomial":
        other = _terms(other)
        if other is NotImplemented:
            return NotImplemented
        return _polynomial(*_sum(((1, other), (-1, _terms(self)))))

    def __mul__(self, other) -> "IndexPolynomial":
        other = _terms(other)
        if other is NotImplemented:
            return NotImplemented
        (a, den), (b, oden) = _terms(self), other
        return _polynomial(_product(a, b), den * oden)

    __rmul__ = __mul__

    def __pow__(self, e) -> "IndexPolynomial":
        """``self`` raised to a nonnegative integer power ``e``."""
        if not isinstance(e, int):
            return NotImplemented
        return _polynomial(*_power(*_terms(self), e))

    def __truediv__(self, scalar) -> "IndexPolynomial":
        if isinstance(scalar, (int, Fraction)):
            return self * (Fraction(1) / Fraction(scalar))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = IndexPolynomial((other,))
        elif not isinstance(other, IndexPolynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        if len(self.nums) > 1:
            return hash((self.nums, self.den))
        # a constant equals, so hashes as, the Fraction of its value
        return hash(self.coefficient(0))

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


def _terms(value):
    """An :class:`IndexPolynomial`, int or Fraction as a sparse ``(terms,
    den)`` pair in lowest terms; NotImplemented for any other type."""
    if isinstance(value, (int, Fraction)):
        value = IndexPolynomial((value,))
    elif not isinstance(value, IndexPolynomial):
        return NotImplemented
    return {j: v for j, v in enumerate(value.nums) if v}, value.den


def _polynomial(terms, den) -> IndexPolynomial:
    """The sparse ``(terms, den)`` reduced into an :class:`IndexPolynomial`."""
    nums = [terms.get(j, 0) for j in range(max(terms, default=-1) + 1)]
    return IndexPolynomial.from_integers(nums, den)


def _sum(parts):
    """``sum sign * value`` over ``(sign, value)`` pairs with signs +-1,
    over the lcm of the denominators."""
    den = lcm(*[d for _, (_, d) in parts])
    out = {}
    get = out.get
    for sign, (terms, d) in parts:
        scale = sign * (den // d)
        for j, v in terms.items():
            out[j] = get(j, 0) + v * scale
    return {j: v for j, v in out.items() if v}, den


def _product(a, b):
    """Product of two sparse numerators."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        # a monomial times anything: no sum, so no zero
        ((i, x),) = a.items()
        return {i + j: x * y for j, y in b.items()}
    out = {}
    get = out.get
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = get(i + j, 0) + x * y
    return {j: v for j, v in out.items() if v}


def _power(terms, den, e: int):
    """``(terms/den)**e``: zero at once, else the base is reduced first.
    ``e < 0`` or a power over the bounds above raises ValueError at once."""
    if e < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if not terms:
        return ({} if e else {0: 1}), 1
    if max(terms) * e > MAX_DEGREE:
        raise ValueError(f"degree above {MAX_DEGREE}")
    if _bits(terms, den) * e > MAX_BITS:
        raise ValueError(f"coefficients above {MAX_BITS} bits")
    g = gcd(den, *terms.values())
    if g > 1:
        terms = {j: v // g for j, v in terms.items()}
        den //= g
    if len(terms) == 1:
        ((j, v),) = terms.items()
        return {j * e: v**e}, den**e
    bits = max(map(abs, terms.values())).bit_length() + den.bit_length()
    if (max(terms) * e + 1) * bits * e > MAX_POWER_BITS:
        raise ValueError(f"power of a sum above {MAX_POWER_BITS} bits in all")
    power = {0: 1}
    for _ in range(e):
        power = _product(power, terms)
    return power, den**e


def _bits(terms, den) -> int:
    """Largest numerator plus denominator bit length of a coefficient in
    lowest terms."""
    most = 0
    for v in terms.values():
        g = gcd(v, den)
        most = max(most, (v // g).bit_length() + (den // g).bit_length())
    return most


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
