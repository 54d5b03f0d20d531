"""Power-series coefficient engine for the Lane-Emden equation.

The equation f'' + (2/x) f' + f^n = 0 with f(0) = 1, f'(0) = 0 has an even
Maclaurin solution f(x) = sum a_k(n) x^k whose coefficients satisfy, for
k >= 2,

    a_k = -c_{k-2} / (k^2 + k)

coupled to the coefficients c_k of f^n through the J.C.P. Miller power
recurrence

    c_0 = a_0^n,
    c_k = 1/(k * a_0) * sum_{l=1..k} (l*(n + 1) - k) * a_l * c_{k-l}.

:func:`compute_coefficients` runs this recurrence symbolically, producing
``a_k`` and ``c_k`` as exact polynomials in the index ``n``;
:func:`miller_power` is the generic numeric form of the power recurrence
for an arbitrary base series; and :func:`verify_c_by_power` cross-checks
the ``c`` table against brute-force repeated series multiplication, which
never touches the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _kernels
from .exact import CoeffLike, IndexPolynomial, _power_truncated


@dataclass(frozen=True)
class CoefficientTable:
    """Symbolic coefficients ``a[k]``, ``c[k]`` for all ``k <= max_index``.

    Odd indices hold explicit zero polynomials so the recurrence indexing
    needs no parity bookkeeping.
    """

    max_index: int
    a: tuple[IndexPolynomial, ...]
    c: tuple[IndexPolynomial, ...]


@dataclass(frozen=True)
class EvaluatedTable:
    """The ``a`` column of a :class:`CoefficientTable` at a fixed index."""

    n_value: Fraction
    max_index: int
    a_values: tuple[Fraction, ...]


def compute_coefficients(m: int) -> CoefficientTable:
    """Compute the coefficient tables through index ``m`` exactly.

    Odd indices are set to zero without evaluating the sum; even entries
    come from the recurrence run in denominator-cleared integer form by
    ``_kernels.lee_series_tables``.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    a_num, a_den, c_num, c_den = _kernels.lee_series_tables(m)
    a = tuple(_wrap(nums, den) for nums, den in zip(a_num, a_den))
    c = tuple(_wrap(nums, den) for nums, den in zip(c_num, c_den))
    return CoefficientTable(max_index=m, a=a, c=c)


def _wrap(nums, den) -> IndexPolynomial:
    return IndexPolynomial(Fraction(v, den) for v in nums)


def miller_power(
    b: Sequence[CoeffLike], q: CoeffLike, m: int
) -> list[Fraction]:
    """Coefficients of ``(sum b_l x^l) ** q`` through order ``m``.

    Uses the power recurrence with the full ``1/(k * b_0)`` divisor.  ``q``
    may be any integer; a non-integer ``q`` is exact only when ``b[0] == 1``
    and is rejected otherwise.
    """
    if m < 0:
        raise ValueError("truncation order must be nonnegative")
    b = [Fraction(v) for v in b]
    if not b or not b[0]:
        raise ValueError("leading series coefficient must be nonzero")
    q = Fraction(q)
    if q.denominator == 1:
        c0 = b[0] ** int(q)
    elif b[0] == 1:
        c0 = Fraction(1)
    else:
        raise ValueError(
            "non-integer exponent requires a leading coefficient of 1"
        )
    out = [c0] + [Fraction(0)] * m
    for k in range(1, m + 1):
        acc = Fraction(0)
        for l in range(1, k + 1):
            bl = b[l] if l < len(b) else None
            if not bl:
                continue
            acc += (l * (q + 1) - k) * bl * out[k - l]
        out[k] = acc / (k * b[0])
    return out


def evaluate_table(t: CoefficientTable, n_value: CoeffLike) -> EvaluatedTable:
    """Evaluate every ``a[k]`` exactly at a rational index value."""
    n_value = Fraction(n_value)
    values = tuple(poly.evaluate(n_value) for poly in t.a)
    return EvaluatedTable(
        n_value=n_value, max_index=t.max_index, a_values=values
    )


def mul_truncated(
    u: Sequence[Fraction], v: Sequence[Fraction], m: int
) -> list[Fraction]:
    """Exact product of two coefficient sequences, truncated at order ``m``."""
    out = [Fraction(0)] * (m + 1)
    for i, ui in enumerate(u[: m + 1]):
        if not ui:
            continue
        for j in range(min(len(v), m + 1 - i)):
            vj = v[j]
            if vj:
                out[i + j] += ui * vj
    return out


def verify_c_by_power(
    t: CoefficientTable, n_value: int, m: int | None = None
) -> bool:
    """Check the ``c`` table against brute-force series exponentiation.

    For an integer index, ``f^n`` can be computed exactly by multiplying
    the evaluated ``a`` series by itself ``n`` times with truncation; this
    is independent of the recurrence that produced ``c``.  The products
    run on integers over one common denominator.
    """
    m, _, power = _evaluated_power(t, n_value, m, "brute-force power check")
    return power == [poly.evaluate(n_value) for poly in t.c[: m + 1]]


def _evaluated_power(
    t: CoefficientTable, n_value: int, m: int | None, check: str
) -> tuple[int, list[Fraction], list[Fraction]]:
    """The order ``m``, ``a[0..m]`` at ``n_value``, and ``f**n_value``.

    ``f**n_value`` is the brute-force power of the evaluated series,
    truncated after ``x**m`` and independent of the recurrence.  ``m``
    defaults to the table's order; ``check`` names the caller in the error
    for a bad index.
    """
    if not isinstance(n_value, int) or n_value < 0:
        raise ValueError(f"{check} needs an integer index >= 0")
    if m is None:
        m = t.max_index
    if m > t.max_index:
        raise ValueError("m exceeds the table size")
    a_vals = [poly.evaluate(n_value) for poly in t.a[: m + 1]]
    return m, a_vals, _power_truncated(a_vals, n_value, m)
