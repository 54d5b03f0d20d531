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
``a_k`` and ``c_k`` as exact polynomials in the index ``n``, and
:func:`verify_c_by_power` cross-checks the ``c`` table against brute-force
repeated series multiplication, which never touches the recurrence.  That
power runs on ints, once per table and index, for it and the residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import _kernels
from .exact import CoeffLike, IndexPolynomial

# Largest table order, checked by ``compute_coefficients`` and by the
# types of every ``--m`` and ``bench --mmax``.  The kernel's time grows
# about as m**5.4 here, to about 10 s at m = 400 on a 2-vCPU machine.
# ``a[k]`` has degree k/2 - 1 in n, so the widest table printed has degree
# 199, far below ``exact.MAX_DEGREE`` = 1000, which a table would reach
# only past k = 2000: every printed table parses back.
MAX_ORDER = 400

# Largest integer index q of the brute-force oracles, checked before any
# work.  Their power takes time about as q**2 * m**4 for a table of order
# m: at q = 10, 0.16 s at m = 140 and 18 s at MAX_ORDER, whose table
# took 10 s to build (2-vCPU machine).
MAX_ORACLE_INDEX = 10


@dataclass(frozen=True)
class CoefficientTable:
    """Symbolic coefficients ``a[k]``, ``c[k]`` for all ``k <= max_index``.

    Odd indices hold explicit zero polynomials so the recurrence indexing
    needs no parity bookkeeping.
    """

    a: tuple[IndexPolynomial, ...]
    c: tuple[IndexPolynomial, ...]
    # _evaluated_power's results by index; a new table starts empty
    _powers: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def max_index(self) -> int:
        """The highest index ``m``, read off the ``a`` column."""
        return len(self.a) - 1


@dataclass(frozen=True)
class TruncatedSeries:
    """The ``a`` column of a :class:`CoefficientTable` at a fixed index.

    That column is the truncated series: the coefficients ``a_k`` through
    ``x**max_index``, evaluated by :mod:`lane_emden.evaluation`.
    """

    n_value: Fraction
    a_values: tuple[Fraction, ...]

    @property
    def max_index(self) -> int:
        """The highest index ``m``, read off ``a_values``."""
        return len(self.a_values) - 1

    @cached_property
    def even_floats(self) -> tuple[float, ...]:
        """``a_0, a_2, a_4, ...`` each rounded once to a float."""
        return tuple(float(c) for c in self.a_values[::2])


def compute_coefficients(m: int) -> CoefficientTable:
    """Compute the coefficient tables through index ``m`` exactly.

    Odd indices are set to zero without evaluating the sum; even entries
    come from the recurrence run in denominator-cleared integer form by
    ``_kernels.lee_series_tables``, whose reduced integer lists and
    denominators are the form :class:`IndexPolynomial` stores.
    """
    if not 0 <= m <= MAX_ORDER:
        raise ValueError(f"m: must be between 0 and {MAX_ORDER}")
    a_num, a_den, c_num, c_den = _kernels.lee_series_tables(m)
    a = tuple(map(IndexPolynomial.from_integers, a_num, a_den))
    c = tuple(map(IndexPolynomial.from_integers, c_num, c_den))
    return CoefficientTable(a=a, c=c)


def evaluate_table(t: CoefficientTable, n_value: CoeffLike) -> TruncatedSeries:
    """Evaluate every ``a[k]`` exactly at a rational index value."""
    n_value = Fraction(n_value)
    values = tuple(poly.evaluate(n_value) for poly in t.a)
    return TruncatedSeries(n_value=n_value, a_values=values)


def verify_c_by_power(t: CoefficientTable, n_value: int) -> bool:
    """Check the ``c`` table against brute-force series exponentiation.

    For an integer index, ``f^n`` can be computed exactly by multiplying
    the evaluated ``a`` series by itself ``n`` times with truncation; this
    is independent of the recurrence that produced ``c``.  Each ``c[k]``
    is compared with the power by cross-multiplying integers.
    """
    _, den, power = _evaluated_power(t, n_value, "brute-force power check")
    scale = den**n_value
    return len(t.c) == len(power) and all(
        _kernels._horner(c.nums, n_value) * scale == p * c.den
        for c, p in zip(t.c, power)
    )


def _evaluated_power(
    t: CoefficientTable, n_value: int, check: str
) -> tuple[list[int], int, list[int]]:
    """``(nums, den, power)``: the ``a[k]`` and ``f**n_value`` at ``n_value``.

    ``a[k]`` is ``nums[k] / den`` over their least common denominator, and
    the truncated brute-force power is ``power[k] / den**n_value``; both
    are kept on the table.  ``check`` names the caller in the index error.
    """
    if not isinstance(n_value, int) or not 0 <= n_value <= MAX_ORACLE_INDEX:
        raise ValueError(
            f"{check} needs an integer index from 0 to {MAX_ORACLE_INDEX}"
        )
    memo = t._powers
    if n_value not in memo:
        den = lcm(*[poly.den for poly in t.a])
        nums = [_kernels._horner(poly.nums, n_value) * (den // poly.den)
                for poly in t.a]
        # the values' own common denominator keeps the products small
        g = gcd(den, *nums)
        nums = [v // g for v in nums]
        den //= g
        memo[n_value] = nums, den, _power_truncated(nums, n_value, t.max_index)
    return memo[n_value]


def _power_truncated(b: list[int], q: int, m: int) -> list[int]:
    """``(sum b_l x^l) ** q`` through ``x**m``, on dense lists of ints."""
    power = [1] + [0] * m
    for _ in range(q):
        out = [0] * (m + 1)
        for i, pi in enumerate(power):
            if pi:
                for j, bj in enumerate(b[: m + 1 - i]):
                    if bj:
                        out[i + j] += pi * bj
        power = out
    return power
