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
repeated series multiplication, which never touches the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import _kernels
from .exact import CoeffLike, IndexPolynomial

# Largest table order a command may ask for: ``--m`` of ``coeffs``,
# ``eval`` and ``compare``, and ``bench --mmax``.  The kernel's time grows
# about as m**5.4 here, to about 10 s at m = 400 on a 2-vCPU machine.
# ``a[k]`` has degree k/2 - 1 in n, so the widest table printed has degree
# 199, far below ``exact.MAX_DEGREE`` = 1000, which a table would reach
# only past k = 2000: every printed table parses back.
MAX_ORDER = 400

# Largest integer index q of the brute-force oracles, checked before any
# work.  Their power takes time about as q**2 * m**4 for a table of order
# m: at q = 10, 0.2 s at m = 140 and 11.5 s at MAX_ORDER, whose table
# took 7.5 s to build (2-vCPU machine).
MAX_ORACLE_INDEX = 10


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
class TruncatedSeries:
    """The ``a`` column of a :class:`CoefficientTable` at a fixed index.

    That column is the truncated series: the coefficients ``a_k`` through
    ``x**max_index``, evaluated by :mod:`lane_emden.evaluation`.
    """

    n_value: Fraction
    max_index: int
    a_values: tuple[Fraction, ...]

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
    if m < 0:
        raise ValueError("m must be nonnegative")
    a_num, a_den, c_num, c_den = _kernels.lee_series_tables(m)
    a = tuple(map(IndexPolynomial.from_integers, a_num, a_den))
    c = tuple(map(IndexPolynomial.from_integers, c_num, c_den))
    return CoefficientTable(max_index=m, a=a, c=c)


def evaluate_table(t: CoefficientTable, n_value: CoeffLike) -> TruncatedSeries:
    """Evaluate every ``a[k]`` exactly at a rational index value."""
    n_value = Fraction(n_value)
    values = tuple(poly.evaluate(n_value) for poly in t.a)
    return TruncatedSeries(
        n_value=n_value, max_index=t.max_index, a_values=values
    )


def verify_c_by_power(t: CoefficientTable, n_value: int) -> bool:
    """Check the ``c`` table against brute-force series exponentiation.

    For an integer index, ``f^n`` can be computed exactly by multiplying
    the evaluated ``a`` series by itself ``n`` times with truncation; this
    is independent of the recurrence that produced ``c``.  The products
    run on integers over one common denominator.
    """
    _, power = _evaluated_power(t, n_value, "brute-force power check")
    return power == [poly.evaluate(n_value) for poly in t.c]


def _evaluated_power(
    t: CoefficientTable, n_value: int, check: str
) -> tuple[tuple[Fraction, ...], list[Fraction]]:
    """``a[0..max_index]`` at ``n_value``, and ``f**n_value``.

    ``f**n_value`` is the brute-force power of the evaluated series,
    truncated after ``x**max_index`` and independent of the recurrence.
    ``check`` names the caller in the error for a bad index.
    """
    if not isinstance(n_value, int) or not 0 <= n_value <= MAX_ORACLE_INDEX:
        raise ValueError(
            f"{check} needs an integer index from 0 to {MAX_ORACLE_INDEX}"
        )
    a_vals = evaluate_table(t, n_value).a_values
    return a_vals, _power_truncated(a_vals, n_value, t.max_index)


def _power_truncated(b: Sequence[CoeffLike], q: int, m: int) -> list[Fraction]:
    """Coefficients of ``(sum b_l x^l) ** q`` through ``x**m``, exactly.

    The ``b`` are cleared to integers over one denominator ``D``, the base
    is multiplied in ``q`` times on dense int lists truncated at ``x**m``,
    and each coefficient is divided by ``D**q`` once at the end.
    """
    base = IndexPolynomial(b[: m + 1])
    nums = base.nums
    power = [1] + [0] * m
    for _ in range(q):
        out = [0] * (m + 1)
        for i, pi in enumerate(power):
            if pi:
                for j, bj in enumerate(nums[: m + 1 - i]):
                    if bj:
                        out[i + j] += pi * bj
        power = out
    scale = base.den**q
    return [Fraction(p, scale) for p in power]
