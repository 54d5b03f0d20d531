"""Plain ``Fraction`` series routines that the tests use as references.

Neither is used by the package: :func:`mul_truncated` is the schoolbook
truncated product that the brute-force power, the polynomial product and
the polynomial powers are checked against, and :func:`miller_power` is
the J.C.P. Miller power recurrence for an arbitrary numeric base series,
which builds the coefficients one order at a time without the symbolic
kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from lane_emden.exact import CoeffLike

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
