"""Pure-Python kernels: the series recurrence and the midpoint stepping loop.

The series kernel keeps each coefficient polynomial in denominator-cleared
form, ``a_k(n) = A_k(n) / d_k`` with ``A_k`` an integer coefficient list and
``d_k`` a positive integer coprime to the content of ``A_k``.  That reduced
form, made by ``exact._reduce``, is canonical and is the one
``IndexPolynomial`` stores; it avoids per-term fraction normalization
inside the recurrence

    a_k = -c_{k-2} / (k^2 + k)
    c_k = (1/k) * sum_{l=1..k} (l*(n + 1) - k) * a_l * c_{k-l}

where the sum only needs the even ``l`` because odd-index coefficients
vanish.  Substituting the first line into the second,

    c_k = -(1/k) * sum_{i+j=k-2} (l*(n + 1) - k) / (l^2 + l) * c_i * c_j

with ``l = i + 2``, so the terms for ``(i, j)`` and ``(j, i)`` share the
product ``c_i * c_j``.  At step ``k`` the sum is a polynomial of degree
``k/2``: the kernel multiplies the ``c_i * c_j`` pairs as integers at the
nodes ``n = 0, 1, ..., k/2`` and interpolates ``c_k`` back from those
values, instead of multiplying the polynomials coefficient by coefficient.

:func:`_horner` is the Horner loop of the kernel, the float seed, the float
and exact series evaluations and the brute-force oracles; the loop of
``IndexPolynomial.evaluate`` at ``n = p/q``, homogenized in ``q``, is faster.
"""

from __future__ import annotations

import sys
from math import lcm
from operator import add, mul, sub

from .exact import _reduce


def _horner(nums, x):
    """``sum(nums[j] * x**j)`` by Horner's rule, in the type of ``x``.

    The first ``0 * x`` is ``0.0 * x`` for a float ``x``, or each element's.
    """
    acc = 0
    for v in reversed(nums):
        acc = acc * x + v
    return acc


def _interpolate(values):
    """Integer coefficients of the polynomial through ``(x, values[x])``.

    ``values`` are an integer polynomial's values at ``x = 0, 1, ..., d``,
    its degree at most ``d``.  With ``D^j p(0)`` the ``j``-th forward
    difference at 0, the Newton form is
    ``sum_j (D^j p(0) / j!) * x*(x - 1)*...*(x - j + 1)``; its coefficients
    are integers, so each division is exact, and nested multiplication by
    ``x - j`` turns it into monomial form.  Trailing zero coefficients are
    kept.
    """
    newton = [values[0]]
    diffs = values
    fact = 1
    for j in range(1, len(values)):
        diffs = list(map(sub, diffs[1:], diffs[:-1]))
        fact *= j
        newton.append(diffs[0] // fact)
    poly = [newton[-1]]
    for j in range(len(values) - 2, -1, -1):
        # poly * (x - j) + newton[j]
        poly = list(map(sub, [0] + poly, [j * v for v in poly] + [0]))
        poly[0] += newton[j]
    return poly


def lee_series_tables(m: int):
    """Coefficient tables ``a_k(n)`` and ``c_k(n)`` through index ``m``.

    Returns ``(a_num, a_den, c_num, c_den)`` where ``a_num[k]`` lists the
    integer coefficients of ``n**j`` for ``a_k`` and ``a_den[k]`` is the
    positive common denominator (and likewise for ``c``).  Odd indices are
    stored as explicit zeros.
    """
    a_num = [[1], [0]]
    a_den = [1, 1]
    c_num = [[1], [0]]
    c_den = [1, 1]
    # c_val[j][x] = C_j(x) at the nodes x = 0, 1, ..., k/2 of the step
    c_val = {0: [1]}
    for k in range(2, m + 1):
        if k % 2:
            a_num.append([0])
            a_den.append(1)
            c_num.append([0])
            c_den.append(1)
            continue

        # the node k/2 is new at this step
        nodes = k // 2 + 1
        for j, vals in c_val.items():
            vals.append(_horner(c_num[j], k // 2))

        nums = [-v for v in c_num[k - 2]]
        nums, den = _reduce(nums, c_den[k - 2] * (k * k + k))
        a_num.append(nums)
        a_den.append(den)

        # One term per pair i <= j, i + j = k - 2, weighted by the linear
        # (w0 + w1*n) / den_p that sums the bracket of l = i + 2 and, when
        # j != i, of l = j + 2.
        pairs = []
        common = 1
        for i in range(0, nodes - 1, 2):
            j = k - 2 - i
            p = (i + 2) * (i + 3)
            q = (j + 2) * (j + 3)
            w0 = (i + 2 - k) * q
            w1 = (i + 2) * q
            if i != j:
                w0 += (j + 2 - k) * p
                w1 += (j + 2) * p
            den_p = c_den[i] * c_den[j] * p * q
            pairs.append((i, j, w0, w1, den_p))
            common = lcm(common, den_p)

        total = [0] * nodes
        for i, j, w0, w1, den_p in pairs:
            # the minus sign of a_l = -c_{l-2} / (l^2 + l)
            s = -(common // den_p)
            w = [s * (w0 + w1 * x) for x in range(nodes)]
            prods = map(mul, c_val[i], c_val[j])
            total = list(map(add, total, map(mul, prods, w)))

        nums, den = _reduce(_interpolate(total), common * k)
        c_num.append(nums)
        c_den.append(den)
        g = common * k // den
        c_val[k] = [v // g for v in total]

    end = m + 1
    return a_num[:end], a_den[:end], c_num[:end], c_den[:end]


def midpoint_steps(n: float, dx: float, xmax: float, xs, Fs, Hs,
                   pause: int = sys.maxsize):
    """Advance the midpoint grid in place from the last stored sample.

    Appends to ``xs``/``Fs``/``Hs`` until the solution would cross zero or
    the next grid point would pass ``xmax``.  Returns ``(crossed, x_stop,
    f_stop)``: when ``crossed`` is true, ``(x_stop, f_stop)`` is the
    rejected nonpositive sample (never appended) for zero interpolation;
    otherwise both are ``0.0`` and meaningless.

    Returns ``None`` instead, paused, once ``len(xs)`` reaches ``pause``.
    The step reads nothing but the last stored sample, so a call that
    resumes a paused grid continues it bit for bit as if it had never
    paused.

    One step from the sample ``(x, F, H)``:

        F_half = F + dx/2 * H
        H_half = H + dx/2 * (-F**n - (2/x) * H)
        F_next = F + dx * H_half
        H_next = H + dx * (-F_half**n - (2/(x + dx/2)) * H_half)

    Note the full-step slope uses the half-step predictor ``F_half`` inside
    the power term but the stored ``F`` when building the predictors; this
    asymmetric variant is kept as-is rather than normalized to a textbook
    two-stage scheme.  For non-integer ``n`` a nonpositive ``F_half`` would
    make the power undefined, so the loop terminates just before that.
    """
    # 0.5 * dx * H is (0.5 * dx) * H: hoisting h changes no bit
    h = 0.5 * dx
    integer_n = n == int(n)
    x_append, F_append, H_append = xs.append, Fs.append, Hs.append
    x = xs[-1]
    F = Fs[-1]
    H = Hs[-1]
    for _ in range(pause - len(xs)):
        x_next = x + dx
        if x_next > xmax:
            return False, 0.0, 0.0
        F_half = F + h * H
        H_half = H + h * (-(F**n) - (2.0 / x) * H)
        F_next = F + dx * H_half
        x_half = x + h
        if not integer_n and F_half <= 0.0:
            if F_next < 0.0:
                return True, x_next, F_next
            return True, x_half, F_half
        H_next = H + dx * (-(F_half**n) - (2.0 / x_half) * H_half)
        if F_next < 0.0:
            return True, x_next, F_next
        x = x_next
        F = F_next
        H = H_next
        x_append(x)
        F_append(F)
        H_append(H)
    return None
