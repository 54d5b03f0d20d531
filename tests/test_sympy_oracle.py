"""The series coefficients by the paper's own method, in SymPy.

The paper finds each ``a_k`` by substituting the truncated series into
the equation, expanding ``f**n`` as a series in ``x`` and solving the
lowest new power for the one unknown coefficient.  SymPy does that here
without the recurrence, and its polynomials in ``n`` must equal the
table of :func:`~lane_emden.compute_coefficients` exactly.
"""

from fractions import Fraction

import pytest

from lane_emden import compute_coefficients

sympy = pytest.importorskip("sympy")

ORDER = 12


def sympy_coefficients(order):
    """``a_0, a_2, ..., a_order`` as SymPy expressions in ``n``."""
    x, n, a_k = sympy.symbols("x n a_k")
    evens = [sympy.Integer(1)]  # f(0) = 1
    for k in range(2, order + 1, 2):
        f = sum(a * x**(2 * j) for j, a in enumerate(evens)) + a_k * x**k
        # (1 + (f - 1))**n expanded about x = 0 through x**(k - 2)
        power = sympy.series((1 + (f - 1))**n, x, 0, k - 1).removeO()
        lhs = sympy.diff(f, x, 2) + 2 * sympy.diff(f, x) / x + power
        lowest_new = sympy.expand(lhs).coeff(x, k - 2)
        (solution,) = sympy.solve(lowest_new, a_k)
        evens.append(sympy.factor(solution))
    return evens, n


def test_coefficients_match_sympy_substitution():
    evens, n = sympy_coefficients(ORDER)
    table = compute_coefficients(ORDER)
    for j, expr in enumerate(evens):
        want = [
            Fraction(int(c.p), int(c.q))
            for c in reversed(sympy.Poly(expr, n).all_coeffs())
        ]
        got = list(table.a[2 * j].coefficients)
        assert got == want, f"a_{2 * j}: {got} != {want}"
