# cython: language_level=3
# cython: boundscheck=False
# cython: wraparound=False
"""Compiled twin of the stepping kernel in ``lane_emden._kernels``.

``midpoint_steps`` performs the identical double-precision operations in
the identical order (the extension is built with FP contraction off).  The
series kernel's work is bigint multiplication either way, so this module
re-exports the pure one and ``_backend.kernels`` has the same contract on
both backends.
"""

from libc.math cimport floor, pow

from lane_emden._kernels import lee_series_tables


def midpoint_steps(double n, double dx, double xmax, list xs, list Fs, list Hs):
    """See ``lane_emden._kernels.midpoint_steps``."""
    cdef double x = xs[len(xs) - 1]
    cdef double F = Fs[len(Fs) - 1]
    cdef double H = Hs[len(Hs) - 1]
    cdef double F_half, H_half, F_next, H_next, x_half
    cdef bint integer_n = n == floor(n)
    while True:
        if x + dx > xmax:
            return False, 0.0, 0.0
        F_half = F + 0.5 * dx * H
        H_half = H + 0.5 * dx * (-pow(F, n) - (2.0 / x) * H)
        F_next = F + dx * H_half
        x_half = x + 0.5 * dx
        if not integer_n and F_half <= 0.0:
            if F_next < 0.0:
                return True, x + dx, F_next
            return True, x_half, F_half
        H_next = H + dx * (-pow(F_half, n) - (2.0 / x_half) * H_half)
        if F_next < 0.0:
            return True, x + dx, F_next
        x = x + dx
        F = F_next
        H = H_next
        xs.append(x)
        Fs.append(F)
        Hs.append(H)
