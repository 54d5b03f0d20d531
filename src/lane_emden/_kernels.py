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

The recurrence keeps each ``c_k`` in Newton (falling-factorial) form, which
the forward differences of its node values give, and evaluates it at a new
node by nested multiplication.  Both changes of basis are integer
unitriangular matrices (Stirling numbers), so the Newton coefficients have
the gcd of the monomial ones: ``c_k`` is reduced in Newton form, and only
the returned tables are converted to monomials.

Each step's work at a node is its own, so the nodes are split between
processes by a stride: one process takes every node in process, two take
the even and the odd ones.  Each extends the ``c_j`` to its new nodes and
sums its pairs there; at each step the two exchange their sums, and both
run the difference pass.  The process that owns node ``k/2`` converts
``c_k`` to monomials, in the step its partner spends on the new node.

:func:`_fork` is the package's one way to make a worker, which the float
CSVs' formatting workers (``cli._write_floats``) share: a forked process on
two pipes, which carry messages of :func:`_send` and :func:`_recv`, until
:func:`_reap` ends it.

:func:`_horner` is the Horner loop of the float seed, the float and exact
series evaluations and the brute-force oracles; the loop of
``IndexPolynomial.evaluate`` at ``n = p/q``, homogenized in ``q``, is faster.
"""

from __future__ import annotations

import os
import sys
from math import lcm
from operator import add, mul, sub

from .exact import _reduce

# Smallest order whose steps run on two processes (lee_series_tables): below
# it the fork and the exchanges cost more than the halved node work saves.
FORK_ORDER = 100


def _horner(nums, x):
    """``sum(nums[j] * x**j)`` by Horner's rule, in the type of ``x``.

    The first ``0 * x`` is ``0.0 * x`` for a float ``x``, or each element's.
    """
    acc = 0
    for v in reversed(nums):
        acc = acc * x + v
    return acc


def _newton(values):
    """Newton coefficients of the polynomial through ``(x, values[x])``.

    ``values`` are an integer polynomial's values at ``x = 0, 1, ..., d``,
    its degree at most ``d``.  With ``D^j p(0)`` the ``j``-th forward
    difference at 0, ``p(x) = sum_j N_j * x*(x - 1)*...*(x - j + 1)`` with
    ``N_j = D^j p(0) / j!``; those are integers, so each division is exact.
    Trailing zero coefficients are kept.
    """
    newton = [values[0]]
    diffs = values
    fact = 1
    for j in range(1, len(values)):
        diffs = list(map(sub, diffs[1:], diffs[:-1]))
        fact *= j
        newton.append(diffs[0] // fact)
    return newton


def _monomial(newton):
    """The integer coefficients of ``n**j`` of the Newton form ``newton``,
    by nested multiplication by ``x - j``; trailing zeros are kept."""
    poly = [newton[-1]]
    for j in range(len(newton) - 2, -1, -1):
        # poly * (x - j) + newton[j]
        poly = list(map(sub, [0] + poly, [j * v for v in poly] + [0]))
        poly[0] += newton[j]
    return poly


def _newton_horner(newton, x):
    """The Newton form ``newton`` at ``x``, by nested multiplication."""
    acc = 0
    y = x - len(newton)
    for v in reversed(newton):
        # newton[j] is added after the product with y = x - j
        y += 1
        acc = acc * y + v
    return acc


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 off Linux."""
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else 1


def _fork_cpus() -> int:
    """How many processes may share a piece of work: the usable CPUs, or 1
    where another thread runs.

    fork copies only the calling thread, and a lock another thread holds
    stays locked in the child, so only a single thread forks.
    """
    cpus = _usable_cpus()
    if cpus >= 2:
        import threading

        if threading.active_count() > 1:
            return 1
    return cpus


def _fork(work, room: int = 0):
    """Fork a worker that runs ``work(recv, send)`` on the ends of two new
    pipes, then exits; returns ``(pid, recv, send)``, this process's ends.

    Given ``room``, both pipes are first enlarged to hold that many bytes.
    Where they cannot be, or the fork fails, every end is closed, nothing
    is forked and ``None`` is returned.
    """
    down_r, down_w, up_r, up_w = fds = os.pipe() + os.pipe()
    try:
        if room and not (_enlarge(down_w, room) and _enlarge(up_r, room)):
            raise OSError("the pipes cannot hold room")
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:  # the worker
        try:
            os.close(down_w)
            os.close(up_r)
            work(down_r, up_w)
            os._exit(0)
        finally:
            os._exit(1)
    # the worker holds the only other ends now: should it die, a send to
    # it raises BrokenPipeError and a receive EOFError
    os.close(down_r)
    os.close(up_w)
    return pid, up_r, down_w


def _enlarge(fd: int, size: int) -> bool:
    """Whether the pipe of ``fd`` now holds at least ``size`` bytes."""
    import fcntl

    resize = getattr(fcntl, "F_SETPIPE_SZ", None)  # Linux only
    try:
        return resize is not None and fcntl.fcntl(fd, resize, size) >= size
    except OSError:  # past fs.pipe-max-size, or the user's pipe quota
        return False


def _send(fd: int, obj) -> None:
    """Write ``obj`` to ``fd`` as one message: its pickle's length in 8
    bytes, then the pickle."""
    import pickle

    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    data = memoryview(len(data).to_bytes(8, "little") + data)
    while data:
        data = data[os.write(fd, data):]


def _recv(fd: int):
    """The next message on ``fd``; ``EOFError`` where the pipe ends first.

    It is read unbuffered and no further than its end, so whether another
    message has begun is a ``poll`` of ``fd``.
    """
    import pickle

    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _read(fd: int, size: int) -> bytearray:
    """``size`` bytes read from ``fd``; ``EOFError`` where it ends first."""
    data = bytearray(size)
    view = memoryview(data)
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError("a worker process ended before its message")
        view = view[got:]
    return data


def _reap(pid: int, *fds: int) -> None:
    """Close this process's ``fds``, then kill the worker ``pid`` and wait
    for it."""
    import signal

    for fd in fds:
        os.close(fd)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def lee_series_tables(m: int):
    """Coefficient tables ``a_k(n)`` and ``c_k(n)`` through index ``m``.

    Returns ``(a_num, a_den, c_num, c_den)`` where ``a_num[k]`` lists the
    integer coefficients of ``n**j`` for ``a_k`` and ``a_den[k]`` is the
    positive common denominator (and likewise for ``c``).  Odd indices are
    stored as explicit zeros.  From ``FORK_ORDER`` up, with two CPUs and
    no other thread, the steps run on two processes (:func:`_forked_steps`);
    should the worker die, they run again in this one.
    """
    steps = None
    if m >= FORK_ORDER and _fork_cpus() >= 2:
        steps = _forked_steps(m)
    converted, c_den = steps or _steps(m, 0, 1, None)
    c_num = [converted.get(k, [0]) for k in range(m + 1)]
    a_num, a_den = [[1]], [1]
    for k in range(1, m + 1):
        nums, den = [0], 1
        if k % 2 == 0:
            nums = [-v for v in c_num[k - 2]]
            nums, den = _reduce(nums, c_den[k - 2] * (k * k + k))
        a_num.append(nums)
        a_den.append(den)
    return a_num, a_den, c_num, c_den[:m + 1]


def _steps(m: int, r: int, stride: int, swap):
    """The recurrence's steps through index ``m``, at the nodes
    ``x = r (mod stride)``.

    Returns ``(c_num, c_den)``: ``c_den`` lists every ``c_k``'s
    denominator, and ``c_num`` maps ``k`` to the monomial coefficients of
    each even ``c_k`` whose node ``k/2`` this process owns.  With
    ``stride`` 2, ``swap(sums)`` hands the other process this one's sums
    at its nodes and returns the other's.
    """
    c_den = [1, 1]
    newton = {0: [1]}  # the Newton coefficients of each even C_k
    c_num = {0: [1]} if r == 0 else {}
    # c_val[j] lists C_j(x) at this process's nodes x <= k/2 of the step
    c_val = {0: [1] if r == 0 else []}
    for k in range(2, m + 1):
        if k % 2:
            c_den.append(1)
            continue

        # the node k/2 is new at this step
        new = k // 2
        nodes = new + 1
        own = new % stride == r
        if own:
            for j, vals in c_val.items():
                vals.append(_newton_horner(newton[j], new))

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

        xs = range(r, nodes, stride)
        total = [0] * len(xs)
        for i, j, w0, w1, den_p in pairs:
            # the minus sign of a_l = -c_{l-2} / (l^2 + l)
            s = -(common // den_p)
            w = [s * (w0 + w1 * x) for x in xs]
            prods = map(mul, c_val[i], c_val[j])
            total = list(map(add, total, map(mul, prods, w)))

        values = total
        if stride == 2:
            values = [0] * nodes
            values[r::2], values[1 - r::2] = total, swap(total)
        # The Newton coefficients' gcd is the monomial ones': each form is
        # an integer unitriangular transform of the other.
        nums, den = _reduce(_newton(values), common * k)
        c_den.append(den)
        newton[k] = nums
        g = common * k // den
        c_val[k] = [v // g for v in total]
        if own:
            c_num[k] = _monomial(nums)

    return c_num, c_den


def _forked_steps(m: int):
    """:func:`_steps` on two processes: this one takes the even nodes, and
    a worker (:func:`_fork`) the odd ones.

    At each step the two exchange their sums, this process sending first
    and the worker receiving first, so that no pipe size can hold them
    both waiting; the worker sends its monomial ``c_k`` at the end.
    Returns ``None`` where the fork fails or the worker dies.
    """
    def work(recv, send):
        def swap(sums):
            theirs = _recv(recv)
            _send(send, sums)
            return theirs

        _send(send, _steps(m, 1, 2, swap)[0])

    worker = _fork(work)
    if worker is None:
        return None
    pid, recv, send = worker

    def swap(sums):
        _send(send, sums)
        return _recv(recv)

    try:
        c_num, c_den = _steps(m, 0, 2, swap)
        c_num.update(_recv(recv))
        return c_num, c_den
    except (BrokenPipeError, EOFError):
        return None  # the worker died
    finally:
        _reap(pid, recv, send)


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
