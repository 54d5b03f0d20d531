"""Command-line interface: coefficient files, tables, CSV data, timings.

Subcommands
-----------
coeffs      write the symbolic coefficients to a file (``000;1`` format or CSV)
eval        print the coefficients for a fixed rational index as fractions
integrate   run the midpoint integrator and write an x,F,H CSV
compare     series vs. numeric solution on the integration grid (CSV)
bench       time the coefficient engine for growing table sizes (CSV)

Exit codes: 0 on success, 2 for usage errors, 1 for I/O errors.  All CSV
output uses a header row, ``\\n`` line endings, a ``.`` decimal separator,
and floats at 17 significant digits (round-trip precision).  The rows of
the float CSVs of ``integrate`` and ``compare`` take one path, a chunk at a
time: forked workers on the CPUs the process may use format them, while
``integrate``'s grid is still stepped on one CPU left to it.  With one CPU,
a single chunk, no ``fork`` or another thread running, each chunk is
formatted in the process itself, to the same bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .evaluation import eval_series_float
from .integrate import (
    IntegratorConfig,
    SeedDivergenceError,
    _midpoint_run,
    solve_midpoint,
)
from .series import MAX_ORDER, compute_coefficients, evaluate_table

USAGE_ERROR = 2
IO_ERROR = 1

# Rows of a float CSV formatted, joined and written at a time.  Larger
# chunks gain little speed and raise peak memory: each holds its columns
# as Python floats and its joined text at once.  A float CSV's header and
# summary lines are written apart from its chunks of rows.
CHUNK_ROWS = 4096

# Most repetitions ``bench --reps`` may ask for: one at ``MAX_ORDER``
# takes about 10 s, and the best of a few already drops scheduler noise.
MAX_REPS = 100


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def cmd_coeffs(m: int, out_path: str, fmt: str = "paper") -> None:
    """Write the even-index symbolic coefficients to ``out_path``.

    ``paper`` format: one line per even index, ``%03d;%s`` (e.g. ``004;n/120``).
    ``csv`` format: header ``k,expression`` and unpadded indices.
    """
    table = compute_coefficients(m)
    lines = []
    if fmt == "csv":
        lines.append("k,expression")
    for k in range(0, m + 1, 2):
        expr = str(table.a[k])
        if fmt == "csv":
            lines.append(f"{k},{expr}")
        else:
            lines.append(f"{k:03d};{expr}")
    _write_lines(out_path, lines)


def cmd_eval(n_value: Fraction, m: int, out_path: Optional[str] = None) -> str:
    """Exact coefficient values ``a[k] = p/q`` for a fixed index."""
    table = compute_coefficients(m)
    ev = evaluate_table(table, n_value)
    lines = [f"a[{k}] = {ev.a_values[k]}" for k in range(0, m + 1, 2)]
    if out_path is not None:
        _write_lines(out_path, lines)
    return "\n".join(lines) + "\n"


def cmd_integrate(n: float, cfg: IntegratorConfig, out_path: str) -> None:
    """Integrate and write ``x,F,H`` rows plus a first-zero summary line.

    The rows are formatted and written while the grid is still being
    stepped.
    """
    run = _midpoint_run(n, cfg, CHUNK_ROWS)
    # seeds the grid, so that its errors come before --out is opened
    columns = next(run)
    summary = []

    def stepping():
        result = yield from run
        zero = "none" if result.first_zero is None else _fmt(result.first_zero)
        summary.append(f"# first_zero={zero}")

    _write_floats(out_path, "x,F,H", columns, stepping(), summary)


def cmd_compare(
    n: float, m: int, cfg: IntegratorConfig, out_path: str
) -> None:
    """Series vs. numeric solution over the integration grid (CSV)."""
    # numpy is imported at first use: compare is the one command to load it
    import numpy as np

    series = evaluate_table(compute_coefficients(m), Fraction(n))
    # Rounded before the run, so that an --n whose a_k(n) passes the float
    # range is reported as such and not as a seed too coarse for --dx.
    series.even_floats
    result = solve_midpoint(n, cfg)
    sv = eval_series_float(series, result.xs)
    columns = (result.xs, sv, result.Fs, np.abs(sv - result.Fs))
    _write_floats(out_path, "x,series,numeric,abs_err", columns)


def run_bench(m_max: int, step: int, reps: int) -> list[tuple[int, float]]:
    """Best-of-``reps`` wall-clock timing of the coefficient engine.

    Returns ``(m, seconds)`` pairs.  The minimum over repetitions
    suppresses scheduler noise; runs are strictly sequential so timings
    are not perturbed by each other.
    """
    return [
        (m, min(_time_once(m) for _ in range(reps)))
        for m in range(step, m_max + 1, step)
    ]


def _time_once(m: int) -> float:
    start = time.perf_counter()
    compute_coefficients(m)
    return time.perf_counter() - start


def cmd_bench(m_max: int, step: int, reps: int, out_path: str) -> None:
    lines = ["m,seconds"]
    for m, seconds in run_bench(m_max, step, reps):
        lines.append(f"{m},{_fmt(seconds)}")
    _write_lines(out_path, lines)


def _write_lines(out_path: str, lines: list[str]) -> None:
    """Write each of the (one or more) ``lines`` ending in ``\\n``.

    The lines are those of a coefficient or timing table, at most 201 of
    them, so they are joined and written at once.
    """
    with open(out_path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_floats(
    out_path: str,
    head: str,
    columns: Sequence[Sequence[float]],
    stepping=(),
    tail: Sequence[str] = (),
) -> None:
    """Write ``head``, one ``.17g`` row per element of ``columns``, ``tail``.

    ``columns`` are equal-length float64 buffers (``array("d")`` or
    ndarray), and a row holds the text :func:`_fmt` gives for each of its
    fields.  Each item of ``stepping`` means that rows were appended to
    the columns; ``tail`` is read once ``stepping`` is exhausted.  The
    rows are written by :class:`_Workers`.
    """
    with open(out_path, "wb") as fh, _Workers(fh, columns) as workers:
        fh.write(f"{head}\n".encode("ascii"))
        for _ in stepping:
            workers.write(done=False)
        workers.write(done=True)
        fh.write("".join(f"{line}\n" for line in tail).encode("ascii"))


def _chunk_text(fields: list[memoryview]) -> bytes:
    """The ASCII CSV rows, each ending in ``\\n``, of the float64 ``fields``."""
    row = ",".join(["{:.17g}"] * len(fields)) + "\n"
    columns = [view.tolist() for view in fields]
    return "".join(map(row.format, *columns)).encode("ascii")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _fork_is_safe() -> bool:
    """Whether formatting workers may be forked from this process."""
    import multiprocessing
    import threading

    # fork copies only the calling thread, and a lock another thread
    # holds stays locked in the child, so only a single thread forks
    return (threading.active_count() == 1
            and "fork" in multiprocessing.get_all_start_methods())


class _Workers:
    """Writes the rows of ``columns`` to ``out``, ``CHUNK_ROWS`` at a time.

    Each :meth:`write` writes the chunks that are ready, in order.  Whether
    to fork formatting workers is decided once, when a second chunk is
    ready or the columns are complete; chunk 0 waits for that.  With ``k``
    usable CPUs, ``k - 1`` workers run while the columns grow, leaving a
    CPU to the stepping, and up to ``k`` once they are complete; none
    starts without a chunk to format.  With one usable CPU, a single chunk,
    no ``fork``, or another thread running, each ready chunk is formatted
    in this process on the same call.

    A worker is sent the float64 bytes of one chunk at a time, one message
    a column and read straight from the columns, and gets the next as soon
    as it hands back its text, so a worker that the host runs slower takes
    fewer chunks instead of holding up the others.  Every text is received
    into one buffer: the text due next is written from it at once, and one
    that arrives early is copied out to wait.  The workers are stopped and
    joined when the ``with`` block exits, however it exits.
    """

    def __init__(self, out, columns: Sequence[Sequence[float]]):
        self.out = out
        self.columns = columns
        self.cpus = _usable_cpus()
        # decided on the first write with two chunks or complete columns
        self.forking = None if self.cpus >= 2 else False
        self.written = 0  # chunks written so far, in order
        self.sent = 0  # chunks sent so far, in order
        self.procs, self.conns = [], []
        self.held = {}  # worker connection -> the chunk number it formats
        self.texts = {}  # chunk number -> its text, until it is written
        # every text is received into this buffer, large enough for any: a
        # .17g field takes at most 24 characters and a comma or newline
        self.buf = bytearray(CHUNK_ROWS * len(columns) * 25)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join()
        for conn in self.conns:
            conn.close()

    def write(self, done: bool) -> None:
        """Write the chunks ready so far; ``done`` once the columns are complete.

        A chunk is ready once its last row exists, or once ``done``.  Without
        ``done``, texts the workers have not sent back wait for a later call.
        """
        rows = len(self.columns[0])
        ready = -(-rows // CHUNK_ROWS) if done else rows // CHUNK_ROWS
        if self.forking is None and (done or ready >= 2):
            self.forking = ready >= 2 and _fork_is_safe()
        if self.forking:
            # k - 1 workers, then k, and none without a chunk to format
            unsent = ready - self.sent
            self._fork(min(self.cpus - (not done), len(self.held) + unsent))
            self._collect(ready, done)
        elif self.forking is False:
            for chunk in range(self.written, ready):
                self.out.write(_chunk_text(self._fields(chunk)))
            self.written = ready

    def _fields(self, chunk: int) -> list[memoryview]:
        """Views of the rows of chunk number ``chunk``, one a column."""
        # an array("d") cannot grow while a view of it exists: the views
        # are dropped before write returns
        lo = chunk * CHUNK_ROWS
        return [memoryview(col)[lo:lo + CHUNK_ROWS] for col in self.columns]

    def _fork(self, count: int) -> None:
        """Start workers until ``count`` of them run."""
        # No pool: it would receive the texts on a thread of its own, and
        # that thread's heap kept several MB resident after each run.
        import multiprocessing

        context = multiprocessing.get_context("fork")
        while len(self.procs) < count:
            conn, child_conn = context.Pipe()
            self.conns.append(conn)
            proc = context.Process(
                target=_format_chunks, args=(len(self.columns), child_conn)
            )
            proc.start()
            self.procs.append(proc)
            # the worker holds the only other end now, so should it die,
            # the parent's recv raises EOFError instead of waiting
            child_conn.close()

    def _collect(self, ready: int, block: bool) -> None:
        """Write the workers' texts of the first ``ready`` chunks, in order.

        A worker is sent the next of the first ``ready`` chunks whenever it
        has none, unless that chunk lies ``2 * len(self.conns)`` chunks or
        more past the one to write next: the texts that came back early
        wait here, and the window bounds them.  With ``block`` this waits
        for every chunk before ``ready``; without, it writes only those
        whose texts are back already.
        """
        from multiprocessing.connection import wait

        self._send(ready)
        while self.written < ready:
            if self.held:
                # chunk ``written`` is held when it is not back: every
                # chunk before it has come back, so a worker was free
                for conn in wait(list(self.held), None if block else 0):
                    size = conn.recv_bytes_into(self.buf)
                    if not size:  # the worker failed, and sends its error
                        raise conn.recv()
                    chunk = self.held.pop(conn)
                    text = memoryview(self.buf)[:size]
                    # the next receive overwrites the buffer: the text due
                    # next is written below, and one that must wait is copied
                    self.texts[chunk] = (
                        text if chunk == self.written else bytes(text)
                    )
                    while self.written in self.texts:
                        self.out.write(self.texts.pop(self.written))
                        self.written += 1
            self._send(ready)
            if not block:
                return

    def _send(self, ready: int) -> None:
        window = 2 * len(self.conns)
        for conn in self.conns:
            if (conn not in self.held
                    and self.sent < min(ready, self.written + window)):
                for view in self._fields(self.sent):
                    conn.send_bytes(view)
                self.held[conn] = self.sent
                self.sent += 1


def _format_chunks(width: int, conn) -> None:
    """In a worker: send the text of each chunk it gets, or the error.

    A chunk has at least one row, so an empty message announces the error.
    """
    try:
        while True:
            fields = [memoryview(conn.recv_bytes()).cast("d")
                      for _ in range(width)]
            conn.send_bytes(_chunk_text(fields))
    except Exception as exc:
        conn.send_bytes(b"")
        conn.send(exc)


def _rational(text: str) -> Fraction:
    """Strict rational: ``3`` or ``3/2``; decimal floats are rejected."""
    if any(ch in text for ch in ".eE"):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact rational (use p or p/q, not a float)"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _order(text: str) -> int:
    """Table order (``--m``, ``--mmax``): 0 through ``series.MAX_ORDER``."""
    value = _nonneg_int(text)
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_ORDER}")
    return value


def _reps(text: str) -> int:
    """Bench repetitions (``--reps``): 1 through ``MAX_REPS``."""
    value = int(text)
    if not 1 <= value <= MAX_REPS:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_REPS}")
    return value


def _index(text: str) -> float:
    """Polytropic index of the float commands: finite and >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError("must be finite and >= 0")
    return value


def _positive_float(text: str) -> float:
    """Grid step or integration cap: finite and > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lane-emden",
        description=(
            "Exact power-series coefficients and midpoint integration "
            "for the Lane-Emden equation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="write symbolic coefficients to a file")
    p.add_argument("--m", type=_order, required=True,
                   help="highest coefficient index")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("paper", "csv"), default="paper",
                   help="'paper' = '000;1' index;expression lines, or CSV")

    p = sub.add_parser("eval", help="print coefficients for a fixed index")
    p.add_argument("--n", type=_rational, required=True,
                   help="index as an exact rational, e.g. 3 or 3/2")
    p.add_argument("--m", type=_order, required=True,
                   help="highest coefficient index")
    p.add_argument("--out", help="also write the table to this path")

    p = sub.add_parser("integrate", help="midpoint integration to CSV")
    p.add_argument("--n", type=_index, required=True,
                   help="index (float, finite, >= 0)")
    p.add_argument("--dx", type=_positive_float, required=True,
                   help="grid step")
    p.add_argument("--xmax", type=_positive_float,
                   default=IntegratorConfig.xmax,
                   help="safety cap: for n >= 5 the solution never crosses "
                        "zero, so integration stops at this x "
                        "(default %(default)s)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("compare", help="series vs numeric solution CSV")
    p.add_argument("--n", type=_index, required=True,
                   help="index (float, finite, >= 0)")
    p.add_argument("--m", type=_order, required=True,
                   help="series truncation order")
    p.add_argument("--dx", type=_positive_float, required=True,
                   help="grid step")
    p.add_argument("--xmax", type=_positive_float,
                   default=IntegratorConfig.xmax,
                   help="safety cap for the numeric run (default %(default)s)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("bench", help="time the coefficient engine")
    p.add_argument("--mmax", type=_order, required=True,
                   help="largest table size to time")
    p.add_argument("--step", type=_nonneg_int, default=10,
                   help="table size increment (default 10)")
    p.add_argument("--reps", type=_reps, default=3,
                   help="repetitions per size, minimum is kept (default 3)")
    p.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "coeffs":
            cmd_coeffs(args.m, args.out, args.format)
        elif args.command == "eval":
            try:
                text = cmd_eval(args.n, args.m, args.out)
            except ValueError:
                # str() refused an a[k] past the interpreter's digit limit,
                # which bounds the work; raised before --out is opened
                parser.error("argument --n: an a[k] has more digits "
                             "than can be printed")
            sys.stdout.write(text)
        elif args.command in ("integrate", "compare"):
            try:
                cfg = IntegratorConfig(dx=args.dx, xmax=args.xmax)
            except ValueError as exc:
                parser.error(str(exc))
            try:
                if args.command == "integrate":
                    cmd_integrate(args.n, cfg, args.out)
                else:
                    cmd_compare(args.n, args.m, cfg, args.out)
            except OverflowError:
                # a_k(n) outgrows a float; raised before --out is opened
                parser.error("argument --n: a_k(n) overflows a float")
            except SeedDivergenceError as exc:
                # raised before --out is opened, too
                parser.error(f"argument --dx: {exc}")
        elif args.command == "bench":
            if args.step < 2 or args.step > args.mmax:
                parser.error("--step must satisfy 2 <= step <= mmax")
            cmd_bench(args.mmax, args.step, args.reps, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
