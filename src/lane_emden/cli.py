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
and floats at 17 significant digits (round-trip precision).  The float CSVs
of ``integrate`` and ``compare`` are formatted a chunk at a time on every
CPU the process may use, in forked workers; the bytes are the same as from
one process, which is what runs on one CPU or where ``fork`` is missing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .evaluation import eval_series_float
from .integrate import IntegratorConfig, SeedDivergenceError, solve_midpoint
from .series import MAX_ORDER, compute_coefficients, evaluate_table

USAGE_ERROR = 2
IO_ERROR = 1

# Lines formatted, joined and written at a time.  Larger chunks gain
# little speed and raise peak memory: each holds its columns as Python
# floats and its joined text at once.
CHUNK_ROWS = 4096

# Most repetitions ``bench --reps`` may ask for: one at ``MAX_ORDER``
# takes about 10 s, and the best of a few already drops scheduler noise.
MAX_REPS = 100


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


class _FloatLines:
    """The lines of a float CSV, formatted only when sliced.

    ``head`` lines, then one ``.17g`` row (the text :func:`_fmt` gives for
    each field) per element of the equal-length float ``columns``, each
    an ``array("d")`` or an ndarray (anything with slices and
    ``.tolist()``), then
    ``tail`` lines.  ``len`` counts them all; a slice with step 1 returns
    the list of just those lines, so a writer that takes ``CHUNK_ROWS``
    lines at a time never holds the text of the whole file.  Any other
    step raises ``ValueError``.
    """

    def __init__(
        self,
        head: list[str],
        columns: Sequence[Sequence[float]],
        tail: Sequence[str] = (),
    ):
        self.head = head
        self.columns = columns
        self.tail = tail
        self.rows = len(columns[0])
        self._row = ",".join(["{:.17g}"] * len(columns)).format

    def __len__(self) -> int:
        return len(self.head) + self.rows + len(self.tail)

    def __getitem__(self, span: slice) -> list[str]:
        start, stop, step = span.indices(len(self))
        if step != 1:
            raise ValueError(f"slice step must be 1, not {step}")
        lines = self.head[start:stop]
        lo = max(start - len(self.head), 0)
        hi = min(stop - len(self.head), self.rows)
        if lo < hi:
            lines += map(
                self._row, *(col[lo:hi].tolist() for col in self.columns)
            )
        end = len(self.head) + self.rows
        lines += self.tail[max(start - end, 0):max(stop - end, 0)]
        return lines


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
    """Integrate and write ``x,F,H`` rows plus a first-zero summary line."""
    result = solve_midpoint(n, cfg)
    zero = "none" if result.first_zero is None else _fmt(result.first_zero)
    lines = _FloatLines(
        ["x,F,H"], (result.xs, result.Fs, result.Hs), [f"# first_zero={zero}"]
    )
    _write_lines(out_path, lines)


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
    _write_lines(out_path, _FloatLines(["x,series,numeric,abs_err"], columns))


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


def _write_lines(out_path: str, lines: list[str] | _FloatLines) -> None:
    """Write each of the (one or more) ``lines`` ending in ``\\n``.

    ``lines`` is taken ``CHUNK_ROWS`` at a time, and the chunks are written
    in order.  The chunks of a :class:`_FloatLines` are formatted by
    :func:`_chunk_texts`, on every usable CPU; those of a list are joined
    here, one after the other.
    """
    starts = range(0, len(lines), CHUNK_ROWS)
    with open(out_path, "w", encoding="ascii", newline="") as fh, \
            _chunk_texts(lines, starts) as texts:
        for text in texts:
            fh.write(text)
            fh.write("\n")


def _chunk_text(lines: list[str] | _FloatLines, start: int) -> str:
    """The chunk of ``lines`` that begins at ``start``, joined by ``\\n``."""
    return "\n".join(lines[start:start + CHUNK_ROWS])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


@contextmanager
def _chunk_texts(lines: list[str] | _FloatLines, starts: range):
    """Give an iterator over the :func:`_chunk_text` of each of ``starts``.

    A :class:`_FloatLines` with chunks for two or more usable CPUs is
    formatted by that many worker processes, forked so that they inherit
    the view and no column is pickled.  Each worker formats one chunk at a
    time, and gets the next one as soon as it hands its text back (see
    :func:`_collect_chunks`), so a worker that the host runs slower takes
    fewer chunks instead of holding up the others.  The workers are
    stopped and joined when the block exits, however it exits.  Anything
    else, and every float CSV where ``fork`` is missing or another thread
    runs, maps :func:`_chunk_text` over ``starts`` in this process.
    """
    workers = 1
    if isinstance(lines, _FloatLines):
        workers = min(_usable_cpus(), len(starts))
    if workers >= 2:
        import multiprocessing
        import threading

        # fork copies only the calling thread, and a lock another thread
        # holds stays locked in the child, so only a single thread forks
        if (threading.active_count() > 1
                or "fork" not in multiprocessing.get_all_start_methods()):
            workers = 1
    if workers < 2:
        yield map(partial(_chunk_text, lines), starts)
        return
    # No pool: it would receive the texts on a thread of its own, and that
    # thread's heap kept several MB resident after each run.
    context = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for _ in range(workers):
            conn, child_conn = context.Pipe()
            conns.append(conn)
            proc = context.Process(
                target=_format_chunks, args=(lines, child_conn)
            )
            proc.start()
            procs.append(proc)
            # the worker holds the only other end now, so should it die,
            # the parent's recv raises EOFError instead of waiting
            child_conn.close()
        yield _collect_chunks(conns, starts)
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _format_chunks(lines: _FloatLines, conn) -> None:
    """In a worker: send the text of each chunk start it gets, or the error."""
    try:
        while True:
            conn.send(_chunk_text(lines, conn.recv()))
    except Exception as exc:
        conn.send(exc)


def _collect_chunks(conns: list, starts: range):
    """The texts of the chunks at ``starts``, in order, from the workers.

    A worker is sent the next chunk start whenever it has none, unless
    that chunk lies ``2 * len(conns)`` chunks or more past the one to
    yield next: the texts that came back early wait here, and the window
    bounds them.
    """
    from multiprocessing.connection import wait

    window = 2 * len(conns)
    texts = {}  # chunk number -> text that came back ahead of its turn
    held = {}  # worker connection -> the chunk number it formats
    sent = 0
    for i in range(len(starts)):
        while i not in texts:
            for conn in conns:
                if conn not in held and sent < min(len(starts), i + window):
                    conn.send(starts[sent])
                    held[conn] = sent
                    sent += 1
            # chunk i is held: every chunk before it has come back, so a
            # worker was free to take it above
            for conn in wait(list(held)):
                text = conn.recv()
                if isinstance(text, Exception):
                    raise text
                texts[held.pop(conn)] = text
        yield texts.pop(i)


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
    p.add_argument("--xmax", type=_positive_float, default=50.0,
                   help="safety cap: for n >= 5 the solution never crosses "
                        "zero, so integration stops at this x (default 50)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("compare", help="series vs numeric solution CSV")
    p.add_argument("--n", type=_index, required=True,
                   help="index (float, finite, >= 0)")
    p.add_argument("--m", type=_order, required=True,
                   help="series truncation order")
    p.add_argument("--dx", type=_positive_float, required=True,
                   help="grid step")
    p.add_argument("--xmax", type=_positive_float, default=50.0,
                   help="safety cap for the numeric run (default 50)")
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
            text = cmd_eval(args.n, args.m, args.out)
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
