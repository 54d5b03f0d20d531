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
and floats at 17 significant digits (round-trip precision).  The rows of the
float CSVs of ``integrate`` and ``compare`` take one path, a chunk at a time
from the stepped grid, through :func:`_write_floats`, the one place that
decides whether to fork and runs the workers: on ``k`` usable CPUs,
``k - 1`` forked workers and the process itself format the chunks while the
next one is stepped.  One window, workers only on Linux: a worker may have
``WINDOW`` chunks out, and starts only where its pipes can be enlarged to
hold them.  With one CPU, a single chunk, another thread running or pipes
that cannot be enlarged, the process formats every chunk itself, to the same
bytes.  Output is byte-identical for a given CPython and C math library: the
one libm call on the float path is ``F**n`` in ``_kernels.midpoint_steps``,
and the pinned digests come from glibc's ``pow`` (2.36; CI runs on
ubuntu-latest only).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from collections import deque
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .evaluation import eval_series_float
from .integrate import (
    CHUNK_ROWS,
    IntegratorConfig,
    SeedDivergenceError,
    _check_index,
    _midpoint_run,
)
from .series import GROWTH_EXP, MAX_ORDER
from .series import compute_coefficients, evaluate_table

USAGE_ERROR = 2
IO_ERROR = 1

# Most repetitions ``bench --reps`` may ask for: one at ``MAX_ORDER``
# takes about 10 s, and the best of a few already drops scheduler noise.
MAX_REPS = 100

# Chunks a formatting worker may have out: one in progress, two queued
WINDOW = 3


def _fmt(value: float) -> str:
    """``value`` at 17 significant digits, as :func:`_chunk_text` writes it."""
    return "%.17g" % value


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
    summary = []

    def chunks():
        _, zero = yield from _midpoint_run(n, cfg, CHUNK_ROWS)
        zero = "none" if zero is None else _fmt(zero)
        summary.append(f"# first_zero={zero}")

    _write_floats(out_path, "x,F,H", chunks(), summary)


def cmd_compare(
    n: float, m: int, cfg: IntegratorConfig, out_path: str
) -> None:
    """Series vs. numeric solution over the integration grid (CSV).

    Each chunk of the grid gets its series and error columns, and is
    written, while the grid is still being stepped.
    """
    # numpy is imported at first use: compare is the one command to load it
    import numpy as np

    series = evaluate_table(compute_coefficients(m), Fraction(n))
    # Rounded before the run, so that an --n whose a_k(n) passes the float
    # range is reported as such and not as a seed too coarse for --dx.
    series.even_floats

    def chunks():
        for xs, Fs, _ in _midpoint_run(n, cfg, CHUNK_ROWS):
            sv = eval_series_float(series, xs)
            yield xs, sv, Fs, np.abs(sv - Fs)

    _write_floats(out_path, "x,series,numeric,abs_err", chunks())


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


def _bench_work(m_max: int, step: int, reps: int) -> float:
    """Predicted work of ``run_bench``, in tables of order ``MAX_ORDER``."""
    sizes = range(step, m_max + 1, step)
    return reps * sum((m / MAX_ORDER) ** GROWTH_EXP for m in sizes)


# Most work ``bench`` may ask for: its default run (--step 10, --reps 3)
# at --mmax MAX_ORDER, about 20.3 tables, so every run the defaults allow
# stays allowed.
BENCH_BUDGET = _bench_work(MAX_ORDER, 10, 3)


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

    The lines are those of a coefficient or timing table, at most 202 of
    them, so they are joined and written at once.
    """
    with open(out_path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_floats(
    out_path: str,
    head: str,
    chunks: Iterable[Sequence[Sequence[float]]],
    tail: Sequence[str] = (),
) -> None:
    """Write ``head``, one ``.17g`` row per sample of ``chunks``, ``tail``.

    Each of ``chunks`` is a tuple of equal-length float64 columns
    (``array("d")`` or ndarray) of 1 to ``CHUNK_ROWS`` rows, and a row
    holds the text :func:`_fmt` gives for each of its fields.  ``tail`` is
    read once ``chunks`` is exhausted.  The first two chunks are taken, and
    handed on, before ``out_path`` is opened: a run raises the errors of
    its start, the seed's among them, on the first, and truncating an old
    file overlaps the workers' formatting.

    Given a second chunk, ``k >= 2`` usable CPUs and no other thread running,
    up to ``k - 1`` workers are forked, each with a pipe for its chunks and one
    for its texts.  One window, workers only on Linux: a worker is forked only
    once both its pipes hold ``WINDOW`` chunks out (``F_SETPIPE_SZ``), and the
    first whose pipes cannot ends the forking.  A chunk goes to the worker with
    the fewest out if it has fewer than ``WINDOW``, and is formatted here
    otherwise.  The texts are written in order: before each chunk is handed on,
    those ready at the head, and with two of this process's own waiting and
    every worker full, the oldest worker text is waited for.  A chunk goes to
    its worker as one pickled message; every text is formatted in the pieces of
    :func:`_pieces`, which a worker sends back one message each, then an empty
    one.  However the writing ends, the workers are stopped and joined, and
    every connection closed.
    """
    chunks = iter(chunks)
    ahead = list(itertools.islice(chunks, 2))
    k = _usable_cpus() if len(ahead) == 2 else 1
    if k >= 2:
        import threading

        # fork copies only the calling thread, and a lock another thread
        # holds stays locked in the child, so only a single thread forks
        if threading.active_count() > 1:
            k = 1
    procs, conns, feeds, texts, out = [], [], [], [], []  # out: chunks out
    pending = deque()  # in output order: own pieces, or a worker index

    def hand_on(chunk):
        fewest = min(out, default=WINDOW)
        if fewest < WINDOW:
            j = out.index(fewest)
            try:
                feeds[j].send(chunk)
            except BrokenPipeError:
                pass  # the worker died: its text's recv says so
            out[j] += 1
            pending.append(j)
        else:
            pending.append(_pieces(chunk))

    def write_ready(fh, wait):
        while pending:
            j = pending[0]
            if type(j) is list:
                fh.writelines(j)
            elif (wait or texts[j].poll() or min(out) == WINDOW
                    and sum(type(e) is list for e in pending) == 2):
                while text := texts[j].recv():  # b"" ends a text
                    if isinstance(text, Exception):  # the worker's error
                        raise text
                    fh.write(text)
                out[j] -= 1
            else:
                break
            pending.popleft()

    try:
        if k >= 2:
            import multiprocessing
            # No pool: it would receive the texts on a thread of its own,
            # whose heap kept several MB resident after each run.
            context = multiprocessing.get_context("fork")
            # Room for two texts, at most 25 bytes a field (a .17g field
            # has at most 24 characters, then its comma or newline), and
            # less than four pages more for their framing and the pages
            # they share.  WINDOW = 3 chunks, at 8 bytes a field, fit in it,
            # so a send to a worker with fewer than WINDOW out never waits.
            pipe_bytes = 2 * (len(ahead[0]) * CHUNK_ROWS * 25
                              + 4 * os.sysconf("SC_PAGESIZE"))
        for _ in range(k - 1):
            ends = context.Pipe(duplex=False) + context.Pipe(duplex=False)
            chunks_in, feed, text_end, texts_out = ends
            # in smaller pipes, this process could wait to send a chunk to
            # a worker that waits to send it a text: none is forked there
            if not (_enlarge(feed, pipe_bytes)
                    and _enlarge(text_end, pipe_bytes)):
                for conn in ends:
                    conn.close()
                break
            conns += ends
            proc = context.Process(target=_format_chunks,
                                   args=(chunks_in, texts_out))
            proc.start()
            procs.append(proc)
            # the worker holds the only other ends now: should it die, a
            # send to it raises BrokenPipeError and a recv EOFError
            chunks_in.close()
            texts_out.close()
            feeds.append(feed)
            texts.append(text_end)
            out.append(0)
        while ahead:
            hand_on(ahead.pop(0))
        with open(out_path, "wb") as fh:
            fh.write(f"{head}\n".encode("ascii"))
            for chunk in chunks:
                write_ready(fh, False)
                hand_on(chunk)
            write_ready(fh, True)
            fh.write("".join(f"{line}\n" for line in tail).encode("ascii"))
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _chunk_text(fields: Sequence[Sequence[float]]) -> bytes:
    """The ASCII CSV rows, each ending in ``\\n``, of the float64 ``fields``."""
    width, rows = len(fields), len(fields[0])
    flat = [0.0] * (rows * width)  # row-major, for one bytes ``%``
    for i, field in enumerate(fields):
        flat[i::width] = field.tolist()
    return (b",".join([b"%.17g"] * width) + b"\n") * rows % tuple(flat)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 off Linux, where no worker runs."""
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else 1


def _pieces(fields: Sequence[Sequence[float]]) -> list[bytes]:
    """The text of ``fields`` in pieces of ``CHUNK_ROWS // 8`` rows, so that
    no process holds more than a piece's formatting at once."""
    rows = CHUNK_ROWS // 8
    return [_chunk_text([field[lo:lo + rows] for field in fields])
            for lo in range(0, len(fields[0]), rows)]


def _enlarge(conn, size: int) -> bool:
    """Whether ``conn``'s pipe now holds at least ``size`` bytes."""
    import fcntl

    resize = getattr(fcntl, "F_SETPIPE_SZ", None)  # Linux only
    try:
        return resize is not None and fcntl.fcntl(conn, resize, size) >= size
    except OSError:  # past fs.pipe-max-size, or the user's pipe quota
        return False


def _format_chunks(chunks, texts) -> None:
    """In a worker: send the text of each of ``chunks``, or the error."""
    try:
        while True:
            for piece in _pieces(chunks.recv()) + [b""]:
                texts.send(piece)
    except Exception as exc:
        texts.send(exc)


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


def _bounded_int(low: int, high: int):
    """Option type: an integer from ``low`` through ``high``."""
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"must be between {low} and {high}"
            )
        return value

    # argparse names a type whose int() fails: "invalid int value: 'abc'"
    parse.__name__ = "int"
    return parse


# Options whose value may start with "-".  argparse takes a value such as
# "-1e-3", "-inf" or "-3/2" after an option for another option, unless it
# looks like "-1" or "-.5", so _attach_values writes "--dx -1e-3" as
# "--dx=-1e-3", the form argparse reads as a value.
_SIGNED_OPTIONS = ("--n", "--dx", "--xmax")


def _attach_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with a value that starts with a single ``-`` attached by
    ``=`` to the signed option before it."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in _SIGNED_OPTIONS
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lane-emden",
        description=(
            "Exact power-series coefficients and midpoint integration "
            "for the Lane-Emden equation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    order = _bounded_int(0, MAX_ORDER)

    p = sub.add_parser("coeffs", help="write symbolic coefficients to a file")
    p.add_argument("--m", type=order, required=True,
                   help="highest coefficient index")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("paper", "csv"), default="paper",
                   help="'paper' = '000;1' index;expression lines, or CSV")

    p = sub.add_parser("eval", help="print coefficients for a fixed index")
    p.add_argument("--n", type=_rational, required=True,
                   help="index as an exact rational, e.g. 3 or 3/2")
    p.add_argument("--m", type=order, required=True,
                   help="highest coefficient index")
    p.add_argument("--out", help="also write the table to this path")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--n", type=float, required=True,
                     help="index (float, finite, >= 0)")
    run.add_argument("--dx", type=float, required=True, help="grid step")
    run.add_argument("--xmax", type=float, default=IntegratorConfig.xmax,
                     help="safety cap: for n >= 5 the solution never crosses "
                          "zero, so integration stops at this x "
                          "(default %(default)s)")
    run.add_argument("--out", required=True, help="output CSV path")

    sub.add_parser("integrate", parents=[run],
                   help="midpoint integration to CSV")

    p = sub.add_parser("compare", parents=[run],
                       help="series vs numeric solution CSV")
    p.add_argument("--m", type=order, required=True,
                   help="series truncation order")

    p = sub.add_parser("bench", help="time the coefficient engine")
    p.add_argument("--mmax", type=_bounded_int(2, MAX_ORDER), required=True,
                   help="largest table size to time, at least 2")
    p.add_argument("--step", type=_bounded_int(2, MAX_ORDER), default=10,
                   help="table size increment, at most --mmax (default 10)")
    p.add_argument("--reps", type=_bounded_int(1, MAX_REPS), default=3,
                   help="repetitions per size, minimum is kept (default 3)")
    p.add_argument("--out", required=True, help="output CSV path")
    # main reports its own checks through the subcommand's parser, as
    # argparse reports the subcommand's options
    for p in sub.choices.values():
        p.set_defaults(error=p.error)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_attach_values(argv))
    try:
        if args.command == "coeffs":
            cmd_coeffs(args.m, args.out, args.format)
        elif args.command == "eval":
            try:
                text = cmd_eval(args.n, args.m, args.out)
            except ValueError:
                # str() refused an a[k] past the interpreter's digit limit,
                # which bounds the work; raised before --out is opened
                args.error("argument --n: an a[k] has more digits "
                           "than can be printed")
            sys.stdout.write(text)
        elif args.command in ("integrate", "compare"):
            try:
                _check_index(args.n)
                cfg = IntegratorConfig(dx=args.dx, xmax=args.xmax)
            except ValueError as exc:
                # the library's checks, before any work: "<param>: <reason>"
                args.error(f"argument --{exc}")
            try:
                if args.command == "integrate":
                    cmd_integrate(args.n, cfg, args.out)
                else:
                    cmd_compare(args.n, args.m, cfg, args.out)
            except OverflowError:
                # a_k(n) outgrows a float; raised before --out is opened
                args.error("argument --n: a_k(n) overflows a float")
            except SeedDivergenceError as exc:
                # raised before --out is opened, too
                args.error(f"argument --dx: {exc}")
        elif args.command == "bench":
            if args.step > args.mmax:
                args.error("argument --step: must not exceed --mmax")
            work = _bench_work(args.mmax, args.step, args.reps)
            if work > BENCH_BUDGET:
                args.error(
                    "arguments --mmax, --step, --reps: predicted work of"
                    f" {work:.1f} tables of order {MAX_ORDER} is over the"
                    f" budget of {BENCH_BUDGET:.1f}"
                )
            cmd_bench(args.mmax, args.step, args.reps, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
