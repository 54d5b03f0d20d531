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
and floats at 17 significant digits (round-trip precision).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .evaluation import TruncatedSeries, eval_series_float
from .integrate import IntegratorConfig, solve_midpoint
from .series import compute_coefficients, evaluate_table

USAGE_ERROR = 2
IO_ERROR = 1

# Lines formatted, joined and written at a time.  Larger chunks gain
# little speed and raise peak memory: each holds its columns as Python
# floats and its joined text at once.
CHUNK_ROWS = 4096


@dataclass(frozen=True)
class BenchRecord:
    m: int
    seconds: float
    reps: int


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


class _FloatLines:
    """The lines of a float CSV, formatted only when sliced.

    ``head`` lines, then one ``.17g`` row (the text :func:`_fmt` gives for
    each field) per element of the equal-length float ``columns``, then
    ``tail`` lines.  ``len`` counts them all; a slice with step 1 returns
    the list of just those lines, so a writer that takes ``CHUNK_ROWS``
    lines at a time never holds the text of the whole file.
    """

    def __init__(
        self,
        head: list[str],
        columns: Sequence[np.ndarray],
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
        start, stop, _ = span.indices(len(self))
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
    text = "\n".join(lines) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text


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
    series = TruncatedSeries.for_index(Fraction(n), m)
    result = solve_midpoint(n, cfg)
    sv = eval_series_float(series, result.xs)
    columns = (result.xs, sv, result.Fs, np.abs(sv - result.Fs))
    _write_lines(out_path, _FloatLines(["x,series,numeric,abs_err"], columns))


def run_bench(m_max: int, step: int, reps: int) -> list[BenchRecord]:
    """Best-of-``reps`` wall-clock timing of the coefficient engine.

    The minimum over repetitions suppresses scheduler noise; runs are
    strictly sequential so timings are not perturbed by each other.
    """
    records = []
    for m in range(step, m_max + 1, step):
        best = min(
            _time_once(m) for _ in range(reps)
        )
        records.append(BenchRecord(m=m, seconds=best, reps=reps))
    return records


def _time_once(m: int) -> float:
    start = time.perf_counter()
    compute_coefficients(m)
    return time.perf_counter() - start


def cmd_bench(m_max: int, step: int, reps: int, out_path: str) -> None:
    records = run_bench(m_max, step, reps)
    lines = ["m,seconds"]
    for rec in records:
        lines.append(f"{rec.m},{_fmt(rec.seconds)}")
    _write_lines(out_path, lines)


def _write_lines(out_path: str, lines: list[str] | _FloatLines) -> None:
    """Write each of the (one or more) ``lines`` ending in ``\\n``.

    ``lines`` is taken ``CHUNK_ROWS`` at a time, so a :class:`_FloatLines`
    is formatted one chunk at a time as well.
    """
    with open(out_path, "w", encoding="ascii", newline="") as fh:
        for start in range(0, len(lines), CHUNK_ROWS):
            fh.write("\n".join(lines[start:start + CHUNK_ROWS]))
            fh.write("\n")


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
    p.add_argument("--m", type=_nonneg_int, required=True,
                   help="highest coefficient index")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("paper", "csv"), default="paper",
                   help="'paper' = '000;1' index;expression lines, or CSV")

    p = sub.add_parser("eval", help="print coefficients for a fixed index")
    p.add_argument("--n", type=_rational, required=True,
                   help="index as an exact rational, e.g. 3 or 3/2")
    p.add_argument("--m", type=_nonneg_int, required=True,
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
    p.add_argument("--m", type=_nonneg_int, required=True,
                   help="series truncation order")
    p.add_argument("--dx", type=_positive_float, required=True,
                   help="grid step")
    p.add_argument("--xmax", type=_positive_float, default=50.0,
                   help="safety cap for the numeric run (default 50)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("bench", help="time the coefficient engine")
    p.add_argument("--mmax", type=_nonneg_int, required=True,
                   help="largest table size to time")
    p.add_argument("--step", type=_nonneg_int, default=10,
                   help="table size increment (default 10)")
    p.add_argument("--reps", type=_nonneg_int, default=3,
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
            if args.command == "integrate":
                cmd_integrate(args.n, cfg, args.out)
            else:
                cmd_compare(args.n, args.m, cfg, args.out)
        elif args.command == "bench":
            if args.step < 2 or args.step > args.mmax:
                parser.error("--step must satisfy 2 <= step <= mmax")
            if args.reps < 1:
                parser.error("--reps must be >= 1")
            cmd_bench(args.mmax, args.step, args.reps, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
