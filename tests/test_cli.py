"""Command line interface: formats, determinism, exit codes."""

import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from array import array
from fractions import Fraction
from multiprocessing.connection import Connection

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lane_emden import (
    IntegratorConfig,
    _kernels,
    cli,
    compute_coefficients,
    eval_series_exact,
    eval_series_float,
    evaluate_table,
    solve_midpoint,
)
from lane_emden.exact import MAX_DEGREE
from lane_emden.integrate import MAX_STEPS
from lane_emden.series import MAX_ORDER

GOLDEN_M6 = b"000;1\n002;-1/6\n004;n/120\n006;-n*(8*n - 5)/15120\n"
INTEGRATE_N3_DX1E2_SHA256 = (
    "8fc9e770aab2e2e713d6b74e116f608f59956df9feb36d2bcd2951926ce7d819"
)
INTEGRATE_N3_DX1E3_SHA256 = (
    "07b6d081a85ef1d7f1c14e1da5de932ddadf9a20608f20fae40981092f73ec3d"
)
COMPARE_N3_M10_DX1E3_SHA256 = (
    "400d978875c35ad216155469a3426df95b8a9e3f057048ac29989c6c33b80a2e"
)

# The float digests are the bytes of one C math library: the one libm call
# on the float path is ``F**n`` in ``_kernels.midpoint_steps``, and they
# were pinned with glibc 2.36.  Its ``pow`` is not correctly rounded: these
# ``(F, F ** 3.0)`` pairs, as hex floats, are samples ``F`` of ``integrate
# --n 3 --dx 1e-4`` whose cube glibc rounds to the other neighbour of the
# exact value.  A libm that rounds them differently changes the digests.
POW_FINGERPRINT = [
    ("0x1.fff8715a124b6p-1", "0x1.ffe95463e14d8p-1"),
    ("0x1.ff4e7b6d45decp-1", "0x1.fdec2ad75dffdp-1"),
    ("0x1.fd721cf8fbb56p-1", "0x1.f8601c08676eap-1"),
    ("0x1.d6a2c3466ad78p-1", "0x1.8da9ab6c15617p-1"),
]


def pow_note():
    """Whether this libm's ``pow`` matches :data:`POW_FINGERPRINT`, for the
    failure message of a float digest."""
    cubes = [float.fromhex(base) ** 3.0 for base, _ in POW_FINGERPRINT]
    if cubes == [float.fromhex(cube) for _, cube in POW_FINGERPRINT]:
        return "this libm's pow matches the glibc 2.36 fingerprint"
    return ("this libm's pow differs from the glibc 2.36 fingerprint the "
            "float digests were pinned with: the likely cause")


@pytest.fixture(autouse=True)
def no_worker_outlives_its_run():
    yield
    assert multiprocessing.active_children() == []


def read_bytes(path):
    return path.read_bytes()


def read_lines(path):
    return path.read_text(encoding="ascii").splitlines()


class TestCoeffs:
    def test_m6_bytes(self, tmp_path):
        out = tmp_path / "c.txt"
        assert cli.main(["coeffs", "--m", "6", "--out", str(out)]) == 0
        assert read_bytes(out) == GOLDEN_M6

    def test_m0(self, tmp_path):
        out = tmp_path / "c.txt"
        cli.main(["coeffs", "--m", "0", "--out", str(out)])
        assert read_bytes(out) == b"000;1\n"

    def test_m8_last_line(self, tmp_path):
        out = tmp_path / "c.txt"
        cli.main(["coeffs", "--m", "8", "--out", str(out)])
        assert read_lines(out)[-1] == (
            "008;n*(122*n**2 - 183*n + 70)/3265920"
        )

    def test_odd_m_rounds_down(self, tmp_path):
        out = tmp_path / "c.txt"
        cli.main(["coeffs", "--m", "7", "--out", str(out)])
        assert read_lines(out)[-1] == "006;-n*(8*n - 5)/15120"

    def test_csv_format(self, tmp_path):
        out = tmp_path / "c.csv"
        cli.main(["coeffs", "--m", "4", "--out", str(out), "--format", "csv"])
        assert read_lines(out) == [
            "k,expression", "0,1", "2,-1/6", "4,n/120"
        ]

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli.main(["coeffs", "--m", "20", "--out", str(a)])
        cli.main(["coeffs", "--m", "20", "--out", str(b)])
        assert read_bytes(a) == read_bytes(b)


class TestEval:
    def test_stdout_text(self, capsys):
        assert cli.main(["eval", "--n", "3", "--m", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "a[0] = 1"
        assert lines[2] == "a[4] = 1/40"
        assert lines[4] == "a[8] = 619/1088640"

    def test_rational_index(self, capsys):
        cli.main(["eval", "--n", "3/2", "--m", "4"])
        assert "a[4] = 1/80" in capsys.readouterr().out

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "e.txt"
        cli.main(["eval", "--n", "1", "--m", "6", "--out", str(out)])
        printed = capsys.readouterr().out
        assert out.read_text(encoding="ascii") == printed
        assert "a[6] = -1/5040" in printed

    def test_decimal_index_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--n", "1.5", "--m", "4"])
        assert exc.value.code == cli.USAGE_ERROR

    @pytest.mark.parametrize("n_value", ["1/0", "abc"])
    def test_bad_rational_rejected(self, n_value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--n", n_value, "--m", "4"])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert "argument --n: bad rational" in err
        assert "Traceback" not in err


class TestIntegrate:
    def test_output_shape(self, tmp_path):
        out = tmp_path / "r.csv"
        cli.main(["integrate", "--n", "0", "--dx", "0.125",
                  "--xmax", "5", "--out", str(out)])
        lines = read_lines(out)
        assert lines[0] == "x,F,H"
        assert lines[1] == "0,1,0"
        assert lines[-1].startswith("# first_zero=")

    def test_first_zero_line(self, tmp_path):
        out = tmp_path / "r.csv"
        cli.main(["integrate", "--n", "1", "--dx", "0.001",
                  "--out", str(out)])
        tail = read_lines(out)[-1]
        zero = float(tail.removeprefix("# first_zero="))
        assert zero == pytest.approx(math.pi, abs=1e-3)

    def test_no_zero_reported_at_critical_index(self, tmp_path):
        out = tmp_path / "r.csv"
        cli.main(["integrate", "--n", "5", "--dx", "0.01",
                  "--xmax", "10", "--out", str(out)])
        assert read_lines(out)[-1] == "# first_zero=none"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["integrate", "--n", "1.5", "--dx", "0.01"]
        cli.main(args + ["--out", str(a)])
        cli.main(args + ["--out", str(b)])
        assert read_bytes(a) == read_bytes(b)


class TestCompare:
    def test_columns_and_agreement(self, tmp_path):
        out = tmp_path / "cmp.csv"
        cli.main(["compare", "--n", "3", "--m", "28", "--dx", "0.01",
                  "--out", str(out)])
        lines = read_lines(out)
        assert lines[0] == "x,series,numeric,abs_err"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(r) == 4 for r in rows)
        for r in rows:
            x, sv, fv, err = map(float, r)
            assert err == abs(sv - fv)
            if x <= 1.0:
                assert err <= 1e-4

    def test_columns_against_a_third_solution(self, tmp_path):
        """The benchmark's ``compare`` run against mpmath's ``odefun``.

        The reference is a Taylor-series ODE solution at 20 digits, started
        at x = 1/2 from the exact order-40 series and its termwise
        derivative.  Every x checked is inside the series' radius of
        convergence, about 2.575 at n = 3.
        """
        mpmath = pytest.importorskip("mpmath")
        dx = 1e-4
        out = tmp_path / "cmp.csv"
        cli.main(["compare", "--n", "3", "--m", "28", "--dx", str(dx),
                  "--out", str(out)])
        rows = read_lines(out)[1:]
        s = evaluate_table(compute_coefficients(40), 3)
        x0 = Fraction(1, 2)
        f0 = eval_series_exact(s, x0)
        h0 = sum(k * a * x0 ** (k - 1) for k, a in enumerate(s.a_values) if k)

        def mpf(q):
            return mpmath.mpf(q.numerator) / q.denominator

        # The series column's error is the order-28 truncation: measured
        # 3.9e-17 at 0.75 (the rounding of F, bounded at about 10 ulps) and
        # 4.5e-13, 7.5e-8 and 3.5e-4 after it, each bounded at twice that.
        # The numeric column's error, measured at most 0.028 * dx**2, is
        # bounded at 0.04 * dx**2.
        with mpmath.workdps(20):
            ref = mpmath.odefun(
                lambda x, y: [y[1], -y[0] ** 3 - 2 * y[1] / x],
                mpf(x0), [mpf(f0), mpf(h0)],
            )
            for target, series_bound in [
                (0.75, 1e-15), (1.0, 1e-12), (1.5, 1.5e-7), (2.0, 7e-4),
            ]:
                x, sv, fv, _ = map(float, rows[round(target / dx)].split(","))
                assert abs(x - target) < 1e-9
                want = ref(x)[0]
                assert abs(sv - want) <= series_bound
                assert abs(fv - want) <= 0.04 * dx**2

    def test_exact_series_error_is_integrator_error(self, tmp_path):
        # index 0: the degree-2 series is the exact solution, and the
        # midpoint rule integrates a quadratic to rounding error
        out = tmp_path / "cmp.csv"
        cli.main(["compare", "--n", "0", "--m", "4", "--dx", "0.01",
                  "--out", str(out)])
        errs = [float(line.split(",")[3]) for line in read_lines(out)[1:]]
        assert max(errs) < 1e-12


class TestOutputBytes:
    """Whole-file digests of the float CSVs and the coefficient file.

    The float digests are those of the row-at-a-time writer that preceded
    the columnar one; the first two equal the benchmark's smoke-size
    hashes.  The ``1e-3`` grids are longer than one ``CHUNK_ROWS`` chunk.
    The ``coeffs`` digests are the benchmark's pinned ones at ``m = 10``
    and ``m = 140``, where the series kernel interpolates polynomials of
    degree up to 70.  The first ``eval`` digest is that of the file
    ``eval`` wrote with its own ``open()``, before it used the shared
    writer.  A CSV coefficient file and an ``eval`` at a rational index
    with a denominator were pinned from the output of the
    ``Fraction``-backed ``IndexPolynomial``.  The ``integrate`` case at
    ``1e-4``, 17 chunks of ``CHUNK_ROWS`` rows written while the grid is
    stepped, was pinned from the writer that formatted the rows only after
    the run.  The last case is the benchmark's ``compare`` workload: four
    columns over the same 17 chunks, with its pinned digest.
    """

    @pytest.mark.parametrize("argv, digest", [
        (["integrate", "--n", "3", "--dx", "1e-2"], INTEGRATE_N3_DX1E2_SHA256),
        (["compare", "--n", "3", "--m", "10", "--dx", "1e-2"],
         "9ee1f5818bb42ca803e683a1ca95757ecdcc1833944285c733d104e1440e6dcd"),
        (["integrate", "--n", "3", "--dx", "1e-3"], INTEGRATE_N3_DX1E3_SHA256),
        (["compare", "--n", "3", "--m", "10", "--dx", "1e-3"],
         COMPARE_N3_M10_DX1E3_SHA256),
        (["coeffs", "--m", "10"],
         "acdd8af764755db6c3a90103eb87e7d5bae445b413727331270c66ea86414ccc"),
        (["coeffs", "--m", "140"],
         "b3097ff2a90b724614e5404f54bd80d5fbe5eb7f284dd380e9e275ceaa4d7da3"),
        (["eval", "--n", "3/2", "--m", "12"],
         "043658d097d9b5f16155eeef96a9b94d1bc31361e835eb546c98f8c6a1f48854"),
        (["coeffs", "--m", "28", "--format", "csv"],
         "43ea0f1cc303a52acfc307abf39d828aa76b34ea876d19bd108118a8c9904fe3"),
        (["eval", "--n", "7/3", "--m", "40"],
         "c30f767f7bf290decdcc50c17dbc28c28cccefa493269c1638216645a57647cf"),
        (["integrate", "--n", "3", "--dx", "1e-4"],
         "f04ed54999523fdbf37f61006bfdcae7e19c76e8d5844702f8674c0894d3354c"),
        (["compare", "--n", "3", "--m", "28", "--dx", "1e-4"],
         "051e94386991a6cc60533c58bfa58c2abdbb1a41f5ab234e25ed2f93ba2a62dc"),
    ])
    def test_sha256(self, tmp_path, argv, digest):
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        float_csv = argv[0] in ("integrate", "compare")
        got = hashlib.sha256(read_bytes(out)).hexdigest()
        assert got == digest, pow_note() if float_csv else ""

    @pytest.mark.parametrize("base, cube", POW_FINGERPRINT)
    def test_pow_fingerprint(self, base, cube):
        base, cube = float.fromhex(base), float.fromhex(cube)
        # one ulp from the correctly rounded cube
        assert abs(float(Fraction(base) ** 3) - cube) == math.ulp(cube)
        assert base**3.0 == cube


def reference_text(columns):
    """The CSV rows of ``columns``, by ``format`` alone, field by field."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in zip(*columns)).encode("ascii")


# The float64 edge values: signed zeros, nans with either sign bit,
# infinities, the least and greatest magnitudes, and the values on each
# side of where ``g`` switches between fixed and exponent notation.
EDGE_VALUES = [
    0.0, -0.0, math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf,
    5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    2.2250738585072014e-308, -2.2250738585072014e-308,
    1e16, 1e17, -1e16, -1e17, 9999999999999998.0, 1e-4, 1e-5, -1e-4, -1e-5,
    0.1, -2.0 / 3.0, 1.0, -1.0,
]

# How a chunk's columns reach ``_chunk_text``: ``integrate``'s arrays,
# ``compare``'s ndarrays, and the float64 views a worker makes of the
# bytes it receives.
COLUMN_KINDS = {
    "array": lambda vals: array("d", vals),
    "ndarray": np.array,
    "memoryview": lambda vals: memoryview(bytes(array("d", vals))).cast("d"),
}


class TestChunkText:
    @pytest.mark.parametrize("kind", sorted(COLUMN_KINDS))
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_edge_values_match_the_reference(self, width, kind):
        # column i is the edge values turned i places, so that every value
        # meets every column position
        values = [EDGE_VALUES[i:] + EDGE_VALUES[:i] for i in range(width)]
        assert math.copysign(1.0, values[0][3]) == -1.0
        fields = [COLUMN_KINDS[kind](vals) for vals in values]
        assert cli._chunk_text(fields) == reference_text(values)

    @given(st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(st.floats(), min_size=width, max_size=width),
        min_size=1, max_size=50)))
    def test_any_doubles_match_the_reference(self, rows):
        columns = [list(column) for column in zip(*rows)]
        for kind in COLUMN_KINDS.values():
            fields = [kind(column) for column in columns]
            assert cli._chunk_text(fields) == reference_text(columns)

    def test_every_chunk_matches_the_eager_lines(self, tmp_path, monkeypatch):
        columns = (array("d", [0.0, 0.1, 1e300, -0.0, 5e-324]),
                   np.array([1.0, 2.0 / 3.0, math.inf, 1e-7, -2.5]))
        eager = [",".join(cli._fmt(v) for v in row) + "\n"
                 for row in zip(*columns)]
        # formatted in process: two whole chunks of two rows, then the
        # short last one; the first two are taken before any is formatted,
        # and each later one is made only after those before it
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        texts, chunk_text = [], cli._chunk_text

        def counted(fields):
            texts.append(chunk_text(fields))
            return texts[-1]

        monkeypatch.setattr(cli, "_chunk_text", counted)

        def chunks():
            for i, lo in enumerate(range(0, 5, 2)):
                assert len(texts) == (i if i >= 2 else 0)
                yield tuple(column[lo:lo + 2] for column in columns)

        out = tmp_path / "out.csv"
        cli._write_floats(str(out), "x,y", chunks())
        assert texts == ["".join(eager[lo:lo + 2]).encode()
                         for lo in range(0, 5, 2)]
        assert read_bytes(out) == ("x,y\n" + "".join(eager)).encode()


class TestFormattingWorkers:
    """Float CSVs formatted by forked workers or in process.

    ``CHUNK_ROWS`` is cut to a few dozen rows, so that the pinned ``1e-3``
    grids span many chunks, and the usable CPU count is forced.  No worker
    may outlive its run (see ``no_worker_outlives_its_run``).
    """

    CASES = [
        (["integrate", "--n", "3", "--dx", "1e-3"], INTEGRATE_N3_DX1E3_SHA256),
        (["compare", "--n", "3", "--m", "10", "--dx", "1e-3"],
         COMPARE_N3_M10_DX1E3_SHA256),
    ]

    @pytest.fixture
    def cpus(self, monkeypatch):
        monkeypatch.setattr(cli, "CHUNK_ROWS", 40)

        def force(count):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: count)

        return force

    @pytest.fixture
    def no_workers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("workers were started")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)

    def run(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        return hashlib.sha256(read_bytes(out)).hexdigest()

    @pytest.mark.parametrize("argv, digest", CASES)
    def test_two_workers(self, tmp_path, cpus, argv, digest):
        cpus(2)
        assert self.run(tmp_path, argv) == digest

    @pytest.mark.parametrize("count", [2, 3])
    def test_k_workers_at_most_k_chunks_out(
        self, tmp_path, cpus, monkeypatch, count
    ):
        cpus(count)
        # the chunks the parent sent, and the texts it received and wrote
        alive, forked, sent, written = [], [], [0], [0]
        steps = _kernels.midpoint_steps
        context = multiprocessing.get_context("fork")
        send, receive = Connection.send, Connection.recv
        process, parent = context.Process, os.getpid()

        def counted_steps(*args):
            alive.append(len(multiprocessing.active_children()))
            return steps(*args)

        # a worker sends and receives, too: only the parent's are counted
        def counted_send(conn, *args):
            if os.getpid() == parent:
                sent[0] += 1
                assert sent[0] - written[0] <= count
            return send(conn, *args)

        def counted_receive(conn, *args):
            if os.getpid() == parent:
                written[0] += 1
            return receive(conn, *args)

        def counted_process(*args, **kwargs):
            forked.append(1)
            return process(*args, **kwargs)

        monkeypatch.setattr(_kernels, "midpoint_steps", counted_steps)
        monkeypatch.setattr(Connection, "send", counted_send)
        monkeypatch.setattr(Connection, "recv", counted_receive)
        monkeypatch.setattr(type(context), "Process",
                            staticmethod(counted_process))
        argv, digest = self.CASES[0]
        assert self.run(tmp_path, argv) == digest
        # every worker formats while the grid is still being stepped
        assert max(alive) == count
        assert len(forked) == count
        assert sent[0] == written[0] == 173  # 6,897 rows, 40 a chunk

    @pytest.mark.parametrize("argv, digest", CASES)
    def test_one_cpu_formats_in_process(
        self, tmp_path, cpus, no_workers, argv, digest
    ):
        cpus(1)
        assert self.run(tmp_path, argv) == digest

    def test_no_fork_formats_in_process(
        self, tmp_path, cpus, no_workers, monkeypatch
    ):
        cpus(2)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        argv, digest = self.CASES[0]
        assert self.run(tmp_path, argv) == digest

    def test_other_thread_formats_in_process(self, tmp_path, cpus, no_workers):
        cpus(2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            argv, digest = self.CASES[0]
            assert self.run(tmp_path, argv) == digest
        finally:
            release.set()
            waiter.join(60)
        assert not waiter.is_alive()

    def test_line_lists_never_start_workers(self, tmp_path, cpus, no_workers):
        cpus(2)
        out = tmp_path / "c.txt"
        assert cli.main(["coeffs", "--m", "140", "--out", str(out)]) == 0
        digest = hashlib.sha256(read_bytes(out)).hexdigest()
        assert digest == (
            "b3097ff2a90b724614e5404f54bd80d5fbe5eb7f284dd380e9e275ceaa4d7da3"
        )

    def test_worker_error_surfaces(self, tmp_path, cpus, monkeypatch):
        # only the workers call _chunk_text when there are two CPUs
        def fail(fields):
            raise LookupError(f"chunk at x={fields[0][0]}")

        cpus(2)
        monkeypatch.setattr(cli, "_chunk_text", fail)
        argv, _ = self.CASES[0]
        with pytest.raises(LookupError, match="chunk at"):
            cli.main(argv + ["--out", str(tmp_path / "out.csv")])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fails", [False, True], ids=["run", "error"])
    def test_every_connection_is_closed(
        self, tmp_path, cpus, monkeypatch, fails
    ):
        # a leaked Connection raises no ResourceWarning, so the CLI tests in
        # development mode cannot catch a dropped close
        # the ends of each pipe _write_floats makes through the context
        conns, context = [], multiprocessing.get_context("fork")
        pipe = context.Pipe

        def recorded_pipe(*args, **kwargs):
            ends = pipe(*args, **kwargs)
            conns.extend(ends)
            return ends

        def fail(fields):
            raise LookupError("chunk failed")

        cpus(2)
        monkeypatch.setattr(type(context), "Pipe",
                            staticmethod(recorded_pipe))
        argv, digest = self.CASES[0]
        if fails:
            monkeypatch.setattr(cli, "_chunk_text", fail)
            with pytest.raises(LookupError):
                self.run(tmp_path, argv)
        else:
            assert self.run(tmp_path, argv) == digest
        assert conns and all(conn.closed for conn in conns)

    def test_worker_death_surfaces(self, tmp_path, cpus, monkeypatch):
        # a worker that exits without sending its chunk closes its pipe
        def die(fields):
            os._exit(3)

        cpus(2)
        monkeypatch.setattr(cli, "_chunk_text", die)
        argv, _ = self.CASES[0]
        with pytest.raises(EOFError):
            cli.main(argv + ["--out", str(tmp_path / "out.csv")])
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_write_error_is_io_error(self, cpus, capsys):
        cpus(2)
        argv, _ = self.CASES[0]
        assert cli.main(argv + ["--out", "/dev/full"]) == cli.IO_ERROR
        assert "error:" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


class TestChunkBoundaries:
    """``_write_floats`` at 40-row chunks, on each side of a boundary.

    The rows come as an iterator of chunks of at most 40 rows, as a run
    hands them over, in ``array("d")`` columns as ``integrate``'s, or in
    ndarray views as ``compare``'s computed columns.  Chunk 0 waits until
    a second chunk comes or the chunks end, and that decides whether
    workers are forked.  The usable CPU count is forced, and workers are
    forked only where there are two CPUs and two chunks.
    """

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 39, 40, 41, 80, 81, 200])
    @pytest.mark.parametrize("ndarray", [False, True])
    def test_bytes_equal_the_eager_lines(
        self, tmp_path, monkeypatch, cpus, rows, ndarray
    ):
        monkeypatch.setattr(cli, "CHUNK_ROWS", 40)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        forks, get_context = [], multiprocessing.get_context

        def counted(method):
            forks.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", counted)
        values = ([i / 7 for i in range(rows)],
                  [math.sin(i) * 10.0 ** (i % 41 - 20) for i in range(rows)])
        eager = "".join(",".join(cli._fmt(v) for v in row) + "\n"
                        for row in zip(*values))
        make = np.array if ndarray else (lambda vals: array("d", vals))
        columns = [make(vals) for vals in values]
        chunks = (tuple(col[lo:lo + 40] for col in columns)
                  for lo in range(0, rows, 40))
        out = tmp_path / "out.csv"
        cli._write_floats(str(out), "x,y", chunks, ["# end"])
        assert read_bytes(out) == f"x,y\n{eager}# end\n".encode()
        assert bool(forks) == (cpus > 1 and rows > 40)
        assert multiprocessing.active_children() == []

    def test_widest_chunks_go_through_the_workers(self, tmp_path, monkeypatch):
        # a .17g field is at most 24 characters, as this one is, so a full
        # chunk of four such columns, with their commas and newlines, is
        # the longest text a chunk of the widest CSV can have
        widest = -2.2250738585072014e-308
        assert len(format(widest, ".17g")) == 24
        chunk = (array("d", [widest]) * cli.CHUNK_ROWS,) * 4
        text = cli._chunk_text(chunk)
        assert len(text) == cli.CHUNK_ROWS * 4 * 25
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        forks, get_context = [], multiprocessing.get_context

        def counted(method):
            forks.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", counted)
        out = tmp_path / "out.csv"
        cli._write_floats(str(out), "a,b,c,d", [chunk] * 2)
        assert forks == ["fork"]
        assert read_bytes(out) == b"a,b,c,d\n" + text * 2
        assert multiprocessing.active_children() == []

    def test_texts_of_any_length_come_back(self, tmp_path, monkeypatch):
        # each text is longer than CHUNK_ROWS * width * 25 bytes, which no
        # chunk's .17g text reaches, and comes back whole from a worker
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        forks, get_context = [], multiprocessing.get_context
        chunk_text = cli._chunk_text

        def counted(method):
            forks.append(method)
            return get_context(method)

        def padded(fields):
            return chunk_text(fields) * (cli.CHUNK_ROWS * 25)

        monkeypatch.setattr(multiprocessing, "get_context", counted)
        monkeypatch.setattr(cli, "_chunk_text", padded)
        chunks = [(array("d", [i]), array("d", [-i])) for i in range(3)]
        out = tmp_path / "out.csv"
        cli._write_floats(str(out), "x,y", chunks)
        texts = [b"%d,%d\n" % (i, -i) * (cli.CHUNK_ROWS * 25)
                 for i in range(3)]
        assert min(map(len, texts)) > cli.CHUNK_ROWS * 2 * 25
        assert forks == ["fork"]
        assert read_bytes(out) == b"x,y\n" + b"".join(texts)
        assert multiprocessing.active_children() == []

    # 80 samples, 2 chunks: the step after the second chunk passes xmax
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("command", ["integrate", "compare"])
    def test_run_ending_on_a_boundary(
        self, tmp_path, monkeypatch, cpus, command
    ):
        monkeypatch.setattr(cli, "CHUNK_ROWS", 40)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        cfg = IntegratorConfig(dx=0.125, xmax=9.875)
        r = solve_midpoint(5.0, cfg)
        assert len(r.xs) == 80 and r.termination == "reached_xmax"
        if command == "integrate":
            argv = []
            rows = zip(r.xs, r.Fs, r.Hs)
            lines = ["x,F,H"] + [",".join(map(cli._fmt, row)) for row in rows]
            lines.append("# first_zero=none")
        else:
            argv = ["--m", "10"]
            series = evaluate_table(compute_coefficients(10), Fraction(5))
            lines = ["x,series,numeric,abs_err"]
            for x, f in zip(r.xs, r.Fs):
                sv = eval_series_float(series, x)
                lines.append(",".join(map(cli._fmt, (x, sv, f, abs(sv - f)))))
        out = tmp_path / "out.csv"
        assert cli.main([command, "--n", "5", *argv, "--dx", "0.125",
                         "--xmax", "9.875", "--out", str(out)]) == 0
        assert read_bytes(out) == ("\n".join(lines) + "\n").encode()
        assert multiprocessing.active_children() == []


class TestMemory:
    """Float output holds one chunk of samples plus at most ``k`` texts.

    Holding the samples as Python floats, or the text of the whole file,
    would each add several MiB at these 69,000-row grids, and holding
    every sample 1.6 MiB (``integrate``) or 2.6 MiB (``compare``).
    """

    CASES = [
        (["integrate", "--n", "3", "--dx", "1e-4"], 4),
        (["compare", "--n", "3", "--m", "28", "--dx", "1e-4"], 6),
    ]

    @staticmethod
    def traced_peak(argv):
        # the warm-up fills the coefficient caches
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("argv, limit_mib", CASES)
    def test_traced_peak(self, tmp_path, argv, limit_mib):
        peak = self.traced_peak(argv + ["--out", str(tmp_path / "out.csv")])
        assert peak < limit_mib * 2**20

    @pytest.mark.parametrize("argv", [argv for argv, _ in CASES])
    def test_peak_does_not_grow_with_the_grid(self, tmp_path, argv):
        # 2 chunks at dx = 1e-3, 17 at 1e-4
        out = ["--out", str(tmp_path / "out.csv")]
        coarse = self.traced_peak(argv[:-1] + ["1e-3"] + out)
        fine = self.traced_peak(argv + out)
        assert fine - coarse < 2**19


class TestBench:
    def test_rows(self, tmp_path):
        out = tmp_path / "b.csv"
        cli.main(["bench", "--mmax", "40", "--step", "10", "--reps", "1",
                  "--out", str(out)])
        lines = read_lines(out)
        assert lines[0] == "m,seconds"
        ms = [int(line.split(",")[0]) for line in lines[1:]]
        secs = [float(line.split(",")[1]) for line in lines[1:]]
        assert ms == [10, 20, 30, 40]
        assert all(s >= 0.0 for s in secs)

    def test_step_validation(self, capsys, tmp_path):
        out = tmp_path / "unused.csv"
        for step, message in [
            ("1", f"argument --step: must be between 2 and {MAX_ORDER}"),
            ("20", "argument --step: must not exceed --mmax"),
        ]:
            with pytest.raises(SystemExit) as exc:
                cli.main(["bench", "--mmax", "10", "--step", step,
                          "--out", str(out)])
            assert exc.value.code == cli.USAGE_ERROR
            err = capsys.readouterr().err
            assert f"lane-emden bench: error: {message}" in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_mmax_above_the_order_bound_times_nothing(
        self, monkeypatch, capsys, tmp_path
    ):
        # the option's type is the one check of the order, and it fails
        # before the first timing
        def timed(m):
            raise AssertionError(f"timed m = {m}")

        monkeypatch.setattr(cli, "_time_once", timed)
        out = tmp_path / "unused.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--mmax", str(MAX_ORDER + 1), "--out",
                      str(out)])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert (f"lane-emden bench: error: argument --mmax: must be between"
                f" 2 and {MAX_ORDER}") in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mmax", ["0", "1"])
    def test_mmax_below_two_names_mmax(self, mmax, capsys, tmp_path):
        # no table of fewer than two entries can be timed, even with
        # --step left at its default
        out = tmp_path / "unused.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--mmax", mmax, "--out", str(out)])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert (f"lane-emden bench: error: argument --mmax: must be between"
                f" 2 and {MAX_ORDER}") in err
        assert "argument --step" not in err
        assert "Traceback" not in err
        assert not out.exists()


def _equals_form(argv):
    """``argv`` with every option's value attached by ``=``."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


class TestExitCodes:
    def test_success_returns_zero(self, tmp_path):
        out = tmp_path / "c.txt"
        assert cli.main(["coeffs", "--m", "2", "--out", str(out)]) == 0

    def test_unwritable_path_returns_io_error(self, capsys):
        rc = cli.main(["coeffs", "--m", "2",
                       "--out", "/nonexistent-dir/c.txt"])
        assert rc == cli.IO_ERROR
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == cli.USAGE_ERROR

    def test_negative_m_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "--m", "-2", "--out", "unused.txt"])
        assert exc.value.code == cli.USAGE_ERROR

    @pytest.mark.parametrize("argv", [
        ["integrate", "--n", "nan", "--dx", "0.1"],
        ["integrate", "--n", "-1", "--dx", "0.1"],
        ["compare", "--n", "inf", "--m", "4", "--dx", "0.1"],
        ["compare", "--n", "-1", "--m", "4", "--dx", "0.1"],
        ["integrate", "--n", "inf", "--dx", "0.1"],
        ["integrate", "--n=-inf", "--dx", "0.1"],
        ["compare", "--n", "nan", "--m", "4", "--dx", "0.1"],
    ])
    def test_bad_index_rejected(self, argv, capsys, tmp_path):
        out = tmp_path / "unused.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(out)])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert (f"lane-emden {argv[0]}: error: argument --n: must be finite "
                "and nonnegative") in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["integrate", "--n", "3", "--dx", "0.1", "--xmax", "inf"], "--xmax"),
        (["integrate", "--n", "3", "--dx", "0.1", "--xmax", "nan"], "--xmax"),
        (["integrate", "--n", "3", "--dx", "inf"], "--dx"),
        (["integrate", "--n", "3", "--dx", "nan"], "--dx"),
        (["compare", "--n", "3", "--m", "4", "--dx", "0.1", "--xmax", "inf"],
         "--xmax"),
        (["compare", "--n", "3", "--m", "4", "--dx", "inf"], "--dx"),
        (["integrate", "--n", "1", "--dx", "0"], "--dx"),
        (["integrate", "--n", "3", "--dx", "-1"], "--dx"),
        (["integrate", "--n", "3", "--dx", "0.1", "--xmax", "0"], "--xmax"),
        (["integrate", "--n", "3", "--dx", "0.1", "--xmax", "-1"], "--xmax"),
        (["compare", "--n", "3", "--m", "4", "--dx", "0"], "--dx"),
        (["compare", "--n", "3", "--m", "4", "--dx", "-1"], "--dx"),
        (["compare", "--n", "3", "--m", "4", "--dx", "0.1", "--xmax", "0"],
         "--xmax"),
        (["compare", "--n", "3", "--m", "4", "--dx", "0.1", "--xmax", "-1"],
         "--xmax"),
        (["integrate", "--n", "1", "--dx", "1", "--xmax", "2"], "--xmax"),
    ])
    def test_nonfinite_step_or_cap_rejected(
        self, argv, option, capsys, tmp_path
    ):
        out = tmp_path / "unused.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(out)])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert f"lane-emden {argv[0]}: error: argument {option}: must " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["integrate", "--n", "-inf", "--dx", "0.1"],
         "argument --n: must be finite and nonnegative"),
        (["compare", "--n", "-1e-3", "--m", "4", "--dx", "0.1"],
         "argument --n: must be finite and nonnegative"),
        (["integrate", "--n", "3", "--dx", "-1e-3"],
         "argument --dx: must be finite and > 0"),
        (["compare", "--n", "3", "--m", "4", "--dx", "-inf"],
         "argument --dx: must be finite and > 0"),
        (["integrate", "--n", "3", "--dx", "0.1", "--xmax", "-1e3"],
         "argument --xmax: must be finite and > 0"),
        (["integrate", "--n", "3", "--xmax", "-inf", "--dx", "0.1"],
         "argument --xmax: must be finite and > 0"),
        (["integrate", "--n", "-x", "--dx", "0.1"],
         "argument --n: invalid float value: '-x'"),
    ])
    def test_negative_value_after_option(self, argv, message, capsys,
                                         tmp_path):
        # "--dx -1e-3" reaches the check as "--dx=-1e-3" does
        out = tmp_path / "unused.csv"
        errors = []
        for args in (argv, _equals_form(argv)):
            with pytest.raises(SystemExit) as exc:
                cli.main(args + ["--out", str(out)])
            assert exc.value.code == cli.USAGE_ERROR
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert f"lane-emden {argv[0]}: error: {message}\n" in errors[0]
        assert "Traceback" not in errors[0]
        assert not out.exists()

    def test_negative_rational_after_option(self, capsys):
        argv = ["eval", "--n", "-3/2", "--m", "4"]
        assert cli.main(argv) == 0
        assert cli.main(_equals_form(argv)) == 0
        text = capsys.readouterr().out
        assert text == 2 * "a[0] = 1\na[2] = -1/6\na[4] = -1/80\n"

    @pytest.mark.parametrize("argv, option", [
        (["integrate", "--n", "--dx", "0.1"], "--n"),
        (["integrate", "--n", "3", "--dx", "--xmax", "2"], "--dx"),
    ])
    def test_option_after_option_is_not_a_value(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", "unused.csv"])
        assert exc.value.code == cli.USAGE_ERROR
        assert f"argument {option}: expected one argument" in (
            capsys.readouterr().err
        )

    @pytest.fixture
    def no_work(self, monkeypatch):
        """Fail the test should a table be built or a run be started."""
        def never(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "compute_coefficients", never)
        monkeypatch.setattr(cli, "_midpoint_run", never)

    @pytest.mark.parametrize("argv", [
        ["integrate", "--n", "3", "--dx", "1e-9"],
        ["compare", "--n", "3", "--m", "4", "--dx", "1e-5",
         "--xmax", "1e3"],
    ])
    def test_too_many_grid_steps_rejected(
        self, argv, capsys, tmp_path, no_work
    ):
        # rejected while building the config; should that check go, the
        # run must still not start, for it would fill memory
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "unused.csv")])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert (f"lane-emden {argv[0]}: error: argument --dx: xmax/dx must "
                f"not exceed {MAX_STEPS} grid steps") in err
        assert "Traceback" not in err
        assert not (tmp_path / "unused.csv").exists()

    @pytest.mark.parametrize("argv, option", [
        (["compare", "--n", "nan", "--m", "400", "--dx", "0.1"], "--n"),
        (["compare", "--n", "3", "--m", "400", "--dx", "inf"], "--dx"),
    ])
    def test_inputs_checked_before_any_work(
        self, argv, option, capsys, tmp_path, no_work
    ):
        # an order-400 table takes seconds to build
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "unused.csv")])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert f"lane-emden compare: error: argument {option}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        # the order-10 seed's coefficients are past the float range
        ["integrate", "--n", "1e300", "--dx", "0.1"],
        # the seed's are not, but a_28(n) of the m=28 series is
        ["compare", "--n", "1e30", "--m", "28", "--dx", "0.1"],
    ])
    def test_float_coefficient_overflow_rejected(
        self, argv, capsys, tmp_path
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "unused.csv")])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert f"lane-emden {argv[0]}: error: argument --n" in err
        assert "Traceback" not in err
        assert not (tmp_path / "unused.csv").exists()

    @pytest.mark.parametrize("n_value", ["1000", "1e5", "1e30"])
    def test_seed_outside_series_radius_rejected(
        self, n_value, capsys, tmp_path
    ):
        # for n >= 5 there is no zero, yet at this step the order-10 seed
        # used to go negative and report one
        out = tmp_path / "unused.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["integrate", "--n", n_value, "--dx", "0.1",
                      "--out", str(out)])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert "lane-emden integrate: error: argument --dx" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no integer digit limit")
    @pytest.mark.parametrize("n_value, m", [
        ("1" + "0" * 1000, "20"),
        ("99999999999999999999", "400"),
    ], ids=["n=10**1000", "n=10**20-1"])
    def test_eval_past_the_digit_limit_rejected(
        self, n_value, m, capsys, tmp_path
    ):
        # a[k](n) has more than 4300 digits: too many for str()
        out = tmp_path / "unused.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--n", n_value, "--m", m, "--out", str(out)])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert "lane-emden eval: error: argument --n" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_seed_inside_series_radius_accepted(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main(["integrate", "--n", "3", "--dx", "0.1",
                         "--out", str(out)]) == 0
        zero = float(read_lines(out)[-1].removeprefix("# first_zero="))
        assert zero == pytest.approx(6.9, abs=0.1)

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--out", "unused.txt", "--m"],
        ["eval", "--n", "3", "--m"],
        ["compare", "--n", "3", "--dx", "0.1", "--out", "unused.csv",
         "--m"],
        ["bench", "--out", "unused.csv", "--mmax"],
    ])
    def test_order_is_bounded(self, argv, capsys):
        # parses only: a table of order MAX_ORDER takes seconds to compute
        parser = cli.build_parser()
        args = parser.parse_args(argv + [str(MAX_ORDER)])
        assert getattr(args, argv[-1].lstrip("-")) == MAX_ORDER
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + [str(MAX_ORDER + 1)])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        low = 2 if argv[0] == "bench" else 0
        assert f"argument {argv[-1]}: must be between {low} and {MAX_ORDER}" \
            in err
        assert "Traceback" not in err
        # a[k] has degree k/2 - 1: every table a command prints parses back
        assert MAX_ORDER // 2 - 1 <= MAX_DEGREE

    @pytest.mark.parametrize("bad", [0, cli.MAX_REPS + 1])
    def test_reps_is_bounded(self, bad, capsys):
        # parses only: MAX_REPS timings of a table would take a while
        parser = cli.build_parser()
        argv = ["bench", "--mmax", "10", "--out", "unused.csv", "--reps"]
        args = parser.parse_args(argv + [str(cli.MAX_REPS)])
        assert args.reps == cli.MAX_REPS
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + [str(bad)])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert f"argument --reps: must be between 1 and {cli.MAX_REPS}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, option, kind", [
        (["integrate", "--dx", "0.1", "--n"], "--n", "float"),
        (["compare", "--n", "3", "--m", "4", "--dx"], "--dx", "float"),
        (["integrate", "--n", "3", "--dx", "0.1", "--xmax"], "--xmax",
         "float"),
        (["coeffs", "--m"], "--m", "int"),
        (["bench", "--mmax"], "--mmax", "int"),
        (["bench", "--mmax", "10", "--step"], "--step", "int"),
        (["bench", "--mmax", "10", "--reps"], "--reps", "int"),
    ])
    def test_non_number_rejected(self, argv, option, kind, capsys, tmp_path):
        out = tmp_path / "unused.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["abc", "--out", str(out)])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        # the error names the value's type, not a function of the parser
        assert f"argument {option}: invalid {kind} value: 'abc'" in err
        assert "invalid _" not in err
        assert "Traceback" not in err
        assert not out.exists()


class TestEntryPoint:
    def test_console_script_help(self, child_env):
        """The ``[project.scripts]`` entry resolves to a working ``main``.

        The child runs the entry's target the way the generated
        ``lane-emden`` script does, so no install is needed and the code
        under test is the copy this process imported.
        """
        import subprocess
        import sys
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module, func = scripts["lane-emden"].split(":")
        code = (
            f"import sys; from {module} import {func};"
            f"sys.argv[0] = 'lane-emden'; sys.exit({func}())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "--help"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "coeffs" in proc.stdout

    @pytest.mark.parametrize("setting, written", [("1", "True"),
                                                  (None, "False")])
    def test_child_writes_bytecode_as_the_parent(
        self, child_env, monkeypatch, setting, written
    ):
        import subprocess
        import sys

        if setting is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", setting)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; print(sys.dont_write_bytecode)"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == written


class TestColdStart:
    """numpy is imported only where array math runs: by ``compare``.

    ``multiprocessing`` is imported only where a float CSV has a second
    chunk to format.  Each case runs in a fresh interpreter, since this
    one has both loaded.
    """

    def run_child(self, child_env, *argvs, module="numpy"):
        code = (
            "import json, sys; from lane_emden.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            f"print({module!r} in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_exact_commands_leave_numpy_unloaded(self, child_env, tmp_path):
        loaded = self.run_child(
            child_env,
            ["coeffs", "--m", "10", "--out", str(tmp_path / "c.txt")],
            ["eval", "--n", "3", "--m", "6"],
            ["bench", "--mmax", "4", "--step", "2", "--reps", "1",
             "--out", str(tmp_path / "b.csv")],
        )
        assert loaded == "False"

    def test_exact_commands_leave_multiprocessing_unloaded(
        self, child_env, tmp_path
    ):
        loaded = self.run_child(
            child_env,
            ["coeffs", "--m", "10", "--out", str(tmp_path / "c.txt")],
            ["eval", "--n", "3", "--m", "6"],
            ["bench", "--mmax", "4", "--step", "2", "--reps", "1",
             "--out", str(tmp_path / "b.csv")],
            module="multiprocessing",
        )
        assert loaded == "False"

    def test_integrate_leaves_numpy_unloaded(self, child_env, tmp_path):
        out = tmp_path / "r.csv"
        loaded = self.run_child(
            child_env,
            ["integrate", "--n", "3", "--dx", "1e-2", "--out", str(out)],
        )
        assert loaded == "False"
        digest = hashlib.sha256(read_bytes(out)).hexdigest()
        assert digest == INTEGRATE_N3_DX1E2_SHA256

    def test_compare_loads_numpy(self, child_env, tmp_path):
        out = tmp_path / "cmp.csv"
        loaded = self.run_child(
            child_env,
            ["compare", "--n", "3", "--m", "10", "--dx", "1e-3",
             "--out", str(out)],
        )
        assert loaded == "True"
        digest = hashlib.sha256(read_bytes(out)).hexdigest()
        assert digest == COMPARE_N3_M10_DX1E3_SHA256
