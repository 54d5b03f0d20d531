"""Command line interface: formats, determinism, exit codes."""

import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from lane_emden import cli
from lane_emden.parsing import MAX_DEGREE
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

    def test_xmax_inside_seed_region_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["integrate", "--n", "1", "--dx", "1", "--xmax", "2",
                      "--out", "unused.csv"])
        assert exc.value.code == cli.USAGE_ERROR


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
    writer.  The last two cases, a CSV coefficient file and an ``eval`` at
    a rational index with a denominator, were pinned from the output of
    the ``Fraction``-backed ``IndexPolynomial``.
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
    ])
    def test_sha256(self, tmp_path, argv, digest):
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(read_bytes(out)).hexdigest() == digest


class TestFloatLines:
    def test_every_slice_matches_the_eager_lines(self):
        columns = (np.array([0.0, 0.1, 1e300, -0.0, 5e-324]),
                   np.array([1.0, 2.0 / 3.0, math.inf, 1e-7, -2.5]))
        eager = ["x,y"] + [",".join(cli._fmt(v) for v in row)
                           for row in zip(*columns)] + ["# end"]
        lines = cli._FloatLines(["x,y"], columns, ["# end"])
        assert len(lines) == len(eager)
        for start in range(len(eager) + 1):
            for stop in range(len(eager) + 2):
                assert lines[start:stop] == eager[start:stop]

    @pytest.mark.parametrize("span", [slice(None, None, 2),
                                      slice(None, None, -1)])
    def test_step_other_than_one_rejected(self, span):
        lines = cli._FloatLines(["x"], (np.arange(4.0),))
        with pytest.raises(ValueError, match="step"):
            lines[span]


class TestFormattingWorkers:
    """Float CSVs formatted by forked workers or in process.

    ``CHUNK_ROWS`` is cut to a few dozen rows, so that the pinned ``1e-3``
    grids span many chunks, and the usable CPU count is forced.
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

    def test_slow_worker_takes_fewer_chunks(self):
        # two thread "workers" behind real pipes, one 20 times slower
        starts = range(0, 40 * 30, 40)
        window = 4  # 2 * workers
        log, taken = [], {}

        def work(conn, name, delay):
            taken[name] = []
            try:
                while True:
                    start = conn.recv()
                    log.append(("sent", start // 40))
                    taken[name].append(start)
                    time.sleep(delay)
                    conn.send(f"chunk {start}")
            except EOFError:
                conn.close()

        conns, threads = [], []
        for name, delay in (("fast", 0.001), ("slow", 0.02)):
            conn, child = multiprocessing.Pipe()
            conns.append(conn)
            thread = threading.Thread(target=work, args=(child, name, delay))
            thread.start()
            threads.append(thread)
        texts = []
        try:
            for text in cli._collect_chunks(conns, starts):
                texts.append(text)
                log.append(("yielded", None))
        finally:
            for conn in conns:
                conn.close()
            for thread in threads:
                thread.join(10)
        assert texts == [f"chunk {start}" for start in starts]
        assert len(taken["slow"]) < len(taken["fast"])
        yielded = 0
        for event, chunk in log:
            if event == "yielded":
                yielded += 1
            else:
                assert chunk < yielded + window

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
        # only the workers call _chunk_text when there are two of them
        def fail(lines, start):
            raise LookupError(f"chunk at {start}")

        cpus(2)
        monkeypatch.setattr(cli, "_chunk_text", fail)
        argv, _ = self.CASES[0]
        with pytest.raises(LookupError, match="chunk at"):
            cli.main(argv + ["--out", str(tmp_path / "out.csv")])
        assert multiprocessing.active_children() == []

    def test_worker_death_surfaces(self, tmp_path, cpus, monkeypatch):
        # a worker that exits without sending its chunk closes its pipe
        def die(lines, start):
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


class TestMemory:
    """Float output holds 24 bytes a sample plus one chunk of text.

    Holding the samples as Python floats, or the text of the whole file,
    would each add several MiB at these 69,000-row grids.
    """

    @pytest.mark.parametrize("argv, limit_mib", [
        (["integrate", "--n", "3", "--dx", "1e-4"], 4),
        (["compare", "--n", "3", "--m", "28", "--dx", "1e-4"], 6),
    ])
    def test_traced_peak(self, tmp_path, argv, limit_mib):
        argv = argv + ["--out", str(tmp_path / "out.csv")]
        # the warm-up fills the coefficient caches
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20


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

    def test_step_validation(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--mmax", "10", "--step", "20",
                      "--out", "unused.csv"])
        assert exc.value.code == cli.USAGE_ERROR


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
    ])
    def test_bad_index_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", "unused.csv"])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert "argument --n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, option", [
        (["integrate", "--n", "3", "--dx", "0.1", "--xmax", "inf"], "--xmax"),
        (["integrate", "--n", "3", "--dx", "0.1", "--xmax", "nan"], "--xmax"),
        (["integrate", "--n", "3", "--dx", "inf"], "--dx"),
        (["integrate", "--n", "3", "--dx", "nan"], "--dx"),
        (["compare", "--n", "3", "--m", "4", "--dx", "0.1", "--xmax", "inf"],
         "--xmax"),
        (["compare", "--n", "3", "--m", "4", "--dx", "inf"], "--dx"),
    ])
    def test_nonfinite_step_or_cap_rejected(
        self, argv, option, capsys, tmp_path
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "unused.csv")])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert f"argument {option}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["integrate", "--n", "3", "--dx", "1e-9"],
        ["compare", "--n", "3", "--m", "4", "--dx", "1e-5",
         "--xmax", "1e3"],
    ])
    def test_too_many_grid_steps_rejected(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        # rejected while building the config; should that check go, the
        # run must still not start, for it would fill memory
        def never(*args):
            raise AssertionError("solver started")

        monkeypatch.setattr(cli, "solve_midpoint", never)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "unused.csv")])
        assert exc.value.code == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert "grid steps" in err
        assert "Traceback" not in err
        assert not (tmp_path / "unused.csv").exists()

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
        assert "argument --n" in err
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
        assert "argument --dx" in err
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
        assert f"argument {argv[-1]}: must be <= {MAX_ORDER}" in err
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

    def test_nonpositive_dx_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["integrate", "--n", "1", "--dx", "0",
                      "--out", "unused.csv"])
        assert exc.value.code == cli.USAGE_ERROR


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


class TestColdStart:
    """numpy is imported only by the commands that build float arrays.

    Each case runs in a fresh interpreter, since this one has numpy loaded.
    """

    def run_child(self, child_env, *argvs):
        code = (
            "import json, sys; from lane_emden.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "print('numpy' in sys.modules)"
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

    def test_integrate_loads_numpy(self, child_env, tmp_path):
        out = tmp_path / "r.csv"
        loaded = self.run_child(
            child_env,
            ["integrate", "--n", "3", "--dx", "1e-2", "--out", str(out)],
        )
        assert loaded == "True"
        digest = hashlib.sha256(read_bytes(out)).hexdigest()
        assert digest == INTEGRATE_N3_DX1E2_SHA256
