"""Command line interface: formats, determinism, exit codes."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from lane_emden import cli

GOLDEN_M6 = b"000;1\n002;-1/6\n004;n/120\n006;-n*(8*n - 5)/15120\n"


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
    degree up to 70.
    """

    @pytest.mark.parametrize("argv, digest", [
        (["integrate", "--n", "3", "--dx", "1e-2"],
         "8fc9e770aab2e2e713d6b74e116f608f59956df9feb36d2bcd2951926ce7d819"),
        (["compare", "--n", "3", "--m", "10", "--dx", "1e-2"],
         "9ee1f5818bb42ca803e683a1ca95757ecdcc1833944285c733d104e1440e6dcd"),
        (["integrate", "--n", "3", "--dx", "1e-3"],
         "07b6d081a85ef1d7f1c14e1da5de932ddadf9a20608f20fae40981092f73ec3d"),
        (["compare", "--n", "3", "--m", "10", "--dx", "1e-3"],
         "400d978875c35ad216155469a3426df95b8a9e3f057048ac29989c6c33b80a2e"),
        (["coeffs", "--m", "10"],
         "acdd8af764755db6c3a90103eb87e7d5bae445b413727331270c66ea86414ccc"),
        (["coeffs", "--m", "140"],
         "b3097ff2a90b724614e5404f54bd80d5fbe5eb7f284dd380e9e275ceaa4d7da3"),
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
