"""The table of pinned output digests: its loader, its checker, and the
benchmark's copy of its digests."""

import importlib
import sys
from pathlib import Path

import pytest

import lane_emden.cli
import pinned

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
PINNED = pinned.load()

# two rows that take well under a second as fresh processes
FAST = ("coeffs --m 10", "integrate --n 3 --dx 1e-2")
MODULE = [sys.executable, "-m", "lane_emden.cli"]


def test_table_has_every_pinned_output():
    assert len(PINNED) == 12


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported as ``perfbench/test_smoke.py``
    imports it: its ``@dataclass`` needs it registered in ``sys.modules``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("name", ["coeffs", "integrate", "compare"])
def test_benchmark_digests_are_rows_of_the_table(
    workloads, tmp_path, name, smoke
):
    w = workloads.build(name, seed=0, smoke=smoke, work_dir=tmp_path,
                        reference_path=HERE / "reference_tables.py",
                        lane=lane_emden)
    argv = " ".join(w.argv)
    assert argv in PINNED
    assert PINNED[argv] == w.sha256


class TestCheck:
    def rows(self):
        return {argv: PINNED[argv] for argv in FAST}

    def test_pinned_rows_pass(self, child_env):
        assert pinned.check(self.rows(), MODULE, env=child_env()) == {}

    def test_a_flipped_digit_fails_its_row_alone(self, child_env):
        rows = self.rows()
        digest = rows[FAST[1]]
        rows[FAST[1]] = format(int(digest[0], 16) ^ 1, "x") + digest[1:]
        failed = pinned.check(rows, MODULE, env=child_env())
        assert list(failed) == [FAST[1]]
        assert failed[FAST[1]] == f"sha256 {digest}"

    def test_a_nonzero_exit_fails_its_row(self, child_env):
        rows = {"coeffs --m -1": PINNED["coeffs --m 10"]}
        failed = pinned.check(rows, MODULE, env=child_env())
        assert list(failed) == ["coeffs --m -1"]
        assert failed["coeffs --m -1"].startswith("exit 2: usage:")

    def test_a_missing_output_fails_its_row_and_the_rest_run(self):
        # each row exits 0 but writes no --out file
        failed = pinned.check(self.rows(), [sys.executable, "-c", "pass"])
        assert failed == {argv: "no output file" for argv in FAST}


class TestLoad:
    DIGEST = "0123456789abcdef" * 4

    def load(self, tmp_path, text):
        path = tmp_path / "table.txt"
        path.write_text(text)
        return pinned.load(path)

    def test_repeated_argv_rejected(self, tmp_path):
        text = f"{self.DIGEST}  coeffs --m 10\n" * 2
        with pytest.raises(ValueError, match="repeated argv"):
            self.load(tmp_path, text)

    @pytest.mark.parametrize("row", [
        f"{DIGEST[:-1]}  coeffs --m 10",        # 63 hex digits
        f"{DIGEST}0  coeffs --m 10",            # 65
        f"{DIGEST[:-1]}g  coeffs --m 10",       # not hex
        f"{DIGEST.upper()}  coeffs --m 10",     # not sha256sum's case
        f"{DIGEST} coeffs --m 10",              # one space
        f"{DIGEST}  coeffs  --m 10",            # two spaces in the argv
        f"{DIGEST}  ",                          # no argv
    ])
    def test_malformed_row_rejected(self, tmp_path, row):
        with pytest.raises(ValueError, match="not '<sha256>  <argv>'"):
            self.load(tmp_path, row + "\n")

    @pytest.mark.parametrize("text", ["", "# only a note\n\n"])
    def test_no_rows_rejected(self, tmp_path, text):
        with pytest.raises(ValueError, match="no rows"):
            self.load(tmp_path, text)


def test_script_prints_each_failing_row(monkeypatch, capsys):
    row = next(iter(PINNED))
    monkeypatch.setattr(pinned, "check",
                        lambda rows, command: {row: "exit 2: usage"})
    assert pinned.main(["lane-emden"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{PINNED[row]}  {row}: exit 2: usage",
                   f"{len(PINNED) - 1} of {len(PINNED)} pinned outputs match"]
    monkeypatch.setattr(pinned, "check", lambda rows, command: {})
    assert pinned.main(["lane-emden"]) == 0
