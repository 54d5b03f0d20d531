"""Smoke tests of the benchmark at tiny sizes (m=10, dx=1e-2).

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_metric_is_printed_with_its_unit():
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0.3",
         "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    *table, last = child.stdout.strip().split("\n")
    table = "\n".join(table)
    results = json.loads(last)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]]
    declared += list(run.REPORT_ONLY.items())
    assert sorted(results) == sorted(workloads.NAMES)
    for name, result in results.items():
        assert result["correct"], name
        assert result["metrics"]["error_rate"]["value"] == 0
    # Only the c table goes unread where nothing checks it against powers.
    assert results["coeffs"]["metrics"]["exact.wrap_useful_frac"]["value"] == 0.5
    assert results["oracles"]["metrics"]["exact.wrap_useful_frac"]["value"] == 1.0
    for metric, unit in declared:
        line = re.compile(rf"^  {re.escape(metric)} +\S+  {re.escape(unit)}$", re.M)
        # first_zero_err exists for the integrate workload only.
        expected = 1 if metric == "first_zero_err" else len(workloads.NAMES)
        assert len(line.findall(table)) == expected, metric


def test_a_flipped_output_byte_is_counted_in_error_rate(tmp_path, monkeypatch):
    lane = run.import_package()
    write_lines = lane.cli._write_lines

    def write_one_byte_flipped(out_path, lines):
        write_lines(out_path, lines)
        data = bytearray(Path(out_path).read_bytes())
        data[len(data) // 2] ^= 1
        Path(out_path).write_bytes(data)

    monkeypatch.setattr(lane.cli, "_write_lines", write_one_byte_flipped)
    loop, _, details = run.run_workload(
        lane, "coeffs", seed=0, seconds=0.2, trace=False, smoke=True,
        work_dir=tmp_path,
    )
    assert loop.attempted > 0
    assert loop.failed == loop.attempted
    assert details["error_rate"] == 1.0


def test_a_stale_output_file_is_not_accepted(tmp_path, monkeypatch):
    lane = run.import_package()
    main = lane.cli.main
    calls = []

    def writes_only_once(argv):
        calls.append(argv)
        return main(argv) if len(calls) == 1 else 0

    monkeypatch.setattr(lane.cli, "main", writes_only_once)
    loop, _, details = run.run_workload(
        lane, "coeffs", seed=0, seconds=0.2, trace=False, smoke=True,
        work_dir=tmp_path,
    )
    # The warm-up wrote the right bytes; every measured call wrote nothing.
    assert loop.attempted > 0
    assert loop.failed == loop.attempted
    assert details["error_rate"] == 1.0


def test_tracing_leaves_the_package_as_it_was():
    lane = run.import_package()
    table_cls = lane.series.CoefficientTable
    before = dict(vars(table_cls)), lane.cli.compute_coefficients
    tracer = spans.Tracer()
    tracer.install()
    traced = tracer.span(spans.ROOT, lambda: lane.series.compute_coefficients(4).a)
    assert traced() == lane.series.compute_coefficients(4).a
    tracer.uninstall()
    assert (dict(vars(table_cls)), lane.cli.compute_coefficients) == before
    assert (tracer.tables_read, tracer.tables_wrapped) == (1, 2)
