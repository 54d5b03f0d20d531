"""Benchmark of the lane_emden package: end-to-end and per-layer metrics.

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src/`` directory, so nothing needs to be installed::

    python3 perfbench/run.py --workload coeffs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, end to end
    python3 perfbench/run.py --trace 1        # ... and the traced runs too
    python3 perfbench/run.py --smoke --seconds 1

With ``--workload`` the process runs that one workload as a closed loop:
one caller, no threads, the next operation starts when the previous one
returns.  One warm-up operation is discarded, then operations run for
``--seconds`` and every output is checked (see workloads.py).  A failed or
wrong operation is counted, never fatal.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The end-to-end times are taken
at a reference speed of the host (see ``SpeedProbe`` and WORKLOADS.md,
"Speed state").  The line before it is a report with the details behind
them, the wall times they came from and the environment they were taken in.

``--trace 1`` runs half the time untraced and half with spans installed
(spans.py), and writes the spans to ``.bench_out/spans_<workload>.json``.
Without ``--workload`` every workload runs in its own fresh process and the
metrics are printed as a table.  ``--smoke`` shrinks every workload to a
tiny size (m=10, dx=1e-2).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "reference_tables.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
SETUP_CHILD = "import lane_emden.cli; print('ready', flush=True)"
# The traced operations' self times must add up to their measured wall time
# within this share, plus this much per operation for the bookkeeping of the
# root span's own wrapper; more means time escaped the spans.
SELF_SUM_TOLERANCE = 0.01
SELF_SUM_SLACK_S = 1e-4
# The host's speed probe (see SpeedProbe): how often it runs inside an
# operation, and its time at the reference speed.
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 8e-4


def _probe_work() -> int:
    """A fixed piece of pure-Python work, 0.8 ms at the reference speed."""
    x = 1
    for i in range(3000):
        x = (x * 48271 + i) % 2147483647
    return x


class SpeedProbe:
    """Times ``_probe_work``, to follow the speed the host gives the process.

    The virtual CPUs of a shared host change speed by up to 2x, in blocks
    of seconds to minutes, and the workloads slow down with them.  The probe
    is timed before and after every operation and, while an operation runs
    under ``during``, every ``PROBE_INTERVAL_S`` from a SIGALRM handler.
    ``at_reference`` turns a wall time into the time it would have taken at
    the reference speed, where the probe takes ``PROBE_REF_S``.
    """

    def __init__(self):
        self.times = []

    def sample(self, *_signal) -> None:
        start = perf_counter()
        _probe_work()
        self.times.append(perf_counter() - start)

    @contextmanager
    def during(self):
        """Sample every ``PROBE_INTERVAL_S`` of wall time inside the block."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # A signal still pending now is dropped, not fatal.
            signal.signal(signal.SIGALRM, signal.SIG_IGN)

    @staticmethod
    def at_reference(seconds: float, probe_times: list) -> float:
        return seconds * PROBE_REF_S / statistics.fmean(probe_times)


@dataclass
class Loop:
    """What a closed loop of operations did."""

    samples: list = field(default_factory=list)  # seconds at reference speed
    wall: list = field(default_factory=list)  # wall seconds per operation
    attempted: int = 0
    failed: int = 0
    units: int = 0  # work units of the operations that were correct
    problems: list = field(default_factory=list)
    unsound: list = field(default_factory=list)  # faults of the run itself
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    def add(self, other: "Loop") -> None:
        self.samples += other.samples
        self.wall += other.wall
        self.attempted += other.attempted
        self.failed += other.failed
        self.units += other.units
        self.problems += other.problems
        self.unsound += other.unsound
        self.probe.times += other.probe.times


def closed_loop(workload, seconds: float, run, probe_during: bool) -> Loop:
    """Call ``run`` back to back for ``seconds``, timing and checking each."""
    loop = Loop()
    start = perf_counter()
    while perf_counter() - start < seconds:
        operate(workload, run, loop, probe_during)
    return loop


def operate(workload, run, loop: Loop, probe_during: bool = False) -> None:
    """One timed operation, then its untimed check, recorded in ``loop``.

    With ``probe_during`` the speed probe also runs inside the operation;
    its own time is taken out of the operation's time at reference speed.
    """
    loop.attempted += 1
    probe = loop.probe
    try:
        workload.prepare()
        first = len(probe.times)
        probe.sample()
        inside = len(probe.times)
        began = perf_counter()
        try:
            with probe.during() if probe_during else nullcontext():
                raw = run()
        finally:
            wall = perf_counter() - began
            probed = sum(probe.times[inside:])
            probe.sample()
            loop.wall.append(wall)
            loop.samples.append(
                probe.at_reference(wall - probed, probe.times[first:])
            )
        units, problems = workload.check(raw)
    # A crashing operation or check is counted, never fatal; SystemExit is
    # how the CLI's argument parser reports a usage error.
    except (Exception, SystemExit) as exc:
        units, problems = 0, [f"{type(exc).__name__}: {exc}"]
    if problems:
        loop.failed += 1
        if len(loop.problems) < 5:
            loop.problems += problems[:1]
    else:
        loop.units += units


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With fewer than 21 samples no
    percentile at or above the median has ten beyond it, and the median is
    reported as percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n - 11 >= n // 2:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ordered), 50.0


def measure_setup(repeats: int):
    """Seconds from process start until ``lane_emden.cli`` is imported.

    Returns the times at reference speed, from the speed probe timed just
    before and just after each set-up process, and the wall times.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    times, wall = [], []
    for _ in range(repeats):
        probe = SpeedProbe()
        probe.sample()
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD],
            stdout=subprocess.PIPE, env=env, cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            wall.append(perf_counter() - start)
            child.stdout.read()
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError("the set-up child could not import lane_emden.cli")
        probe.sample()
        times.append(probe.at_reference(wall[-1], probe.times))
    return times, wall


def cpu_jiffies():
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``, or None."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    # user nice system idle iowait irq softirq steal; guest time is already
    # counted in user and nice.
    ticks = [int(v) for v in fields[1:9]]
    return ticks[7], sum(ticks)


def speed_state(probe_times, jiffies_before, jiffies_after) -> dict:
    """How fast the host ran this process during its measuring window."""
    steal = None
    if jiffies_before and jiffies_after and jiffies_after[1] > jiffies_before[1]:
        steal = (jiffies_after[0] - jiffies_before[0]) / (
            jiffies_after[1] - jiffies_before[1]
        )
    p50 = statistics.median(probe_times)
    q1, _, q3 = statistics.quantiles(probe_times, n=4)
    return {
        "probe_p50_s": p50,
        "probe_spread": (q3 - q1) / p50,
        "probe_samples": len(probe_times),
        "steal_frac": steal,
    }


def import_package():
    sys.path.insert(0, str(SRC))
    import lane_emden.cli  # noqa: F401  (binds lane_emden.cli)

    return sys.modules["lane_emden"]


def environment(lane) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = git.stdout.strip() or None
    return {
        "backend": lane.backend_name(),
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
    }


def coeff_bits_max(tables) -> int:
    """Largest bit length among the kernel's integer numerators and denominators."""
    if tables is None:
        return 0
    a_num, a_den, c_num, c_den = tables
    ints = [v for poly in a_num + c_num for v in poly] + list(a_den) + list(c_den)
    return max(abs(v).bit_length() for v in ints)


def growth_exponent(kernel, m_lo: int, m_hi: int) -> float:
    """Log-log slope of kernel time between two table sizes."""
    times = []
    for m in (m_lo, m_hi):
        start = perf_counter()
        kernel(m)
        times.append(perf_counter() - start)
    return math.log(times[1] / times[0]) / math.log(m_hi / m_lo)


def format_floor_s(csv: bytes) -> float:
    """One ``'{:.17g},...'.format`` pass over the float columns of ``csv``."""
    rows = [
        line.split(",") for line in csv.decode("ascii").split("\n")[1:]
        if line and not line.startswith("#")
    ]
    columns = [list(map(float, col)) for col in zip(*rows)]
    fmt = ",".join(["{:.17g}"] * len(columns)).format
    start = perf_counter()
    list(map(fmt, *columns))
    return perf_counter() - start


def run_workload(lane, name, *, seed, seconds, trace, smoke, work_dir):
    """Run one workload in this process; return (loop, metrics, details)."""
    workload = workloads.build(
        name, seed=seed, smoke=smoke, work_dir=work_dir,
        reference_path=REFERENCE, lane=lane,
    )
    operate(workload, workload.run, Loop())  # warm-up, discarded
    jiffies_before = cpu_jiffies()
    if trace:
        loop, metrics, details = traced_run(
            lane, workload, seconds, workloads.SIZES[smoke]["growth_m"]
        )
    else:
        loop, metrics, details = untraced_run(workload, seconds)
    details["speed"] = speed_state(loop.probe.times, jiffies_before, cpu_jiffies())
    return loop, metrics, details


def untraced_run(workload, seconds):
    """The end-to-end metrics of ``seconds`` of operations, at reference speed."""
    loop = closed_loop(workload, seconds, workload.run, probe_during=True)
    p50 = statistics.median(loop.samples)
    tail_s, tail_pct = tail(loop.samples)
    metrics = {
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "units_per_s": loop.units / sum(loop.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "samples": len(loop.samples),
        "op_samples_s": loop.samples,
        "wall_op_p50_s": statistics.median(loop.wall),
        "wall_samples_s": loop.wall,
        "tail_percentile": tail_pct,
        "error_rate": loop.failed / loop.attempted,
    }
    if workload.name == "integrate" and workload.out_path.exists():
        details["first_zero_err"] = workloads.first_zero_err(workload.out_path)
    return loop, metrics, details


def traced_run(lane, workload, seconds, growth_m):
    """Per-layer metrics: half the time untraced, half with spans installed.

    Its times are wall times: the speed probe runs only around operations
    here, so that no span holds it.
    """
    loop = closed_loop(workload, seconds / 2, workload.run, probe_during=False)
    untraced_p50 = statistics.median(loop.wall)
    seed_cache = lane.integrate._seed_polys
    hits_before = seed_cache.cache_info().hits
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = closed_loop(
            workload, seconds / 2, tracer.span(spans.ROOT, workload.run),
            probe_during=False,
        )
    finally:
        tracer.uninstall()
    loop.add(traced)
    ops = len(traced.wall)
    traced_p50 = statistics.median(traced.wall)
    metrics = spans.layer_metrics(tracer, ops)
    floor = (
        format_floor_s(workload.out_path.read_bytes())
        if workload.float_csv and traced.failed == 0 else 0.0
    )
    metrics.update({
        "series.coeff_bits_max": coeff_bits_max(tracer.last_kernel_tables),
        "series.growth_exp": growth_exponent(
            lane._backend.kernels.lee_series_tables, *growth_m
        ),
        "integrate.seed_cache_hits":
            (seed_cache.cache_info().hits - hits_before) / ops,
        "cli.format_floor_ratio": metrics["cli.format_s"] / floor if floor else 0.0,
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1,
    })
    spans_path = OUT_DIR / f"spans_{workload.name}.json"
    spans_path.write_text(json.dumps(tracer.to_json()))
    self_total = (
        sum(s[5] for s in tracer.spans) + sum(r[1] for r in tracer.rows.values())
    )
    # The self times partition the traced operations, so they must add up
    # to the wall time measured around them.  Their gap to the untraced
    # op_p50_s scaled by 1 + trace.overhead_frac, the traced median, is the
    # difference between the mean and the median of the traced operations.
    traced_wall = sum(traced.wall)
    escaped = 1 - self_total / traced_wall
    if abs(traced_wall - self_total) > (
        SELF_SUM_TOLERANCE * traced_wall + SELF_SUM_SLACK_S * ops
    ):
        loop.unsound.append(
            f"layer self times miss {escaped:.2%} of the traced wall time"
        )
    details = {
        "untraced_samples": len(loop.wall) - ops,
        "traced_samples": ops,
        "untraced_op_p50_s": untraced_p50,
        "traced_op_p50_s": traced_p50,
        "layer_self_sum_s": self_total / ops,
        "self_sum_escaped_frac": escaped,
        "self_sum_vs_p50_frac": self_total / ops / traced_p50 - 1,
        "format_floor_s": floor,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return loop, metrics, details


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def one_workload(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"run_{os.getpid()}"
    work_dir.mkdir()
    try:
        setup, setup_wall = ([], []) if args.trace else measure_setup(SETUP_REPEATS)
        lane = import_package()
        loop, metrics, details = run_workload(
            lane, args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), smoke=args.smoke, work_dir=work_dir,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if setup:
        metrics["setup_s"] = statistics.median(setup)
        details["setup_samples_s"] = setup
        details["setup_wall_samples_s"] = setup_wall
    units = declared_metrics(bool(args.trace))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(lane), "attempted": loop.attempted,
        "failed": loop.failed, "problems": loop.problems + loop.unsound,
        **details,
        "metrics": metrics,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": loop.failed == 0 and not loop.unsound,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


# Printed for every workload in the table, next to the metrics of
# BENCHMARK.json: they are end-to-end results too, but error_rate is 0 and
# first_zero_err is the same on every correct run, so neither can carry a
# relative bound there.  The result line carries error_rate as failed and
# attempted.
REPORT_ONLY = {"error_rate": "ratio", "first_zero_err": "1"}


def every_workload(args) -> int:
    """Run each workload in a fresh process and print the metrics as a table."""
    results = {}
    for name in workloads.NAMES:
        for trace in (0, 1) if args.trace else (0,):
            argv = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if child.returncode != 0:
                sys.stderr.write(child.stderr)
                return child.returncode
            report_line, result_line = child.stdout.strip().split("\n")[-2:]
            report, result = json.loads(report_line), json.loads(result_line)
            entry = results.setdefault(name, {"correct": True, "metrics": {}})
            entry["correct"] = entry["correct"] and result["correct"]
            entry["metrics"].update(result["metrics"])
            entry.setdefault("speed", []).append({"trace": trace, **report["speed"]})
            if not trace:
                entry["environment"] = report["environment"]
                entry["samples"] = report["samples"]
                entry["tail_percentile"] = report["tail_percentile"]
                for key, unit in REPORT_ONLY.items():
                    if key in report:
                        entry["metrics"][key] = {"value": report[key], "unit": unit}
    env = results[workloads.NAMES[0]]["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, entry in results.items():
        print(f"\n{name}  (correct={entry['correct']}, {entry['samples']} "
              f"operations, tail = p{entry['tail_percentile']:.0f})")
        for speed in entry["speed"]:
            steal = speed["steal_frac"]
            print(f"  speed, trace {speed['trace']}: probe p50 "
                  f"{speed['probe_p50_s'] * 1e3:.3f} ms, quartile spread "
                  f"{speed['probe_spread']:.0%}, host steal "
                  + ("n/a" if steal is None else f"{steal:.1%}"))
        for metric, value in entry["metrics"].items():
            print(f"  {metric:<32} {value['value']:>16.6g}  {value['unit']}")
    print(json.dumps(results))
    return 0 if all(e["correct"] for e in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="run one workload (default: all, as a table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: m=10, dx=1e-2")
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "lane_emden" / "cli.py", REFERENCE) if not p.is_file()]
    if missing:
        parser.exit(2, f"error: not a lane-emden checkout, missing {missing[0]}\n")
    if args.workload is None:
        return every_workload(args)
    return one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
