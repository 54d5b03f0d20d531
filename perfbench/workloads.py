"""The four benchmark workloads: what one operation does and how it is checked.

Each workload turns into an object with ``prepare()``, the untimed step
before an operation, ``run()``, the timed operation, and ``check(raw)``,
the untimed correctness check of what ``run()`` produced.
``check`` returns the number of work units the operation completed and a
list of problems; an empty list means the output is correct.  WORKLOADS.md
explains why each workload exists.

The three CLI workloads have fixed inputs taken from the ROADMAP, and their
output bytes are pinned by sha256 to the outputs of the first benchmarked
commit: a speed-up counts only if the bytes stay identical.  ``oracles`` is
the only workload that uses the seed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

NAMES = ("coeffs", "integrate", "compare", "oracles")

CHUNK = 1 << 20  # bytes read at a time when an output is checked
TAIL = 4096      # bytes read from the end of a file for its summary line

#: Literature value of the first zero of the n=3 polytrope
#: (Chandrasekhar 1939; Horedt, Polytropes, 2004).
XI1_N3 = 6.89684861937

#: Index values the ``oracles`` seed draws from; all have a small
#: denominator so that every draw costs about the same.
ORACLE_INDICES = tuple(
    Fraction(p, q) for p, q in
    ((1, 2), (3, 2), (5, 2), (7, 2), (9, 2), (1, 3), (2, 3), (4, 3), (5, 3), (7, 3))
)

# Full and smoke sizes.  The smoke sizes exercise every code path in well
# under a second per operation; the pinned hashes cover both.
SIZES = {
    False: {"coeffs_m": 140, "integrate_dx": "1e-5", "compare_m": 28,
            "compare_dx": "1e-4", "oracles_m": 80, "growth_m": (70, 140)},
    True: {"coeffs_m": 10, "integrate_dx": "1e-2", "compare_m": 10,
           "compare_dx": "1e-2", "oracles_m": 10, "growth_m": (5, 10)},
}

SHA256 = {
    ("coeffs", False):
        "b3097ff2a90b724614e5404f54bd80d5fbe5eb7f284dd380e9e275ceaa4d7da3",
    ("integrate", False):
        "2a891b6b4ded9dc2fc7d903bc63db25c3607de7a448066ad332af148d5c350f7",
    ("compare", False):
        "051e94386991a6cc60533c58bfa58c2abdbb1a41f5ab234e25ed2f93ba2a62dc",
    ("coeffs", True):
        "acdd8af764755db6c3a90103eb87e7d5bae445b413727331270c66ea86414ccc",
    ("integrate", True):
        "8fc9e770aab2e2e713d6b74e116f608f59956df9feb36d2bcd2951926ce7d819",
    ("compare", True):
        "9ee1f5818bb42ca803e683a1ca95757ecdcc1833944285c733d104e1440e6dcd",
}


def load_symbolic_a(reference_path: Path) -> dict:
    """``SYMBOLIC_A`` from the test suite's golden tables, loaded read-only."""
    spec = importlib.util.spec_from_file_location(
        "_bench_reference_tables", reference_path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SYMBOLIC_A


@dataclass
class CliWorkload:
    """One call of ``lane_emden.cli.main`` that writes ``out_path``."""

    name: str
    argv: list
    out_path: Path
    sha256: str
    non_data_lines: int  # header and summary lines, not counted as work
    float_csv: bool      # output is a CSV of ``.17g`` floats
    main: object
    symbolic_a: dict = None
    zero_tolerance: float = None

    def prepare(self):
        """Remove the previous output, so that no check can pass on it."""
        self.out_path.unlink(missing_ok=True)

    def run(self):
        return self.main(self.argv + ["--out", str(self.out_path)])

    def check(self, raw):
        # The output is read in chunks, never whole: the check runs in the
        # measured process and must not raise its peak memory.
        if raw != 0:
            return 0, [f"exit code {raw}"]
        if not self.out_path.is_file():
            return 0, [f"no output written to {self.out_path.name}"]
        problems = []
        digest, lines = _digest_and_lines(self.out_path)
        if digest != self.sha256:
            problems.append(f"sha256 {digest} != pinned {self.sha256}")
        if self.symbolic_a is not None:
            problems += _check_symbolic(self.out_path, self.symbolic_a)
        if self.zero_tolerance is not None:
            err = first_zero_err(self.out_path)
            if not err <= self.zero_tolerance:
                problems.append(
                    f"first zero off by {err} > {self.zero_tolerance}"
                )
        return lines - self.non_data_lines, problems


def _digest_and_lines(path: Path):
    """The sha256 hex digest and the newline count of the file at ``path``."""
    digest, lines = hashlib.sha256(), 0
    with path.open("rb") as f:
        while chunk := f.read(CHUNK):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines


def _check_symbolic(path: Path, symbolic_a: dict) -> list:
    """Compare the leading ``coeffs`` lines with the golden ``a[k]``."""
    wanted = {k // 2: f"{k:03d};{v}" for k, v in symbolic_a.items()}
    last, got = max(wanted, default=-1), {}
    with path.open("rb") as f:
        for index, line in enumerate(f):
            if index > last:
                break
            got[index] = line.rstrip(b"\n").decode("ascii", "replace")
    return [
        f"line {index + 1} is {got.get(index)!r}, want {want!r}"
        for index, want in sorted(wanted.items()) if got.get(index) != want
    ]


def first_zero_err(path: Path) -> float:
    """Distance of the ``# first_zero=`` summary line from the literature."""
    with path.open("rb") as f:
        f.seek(0, 2)
        f.seek(max(0, f.tell() - TAIL))
        last = f.read().rstrip(b"\n").rsplit(b"\n", 1)[-1]
    prefix = b"# first_zero="
    if not last.startswith(prefix):
        return float("inf")
    try:
        return abs(float(last[len(prefix):]) - XI1_N3)
    except ValueError:
        return float("inf")


@dataclass
class OraclesWorkload:
    """The paper's table checks at the library level, at order ``m``.

    One operation computes the table, round-trips every ``a[k]`` through
    its canonical string and the parser, checks that the exact residual
    vanishes and that the ``c`` table matches brute-force powers at n=3,
    and evaluates the table at an index drawn from the seed.
    """

    name: str
    m: int
    rng: random.Random
    lane: object  # the imported ``lane_emden`` package

    float_csv = False
    out_path = None

    def prepare(self):
        pass

    def run(self):
        lane, m = self.lane, self.m
        n_value = self.rng.choice(ORACLE_INDICES)
        table = lane.series.compute_coefficients(m)
        problems = []
        for k in range(m + 1):
            text = str(table.a[k])
            if lane.parsing.parse_expression(text) != table.a[k]:
                problems.append(f"a[{k}] = {text} does not parse back")
        residual = lane.evaluation.residual_coefficients(table, 3)
        if any(residual):
            problems.append("residual at n=3 is not zero")
        if not lane.series.verify_c_by_power(table, 3):
            problems.append("c table at n=3 differs from brute-force powers")
        values = lane.series.evaluate_table(table, n_value).a_values
        if values[:5:2] != (1, Fraction(-1, 6), n_value / 120):
            problems.append(f"a[0], a[2], a[4] wrong at n={n_value}")
        return problems

    def check(self, raw):
        return self.m // 2 + 1, raw


def build(name, *, seed, smoke, work_dir: Path, reference_path: Path, lane):
    """The workload ``name`` at full or smoke size, writing into ``work_dir``."""
    size = SIZES[smoke]
    if name == "oracles":
        return OraclesWorkload(name, size["oracles_m"], random.Random(seed), lane)
    common = dict(name=name, out_path=work_dir / f"{name}.out",
                  sha256=SHA256[name, smoke], main=lane.cli.main)
    if name == "coeffs":
        m = size["coeffs_m"]
        symbolic_a = load_symbolic_a(reference_path)
        return CliWorkload(
            argv=["coeffs", "--m", str(m)],
            non_data_lines=0, float_csv=False,
            symbolic_a={k: v for k, v in symbolic_a.items() if k <= m},
            **common,
        )
    if name == "integrate":
        dx = size["integrate_dx"]
        return CliWorkload(
            argv=["integrate", "--n", "3", "--dx", dx],
            non_data_lines=2, float_csv=True,
            # The scheme is second order: 10*dx**2 is 1e-9 at dx=1e-5.
            zero_tolerance=10 * float(dx) ** 2, **common,
        )
    if name == "compare":
        return CliWorkload(
            argv=["compare", "--n", "3", "--m", str(size["compare_m"]),
                  "--dx", size["compare_dx"]],
            non_data_lines=1, float_csv=True, **common,
        )
    raise ValueError(f"unknown workload {name!r}")
