"""Acceptance gate: eleven end-to-end checks at fixed tolerances.

Each ``test_criterion_*`` prints exactly one ``ACCEPTANCE NN label:
PASS|FAIL`` line (run ``pytest tests/test_acceptance.py -v -s`` to see
them inline) and then asserts, so a red line always has a matching failed
test.  The tests after them check criterion 09's growth check itself.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lane_emden import (
    IntegratorConfig,
    compute_coefficients,
    eval_series_float,
    evaluate_table,
    parse_expression,
    residual_coefficients,
    solve_midpoint,
    verify_c_by_power,
)
from lane_emden import cli
from lane_emden.cli import cmd_coeffs, run_bench

from reference_tables import INDEX1_A, INDEX3_A, SYMBOLIC_A

GOLDEN_M6 = b"000;1\n002;-1/6\n004;n/120\n006;-n*(8*n - 5)/15120\n"

#: First zeros from the literature (Chandrasekhar 1939; Horedt,
#: Polytropes, 2004).
LITERATURE_XI1 = {1.5: 3.65375373621, 3.0: 6.89684861937}


def report(num: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def table28():
    return compute_coefficients(28)


def test_criterion_01_symbolic_table():
    start = time.perf_counter()
    table = compute_coefficients(28)
    elapsed = time.perf_counter() - start
    matches = all(
        table.a[k] == parse_expression(text)
        for k, text in SYMBOLIC_A.items()
    )
    ok = matches and elapsed < 5.0
    report(1, "symbolic-table-m28", ok)
    assert matches, "symbolic coefficients differ from the golden table"
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"


def test_criterion_02_fraction_tables(table28):
    e1 = evaluate_table(table28, 1)
    e3 = evaluate_table(table28, 3)
    ok1 = all(e1.a_values[k] == v for k, v in INDEX1_A.items())
    ok3 = all(e3.a_values[k] == v for k, v in INDEX3_A.items())
    ok = ok1 and ok3
    report(2, "fraction-tables-n1-n3", ok)
    assert ok1, "index 1 table mismatch"
    assert ok3, "index 3 table mismatch"
    assert e3.a_values[28] == Fraction(
        434810262905261032347474509,
        125457308237521535480861412556800000000,
    )


def test_criterion_03_closed_forms(table28):
    e0 = evaluate_table(table28, 0)
    e1 = evaluate_table(table28, 1)
    e5 = evaluate_table(table28, 5)
    ok_sinc = all(
        e1.a_values[2 * k] == Fraction((-1) ** k, math.factorial(2 * k + 1))
        for k in range(15)
    )
    ok_quad = all(e0.a_values[k] == 0 for k in range(3, 29))
    ok_crit = all(
        e5.a_values[2 * k]
        == Fraction((-1) ** k * math.comb(2 * k, k), 12**k)
        for k in range(15)
    )
    ok = ok_sinc and ok_quad and ok_crit
    report(3, "closed-forms-n0-n1-n5", ok)
    assert ok_sinc and ok_quad and ok_crit


def test_criterion_04_power_oracle():
    table = compute_coefficients(20)
    results = {n: verify_c_by_power(table, n) for n in range(6)}
    ok = all(results.values())
    report(4, "power-series-oracle", ok)
    assert ok, f"failed indices: {[n for n, r in results.items() if not r]}"


def test_criterion_05_residual_oracle():
    table = compute_coefficients(20)
    ok = all(
        all(r == 0 for r in residual_coefficients(table, n))
        for n in range(6)
    )
    report(5, "residual-oracle", ok)
    assert ok


def test_criterion_06_integrator_zeros():
    checks = []
    for n_value, target in ((0.0, math.sqrt(6.0)), (1.0, math.pi)):
        start = time.perf_counter()
        r = solve_midpoint(n_value, IntegratorConfig(dx=1e-3))
        elapsed = time.perf_counter() - start
        checks.append(abs(r.first_zero - target) < 1e-3)
        checks.append(elapsed < 10.0)
    for n_value in (3.0, 1.5):
        start = time.perf_counter()
        coarse = solve_midpoint(n_value, IntegratorConfig(dx=1e-3))
        elapsed = time.perf_counter() - start
        oracle = solve_midpoint(n_value, IntegratorConfig(dx=1e-5))
        checks.append(abs(coarse.first_zero - oracle.first_zero) < 5e-3)
        checks.append(elapsed < 10.0)
    ok = all(checks)
    report(6, "integrator-zeros", ok)
    assert ok, f"checks: {checks}"


def test_criterion_07_series_numeric_agreement(table28):
    ok = True
    details = {}
    for n_value in (1.5, 2.0, 3.0):
        series = evaluate_table(table28, Fraction(n_value))
        r = solve_midpoint(n_value, IntegratorConfig(dx=1e-3))
        xs = np.frombuffer(r.xs)
        errs = np.array([
            abs(eval_series_float(series, x) - f)
            for x, f in zip(r.xs, r.Fs)
        ])
        near = errs[xs <= 1.0].max()
        tail = errs[xs >= 3.0]
        diverges = tail.size >= 2 and (np.diff(tail) > 0.0).all()
        details[n_value] = (near, diverges)
        ok = ok and near <= 1e-6 and diverges
    report(7, "series-numeric-agreement", ok)
    assert ok, f"max err on [0,1] / monotone tail: {details}"


def test_criterion_08_convergence_order():
    exact = math.sin(2.0) / 2.0
    errs = []
    for dx in (2e-3, 1e-3, 5e-4):
        r = solve_midpoint(1.0, IntegratorConfig(dx=dx))
        errs.append(abs(r.Fs[round(2.0 / dx)] - exact))
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    ok = all(3.4 <= q <= 4.6 for q in ratios)
    report(8, "second-order-convergence", ok)
    assert ok, f"halving ratios: {ratios}"


def grows_with_m(secs):
    """Whether bench timings grow broadly with the table order.

    The last timing exceeds the first, and at most one adjacent pair
    decreases to a timing above a 5 ms noise floor: one dip of the host's
    speed passes, and timings below the floor may dip freely.
    """
    dips = sum(a > b >= 5e-3 for a, b in zip(secs, secs[1:]))
    return dips <= 1 and secs[-1] > secs[0]


def test_criterion_09_bench_table():
    start = time.perf_counter()
    records = run_bench(140, 20, 2)
    total = time.perf_counter() - start
    ms = [m for m, _ in records]
    secs = [seconds for _, seconds in records]
    well_formed = (
        ms == list(range(20, 141, 20)) and all(s >= 0.0 for s in secs)
    )
    trend = grows_with_m(secs)
    ok = well_formed and trend and total < 60.0
    report(9, "bench-table-m140", ok)
    assert well_formed, f"rows: {records}"
    assert trend, f"timings not broadly nondecreasing: {secs}"
    assert total < 60.0, f"bench took {total:.1f}s"


def test_criterion_10_file_format(tmp_path):
    out = tmp_path / "coeffs.txt"
    cmd_coeffs(6, str(out), "paper")
    data = out.read_bytes()
    ok = data == GOLDEN_M6
    report(10, "coeff-file-bytes", ok)
    assert ok, f"got {data!r}"


def test_criterion_11_literature_first_zeros():
    errs = {
        n_value: abs(
            solve_midpoint(n_value, IntegratorConfig(dx=1e-4)).first_zero
            - xi1
        )
        for n_value, xi1 in LITERATURE_XI1.items()
    }
    ok = all(err < 1e-7 for err in errs.values())
    report(11, "literature-first-zeros", ok)
    assert ok, f"distance from the literature first zeros: {errs}"


@pytest.mark.parametrize("secs, grows", [
    ([0.001, 0.004, 0.01, 0.03, 0.06, 0.1, 0.16], True),
    ([0.004, 0.003, 0.01, 0.03, 0.06, 0.1, 0.16], True),
    ([0.001, 0.004, 0.01, 0.03, 0.02, 0.1, 0.16], True),
    ([0.001, 0.004, 0.01, 0.03, 0.02, 0.1, 0.08], False),
    ([0.16, 0.004, 0.01, 0.03, 0.06, 0.1, 0.15], False),
])
def test_growth_check_tolerates_one_dip(secs, grows):
    assert grows_with_m(secs) == grows


@pytest.mark.parametrize("timings", [
    lambda: itertools.repeat(0.05),
    lambda: itertools.count(0.2, -0.01),
], ids=["constant", "decreasing"])
def test_growth_check_rejects_times_that_do_not_grow(timings, monkeypatch):
    # criterion 09's bench with the engine's timings replaced by a
    # constant, then by a decreasing sequence
    calls = timings()
    monkeypatch.setattr(cli, "_time_once", lambda m: next(calls))
    records = run_bench(140, 20, 2)
    assert [m for m, _ in records] == list(range(20, 141, 20))
    assert not grows_with_m([seconds for _, seconds in records])
