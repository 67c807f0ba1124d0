"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  The two-sided simulation reproduction defaults to the full
one-million-replication scale; set GNORMAL_ACCEPT_REPS=100000 for the
desk-scale fallback with its wider tolerance.  Criteria 1, 4 and 5 take
their targets, tolerances and sizes from the table ``gnormal repro`` uses.
The long simulations run on GNORMAL_WORKERS workers, by default up to two.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gnormal import (
    GridSpec,
    IndicatorAbove,
    SimulationConfig,
    TestSpec,
    VolatilityBand,
    constant_policy,
    heuristic_t_policy,
    norm_cdf,
    norm_quantile,
    one_sided_optimal_policy,
    p2_approx,
    profile_f,
    run,
    solve,
    t_cdf,
    t_quantile,
    verify_sandwich,
    wilson_interval,
)
from gnormal.cli import (
    CAPACITY_POINTS,
    HETERO_TARGETS,
    LIMIT_N,
    LIMIT_REPS,
    LIMIT_TARGET,
    LIMIT_TOL,
    REPRO_ALPHA,
    REPRO_BAND,
    WILSON_Z,
    above_nominal,
    capacity_point_met,
    hetero_tolerance,
)

from oracles import pde_policy_equiv_check

BAND = REPRO_BAND
ACCEPT_REPS = int(os.environ.get("GNORMAL_ACCEPT_REPS", "1000000"))
SIM_TOL = hetero_tolerance(ACCEPT_REPS)
SEED = 1
# Tallies are bit-identical for every worker count (criterion 9), so the
# long runs take both cores of a typical machine.
WORKERS = int(os.environ.get("GNORMAL_WORKERS", min(2, os.cpu_count() or 1)))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def heuristic_reports():
    """The heteroscedastic t-test reproductions, by n."""
    out = {}
    for n, _ in HETERO_TARGETS:
        config = SimulationConfig(
            n=n,
            reps=ACCEPT_REPS,
            policy=heuristic_t_policy(BAND, n, REPRO_ALPHA),
            test=TestSpec(sided="two", alpha=REPRO_ALPHA, statistic="t"),
            seed=SEED,
            workers=WORKERS,
        )
        out[n] = run(config)
    return out


def test_criterion_1_two_sided_capacity_values():
    details = []
    ok = True
    for level, digits, rounded, rel_cap in CAPACITY_POINTS:
        approx = p2_approx(norm_quantile(level), BAND)
        ok &= capacity_point_met(approx, digits, rounded, rel_cap)
        details.append(f"p2({level})={approx.value:.6f} RE<{approx.rel_error_bound:.1e}")
    report(1, ok, "; ".join(details))


def test_criterion_2_pde_vs_closed_form():
    c = 1.96
    errors = []
    for nx in (501, 1001, 2001):
        grid = GridSpec(-10.0, 10.0, nx, 1.0)
        sol = solve(IndicatorAbove(c), BAND, grid, max_levels=2)
        exact = np.array([profile_f(x - c, BAND) for x in sol.x])
        errors.append(float(np.abs(sol.final_values - exact).max()))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = errors[2] <= 5e-3 and all(r >= 1.7 for r in ratios)
    report(
        2,
        ok,
        f"sup errors {errors[0]:.2e}/{errors[1]:.2e}/{errors[2]:.2e}, "
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}",
    )


def test_criterion_3_sandwich():
    details = []
    ok = True
    for c in (1.0, 1.5, 2.0):
        rep = verify_sandwich(c, BAND)
        ok &= rep.passed
        details.append(
            f"c={c} (snapped {rep.snapped_c:.6f}): "
            f"lower {rep.lower_bound_violation:.2e} <= eps {rep.eps_grid:.2e}, "
            f"upper slack {rep.upper_bound_slack:.2e}"
        )
    report(3, ok, "; ".join(details))


def test_criterion_4_one_sided_limit():
    config = SimulationConfig(
        n=LIMIT_N,
        reps=LIMIT_REPS,
        policy=one_sided_optimal_policy(BAND, LIMIT_N, REPRO_ALPHA),
        test=TestSpec(sided="one", alpha=REPRO_ALPHA, statistic="z", sigma_ref=BAND.sigma_hi),
        seed=SEED,
        workers=WORKERS,
    )
    rate = run(config).rate
    ok = abs(rate - LIMIT_TARGET) <= LIMIT_TOL
    report(4, ok, f"rate {rate:.5f} vs limit {LIMIT_TARGET:.5f} (|diff| <= {LIMIT_TOL})")


def test_criterion_5_heteroscedastic_reproduction(heuristic_reports):
    ok = True
    details = []
    for n, expected in HETERO_TARGETS:
        rep = heuristic_reports[n]
        ok &= abs(rep.rate - expected) <= SIM_TOL and above_nominal(rep)
        details.append(f"n={n}: {rep.rate:.5f}")
    report(
        5,
        ok,
        f"targets {'/'.join(str(rate) for _, rate in HETERO_TARGETS)} "
        f"+-{SIM_TOL:.4f} at reps={ACCEPT_REPS}; "
        + ", ".join(details),
    )


def test_criterion_6_statistic_distribution(heuristic_reports):
    rep = heuristic_reports[200]
    hist = rep.histogram
    total = rep.reps - rep.degenerate
    edges = hist.edges
    # empirical CDF at every bin edge: the fraction of mass strictly below it
    ecdf = (np.concatenate(([0], np.cumsum(hist.counts))) + hist.underflow) / total
    inside = np.abs(edges) <= 1.5 + 1e-12
    kolmogorov = max(
        abs(ecdf[j] - t_cdf(float(edges[j]), 199)) for j in np.nonzero(inside)[0]
    )
    above = above_nominal(rep)
    ok = kolmogorov <= 0.01 and above
    report(
        6,
        ok,
        f"Kolmogorov on |T|<=1.5: {kolmogorov:.4f} (<= 0.01); "
        f"tail mass {rep.rate:.5f}, Wilson z={WILSON_Z:g} lower bound "
        f"above {REPRO_ALPHA}: {above}",
    )


def test_criterion_7_null_calibration():
    z999 = norm_quantile(0.9995)
    ok = True
    details = []
    for j, alpha in enumerate((0.01, 0.05, 0.1)):
        band = VolatilityBand(1.0, 1.0)
        config = SimulationConfig(
            n=50,
            reps=100_000,
            policy=constant_policy(band, 50, 1.0),
            test=TestSpec(sided="one", alpha=alpha, statistic="z", sigma_ref=1.0),
            seed=SEED + j,
        )
        rep = run(config)
        lo, hi = wilson_interval(rep.rejections, rep.reps, z999)
        ok &= lo <= alpha <= hi
        details.append(f"alpha={alpha}: rate {rep.rate:.5f} in [{lo:.5f},{hi:.5f}]")
    report(7, ok, "; ".join(details))


def test_criterion_8_policy_equivalence():
    bands = [
        VolatilityBand(0.8, 1.0),
        VolatilityBand(0.5, 1.0),
        VolatilityBand(1.0, 1.0),
        VolatilityBand(0.3, 2.0),
    ]
    ok = True
    count = 0
    for band in bands:
        for alpha in (0.01, 0.05, 0.1):
            for n in (10, 100, 1000):
                ok &= pde_policy_equiv_check(band, alpha, n)
                count += 1
    report(8, ok, f"curvature rule == threshold rule on {count} (band, alpha, n) combos")


def test_criterion_9_cli_determinism():
    args = [
        sys.executable, "-m", "gnormal", "simulate", "--n", "40", "--reps", "4000",
        "--policy", "heuristic-t", "--sigma-lo", "0.8", "--sigma-hi", "1",
        "--alpha", "0.05", "--sided", "two", "--stat", "t", "--seed", "123",
    ]
    payloads = []
    checksums = []
    for workers in ("1", "4", "16"):
        proc = subprocess.run(
            args + ["--workers", workers], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        checksums.append(payload["manifest"]["output_sha256"])
        payload.pop("runtime_seconds")  # wall clock, the one volatile field
        payloads.append(json.dumps(payload, sort_keys=True))
    ok = len(set(payloads)) == 1 and len(set(checksums)) == 1
    report(9, ok, f"workers {{1,4,16}} identical modulo runtime; sha {checksums[0][:12]}...")


def test_criterion_10_special_function_contracts():
    ps = np.concatenate([np.logspace(-10, -1, 19), [0.5], 1 - np.logspace(-10, -1, 19)])
    worst = max(abs(norm_cdf(norm_quantile(float(p))) - p) for p in ps)
    q = t_quantile(0.975, 199)
    ok = worst <= 1e-12 and round(q, 2) == 1.97
    report(10, ok, f"quantile round-trip {worst:.2e} <= 1e-12; t_quantile(0.975,199)={q:.4f}")
