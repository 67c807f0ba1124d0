"""Self-tests of the benchmark itself (about a minute).

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the library's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import HeadlineGate, LimitGate, PdeOracle, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def result_of(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def test_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for m in SPEC["end_to_end"]:
        assert 0.0 < m["bound"] <= 0.25, m
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def fake_report(rejections, reps, degenerate=0, binned=None):
    effective = reps - degenerate
    counts = [0] * 240
    counts[0] = effective if binned is None else binned
    return SimpleNamespace(
        reps=reps, rejections=rejections, degenerate=degenerate,
        rate=rejections / effective,
        histogram=SimpleNamespace(counts=counts, underflow=0, overflow=0),
    )


def test_monte_carlo_gates_can_fail():
    short, long_ = WORKLOADS["mc_t_short"], WORKLOADS["mc_z_long"]
    assert short.check(fake_report(57_000, 1_000_000))[0] == []
    assert long_.check(fake_report(550, 10_000))[0] == []
    # Each gate term fails on its own when its target is wrong.
    wrong = [
        dataclasses.replace(short, gate=HeadlineGate(target=0.0700)),
        dataclasses.replace(short, gate=HeadlineGate(nominal=0.0568)),
    ]
    for wl in wrong:
        assert len(wl.check(fake_report(57_000, 1_000_000))[0]) == 1
    assert dataclasses.replace(long_, gate=LimitGate(target=0.08)).check(
        fake_report(550, 10_000))[0]
    # Tallies that do not add up fail before any gate is consulted.
    assert short.check(fake_report(57_000, 1_000_000, binned=999_999))[0]


def test_pooled_gate_tells_the_limit_from_the_nominal_level():
    long_ = WORKLOADS["mc_z_long"]
    at_limit = [long_.check(fake_report(556, 10_000))[2] for _ in range(10)]
    at_nominal = [long_.check(fake_report(500, 10_000))[2] for _ in range(10)]
    # One iteration at the nominal level passes; ten pooled do not.
    assert long_.check(fake_report(500, 10_000))[0] == []
    assert long_.pooled_failures(at_limit) == []
    assert long_.pooled_failures(at_nominal)
    assert WORKLOADS["pde_oracle"].pooled_failures([{}]) == []


def test_iterations_use_distinct_seeds():
    gn = SimpleNamespace(simulate=SimpleNamespace(run=lambda config: config))
    wl = WORKLOADS["mc_t_short"]
    config = dataclasses.make_dataclass("Config", ["seed"])(2**64 - 1)
    assert [wl.run(gn, config, k).seed for k in range(3)] == [2**64 - 1, 0, 1]


def fake_pde_outputs(oracle, gap=1e-4, passed=True, levels=50):
    lo, hi = oracle.band
    c = 1.0
    w = 2.0 * (2.0 * hi / (hi + lo) * 0.5 * math.erfc(c / hi / math.sqrt(2.0))) - gap
    sol = SimpleNamespace(snapped_c=c, value_at_final=lambda x: w)
    lvls = [SimpleNamespace(time_remaining=(j + 1) / levels, threshold=1.96)
            for j in range(levels)]
    sandwich = SimpleNamespace(c=c, passed=passed, eps_grid=0.1,
                               lower_bound_violation=0.0, upper_bound_slack=0.0)
    return SimpleNamespace(solutions=[sol], levels=lvls, sandwiches=[sandwich])


def test_pde_gates_can_fail():
    oracle = PdeOracle()
    failures, error_bar, _ = oracle.check(fake_pde_outputs(oracle))
    assert failures == [] and error_bar == 0.1
    for outputs in (
        fake_pde_outputs(oracle, gap=-1e-6),
        fake_pde_outputs(oracle, gap=0.05),
        fake_pde_outputs(oracle, passed=False),
        fake_pde_outputs(oracle, levels=49),
    ):
        assert len(oracle.check(outputs)[0]) == 1
    wrong_band = dataclasses.replace(oracle, band=(0.5, 1.0))
    assert wrong_band.check(fake_pde_outputs(oracle))[0]


@pytest.mark.parametrize("name, wrong", [
    ("mc_t_short", {"gate": HeadlineGate(target=0.0700)}),
    ("mc_z_long", {"gate": LimitGate(target=0.08)}),
    ("pde_oracle", {"band": (0.5, 1.0)}),
])
def test_wrong_gate_target_fails_the_run(name, wrong, monkeypatch, capsys):
    monkeypatch.setitem(
        workloads.WORKLOADS, name, dataclasses.replace(WORKLOADS[name], **wrong))
    code = run.main(["--workload", name, "--seed", "1", "--seconds", "1"])
    result = result_of(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


COUNTS = (
    "simulate.rep_steps", "gheat.solve.node_updates",
    "capacity.profile_f.calls", "special.norm_quantile.calls",
    "special.t_quantile.calls", "policy.calls",
)


@pytest.mark.parametrize("name", ["mc_z_long", "pde_oracle"])
def test_traced_counts_repeat(name):
    counts = []
    for seed in (1, 2):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=180, check=True,
        )
        result = result_of(proc.stdout)
        assert result["correct"] is True
        assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])
        counts.append({k: result["metrics"][k]["value"] for k in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["simulate.rep_steps"] + counts[0]["gheat.solve.node_updates"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pde_oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
