#!/usr/bin/env python3
"""Benchmark of the gnormal library: Monte Carlo, PDE and closed-form layers.

    python3 bench/run.py                          # every workload, end to end
    python3 bench/run.py --workload mc_z_long --seed 3 --seconds 30 --trace 1

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory, never from an installed copy.  Workloads
are defined in ``workloads.py`` and metrics, with their units, in
``BENCHMARK.json`` at the root of the checkout.

A run of one workload, in its own process:

1. imports the program and builds the workload's inputs from ``--seed``;
2. checks once, untimed, that a small simulation gives identical tallies
   with 1 and 2 workers;
3. with ``--trace 0``, times set-up in fresh processes (median of
   ``SETUP_PROBES``), then runs iterations back to back until the next one
   would overrun ``--seconds``, and reports the end-to-end metrics;
4. with ``--trace 1``, spends half of ``--seconds`` untraced and half with
   every public function of the five modules wrapped (``probe.py``), and
   reports per-layer self times and counts for one iteration, plus the
   traced-minus-untraced wall time.

Times are reported in reference seconds, which factor out how busy the
machine's other tenants keep the CPU (``cpuspeed.py``); the raw wall-clock
medians are in the informational line.  ``--workload all`` runs every
workload in its own process and prints their metrics prefixed by name.

Every iteration's outputs pass through the workload's correctness gates,
and at the end of the run the Monte Carlo workloads' pooled tally passes
through them once more.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
provenance and informational values.  The exit code is 0 only when every
operation succeeded and every gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from cpuspeed import SpeedSampler
from probe import LAYERS, HOOKS, Probe, public_functions
from workloads import WORKLOADS, determinism_failures

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 7
RNG_SCHEME = "per-replication Philox(key=(seed, r))"


def load_program():
    """Import the checkout's ``gnormal`` and return its five modules."""
    if not (SRC / "gnormal" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC / 'gnormal'}")
    sys.path.insert(0, str(SRC))
    import gnormal
    from gnormal import capacity, gheat, policy, simulate, special

    if Path(gnormal.__file__).resolve().parent != (SRC / "gnormal").resolve():
        raise SystemExit(f"bench: imported gnormal from {gnormal.__file__}, not {SRC}")
    return SimpleNamespace(
        capacity=capacity, gheat=gheat, policy=policy, simulate=simulate, special=special
    )


def load_spec() -> dict:
    if not SPEC.is_file():
        raise SystemExit(f"bench: missing {SPEC}")
    return json.loads(SPEC.read_text())


def git_commit() -> str:
    # The ceiling keeps git from reporting a repository that merely
    # encloses a checkout without one.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "rng_scheme": RNG_SCHEME,
    }


def setup_probe(name: str, seed: int) -> None:
    """Child mode: import the program and build the workload's inputs in
    this fresh process; print the seconds taken, raw and in reference
    seconds."""
    with SpeedSampler() as speed:
        start = time.perf_counter()
        gn = load_program()
        WORKLOADS[name].build(gn, seed)
        raw = time.perf_counter() - start
    print(repr(raw), repr(speed.reference_seconds(raw, 0)))


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        raw, ref = proc.stdout.split()[-2:]
        out.append((float(raw), float(ref)))
    return out


class Operations:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(f"{what}: {f}" for f in failures)


def timed_loop(wl, gn, inputs, seconds, probe, ops, checks):
    """Iterations back to back until the next would overrun ``seconds``.

    Returns one sample per iteration: wall time, raw and in reference
    seconds, work done, error bar, and the probe's per-function statistics.
    Each iteration's informational check values are appended to ``checks``,
    whose length numbers the iterations of the whole run.
    """
    samples = []
    start = time.perf_counter()
    with SpeedSampler() as speed:
        while True:
            probe.reset()
            mark = speed.mark()
            k = len(checks)
            error_bar = None
            t0 = time.perf_counter()
            # A failed operation is counted, not fatal.
            try:
                outputs = wl.run(gn, inputs, k)
            except Exception as exc:
                outputs, failures = None, [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - t0
            ref = speed.reference_seconds(wall, mark)
            stats, counters = probe.snapshot()
            check = None
            if outputs is not None:
                try:
                    failures, error_bar, check = wl.check(outputs)
                except Exception as exc:
                    failures = [f"check: {type(exc).__name__}: {exc}"]
            checks.append(check)
            ops.record(f"iteration {k + 1}", failures)
            work = counters["simulate.rep_steps"] + counters["gheat.solve.node_updates"]
            samples.append(SimpleNamespace(wall=wall, ref=ref, work=work, error_bar=error_bar,
                                           stats=stats, counters=counters))
            walls = [s.wall for s in samples]
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                return samples


def end_to_end(samples, setups, info, ops) -> dict:
    """Times and the error bar are medians over iterations; times are in
    reference seconds (see ``cpuspeed.py``) and the raw wall-clock medians
    go to ``info``."""
    info["raw_wall_s"] = statistics.median(s.wall for s in samples)
    info["raw_setup_s"] = statistics.median(raw for raw, _ in setups)
    return {
        "wall_s": statistics.median(s.ref for s in samples),
        "work_per_s": statistics.median(s.work / s.ref for s in samples),
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_bar": statistics.median(
            [s.error_bar for s in samples if s.error_bar is not None] or [float("nan")]),
        "success_rate": 1.0 - ops.failed / ops.attempted,
    }


def per_layer(traced, untraced, ops) -> dict:
    """Self times are medians over traced iterations, in reference seconds;
    counts come from the first and must repeat exactly in every other."""

    def counts(sample):
        calls = {k: v[0] for k, v in sample.stats.items()}
        return calls, {k: sample.counters[k] for k in sorted(sample.counters)}

    first = counts(traced[0])
    for k, sample in enumerate(traced[1:], start=2):
        if counts(sample) != first:
            ops.record("trace", [f"counts of traced iteration {k} differ from the first"])
    calls, work = first

    def median_of(fn):
        return statistics.median(fn(s) for s in traced)

    def layer_self(layer):
        return median_of(lambda s: s.ref / s.wall * sum(
            v[2] for k, v in s.stats.items() if k.startswith(layer + ".")))

    def fn_self(name):
        return median_of(lambda s: s.ref / s.wall * s.stats[name][2])

    solve_self = fn_self("gheat.solve")
    node_updates = work.get("gheat.solve.node_updates", 0)
    out = {f"{layer}.self_s": layer_self(layer) for layer in LAYERS}
    out.update({
        "simulate.rep_steps": work.get("simulate.rep_steps", 0),
        "simulate.degenerate": work.get("simulate.degenerate", 0),
        "special.norm_quantile.calls": calls["special.norm_quantile"],
        "special.t_quantile.calls": calls["special.t_quantile"],
        "policy.calls": sum(v for k, v in calls.items() if k.startswith("policy.")),
        "capacity.profile_f.calls": calls["capacity.profile_f"],
        "gheat.solve.self_s": solve_self,
        "gheat.solve.node_updates": node_updates,
        "gheat.solve.node_updates_per_s": node_updates / solve_self if node_updates else 0.0,
        "gheat.two_sided_threshold.self_s": fn_self("gheat.two_sided_threshold"),
        "gheat.verify_sandwich.self_s": fn_self("gheat.verify_sandwich"),
        "trace.overhead_s": median_of(lambda s: s.ref)
        - statistics.median(s.ref for s in untraced),
    })
    return out


def run_one(args, spec) -> int:
    wl = WORKLOADS[args.workload]
    gn = load_program()
    info = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds}
    ops = Operations()
    checks = []
    try:
        inputs = wl.build(gn, args.seed)
    except Exception as exc:
        raise SystemExit(f"bench: cannot build {wl.name}: {type(exc).__name__}: {exc}")

    try:
        ops.record("determinism", determinism_failures(gn, args.seed))
    except Exception as exc:
        ops.record("determinism", [f"{type(exc).__name__}: {exc}"])

    if args.trace == 0:
        setups = setup_seconds(wl.name, args.seed)
        with Probe(gn, HOOKS) as probe:
            samples = timed_loop(wl, gn, inputs, args.seconds, probe, ops, checks)
    else:
        with Probe(gn, HOOKS) as probe:
            untraced = timed_loop(wl, gn, inputs, args.seconds / 2, probe, ops, checks)
        with Probe(gn, public_functions(gn)) as probe:
            samples = timed_loop(wl, gn, inputs, args.seconds / 2, probe, ops, checks)
    ops.record("pooled", wl.pooled_failures([c for c in checks if c is not None]))
    info["checks"] = checks

    if args.trace == 0:
        metrics = end_to_end(samples, setups, info, ops)
        wanted = spec["end_to_end"]
        info["setup_samples"] = setups
    else:
        metrics = per_layer(samples, untraced, ops)
        wanted = spec["per_layer"]
        info["functions"] = {k: list(v) for k, v in sorted(samples[0].stats.items()) if v[0]}

    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"bench: metrics {sorted(metrics)} do not match {SPEC.name}")
    info["wall_samples"] = [s.wall for s in samples]
    info["failures"] = ops.failures

    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for m in wanted:
        print(f"{wl.name:12s} {m['name']:34s} {metrics[m['name']]:>16.6g} {m['unit']}")
    for failure in ops.failures:
        print(f"{wl.name:12s} FAILED {failure}")
    print(json.dumps({"provenance": provenance(args.seed), "info": info}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name:12s} FAILED no result (exit code {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
