#!/usr/bin/env python3
"""Check that the speed factor of ``cpuspeed.py`` does not depend on the workload.

    python3 bench/neutrality.py --rounds 6      # a few minutes

Runs the workloads back to back, one iteration each per round.  For every
iteration it compares the median kernel time the ``SpeedSampler`` records
during the iteration with the median of a burst of the same kernel run
with nothing else in between, just before and just after the iteration.
The burst sees the same core at the same moment but none of the program's
state.  If the sampler is neutral, the ratio is the same for every
workload; a workload whose ratio differs would have its reference seconds
scaled differently from the others.
"""

from __future__ import annotations

import argparse
import statistics
import time

from cpuspeed import SpeedSampler, time_kernel
from run import load_program
from workloads import WORKLOADS

BURST_S = 0.25


def burst() -> float:
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < BURST_S:
        times.append(time_kernel())
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args()

    gn = load_program()
    inputs = {name: wl.build(gn, 1) for name, wl in WORKLOADS.items()}
    ratios = {name: [] for name in WORKLOADS}
    for _ in range(args.rounds):
        for name, wl in WORKLOADS.items():
            before = burst()
            with SpeedSampler() as speed:
                wl.run(gn, inputs[name], 0)
            after = burst()
            ratios[name].append(statistics.median(speed.durations) / (0.5 * (before + after)))

    medians = {name: statistics.median(r) for name, r in ratios.items()}
    for name, r in ratios.items():
        q1, _, q3 = statistics.quantiles(r, n=4)
        print(f"{name:12s} sampler/burst median {medians[name]:.4f} "
              f"quartiles [{q1:.4f}, {q3:.4f}] over {len(r)} iterations")
    print(f"largest over smallest median: {max(medians.values()) / min(medians.values()):.4f}")


if __name__ == "__main__":
    main()
