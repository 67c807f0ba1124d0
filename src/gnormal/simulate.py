"""Parallel Monte Carlo engine for adversarially controlled test statistics.

Each replication r draws its noise from a dedicated counter-based stream,
``Philox(key=(seed, r))``, so the draws are a pure function of (seed, r):
identical configurations produce bit-identical tallies for any worker
count, any block size, and any subset of replications rerun in isolation.

Replications are processed in blocks, vectorized across the block: at step
i the policy maps the running sums S_{i-1} (and sum of squares, for the
heuristic rule) to sigma_i for every replication at once, then
X_i = sigma_i * eps_i is absorbed.  The map is the policy kernel that
``policy.next_sigma`` evaluates at width 1; the heuristic rule takes
sigma_lo exactly when s^2 > 0 and S^2 > crit_i * crit_i * n * s^2, so ties
and s^2 = 0 give sigma_hi.  The kernel is replication-local, so blocking
cannot change any value.  Workers own disjoint replication ranges and
their integer tallies merge by summation.

Degenerate replications (zero sample variance, probability zero under
continuous noise) are tallied separately and excluded from the rejection
rate; they are never silently dropped.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .capacity import VolatilityBand, p1, p2_approx, tail_threshold
from .errors import ConfigurationError, DomainError, UndefinedStatisticError
from .policy import PolicySpec, compile_policy
from .special import norm_quantile, t_quantile

__all__ = [
    "TestSpec",
    "SimulationConfig",
    "Histogram",
    "SimulationReport",
    "ConvergenceRow",
    "t_statistic",
    "wilson_interval",
    "run",
    "capacity_convergence",
]

HIST_LO = -6.0
HIST_HI = 6.0
HIST_BINS = 240  # width 0.05, fine enough to resolve the +-1.97 notches

# Replications per vectorized block, sized so a block's noise matrix stays
# around 2e7 doubles.
_BLOCK_TARGET = 20_000_000
_BLOCK_MAX = 100_000


@dataclass(frozen=True)
class TestSpec:
    """Sidedness, level, and statistic of the test applied per replication.

    ``statistic`` is "z" (known-sigma, scaled by ``sigma_ref``) or "t"
    (Student statistic, critical value with n-1 degrees of freedom).
    """

    __test__ = False  # not a pytest class, despite the name

    sided: str
    alpha: float
    statistic: str
    sigma_ref: float | None = None

    def __post_init__(self) -> None:
        if self.sided not in ("one", "two"):
            raise ConfigurationError(f"sided must be 'one' or 'two', got {self.sided!r}")
        if not 0.0 < self.alpha <= 0.5:
            raise ConfigurationError(f"alpha must lie in (0, 0.5], got {self.alpha!r}")
        if self.statistic not in ("z", "t"):
            raise ConfigurationError(
                f"statistic must be 'z' or 't', got {self.statistic!r}"
            )
        if self.statistic == "z":
            if self.sigma_ref is None or not self.sigma_ref > 0.0:
                raise ConfigurationError("z statistic needs sigma_ref > 0")

    def critical_value(self, n: int) -> float:
        p = 1.0 - (self.alpha if self.sided == "one" else self.alpha / 2.0)
        if self.statistic == "t":
            return t_quantile(p, n - 1)
        return norm_quantile(p)


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    reps: int
    policy: PolicySpec
    test: TestSpec
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {self.reps!r}")
        if self.n < 1 or (self.test.statistic == "t" and self.n < 2):
            raise ConfigurationError(
                f"n = {self.n!r} too small for statistic {self.test.statistic!r}"
            )
        if self.policy.n != self.n:
            raise ConfigurationError(
                f"policy horizon {self.policy.n} != sample size {self.n}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must be a 64-bit unsigned integer")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers!r}")


@dataclass
class Histogram:
    """Equal-width counts over [lo, hi]; out-of-range values tallied
    separately in ``underflow``/``overflow`` (bins are right-open)."""

    lo: float
    hi: float
    counts: np.ndarray
    underflow: int = 0
    overflow: int = 0

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, len(self.counts) + 1)

    def add(self, values: np.ndarray) -> None:
        nbins = len(self.counts)
        pos = np.floor((values - self.lo) / (self.hi - self.lo) * nbins).astype(np.int64)
        self.underflow += int(np.count_nonzero(pos < 0))
        self.overflow += int(np.count_nonzero(pos >= nbins))
        inside = pos[(pos >= 0) & (pos < nbins)]
        self.counts += np.bincount(inside, minlength=nbins)

    def merge(self, other: "Histogram") -> None:
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow

    def cdf_at_edges(self, total: int) -> np.ndarray:
        """Empirical CDF evaluated at every bin edge (fraction of mass
        strictly below the edge)."""
        cum = np.concatenate(([0], np.cumsum(self.counts))) + self.underflow
        return cum / total

    def write_csv(self, path) -> None:
        edges = self.edges.tolist()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bin_lo,bin_hi,count\n")
            for j, cnt in enumerate(self.counts):
                fh.write(f"{edges[j]!r},{edges[j + 1]!r},{int(cnt)}\n")


def _empty_histogram() -> Histogram:
    return Histogram(lo=HIST_LO, hi=HIST_HI, counts=np.zeros(HIST_BINS, dtype=np.int64))


@dataclass
class SimulationReport:
    reps: int
    rejections: int
    degenerate: int
    rate: float
    ci95: tuple[float, float]
    histogram: Histogram
    runtime_seconds: float
    config: SimulationConfig

    def to_json_dict(self) -> dict:
        return {
            "reps": self.reps,
            "rejections": self.rejections,
            "degenerate": self.degenerate,
            "rate": self.rate,
            "ci95_lo": self.ci95[0],
            "ci95_hi": self.ci95[1],
            "histogram": {
                "lo": self.histogram.lo,
                "hi": self.histogram.hi,
                "underflow": self.histogram.underflow,
                "overflow": self.histogram.overflow,
                "bins": [int(c) for c in self.histogram.counts],
            },
            "runtime_seconds": self.runtime_seconds,
            "config_echo": _config_echo(self.config),
        }


def _config_echo(config: SimulationConfig) -> dict:
    # Only parameters that determine the results: the worker count cannot
    # appear here or byte-level determinism across worker counts would be
    # unattainable by construction.  The noise law is fixed; it is echoed so
    # manifests name it.
    pol = config.policy
    echo = {
        "n": config.n,
        "reps": config.reps,
        "seed": config.seed,
        "noise": "standard_normal",
        "policy": {
            "kind": pol.kind,
            "sigma_lo": pol.band.sigma_lo,
            "sigma_hi": pol.band.sigma_hi,
            "alpha": pol.alpha,
            "sigma_const": pol.sigma_const,
            "crit_rule": pol.crit_rule,
            "c_alpha": pol.c_alpha,
            "table_levels": None if pol.table is None else len(pol.table.threshold),
        },
        "test": {
            "sided": config.test.sided,
            "alpha": config.test.alpha,
            "statistic": config.test.statistic,
            "sigma_ref": config.test.sigma_ref,
        },
    }
    return echo


def t_statistic(xs) -> float:
    """Student statistic sqrt(n) * mean / s with the n-1 variance divisor."""
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if n < 2:
        raise DomainError(f"t statistic needs >= 2 observations, got {n}")
    mean = float(xs.mean())
    s2 = float(((xs - mean) ** 2).sum()) / (n - 1)
    if s2 <= 0.0:
        raise UndefinedStatisticError("zero sample variance")
    return math.sqrt(n) * mean / math.sqrt(s2)


def wilson_interval(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at critical value z."""
    if trials < 1:
        raise DomainError("wilson interval needs trials >= 1")
    if not 0 <= successes <= trials:
        raise DomainError("successes must lie in [0, trials]")
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    margin = (
        z / denom * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials**2))
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


def _philox_state(key: np.ndarray, counter: np.ndarray, buffer: np.ndarray) -> dict:
    return {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": buffer,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def replication_noise(seed: int, rep: int, n: int) -> np.ndarray:
    """The noise vector of replication ``rep``: standard normals from a
    fresh ``Philox(key=(seed, rep))`` stream."""
    bitgen = Philox(key=np.array([seed, rep], dtype=np.uint64))
    return Generator(bitgen).standard_normal(n)


def _noise_block(seed: int, rep_lo: int, rep_hi: int, n: int) -> np.ndarray:
    # (n, reps) matrix of per-replication streams.  Resetting one Philox
    # through its state dict is bit-identical to fresh construction with
    # key=(seed, rep) and several times faster.
    reps = rep_hi - rep_lo
    out = np.empty((reps, n))
    key = np.array([seed, 0], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    buffer = np.zeros(4, dtype=np.uint64)
    bitgen = Philox(key=key)
    gen = Generator(bitgen)
    state = _philox_state(key, counter, buffer)
    for j, rep in enumerate(range(rep_lo, rep_hi)):
        key[1] = rep
        bitgen.state = state
        out[j] = gen.standard_normal(n)
    return np.ascontiguousarray(out.T)


def _run_range(config: SimulationConfig, rep_lo: int, rep_hi: int, critical: float):
    """Tallies for the replication range [rep_lo, rep_hi)."""
    n = config.n
    needs_ss = config.policy.kind == "heuristic_t" or config.test.statistic == "t"
    policy = compile_policy(config.policy)
    hist = _empty_histogram()
    rejections = 0
    degenerate = 0

    block = max(1, min(_BLOCK_MAX, _BLOCK_TARGET // max(n, 1)))
    for lo in range(rep_lo, rep_hi, block):
        hi = min(lo + block, rep_hi)
        noise = _noise_block(config.seed, lo, hi, n)
        width = hi - lo
        s = np.zeros(width)
        ss = np.zeros(width) if needs_ss else None
        for i in range(1, n + 1):
            x = policy.sigma(i, s, ss) * noise[i - 1]
            s += x
            if needs_ss:
                ss += x * x

        if config.test.statistic == "z":
            stats = s / (math.sqrt(n) * config.test.sigma_ref)
        else:
            s2 = np.maximum((ss - s * s / n) / (n - 1), 0.0)
            good = s2 > 0.0
            degenerate += int(np.count_nonzero(~good))
            stats = (s[good] / math.sqrt(n)) / np.sqrt(s2[good])

        if config.test.sided == "one":
            rejections += int(np.count_nonzero(stats > critical))
        else:
            rejections += int(np.count_nonzero(np.abs(stats) > critical))
        hist.add(stats)

    return rejections, degenerate, hist


def _run_range_star(args):
    return _run_range(*args)


def run(config: SimulationConfig) -> SimulationReport:
    """Execute the Monte Carlo experiment described by ``config``.

    Output tallies are bit-identical for any ``workers`` value.
    """
    start = time.perf_counter()
    critical = config.test.critical_value(config.n)

    workers = min(config.workers, config.reps)
    if workers == 1:
        parts = [_run_range(config, 0, config.reps, critical)]
    else:
        bounds = np.linspace(0, config.reps, workers + 1).astype(int)
        tasks = [
            (config, int(bounds[w]), int(bounds[w + 1]), critical)
            for w in range(workers)
            if bounds[w] < bounds[w + 1]
        ]
        with multiprocessing.Pool(processes=workers) as pool:
            parts = pool.map(_run_range_star, tasks)

    rejections = 0
    degenerate = 0
    hist = _empty_histogram()
    for part_rej, part_deg, part_hist in parts:
        rejections += part_rej
        degenerate += part_deg
        hist.merge(part_hist)

    effective = config.reps - degenerate
    rate = rejections / effective if effective > 0 else math.nan
    z95 = norm_quantile(0.975)
    ci = wilson_interval(rejections, effective, z95) if effective > 0 else (0.0, 1.0)
    return SimulationReport(
        reps=config.reps,
        rejections=rejections,
        degenerate=degenerate,
        rate=rate,
        ci95=ci,
        histogram=hist,
        runtime_seconds=time.perf_counter() - start,
        config=config,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    rate: float
    ci95: tuple[float, float]
    target: float


def capacity_convergence(
    band: VolatilityBand,
    alpha: float,
    n_list,
    reps: int,
    seed: int,
    *,
    policy_factory,
    sided: str = "one",
    workers: int = 1,
) -> list[ConvergenceRow]:
    """Empirical rejection rates of the z test (sigma_ref = sigma_hi) under
    an adversarial policy, against the analytic limit.

    ``policy_factory(band, n, alpha)`` builds the policy per horizon; the
    target is p1 at sigma_hi * Phi^-1(1-alpha) one-sided, or the two-sided
    approximation 2*p1 at sigma_hi * Phi^-1(1-alpha/2).
    """
    c = tail_threshold(alpha, band, sided)
    target = p1(c, band) if sided == "one" else p2_approx(c, band).value
    test = TestSpec(sided=sided, alpha=alpha, statistic="z", sigma_ref=band.sigma_hi)
    rows = []
    for n in n_list:
        config = SimulationConfig(
            n=n, reps=reps, policy=policy_factory(band, n, alpha), test=test,
            seed=seed, workers=workers,
        )
        report = run(config)
        rows.append(
            ConvergenceRow(n=n, rate=report.rate, ci95=report.ci95, target=target)
        )
    return rows
