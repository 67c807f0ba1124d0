"""Parallel Monte Carlo engine for adversarially controlled test statistics.

Noise comes in tiles of ``TILE`` = 1024 replications.  Replication r takes
column ``r % TILE`` of tile ``r // TILE``, and the tile is drawn step-major
from its own stream::

    Generator(SFC64(SeedSequence(seed, spawn_key=(r // TILE,))))
        .standard_normal((n, TILE))

so row i-1 of the tile holds step i of all its replications.  Tile k's
seed is numpy's k-th child ``SeedSequence(seed).spawn(k + 1)[k]``; the
entropy-list form ``SeedSequence([seed, k])`` would be ambiguous (it maps
``[2**32 + 5, 0]`` and ``[5, 1]`` to one state).  SFC64 is the Small Fast
Chaotic generator of PractRand (C. Doty-Humphrey).  The draws are a pure
function of (seed, r): process ranges start on tile boundaries, so identical
configurations produce bit-identical tallies however the tiles are cut.  A
partial last tile is still drawn in full and its surplus columns unused.

Replications are processed in blocks of up to ``_BLOCK_MAX`` replications
(whole tiles side by side), vectorized across the block: at step i the
policy maps the running sums S_{i-1} (and sum of squares, for the
heuristic rule) to sigma_i for every replication at once, then
X_i = sigma_i * eps_i is absorbed.  The map is ``PolicySpec.sigma``; the
heuristic rule takes sigma_lo exactly when s^2 > 0 and
S^2 > crit * crit * n * s^2, so ties and s^2 = 0 give sigma_hi.
Noise is drawn in chunks of steps that continue each tile's generator,
about ``_CHUNK_DOUBLES`` normals per block whatever n is, so that a
block's sums and its chunk stay in a core's L2 cache.  The kernel is
replication-local and chunking does not change the stream, so neither
block nor chunk size can change any value.  ``run`` cuts the tiles into
``min(max(workers, usable CPUs), tiles)`` ranges.  The caller runs the
first range and a child made by ``os.fork`` runs each other one, sending
its tallies back through a pipe; where ``os.fork`` is missing the caller
runs every range in turn.  A range's tallies are one int64 vector,
``[rejections, degenerate, underflow, bin 0 .. bin HIST_BINS - 1, overflow]``,
and ``run`` adds the vectors: ranges start on tile boundaries and integer
tallies merge by summation, so no value depends on the cut.

Degenerate replications (zero sample variance, probability zero under
continuous noise) are tallied separately and excluded from the rejection
rate; they are never silently dropped.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .capacity import _tail_level
from .errors import ConfigurationError, DomainError
from .policy import PolicySpec
from .special import norm_quantile, t_quantile

__all__ = [
    "TestSpec",
    "SimulationConfig",
    "Histogram",
    "SimulationReport",
    "wilson_interval",
    "run",
]

HIST_LO = -6.0
HIST_HI = 6.0
HIST_BINS = 240  # width 0.05, fine enough to resolve the +-1.97 notches

# ``SimulationConfig.workers`` may ask for at most this many processes.
MAX_WORKERS = 256

# The noise contract (see the module docstring).  It decides every tally,
# so its id is echoed inside the output checksum.
TILE = 1024
RNG_SCHEME = f"sfc64-tile{TILE}-stepmajor"

# Replications per vectorized block (whole tiles, at least one), and the
# normals a block draws per chunk of steps: 16 tiles of s, ss and x take
# 384 KiB and a chunk 1 MiB, within a 2 MiB L2.  Neither changes any value.
_BLOCK_MAX = 16 * TILE
_CHUNK_DOUBLES = 2**17


@dataclass(frozen=True)
class TestSpec:
    """Sidedness, level, and statistic of the test applied per replication.

    ``statistic`` is "z" (known-sigma, scaled by ``sigma_ref``, set for "z"
    only) or "t" (Student statistic, critical value with n-1 degrees of freedom).
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
            raise ConfigurationError(f"statistic must be 'z' or 't', got {self.statistic!r}")
        if self.statistic == "t":
            if self.sigma_ref is not None:
                raise ConfigurationError("t statistic does not read sigma_ref")
        elif self.sigma_ref is None or not 0.0 < self.sigma_ref < math.inf:
            raise ConfigurationError("z statistic needs a finite sigma_ref > 0")

    def critical_value(self, n: int) -> float:
        p = _tail_level(self.alpha, self.sided)
        return t_quantile(p, n - 1) if self.statistic == "t" else norm_quantile(p)


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    reps: int
    policy: PolicySpec
    test: TestSpec
    seed: int
    workers: int = 1  # at least this many tile ranges; see ``run``

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
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigurationError(f"workers must lie in [1, {MAX_WORKERS}], got {self.workers!r}")


@dataclass
class Histogram:
    """Equal-width counts over [lo, hi]; out-of-range values tallied
    separately in ``underflow``/``overflow`` (bins are right-open).  In a
    report, these are entries 2 onward of the tally vector (module docstring)."""

    lo: float
    hi: float
    counts: np.ndarray
    underflow: int = 0
    overflow: int = 0

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, len(self.counts) + 1)

    def write_csv(self, path) -> None:
        edges = self.edges.tolist()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bin_lo,bin_hi,count\n")
            for j, cnt in enumerate(self.counts):
                fh.write(f"{edges[j]!r},{edges[j + 1]!r},{int(cnt)}\n")


def _bins(stats: np.ndarray) -> np.ndarray:
    """[underflow, bin 0, ..., bin HIST_BINS - 1, overflow] counts of ``stats``."""
    pos = np.floor((stats - HIST_LO) / (HIST_HI - HIST_LO) * HIST_BINS).astype(np.int64)
    return np.bincount(np.clip(pos, -1, HIST_BINS) + 1, minlength=HIST_BINS + 2)


@dataclass
class SimulationReport:
    reps: int
    rejections: int
    degenerate: int
    rate: float
    ci95: tuple[float, float]
    histogram: Histogram
    config: SimulationConfig
    # Kept out of ``to_json_dict``, as seconds vary between runs: run_s of
    # the whole run, noise_s, step_s and tally_s summed over processes,
    # fork_s and merge_s in the calling process; and ``processes``, the
    # number of tile ranges, each its own process where ``os.fork`` exists.
    diagnostics: dict[str, float]

    def to_json_dict(self) -> dict:
        """The results as JSON values.  ``rate`` is NaN when every
        replication is degenerate; it is written as null here."""
        return {
            "reps": self.reps,
            "rejections": self.rejections,
            "degenerate": self.degenerate,
            "rate": None if math.isnan(self.rate) else self.rate,
            "ci95_lo": self.ci95[0],
            "ci95_hi": self.ci95[1],
            "histogram": {
                "lo": self.histogram.lo,
                "hi": self.histogram.hi,
                "underflow": self.histogram.underflow,
                "overflow": self.histogram.overflow,
                "bins": [int(c) for c in self.histogram.counts],
            },
            "config_echo": _config_echo(self.config),
        }


def _config_echo(config: SimulationConfig) -> dict:
    # Only parameters that determine the results: the worker count cannot
    # appear here or byte-level determinism across worker counts would be
    # unattainable by construction.  The noise scheme decides every tally,
    # so it is echoed.
    pol = config.policy
    return {
        "n": config.n,
        "reps": config.reps,
        "seed": config.seed,
        "noise": RNG_SCHEME,
        "policy": {
            "kind": pol.kind,
            "sigma_lo": pol.band.sigma_lo,
            "sigma_hi": pol.band.sigma_hi,
            "alpha": pol.alpha,
            "sigma_const": pol.sigma_const,
            "crit_rule": pol.crit_rule,
            "c_alpha": pol.c_alpha,
            "table_levels": None if pol.table is None else len(pol.table),
        },
        "test": {
            "sided": config.test.sided,
            "alpha": config.test.alpha,
            "statistic": config.test.statistic,
            "sigma_ref": config.test.sigma_ref,
        },
    }


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


def _tile_generator(seed: int, tile: int) -> Generator:
    return Generator(SFC64(SeedSequence(seed, spawn_key=(tile,))))


def _blocks(n: int, tile_lo: int, tile_hi: int):
    """(b_lo, b_hi, chunk) of each block of tiles [tile_lo, tile_hi)."""
    tiles_per_block = max(1, _BLOCK_MAX // TILE)
    for b_lo in range(tile_lo, tile_hi, tiles_per_block):
        b_hi = min(b_lo + tiles_per_block, tile_hi)
        yield b_lo, b_hi, max(1, min(n, _CHUNK_DOUBLES // ((b_hi - b_lo) * TILE)))


def _run_range(config, tile_lo: int, tile_hi: int, critical: float):
    """The tally vector (see the module docstring) and phase seconds of
    the replications of tiles [tile_lo, tile_hi), cut at ``config.reps``."""
    n = config.n
    needs_ss = config.policy.kind == "heuristic_t" or config.test.statistic == "t"
    policy = config.policy
    tally = np.zeros(HIST_BINS + 4, dtype=np.int64)
    timers = {"noise_s": 0.0, "step_s": 0.0, "tally_s": 0.0}

    size = max((b_hi - b_lo) * chunk for b_lo, b_hi, chunk in _blocks(n, tile_lo, tile_hi))
    buffer = np.empty(size * TILE)
    for b_lo, b_hi, chunk in _blocks(n, tile_lo, tile_hi):
        t0 = time.perf_counter()
        width = b_hi - b_lo
        gens = [_tile_generator(config.seed, t) for t in range(b_lo, b_hi)]
        # noise[t, j] is step j of the chunk for tile b_lo + t: each tile's
        # chunk is a contiguous (steps, TILE) slice drawn in place.
        noise = buffer[: width * chunk * TILE].reshape(width, chunk, TILE)
        s = np.zeros((width, TILE))
        ss = np.zeros((width, TILE)) if needs_ss else None
        x = np.empty((width, TILE))
        for i0 in range(1, n + 1, chunk):
            steps = min(chunk, n + 1 - i0)
            for t, gen in enumerate(gens):
                gen.standard_normal(out=noise[t, :steps])
            t1 = time.perf_counter()
            for j in range(steps):
                np.multiply(policy.sigma(i0 + j, s, ss), noise[:, j], out=x)
                s += x
                if needs_ss:
                    x *= x
                    ss += x
            timers["noise_s"] += t1 - t0
            t0 = time.perf_counter()
            timers["step_s"] += t0 - t1

        used = min(b_hi * TILE, config.reps) - b_lo * TILE
        s = s.ravel()[:used]
        if config.test.statistic == "z":
            stats = s / (math.sqrt(n) * config.test.sigma_ref)
        else:
            ss = ss.ravel()[:used]
            s2 = np.maximum((ss - s * s / n) / (n - 1), 0.0)
            good = s2 > 0.0
            tally[1] += used - np.count_nonzero(good)
            stats = (s[good] / math.sqrt(n)) / np.sqrt(s2[good])

        if config.test.sided == "one":
            tally[0] += np.count_nonzero(stats > critical)
        else:
            tally[0] += np.count_nonzero(np.abs(stats) > critical)
        tally[2:] += _bins(stats)
        timers["tally_s"] += time.perf_counter() - t0
    return tally, timers


def _child_payload(config, tile_lo: int, tile_hi: int, critical: float) -> bytes:
    """The pickled ``(True, part)`` of tiles [tile_lo, tile_hi), or
    ``(False, error)`` for the parent to raise; an error that does not
    survive a pickle round trip is sent as its repr."""
    try:
        return pickle.dumps((True, _run_range(config, tile_lo, tile_hi, critical)))
    except BaseException as exc:  # KeyboardInterrupt too: the parent raises it
        try:
            payload = pickle.dumps((False, exc))
            pickle.loads(payload)
            return payload
        except Exception:
            return pickle.dumps((False, repr(exc)))


def _fork_part(config, tile_lo: int, tile_hi: int, critical: float):
    """Fork a child that runs tiles [tile_lo, tile_hi) and writes its
    payload to a pipe; the child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(_child_payload(config, tile_lo, tile_hi, critical))
            status = 0
        finally:
            os._exit(status)  # never unwind into the caller's stack
    os.close(write_fd)  # so that a dead child reads as EOF
    return pid, open(read_fd, "rb")


def _received(payload: bytes, status: int, tile_lo: int, tile_hi: int):
    """The part a child sent, or its error raised here."""
    try:
        ok, value = pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):  # nothing, or a cut pickle
        raise RuntimeError(
            f"the child process for tiles [{tile_lo}, {tile_hi}) exited with status "
            f"{os.waitstatus_to_exitcode(status)} without sending its tallies"
        ) from None
    if ok:
        return value
    if isinstance(value, BaseException):
        raise value
    raise RuntimeError(
        f"the child process for tiles [{tile_lo}, {tile_hi}) raised {value}, "
        "which could not be sent back"
    )


def _run_parts(config, ranges, critical: float):
    """The parts of ``ranges`` and the seconds spent forking: the first
    range runs in this process and each other one in a forked child.  Any
    error, here or in a child, kills and reaps every child left."""
    if not hasattr(os, "fork"):
        return [_run_range(config, lo, hi, critical) for lo, hi in ranges], 0.0
    children = []  # (pid, pipe) of every child not yet reaped
    try:
        t0 = time.perf_counter()
        for lo, hi in ranges[1:]:
            children.append(_fork_part(config, lo, hi, critical))
        fork_s = time.perf_counter() - t0
        parts = [_run_range(config, *ranges[0], critical)]
        for lo, hi in ranges[1:]:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            parts.append(_received(payload, status, lo, hi))
        return parts, fork_s
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run(config: SimulationConfig) -> SimulationReport:
    """Execute the Monte Carlo experiment described by ``config``.

    Its tiles are cut into ``min(max(workers, usable CPUs), tiles)``
    ranges; output tallies are bit-identical for any cut.
    """
    start = time.perf_counter()
    critical = config.test.critical_value(config.n)
    n_tiles = -(-config.reps // TILE)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_parts = min(max(config.workers, cpus or 1), n_tiles)
    bounds = [k * n_tiles // n_parts for k in range(n_parts + 1)]
    parts, fork_s = _run_parts(config, list(zip(bounds[:-1], bounds[1:])), critical)

    t0 = time.perf_counter()
    tally = sum(vector for vector, _ in parts)
    diagnostics = {key: sum(timers[key] for _, timers in parts) for key in parts[0][1]}
    diagnostics["fork_s"] = fork_s
    diagnostics["merge_s"] = time.perf_counter() - t0
    diagnostics["processes"] = len(parts)

    rejections, degenerate, underflow, *_, overflow = tally.tolist()
    effective = config.reps - degenerate
    rate = rejections / effective if effective > 0 else math.nan
    z95 = norm_quantile(0.975)
    ci = wilson_interval(rejections, effective, z95) if effective > 0 else (0.0, 1.0)
    diagnostics["run_s"] = time.perf_counter() - start
    return SimulationReport(
        reps=config.reps,
        rejections=rejections,
        degenerate=degenerate,
        rate=rate,
        ci95=ci,
        histogram=Histogram(HIST_LO, HIST_HI, tally[3:-1], underflow, overflow),
        config=config,
        diagnostics=diagnostics,
    )
