"""Monte Carlo engine: statistic arithmetic, stream purity, determinism,
calibration, and report bookkeeping."""

import json
import math
import os
import threading
import time
from functools import lru_cache

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence

from gnormal import (
    ConfigurationError,
    DomainError,
    SimulationConfig,
    TestSpec,
    VolatilityBand,
    constant_policy,
    heuristic_t_policy,
    norm_quantile,
    one_sided_optimal_policy,
    p1,
    run,
    two_sided_threshold,
    two_sided_threshold_policy,
    wilson_interval,
)
from gnormal import simulate
from gnormal.capacity import tail_threshold
from gnormal.policy import PolicySpec
from gnormal.simulate import HIST_BINS, RNG_SCHEME

from oracles import scalar_sigma, t_statistic

BAND = VolatilityBand(0.8, 1.0)

# The noise contract: replication r takes column r % TILE of tile r // TILE,
# drawn step-major from tile r // TILE's child of SeedSequence(seed):
# Generator(SFC64(SeedSequence(seed).spawn(k + 1)[k])).standard_normal((n, TILE))
# with k = r // TILE.
TILE = 1024


@lru_cache(maxsize=8)
def _reference_tile(seed: int, tile: int, n: int) -> np.ndarray:
    gen = Generator(SFC64(SeedSequence(seed).spawn(tile + 1)[tile]))
    draws = gen.standard_normal((n, TILE))
    draws.flags.writeable = False  # shared by every caller through the cache
    return draws


def replication_noise(seed: int, rep: int, n: int) -> np.ndarray:
    """Noise of replication ``rep``, from the contract alone: its column of
    a freshly drawn tile."""
    return _reference_tile(seed, rep // TILE, n)[:, rep % TILE]


def resimulate(spec, eps):
    """Observations X_i = sigma_i * eps_i of one replication, stepped one
    at a time through the policy kernel at width 1."""
    s = ss = 0.0
    xs = []
    for i, e in enumerate(eps, start=1):
        x = scalar_sigma(spec, i, s, ss) * e
        xs.append(x)
        s += x
        ss += x * x
    return xs


class TestTStatistic:
    def test_zero_mean(self):
        assert t_statistic([1.0, -1.0]) == 0.0

    def test_hand_arithmetic(self):
        # mean 1.5, s^2 = 1, T = sqrt(4) * 1.5 / 1 = 3
        assert t_statistic([1.0, 1.0, 1.0, 3.0]) == pytest.approx(3.0, rel=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(25)
        for k in (0.1, 3.0, 1e6):
            assert t_statistic(k * xs) == pytest.approx(t_statistic(xs), rel=1e-10)

    def test_zero_variance(self):
        with pytest.raises(ZeroDivisionError, match="zero sample variance"):
            t_statistic([2.0, 2.0, 2.0])

    def test_too_short(self):
        with pytest.raises(DomainError):
            t_statistic([1.0])


class TestWilson:
    def test_contains_mle_and_orders(self):
        lo, hi = wilson_interval(56, 1000, 1.959963984540054)
        assert 0.0 <= lo < 56 / 1000 < hi <= 1.0

    def test_frozen_value(self):
        # classic check: 9/10 at z = 1.96
        lo, hi = wilson_interval(9, 10, 1.959963984540054)
        assert lo == pytest.approx(0.5958, abs=2e-4)
        assert hi == pytest.approx(0.9821, abs=2e-4)

    def test_edge_counts(self):
        lo, hi = wilson_interval(0, 50, 3.0)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50, 3.0)
        assert hi == 1.0 and lo < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            wilson_interval(5, 0, 2.0)
        with pytest.raises(DomainError):
            wilson_interval(7, 5, 2.0)


class TestSpecValidation:
    def test_alpha_range(self):
        with pytest.raises(ConfigurationError):
            TestSpec(sided="one", alpha=0.7, statistic="z", sigma_ref=1.0)

    def test_z_needs_sigma_ref(self):
        with pytest.raises(ConfigurationError):
            TestSpec(sided="one", alpha=0.05, statistic="z")

    def test_t_needs_n_at_least_two(self):
        test = TestSpec(sided="two", alpha=0.05, statistic="t")
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                n=1, reps=10, policy=constant_policy(BAND, 1, 0.9), test=test, seed=0
            )

    def test_policy_horizon_must_match(self):
        test = TestSpec(sided="one", alpha=0.05, statistic="z", sigma_ref=1.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                n=10, reps=10, policy=constant_policy(BAND, 20, 0.9), test=test, seed=0
            )

    def test_critical_values(self):
        z_test = TestSpec(sided="one", alpha=0.05, statistic="z", sigma_ref=1.0)
        assert z_test.critical_value(100) == norm_quantile(0.95)
        t_test = TestSpec(sided="two", alpha=0.05, statistic="t")
        assert round(t_test.critical_value(200), 2) == 1.97


class TestStreams:
    def test_scheme_id_names_the_contract(self):
        assert simulate.TILE == TILE
        assert RNG_SCHEME == "sfc64-tile1024-stepmajor"

    def test_tile_keys_are_unambiguous(self):
        # Keyed by the entropy list [seed, tile], the first two pairs share
        # a state and tile 0 of seed 7 repeats SeedSequence(7) itself.  The
        # last pairs are adjacent seeds, which benchmark iterations use.
        def state(gen):
            return tuple(gen.bit_generator.state["state"]["state"].tolist())

        def tile_state(seed, tile):
            return state(simulate._tile_generator(seed, tile))

        assert tile_state(2**32 + 5, 0) != tile_state(5, 1)
        assert tile_state(7, 0) != state(Generator(SFC64(SeedSequence(7))))
        for seed in (0, 5, 2**32 - 1, 2**32 + 5, 2**64 - 2):
            assert tile_state(seed, 1) != tile_state(seed + 1, 0)

    def test_tile_streams_look_independent(self):
        # Smoke test of the first 2**16 draws of 4 tiles x 2 adjacent seeds:
        # mean 0 and variance 1 within 5 standard errors, and every pairwise
        # correlation within 5 / sqrt(N).
        size = 2**16
        draws = np.array([
            simulate._tile_generator(seed, tile).standard_normal(size)
            for seed in (41, 42) for tile in range(4)
        ])
        assert np.all(np.abs(draws.mean(axis=1)) < 5.0 / math.sqrt(size))
        # the variance of a sample variance of normals is 2 / N
        assert np.all(np.abs(draws.var(axis=1) - 1.0) < 5.0 * math.sqrt(2.0 / size))
        corr = np.corrcoef(draws)
        off_diagonal = corr[~np.eye(len(draws), dtype=bool)]
        assert np.all(np.abs(off_diagonal) < 5.0 / math.sqrt(size))

    def test_engine_draws_match_reference_columns(self, monkeypatch, tmp_path):
        # Record what each tile's generator writes into the engine's noise
        # buffer, over several blocks and step chunks, and compare every
        # column around the 1023/1024 tile boundary and in the partial last
        # tile with a fresh draw of the contract.  The chunks go to files,
        # so that those drawn in a child process are seen too.
        n, seed, reps = 12, 987, 2 * TILE + 5
        make_generator = simulate._tile_generator

        class Recorder:
            def __init__(self, seed, tile):
                self.gen = make_generator(seed, tile)
                self.tile = tile
                self.chunks = 0

            def standard_normal(self, out):
                self.gen.standard_normal(out=out)
                np.save(tmp_path / f"{cpus}-{self.tile}-{self.chunks:03d}.npy", out)
                self.chunks += 1

        monkeypatch.setattr(simulate, "_tile_generator", Recorder)
        monkeypatch.setattr(simulate, "_BLOCK_MAX", 2 * TILE)
        monkeypatch.setattr(simulate, "_CHUNK_DOUBLES", 5 * 2 * TILE)
        test = TestSpec(sided="one", alpha=0.05, statistic="z", sigma_ref=1.0)
        # 5-step chunks in a two-tile block, 10-step in a one-tile block: one
        # CPU runs tiles [0, 2) and [2, 3) as blocks, two CPUs split the
        # range into [0, 1) and [1, 3).
        for cpus, plan in ((1, [3, 3, 2]), (2, [2, 3, 3])):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
            )
            run(SimulationConfig(
                n=n, reps=reps, policy=constant_policy(BAND, n, 0.9), test=test, seed=seed
            ))
            drawn = {}
            for path in sorted(tmp_path.glob(f"{cpus}-*.npy")):
                drawn.setdefault(int(path.name.split("-")[1]), []).append(np.load(path))
            assert sorted(drawn) == [0, 1, 2]
            assert [len(drawn[t]) for t in range(3)] == plan
            tiles = {t: np.concatenate(chunks) for t, chunks in drawn.items()}
            checked = [*range(0, 3), *range(TILE - 3, TILE + 3), *range(2 * TILE - 1, reps)]
            for rep in checked:
                engine = tiles[rep // TILE][:, rep % TILE]
                assert np.array_equal(engine, replication_noise(seed, rep, n)), rep
            # the partial last tile is drawn in full
            assert np.array_equal(tiles[2], _reference_tile(seed, 2, n))

    def test_replication_noise_is_pure(self):
        a = replication_noise(5, 123, 16)
        b = replication_noise(5, 123, 16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, replication_noise(5, 124, 16))
        assert not np.array_equal(a, replication_noise(5, 123 + TILE, 16))
        assert not np.array_equal(a, replication_noise(6, 123, 16))


def _report_key(report):
    return (
        report.rejections,
        report.degenerate,
        report.histogram.underflow,
        report.histogram.overflow,
        tuple(report.histogram.counts.tolist()),
    )


class TestDeterminism:
    def test_worker_invariance(self):
        # three tiles, the last partial: workers own whole tiles, so 7
        # workers run as 3
        spec = heuristic_t_policy(BAND, 30, 0.05)
        test = TestSpec(sided="two", alpha=0.05, statistic="t")
        reports = [
            run(SimulationConfig(
                n=30, reps=2 * TILE + 5, policy=spec, test=test, seed=11, workers=w
            ))
            for w in (1, 2, 3, 7)
        ]
        keys = {_report_key(r) for r in reports}
        assert len(keys) == 1

    def test_block_and_chunk_sizes_do_not_change_tallies(self, monkeypatch):
        spec = heuristic_t_policy(BAND, 30, 0.05)
        test = TestSpec(sided="two", alpha=0.05, statistic="t")
        config = SimulationConfig(n=30, reps=3 * TILE + 17, policy=spec, test=test, seed=5)
        expected = _report_key(run(config))
        for block_max, chunk_doubles in ((1, 1), (TILE, 7 * TILE), (2 * TILE + 1, 1)):
            monkeypatch.setattr(simulate, "_BLOCK_MAX", block_max)
            monkeypatch.setattr(simulate, "_CHUNK_DOUBLES", chunk_doubles)
            assert _report_key(run(config)) == expected

    def test_single_replication_isolated_rerun(self):
        # replication r's contribution is reproducible from (seed, r) alone
        n, seed = 25, 42
        spec = one_sided_optimal_policy(BAND, n, 0.05)
        test = TestSpec(sided="one", alpha=0.05, statistic="z", sigma_ref=1.0)
        report = run(SimulationConfig(n=n, reps=64, policy=spec, test=test, seed=seed))
        crit = test.critical_value(n)
        manual = 0
        for rep in range(64):
            eps = replication_noise(seed, rep, n)
            s = ss = 0.0
            for i in range(n):
                x = scalar_sigma(spec, i + 1, s, ss) * eps[i]
                s += x
                ss += x * x
            z = s / math.sqrt(n)
            manual += z > crit
        assert manual == report.rejections

    def test_vectorized_policy_matches_scalar(self):
        # heuristic rule, both critical-value conventions: the normal
        # quantile and the t-test's own t_{0.975, n-1}
        n, seed, reps = 40, 9, 128
        test = TestSpec(sided="two", alpha=0.05, statistic="t")
        for spec in (
            heuristic_t_policy(BAND, n, 0.05),
            heuristic_t_policy(BAND, n, c_alpha=test.critical_value(n)),
        ):
            report = run(SimulationConfig(n=n, reps=reps, policy=spec, test=test, seed=seed))
            crit = test.critical_value(n)
            manual = 0
            for rep in range(reps):
                xs = resimulate(spec, replication_noise(seed, rep, n))
                manual += abs(t_statistic(xs)) > crit
            assert manual == report.rejections


class Boom(RuntimeError):
    pass


class TwoArgs(Exception):
    """Pickles, but its unpickling calls ``__init__`` with one argument."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class TestSplit:
    # 17 tiles, the last partial.  On 2 CPUs one worker runs tiles [0, 8)
    # in the calling process and [8, 17) in a forked child, one block each.
    N, REPS = 20, 17 * TILE - 300
    CHILD_TILES = set(range(8, 17))

    def run_on(self, monkeypatch, tmp_path, config, cpus,
               make_generator=simulate._tile_generator):
        """``run`` with ``cpus`` CPUs, and {pid: tiles} of the streams that
        child processes built, seen through files under ``tmp_path``.  No
        child process and no thread may outlive ``run``."""
        caller = os.getpid()
        built = tmp_path / "built"
        built.mkdir(exist_ok=True)
        for old in built.iterdir():
            old.unlink()

        def recording(seed, tile):
            if os.getpid() != caller:
                (built / f"{os.getpid()}-{tile}").touch()
            return make_generator(seed, tile)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(simulate, "_tile_generator", recording)
        threads = threading.active_count()
        try:
            report = run(config)
        finally:
            assert threading.active_count() == threads
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        in_children = {}
        for path in built.iterdir():
            pid, tile = map(int, path.name.split("-"))
            in_children.setdefault(pid, set()).add(tile)
        return report, in_children

    def config(self, spec=None, test=None, workers=1):
        return SimulationConfig(
            n=self.N, reps=self.REPS, workers=workers, seed=21,
            policy=spec or heuristic_t_policy(BAND, self.N, 0.05),
            test=test or TestSpec(sided="two", alpha=0.05, statistic="t"),
        )

    def test_reports_are_identical_split_or_not(self, monkeypatch, tmp_path):
        n = self.N
        z = TestSpec(sided="one", alpha=0.05, statistic="z", sigma_ref=1.0)
        t = TestSpec(sided="two", alpha=0.05, statistic="t")
        for spec, test in (
            (constant_policy(BAND, n, 0.9), z),
            (one_sided_optimal_policy(BAND, n, 0.05), z),
            (two_sided_threshold_policy(BAND, n, two_sided_threshold(BAND, 0.05, 10)), t),
            (heuristic_t_policy(BAND, n, 0.05), t),
        ):
            payloads = set()
            for workers, cpus in ((1, 1), (1, 2), (2, 2), (2, 4), (7, 2)):
                config = self.config(spec, test, workers)
                report, _ = self.run_on(monkeypatch, tmp_path, config, cpus)
                payload = report.to_json_dict()
                del payload["runtime_seconds"]
                payloads.add(json.dumps(payload, sort_keys=True))
                assert report.diagnostics["noise_s"] > 0.0
                assert report.diagnostics["step_s"] > 0.0
            assert len(payloads) == 1, spec.kind

    def test_second_half_is_drawn_in_a_child_only_when_split(self, monkeypatch, tmp_path):
        _, in_children = self.run_on(monkeypatch, tmp_path, self.config(), 2)
        assert list(in_children.values()) == [self.CHILD_TILES]
        _, in_children = self.run_on(monkeypatch, tmp_path, self.config(), 1)
        assert in_children == {}

    def test_without_fork_every_part_runs_in_the_caller(self, monkeypatch, tmp_path):
        forked, _ = self.run_on(monkeypatch, tmp_path, self.config(workers=2), 4)
        monkeypatch.delattr(os, "fork")
        report, in_children = self.run_on(monkeypatch, tmp_path, self.config(workers=2), 4)
        assert in_children == {}
        assert report.diagnostics["fork_s"] == 0.0
        assert _report_key(report) == _report_key(forked)

    def test_a_failed_draw_in_the_child_raises_its_own_error(self, monkeypatch, tmp_path):
        make_generator = simulate._tile_generator
        caller = os.getpid()

        def failing(seed, tile):
            if tile == 12:
                where = "child" if os.getpid() != caller else "caller"
                (tmp_path / f"failed-in-{where}").touch()
                raise Boom(f"no stream for tile {tile}")
            return make_generator(seed, tile)

        for cpus, failed in ((2, ["child"]), (1, ["caller", "child"])):
            with pytest.raises(Boom, match="^no stream for tile 12$"):
                self.run_on(monkeypatch, tmp_path, self.config(), cpus, failing)
            assert sorted(p.name for p in tmp_path.glob("failed-in-*")) == [
                f"failed-in-{where}" for where in failed
            ]

    def test_an_unpicklable_error_in_the_child_raises_its_repr(self, monkeypatch, tmp_path):
        make_generator = simulate._tile_generator

        class Local(Exception):  # pickled by reference, and not found by name
            pass

        for error, shown in (
            (Local("no stream"), r"Local\('no stream'\)"),
            (TwoArgs("no stream", 12), r"TwoArgs\('no stream at 12'\)"),
        ):
            def failing(seed, tile):
                if tile == 12:
                    raise error
                return make_generator(seed, tile)

            with pytest.raises(RuntimeError, match=rf"tiles \[8, 17\) raised .*{shown}"):
                self.run_on(monkeypatch, tmp_path, self.config(), 2, failing)

    def test_a_child_that_exits_without_tallies_names_its_status(self, monkeypatch, tmp_path):
        caller = os.getpid()
        run_range = simulate._run_range

        def exiting(config, tile_lo, tile_hi, critical):
            if os.getpid() != caller:
                os._exit(3)
            return run_range(config, tile_lo, tile_hi, critical)

        monkeypatch.setattr(simulate, "_run_range", exiting)
        with pytest.raises(RuntimeError, match=r"tiles \[8, 17\) exited with status 3 "):
            self.run_on(monkeypatch, tmp_path, self.config(), 2)

    def test_a_failed_step_in_the_caller_kills_the_child(self, monkeypatch, tmp_path):
        # The child sleeps at its first step for longer than the test may
        # take and marks each step it passes, so a caller that waited for
        # its part would be slow and find marks: the caller's error at step
        # 12 must kill it instead.
        sigma = PolicySpec.sigma
        caller = os.getpid()

        def failing(spec, i, s, ss):
            if os.getpid() != caller:
                if i == 1:
                    time.sleep(10.0)
                (tmp_path / f"child-step-{i}").touch()
            elif i == 12:
                raise error(f"step {i}")
            return sigma(spec, i, s, ss)

        monkeypatch.setattr(PolicySpec, "sigma", failing)
        for error in (Boom, KeyboardInterrupt):
            for cpus in (2, 1):
                start = time.perf_counter()
                with pytest.raises(error, match="^step 12$"):
                    self.run_on(monkeypatch, tmp_path, self.config(), cpus)
                assert time.perf_counter() - start < 5.0
        assert list(tmp_path.glob("child-step-*")) == []


class TestCalibrationAndInflation:
    def test_null_calibration_quick(self):
        band = VolatilityBand(1.0, 1.0)
        config = SimulationConfig(
            n=40,
            reps=40_000,
            policy=constant_policy(band, 40, 1.0),
            test=TestSpec(sided="one", alpha=0.05, statistic="z", sigma_ref=1.0),
            seed=3,
        )
        report = run(config)
        lo, hi = wilson_interval(report.rejections, report.reps, norm_quantile(0.9995))
        assert lo <= 0.05 <= hi

    def test_adversarial_policies_inflate(self):
        # two-sided t rate exceeds alpha under every adversarial rule
        n, reps = 40, 40_000
        table = two_sided_threshold(BAND, 0.05, 10)
        for spec in (
            heuristic_t_policy(BAND, n, 0.05),
            two_sided_threshold_policy(BAND, n, table),
        ):
            config = SimulationConfig(
                n=n, reps=reps, policy=spec,
                test=TestSpec(sided="two", alpha=0.05, statistic="t"), seed=4,
            )
            report = run(config)
            lo3, _ = wilson_interval(report.rejections, report.reps, 3.0)
            assert lo3 > 0.05


class TestHistogram:
    def test_tail_identity_and_totals(self):
        spec = heuristic_t_policy(BAND, 30, 0.05)
        test = TestSpec(sided="two", alpha=0.05, statistic="t")
        config = SimulationConfig(n=30, reps=4000, policy=spec, test=test, seed=8)
        report = run(config)
        hist = report.histogram
        total = hist.counts.sum() + hist.underflow + hist.overflow
        assert total == report.reps - report.degenerate
        # recount rejections from raw statistics: must match exactly
        crit = test.critical_value(30)
        manual = 0
        for rep in range(4000):
            xs = resimulate(spec, replication_noise(8, rep, 30))
            manual += abs(t_statistic(xs)) > crit
        assert manual == report.rejections

    def test_bin_geometry(self):
        from gnormal.simulate import _empty_histogram

        hist = _empty_histogram()
        assert len(hist.counts) == HIST_BINS
        assert hist.edges[0] == -6.0 and hist.edges[-1] == 6.0
        hist.add(np.array([-7.0, -6.0, 0.0, 5.999, 6.0, 100.0]))
        assert hist.underflow == 1  # -7.0
        assert hist.overflow == 2  # 6.0 (right-open top) and 100.0
        assert hist.counts.sum() == 3

    def test_csv(self, tmp_path):
        from gnormal.simulate import _empty_histogram

        hist = _empty_histogram()
        hist.add(np.array([0.01, 0.02, 1.0]))
        path = tmp_path / "h.csv"
        hist.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 1 + HIST_BINS
        assert sum(int(l.split(",")[2]) for l in lines[1:]) == 3


def one_sided_limit_run(band, n, reps, seed):
    """Rejection report of the one-sided z test at level 0.05 under the
    one-sided optimal policy, and its limit p1(sigma_hi * Phi^-1(0.95))."""
    config = SimulationConfig(
        n=n, reps=reps, policy=one_sided_optimal_policy(band, n, 0.05),
        test=TestSpec(sided="one", alpha=0.05, statistic="z", sigma_ref=band.sigma_hi),
        seed=seed,
    )
    return run(config), p1(tail_threshold(0.05, band, "one"), band)


class TestConvergenceTable:
    def test_classical_band_hits_alpha(self):
        band = VolatilityBand(1.0, 1.0)
        for n in (50, 200):
            report, target = one_sided_limit_run(band, n, reps=20_000, seed=2)
            assert target == pytest.approx(0.05, rel=1e-12)
            assert report.ci95[0] - 0.01 <= 0.05 <= report.ci95[1] + 0.01

    def test_adversarial_band_targets_limit(self):
        report, target = one_sided_limit_run(BAND, 400, reps=20_000, seed=2)
        assert target == pytest.approx(0.1 / 1.8, rel=1e-12)
        assert abs(report.rate - target) <= 0.01


class TestReportShape:
    def test_json_dict_fields(self):
        config = SimulationConfig(
            n=10, reps=100,
            policy=constant_policy(BAND, 10, 0.9),
            test=TestSpec(sided="one", alpha=0.05, statistic="z", sigma_ref=1.0),
            seed=0,
        )
        payload = run(config).to_json_dict()
        for key in (
            "reps", "rejections", "degenerate", "rate", "ci95_lo", "ci95_hi",
            "histogram", "runtime_seconds", "config_echo",
        ):
            assert key in payload
        assert payload["histogram"]["lo"] == -6.0
        assert len(payload["histogram"]["bins"]) == HIST_BINS
        assert payload["config_echo"]["policy"]["kind"] == "constant"
        assert payload["config_echo"]["noise"] == RNG_SCHEME

    def test_phase_seconds_stay_out_of_the_payload(self):
        config = SimulationConfig(
            n=10, reps=3 * TILE, workers=2,
            policy=constant_policy(BAND, 10, 0.9),
            test=TestSpec(sided="one", alpha=0.05, statistic="z", sigma_ref=1.0),
            seed=0,
        )
        report = run(config)
        assert set(report.diagnostics) == {
            "noise_s", "step_s", "tally_s", "fork_s", "merge_s"
        }
        assert all(seconds >= 0.0 for seconds in report.diagnostics.values())
        assert report.diagnostics["fork_s"] > 0.0
        assert "diagnostics" not in report.to_json_dict()
