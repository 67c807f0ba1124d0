"""Solver contracts: exactness on polynomial data, closed-form agreement,
maximum principle, symmetry, refinement behavior, sandwich checking."""

import csv
import dataclasses
import itertools
import math
import operator
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnormal import (
    ConfigurationError,
    DomainError,
    GridSpec,
    IndicatorAbove,
    IndicatorAbsAbove,
    LipschitzTable,
    NumericalError,
    VolatilityBand,
    norm_cdf,
    norm_quantile,
    p1,
    profile_f,
    solve,
    two_sided_error_bound,
    two_sided_threshold,
    verify_sandwich,
)
from gnormal import cli, gheat
from gnormal.capacity import tail_threshold
from gnormal.gheat import (
    GridSolution,
    ThresholdLevel,
    _d2_sign_change_root,
    _march,
    default_two_sided_grid,
)

import oracles
from oracles import exact_values

BAND = VolatilityBand(0.8, 1.0)
STEP_BANDS = [(0.8, 1.0), (0.0, 1.0), (1.0, 1.0), (0.5, 2.0)]


def aligned_grid(c, nx_minus_1, span=12.0, t_end=1.0):
    """Domain chosen so c sits at fractional cell position 1/3 (or 2/3 at
    every second halving): the snap offset then halves exactly per
    refinement instead of jumping erratically."""
    h1 = 2 * span / 300
    x_min = -span + (c - 1.0) - h1 / 3
    return GridSpec(x_min, x_min + 2 * span, nx_minus_1 + 1, t_end)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GridSpec(1.0, -1.0, 101, 1.0)
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 1.0, 2, 1.0)
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 1.0, 101, 0.0)
        with pytest.raises(ConfigurationError, match="finite t_end"):
            GridSpec(-1.0, 1.0, 101, float("inf"))  # no step count reaches it
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 1.0, 101, 1.0, safety=1.5)  # CFL violation
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 1.0, 101, 1.0, safety=0.0)
        # the largest grid is only built here: marching it takes seconds
        assert GridSpec(-1.0, 1.0, gheat.MAX_NX, 1.0).nx == 100_000
        with pytest.raises(ConfigurationError,
                           match=r"^grid requires 3 <= nx <= 100000, got 100001$"):
            GridSpec(-1.0, 1.0, gheat.MAX_NX + 1, 1.0)

    def test_step_count_is_bounded(self, monkeypatch):
        # refused before any per-step array is made
        with pytest.raises(ConfigurationError, match=r"^t_end = 1e\+300 on nx = 5 needs "
                           r"1\.389e\+299 steps, more than 1000000$"):
            solve(IndicatorAbove(1.0), BAND, GridSpec(-6.0, 6.0, 5, 1e300))
        # sigma_hi**2 overflows, so the step limit dt_max is 0
        with pytest.raises(ConfigurationError, match=r"needs inf steps, more than 1000000$"):
            solve(IndicatorAbove(1.0), VolatilityBand(0.8, 1e200), GridSpec(-6.0, 6.0, 5, 1.0))
        # dt <= 0.8 * 3**2 takes 70 / 7.2, rounded up to 10 steps
        grid = GridSpec(-6.0, 6.0, 5, 70.0)
        monkeypatch.setattr(gheat, "MAX_STEPS", 10)
        assert solve(IndicatorAbove(1.0), BAND, grid).n_steps == 10
        monkeypatch.setattr(gheat, "MAX_STEPS", 9)
        with pytest.raises(ConfigurationError, match=r"needs 9\.722 steps, more than 9$"):
            solve(IndicatorAbove(1.0), BAND, grid)

    def test_kept_values_are_bounded(self, monkeypatch):
        # refused in set-up, before any per-step or per-level array is made
        grid = GridSpec(-11.0, 11.0, gheat.MAX_NX, 0.00387)
        with pytest.raises(ConfigurationError, match=r"^99948 levels of nx = 100000 are "
                           r"9994800000 values, more than 10000000$"):
            _march(IndicatorAbove(1.0), BAND, grid, 100_000)
        # 10 steps on 5 nodes keep 11 levels, 55 values
        grid = GridSpec(-6.0, 6.0, 5, 70.0)
        monkeypatch.setattr(gheat, "MAX_VALUES", 55)
        assert solve(IndicatorAbove(1.0), BAND, grid, max_levels=12).values.size == 55
        monkeypatch.setattr(gheat, "MAX_VALUES", 54)
        with pytest.raises(ConfigurationError, match=r"^11 levels of nx = 5 are 55 values, "
                           r"more than 54$"):
            solve(IndicatorAbove(1.0), BAND, grid, max_levels=12)


class TestInitialConditions:
    def test_table_validation(self):
        with pytest.raises(DomainError):
            LipschitzTable([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            LipschitzTable([0.0], [1.0])
        # a NaN abscissa passes every b <= a comparison; a table must be finite
        with pytest.raises(DomainError, match="finite"):
            gheat.LipschitzTable((0.0, float("nan"), 2.0), (0.0, 1.0, 2.0))
        with pytest.raises(DomainError, match="finite"):
            LipschitzTable([0.0, 1.0, 2.0], [0.0, float("inf"), 2.0])

    def test_two_sided_threshold_is_not_negative(self):
        for c in (-1.0, float("nan")):
            with pytest.raises(DomainError, match=">= 0"):
                IndicatorAbsAbove(c)

    def test_indicator_outside_grid(self):
        with pytest.raises(ConfigurationError):
            solve(IndicatorAbove(20.0), BAND, GridSpec(-5, 5, 101, 1.0))

    def test_level_zero_is_sampled_datum(self):
        for make, fold in ((IndicatorAbove, np.positive), (IndicatorAbsAbove, np.abs)):
            sol = solve(make(0.3), BAND, GridSpec(-5, 5, 101, 0.25))
            assert sol.times[0] == 0.0
            expected = (fold(sol.x) > sol.snapped_c).astype(float)
            assert np.array_equal(sol.values[0], expected)
            assert np.array_equal(exact_values(sol, 0.0), sol.values[0])

    def test_boundary_values(self):
        # Indicator data with sigma_lo > 0 is pinned to the closed form at
        # the end nodes; sigma_lo = 0 and table data hold their end values.
        grid = GridSpec(-3, 3, 121, 0.5)
        xs = np.linspace(-3, 3, 13)
        ys = np.sin(xs) + 0.3 * xs
        held = [
            (solve(IndicatorAbove(0.4), VolatilityBand(0.0, 1.0), grid), [0.0, 1.0]),
            (solve(IndicatorAbsAbove(1.0), VolatilityBand(0.0, 1.0), grid), [1.0, 1.0]),
            (solve(LipschitzTable(xs, ys), BAND, grid), [ys[0], ys[-1]]),
        ]
        for sol, ends in held:
            assert (sol.values[:, [0, -1]] == ends).all()
        for ic in (IndicatorAbove(0.4), IndicatorAbsAbove(1.0)):
            sol = solve(ic, BAND, grid, max_levels=6)
            for k in range(1, sol.times.size):
                exact = exact_values(sol, float(sol.times[k]))
                assert np.array_equal(sol.values[k, [0, -1]], exact[[0, -1]])


def _holds_negative_zero(a):
    return bool(np.signbit(a[a == 0.0]).any())


class TestNoNegativeZero:
    """No node ever holds -0.0, so the step needs no + 0.0 on G."""

    def test_negative_zero_table_is_sampled_as_positive_zero(self):
        # -0.0 at both ends and inside, on the grid's own nodes, with
        # negative values around it: sigma_lo = 0 makes every a_lo D with
        # D < 0 a -0.0, and the ends are held at their initial values.
        x = np.linspace(-1.0, 1.0, 41)
        y = np.where(np.arange(41) % 4 == 0, -0.0, -np.abs(np.sin(3.0 * x)))
        assert np.signbit(y[[0, 20, -1]]).all()
        for band in (VolatilityBand(0.0, 1.0), BAND):
            sol = solve(LipschitzTable(x, y), band, GridSpec(-1.0, 1.0, 41, 0.5))
            assert not _holds_negative_zero(sol.values), band
            assert (sol.values[0] == y).all()

    @pytest.mark.parametrize("band", [BAND, VolatilityBand(1e-160, 1.0)])
    def test_indicator_data_with_underflowing_ends(self, band):
        # Far ends: the closed-form boundary values underflow to zero at
        # every step, and with sigma_lo = 1e-160 so does every a_lo D.
        grid = GridSpec(-60.0, 3.0, 64, 0.05)
        for ic in (IndicatorAbove(0.3), IndicatorAbsAbove(0.3)):
            sol = solve(ic, band, grid)
            # 1{|x| > c} underflows only its mirror term: f(-60/sqrt(t)) + 1
            assert (sol.values[1:, 0] == (ic == IndicatorAbsAbove(0.3))).all()
            assert not _holds_negative_zero(sol.values), ic

    def test_cli_csv_holds_no_negative_zero(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 9)
        y = [-0.0, 0.5, -0.0, -0.25, -0.0, -1.0, 0.0, 0.75, -0.0]
        table = tmp_path / "signed.csv"
        table.write_text("".join(f"{a!r} {b!r}\n" for a, b in zip(x.tolist(), y)))
        out_path = tmp_path / "u.csv"
        argv = ["solve", "--ic", f"table:{table}", "--sigma-lo", "0", "--sigma-hi", "1",
                "--nx", "9", "--t-end", "0.2", "--levels", "3", "--out", str(out_path)]
        assert cli.main(argv) == 0
        with open(out_path) as fh:
            fields = {f for row in csv.reader(fh) for f in row}
        assert "0.0" in fields
        assert "-0.0" not in fields


class TestPolynomialData:
    def test_linear_data_is_stationary(self):
        grid = GridSpec(-5, 5, 201, 1.0)
        xs = np.linspace(-5, 5, 21)
        sol = solve(LipschitzTable(xs, xs), BAND, grid)
        assert np.abs(sol.values[-1] - sol.x).max() <= 1e-10

    def test_quadratic_moments(self):
        # convex data picks up sigma_hi^2 * t, concave data sigma_lo^2 * t
        grid = GridSpec(-10, 10, 401, 1.0)
        xs = np.linspace(-10, 10, 2001)
        up = solve(LipschitzTable(xs, xs**2), BAND, grid)
        down = solve(LipschitzTable(xs, -(xs**2)), BAND, grid)
        assert up.value_at_final(0.0) == pytest.approx(BAND.sigma_hi**2, abs=1e-9)
        assert down.value_at_final(0.0) == pytest.approx(-BAND.sigma_lo**2, abs=1e-9)


class TestOneSidedOracle:
    def test_matches_closed_form(self):
        c = 1.96
        grid = GridSpec(-10, 10, 501, 1.0)
        sol = solve(IndicatorAbove(c), BAND, grid, max_levels=2)
        exact_snap = exact_values(sol, 1.0)
        assert np.abs(sol.values[-1] - exact_snap).max() <= 5e-4
        exact_req = np.array([profile_f(x - c, BAND) for x in sol.x])
        assert np.abs(sol.values[-1] - exact_req).max() <= 2e-2

    def test_classical_heat_solution(self):
        band = VolatilityBand(1.0, 1.0)
        c = 0.0
        grid = GridSpec(-8, 8, 801, 1.0)
        sol = solve(IndicatorAbove(c), band, grid, max_levels=2)
        exact = np.array([norm_cdf(x - sol.snapped_c) for x in sol.x])
        assert np.abs(sol.values[-1] - exact).max() <= 2e-4


class TestMaximumPrincipleAndSymmetry:
    def test_values_stay_in_range(self):
        sol = solve(IndicatorAbsAbove(1.0), BAND, default_two_sided_grid(1.0, BAND, nx=401))
        assert sol.values.min() >= -1e-15
        assert sol.values.max() <= 1.0 + 1e-15

    def test_two_sided_symmetry(self):
        # Every row is its own mirror image bit for bit, at odd and even nx:
        # verify_sandwich's mirror half rests on it.
        for lo, hi in STEP_BANDS:
            band = VolatilityBand(lo, hi)
            for nx in (401, 1600, 1601):
                grid = default_two_sided_grid(1.2, band, nx=nx)
                values = solve(IndicatorAbsAbove(1.2), band, grid).values
                assert values.tobytes() == values[:, ::-1].tobytes(), (lo, hi, nx)


class TestBufferedStep:
    """The buffered march reproduces the allocating step byte for byte."""

    def test_every_step_matches_reference_bitwise(self):
        for band, grid, ic in _step_cases():
            (_, u, _), *_ = every_state(ic, band, grid)
            # Of these data only 1{|x| > c} takes the half march.
            assert (u.size < grid.nx) == (ic == IndicatorAbsAbove(1.1))

    @pytest.mark.parametrize("nx", [3, 4, 5, 6, 41, 400, 401, 1601])
    def test_two_sided_solve_matches_full_grid_reference(self, nx):
        # 1{|x| > c} on a symmetric grid marches half the grid; every retained
        # level must still be the full march's, for c = 0 inside the cell of
        # x = 0 and c beyond it, next to that cell and far out.  The shifted
        # grid marches in full.  t_end = 20 dx^2 gives 25 s_hi^2 steps.
        for lo, hi in STEP_BANDS:
            band = VolatilityBand(lo, hi)
            for x_max in (4.0, 4.5):
                dx = (x_max + 4.0) / (nx - 1)
                grid = GridSpec(-4.0, x_max, nx, 20.0 * dx * dx)
                for c in sorted({0.0, min(1.5 * dx, 2.5), 2.5}):
                    sol = solve(IndicatorAbsAbove(c), band, grid, max_levels=5)
                    updated = nx - nx // 2 - 1 if x_max == 4.0 else nx - 2
                    assert sol.diagnostics["nodes_per_step"] == updated
                    reference = list(
                        oracles.reference_solve(sol.ic, band, grid, sol.dt, sol.n_steps)
                    )
                    stride = sol.n_steps // (sol.times.size - 1)
                    for level, row in enumerate(sol.values):
                        want = reference[level * stride][1]
                        assert row.tobytes() == want.tobytes(), (lo, hi, x_max, c, level)

    @pytest.mark.parametrize("c", [1.0, 1.96])
    def test_folded_step_stays_within_4_eps_of_the_unfolded_step(self, c):
        # Folding dt/dx^2 into the coefficients rounds the same scheme
        # differently; over a full 1601-node march of 1{|x| > c} no value
        # moved by more than 1 eps (2.2e-16) when the fold was made.
        for lo, hi in STEP_BANDS:
            band = VolatilityBand(lo, hi)
            grid = default_two_sided_grid(c, band, nx=1601)
            sol = solve(IndicatorAbsAbove(c), band, grid, max_levels=2)
            *_, (_, unfolded, _) = oracles.reference_solve(
                sol.ic, band, grid, sol.dt, sol.n_steps, march=oracles.unfolded_march
            )
            gap = np.abs(sol.values[-1] - unfolded).max()
            assert gap <= 4.0 * np.finfo(float).eps, (lo, hi, gap)

    def test_sparse_report_matches_every_step_bitwise(self):
        # Marching straight to the reported steps passes through the same
        # states: (u, D) at each reported step is the every-step march's.
        for band, grid, ic in _step_cases():
            march = _march(ic, band, grid, 2)
            n = march.times.size - 1
            every = {k: (u.tobytes(), d2.tobytes()) for k, u, d2 in march.states(range(n + 1))}
            report = sorted({0, min(3, n), n // 2, n})
            sparse = [(k, u.tobytes(), d2.tobytes()) for k, u, d2 in march.states(report)]
            assert [k for k, _, _ in sparse] == report
            for k, u, d2 in sparse:
                assert (u, d2) == every[k], (band, grid.nx, ic, k)

    def test_d2_is_one_buffer_reused_by_every_step(self):
        march = _march(IndicatorAbove(0.3), BAND, GridSpec(-3, 3, 61, 0.1), 2)
        (_, _, first), (_, _, second) = march.states(range(2))
        assert first is second


def every_state(ic, band, grid):
    """Copies of (k, u, D) of every state, each checked byte for byte
    against the allocating full-grid march, which marches the whole grid
    from its own datum and ends (a half march holds the ghost and the right
    half, the last ``x.size`` nodes of the grid)."""
    march = _march(ic, band, grid, 2)
    n = march.times.size - 1
    reference = oracles.reference_solve(ic, band, grid, march.dt, n)
    size = march.x.size
    states = []
    for (k, u, d2), want in zip(march.states(range(n + 1)), reference, strict=True):
        assert k == want[0]
        assert u.tobytes() == want[1][-size:].tobytes(), (ic, band, grid.nx, k)
        assert d2.tobytes() == want[2][2 - size :].tobytes(), (ic, band, grid.nx, k)
        states.append((k, u.copy(), d2.copy()))
    return states


def _step_cases():
    """(band, grid, datum) of test_every_step_matches_reference_bitwise:
    1{x > c}, 1{|x| > c} (a half march) and three tables, -0.0 and
    subnormal ones among them, over the step bands and three grids."""
    rng = np.random.default_rng(8)
    for lo, hi in STEP_BANDS:
        for nx, t_end in ((41, 0.5), (161, 0.1), (1601, 0.002)):
            x = np.linspace(-4.0, 4.0, nx)
            tables = [
                # -0.0 and negative data: sigma_lo = 0 gives -0.0 products
                np.where(np.arange(nx) % 3 == 0, -0.0, -np.abs(np.sin(3.0 * x))),
                # subnormal data: products and dt * G underflow to zeros
                rng.choice([1e-310, -1e-310, -0.0, 0.0, 5e-324, -5e-324], nx),
                rng.standard_normal(nx) * (rng.random(nx) < 0.7),
            ]
            ics = [IndicatorAbove(0.3), IndicatorAbsAbove(1.1)]
            for ic in ics + [LipschitzTable(x, y) for y in tables]:
                yield VolatilityBand(lo, hi), GridSpec(-4.0, 4.0, nx, t_end), ic


def _window_cases():
    """(rule, datum, band, grid) of TestActiveWindow: data whose march leans
    on one rule of the active window.  dt = 0.8 dx^2 / s_hi^2, so each grid
    takes the same number of steps in every band."""
    x = np.linspace(-4.0, 4.0, 1601)

    def grid(nx, steps, hi):
        dx = 8.0 / (nx - 1)
        return GridSpec(-4.0, 4.0, nx, steps * 0.8 * dx * dx / (hi * hi))

    for lo, hi in STEP_BANDS:
        # 1{|x| > c} from c = 2.5: the front moves one node a step through
        # the zeros and meets the ghost about 500 steps on.
        yield "ghost", IndicatorAbsAbove(2.5), VolatilityBand(lo, hi), grid(1601, 600, hi)
    for lo, hi in ((0.8, 1.0), (1.0, 1.0), (0.5, 2.0)):
        # The closed-form left end 3 from c moves from about step 320 on,
        # while the front is still 280 nodes from it: only the moving-end
        # rule, which holds that end from the first scan, covers it.
        yield "left end", IndicatorAbove(-1.0), VolatilityBand(lo, hi), grid(1601, 500, hi)
    for lo, hi in ((0.8, 1.0), (1.0, 1.0)):
        # The closed-form right end, 1 - eps at first, moves 7 or 12 nodes
        # ahead of the nonzero D: at a scan interval below that, only the
        # moving-end rule covers it, in a full march and in a half march.
        for ic in (IndicatorAbove(1.0), IndicatorAbsAbove(1.0)):
            yield "right end", ic, VolatilityBand(lo, hi), grid(801, 3750, hi)
    for lo, hi in ((0.0, 1.0), (0.8, 1.0)):
        # Held ends and a tent far from both: the window leaves both ends.
        y = 0.25 + np.maximum(1.0 - np.abs(x), 0.0)
        yield "held ends", LipschitzTable(x, y), VolatilityBand(lo, hi), grid(1601, 300, hi)
    for lo, hi in ((0.8, 1.0), (1.0, 1.0)):
        # One-unit subnormal spikes right of a tent die in the first step, so
        # the nonzero D shrinks to the tent's.
        y = np.maximum(1.0 - np.abs(x + 2.0), 0.0) + np.where(x > 1.0, 5e-324, 0.0) * (
            np.arange(x.size) % 7 == 0
        )
        yield "shrinking D", LipschitzTable(x, y), VolatilityBand(lo, hi), grid(1601, 100, hi)


class TestActiveWindow:
    """Each step updates only the window of interior nodes where D can be
    nonzero before the next scan; every step must still be the full-grid
    march's, byte for byte, for every scan interval K."""

    @pytest.mark.parametrize("scan_steps", [1, 2, 3])
    def test_every_step_is_the_full_grid_march(self, monkeypatch, scan_steps):
        # Windows this narrow put every rule at the edge of what it covers.
        monkeypatch.setattr(gheat, "_SCAN_STEPS", scan_steps)
        for _, ic, band, grid in _window_cases():
            every_state(ic, band, grid)

    def test_each_case_reaches_its_rule(self):
        # Every step at the module's own K, and the situation each case is for.
        K = gheat._SCAN_STEPS
        for rule, ic, band, grid in _window_cases():
            states = every_state(ic, band, grid)
            d2s = [d2 for _, _, d2 in states]
            if rule == "ghost":
                # D next to the ghost turns nonzero only after four scans.
                first = next(k for k, d2 in enumerate(d2s) if d2[0] != 0.0)
                assert 4 * K < first < len(states) - 1, (band, first)
            elif rule == "left end":
                # When the end first moves, the nonzero D is over 2K nodes away.
                moved = next(k for k, u, _ in states if u[0] != 0.0)
                assert np.flatnonzero(d2s[moved - 1])[0] > 2 * K, band
            elif rule == "right end":
                # When the end first moves, the nonzero D is 4 nodes away or more.
                moved = next(k for k, u, _ in states if u[-1] != 1.0)
                assert np.flatnonzero(d2s[moved - 1])[-1] < d2s[0].size - 4, band
            elif rule == "held ends":
                # After the first scan no D within 2K nodes of an end is nonzero.
                assert not any(d2[: 2 * K].any() or d2[-2 * K :].any() for d2 in d2s[K:])
            elif rule == "shrinking D":
                # The first scan sees D only around the tent.
                assert np.flatnonzero(d2s[K - 1])[-1] + 2 * K < np.flatnonzero(d2s[0])[-1]

    def test_active_nodes_per_step(self):
        # Fewer than every interior node on the default grid; all of them
        # where the interior is narrower than the scan interval, over a march
        # whose step count is not a multiple of it.
        grid = default_two_sided_grid(1.0, BAND, nx=1601)
        for ic in (IndicatorAbove(1.0), IndicatorAbsAbove(1.0)):
            diag = solve(ic, BAND, grid, max_levels=2).diagnostics
            assert 0.0 < diag["active_nodes_per_step"] < diag["nodes_per_step"]
        sol = solve(IndicatorAbove(0.3), BAND, GridSpec(-1.0, 1.0, 21, 1.0), max_levels=2)
        assert sol.n_steps % gheat._SCAN_STEPS != 0
        assert sol.diagnostics["active_nodes_per_step"] == sol.diagnostics["nodes_per_step"] == 19


class TestPinnedEnds:
    """An end whose datum is 1 is left unevaluated when its closed form
    rounds to 1.0 at every step; every end still holds its closed form (or
    its datum where sigma_lo = 0) bit for bit at every step."""

    # Symmetric grids (a half march for 1{|x| > c}) and shifted ones.  On
    # +-7.35 in the band (0.8, 1) the right end of 1{x > 1} at t = 1 sits
    # about 3e-15 below 1.0: inside 2^-40, far outside 2^-56.
    GRIDS = ((-7.35, 7.35), (-11.0, 11.0), (-4.0, 4.0), (-7.35, 8.0), (-11.0, 9.0), (-4.0, 4.5))

    @pytest.mark.parametrize("lo, hi", [(0.8, 1.0), (0.5, 2.0), (0.2, 1.0), (1.0, 1.0),
                                        (0.0, 1.0), (0.99, 1.0)])
    def test_end_values_are_the_closed_form_at_every_step(self, lo, hi):
        band = VolatilityBand(lo, hi)
        for (x_min, x_max), c, t_end in itertools.product(self.GRIDS, (0.3, 1.0, 2.0),
                                                          (0.25, 1.0)):
            for ic in (IndicatorAbove(c), IndicatorAbsAbove(c)):
                march = _march(ic, band, GridSpec(x_min, x_max, 61, t_end), 2)
                n = march.times.size - 1
                ends = np.array([u[[0, -1]] for _, u, _ in march.states(range(n + 1))])
                if lo > 0.0:
                    t_next = np.arange(1, n + 1)[:, None] * march.dt
                    want = gheat._closed_form(ic, march.snapped_c, march.x[[0, -1]], t_next, band)
                else:
                    want = np.broadcast_to(ends[0], (n, 2))
                # A half march's left node is its ghost, checked by the full-grid tests.
                kept = slice(1, 2) if march.x.size < 61 else slice(0, 2)
                got = ends[1:, kept].tobytes()
                assert got == want[:, kept].tobytes(), (lo, x_min, x_max, c, t_end, ic)

    def test_ends_within_the_gap_are_not_evaluated(self, monkeypatch):
        # Of the four end pieces of verify_sandwich(1.0) on (0.8, 1), only the
        # one-sided left end's moves off its datum.
        evaluated = []
        closed_form = gheat._closed_form
        monkeypatch.setattr(gheat, "_closed_form",
                            lambda ic, c, x, t, band: evaluated.append(x.size)
                            or closed_form(ic, c, x, t, band))
        assert verify_sandwich(1.0, BAND).passed
        assert evaluated == [1]


# One explicit step on table data whose abscissae are the grid nodes, so the
# sampled datum is the table itself.  Magnitudes stay in [1e-3, 1e3] (or 0),
# so scaling by 2^m with |m| <= 8 neither overflows nor reaches subnormals.
_magnitude = st.floats(1e-3, 1e3)
_value = st.one_of(st.just(0.0), _magnitude, _magnitude.map(operator.neg))
_tables = st.integers(3, 33).flatmap(lambda n: st.lists(_value, min_size=n, max_size=n))
_bands = st.sampled_from(STEP_BANDS)
_safety = st.sampled_from([0.3, 0.8, 1.0])
_property = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def k_steps(y, bounds, safety, k):
    # t_end = k keeps dt <= 1 <= t_end / k, so the march has k steps or more.
    nx = len(y)
    x = np.linspace(-1.0, 1.0, nx)
    grid = GridSpec(-1.0, 1.0, nx, float(k), safety)
    states = _march(LipschitzTable(x, y), VolatilityBand(*bounds), grid, 2).states(range(k + 1))
    _, u0, _ = next(states)
    assert u0.tolist() == list(y)
    for _ in range(k):
        _, u, _ = next(states)
    return u.copy()


_k = st.integers(1, 5)


class TestOneStepMap:
    """The one-step map has the properties of a sublinear expectation that
    survive rounding: monotone up to rounding, constants fixed, bitwise
    homogeneous for powers of two, bitwise mirror-symmetric.  Each is
    checked over k <= 5 steps, so it holds for the march, not one step."""

    @_property
    @given(_tables, st.data(), _bands, _safety, _k)
    def test_monotone_up_to_rounding(self, y, data, bounds, safety, k):
        # Raising u[j] by one ulp can lower the next u[j] by about one
        # rounding of max |u| (seen at 1.6 eps), so the order holds to 4 eps.
        n = len(y)
        bumps = data.draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
        by_ulp = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        lower = np.array(y)
        upper = np.where(by_ulp, np.nextafter(lower, np.inf), lower + np.array(bumps))
        tol = 4.0 * np.finfo(float).eps * max(np.abs(lower).max(), np.abs(upper).max())
        gap = k_steps(upper, bounds, safety, k) - k_steps(lower, bounds, safety, k)
        assert gap.min() >= -tol

    @_property
    @given(_tables, st.data(), _bands, _safety, _k)
    def test_subadditive_up_to_rounding(self, a, data, bounds, safety, k):
        # G is sublinear, so k steps of a + b lie below the two marches
        # summed; rounding adds up to about 2 eps of max |a|, |b| (1.7 and
        # 2.3 eps were the worst of two runs over 3,000 random tables at
        # k = 1, 1.6 eps the worst of 3,000 at k <= 5).
        b = np.array(data.draw(st.lists(_value, min_size=len(a), max_size=len(a))))
        a = np.array(a)
        tol = 4.0 * np.finfo(float).eps * max(np.abs(a).max(), np.abs(b).max())
        split = k_steps(a, bounds, safety, k) + k_steps(b, bounds, safety, k)
        assert (k_steps(a + b, bounds, safety, k) - split).max() <= tol

    @_property
    @given(st.integers(3, 33), _value, _bands, _safety, _k)
    def test_constants_are_fixed_points(self, nx, c, bounds, safety, k):
        assert k_steps([c] * nx, bounds, safety, k).tobytes() == np.full(nx, c).tobytes()

    @_property
    @given(_tables, st.integers(-8, 8), _bands, _safety, _k)
    def test_homogeneous_for_powers_of_two(self, y, m, bounds, safety, k):
        scale = 2.0**m
        scaled = k_steps(np.array(y) * scale, bounds, safety, k)
        assert scaled.tobytes() == (k_steps(y, bounds, safety, k) * scale).tobytes()

    @_property
    @given(_tables, _bands, _safety, _k)
    def test_mirror_symmetric(self, y, bounds, safety, k):
        # Over several steps this is the premise of the solver's half march.
        mirrored = k_steps(y[::-1], bounds, safety, k)
        assert mirrored.tobytes() == k_steps(y, bounds, safety, k)[::-1].tobytes()


class TestNumericalFailure:
    # 2 * 1.7e308 overflows in the first second difference.
    X = [0.0, 1.0, 2.0, 3.0, 4.0]
    Y = [0.0, 1.7e308, -1.7e308, 1.7e308, 0.0]

    def test_overflow_raises_numerical_error_without_warnings(self):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="at step 1$"):
                solve(LipschitzTable(self.X, self.Y), BAND, GridSpec(0, 4, 5, 1.0))
        assert np.geterr() == before

    def test_spike_is_reported_at_the_step_that_overflows(self):
        # 2 * 1.7e308 overflows in step 1 at node 3; the error must name that
        # step, not a later one by which the blow-up has spread.
        x = np.linspace(-1.0, 1.0, 41)
        y = np.zeros(41)
        y[3] = 1.7e308
        before = np.geterr()
        with pytest.raises(NumericalError, match="at step 1$"):
            solve(LipschitzTable(x, y), BAND, GridSpec(-1.0, 1.0, 41, 1.0))
        assert np.geterr() == before

    @pytest.mark.parametrize("t_end, step", [(1.0, 3), (0.004, 2)])
    def test_boundary_spike_is_reported_at_its_step_in_any_report(self, t_end, step):
        # A held left end of 1.7e308 first overflows in D of state 2, where
        # u[0] + u[2] exceeds the float range: step 3, or step 2 when state 2
        # is the last (t_end = 0.004 takes two steps).  Marches that report
        # every step, or skip the step that overflows, must name the same one.
        x = np.linspace(-1.0, 1.0, 41)
        y = np.zeros(41)
        y[0] = 1.7e308
        ic, grid = LipschitzTable(x, y), GridSpec(-1.0, 1.0, 41, t_end)
        march = _march(ic, BAND, grid, 2)
        n = march.times.size - 1
        reports = [range(n + 1), [0, n], *([0, j, n] for j in (1, 2, 3) if j < n)]
        for report in reports:
            with np.errstate(over="raise", invalid="raise"):
                with pytest.raises(NumericalError, match=f"at step {step}$"):
                    for _ in march.states(report):
                        pass
        with pytest.raises(NumericalError, match=f"at step {step}$"):
            solve(ic, BAND, grid, max_levels=2)

    @pytest.mark.parametrize("edge", [float, np.float64])
    def test_threshold_table_overflow_raises_numerical_error(self, edge):
        # Band edges near 1e-156 make 1/dx^2 overflow; numpy-scalar edges
        # must fail as Python floats do, not with a RuntimeWarning.
        band = VolatilityBand(edge(5e-157), edge(1e-156))
        with pytest.raises(NumericalError, match="at step 1$"):
            two_sided_threshold(band, 0.05, 8, nx=41)


class TestDiagnostics:
    def test_cfl_fraction_and_rate(self):
        for nx, safety in ((401, 0.8), (801, 1.0), (201, 0.3)):
            grid = GridSpec(-6.0, 6.0, nx, 1.0, safety)
            sol = solve(IndicatorAbsAbove(1.0), BAND, grid, max_levels=3)
            diag = sol.diagnostics
            assert set(diag) == {
                "march_s", "setup_s", "steps_per_s", "cfl", "nodes_per_step",
                "active_nodes_per_step",
            }
            assert diag["nodes_per_step"] == nx - nx // 2 - 1
            assert 0.0 < diag["active_nodes_per_step"] <= diag["nodes_per_step"]
            assert 0.0 < diag["cfl"] <= safety
            assert diag["cfl"] == pytest.approx(sol.dt * BAND.sigma_hi**2 / grid.dx**2)
            assert diag["march_s"] > 0.0
            assert 0.0 <= diag["setup_s"] <= diag["march_s"]
            assert diag["steps_per_s"] == pytest.approx(sol.n_steps / diag["march_s"])

    def test_step_never_rounds_past_the_limit(self):
        # Here t_end / ceil(t_end / dt_max) rounds one ulp above dt_max.
        grid = GridSpec(-1.0, 1.0, 381, 0.01, safety=1.0)
        sol = solve(IndicatorAbove(0.3), BAND, grid, max_levels=2)
        dx = grid.dx
        assert sol.dt <= grid.safety * dx * dx / (BAND.sigma_hi * BAND.sigma_hi)
        assert sol.diagnostics["cfl"] <= grid.safety

    def test_kept_out_of_equality_and_csv(self, tmp_path):
        fields = {f.name: f for f in dataclasses.fields(GridSolution)}
        assert fields["diagnostics"].compare is False
        sol = solve(IndicatorAbove(0.4), BAND, GridSpec(-3, 3, 61, 0.5), max_levels=5)
        sol.write_csv(tmp_path / "a.csv")
        dataclasses.replace(sol, diagnostics={}).write_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestP2Numeric:
    def test_classical_case(self):
        band = VolatilityBand(1.0, 1.0)
        grid = default_two_sided_grid(1.0, band, nx=1601)
        sol = solve(IndicatorAbsAbove(1.0), band, grid, max_levels=2)
        expected = 2 * norm_cdf(-sol.snapped_c)
        assert sol.value_at_final(0.0) == pytest.approx(expected, abs=2e-4)

    def test_constant_data_stays_one(self):
        # c = 0: the datum is 1 almost everywhere; only one node dips
        grid = default_two_sided_grid(0.0, BAND, nx=2001)
        val = solve(IndicatorAbsAbove(0.0), BAND, grid, max_levels=2).value_at_final(0.0)
        assert val == pytest.approx(1.0, abs=0.01)

    def test_sandwich_location(self):
        # the scheme's own triple at the origin: 2 u_h(1, 0) - w_h(1, 0) lies
        # in [0, bound] at the snapped threshold, up to rounding
        c = norm_quantile(0.975)
        grid = default_two_sided_grid(c, BAND, nx=2401)
        u = solve(IndicatorAbove(c), BAND, grid, max_levels=2)
        w = solve(IndicatorAbsAbove(c), BAND, grid, max_levels=2)
        assert u.snapped_c == w.snapped_c
        gap = 2 * u.value_at_final(0.0) - w.value_at_final(0.0)
        bound = two_sided_error_bound(w.snapped_c, 1.0, BAND)
        assert -gheat._SANDWICH_TOL <= gap <= bound + gheat._SANDWICH_TOL

    def test_capacity_sandwich_invariant(self):
        # 2 p1(c) - w_h(1, 0) in [0, bound] strictly, at thresholds where
        # the true gap dwarfs discretization error
        for c in (0.6, 0.8, 1.0):
            grid = default_two_sided_grid(c, BAND, nx=1601)
            sol = solve(IndicatorAbsAbove(c), BAND, grid, max_levels=2)
            cs = sol.snapped_c
            gap = 2 * p1(cs, BAND) - sol.value_at_final(0.0)
            assert 0.0 <= gap <= two_sided_error_bound(cs, 1.0, BAND)

    def test_refinement_ratio(self):
        # |p2 - extrapolated limit| shrinks by >= 1.7 per dx halving; the
        # aligned domain makes the snap offset halve exactly with dx
        vals = []
        for nxm1 in (300, 600, 1200, 2400):
            grid = aligned_grid(1.0, nxm1)
            sol = solve(IndicatorAbsAbove(1.0), BAND, grid, max_levels=2)
            vals.append(sol.value_at_final(0.0))
        p_star = vals[3] - (vals[3] - vals[2]) ** 2 / (
            (vals[3] - vals[2]) - (vals[2] - vals[1])
        )
        errs = [abs(v - p_star) for v in vals[:3]]
        assert errs[0] / errs[1] >= 1.7
        assert errs[1] / errs[2] >= 1.7

    def test_refinement_ratio_classical_exact_limit(self):
        band = VolatilityBand(1.0, 1.0)
        exact = 2 * norm_cdf(-1.0)
        errs = []
        for nxm1 in (300, 600, 1200):
            grid = aligned_grid(1.0, nxm1)
            sol = solve(IndicatorAbsAbove(1.0), band, grid, max_levels=2)
            errs.append(abs(sol.value_at_final(0.0) - exact))
        assert errs[0] / errs[1] >= 1.7
        assert errs[1] / errs[2] >= 1.7


class TestThresholdLocus:
    def test_small_time_limit_is_kink(self):
        rows = two_sided_threshold(BAND, 0.05, 200)
        c = BAND.sigma_hi * norm_quantile(0.975)
        early = rows[0]  # time_remaining = 1/200
        assert early.time_remaining <= 0.01
        assert early.threshold == pytest.approx(c, abs=0.03)

    def test_unit_time_near_critical_value(self):
        rows = two_sided_threshold(BAND, 0.05, 10)
        last = rows[-1]
        assert last.time_remaining == pytest.approx(1.0, abs=1e-9)
        assert abs(last.threshold - norm_quantile(0.975)) <= 0.05
        assert not last.degenerate

    def test_classical_band_still_reports_locus(self):
        band = VolatilityBand(1.0, 1.0)
        rows = two_sided_threshold(band, 0.05, 5)
        assert len(rows) == 5
        for row in rows:
            assert row.threshold > 0.0

    # d2 lives on the interior nodes x[1:-1]; roots are sought from x = 0 on.
    X = np.linspace(-5.0, 5.0, 101)
    POS_FROM = int(np.searchsorted(X[1:-1], 0.0))
    FLOOR = 1e-6

    def test_flags_on_flat_data(self):
        # no sign change above the noise floor: fall back to ref_c, flagged
        ref_c = 1.7
        xs = self.X[1:-1]
        flat = np.zeros(xs.size)
        wiggle = 0.5 * self.FLOOR * np.where(np.arange(xs.size) % 2 == 0, 1.0, -1.0)
        for d2 in (flat, wiggle):
            got = _d2_sign_change_root(self.X, d2, self.POS_FROM, ref_c, self.FLOOR)
            assert got == (ref_c, True, False)
            assert ThresholdLevel(1.0, *got).flag == "degenerate"

    def test_multiple_sign_changes_report_nearest_root(self):
        # d2 changes sign near 1.05 and 2.95 (between nodes); each reference
        # threshold must get the root nearest to it
        xs = self.X[1:-1]
        d2 = (xs - 1.05) * (xs - 2.95)
        for ref_c, near in ((1.2, 1.05), (0.0, 1.05), (2.5, 2.95), (4.0, 2.95)):
            root, degenerate, multiple = _d2_sign_change_root(
                self.X, d2, self.POS_FROM, ref_c, self.FLOOR
            )
            assert root == pytest.approx(near, abs=0.01)
            assert (degenerate, multiple) == (False, True)
            assert ThresholdLevel(1.0, root, degenerate, multiple).flag == "multiple"

    def test_noise_floor_is_64_eps_over_dx2(self, monkeypatch):
        # two_sided_threshold's floor on the undivided D, which is 64 eps/dx^2
        # on D/dx^2, against a literal 64 eps: a sign change 100x above it is
        # a root, one at half of it is noise.
        floors = set()

        def spy(x, d2, pos_from, ref_c, noise_floor):
            floors.add(noise_floor)
            return _d2_sign_change_root(x, d2, pos_from, ref_c, noise_floor)

        monkeypatch.setattr(gheat, "_d2_sign_change_root", spy)
        two_sided_threshold(BAND, 0.05, 4, nx=41)
        eps = np.finfo(float).eps
        (floor,) = floors
        assert floor == 64.0 * eps
        step = np.where(self.X[1:-1] < 1.05, 1.0, -1.0) * (64.0 * eps)
        root, degenerate, multiple = _d2_sign_change_root(
            self.X, 100.0 * step, self.POS_FROM, 1.7, floor
        )
        assert root == pytest.approx(1.05, abs=1e-12)
        assert (degenerate, multiple) == (False, False)
        got = _d2_sign_change_root(self.X, 0.5 * step, self.POS_FROM, 1.7, floor)
        assert got == (1.7, True, False)

    @pytest.mark.parametrize("m", [-500, -200, 300, 500])
    def test_rows_scale_exactly_with_the_band(self, m):
        # Scaling the band by 2^m scales c, the grid and the roots by 2^m
        # and leaves dt, the data and D alone, so every row is the unit
        # band's with its threshold times 2^m, bit for bit and with no
        # warning, from near the bottom of the float range to near the top.
        scale = 2.0**m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = two_sided_threshold(VolatilityBand(0.5, 1.0), 0.05, 8, nx=41)
            scaled = two_sided_threshold(VolatilityBand(0.5 * scale, scale), 0.05, 8, nx=41)
        # Every threshold is positive, so == on the rows is bitwise.
        assert scaled == [dataclasses.replace(r, threshold=r.threshold * scale) for r in unit]

    def test_more_levels_than_steps_share_nearest_steps(self):
        # nx=41 takes 4 steps of 1/4; 8 rows must reuse them, each reading
        # the step nearest j/8, the earlier one at the exact ties (odd j).
        levels = 8
        rows = two_sided_threshold(BAND, 0.05, levels, nx=41)
        c = tail_threshold(0.05, BAND, "two")
        grid = default_two_sided_grid(c, BAND, nx=41)
        n_steps = solve(IndicatorAbsAbove(c), BAND, grid, max_levels=2).n_steps
        assert n_steps == 4
        every = solve(IndicatorAbsAbove(c), BAND, grid, max_levels=n_steps + 1)
        assert every.n_steps == n_steps
        times = every.times.tolist()
        assert len(rows) == levels
        by_step = {}
        for j, row in enumerate(rows, start=1):
            k = min(range(len(times)), key=lambda i: abs(times[i] - j / levels))
            assert row.time_remaining == times[k]
            by_step.setdefault(k, []).append(row)
        assert len(by_step) < levels
        for shared in by_step.values():
            assert len({(r.time_remaining, r.threshold, r.flag) for r in shared}) == 1

    @pytest.mark.parametrize("nx", [41, 1201])
    def test_rows_read_the_step_a_full_search_picks(self, nx):
        # nx = 41 takes 4 steps of 1/4, so 8 and 24 levels put rows on exact
        # ties; 1201 takes 3,146 steps of a dt that is not a round number.
        c = tail_threshold(0.05, BAND, "two")
        times = _march(IndicatorAbsAbove(c), BAND, default_two_sided_grid(c, BAND, nx=nx), 2).times
        for levels in (1, 3, 8, 24, 50, 4_001):
            rows = two_sided_threshold(BAND, 0.05, levels, nx=nx)
            want = [times[int(np.argmin(np.abs(times - j * 1.0 / levels)))]
                    for j in range(1, levels + 1)]
            assert [row.time_remaining for row in rows] == want, (nx, levels)

    def test_rows_keep_no_instance_dict(self):
        # a table may hold 10^6 rows; slots keep each one small
        row = two_sided_threshold(BAND, 0.05, 1, nx=41)[0]
        assert not hasattr(row, "__dict__")
        assert ThresholdLevel.__slots__ == ("time_remaining", "threshold", "degenerate",
                                            "multiple")

    def test_levels_are_bounded_before_the_march(self, monkeypatch):
        monkeypatch.setattr(gheat, "MAX_STEPS", 10)
        assert len(two_sided_threshold(BAND, 0.05, 10, nx=41)) == 10
        monkeypatch.setattr(gheat, "_march", None)  # never reached
        with pytest.raises(DomainError, match=r"^levels must lie in \[1, 10\], got 11$"):
            two_sided_threshold(BAND, 0.05, 11, nx=41)


class TestVerifySandwich:
    def test_holds_at_moderate_threshold(self):
        report = verify_sandwich(1.5, BAND)
        assert report.passed
        assert report.eps_grid == 64 * np.finfo(float).eps
        assert report.lower_bound_violation <= report.eps_grid
        assert report.upper_bound_slack >= -report.eps_grid
        grid = default_two_sided_grid(1.5, BAND, nx=1601)
        sol = solve(IndicatorAbsAbove(1.5), BAND, grid, max_levels=2)
        assert report.snapped_c == sol.snapped_c
        # Every retained node with t > 0, though only the mirror half is formed.
        assert report.nodes_checked == 200 * 1601

    def test_classical_band_gap_is_zero(self):
        report = verify_sandwich(2.0, VolatilityBand(1.0, 1.0))
        assert report.passed

    def test_precondition(self):
        with pytest.raises(DomainError):
            verify_sandwich(0.3, BAND)

    @pytest.mark.parametrize("shift, side", [(1e-12, "lower"), (-1e-12, "upper")])
    def test_shifted_two_sided_solve_fails(self, monkeypatch, shift, side):
        # w_h moved by 1e-12 breaks the lower side (where u_h + v_h = w_h)
        # or the upper side (tight at early t, where the bound is ~0)
        real_solve = gheat.solve

        def shifted(ic, *args, **kwargs):
            sol = real_solve(ic, *args, **kwargs)
            if isinstance(ic, gheat.IndicatorAbsAbove):
                sol.values += shift
            return sol

        monkeypatch.setattr(gheat, "solve", shifted)
        report = verify_sandwich(1.5, BAND)
        assert not report.passed
        assert report.lower_ok == (side != "lower")
        assert report.upper_ok == (side != "upper")

    @pytest.mark.parametrize("shift, side", [(1e-12, "lower"), (-1e-12, "upper")])
    def test_a_fault_on_the_centre_column_is_seen(self, monkeypatch, shift, side):
        # The centre column x = 0 is the last one of the mirror half that
        # the check reads; w_h moved there alone stays mirror symmetric.
        real_solve = gheat.solve

        def shifted(ic, *args, **kwargs):
            sol = real_solve(ic, *args, **kwargs)
            if isinstance(ic, gheat.IndicatorAbsAbove):
                sol.values[:, sol.grid.nx // 2] += shift
            return sol

        monkeypatch.setattr(gheat, "solve", shifted)
        report = verify_sandwich(1.5, BAND)
        assert report.lower_ok == (side != "lower")
        assert report.upper_ok == (side != "upper")

    @pytest.mark.parametrize(
        "lo, hi, c",
        [(lo, hi, c) for lo, hi in ((0.8, 1.0), (1.0, 1.0)) for c in (1.0, 1.5, 2.0)]
        + [(0.5, 2.0, c) for c in (1.01, 2.5, 4.0)],
    )
    def test_mirror_half_equals_the_full_grid(self, lo, hi, c):
        band = VolatilityBand(lo, hi)
        report = verify_sandwich(c, band)
        want = oracles.reference_sandwich(c, band)
        for f in dataclasses.fields(report):
            got, ref = getattr(report, f.name), getattr(want, f.name)
            # repr tells -0.0 from 0.0, and np.float64 from float
            assert (type(got), repr(got)) == (type(ref), repr(ref)), f.name

    def test_traced_peak_of_one_check(self):
        # One solution and half a gap: 4.02 MiB.  Both solutions alive at
        # once with the full gap held 5.44 MiB.
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            verify_sandwich(1.0, VolatilityBand(0.8, 1.0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.6 * 2**20, peak / 2**20

    def test_two_solves_on_the_default_grid(self, monkeypatch):
        calls = []
        real_solve = gheat.solve

        def spy(ic, band, grid, **kwargs):
            calls.append((type(ic), ic.c, grid))
            return real_solve(ic, band, grid, **kwargs)

        monkeypatch.setattr(gheat, "solve", spy)
        verify_sandwich(1.5, BAND)
        grid = default_two_sided_grid(1.5, BAND, nx=1601)
        assert sorted(calls, key=lambda call: call[0].__name__) == [
            (gheat.IndicatorAbove, 1.5, grid),
            (gheat.IndicatorAbsAbove, 1.5, grid),
        ]

    @pytest.mark.parametrize(
        "lo, hi", [(0.8, 1.0), (1.0, 1.0), (0.5, 2.0), (0.1, 0.3), (2.0, 7.5), (1e-3, 1e3)]
    )
    def test_snapped_threshold_stays_in_the_regime(self, lo, hi):
        # The bound is taken at the snapped c, so every c above
        # sigma_hi*sqrt(t_end)/2 must snap above it too.  On the default grid
        # sigma_hi/2 lies 800(c + 10.5 sigma_hi)/(c + 10 sigma_hi) ~ 838.1
        # cells from x_min when c is near it, in the lower half of its cell,
        # so each such c snaps to a midpoint about 0.4 cells above it.
        band = VolatilityBand(lo, hi)
        edge = hi / 2  # the default grid's t_end is 1
        dx = default_two_sided_grid(edge, band, nx=1601).dx
        cs = [math.nextafter(edge, math.inf), *(edge + np.linspace(0, 3, 2001)[1:] * dx).tolist()]
        for c in cs:
            grid = default_two_sided_grid(c, band, nx=1601)
            snapped = gheat._snap_to_cell_midpoint(c, grid.x_min, grid.dx)
            assert snapped - edge > 0.4 * grid.dx, c
        assert verify_sandwich(cs[0], band).snapped_c - edge > 0.4 * dx

    def test_final_time_never_exceeds_by_more_than_tolerance(self):
        # sublinearity echo: w <= u + v up to discretization tolerance
        grid = default_two_sided_grid(1.5, BAND, nx=1601)
        sol = solve(IndicatorAbsAbove(1.5), BAND, grid, max_levels=2)
        uv = exact_values(sol, 1.0)
        assert float(np.max(sol.values[-1] - uv)) <= 5e-5


class TestCsvDump:
    def test_round_trip(self, tmp_path):
        grid = GridSpec(-3, 3, 61, 0.5)
        sol = solve(IndicatorAbove(0.4), BAND, grid, max_levels=5)
        path = tmp_path / "sol.csv"
        sol.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x", "u"]
        assert len(rows) == 1 + sol.times.size * sol.x.size
        # deterministic time-major order, space ascending
        t_first = float(rows[1][0])
        assert t_first == 0.0
        x_vals = [float(r[1]) for r in rows[1 : 1 + sol.x.size]]
        assert x_vals == sorted(x_vals)
        u_back = np.array([float(r[2]) for r in rows[1:]]).reshape(sol.values.shape)
        assert np.array_equal(u_back, sol.values)


class TestDegenerateBand:
    def test_sigma_hi_zero_is_stationary(self):
        band = VolatilityBand(0.0, 1e-12)
        grid = GridSpec(-2, 2, 41, 1.0)
        xs = np.linspace(-2, 2, 41)
        sol = solve(LipschitzTable(xs, np.sin(xs)), band, grid)
        assert np.abs(sol.values[-1] - np.sin(sol.x)).max() <= 1e-12

    def test_pde_accepts_degenerate_lower_edge(self):
        band = VolatilityBand(0.0, 1.0)
        grid = default_two_sided_grid(1.0, band, nx=801)
        val = solve(IndicatorAbsAbove(1.0), band, grid, max_levels=2).value_at_final(0.0)
        # with sigma_lo = 0 mass only diffuses where curvature is positive
        assert 0.0 < val < 1.0
