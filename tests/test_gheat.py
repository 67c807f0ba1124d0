"""Solver contracts: exactness on polynomial data, closed-form agreement,
maximum principle, symmetry, refinement behavior, sandwich checking."""

import csv
import dataclasses
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnormal import (
    ConfigurationError,
    DomainError,
    GridSpec,
    NumericalError,
    VolatilityBand,
    indicator_above,
    indicator_abs_above,
    lipschitz_sampled,
    norm_cdf,
    norm_quantile,
    p1,
    p2_numeric,
    profile_f,
    solve,
    two_sided_error_bound,
    two_sided_threshold,
    verify_sandwich,
)
from gnormal import gheat
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
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 1.0, 101, 1.0, safety=1.5)  # CFL violation
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 1.0, 101, 1.0, safety=0.0)


class TestInitialConditions:
    def test_table_validation(self):
        with pytest.raises(DomainError):
            lipschitz_sampled([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            lipschitz_sampled([0.0], [1.0])
        # a NaN abscissa passes every b <= a comparison; a table must be finite
        with pytest.raises(DomainError, match="finite"):
            gheat.LipschitzTable((0.0, float("nan"), 2.0), (0.0, 1.0, 2.0))
        with pytest.raises(DomainError, match="finite"):
            lipschitz_sampled([0.0, 1.0, 2.0], [0.0, float("inf"), 2.0])

    def test_indicator_outside_grid(self):
        with pytest.raises(ConfigurationError):
            solve(indicator_above(20.0), BAND, GridSpec(-5, 5, 101, 1.0))

    def test_level_zero_is_sampled_datum(self):
        for make, fold in ((indicator_above, np.positive), (indicator_abs_above, np.abs)):
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
            (solve(indicator_above(0.4), VolatilityBand(0.0, 1.0), grid), [0.0, 1.0]),
            (solve(indicator_abs_above(1.0), VolatilityBand(0.0, 1.0), grid), [1.0, 1.0]),
            (solve(lipschitz_sampled(xs, ys), BAND, grid), [ys[0], ys[-1]]),
        ]
        for sol, ends in held:
            assert (sol.values[:, [0, -1]] == ends).all()
        for ic in (indicator_above(0.4), indicator_abs_above(1.0)):
            sol = solve(ic, BAND, grid, max_levels=6)
            for k in range(1, sol.times.size):
                exact = exact_values(sol, float(sol.times[k]))
                assert np.array_equal(sol.values[k, [0, -1]], exact[[0, -1]])


class TestPolynomialData:
    def test_linear_data_is_stationary(self):
        grid = GridSpec(-5, 5, 201, 1.0)
        xs = np.linspace(-5, 5, 21)
        sol = solve(lipschitz_sampled(xs, xs), BAND, grid)
        assert np.abs(sol.final_values - sol.x).max() <= 1e-10

    def test_quadratic_moments(self):
        # convex data picks up sigma_hi^2 * t, concave data sigma_lo^2 * t
        grid = GridSpec(-10, 10, 401, 1.0)
        xs = np.linspace(-10, 10, 2001)
        up = solve(lipschitz_sampled(xs, xs**2), BAND, grid)
        down = solve(lipschitz_sampled(xs, -(xs**2)), BAND, grid)
        assert up.value_at_final(0.0) == pytest.approx(BAND.sigma_hi**2, abs=1e-9)
        assert down.value_at_final(0.0) == pytest.approx(-BAND.sigma_lo**2, abs=1e-9)


class TestOneSidedOracle:
    def test_matches_closed_form(self):
        c = 1.96
        grid = GridSpec(-10, 10, 501, 1.0)
        sol = solve(indicator_above(c), BAND, grid, max_levels=2)
        exact_snap = exact_values(sol, 1.0)
        assert np.abs(sol.final_values - exact_snap).max() <= 5e-4
        exact_req = np.array([profile_f(x - c, BAND) for x in sol.x])
        assert np.abs(sol.final_values - exact_req).max() <= 2e-2

    def test_classical_heat_solution(self):
        band = VolatilityBand(1.0, 1.0)
        c = 0.0
        grid = GridSpec(-8, 8, 801, 1.0)
        sol = solve(indicator_above(c), band, grid, max_levels=2)
        exact = np.array([norm_cdf(x - sol.snapped_c) for x in sol.x])
        assert np.abs(sol.final_values - exact).max() <= 2e-4


class TestMaximumPrincipleAndSymmetry:
    def test_values_stay_in_range(self):
        sol = solve(indicator_abs_above(1.0), BAND, default_two_sided_grid(1.0, BAND, nx=401))
        assert sol.values.min() >= -1e-15
        assert sol.values.max() <= 1.0 + 1e-15

    def test_two_sided_symmetry(self):
        sol = solve(indicator_abs_above(1.2), BAND, default_two_sided_grid(1.2, BAND, nx=401))
        flipped = sol.values[:, ::-1]
        assert np.abs(sol.values - flipped).max() <= 1e-13


class TestBufferedStep:
    """The buffered march reproduces the allocating step byte for byte."""

    def test_every_step_matches_reference_bitwise(self):
        rng = np.random.default_rng(8)
        for lo, hi in STEP_BANDS:
            band = VolatilityBand(lo, hi)
            for nx, t_end in ((41, 0.5), (161, 0.1), (1601, 0.002)):
                grid = GridSpec(-4.0, 4.0, nx, t_end)
                x = np.linspace(-4.0, 4.0, nx)
                tables = [
                    # -0.0 and negative data: sigma_lo = 0 gives -0.0 products
                    np.where(np.arange(nx) % 3 == 0, -0.0, -np.abs(np.sin(3.0 * x))),
                    # subnormal data: products and dt * G underflow to zeros
                    rng.choice([1e-310, -1e-310, -0.0, 0.0, 5e-324, -5e-324], nx),
                    rng.standard_normal(nx) * (rng.random(nx) < 0.7),
                ]
                ics = [indicator_above(0.3), indicator_abs_above(1.1)]
                ics += [lipschitz_sampled(x, y) for y in tables]
                for ic in ics:
                    march = _march(ic, band, grid, 2)
                    states = [(k, u.copy(), d2.copy()) for k, u, d2 in march.states]
                    # End values are the boundary rule's (test_boundary_values);
                    # the reference takes them as given and checks the interior.
                    ends = [(u[0], u[-1]) for _, u, _ in states[1:]]
                    reference = oracles.reference_march(
                        states[0][1], ends, march.dt, grid.dx, lo, hi
                    )
                    for got, want in zip(states, reference, strict=True):
                        assert got[0] == want[0]
                        assert got[1].tobytes() == want[1].tobytes(), (lo, hi, nx, ic)
                        assert got[2].tobytes() == want[2].tobytes(), (lo, hi, nx, ic)

    def test_d2_is_one_buffer_reused_by_every_step(self):
        march = _march(indicator_above(0.3), BAND, GridSpec(-3, 3, 61, 0.1), 2)
        (_, _, first), (_, _, second) = next(march.states), next(march.states)
        assert first is second


# One explicit step on table data whose abscissae are the grid nodes, so the
# sampled datum is the table itself.  Magnitudes stay in [1e-3, 1e3] (or 0),
# so scaling by 2^m with |m| <= 8 neither overflows nor reaches subnormals.
_magnitude = st.floats(1e-3, 1e3)
_value = st.one_of(st.just(0.0), _magnitude, _magnitude.map(operator.neg))
_tables = st.integers(3, 33).flatmap(lambda n: st.lists(_value, min_size=n, max_size=n))
_bands = st.sampled_from(STEP_BANDS)
_safety = st.sampled_from([0.3, 0.8, 1.0])
_property = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def one_step(y, bounds, safety):
    nx = len(y)
    x = np.linspace(-1.0, 1.0, nx)
    grid = GridSpec(-1.0, 1.0, nx, 1.0, safety)
    states = _march(lipschitz_sampled(x, y), VolatilityBand(*bounds), grid, 2).states
    _, u0, _ = next(states)
    assert u0.tolist() == list(y)
    return next(states)[1].copy()


class TestOneStepMap:
    """The one-step map has the properties of a sublinear expectation that
    survive rounding: monotone up to rounding, constants fixed, bitwise
    homogeneous for powers of two, bitwise mirror-symmetric."""

    @_property
    @given(_tables, st.data(), _bands, _safety)
    def test_monotone_up_to_rounding(self, y, data, bounds, safety):
        # Raising u[j] by one ulp can lower the next u[j] by about one
        # rounding of max |u| (seen at 1.6 eps), so the order holds to 4 eps.
        n = len(y)
        bumps = data.draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
        by_ulp = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        lower = np.array(y)
        upper = np.where(by_ulp, np.nextafter(lower, np.inf), lower + np.array(bumps))
        tol = 4.0 * np.finfo(float).eps * max(np.abs(lower).max(), np.abs(upper).max())
        gap = one_step(upper, bounds, safety) - one_step(lower, bounds, safety)
        assert gap.min() >= -tol

    @_property
    @given(_tables, st.data(), _bands, _safety)
    def test_subadditive_up_to_rounding(self, a, data, bounds, safety):
        # G is sublinear, so one step of a + b lies below the two steps
        # summed; rounding adds up to about 2 eps of max |a|, |b| (1.7 and
        # 2.3 eps were the worst of two runs over 3,000 random tables).
        b = np.array(data.draw(st.lists(_value, min_size=len(a), max_size=len(a))))
        a = np.array(a)
        tol = 4.0 * np.finfo(float).eps * max(np.abs(a).max(), np.abs(b).max())
        split = one_step(a, bounds, safety) + one_step(b, bounds, safety)
        assert (one_step(a + b, bounds, safety) - split).max() <= tol

    @_property
    @given(st.integers(3, 33), _value, _bands, _safety)
    def test_constants_are_fixed_points(self, nx, c, bounds, safety):
        assert one_step([c] * nx, bounds, safety).tobytes() == np.full(nx, c).tobytes()

    @_property
    @given(_tables, st.integers(-8, 8), _bands, _safety)
    def test_homogeneous_for_powers_of_two(self, y, m, bounds, safety):
        scale = 2.0**m
        scaled = one_step(np.array(y) * scale, bounds, safety)
        assert scaled.tobytes() == (one_step(y, bounds, safety) * scale).tobytes()

    @_property
    @given(_tables, _bands, _safety)
    def test_mirror_symmetric(self, y, bounds, safety):
        mirrored = one_step(y[::-1], bounds, safety)
        assert mirrored.tobytes() == one_step(y, bounds, safety)[::-1].tobytes()


class TestNumericalFailure:
    # 2 * 1.7e308 overflows in the first second difference.
    X = [0.0, 1.0, 2.0, 3.0, 4.0]
    Y = [0.0, 1.7e308, -1.7e308, 1.7e308, 0.0]

    def test_overflow_raises_numerical_error_without_warnings(self):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="at step 1$"):
                solve(lipschitz_sampled(self.X, self.Y), BAND, GridSpec(0, 4, 5, 1.0))
        assert np.geterr() == before

    def test_spike_is_reported_at_the_step_that_overflows(self):
        # 2 * 1.7e308 overflows in step 1 at node 3; the error must name that
        # step, not a later one by which the blow-up has spread.
        x = np.linspace(-1.0, 1.0, 41)
        y = np.zeros(41)
        y[3] = 1.7e308
        before = np.geterr()
        with pytest.raises(NumericalError, match="at step 1$"):
            solve(lipschitz_sampled(x, y), BAND, GridSpec(-1.0, 1.0, 41, 1.0))
        assert np.geterr() == before

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
            sol = solve(indicator_abs_above(1.0), BAND, grid, max_levels=3)
            diag = sol.diagnostics
            assert set(diag) == {"march_s", "steps_per_s", "cfl"}
            assert 0.0 < diag["cfl"] <= safety
            assert diag["cfl"] == pytest.approx(sol.dt * BAND.sigma_hi**2 / grid.dx**2)
            assert diag["march_s"] > 0.0
            assert diag["steps_per_s"] == pytest.approx(sol.n_steps / diag["march_s"])

    def test_step_never_rounds_past_the_limit(self):
        # Here t_end / ceil(t_end / dt_max) rounds one ulp above dt_max.
        grid = GridSpec(-1.0, 1.0, 381, 0.01, safety=1.0)
        sol = solve(indicator_above(0.3), BAND, grid, max_levels=2)
        dx = grid.dx
        assert sol.dt <= grid.safety * dx * dx / (BAND.sigma_hi * BAND.sigma_hi)
        assert sol.diagnostics["cfl"] <= grid.safety

    def test_kept_out_of_equality_and_csv(self, tmp_path):
        fields = {f.name: f for f in dataclasses.fields(GridSolution)}
        assert fields["diagnostics"].compare is False
        sol = solve(indicator_above(0.4), BAND, GridSpec(-3, 3, 61, 0.5), max_levels=5)
        sol.write_csv(tmp_path / "a.csv")
        dataclasses.replace(sol, diagnostics={}).write_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestP2Numeric:
    def test_classical_case(self):
        band = VolatilityBand(1.0, 1.0)
        grid = default_two_sided_grid(1.0, band, nx=1601)
        sol = solve(indicator_abs_above(1.0), band, grid, max_levels=2)
        expected = 2 * norm_cdf(-sol.snapped_c)
        assert sol.value_at_final(0.0) == pytest.approx(expected, abs=2e-4)

    def test_constant_data_stays_one(self):
        # c = 0: the datum is 1 almost everywhere; only one node dips
        val = p2_numeric(0.0, BAND, default_two_sided_grid(0.0, BAND, nx=2001))
        assert val == pytest.approx(1.0, abs=0.01)

    def test_grid_coverage_enforced(self):
        with pytest.raises(ConfigurationError):
            p2_numeric(2.0, BAND, GridSpec(-5, 5, 501, 1.0))
        with pytest.raises(DomainError):
            p2_numeric(-1.0, BAND)

    def test_sandwich_location(self):
        # the scheme's own triple at the origin: 2 u_h(1, 0) - w_h(1, 0) lies
        # in [0, bound] at the snapped threshold, up to rounding
        c = norm_quantile(0.975)
        grid = default_two_sided_grid(c, BAND, nx=2401)
        u = solve(indicator_above(c), BAND, grid, max_levels=2)
        w = solve(indicator_abs_above(c), BAND, grid, max_levels=2)
        assert u.snapped_c == w.snapped_c
        gap = 2 * u.value_at_final(0.0) - w.value_at_final(0.0)
        bound = two_sided_error_bound(w.snapped_c, 1.0, BAND)
        assert -gheat._SANDWICH_TOL <= gap <= bound + gheat._SANDWICH_TOL

    def test_capacity_sandwich_invariant(self):
        # 2 p1(c) - p2_numeric(c) in [0, bound] strictly, at thresholds where
        # the true gap dwarfs discretization error
        for c in (0.6, 0.8, 1.0):
            grid = default_two_sided_grid(c, BAND, nx=1601)
            sol = solve(indicator_abs_above(c), BAND, grid, max_levels=2)
            cs = sol.snapped_c
            gap = 2 * p1(cs, BAND) - sol.value_at_final(0.0)
            assert 0.0 <= gap <= two_sided_error_bound(cs, 1.0, BAND)

    def test_refinement_ratio(self):
        # |p2 - extrapolated limit| shrinks by >= 1.7 per dx halving; the
        # aligned domain makes the snap offset halve exactly with dx
        vals = []
        for nxm1 in (300, 600, 1200, 2400):
            grid = aligned_grid(1.0, nxm1)
            sol = solve(indicator_abs_above(1.0), BAND, grid, max_levels=2)
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
            sol = solve(indicator_abs_above(1.0), band, grid, max_levels=2)
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

    def test_noise_floor_is_64_eps_over_dx2(self):
        # two_sided_threshold's floor, against a literal 64 eps/dx^2: a sign
        # change 100x above it is a root, one at half of it is noise.
        dx = self.X[1] - self.X[0]
        eps = np.finfo(float).eps
        floor = gheat._D2_NOISE_MULT * eps / dx**2
        step = np.where(self.X[1:-1] < 1.05, 1.0, -1.0) * (64.0 * eps / dx**2)
        root, degenerate, multiple = _d2_sign_change_root(
            self.X, 100.0 * step, self.POS_FROM, 1.7, floor
        )
        assert root == pytest.approx(1.05, abs=1e-12)
        assert (degenerate, multiple) == (False, False)
        got = _d2_sign_change_root(self.X, 0.5 * step, self.POS_FROM, 1.7, floor)
        assert got == (1.7, True, False)

    def test_root_interpolation_overflow_keeps_the_bracketing_node(self):
        # At s_hi ~ 1e-155 the first step's d2 jump nears the float range,
        # so right - left overflows; every row is then the node x = 0 below
        # the jump, with no FloatingPointError and no warning.
        hi = 1.7714224633510961e-155
        band = VolatilityBand(0.5 * hi, hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = two_sided_threshold(band, 0.05, 8, nx=5)
        assert [row.threshold for row in rows] == [0.0] * 8

    def test_more_levels_than_steps_share_nearest_steps(self):
        # nx=41 takes 4 steps of 1/4; 8 rows must reuse them, each reading
        # the step nearest j/8, the earlier one at the exact ties (odd j).
        levels = 8
        rows = two_sided_threshold(BAND, 0.05, levels, nx=41)
        c = tail_threshold(0.05, BAND, "two")
        grid = default_two_sided_grid(c, BAND, nx=41)
        n_steps = solve(indicator_abs_above(c), BAND, grid, max_levels=2).n_steps
        assert n_steps == 4
        every = solve(indicator_abs_above(c), BAND, grid, max_levels=n_steps + 1)
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


class TestVerifySandwich:
    def test_holds_at_moderate_threshold(self):
        grid = default_two_sided_grid(1.5, BAND, nx=801)
        report = verify_sandwich(1.5, BAND, grid)
        assert report.passed
        assert report.eps_grid == 64 * np.finfo(float).eps
        assert report.lower_bound_violation <= report.eps_grid
        assert report.upper_bound_slack >= -report.eps_grid
        sol = solve(indicator_abs_above(1.5), BAND, grid, max_levels=2)
        assert report.snapped_c == sol.snapped_c
        assert report.nodes_checked == 200 * 801

    def test_classical_band_gap_is_zero(self):
        band = VolatilityBand(1.0, 1.0)
        report = verify_sandwich(2.0, band, default_two_sided_grid(2.0, band, nx=801))
        assert report.passed

    def test_precondition(self):
        with pytest.raises(DomainError):
            verify_sandwich(0.3, BAND)

    def test_asymmetric_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="symmetric"):
            verify_sandwich(1.5, BAND, GridSpec(-11.0, 12.0, 401, 1.0))

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
        report = verify_sandwich(1.5, BAND, default_two_sided_grid(1.5, BAND, nx=401))
        assert not report.passed
        assert report.lower_ok == (side != "lower")
        assert report.upper_ok == (side != "upper")

    def test_two_solves_on_the_requested_grid(self, monkeypatch):
        calls = []
        real_solve = gheat.solve

        def spy(ic, band, grid, **kwargs):
            calls.append((type(ic), ic.c, grid))
            return real_solve(ic, band, grid, **kwargs)

        monkeypatch.setattr(gheat, "solve", spy)
        grid = default_two_sided_grid(1.5, BAND, nx=401)
        verify_sandwich(1.5, BAND, grid)
        assert sorted(calls, key=lambda call: call[0].__name__) == [
            (gheat.IndicatorAbove, 1.5, grid),
            (gheat.IndicatorAbsAbove, 1.5, grid),
        ]

    def test_snapped_threshold_checked_before_solving(self, monkeypatch):
        # c = 0.5001 lies inside the regime c > sigma_hi*sqrt(t)/2 = 0.5, but
        # this grid snaps it to the cell midpoint 0.49, where the bound is
        # evaluated: the check must fail there, before any solve.
        calls = []
        real_solve = gheat.solve

        def spy(*args, **kwargs):
            calls.append(args)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(gheat, "solve", spy)
        with pytest.raises(DomainError, match=r"c = 0\.49.*c = 0\.5001"):
            verify_sandwich(0.5001, BAND, GridSpec(-3.06, 3.14, 63, 1.0))
        assert calls == []

    def test_final_time_never_exceeds_by_more_than_tolerance(self):
        # sublinearity echo: w <= u + v up to discretization tolerance
        grid = default_two_sided_grid(1.5, BAND, nx=1601)
        sol = solve(indicator_abs_above(1.5), BAND, grid, max_levels=2)
        uv = exact_values(sol, 1.0)
        assert float(np.max(sol.final_values - uv)) <= 5e-5


class TestCsvDump:
    def test_round_trip(self, tmp_path):
        grid = GridSpec(-3, 3, 61, 0.5)
        sol = solve(indicator_above(0.4), BAND, grid, max_levels=5)
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
        sol = solve(lipschitz_sampled(xs, np.sin(xs)), band, grid)
        assert np.abs(sol.final_values - np.sin(sol.x)).max() <= 1e-12

    def test_pde_accepts_degenerate_lower_edge(self):
        band = VolatilityBand(0.0, 1.0)
        grid = default_two_sided_grid(1.0, band, nx=801)
        val = p2_numeric(1.0, band, grid)
        # with sigma_lo = 0 mass only diffuses where curvature is positive
        assert 0.0 < val < 1.0
