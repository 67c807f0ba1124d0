"""Policy rules: branch tables, predictability, range, and the PDE
curvature-rule equivalence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnormal import (
    ConfigurationError,
    PolicySpec,
    ThresholdLevel,
    VolatilityBand,
    constant_policy,
    heuristic_t_policy,
    norm_pdf,
    norm_quantile,
    one_sided_optimal_policy,
    t_quantile,
    two_sided_threshold,
    two_sided_threshold_policy,
)
from gnormal import policy

from oracles import pde_policy_equiv_check, profile_f_yy, scalar_sigma

BAND = VolatilityBand(0.8, 1.0)


def state_after(xs):
    """(i, S, Q) before step i = len(xs) + 1: the running sum and sum of
    squares of the observations xs."""
    s = ss = 0.0
    for x in xs:
        s += x
        ss += x * x
    return len(xs) + 1, s, ss


def heuristic(n, rule):
    """The heuristic rule at alpha = 0.05 with critical value Phi^-1(0.975)
    (``rule="normal"``) or the t-test's own t_{0.975, n-1} (``"fixed"``)."""
    if rule == "fixed":
        return heuristic_t_policy(BAND, n, c_alpha=t_quantile(0.975, n - 1))
    return heuristic_t_policy(BAND, n, 0.05)


def sample_variance(st):
    """Unbiased sample variance (divisor count - 1) from the running sums;
    0.0 while fewer than two observations exist."""
    i, s, ss = st
    count = i - 1
    if count < 2:
        return 0.0
    mean_sq = s * s / count
    return max((ss - mean_sq) / (count - 1), 0.0)


class TestSpecValidation:
    def test_constant_inside_band(self):
        with pytest.raises(ConfigurationError):
            constant_policy(BAND, 10, 1.5)
        assert constant_policy(BAND, 10, 0.9).sigma_const == 0.9

    def test_alpha_required(self):
        with pytest.raises(ConfigurationError):
            PolicySpec(kind="one_sided_optimal", band=BAND, n=10)

    def test_table_required(self):
        with pytest.raises(ConfigurationError):
            PolicySpec(kind="two_sided_threshold", band=BAND, n=10)

    def test_table_coverage(self):
        with pytest.raises(ConfigurationError):
            two_sided_threshold_policy(
                BAND, 10, [ThresholdLevel(0.1, 1.9), ThresholdLevel(0.5, 1.9)]
            )
        with pytest.raises(ConfigurationError):
            two_sided_threshold_policy(BAND, 10, [])
        # a NaN time is no time in (0, 1], wherever the row sits
        for rows in ([(float("nan"), 1.9), (1.0, 1.9)], [(1.0, 1.9), (float("nan"), 1.9)]):
            with pytest.raises(ConfigurationError, match="cover"):
                two_sided_threshold_policy(BAND, 10, [ThresholdLevel(*r) for r in rows])

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            PolicySpec(kind="martingale", band=BAND, n=10)
        # the kind is checked before the fields it would read
        with pytest.raises(ConfigurationError, match="^unknown policy kind 'martingale'$"):
            PolicySpec(kind="martingale", band=BAND, n=10, alpha=0.05)

    def test_horizon(self):
        with pytest.raises(ConfigurationError):
            constant_policy(BAND, 0, 0.9)

    @pytest.mark.parametrize("n", [10.0, 10.5, "10"])
    def test_horizon_is_an_integer(self, n):
        # a float horizon would reach numpy's shapes as a TypeError
        with pytest.raises(ConfigurationError,
                           match=f"^horizon n must be an integer, got {n!r}$"):
            constant_policy(BAND, n, 0.9)

    @pytest.mark.parametrize("make", [
        lambda n: constant_policy(BAND, n, 0.9),
        lambda n: one_sided_optimal_policy(BAND, n, 0.05),
        lambda n: two_sided_threshold_policy(BAND, n, [ThresholdLevel(1.0, 1.9)]),
        lambda n: heuristic_t_policy(BAND, n, 0.05),
        lambda n: heuristic_t_policy(BAND, n, c_alpha=2.5),
    ], ids=["constant", "one_sided_optimal", "two_sided_threshold", "normal", "fixed"])
    def test_horizon_is_capped(self, make):
        # A longer horizon would build per-step arrays or run without end.
        assert make(policy.MAX_N).n == policy.MAX_N == 1_000_000
        with pytest.raises(ConfigurationError,
                           match=r"^horizon n must lie in \[1, 1000000\], got 1000001$"):
            make(policy.MAX_N + 1)

    @pytest.mark.parametrize("make", [
        lambda: heuristic_t_policy(BAND, 20, 0.05, crit_rule="normal", c_alpha=2.5),
        lambda: PolicySpec(kind="one_sided_optimal", band=BAND, n=20, alpha=0.05,
                           sigma_const=0.9),
        lambda: PolicySpec(kind="one_sided_optimal", band=BAND, n=20, alpha=0.05,
                           c_alpha=3.0),
        lambda: PolicySpec(kind="constant", band=BAND, n=20, sigma_const=0.9,
                           table=(ThresholdLevel(1.0, 1.9),)),
        lambda: PolicySpec(kind="constant", band=BAND, n=20, alpha=0.05, sigma_const=0.9),
        lambda: PolicySpec(kind="two_sided_threshold", band=BAND, n=20, alpha=0.05,
                           table=(ThresholdLevel(1.0, 1.9),)),
        lambda: heuristic_t_policy(BAND, 20, 0.05, crit_rule="fixed", c_alpha=2.5),
        lambda: heuristic_t_policy(BAND, 20, 0.05, c_alpha=2.5),
    ], ids=["c_alpha-normal", "sigma_const", "c_alpha",
            "table", "alpha-constant", "alpha-two_sided_threshold",
            "alpha-fixed", "alpha-fixed-helper"])
    def test_unread_field_rejected(self, make):
        # A field the rule ignores would still be recorded in the config echo.
        with pytest.raises(ConfigurationError, match="does not read"):
            make()

    def test_unknown_crit_rule(self):
        with pytest.raises(ConfigurationError, match="unknown heuristic critical-value rule"):
            heuristic_t_policy(BAND, 20, 0.05, crit_rule="t_step")

    def test_crit_rule_is_what_c_alpha_implies(self):
        # crit_rule is derived, not set: "fixed" exactly when c_alpha is.
        with pytest.raises(TypeError):
            PolicySpec(kind="heuristic_t", band=BAND, n=20, alpha=0.05, crit_rule="normal")
        with pytest.raises(ConfigurationError, match=r"crit_rule='fixed' needs c_alpha$"):
            heuristic_t_policy(BAND, 20, 0.05, crit_rule="fixed")
        with pytest.raises(ConfigurationError, match=r"crit_rule='fixed' needs c_alpha$"):
            heuristic_t_policy(BAND, 20, crit_rule="fixed")
        normal = heuristic_t_policy(BAND, 20, 0.05)
        assert normal.crit_rule == "normal"
        assert heuristic_t_policy(BAND, 20, 0.05, crit_rule="normal") == normal
        fixed = heuristic_t_policy(BAND, 20, c_alpha=2.5)
        assert fixed.crit_rule == "fixed" and fixed.bound == 2.5 * 2.5 * 20
        assert heuristic_t_policy(BAND, 20, crit_rule="fixed", c_alpha=2.5) == fixed
        assert constant_policy(BAND, 20, 0.9).crit_rule == "normal"

    @pytest.mark.parametrize("c_alpha", [0.0, -1.0, float("nan")])
    def test_fixed_critical_value_is_positive(self, c_alpha):
        with pytest.raises(ConfigurationError, match="fixed rule needs c_alpha > 0"):
            heuristic_t_policy(BAND, 20, c_alpha=c_alpha)


class TestConstant:
    def test_always_sigma(self):
        spec = constant_policy(BAND, 5, 0.85)
        xs = (0.4, -1.2, 3.0, 0.0)
        for m in range(len(xs)):
            assert scalar_sigma(spec, *state_after(xs[:m])) == 0.85


class TestOneSidedOptimal:
    def test_below_threshold_takes_high(self):
        # S = 0 is below sigma_hi * Phi^-1(0.95) = 1.645
        spec = one_sided_optimal_policy(BAND, 100, 0.05)
        assert scalar_sigma(spec, 1, 0.0) == BAND.sigma_hi

    def test_above_threshold_takes_low(self):
        spec = one_sided_optimal_policy(BAND, 100, 0.05)
        st = state_after([20.0])  # S/sqrt(n) = 2 > 1.645
        assert scalar_sigma(spec, *st) == BAND.sigma_lo

    def test_tie_is_inclusive(self):
        # sqrt(16) = 4 is a power of two, so S/sqrt(n) recovers the
        # threshold exactly and the comparison really sits on the tie
        spec = one_sided_optimal_policy(BAND, 16, 0.05)
        s_star = BAND.sigma_hi * norm_quantile(0.95) * 4.0
        st = state_after([s_star])
        assert st[1] / 4.0 == BAND.sigma_hi * norm_quantile(0.95)
        assert scalar_sigma(spec, *st) == BAND.sigma_hi

    def test_single_crossing_in_s(self):
        spec = one_sided_optimal_policy(BAND, 50, 0.05)
        values = []
        for s in np.linspace(-30, 30, 301):
            values.append(scalar_sigma(spec, 2, float(s), 1.0))
        switches = sum(a != b for a, b in zip(values, values[1:]))
        assert switches == 1
        assert values[0] == BAND.sigma_hi and values[-1] == BAND.sigma_lo


@pytest.fixture(scope="module")
def table():
    return two_sided_threshold(BAND, 0.05, 20)


class TestTwoSidedThresholdPolicy:

    def test_nearest_lookup(self, table):
        spec = two_sided_threshold_policy(BAND, 10, table)
        assert scalar_sigma(spec, 1, 0.0) == BAND.sigma_hi  # S = 0 inside

    def test_symmetric_in_s(self, table):
        spec = two_sided_threshold_policy(BAND, 100, table)
        for s in (5.0, 25.0):
            assert scalar_sigma(spec, 4, s, 9.0) == scalar_sigma(spec, 4, -s, 9.0)

    def test_effective_threshold_near_constant(self, table):
        # for alpha = 0.05 and time_remaining >= 0.5 the threshold is within
        # 0.05 of Phi^-1(0.975)
        for row in table:
            if row.time_remaining >= 0.5:
                assert abs(row.threshold - norm_quantile(0.975)) <= 0.05

    def test_tie_takes_first_row(self):
        # At i = 2 the time remaining 1 - 1/4 = 0.75 lies exactly between the
        # rows; the first row's bound 1 * sqrt(4) = 2 puts S = 4 outside it,
        # where the second row's bound 3 * sqrt(4) = 6 would not.
        spec = two_sided_threshold_policy(
            BAND, 4, [ThresholdLevel(0.5, 1.0), ThresholdLevel(1.0, 3.0)]
        )
        assert scalar_sigma(spec, *state_after([4.0])) == BAND.sigma_lo

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_bound_is_the_whole_table_argmin_bitwise(self, monkeypatch, block):
        # Equal times (the first row wins) and steps halfway between two
        # rows (the first again) at n = 8 and 16; blocks of 1 and 7 split
        # the steps unevenly.
        rows = [ThresholdLevel(t, thr) for t, thr in
                ((0.25, 1.0), (0.5, 2.0), (0.5, 3.0), (0.75, 4.0), (1.0, 5.0), (0.125, 6.0))]
        monkeypatch.setattr(policy, "_BLOCK_VALUES", block)
        for table in (rows, two_sided_threshold(BAND, 0.05, 50, nx=201)):
            taus = np.array([row.time_remaining for row in table])
            for n in (1, 4, 8, 13, 16, 1000):
                nearest = np.argmin(np.abs(taus[:, None] - (1.0 - np.arange(-1, n) / n)), axis=0)
                want = np.array([row.threshold for row in table])[nearest] * math.sqrt(n)
                bound = two_sided_threshold_policy(BAND, n, table).bound
                assert bound.tobytes() == want.tobytes(), (block, n)

    def test_bound_memory_is_linear_in_n(self, table):
        # The whole (rows, n + 1) distance table at n = 2e5 and 20 rows
        # would be 32 MB, twice over; the kept bound is 1.6 MB.
        tracemalloc.start()
        try:
            bound = two_sided_threshold_policy(BAND, 200_000, table).bound
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * bound.nbytes


class TestHeuristicT:
    def test_first_two_steps_take_high(self):
        spec = heuristic_t_policy(BAND, 20, 0.05)
        assert scalar_sigma(spec, 1, 0.0) == BAND.sigma_hi
        assert scalar_sigma(spec, *state_after([5.0])) == BAND.sigma_hi

    def test_zero_variance_takes_high(self):
        spec = heuristic_t_policy(BAND, 20, 0.05)
        st = state_after([2.0, 2.0, 2.0])  # equal observations, s2 = 0
        assert sample_variance(st) == 0.0
        assert scalar_sigma(spec, *st) == BAND.sigma_hi

    def test_significant_path_takes_low(self):
        spec = heuristic_t_policy(BAND, 4, 0.05)
        st = state_after([3.0, 3.1, 3.2])
        stat = abs(st[1]) / math.sqrt(4 * sample_variance(st))
        assert stat > norm_quantile(0.975)
        assert scalar_sigma(spec, *st) == BAND.sigma_lo

    def test_statistic_uses_full_horizon(self):
        # same observations, larger n: statistic shrinks, branch can flip
        st = state_after([3.0, 3.1, 3.2])
        small_n = heuristic_t_policy(BAND, 4, 0.05)
        large_n = heuristic_t_policy(BAND, 4000, 0.05)
        assert scalar_sigma(small_n, *st) == BAND.sigma_lo
        assert scalar_sigma(large_n, *st) == BAND.sigma_hi

    def test_fixed_c_alpha(self):
        spec = heuristic_t_policy(BAND, 20, c_alpha=2.5)
        assert spec.crit_rule == "fixed"
        st = state_after([3.0, 3.1, 3.2])
        stat = abs(st[1]) / math.sqrt(20 * sample_variance(st))
        assert scalar_sigma(spec, *st) == (BAND.sigma_hi if stat <= 2.5 else BAND.sigma_lo)

    def test_kernel_matches_the_clipped_formula_bitwise(self):
        # The kernel leaves out the docstring's clip of s2 at 0; every sigma
        # must still be the formula's, bit for bit.
        def clipped(spec, i, s, ss):
            m = i - 1
            s2 = np.maximum((ss - s * s / m) / (m - 1), 0.0)
            exceed = (s2 > 0.0) & (s * s > spec.bound * s2)
            return np.where(exceed, BAND.sigma_lo, BAND.sigma_hi)

        fixed = heuristic_t_policy(BAND, 4, c_alpha=1.0)
        cancel = state_after([0.1, 0.1, 0.1])
        assert (cancel[2] - cancel[1] * cancel[1] / 3) / 2 < 0.0  # raw s2 below 0
        cases = [
            # m = 2: S = 2, Q = 3 ties S^2 = c^2 n s^2 (with its neighbours),
            # and S = 2, Q = 2 gives s^2 = 0
            (fixed, 3, np.array([*near(2.0, 1), 2.0]), np.array([3.0, 3.0, 3.0, 2.0])),
            (fixed, cancel[0], np.array([cancel[1]]), np.array([cancel[2]])),
        ]
        rng = np.random.default_rng(23)
        for rule in ("normal", "fixed"):
            x = rng.standard_normal((19, 4096))
            s, ss = np.cumsum(x, axis=0), np.cumsum(x * x, axis=0)
            cases += [(heuristic(20, rule), i, s[i - 2], ss[i - 2]) for i in range(3, 21)]
        for spec, i, s, ss in cases:
            assert spec.sigma(i, s, ss).tobytes() == clipped(spec, i, s, ss).tobytes()
        hi, lo = BAND.sigma_hi, BAND.sigma_lo
        assert fixed.sigma(*cases[0][1:]).tolist() == [hi, hi, lo, hi]


class TestStateContracts:
    def test_predictability(self):
        # states built from identical prefixes give identical outputs,
        # whatever would come next
        spec = heuristic_t_policy(BAND, 50, 0.05)
        a = state_after([0.3, -1.1, 0.7])
        b = state_after([0.3, -1.1, 0.7])
        assert scalar_sigma(spec, *a) == scalar_sigma(spec, *b)

    def test_range_property(self):
        rng = np.random.default_rng(7)
        table = two_sided_threshold(BAND, 0.05, 10)
        specs = [
            constant_policy(BAND, 30, 0.9),
            one_sided_optimal_policy(BAND, 30, 0.05),
            two_sided_threshold_policy(BAND, 30, table),
            heuristic(30, "normal"),
            heuristic(30, "fixed"),
        ]
        for spec in specs:
            s = ss = 0.0
            for i in range(1, 31):
                sig = scalar_sigma(spec, i, s, ss)
                assert BAND.sigma_lo <= sig <= BAND.sigma_hi
                x = sig * rng.standard_normal()
                s += x
                ss += x * x


@st.composite
def driven_specs(draw):
    """A rule of any kind on a band 0 < sigma_lo <= sigma_hi and a horizon
    3 <= n <= 60, a batch width and a seed for the noise that drives it;
    the two-sided rule reads a drawn table."""
    lo = draw(st.floats(0.05, 2.0))
    hi = draw(st.one_of(st.just(lo), st.floats(lo, 3.0)))
    band, n = VolatilityBand(lo, hi), draw(st.integers(3, 60))
    kind = draw(st.sampled_from(policy._KINDS))
    if kind == "constant":
        spec = constant_policy(band, n, draw(st.floats(lo, hi)))
    elif kind == "one_sided_optimal":
        spec = one_sided_optimal_policy(band, n, draw(st.floats(1e-4, 0.5)))
    elif kind == "two_sided_threshold":
        thresholds = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6))
        rows = [ThresholdLevel((j + 1) / len(thresholds), thr)
                for j, thr in enumerate(thresholds)]
        spec = two_sided_threshold_policy(band, n, rows)
    elif draw(st.booleans()):
        spec = heuristic_t_policy(band, n, draw(st.floats(1e-4, 0.5)))
    else:
        spec = heuristic_t_policy(band, n, c_alpha=draw(st.floats(0.1, 5.0)))
    return spec, draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))


class TestSigmaProperties:
    """``PolicySpec.sigma`` on paths it drives itself, for every kind
    (Peng, Nonlinear Expectations and Stochastic Calculus under
    Uncertainty, 2019: the adversary's volatility stays in the band)."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(driven_specs())
    def test_in_band_read_only_and_elementwise(self, drawn):
        spec, width, seed = drawn
        lo, hi = spec.band.sigma_lo, spec.band.sigma_hi
        allowed = [spec.sigma_const] if spec.kind == "constant" else [lo, hi]
        rng = np.random.default_rng(seed)
        s, ss = np.zeros(width), np.zeros(width)
        for i in range(1, spec.n + 1):
            # A write to either argument raises on a read-only array.
            s.flags.writeable = ss.flags.writeable = False
            sig = np.broadcast_to(spec.sigma(i, s, ss), (width,))
            assert np.isin(sig, allowed).all(), (i, sig)
            alone = [scalar_sigma(spec, i, a, b) for a, b in zip(s.tolist(), ss.tolist())]
            assert sig.tolist() == alone, i
            x = sig * rng.standard_normal(width)
            s, ss = s + x, ss + x * x


def near(x, ulps=4):
    """x and its neighbours up to ``ulps`` representable doubles away."""
    out = [x]
    lo = hi = x
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return sorted(out)


class TestScalarMatchesKernel:
    """The kernel at width 1 must give exactly what it gives for the same
    state inside a wider array, at ties and within a few ulps of them.  Both paths once
    wrote each rule separately, with different rounding, and disagreed on
    about 2.5% of near-tie heuristic states."""

    @staticmethod
    def kernel(spec, states):
        # The simulator's per-step call, on one array holding every (i, S, Q).
        sig = spec.sigma(
            states[0][0],
            np.array([s for _, s, _ in states]),
            np.array([ss for _, _, ss in states]),
        )
        return np.broadcast_to(sig, (len(states),)).tolist()

    def check(self, spec, states):
        scalar = [scalar_sigma(spec, *st) for st in states]
        assert scalar == self.kernel(spec, states)
        assert all(self.kernel(spec, [st]) == [sig] for st, sig in zip(states, scalar))
        return scalar

    def test_reported_disagreements(self):
        one_sided = one_sided_optimal_policy(BAND, 10_000, 0.05)
        st = (2, 164.4853626951472, 0.0)
        assert self.check(one_sided, [st]) == [BAND.sigma_hi]
        heuristic = heuristic_t_policy(BAND, 20, 0.05)
        st = (10, 9.144849381033172, 18.0)
        assert self.check(heuristic, [st]) == [BAND.sigma_lo]

    def test_exact_ties_take_high(self, table):
        hi, lo = BAND.sigma_hi, BAND.sigma_lo
        one_sided = one_sided_optimal_policy(BAND, 10_000, 0.05)
        s_tie = one_sided.bound
        states = [(7, s, 0.0) for s in near(s_tie, 1)]
        assert self.check(one_sided, states) == [hi, hi, lo]

        two_sided = two_sided_threshold_policy(BAND, 100, table)
        s_tie = two_sided.bound[40]
        for sign in (1.0, -1.0):
            states = [(40, sign * s, 0.0) for s in near(s_tie, 1)]
            assert self.check(two_sided, states) == [hi, hi, lo]

        # c = 1, n = 4, i = 3: S = 2, Q = 3 gives s^2 = 1 and S^2 = c^2 n s^2.
        fixed = heuristic_t_policy(BAND, 4, c_alpha=1.0)
        states = [(3, s, 3.0) for s in near(2.0, 1)]
        assert self.check(fixed, states) == [hi, hi, lo]
        zero_variance = (3, 2.0, 2.0)
        assert self.check(fixed, [zero_variance]) == [hi]

    @pytest.mark.parametrize("rule", ["normal", "fixed"])
    def test_heuristic_near_ties(self, rule):
        # With Q fixed, s^2 = (Q - S^2/m)/(m - 1) and the tie S^2 = k s^2
        # solves to S^2 = k Q / ((m - 1) + k/m), k = crit^2 n.
        for n, i, q in ((20, 10, 18.0), (20, 5, 3.7), (200, 150, 160.0), (40, 3, 2.5)):
            spec = heuristic(n, rule)
            k = spec.bound
            m = i - 1
            s_tie = math.sqrt(k * q / ((m - 1) + k / m))
            states = [(i, sign * s, q) for s in near(s_tie) for sign in (1.0, -1.0)]
            assert set(self.check(spec, states)) == {BAND.sigma_lo, BAND.sigma_hi}

    def test_constant(self):
        spec = constant_policy(BAND, 5, 0.85)
        states = [(3, s, 9.0) for s in (-3.0, 3.0)]
        assert self.check(spec, states) == [0.85, 0.85]


class TestCurvatureRuleEquivalence:
    def test_array_profile_matches_scalar(self):
        ys = np.linspace(-40, 40, 2001)
        vec = profile_f_yy(ys, BAND)
        for j in range(0, 2001, 97):
            y = float(ys[j])
            sig = BAND.sigma_hi if y <= 0.0 else BAND.sigma_lo
            closed_form = -2.0 * y / 1.8 * norm_pdf(y / sig) / (sig * sig)
            assert vec[j] == pytest.approx(closed_form, rel=1e-12, abs=1e-300)
            assert vec[j] == profile_f_yy(y, BAND)

    def test_equivalence_small(self):
        assert pde_policy_equiv_check(BAND, 0.05, 100)

    def test_equivalence_classical(self):
        assert pde_policy_equiv_check(VolatilityBand(1.0, 1.0), 0.05, 10)
