"""Policy rules: branch tables, predictability, range, and the PDE
curvature-rule equivalence."""

import math

import numpy as np
import pytest

from gnormal import (
    ConfigurationError,
    PolicySpec,
    PolicyState,
    StateError,
    ThresholdTable,
    VolatilityBand,
    constant_policy,
    heuristic_t_policy,
    next_sigma,
    norm_pdf,
    norm_quantile,
    one_sided_optimal_policy,
    pde_policy_equiv_check,
    profile_f_yy,
    t_quantile,
    two_sided_threshold,
    two_sided_threshold_policy,
)
from gnormal.policy import compile_policy

BAND = VolatilityBand(0.8, 1.0)


def state_after(xs):
    st = PolicyState()
    for x in xs:
        st.observe(x)
    return st


def sample_variance(st):
    """Unbiased sample variance (divisor count - 1) from the running sums;
    0.0 while fewer than two observations exist."""
    if st.count < 2:
        return 0.0
    mean_sq = st.running_sum * st.running_sum / st.count
    return max((st.running_sum_sq - mean_sq) / (st.count - 1), 0.0)


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
            ThresholdTable(time_remaining=(0.1, 0.5), threshold=(1.9, 1.9))

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            PolicySpec(kind="martingale", band=BAND, n=10)

    def test_horizon(self):
        with pytest.raises(ConfigurationError):
            constant_policy(BAND, 0, 0.9)


class TestConstant:
    def test_always_sigma(self):
        spec = constant_policy(BAND, 5, 0.85)
        st = PolicyState()
        for x in (0.4, -1.2, 3.0, 0.0):
            assert next_sigma(spec, st) == 0.85
            st.observe(x)


class TestOneSidedOptimal:
    def test_below_threshold_takes_high(self):
        # S = 0 is below sigma_hi * Phi^-1(0.95) = 1.645
        spec = one_sided_optimal_policy(BAND, 100, 0.05)
        assert next_sigma(spec, PolicyState()) == BAND.sigma_hi

    def test_above_threshold_takes_low(self):
        spec = one_sided_optimal_policy(BAND, 100, 0.05)
        st = state_after([20.0])  # S/sqrt(n) = 2 > 1.645
        assert next_sigma(spec, st) == BAND.sigma_lo

    def test_tie_is_inclusive(self):
        # sqrt(16) = 4 is a power of two, so S/sqrt(n) recovers the
        # threshold exactly and the comparison really sits on the tie
        spec = one_sided_optimal_policy(BAND, 16, 0.05)
        s_star = BAND.sigma_hi * norm_quantile(0.95) * 4.0
        st = state_after([s_star])
        assert st.running_sum / 4.0 == BAND.sigma_hi * norm_quantile(0.95)
        assert next_sigma(spec, st) == BAND.sigma_hi

    def test_single_crossing_in_s(self):
        spec = one_sided_optimal_policy(BAND, 50, 0.05)
        values = []
        for s in np.linspace(-30, 30, 301):
            st = PolicyState(i=2, running_sum=float(s), running_sum_sq=1.0, count=1)
            values.append(next_sigma(spec, st))
        switches = sum(a != b for a, b in zip(values, values[1:]))
        assert switches == 1
        assert values[0] == BAND.sigma_hi and values[-1] == BAND.sigma_lo


@pytest.fixture(scope="module")
def table():
    return ThresholdTable.from_levels(two_sided_threshold(BAND, 0.05, 20))


class TestTwoSidedThresholdPolicy:

    def test_nearest_lookup(self, table):
        spec = two_sided_threshold_policy(BAND, 10, table)
        st = PolicyState()
        assert next_sigma(spec, st) == BAND.sigma_hi  # S = 0 inside

    def test_symmetric_in_s(self, table):
        spec = two_sided_threshold_policy(BAND, 100, table)
        for s in (5.0, 25.0):
            st_pos = PolicyState(i=4, running_sum=s, running_sum_sq=9.0, count=3)
            st_neg = PolicyState(i=4, running_sum=-s, running_sum_sq=9.0, count=3)
            assert next_sigma(spec, st_pos) == next_sigma(spec, st_neg)

    def test_effective_threshold_near_constant(self, table):
        # for alpha = 0.05 and time_remaining >= 0.5 the threshold is within
        # 0.05 of Phi^-1(0.975)
        for tau, thr in zip(table.time_remaining, table.threshold):
            if tau >= 0.5:
                assert abs(thr - norm_quantile(0.975)) <= 0.05


class TestHeuristicT:
    def test_first_two_steps_take_high(self):
        spec = heuristic_t_policy(BAND, 20, 0.05)
        assert next_sigma(spec, PolicyState()) == BAND.sigma_hi
        st = state_after([5.0])
        assert next_sigma(spec, st) == BAND.sigma_hi

    def test_zero_variance_takes_high(self):
        spec = heuristic_t_policy(BAND, 20, 0.05)
        st = state_after([2.0, 2.0, 2.0])  # equal observations, s2 = 0
        assert sample_variance(st) == 0.0
        assert next_sigma(spec, st) == BAND.sigma_hi

    def test_significant_path_takes_low(self):
        spec = heuristic_t_policy(BAND, 4, 0.05)
        st = state_after([3.0, 3.1, 3.2])
        stat = abs(st.running_sum) / math.sqrt(4 * sample_variance(st))
        assert stat > norm_quantile(0.975)
        assert next_sigma(spec, st) == BAND.sigma_lo

    def test_statistic_uses_full_horizon(self):
        # same observations, larger n: statistic shrinks, branch can flip
        st = state_after([3.0, 3.1, 3.2])
        small_n = heuristic_t_policy(BAND, 4, 0.05)
        large_n = heuristic_t_policy(BAND, 4000, 0.05)
        assert next_sigma(small_n, st) == BAND.sigma_lo
        assert next_sigma(large_n, st) == BAND.sigma_hi

    def test_t_step_convention(self):
        spec = heuristic_t_policy(BAND, 20, 0.05, crit_rule="t_step")
        crit = t_quantile(0.975, 3)
        assert compile_policy(spec).bound[5] == crit * crit * 20
        st = state_after([1.0, 1.5, 0.5, 1.2])
        stat = abs(st.running_sum) / math.sqrt(20 * sample_variance(st))
        expected = BAND.sigma_hi if stat <= crit else BAND.sigma_lo
        assert next_sigma(spec, st) == expected

    def test_fixed_c_alpha(self):
        spec = heuristic_t_policy(BAND, 20, c_alpha=2.5)
        assert spec.crit_rule == "fixed"
        st = state_after([3.0, 3.1, 3.2])
        stat = abs(st.running_sum) / math.sqrt(20 * sample_variance(st))
        assert next_sigma(spec, st) == (BAND.sigma_hi if stat <= 2.5 else BAND.sigma_lo)


class TestStateContracts:
    def test_count_mismatch(self):
        spec = constant_policy(BAND, 10, 0.9)
        st = PolicyState(i=3, running_sum=0.0, running_sum_sq=0.0, count=1)
        with pytest.raises(StateError):
            next_sigma(spec, st)

    def test_beyond_horizon(self):
        spec = constant_policy(BAND, 2, 0.9)
        st = state_after([0.1, 0.2])
        with pytest.raises(StateError):
            next_sigma(spec, st)

    def test_predictability(self):
        # states built from identical prefixes give identical outputs,
        # whatever would come next
        spec = heuristic_t_policy(BAND, 50, 0.05)
        a = state_after([0.3, -1.1, 0.7])
        b = state_after([0.3, -1.1, 0.7])
        assert next_sigma(spec, a) == next_sigma(spec, b)

    def test_range_property(self):
        rng = np.random.default_rng(7)
        table = ThresholdTable.from_levels(two_sided_threshold(BAND, 0.05, 10))
        specs = [
            constant_policy(BAND, 30, 0.9),
            one_sided_optimal_policy(BAND, 30, 0.05),
            two_sided_threshold_policy(BAND, 30, table),
            heuristic_t_policy(BAND, 30, 0.05),
            heuristic_t_policy(BAND, 30, 0.05, crit_rule="t_step"),
        ]
        for spec in specs:
            st = PolicyState()
            for i in range(30):
                sig = next_sigma(spec, st)
                assert BAND.sigma_lo <= sig <= BAND.sigma_hi
                st.observe(sig * rng.standard_normal())


def near(x, ulps=4):
    """x and its neighbours up to ``ulps`` representable doubles away."""
    out = [x]
    lo = hi = x
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return sorted(out)


class TestScalarMatchesKernel:
    """``next_sigma`` must give exactly what the simulator's kernel gives for
    the same state, at ties and within a few ulps of them.  Both paths once
    wrote each rule separately, with different rounding, and disagreed on
    about 2.5% of near-tie heuristic states."""

    @staticmethod
    def kernel(spec, states):
        # The simulator's per-step call, on one array holding every state.
        sig = compile_policy(spec).sigma(
            states[0].i,
            np.array([st.running_sum for st in states]),
            np.array([st.running_sum_sq for st in states]),
        )
        return np.broadcast_to(sig, (len(states),)).tolist()

    def check(self, spec, states):
        scalar = [next_sigma(spec, st) for st in states]
        assert scalar == self.kernel(spec, states)
        assert all(self.kernel(spec, [st]) == [sig] for st, sig in zip(states, scalar))
        return scalar

    def test_reported_disagreements(self):
        one_sided = one_sided_optimal_policy(BAND, 10_000, 0.05)
        st = PolicyState(i=2, running_sum=164.4853626951472, count=1)
        assert self.check(one_sided, [st]) == [BAND.sigma_hi]
        heuristic = heuristic_t_policy(BAND, 20, 0.05)
        st = PolicyState(i=10, running_sum=9.144849381033172, running_sum_sq=18.0, count=9)
        assert self.check(heuristic, [st]) == [BAND.sigma_lo]

    def test_exact_ties_take_high(self, table):
        hi, lo = BAND.sigma_hi, BAND.sigma_lo
        one_sided = one_sided_optimal_policy(BAND, 10_000, 0.05)
        s_tie = compile_policy(one_sided).bound
        states = [PolicyState(i=7, running_sum=s, count=6) for s in near(s_tie, 1)]
        assert self.check(one_sided, states) == [hi, hi, lo]

        two_sided = two_sided_threshold_policy(BAND, 100, table)
        s_tie = compile_policy(two_sided).bound[40]
        for sign in (1.0, -1.0):
            states = [PolicyState(i=40, running_sum=sign * s, count=39) for s in near(s_tie, 1)]
            assert self.check(two_sided, states) == [hi, hi, lo]

        # c = 1, n = 4, i = 3: S = 2, Q = 3 gives s^2 = 1 and S^2 = c^2 n s^2.
        fixed = heuristic_t_policy(BAND, 4, c_alpha=1.0)
        states = [PolicyState(i=3, running_sum=s, running_sum_sq=3.0, count=2)
                  for s in near(2.0, 1)]
        assert self.check(fixed, states) == [hi, hi, lo]
        zero_variance = PolicyState(i=3, running_sum=2.0, running_sum_sq=2.0, count=2)
        assert self.check(fixed, [zero_variance]) == [hi]

    @pytest.mark.parametrize("rule", ["normal", "t_step"])
    def test_heuristic_near_ties(self, rule):
        # With Q fixed, s^2 = (Q - S^2/m)/(m - 1) and the tie S^2 = k s^2
        # solves to S^2 = k Q / ((m - 1) + k/m), k = crit^2 n.
        for n, i, q in ((20, 10, 18.0), (20, 5, 3.7), (200, 150, 160.0), (40, 3, 2.5)):
            spec = heuristic_t_policy(BAND, n, 0.05, crit_rule=rule)
            k = compile_policy(spec).bound[i]
            m = i - 1
            s_tie = math.sqrt(k * q / ((m - 1) + k / m))
            states = [PolicyState(i=i, running_sum=sign * s, running_sum_sq=q, count=m)
                      for s in near(s_tie) for sign in (1.0, -1.0)]
            assert set(self.check(spec, states)) == {BAND.sigma_lo, BAND.sigma_hi}

    def test_constant(self):
        spec = constant_policy(BAND, 5, 0.85)
        states = [PolicyState(i=3, running_sum=s, running_sum_sq=9.0, count=2) for s in (-3.0, 3.0)]
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
