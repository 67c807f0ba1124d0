"""Closed-form capacity machinery against quadrature oracles and identities."""

import math
import warnings

import numpy as np
import pytest

from gnormal import (
    DomainError,
    VolatilityBand,
    norm_cdf,
    norm_quantile,
    p1,
    p2_approx,
    profile_f,
    relative_error_bound,
    two_sided_error_bound,
)

from gnormal.capacity import tail_threshold
from gnormal.gheat import IndicatorAbove, IndicatorAbsAbove, _closed_form

import oracles
from oracles import profile_f_yy

BAND = VolatilityBand(0.8, 1.0)


def u_one_sided(c, t, x, band=BAND):
    """u(t, x) for data 1{x > c}, as the PDE solver evaluates it."""
    return _closed_form(IndicatorAbove(c), c, x, t, band)


class TestVolatilityBand:
    def test_validation(self):
        VolatilityBand(0.0, 1.0)  # degenerate lower edge allowed at the type level
        with pytest.raises(DomainError):
            VolatilityBand(1.0, 0.5)
        with pytest.raises(DomainError):
            VolatilityBand(-0.1, 1.0)
        with pytest.raises(DomainError):
            VolatilityBand(0.0, 0.0)
        with pytest.raises(DomainError):
            VolatilityBand(0.5, math.inf)

    def test_closed_form_requires_positive_lo(self):
        degenerate = VolatilityBand(0.0, 1.0)
        with pytest.raises(DomainError):
            profile_f(0.3, degenerate)
        with pytest.raises(DomainError):
            p1(1.0, degenerate)


class TestProfileF:
    def test_limits(self):
        assert profile_f(math.inf, BAND) == 1.0
        assert profile_f(-math.inf, BAND) == 0.0

    def test_center_value(self):
        # f(0) = sigma_hi / (sigma_hi + sigma_lo); quadrature oracle agrees
        assert profile_f(0.0, BAND) == pytest.approx(1.0 / 1.8, rel=1e-15)
        assert float(oracles.profile_f_quad(0.0, 0.8, 1.0)) == pytest.approx(
            1.0 / 1.8, rel=1e-12
        )

    def test_against_quadrature_oracle(self):
        for y in (-3.0, -1.2, -0.4, 0.0, 0.7, 1.9, 4.0):
            expected = float(oracles.profile_f_quad(y, 0.8, 1.0))
            assert profile_f(y, BAND) == pytest.approx(expected, abs=1e-12)

    def test_classical_reduction(self):
        band = VolatilityBand(0.7, 0.7)
        for y in np.linspace(-5, 5, 41):
            assert profile_f(float(y), band) == pytest.approx(
                norm_cdf(float(y) / 0.7), abs=1e-12
            )

    def test_monotone(self):
        ys = np.linspace(-6, 6, 121)
        vals = [profile_f(float(y), BAND) for y in ys]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_array_equals_scalar_closed_form(self):
        # The piecewise formula evaluated one float at a time through
        # norm_cdf is the reference; arrays must reproduce it bit for bit.
        def reference(y, lo=0.8, hi=1.0):
            if y <= 0.0:
                return 2.0 * hi / (hi + lo) * norm_cdf(y / hi)
            return 1.0 - 2.0 * lo / (hi + lo) * norm_cdf(-y / lo)

        ys = np.concatenate([np.linspace(-40, 40, 20_001),
                             [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf]])
        assert profile_f(ys, BAND).tolist() == [reference(y) for y in ys.tolist()]
        assert type(profile_f(0.3, BAND)) is float
        assert profile_f(0.3, BAND) == reference(0.3)

    def test_matches_object_array_erfc_bitwise(self):
        # The erfc map runs through a float iterator; the object-array
        # spelling it replaced is the reference, byte for byte.
        rng = np.random.default_rng(3)
        ys = np.concatenate([
            rng.standard_normal(20_000) * 8.0, np.linspace(-40, 40, 9_001),
            [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf],
        ])
        for lo, hi in ((0.8, 1.0), (0.5, 2.0), (1.0, 1.0), (1e-3, 1.0)):
            band = VolatilityBand(lo, hi)
            for y in (ys, ys[:29_000].reshape(290, 100), np.array(0.7), -0.0, -1.5):
                got = profile_f(y, band)
                want = oracles.profile_f_object_erfc(y, lo, hi)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_huge_arguments_give_exact_limits_silently(self):
        # The Gaussian pieces overflow here; the values must still be the
        # exact limits, with no RuntimeWarning.
        tiny_lo = VolatilityBand(1e-3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p1(1e308, tiny_lo) == 0.0
            assert p1(-1e308, tiny_lo) == 1.0
            assert profile_f(1e306, tiny_lo) == 1.0
            assert profile_f(-1e306, tiny_lo) == 0.0
            assert profile_f(np.array([1e308, -1e308]), tiny_lo).tolist() == [1.0, 0.0]
            right, left = profile_f_yy(1e200, BAND), profile_f_yy(-1e200, BAND)
        assert right == 0.0 and math.copysign(1.0, right) == -1.0
        assert left == 0.0 and math.copysign(1.0, left) == 1.0


class TestProfileFyy:
    def test_zero_at_origin(self):
        assert profile_f_yy(0.0, BAND) == 0.0

    def test_sign(self):
        assert profile_f_yy(-1.0, BAND) > 0.0
        assert profile_f_yy(1.0, BAND) < 0.0

    def test_argmax_at_minus_sigma_hi(self):
        # grid-search oracle over y < 0
        ys = np.linspace(-4, -1e-3, 4001)
        vals = np.array([profile_f_yy(float(y), BAND) for y in ys])
        best = ys[int(vals.argmax())]
        assert best == pytest.approx(-BAND.sigma_hi, abs=2e-3)

    def test_matches_finite_difference_of_f(self):
        h = 1e-4
        for y in (-2.5, -1.0, -0.2, 0.3, 1.5, 3.0):
            central = (
                profile_f(y + h, BAND) - 2 * profile_f(y, BAND) + profile_f(y - h, BAND)
            ) / (h * h)
            assert profile_f_yy(y, BAND) == pytest.approx(central, abs=1e-6)

    def test_infinite_and_near_overflow_arguments_give_signed_zero(self):
        # -2y overflows for |y| >= ~9e307 and the density there is 0: the
        # exact value is a zero signed like -y, not inf * 0 = NaN.
        ys = [math.inf, -math.inf, 1e308, -1e308, 9e307, -9e307]
        for band in (BAND, VolatilityBand(1e-3, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = profile_f_yy(np.array(ys), band).tolist()
                scalars = [profile_f_yy(y, band) for y in ys]
            for y, v, s in zip(ys, vals, scalars):
                for got in (v, s):
                    assert got == 0.0
                    assert math.copysign(1.0, got) == -math.copysign(1.0, y)


class TestOneSidedSolutions:
    def test_self_similarity_at_threshold(self):
        f0 = profile_f(0.0, BAND)
        for t in (0.25, 1.0, 4.0):
            assert u_one_sided(0.3, t, 0.3) == pytest.approx(f0)

    def test_center_equals_f0(self):
        assert u_one_sided(0.0, 1.0, 0.0) == pytest.approx(1.0 / 1.8, rel=1e-15)

    def test_self_similarity_property(self):
        c = 0.7
        for a in (0.25, 4.0, 9.0):
            for t in (0.3, 1.0, 2.0):
                for x in (-2.0, 0.1, 1.4, 3.0):
                    lhs = u_one_sided(c, a * t, math.sqrt(a) * (x - c) + c)
                    rhs = u_one_sided(c, t, x)
                    assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_v_is_mirror_of_u(self):
        # u + v for 1{|x| > c} adds v(t, x) = u(t, -x); float addition
        # commutes, so the sum is symmetric in x bit for bit.
        xs = np.linspace(-4, 4, 33)
        for t in (0.5, 1.0):
            w = _closed_form(IndicatorAbsAbove(0.9), 0.9, xs, t, BAND)
            w_mirror = _closed_form(IndicatorAbsAbove(0.9), 0.9, -xs, t, BAND)
            assert np.array_equal(w, w_mirror)

    def test_pde_residual_shrinks_second_order(self):
        # u_t - G(u_xx) = 0 away from the kink; central differences of the
        # closed form should show O(h^2) residuals.
        def g_of(m):
            return 0.5 * (
                BAND.sigma_hi**2 * max(m, 0.0) + BAND.sigma_lo**2 * min(m, 0.0)
            )

        def residual(h):
            worst = 0.0
            c = 0.4
            for t in np.linspace(0.5, 1.0, 6):
                for x in np.linspace(-3, 3, 25):
                    if abs(x - c) < 0.15:
                        continue  # f_yy jumps at the kink
                    u = lambda tt, xx: u_one_sided(c, tt, xx)
                    ut = (u(t + h, x) - u(t - h, x)) / (2 * h)
                    uxx = (u(t, x + h) - 2 * u(t, x) + u(t, x - h)) / (h * h)
                    worst = max(worst, abs(ut - g_of(uxx)))
            return worst

        r1, r2 = residual(0.02), residual(0.01)
        assert r2 <= r1 / 3.0


class TestP1:
    def test_classical(self):
        band = VolatilityBand(1.0, 1.0)
        for c in (-1.0, 0.0, 0.5, 1.96, 3.0):
            assert p1(c, band) == pytest.approx(norm_cdf(-c), abs=1e-14)

    def test_alpha_formula(self):
        # p1(sigma_hi * Phi^-1(1-alpha)) = 2 alpha / (1 + sigma_lo/sigma_hi)
        for alpha in (0.01, 0.05, 0.1, 0.5):
            c = BAND.sigma_hi * norm_quantile(1.0 - alpha)
            expected = 2.0 * alpha / (1.0 + BAND.sigma_lo / BAND.sigma_hi)
            assert p1(c, BAND) == pytest.approx(expected, rel=1e-13)

    def test_at_zero(self):
        assert p1(0.0, BAND) == pytest.approx(1.0 / 1.8, rel=1e-15)

    def test_against_quadrature_oracle(self):
        for c in (-2.0, -0.5, 0.0, 0.8, 2.5):
            expected = float(oracles.p1_quad(c, 0.8, 1.0))
            assert p1(c, BAND) == pytest.approx(expected, abs=1e-12)

    def test_monotone_decreasing_and_limits(self):
        cs = np.linspace(-6, 6, 121)
        vals = [p1(float(c), BAND) for c in cs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert p1(-40.0, BAND) == pytest.approx(1.0)
        assert p1(40.0, BAND) == pytest.approx(0.0, abs=1e-300)

    def test_equals_u_at_unit_time_origin(self):
        for c in (-1.0, 0.0, 0.7, 2.2):
            assert p1(c, BAND) == u_one_sided(c, 1.0, 0.0)

    def test_band_monotonicity(self):
        # enlarging the band never decreases p1 for c >= 0
        rng = np.random.default_rng(42)
        for _ in range(200):
            lo, hi = sorted(rng.uniform(0.05, 3.0, size=2))
            c = rng.uniform(0.0, 4.0)
            base = p1(c, VolatilityBand(lo, hi))
            assert p1(c, VolatilityBand(lo * 0.7, hi)) >= base - 1e-15
            assert p1(c, VolatilityBand(lo, hi * 1.3)) >= base - 1e-15


class TestTailThreshold:
    def test_rule(self):
        band = VolatilityBand(0.5, 2.0)
        for alpha in (0.01, 0.05, 0.3):
            assert tail_threshold(alpha, band, "one") == 2.0 * norm_quantile(1.0 - alpha)
            assert tail_threshold(alpha, band, "two") == 2.0 * norm_quantile(1.0 - alpha / 2)
        with pytest.raises(DomainError):
            tail_threshold(0.05, band, "both")


class TestTwoSidedApprox:
    def test_headline_trio(self):
        # the three headline two-sided values; full precision from 2*p1
        a95 = p2_approx(norm_quantile(0.95), BAND)
        a975 = p2_approx(norm_quantile(0.975), BAND)
        a995 = p2_approx(norm_quantile(0.995), BAND)
        assert round(a95.value, 2) == 0.11
        assert round(a975.value, 3) == 0.056
        assert round(a995.value, 3) == 0.011
        assert a95.value == pytest.approx(0.1111111111111111, rel=1e-13)
        assert a975.value == pytest.approx(0.05555555555555556, rel=1e-13)
        assert a995.value == pytest.approx(0.011111111111111112, rel=1e-13)
        assert a95.rel_error_bound < 2e-3
        assert a975.rel_error_bound < 4e-4
        assert a995.rel_error_bound < 5e-6

    def test_precondition(self):
        with pytest.raises(DomainError):
            p2_approx(0.5, BAND)  # = sigma_hi/2 exactly, not strictly above

    def test_classical_case(self):
        band = VolatilityBand(1.0, 1.0)
        approx = p2_approx(1.96, band)
        assert approx.value == pytest.approx(2 * norm_cdf(-1.96), rel=1e-14)
        assert approx.abs_error_bound == 0.0
        assert approx.rel_error_bound == 0.0


class TestErrorBounds:
    def test_classical_vanishes(self):
        band = VolatilityBand(0.9, 0.9)
        assert two_sided_error_bound(1.0, 1.0, band) == 0.0
        assert relative_error_bound(1.0, 1.0, band) == 0.0
        assert oracles.relative_error_bound_closed_form(1.0, 1.0, band) == 0.0

    def test_frozen_value(self):
        # 0.4 * Phi(-3.92), derived by direct formula evaluation
        assert two_sided_error_bound(1.96, 1.0, BAND) == pytest.approx(
            1.770979372482829e-05, rel=1e-12
        )

    def test_monotone_in_c(self):
        for c in (0.8, 1.2, 2.0, 3.1):
            assert two_sided_error_bound(2 * c, 1.0, BAND) < two_sided_error_bound(
                c, 1.0, BAND
            )

    def test_preconditions(self):
        with pytest.raises(DomainError):
            two_sided_error_bound(0.4, 1.0, BAND)  # c <= sigma_hi sqrt(t)/2
        with pytest.raises(DomainError):
            relative_error_bound(0.5, 1.0, BAND)
        with pytest.raises(DomainError):
            relative_error_bound(1.0, -1.0, BAND)

    def test_relative_bound_frozen_values(self):
        # sharp ratio bound at the three headline thresholds (t = 1)
        vals = [
            (norm_quantile(0.95), 1.805246e-03),
            (norm_quantile(0.975), 3.188716e-04),
            (norm_quantile(0.995), 4.647465e-06),
        ]
        for c, expected in vals:
            assert relative_error_bound(c, 1.0, BAND) == pytest.approx(
                expected, rel=1e-5
            )

    def test_closed_form_dominates_asymptotic_form(self):
        # at t = 1 the printed expression dominates
        # (1 - lo^2/hi^2)/4 * exp(-3 c^2 / (2 hi^2))
        lo, hi = BAND.sigma_lo, BAND.sigma_hi
        for c in np.linspace(0.6, 5.0, 45):
            asymptotic = (1 - lo**2 / hi**2) / 4 * math.exp(-1.5 * c * c / hi**2)
            loose = oracles.relative_error_bound_closed_form(float(c), 1.0, BAND)
            assert loose >= asymptotic

    def test_sharp_bound_is_rigorous_and_tighter_than_closed_form(self):
        for c in np.linspace(0.6, 4.0, 35):
            sharp = relative_error_bound(float(c), 1.0, BAND)
            loose = oracles.relative_error_bound_closed_form(float(c), 1.0, BAND)
            assert 0.0 < sharp <= loose * 1.0000001


class TestClassicalReduction:
    def test_everything_collapses(self):
        sigma = 1.3
        band = VolatilityBand(sigma, sigma)
        for c in (0.8, 1.5, 2.7):
            assert p1(c, band) == pytest.approx(norm_cdf(-c / sigma), abs=1e-12)
            assert p2_approx(c, band).value == pytest.approx(
                2 * norm_cdf(-c / sigma), abs=1e-12
            )
            for t in (0.5, 1.0):
                for x in (-1.0, 0.0, 2.0):
                    assert u_one_sided(c, t, x, band) == pytest.approx(
                        norm_cdf((x - c) / (sigma * math.sqrt(t))), abs=1e-12
                    )
