"""Closed-form tail capacities of the G-normal distribution.

The one-sided Cauchy problem with indicator data 1{x > c} is solved by the
self-similar profile

    u(t, x) = f((x - c) / sqrt(t)),

where ``f`` splits into two Gaussian tail pieces weighted by the volatility
band edges.  Everything here is evaluated through the normal CDF
(``math.erfc``) in closed form; no quadrature appears outside the test
oracles.  ``profile_f`` also takes arrays.

The two-sided capacity has no closed form.  ``p2_approx`` returns twice the
one-sided capacity together with rigorous error bounds: the absolute bound
is the comparison-theorem sandwich

    0 <= u + v - w <= 2 (s_hi - s_lo)/s_hi * Phi(-2c / (s_hi sqrt(t))),

and the relative bound divides it by the exact minimum of u + v (attained
at x = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import _SQRT2, norm_cdf, norm_quantile

__all__ = [
    "VolatilityBand",
    "TwoSidedApprox",
    "profile_f",
    "p1",
    "tail_threshold",
    "p2_approx",
    "two_sided_error_bound",
    "relative_error_bound",
]


@dataclass(frozen=True)
class VolatilityBand:
    """The pair (sigma_lo, sigma_hi) bounding the adversary's volatility.

    The PDE solver accepts sigma_lo = 0; the closed-form profile functions
    require sigma_lo > 0 (their lower Gaussian piece has scale sigma_lo).
    """

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self) -> None:
        lo, hi = self.sigma_lo, self.sigma_hi
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"volatility band must be finite, got ({lo!r}, {hi!r})")
        if not 0.0 <= lo <= hi or hi <= 0.0:
            raise DomainError(
                f"volatility band requires 0 <= sigma_lo <= sigma_hi and sigma_hi > 0, "
                f"got ({lo!r}, {hi!r})"
            )

    @property
    def is_classical(self) -> bool:
        return self.sigma_lo == self.sigma_hi


@dataclass(frozen=True)
class TwoSidedApprox:
    """Two-sided capacity approximation 2*p1 with its guarantee at t = 1."""

    value: float
    abs_error_bound: float
    rel_error_bound: float


def _require_closed_form(band: VolatilityBand) -> None:
    if band.sigma_lo <= 0.0:
        raise DomainError(
            "closed-form capacity functions require sigma_lo > 0 "
            "(use the PDE solver for a degenerate lower edge)"
        )


def profile_f(y, band: VolatilityBand):
    """Self-similar profile f(y); increasing from f(-inf)=0 to f(+inf)=1.

    Piecewise closed form:
        y <= 0:  2 s_hi/(s_hi+s_lo) * Phi(y/s_hi)
        y >  0:  1 - 2 s_lo/(s_hi+s_lo) * Phi(-y/s_lo)

    ``y`` is a float (giving a float) or an array; Phi goes elementwise
    through ``math.erfc`` exactly as in ``special.norm_cdf``.
    """
    _require_closed_form(band)
    lo, hi = band.sigma_lo, band.sigma_hi
    s = hi + lo
    ys = np.asarray(y, dtype=float)
    left = ys <= 0.0
    # For |y| > ~1.8e308 * sigma a piece overflows to +-inf, where erfc
    # gives the exact limit 0 or 2; np.where then picks the right piece.
    with np.errstate(over="ignore"):
        z = np.where(left, ys / hi, -ys / lo)
    w = -z / _SQRT2
    erfc = np.fromiter(map(math.erfc, w.ravel().tolist()), float, w.size)
    cdf = 0.5 * erfc.reshape(w.shape)
    out = np.where(left, 2.0 * hi / s * cdf, 1.0 - 2.0 * lo / s * cdf)
    return float(out) if out.ndim == 0 else out


def p1(c: float, band: VolatilityBand) -> float:
    """One-sided tail capacity; equals u(1, 0) for threshold c.

    Closed form p1(c) = f(-c): for c >= 0 this is
    2 s_hi/(s_hi+s_lo) * Phi(-c/s_hi).
    """
    return profile_f(-c, band)


def _tail_level(alpha: float, sided: str) -> float:
    """The quantile level of a level-alpha test, checked here alone: 1 - alpha or 1 - alpha/2."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if sided not in ("one", "two"):
        raise DomainError(f"sided must be 'one' or 'two', got {sided!r}")
    return 1.0 - (alpha if sided == "one" else alpha / 2.0)


def tail_threshold(alpha: float, band: VolatilityBand, sided: str) -> float:
    """Level-alpha threshold at the upper edge: sigma_hi * Phi^-1(1 - alpha)
    one-sided, sigma_hi * Phi^-1(1 - alpha/2) two-sided."""
    return band.sigma_hi * norm_quantile(_tail_level(alpha, sided))


def two_sided_error_bound(c: float, t: float, band: VolatilityBand) -> float:
    """Comparison-theorem bound on u + v - w, valid for c > sigma_hi*sqrt(t)/2."""
    _require_positive_time_regime(c, t, band)
    lo, hi = band.sigma_lo, band.sigma_hi
    if t == 0.0:
        return 0.0
    return 2.0 * (hi - lo) / hi * norm_cdf(-2.0 * c / (hi * math.sqrt(t)))


def relative_error_bound(c: float, t: float, band: VolatilityBand) -> float:
    """Bound on (u + v - w)/(u + v), valid for c > sigma_hi/2 (and the
    sandwich regime c > sigma_hi*sqrt(t)/2).

    The numerator is the absolute sandwich bound; the denominator is the
    exact minimum of u + v over x, attained at x = 0.  This is the sharp
    form behind the reported relative errors; it never exceeds the paper's
    looser printed expression, which needs no second normal-CDF evaluation.
    """
    _require_relative_regime(c, t, band)
    if t == 0.0:
        return 0.0
    num = two_sided_error_bound(c, t, band)
    if num == 0.0:
        return 0.0
    den = 2.0 * profile_f(-c / math.sqrt(t), band)
    return num / den


def p2_approx(c: float, band: VolatilityBand) -> TwoSidedApprox:
    """Two-sided tail capacity approximation 2*p1(c) with its error bounds.

    Over-estimates the true p2: 0 <= 2*p1 - p2 <= abs_error_bound.  Requires
    c > sigma_hi/2, the regime where the bounds hold at t = 1.
    """
    _require_relative_regime(c, 1.0, band)
    return TwoSidedApprox(
        value=2.0 * p1(c, band),
        abs_error_bound=two_sided_error_bound(c, 1.0, band),
        rel_error_bound=relative_error_bound(c, 1.0, band),
    )


# The one statement of where the bounds hold: gheat and the CLI ask the bounds.
def _require_positive_time_regime(c: float, t: float, band: VolatilityBand) -> None:
    _require_closed_form(band)
    if not t >= 0.0:
        raise DomainError(f"time horizon must be >= 0, got {t!r}")
    if not c > band.sigma_hi * math.sqrt(t) / 2.0:
        raise DomainError(
            f"error bound requires c > sigma_hi*sqrt(t)/2 = "
            f"{band.sigma_hi * math.sqrt(t) / 2.0!r}, got c = {c!r}"
        )


def _require_relative_regime(c: float, t: float, band: VolatilityBand) -> None:
    _require_positive_time_regime(c, t, band)
    if not c > band.sigma_hi / 2.0:
        raise DomainError(
            f"relative error bound requires c > sigma_hi/2 = "
            f"{band.sigma_hi / 2.0!r}, got c = {c!r}"
        )
