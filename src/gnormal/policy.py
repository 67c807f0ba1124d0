"""Variance-control rules available to the adversarial experimenter.

Every rule is predictable: the volatility for step i depends only on the
observations X_1 .. X_{i-1}, through their sum and sum of squares, and
the output always lies inside the volatility band.  All rules except
``constant`` are bang-bang: sigma_hi while their comparison holds,
sigma_lo otherwise, so ties resolve toward sigma_hi.  With S and Q the
sum and the sum of squares of the first m = i-1 observations, the
comparisons are

    one-sided optimal:   S <= sigma_hi * Phi^-1(1-alpha) * sqrt(n)
    two-sided threshold: |S| <= thr * sqrt(n), thr from the table row with
                         time_remaining nearest 1 - (i-1)/n (first on a tie)
    heuristic:           not (s2 > 0 and S*S > crit * crit * n * s2),
                         s2 = max((Q - S*S/m) / (m - 1), 0),

the last being |S| / sqrt(n * s2) <= crit, scaled by the full horizon n
rather than i-1.  Each is written once, in ``PolicySpec.sigma``, the
kernel the Monte Carlo engine evaluates.  Conventions left open by the
construction are configuration:

* critical value: the normal quantile Phi^-1(1-alpha/2) (default) or an
  explicit constant;
* steps i = 1, 2 (no variance estimate) and zero sample variance both take
  the sigma_hi branch, consistent with "not yet significant".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import VolatilityBand, tail_threshold
from .errors import ConfigurationError
from .gheat import ThresholdLevel
from .special import norm_quantile

__all__ = [
    "PolicySpec",
    "constant_policy",
    "one_sided_optimal_policy",
    "two_sided_threshold_policy",
    "heuristic_t_policy",
]


@dataclass(frozen=True)
class PolicySpec:
    """Which variance rule the simulated experimenter applies.

    ``kind`` is one of "constant", "one_sided_optimal",
    "two_sided_threshold", "heuristic_t"; the remaining fields apply per
    kind and are validated on construction.  A field the rule never reads
    (``c_alpha`` is read only under ``crit_rule="fixed"``, ``alpha`` only by
    the one-sided rule and under ``crit_rule="normal"``) must keep its
    default, so the config echo records only what the rule uses.
    Construction also computes ``bound``, the right-hand side of the rule's
    comparison: a float for the one-sided and heuristic rules, a read-only
    array indexed by step i for the two-sided rule, None for the constant
    rule.  ``table`` holds the ``gheat.two_sided_threshold`` rows; the rule
    uses the row with the nearest ``time_remaining``, no interpolation.
    """

    kind: str
    band: VolatilityBand
    n: int
    alpha: float | None = None
    sigma_const: float | None = None
    table: tuple[ThresholdLevel, ...] | None = None
    crit_rule: str = "normal"
    c_alpha: float | None = None
    bound: float | np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ConfigurationError(f"horizon n must be >= 1, got {n!r}")
        for name, default, read in (
            ("alpha", None, self.kind == "one_sided_optimal"
             or self.kind == "heuristic_t" and self.crit_rule != "fixed"),
            ("sigma_const", None, self.kind == "constant"),
            ("table", None, self.kind == "two_sided_threshold"),
            ("crit_rule", "normal", self.kind == "heuristic_t"),
            ("c_alpha", None, self.kind == "heuristic_t" and self.crit_rule == "fixed"),
        ):
            if not read and getattr(self, name) != default:
                raise ConfigurationError(
                    f"{self.kind!r} policy with crit_rule={self.crit_rule!r} "
                    f"does not read {name}"
                )
        root_n = math.sqrt(n)
        if self.kind == "constant":
            if self.sigma_const is None or not (
                self.band.sigma_lo <= self.sigma_const <= self.band.sigma_hi
            ):
                raise ConfigurationError(
                    "constant policy needs sigma_const inside the band"
                )
            bound = None
        elif self.kind == "one_sided_optimal":
            self._need_alpha()
            bound = tail_threshold(self.alpha, self.band, "one") * root_n
        elif self.kind == "two_sided_threshold":
            if not self.table:
                raise ConfigurationError("two_sided_threshold policy needs a non-empty table")
            taus = np.array([row.time_remaining for row in self.table])
            # NaN fails both comparisons, so a NaN row is rejected too.
            if not (taus.max() >= 1.0 - 1e-12 and taus.min() > 0.0):
                raise ConfigurationError("threshold table must cover time_remaining in (0, 1]")
            # Nearest table row for time remaining 1 - (i-1)/n; argmin keeps
            # the first row among equally near ones.
            time_remaining = 1.0 - np.arange(-1, n) / n
            nearest = np.argmin(np.abs(taus[:, None] - time_remaining), axis=0)
            bound = np.array([row.threshold for row in self.table])[nearest] * root_n
        elif self.kind == "heuristic_t":
            if self.crit_rule == "normal":
                self._need_alpha()
                crit = norm_quantile(1.0 - self.alpha / 2.0)
            elif self.crit_rule == "fixed":
                if self.c_alpha is None or not self.c_alpha > 0.0:
                    raise ConfigurationError("fixed rule needs c_alpha > 0")
                crit = self.c_alpha
            else:
                raise ConfigurationError(
                    f"unknown heuristic critical-value rule {self.crit_rule!r}"
                )
            bound = crit * crit * n
        else:
            raise ConfigurationError(f"unknown policy kind {self.kind!r}")
        if isinstance(bound, np.ndarray):
            bound.flags.writeable = False
        object.__setattr__(self, "bound", bound)

    def _need_alpha(self) -> None:
        if self.alpha is None or not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"policy kind {self.kind!r} needs alpha in (0, 1)")

    def sigma(self, i: int, s: np.ndarray, ss: np.ndarray | None):
        """Volatility for step i from the running sums ``s`` and sums of
        squares ``ss`` of the first i-1 observations; a float where the
        rule ignores them, otherwise an array shaped like ``s``."""
        lo, hi = self.band.sigma_lo, self.band.sigma_hi
        if self.kind == "constant":
            return self.sigma_const
        if self.kind == "one_sided_optimal":
            return np.where(s <= self.bound, hi, lo)
        if self.kind == "two_sided_threshold":
            return np.where(np.abs(s) <= self.bound[i], hi, lo)
        if i <= 2:
            return hi
        m = i - 1
        s2 = np.maximum((ss - s * s / m) / (m - 1), 0.0)
        exceed = (s2 > 0.0) & (s * s > self.bound * s2)
        return np.where(exceed, lo, hi)


def constant_policy(band: VolatilityBand, n: int, sigma: float) -> PolicySpec:
    return PolicySpec(kind="constant", band=band, n=n, sigma_const=sigma)


def one_sided_optimal_policy(band: VolatilityBand, n: int, alpha: float) -> PolicySpec:
    return PolicySpec(kind="one_sided_optimal", band=band, n=n, alpha=alpha)


def two_sided_threshold_policy(
    band: VolatilityBand, n: int, levels: list[ThresholdLevel]
) -> PolicySpec:
    return PolicySpec(kind="two_sided_threshold", band=band, n=n, table=tuple(levels))


def heuristic_t_policy(
    band: VolatilityBand,
    n: int,
    alpha: float | None = None,
    *,
    crit_rule: str | None = None,
    c_alpha: float | None = None,
) -> PolicySpec:
    """Heuristic rule; ``crit_rule`` defaults to "fixed" when ``c_alpha`` is
    given and to "normal" otherwise."""
    if crit_rule is None:
        crit_rule = "normal" if c_alpha is None else "fixed"
    return PolicySpec(
        kind="heuristic_t", band=band, n=n, alpha=alpha,
        crit_rule=crit_rule, c_alpha=c_alpha,
    )
