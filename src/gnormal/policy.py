"""Variance-control rules available to the adversarial experimenter.

Every rule is predictable: the volatility for step i depends only on the
observations X_1 .. X_{i-1} carried in the policy state, and the output
always lies inside the volatility band.  All rules except ``constant`` are
bang-bang: sigma_hi while their comparison holds, sigma_lo otherwise, so
ties resolve toward sigma_hi.  With S and Q the sum and the sum of squares
of the first m = i-1 observations, the comparisons are

    one-sided optimal:   S <= sigma_hi * Phi^-1(1-alpha) * sqrt(n)
    two-sided threshold: |S| <= thr * sqrt(n), thr from the table row with
                         time_remaining nearest 1 - (i-1)/n (first on a tie)
    heuristic:           not (s2 > 0 and S*S > crit_i * crit_i * n * s2),
                         s2 = max((Q - S*S/m) / (m - 1), 0),

the last being |S| / sqrt(n * s2) <= crit_i, scaled by the full horizon n
rather than i-1.  Each is written once, in ``CompiledPolicy.sigma``, which
both ``next_sigma`` and the Monte Carlo engine evaluate.  Conventions left
open by the construction are configuration:

* critical value: a fixed normal quantile Phi^-1(1-alpha/2) (default), the
  per-step Student-t quantile with i-2 degrees of freedom, or an explicit
  constant;
* steps i = 1, 2 (no variance estimate) and zero sample variance both take
  the sigma_hi branch, consistent with "not yet significant".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .capacity import VolatilityBand, profile_f_yy, tail_threshold
from .errors import ConfigurationError, StateError
from .gheat import ThresholdLevel
from .special import norm_quantile, t_quantile

__all__ = [
    "ThresholdTable",
    "PolicySpec",
    "PolicyState",
    "constant_policy",
    "one_sided_optimal_policy",
    "two_sided_threshold_policy",
    "heuristic_t_policy",
    "CompiledPolicy",
    "compile_policy",
    "next_sigma",
    "pde_policy_equiv_check",
]


@dataclass(frozen=True)
class ThresholdTable:
    """Time-indexed thresholds from the two-sided PDE sign-change locus.

    The policy uses the nearest ``time_remaining`` entry, no interpolation.
    """

    time_remaining: tuple[float, ...]
    threshold: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.time_remaining) != len(self.threshold) or not self.time_remaining:
            raise ConfigurationError("threshold table must be non-empty and matched")
        if max(self.time_remaining) < 1.0 - 1e-12 or min(self.time_remaining) <= 0.0:
            raise ConfigurationError("threshold table must cover time_remaining in (0, 1]")

    @classmethod
    def from_levels(cls, levels: list[ThresholdLevel]) -> "ThresholdTable":
        return cls(
            time_remaining=tuple(lv.time_remaining for lv in levels),
            threshold=tuple(lv.threshold for lv in levels),
        )


@dataclass(frozen=True)
class PolicySpec:
    """Which variance rule the simulated experimenter applies.

    ``kind`` is one of "constant", "one_sided_optimal",
    "two_sided_threshold", "heuristic_t"; the remaining fields apply per
    kind and are validated on construction.
    """

    kind: str
    band: VolatilityBand
    n: int
    alpha: float | None = None
    sigma_const: float | None = None
    table: ThresholdTable | None = None
    crit_rule: str = "normal"
    c_alpha: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"horizon n must be >= 1, got {self.n!r}")
        if self.kind == "constant":
            if self.sigma_const is None or not (
                self.band.sigma_lo <= self.sigma_const <= self.band.sigma_hi
            ):
                raise ConfigurationError(
                    "constant policy needs sigma_const inside the band"
                )
        elif self.kind == "one_sided_optimal":
            self._need_alpha()
        elif self.kind == "two_sided_threshold":
            if self.table is None:
                raise ConfigurationError("two_sided_threshold policy needs a table")
        elif self.kind == "heuristic_t":
            if self.crit_rule not in ("normal", "t_step", "fixed"):
                raise ConfigurationError(
                    f"unknown heuristic critical-value rule {self.crit_rule!r}"
                )
            if self.crit_rule == "fixed":
                if self.c_alpha is None or not self.c_alpha > 0.0:
                    raise ConfigurationError("fixed rule needs c_alpha > 0")
            else:
                self._need_alpha()
        else:
            raise ConfigurationError(f"unknown policy kind {self.kind!r}")

    def _need_alpha(self) -> None:
        if self.alpha is None or not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"policy kind {self.kind!r} needs alpha in (0, 1)")


def constant_policy(band: VolatilityBand, n: int, sigma: float) -> PolicySpec:
    return PolicySpec(kind="constant", band=band, n=n, sigma_const=sigma)


def one_sided_optimal_policy(band: VolatilityBand, n: int, alpha: float) -> PolicySpec:
    return PolicySpec(kind="one_sided_optimal", band=band, n=n, alpha=alpha)


def two_sided_threshold_policy(
    band: VolatilityBand, n: int, table: ThresholdTable
) -> PolicySpec:
    return PolicySpec(kind="two_sided_threshold", band=band, n=n, table=table)


def heuristic_t_policy(
    band: VolatilityBand,
    n: int,
    alpha: float | None = None,
    *,
    crit_rule: str = "normal",
    c_alpha: float | None = None,
) -> PolicySpec:
    if c_alpha is not None:
        crit_rule = "fixed"
    return PolicySpec(
        kind="heuristic_t", band=band, n=n, alpha=alpha,
        crit_rule=crit_rule, c_alpha=c_alpha,
    )


@dataclass
class PolicyState:
    """Running summaries of the observations seen so far.

    ``i`` is the 1-based index of the upcoming step; ``count`` must equal
    i - 1 (predictability: the state holds X_1 .. X_{i-1} only).
    """

    i: int = 1
    running_sum: float = 0.0
    running_sum_sq: float = 0.0
    count: int = 0

    def observe(self, x: float) -> None:
        """Advance the state past observation X_i = x."""
        self.running_sum += x
        self.running_sum_sq += x * x
        self.count += 1
        self.i += 1


@dataclass(frozen=True)
class CompiledPolicy:
    """A spec with the right-hand sides of its comparisons computed once:
    a float for the one-sided rule, an array indexed by step i for the
    two-sided and heuristic rules, None for the constant rule."""

    spec: PolicySpec
    bound: float | np.ndarray | None

    def sigma(self, i: int, s: np.ndarray, ss: np.ndarray | None):
        """Volatility for step i from the running sums ``s`` and sums of
        squares ``ss`` of the first i-1 observations; a float where the
        rule ignores them, otherwise an array shaped like ``s``."""
        spec = self.spec
        lo, hi = spec.band.sigma_lo, spec.band.sigma_hi
        if spec.kind == "constant":
            return spec.sigma_const
        if spec.kind == "one_sided_optimal":
            return np.where(s <= self.bound, hi, lo)
        if spec.kind == "two_sided_threshold":
            return np.where(np.abs(s) <= self.bound[i], hi, lo)
        if i <= 2:
            return hi
        m = i - 1
        s2 = np.maximum((ss - s * s / m) / (m - 1), 0.0)
        exceed = (s2 > 0.0) & (s * s > self.bound[i] * s2)
        return np.where(exceed, lo, hi)


@lru_cache(maxsize=64)
def compile_policy(spec: PolicySpec) -> CompiledPolicy:
    """The spec's comparison bounds, computed once per spec."""
    n = spec.n
    root_n = math.sqrt(n)
    if spec.kind == "constant":
        bound = None
    elif spec.kind == "one_sided_optimal":
        bound = tail_threshold(spec.alpha, spec.band, "one") * root_n
    elif spec.kind == "two_sided_threshold":
        # Nearest table row for time remaining 1 - (i-1)/n; a strict < keeps
        # the first row among equally near ones.
        time_remaining = 1.0 - np.arange(-1, n) / n
        best = np.full(n + 1, np.inf)
        thr = np.empty(n + 1)
        for tau, th in zip(spec.table.time_remaining, spec.table.threshold):
            dist = np.abs(tau - time_remaining)
            nearer = dist < best
            best[nearer] = dist[nearer]
            thr[nearer] = th
        bound = thr * root_n
    else:
        if spec.crit_rule == "fixed":
            crit = np.full(n + 1, spec.c_alpha)
        elif spec.crit_rule == "normal":
            crit = np.full(n + 1, norm_quantile(1.0 - spec.alpha / 2.0))
        else:
            p = 1.0 - spec.alpha / 2.0
            crit = np.array([t_quantile(p, max(i - 2, 1)) for i in range(n + 1)])
        bound = crit * crit * n
    if isinstance(bound, np.ndarray):
        bound.flags.writeable = False
    return CompiledPolicy(spec, bound)


def next_sigma(spec: PolicySpec, state: PolicyState) -> float:
    """Volatility for step ``state.i`` under ``spec``; always in the band.

    A width-1 evaluation of the kernel the Monte Carlo engine runs.
    """
    if state.count != state.i - 1:
        raise StateError(
            f"state count {state.count} inconsistent with step index {state.i}"
        )
    if state.i > spec.n:
        raise StateError(f"step index {state.i} beyond horizon n={spec.n}")
    sig = compile_policy(spec).sigma(
        state.i, np.array([state.running_sum]), np.array([state.running_sum_sq])
    )
    return float(np.reshape(sig, -1)[0])


def pde_policy_equiv_check(
    band: VolatilityBand,
    alpha: float,
    n: int,
    *,
    s_points: int = 2001,
) -> bool:
    """Verify the one-sided threshold rule against the curvature-sign rule.

    Rule A takes sigma_hi exactly when the closed-form second derivative of
    the one-sided solution is >= 0 at (1-(i-1)/n, S/sqrt(n)); rule B is the
    printed inequality S/sqrt(n) <= sigma_hi * Phi^-1(1-alpha).  Checked on
    a grid of S spanning +-5 sqrt(n) plus the exact threshold point, for
    every step i.  Returns True iff the rules agree everywhere.
    """
    c = tail_threshold(alpha, band, "one")
    # x = S/sqrt(n); the tie point x = c must take the sigma_hi branch.
    xs = np.append(np.linspace(-5.0, 5.0, s_points), c)
    rule_b = xs <= c
    for i in range(1, n + 1):
        tau = 1.0 - (i - 1) / n
        y = (xs - c) / math.sqrt(tau)
        v = profile_f_yy(y, band)
        # The Gaussian factor is strictly positive but underflows for huge
        # |y|; v == 0.0 then resolves by the analytic sign, sign(-y).
        rule_a = (v > 0.0) | ((v == 0.0) & (y <= 0.0))
        if not np.array_equal(rule_a, rule_b):
            return False
    return True
