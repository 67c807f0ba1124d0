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
rather than i-1.  The kernel skips the clip at 0, which cannot change the
mask, since a clipped s2 fails s2 > 0 exactly when the raw one does.  Each
rule is written once, in ``PolicySpec.sigma``, the kernel the Monte Carlo
engine evaluates.  Conventions left open by the construction are
configuration:

* critical value: the constant ``c_alpha`` where it is set ("fixed"),
  else the normal quantile Phi^-1(1-alpha/2) with alpha in (0, 1)
  ("normal"); ``PolicySpec.crit_rule`` names the one in use;
* steps i = 1, 2 (no variance estimate) and zero sample variance both take
  the sigma_hi branch, consistent with "not yet significant".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .capacity import VolatilityBand, _tail_level, tail_threshold
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

# Most (row, step) distances the two-sided rule holds at once while it finds
# each step's nearest table row.
_BLOCK_VALUES = 1 << 16
# Longest horizon n of any rule: the two-sided rule keeps a bound per step.
MAX_N = 1_000_000
_KINDS = ("constant", "one_sided_optimal", "two_sided_threshold", "heuristic_t")


def _require_integer(name: str, value) -> None:
    """Refuse a value that is not a Python or numpy integer, naming the field."""
    try:
        operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class PolicySpec:
    """Which variance rule the simulated experimenter applies.

    ``kind`` is one of "constant", "one_sided_optimal",
    "two_sided_threshold", "heuristic_t"; the remaining fields apply per
    kind and are validated on construction.  A field is set exactly when
    the rule reads it, so the config echo records only what the rule uses:
    ``sigma_const`` for the constant rule, ``table`` for the two-sided
    rule, ``alpha`` for the one-sided rule and for the heuristic rule
    without ``c_alpha``, which the heuristic rule alone may set.
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
    c_alpha: float | None = None
    bound: float | np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown policy kind {self.kind!r}")
        n = self.n
        _require_integer("horizon n", n)
        if not 1 <= n <= MAX_N:
            raise ConfigurationError(f"horizon n must lie in [1, {MAX_N}], got {n!r}")
        heuristic = self.kind == "heuristic_t"
        reads_alpha = self.kind == "one_sided_optimal" or heuristic and self.c_alpha is None
        for name, read, required in (
            ("alpha", reads_alpha, True),
            ("sigma_const", self.kind == "constant", True),
            ("table", self.kind == "two_sided_threshold", True),
            ("c_alpha", heuristic, False),
        ):
            unset = getattr(self, name) is None
            if not read and not unset:
                raise ConfigurationError(
                    f"{self.kind!r} policy with crit_rule={self.crit_rule!r} "
                    f"does not read {name}"
                )
            if read and required and unset:
                raise ConfigurationError(f"{self.kind!r} policy needs {name}")
        root_n = math.sqrt(n)
        if self.kind == "constant":
            if not self.band.sigma_lo <= self.sigma_const <= self.band.sigma_hi:
                raise ConfigurationError("constant policy needs sigma_const inside the band")
            bound = None
        elif self.kind == "one_sided_optimal":
            bound = tail_threshold(self.alpha, self.band, "one") * root_n
        elif self.kind == "two_sided_threshold":
            taus = np.array([row.time_remaining for row in self.table])
            # An empty table covers nothing, and NaN fails both comparisons.
            if not (taus.size and taus.max() >= 1.0 - 1e-12 and taus.min() > 0.0):
                raise ConfigurationError("threshold table must cover time_remaining in (0, 1]")
            # Nearest table row for time remaining 1 - (i-1)/n, a block of
            # steps i at a time; argmin keeps the first row among equally near ones.
            nearest = np.empty(n + 1, dtype=np.intp)
            block = max(1, _BLOCK_VALUES // taus.size)
            for start in range(0, n + 1, block):
                time_remaining = 1.0 - np.arange(start - 1, min(start + block, n + 1) - 1) / n
                nearest[start : start + block] = np.argmin(
                    np.abs(taus[:, None] - time_remaining), axis=0
                )
            bound = np.array([row.threshold for row in self.table])[nearest]
            bound *= root_n
        else:
            crit = self.c_alpha
            if crit is None:
                crit = norm_quantile(_tail_level(self.alpha, "two"))
            elif not crit > 0.0:
                raise ConfigurationError("fixed rule needs c_alpha > 0")
            bound = crit * crit * n
        if isinstance(bound, np.ndarray):
            bound.flags.writeable = False
        object.__setattr__(self, "bound", bound)

    @property
    def crit_rule(self) -> str:
        """The heuristic critical value in use: "fixed" where ``c_alpha`` is
        set, else "normal"."""
        return "normal" if self.c_alpha is None else "fixed"

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
        sq = s * s
        # s2 is not clipped at 0: a raw s2 <= 0 (or NaN) fails s2 > 0 anyway.
        s2 = (ss - sq / m) / (m - 1)
        exceed = (s2 > 0.0) & (sq > self.bound * s2)
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
    """Heuristic rule with critical value ``c_alpha`` where it is given, else
    Phi^-1(1 - alpha/2).  ``crit_rule`` may name that choice, "fixed" or
    "normal"; a name that does not match ``c_alpha`` is an error."""
    if crit_rule not in (None, "normal", "fixed"):
        raise ConfigurationError(f"unknown heuristic critical-value rule {crit_rule!r}")
    if crit_rule not in (None, "normal" if c_alpha is None else "fixed"):
        raise ConfigurationError(
            f"'heuristic_t' policy with crit_rule={crit_rule!r} "
            + ("needs c_alpha" if c_alpha is None else "does not read c_alpha")
        )
    return PolicySpec(kind="heuristic_t", band=band, n=n, alpha=alpha, c_alpha=c_alpha)
