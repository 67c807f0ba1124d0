"""Explicit monotone finite-difference solver for the nonlinear heat equation

    u_t = G(u_xx),   G(m) = (s_hi^2 m+ - s_lo^2 m-) / 2,

with indicator or sampled-Lipschitz initial data.  Forward Euler with the
3-point second difference is monotone under the step restriction
dt <= dx^2 / s_hi^2, so it converges to the viscosity solution; the solver
enforces dt <= safety * dx^2 / s_hi^2 with safety in (0, 1].

Numerical conventions that matter to the contracts:

* Indicator thresholds are snapped to the midpoint of the grid cell
  containing them, so the sampled data is an exact 0/1 vector and the jump
  sits midway between nodes.  The snapped threshold is reported on the
  solution object; converged output approximates the problem with the
  snapped threshold exactly.
* Dirichlet boundaries of indicator data are pinned to the closed-form
  one-sided solution (or the one-sided sum for two-sided data) when the
  band has a positive lower edge; every other datum keeps its initial end
  values.  Default domains put the boundary 10 s_hi beyond the threshold,
  where either choice is accurate to well below discretization error.
* One step, in this order, with every numpy result written into buffers
  made once per march: d2 = ((u[j-1] + u[j+1]) - 2 u[j]) * (1/dx^2);
  g = max(h_hi d2, h_lo d2) + 0.0 with h = s^2/2; u[j] += dt g on the
  interior; then the two boundary values.  This d2 order makes every step
  bitwise mirror-symmetric for symmetric data on a symmetric grid.  g
  equals h_hi max(d2, 0) + h_lo min(d2, 0) bit for bit: as h_hi >= h_lo
  >= 0 the max picks the product the sum keeps, and the + 0.0 turns the
  -0.0 that h_lo d2 is when s_lo = 0 or it underflows into the sum's +0.0;
  without it a -0.0 node of table data could stay -0.0 where the sum
  form makes it +0.0.
* Overflow surfaces once, as NumericalError naming the step whose
  arithmetic failed.  Every datum starts finite, and finite arithmetic
  turns non-finite only by an overflow or invalid operation, so ``solve``
  and ``two_sided_threshold`` run the whole march under one
  np.errstate(over="raise", invalid="raise") (not per step, about 2 us
  each, nor across the generator's yields) and no per-step check runs.
  The final state is checked at every node, for callers without it.
* Time levels are retained on a uniform subsample (every ``stride`` steps,
  endpoints included); the step count is rounded up so retained times land
  on exact multiples of t_end/(levels-1) at every spatial resolution,
  which lets refinement studies compare matching levels.
* The threshold table reads the same march, locating the sign change of the
  second difference only at the step nearest each reported time.

Within one solve, the update is a data-parallel map over space with one
synchronization per step; results are independent of how the space loop is
partitioned.  Distinct solves share no mutable state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .capacity import (
    VolatilityBand,
    _require_positive_time_regime,
    profile_f,
    tail_threshold,
    two_sided_error_bound,
)
from .errors import ConfigurationError, DomainError, NumericalError

__all__ = [
    "IndicatorAbove",
    "IndicatorAbsAbove",
    "LipschitzTable",
    "indicator_above",
    "indicator_abs_above",
    "lipschitz_sampled",
    "GridSpec",
    "GridSolution",
    "ThresholdLevel",
    "SandwichReport",
    "default_two_sided_grid",
    "solve",
    "p2_numeric",
    "two_sided_threshold",
    "verify_sandwich",
]

# Sign changes of the discrete second derivative are ignored where both
# endpoint magnitudes sit below this multiple of the rounding noise floor
# eps/dx^2 (cancellation noise in flat regions has exactly that scale).
_D2_NOISE_MULT = 64.0

_DEFAULT_MAX_LEVELS = 201

# Tolerance of verify_sandwich's discrete triple.  It cannot be zero: the
# float one-step map is monotone only to about 1.6 eps.
_SANDWICH_TOL = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class IndicatorAbove:
    """Initial datum 1{x > c}."""

    c: float


@dataclass(frozen=True)
class IndicatorAbsAbove:
    """Initial datum 1{|x| > c}, c >= 0."""

    c: float

    def __post_init__(self) -> None:
        if not self.c >= 0.0:
            raise DomainError(f"two-sided threshold must be >= 0, got {self.c!r}")


@dataclass(frozen=True)
class LipschitzTable:
    """Initial datum sampled at strictly increasing abscissae."""

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y) or len(self.x) < 2:
            raise DomainError("lipschitz table needs >= 2 matched (x, y) pairs")
        if not all(map(math.isfinite, (*self.x, *self.y))):
            raise DomainError("lipschitz table values must be finite")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise DomainError("lipschitz table abscissae must be strictly increasing")


InitialCondition = IndicatorAbove | IndicatorAbsAbove | LipschitzTable


def indicator_above(c: float) -> IndicatorAbove:
    return IndicatorAbove(c)


def indicator_abs_above(c: float) -> IndicatorAbsAbove:
    return IndicatorAbsAbove(c)


def lipschitz_sampled(x, y) -> LipschitzTable:
    return LipschitzTable(tuple(float(v) for v in x), tuple(float(v) for v in y))


@dataclass(frozen=True)
class GridSpec:
    """Space-time grid: nx nodes on [x_min, x_max], horizon t_end,
    CFL fraction safety in (0, 1]."""

    x_min: float
    x_max: float
    nx: int
    t_end: float
    safety: float = 0.8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ConfigurationError("grid endpoints must be finite")
        if not self.x_min < self.x_max:
            raise ConfigurationError(
                f"grid requires x_min < x_max, got [{self.x_min!r}, {self.x_max!r}]"
            )
        if self.nx < 3:
            raise ConfigurationError(f"grid requires nx >= 3, got {self.nx!r}")
        if not self.t_end > 0.0:
            raise ConfigurationError(f"grid requires t_end > 0, got {self.t_end!r}")
        if not 0.0 < self.safety <= 1.0:
            raise ConfigurationError(
                f"CFL safety fraction must lie in (0, 1], got {self.safety!r}"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)


@dataclass(frozen=True)
class ThresholdLevel:
    """One row of the second-derivative sign-change locus."""

    time_remaining: float
    threshold: float
    degenerate: bool = False
    multiple: bool = False

    @property
    def flag(self) -> str:
        parts = []
        if self.degenerate:
            parts.append("degenerate")
        if self.multiple:
            parts.append("multiple")
        return "+".join(parts)


@dataclass
class GridSolution:
    """Space-time solution on the retained time levels.

    ``values[k, j]`` is u(times[k], x[j]).  ``snapped_c`` is the
    cell-midpoint threshold actually used for indicator data.
    ``diagnostics`` holds the march's wall seconds (``march_s``, set-up
    included), ``steps_per_s`` and ``cfl``, the CFL fraction actually used,
    dt s_hi^2 / dx^2 (at most ``safety``, up to one rounding of dt); it is
    volatile, so it takes no part in equality, ``write_csv`` or any
    checksum.
    """

    grid: GridSpec
    band: VolatilityBand
    ic: InitialCondition
    x: np.ndarray
    times: np.ndarray
    values: np.ndarray
    dt: float
    n_steps: int
    snapped_c: float | None = None
    diagnostics: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def final_values(self) -> np.ndarray:
        return self.values[-1]

    def value_at_final(self, x: float) -> float:
        """Linear interpolation of the t_end level at x."""
        if not self.x[0] <= x <= self.x[-1]:
            raise DomainError(f"x = {x!r} outside the grid")
        return float(np.interp(x, self.x, self.values[-1]))

    def write_csv(self, path) -> None:
        """Dump as ``t,x,u`` rows, time-major then space ascending."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x,u\n")
            for k, t in enumerate(self.times.tolist()):
                row = self.values[k].tolist()
                for xj, uj in zip(self.x.tolist(), row):
                    fh.write(f"{t!r},{xj!r},{uj!r}\n")


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of checking 0 <= u_h + v_h - w_h <= bound on one grid.

    u_h and w_h are the scheme's solutions from 1{x > c} and 1{|x| > c},
    v_h is u_h mirrored, and the bound is evaluated at ``snapped_c``, the
    cell-midpoint threshold both solves used.  ``lower_bound_violation`` is
    max(w_h - (u_h+v_h)); ``upper_bound_slack`` is min(bound - (u_h+v_h-w_h)).
    Both are compared against ``eps_grid``, which holds the fixed rounding
    tolerance 64 eps, not a grid-dependent estimate.
    """

    c: float
    snapped_c: float
    band: VolatilityBand
    eps_grid: float
    lower_bound_violation: float
    upper_bound_slack: float
    nodes_checked: int

    @property
    def lower_ok(self) -> bool:
        return self.lower_bound_violation <= self.eps_grid

    @property
    def upper_ok(self) -> bool:
        return self.upper_bound_slack >= -self.eps_grid

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


def default_two_sided_grid(
    c: float, band: VolatilityBand, *, nx: int = 2401, t_end: float = 1.0
) -> GridSpec:
    span = abs(c) + 10.0 * band.sigma_hi
    return GridSpec(x_min=-span, x_max=span, nx=nx, t_end=t_end)


def _snap_to_cell_midpoint(c: float, x_min: float, dx: float) -> float:
    # Midpoint of the cell containing c; a threshold exactly on a node snaps
    # to the midpoint on its right.
    k = math.floor((c - x_min) / dx)
    return x_min + (k + 0.5) * dx


def _sample_ic(ic, x, dx):
    """Initial vector and snapped threshold (None for tables)."""
    x_min, x_max = float(x[0]), float(x[-1])

    if isinstance(ic, (IndicatorAbove, IndicatorAbsAbove)):
        # 1{x > c} needs c inside the grid; 1{|x| > c} only needs c < x_max.
        lowest = x_min if isinstance(ic, IndicatorAbove) else -math.inf
        if not lowest < ic.c < x_max:
            raise ConfigurationError(
                f"threshold c = {ic.c!r} outside grid [{x_min!r}, {x_max!r}]"
            )
        c = _snap_to_cell_midpoint(ic.c, x_min, dx)
        above = x if isinstance(ic, IndicatorAbove) else np.abs(x)
        return (above > c).astype(float), c

    if isinstance(ic, LipschitzTable):
        return np.interp(x, np.asarray(ic.x), np.asarray(ic.y)), None

    raise ConfigurationError(f"unknown initial condition {ic!r}")


def _closed_form(ic, c, x, t, band):
    """Exact solution for indicator data with threshold c at (t, x), t > 0:
    f((x - c)/sqrt(t)), plus the mirror term f((-x - c)/sqrt(t)) for
    1{|x| > c}.  ``x`` and ``t`` broadcast against each other."""
    rt = np.sqrt(t)
    out = profile_f((x - c) / rt, band)
    if isinstance(ic, IndicatorAbsAbove):
        out = out + profile_f((-x - c) / rt, band)
    return out


@dataclass(frozen=True)
class _March:
    """One explicit march to t_end.  ``times[k]`` is the time of step k
    (k * dt, and exactly t_end at k = n_steps); ``states`` yields
    (k, u, d2) for k = 0..n_steps, where u is the state at times[k] and d2
    its second difference divided by dx^2.  Both are buffers allocated once
    per march: u is advanced in place after the yield and d2 is overwritten
    by the next step, so a consumer that keeps either must copy it.
    Retained levels are the steps divisible by ``stride``."""

    x: np.ndarray
    snapped_c: float | None
    dt: float
    times: np.ndarray
    stride: int
    states: Iterator[tuple[int, np.ndarray, np.ndarray]]


def _march(
    ic: InitialCondition, band: VolatilityBand, grid: GridSpec, max_levels: int
) -> _March:
    if max_levels < 2:
        raise ConfigurationError("max_levels must be >= 2")
    x = np.linspace(grid.x_min, grid.x_max, grid.nx)
    dx = grid.dx
    u0, snapped_c = _sample_ic(ic, x, dx)

    dt_max = grid.safety * dx * dx / (band.sigma_hi * band.sigma_hi)
    raw_steps = max(1, math.ceil(grid.t_end / dt_max))
    # Round the step count up so retained levels sit at j*t_end/(levels-1).
    levels = min(max_levels, raw_steps + 1)
    segments = max(levels - 1, 1)
    n_steps = ((raw_steps + segments - 1) // segments) * segments
    if grid.t_end / n_steps > dt_max:  # the division can round above dt_max
        n_steps += segments
    stride = n_steps // segments
    dt = grid.t_end / n_steps
    times = np.arange(n_steps + 1) * dt
    times[-1] = grid.t_end

    # Boundary values of every step at once, as Python floats for cheap
    # indexing in the step loop; t_next = (k + 1) * dt.
    if snapped_c is not None and band.sigma_lo > 0.0:
        t_next = np.arange(1, n_steps + 1)[:, None] * dt
        boundary = _closed_form(ic, snapped_c, x[[0, -1]], t_next, band)
    else:
        boundary = np.broadcast_to(u0[[0, -1]], (n_steps, 2))
    bc_left, bc_right = boundary.T.tolist()

    def states():
        k = 0  # a trapped flag in set-up counts as step 1; see the module notes
        try:
            half_hi = 0.5 * band.sigma_hi * band.sigma_hi
            half_lo = 0.5 * band.sigma_lo * band.sigma_lo
            inv_dx2 = 1.0 / (dx * dx)
            u = u0.copy()
            west, mid, east = u[:-2], u[1:-1], u[2:]
            d2, g, work = np.empty((3, grid.nx - 2))

            def second_difference():
                # (u[j-1] + u[j+1]) - 2 u[j], then / dx^2: mirror-stable order.
                np.add(west, east, out=d2)
                np.multiply(mid, 2.0, out=work)
                np.subtract(d2, work, out=d2)
                np.multiply(d2, inv_dx2, out=d2)

            for k in range(n_steps):
                second_difference()
                yield k, u, d2
                # G(d2) = max(s_hi^2 d2, s_lo^2 d2)/2 + 0.0; see the module notes.
                np.multiply(d2, half_hi, out=g)
                np.multiply(d2, half_lo, out=work)
                np.maximum(g, work, out=g)
                np.add(g, 0.0, out=g)
                np.multiply(g, dt, out=g)
                np.add(mid, g, out=mid)
                u[0] = bc_left[k]
                u[-1] = bc_right[k]
            second_difference()
        except FloatingPointError:
            raise NumericalError(f"non-finite values detected at step {k + 1}") from None
        # Backstop for a consumer that runs the march without that errstate.
        if not np.isfinite(u).all():
            raise NumericalError(f"non-finite values detected at step {n_steps}")
        yield n_steps, u, d2

    return _March(x, snapped_c, dt, times, stride, states())


def solve(
    ic: InitialCondition,
    band: VolatilityBand,
    grid: GridSpec,
    *,
    max_levels: int = _DEFAULT_MAX_LEVELS,
) -> GridSolution:
    """March the explicit monotone scheme to t_end.

    ``max_levels`` caps how many time levels are retained in the solution
    (uniformly subsampled, endpoints always included).
    """
    start = time.perf_counter()
    march = _march(ic, band, grid, max_levels)
    times = march.times[:: march.stride]
    values = np.empty((times.size, grid.nx))
    with np.errstate(over="raise", invalid="raise"):
        for k, u, _ in march.states:
            if k % march.stride == 0:
                values[k // march.stride] = u
    march_s = time.perf_counter() - start
    n_steps = march.times.size - 1
    return GridSolution(
        grid=grid, band=band, ic=ic, x=march.x, times=times, values=values,
        dt=march.dt, n_steps=n_steps, snapped_c=march.snapped_c,
        diagnostics={
            "march_s": march_s,
            "steps_per_s": n_steps / march_s,
            "cfl": march.dt * band.sigma_hi * band.sigma_hi / (grid.dx * grid.dx),
        },
    )


def _d2_sign_change_root(x, d2, pos_from, ref_c, noise_floor):
    """Positive-half root of d2 = 0, located by bracketing sign change and
    linear interpolation.  Returns (root, degenerate, multiple)."""
    xs = x[1:-1][pos_from:]
    s = d2[pos_from:]
    if xs.size < 2:
        return ref_c, True, False
    left = s[:-1]
    right = s[1:]
    flip = (left > 0.0) & (right < 0.0) | (left < 0.0) & (right > 0.0)
    flip &= np.maximum(np.abs(left), np.abs(right)) > noise_floor
    idx = np.nonzero(flip)[0]
    if idx.size == 0:
        return ref_c, True, False
    # right - left can overflow near the float range (s_hi ~ 1e-155): keep the node.
    with np.errstate(over="ignore"):
        roots = xs[idx] - left[idx] * (xs[idx + 1] - xs[idx]) / (right[idx] - left[idx])
    pick = int(np.argmin(np.abs(roots - ref_c)))
    return float(roots[pick]), False, idx.size > 1


def p2_numeric(c: float, band: VolatilityBand, grid: GridSpec | None = None) -> float:
    """Two-sided tail capacity w(t_end, 0) solved from 1{|x| > c} data.

    The grid must cover [-(c + 8 s_hi), c + 8 s_hi]; the default puts the
    boundary at +-(c + 10 s_hi).
    """
    if not c >= 0.0:
        raise DomainError(f"p2_numeric requires c >= 0, got {c!r}")
    if grid is None:
        grid = default_two_sided_grid(c, band)
    reach = c + 8.0 * band.sigma_hi
    if grid.x_min > -reach or grid.x_max < reach:
        raise ConfigurationError(
            f"grid [{grid.x_min!r}, {grid.x_max!r}] does not cover +-{reach!r}"
        )
    sol = solve(indicator_abs_above(c), band, grid, max_levels=2)
    return sol.value_at_final(0.0)


def two_sided_threshold(
    band: VolatilityBand,
    alpha: float,
    levels: int,
    *,
    nx: int = 1201,
) -> list[ThresholdLevel]:
    """Sign-change locus of w_xx for initial data 1{|x| > c} with
    c = s_hi * Phi^-1(1 - alpha/2), sampled at ``levels`` uniformly spaced
    times over (0, 1].

    The march runs on ``default_two_sided_grid(c, band, nx=nx)``; row j
    reports the step nearest j/levels (the earlier step on a tie), and the
    root is found only at those steps, so rows that share a step repeat it.
    ``time_remaining`` is that step's PDE time: the policy that consumes
    this table evaluates it at 1 - (i-1)/n.  Where no sign change is found
    the row reports the solver's snapped threshold (the cell midpoint
    nearest c) with the degenerate flag set.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if levels < 1:
        raise DomainError("levels must be >= 1")
    c = tail_threshold(alpha, band, "two")
    grid = default_two_sided_grid(c, band, nx=nx)
    march = _march(indicator_abs_above(c), band, grid, max_levels=2)
    picks = [
        int(np.argmin(np.abs(march.times - j * grid.t_end / levels)))
        for j in range(1, levels + 1)
    ]
    wanted = set(picks)
    pos_from = int(np.searchsorted(march.x[1:-1], 0.0))
    with np.errstate(over="raise", invalid="raise"):
        # The floor is evaluated after the march's set-up, which traps an
        # overflowing 1/dx^2 as NumericalError before it can reach here.
        roots = {
            k: _d2_sign_change_root(
                march.x, d2, pos_from, march.snapped_c,
                _D2_NOISE_MULT * np.finfo(float).eps * (1.0 / (grid.dx * grid.dx)),
            )
            for k, _, d2 in march.states
            if k in wanted
        }
    return [ThresholdLevel(float(march.times[k]), *roots[k]) for k in picks]


def verify_sandwich(
    c: float, band: VolatilityBand, grid: GridSpec | None = None
) -> SandwichReport:
    """Check the scheme's own sandwich 0 <= u_h + v_h - w_h <= bound(t) at
    every retained node with t > 0 of one grid symmetric about 0.

    The explicit scheme is monotone and keeps constants, and G is
    sublinear, so the discrete triple satisfies the sandwich up to rounding
    (the discrete comparison principle); the tolerance is _SANDWICH_TOL.
    Violations beyond it are reported, not raised.
    """
    if grid is None:
        grid = default_two_sided_grid(c, band, nx=1601)
    _require_positive_time_regime(c, grid.t_end, band)
    # The bound is evaluated at the grid's snapped threshold, so the regime
    # must hold there too; check it before either solve.
    snapped_c = _snap_to_cell_midpoint(c, grid.x_min, grid.dx)
    try:
        _require_positive_time_regime(snapped_c, grid.t_end, band)
    except DomainError as exc:
        raise DomainError(f"{exc}, the grid's snap of the requested c = {c!r}") from None
    if grid.x_min != -grid.x_max:
        raise ConfigurationError(
            f"verify_sandwich mirrors u_h, so the grid must be symmetric about 0, "
            f"got [{grid.x_min!r}, {grid.x_max!r}]"
        )

    one_sided = solve(IndicatorAbove(c), band, grid)
    bound = np.array(
        [two_sided_error_bound(snapped_c, t, band) for t in one_sided.times[1:].tolist()]
    )
    u = one_sided.values[1:]
    gap = u + u[:, ::-1]
    # Drop u_h before solving w_h, so that at most two (levels, nx) arrays
    # are alive at once.
    del one_sided, u
    gap -= solve(IndicatorAbsAbove(c), band, grid).values[1:]
    return SandwichReport(
        c=c,
        snapped_c=snapped_c,
        band=band,
        eps_grid=_SANDWICH_TOL,
        lower_bound_violation=float(np.max(-gap)),
        upper_bound_slack=float(np.min(bound[:, None] - gap)),
        nodes_checked=gap.size,
    )
