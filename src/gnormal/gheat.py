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
  made once per march: D = (u[j-1] + u[j+1]) - 2 u[j], the undivided
  second difference; g = max(a_hi D, a_lo D) with the coefficients
  a = (dt/dx^2) s^2/2 computed once per march; u[j] += g on the interior;
  then the values of the ends that move (see below).  This D order makes
  every step bitwise mirror-symmetric for symmetric data on a symmetric
  grid.  2 u[j] is u[j] + u[j], the same float as 2 * u[j] for every
  input (subnormals and -0.0 too) with the same overflow flag; a_hi and
  a_lo are 0-d float64 arrays holding the Python floats' values, since
  numpy 2 (NEP 50) converts a Python float operand in every call.  As
  a_hi >= a_lo >= 0, g equals a_hi max(D, 0) + a_lo min(D, 0) up to the
  sign of a zero, and that sign changes u[j] + g only where u[j] is -0.0.
  No node ever holds -0.0: indicator data and the closed-form ends are
  +0.0 or positive, a table's -0.0 is sampled as +0.0, and a float sum is
  -0.0 only if both terms are.
* 1{|x| > c} on a grid with x_min = -x_max marches the right half only,
  behind a ghost node nx//2 - 1 that copies its mirror after the step's
  right boundary value.  Datum and ends are mirror images, so by the
  symmetry above every kept node holds the full march's bits.  The ghost
  reads no boundary value, so such a march evaluates only the right end.
* An end is evaluated only if its closed form can leave the datum.  Each
  piece f(y) of the closed form at an end tends, as t -> 0, to the datum's
  share of it (1 for y > 0, 0 for y < 0) and moves away from that limit as
  t grows, so its distance from it is largest at the last time an end is
  set, n_steps dt.  Where the datum is 1 and those distances sum there to
  at most 2^-56, the sum 1 - a + b with a, b >= 0 rounds to exactly 1.0 at
  every step: 1 - a is 1.0 for a <= 2^-54 and 1.0 + b is 1.0 for
  b <= 2^-53, and the factor of 4 and more covers the few ulps of erfc and
  of the check's own rounding.  Such an end keeps its datum unevaluated.
  Of the evaluated ends, only those whose value differs (exact !=) from the
  datum at some step keep their list of values and are written each step;
  the others already hold the value every step would write.
* A step updates only a window of interior nodes.  The one set at state
  s = jK, K = _SCAN_STEPS, is the hull of the nonzero D of state s - 1
  (read off the whole D buffer, +0.0 outside the window) and of each end
  whose value differs (exact !=) from the datum's at any step, widened by
  K (D's support grows by at most a node a step).  D = +0.0 gives
  g = +0.0 and u + g = u (no node holds -0.0).  Outside the window no
  stencil node has changed since D there was +0.0, so D is +0.0 again:
  the bits, the NumericalError step and the D buffer are the full
  march's.  The ghost needs no rule: its neighbour reads its mirror.
* Overflow surfaces once, as NumericalError naming the step whose
  arithmetic failed.  Every datum starts finite, and finite arithmetic
  turns non-finite only by an overflow or invalid operation, so ``solve``
  and ``two_sided_threshold`` run the whole march under one
  np.errstate(over="raise", invalid="raise") (not per step, about 2 us
  each, nor across the generator's yields) and no per-step check runs.
  The final state is checked at every node, for callers without it.
* The march runs straight to the steps its consumer reads and computes D
  of each just before handing it over; a flag in D of state k < n_steps
  names step k + 1, the step that reads that D, and one in D of the final
  state names n_steps, as when every step was handed over.
* Time levels are retained on a uniform subsample (every ``stride`` steps,
  endpoints included); the step count is rounded up so retained times land
  on exact multiples of t_end/(levels-1) at every spatial resolution,
  which lets refinement studies compare matching levels.
* The threshold table reads the same march, locating the sign change of D
  only at the step nearest each reported time.  D of data in [0, 1] lies
  in [-2, 2], so the root interpolation cannot overflow, and the noise
  floor is a fixed multiple of eps.

Within one solve, the update is a data-parallel map over space with one
synchronization per step; results are independent of how the space loop is
partitioned.  Distinct solves share no mutable state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .capacity import (
    VolatilityBand,
    _require_positive_time_regime,
    profile_f,
    tail_threshold,
    two_sided_error_bound,
)
from .errors import ConfigurationError, DomainError, NumericalError
from .special import norm_cdf

__all__ = [
    "IndicatorAbove",
    "IndicatorAbsAbove",
    "LipschitzTable",
    "indicator_abs_above",
    "GridSpec",
    "GridSolution",
    "ThresholdLevel",
    "SandwichReport",
    "default_two_sided_grid",
    "solve",
    "two_sided_threshold",
    "verify_sandwich",
]

# Sign changes of the undivided second difference D are ignored where both
# endpoint magnitudes sit below this multiple of eps (cancellation noise of
# data in [0, 1] in flat regions has exactly that scale).
_D2_NOISE_MULT = 64.0

_DEFAULT_MAX_LEVELS = 201

# The largest grid, longest march and most kept values (levels x nx) accepted:
# 40, 80 and 25 times the most the commands build (2401 nodes, 12,584 steps,
# 201 x 2001 values); a march keeps ~200 bytes per step, a solve 8 per value.
MAX_NX = 100_000
MAX_STEPS = 1_000_000
MAX_VALUES = 10_000_000

# Steps between two settings of the march's active window (K in the module
# notes).  Rescans cost a scan of D; wider cones cost more nodes per step.
_SCAN_STEPS = 32

# An end whose datum is 1 keeps it, unevaluated, when its closed form's pieces
# lie at most this far from their t -> 0 limits in all; see the module notes.
_END_GAP = 2.0**-56

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
    """Initial datum sampled at strictly increasing abscissae.  Any
    sequences (arrays too) are stored as tuples of floats."""

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != len(self.y) or len(self.x) < 2:
            raise DomainError("lipschitz table needs >= 2 matched (x, y) pairs")
        if not all(map(math.isfinite, (*self.x, *self.y))):
            raise DomainError("lipschitz table values must be finite")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise DomainError("lipschitz table abscissae must be strictly increasing")


InitialCondition = IndicatorAbove | IndicatorAbsAbove | LipschitzTable


def indicator_abs_above(c: float) -> IndicatorAbsAbove:
    """``IndicatorAbsAbove(c)``.  Kept only because the benchmark's
    ``pde_oracle`` workload (``bench/workloads.py``) builds its data
    through it; new code calls the constructor."""
    return IndicatorAbsAbove(c)


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
        if not 3 <= self.nx <= MAX_NX:
            raise ConfigurationError(f"grid requires 3 <= nx <= {MAX_NX}, got {self.nx!r}")
        if not 0.0 < self.t_end < math.inf:
            raise ConfigurationError(f"grid requires a finite t_end > 0, got {self.t_end!r}")
        if not 0.0 < self.safety <= 1.0:
            raise ConfigurationError(
                f"CFL safety fraction must lie in (0, 1], got {self.safety!r}"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)


@dataclass(frozen=True, slots=True)
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
    included), ``setup_s``, the seconds before the first step (grid, datum
    and end values), ``steps_per_s``, ``cfl``, the CFL fraction actually used,
    dt s_hi^2 / dx^2 (at most ``safety``, up to one rounding of dt),
    ``nodes_per_step``, the interior nodes (fewer in a half march), and
    ``active_nodes_per_step``, the mean over steps of those updated; it is
    volatile, so it takes no part in equality, ``write_csv`` or checksums.
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
    Both range over every retained node with t > 0, which
    ``nodes_checked`` counts (levels x nx), though they are read off the
    mirror half of the grid (see ``verify_sandwich``).  Both are compared
    against ``eps_grid``, which holds the fixed rounding tolerance 64 eps,
    not a grid-dependent estimate.
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
        # + 0.0 samples a -0.0 as +0.0; see the module notes.
        return np.interp(x, np.asarray(ic.x), np.asarray(ic.y)) + 0.0, None

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


def _limit_gap(ic, c, x, t, band):
    """How far the pieces of ``_closed_form`` at the node x lie from their
    t -> 0 limits at time t > 0, summed: 2 s_lo/(s_hi+s_lo) Phi(-y/s_lo)
    for a piece f(y) with y > 0, 2 s_hi/(s_hi+s_lo) Phi(y/s_hi) for y <= 0.
    Each term grows with t."""
    lo, hi = band.sigma_lo, band.sigma_hi

    def gap(y):
        return 2.0 * (lo * norm_cdf(-y / lo) if y > 0.0 else hi * norm_cdf(y / hi)) / (hi + lo)

    rt = math.sqrt(t)
    out = gap((x - c) / rt)
    if isinstance(ic, IndicatorAbsAbove):
        out += gap((-x - c) / rt)
    return out


@dataclass(frozen=True)
class _March:
    """One explicit march to t_end.  ``times[k]`` is the time of step k
    (k * dt, and exactly t_end at k = n_steps); ``states(report)`` marches
    to each step k of the sorted indices ``report`` in turn and yields
    (k, u, D), where u is the state at times[k] and D its undivided second
    difference (u[j-1] + u[j+1]) - 2 u[j] on the interior, computed just
    before the yield.  Both are buffers allocated once per march: u is
    advanced in place after the yield and D is overwritten by the next
    step, so a consumer that keeps either must copy it.  Retained levels
    are the steps divisible by ``stride``.  In a half march ``x``, u and D
    cover only the ghost node and the right half.  ``updates[0]`` counts
    the node updates of the windows the latest ``states`` call has set."""

    x: np.ndarray
    snapped_c: float | None
    dt: float
    times: np.ndarray
    stride: int
    states: Callable[[Iterable[int]], Iterator[tuple[int, np.ndarray, np.ndarray]]]
    updates: list[int]


def _march(
    ic: InitialCondition, band: VolatilityBand, grid: GridSpec, max_levels: int
) -> _March:
    if max_levels < 2:
        raise ConfigurationError("max_levels must be >= 2")
    dx = grid.dx
    dt_max = grid.safety * dx * dx / (band.sigma_hi * band.sigma_hi)
    steps = grid.t_end / dt_max if dt_max > 0.0 else math.inf
    if steps > MAX_STEPS:
        raise ConfigurationError(f"t_end = {grid.t_end!r} on nx = {grid.nx} needs "
                                 f"{steps:.4g} steps, more than {MAX_STEPS}")
    raw_steps = max(1, math.ceil(steps))
    levels = min(max_levels, raw_steps + 1)
    if levels * grid.nx > MAX_VALUES:
        raise ConfigurationError(f"{levels} levels of nx = {grid.nx} are "
                                 f"{levels * grid.nx} values, more than {MAX_VALUES}")
    x = np.linspace(grid.x_min, grid.x_max, grid.nx)
    u0, snapped_c = _sample_ic(ic, x, dx)

    # Round the step count up so retained levels sit at j*t_end/(levels-1).
    segments = max(levels - 1, 1)
    n_steps = ((raw_steps + segments - 1) // segments) * segments
    if grid.t_end / n_steps > dt_max:  # the division can round above dt_max
        n_steps += segments
    stride = n_steps // segments
    dt = grid.t_end / n_steps
    times = np.arange(n_steps + 1) * dt
    times[-1] = grid.t_end

    mirror = 0  # u[mirror] is the ghost's mirror in a half march; see the module notes
    if isinstance(ic, IndicatorAbsAbove) and grid.x_min == -grid.x_max:
        x, u0, mirror = x[grid.nx // 2 - 1 :], u0[grid.nx // 2 - 1 :], 1 + grid.nx % 2
    # The values of steps 1 .. n_steps, as Python floats for cheap indexing in
    # the step loop, of each end that moves off its datum; see the module notes.
    bc_left = bc_right = None
    if snapped_c is not None and band.sigma_lo > 0.0:
        t_last = n_steps * dt  # the latest time an end is set for
        ends = [
            e for e in ([-1] if mirror else [0, -1])
            if not (u0[e] == 1.0
                    and _limit_gap(ic, snapped_c, float(x[e]), t_last, band) <= _END_GAP)
        ]
        if ends:
            t_next = np.arange(1, n_steps + 1)[:, None] * dt
            boundary = _closed_form(ic, snapped_c, x[ends], t_next, band)
            moved = {e: col.tolist() for e, col in zip(ends, boundary.T) if (col != u0[e]).any()}
            bc_left, bc_right = moved.get(0), moved.get(-1)
    # The interior index just past each end that moves.
    n, K = x.size - 2, _SCAN_STEPS
    movers = [p for p, bc in ((-1, bc_left), (n, bc_right)) if bc]
    updates = [0]

    def states(report):
        k = 0  # a trapped flag in set-up counts as step 1; see the module notes
        try:
            mesh_ratio = dt / (dx * dx)
            # 0-d operands made once: a Python float is made into an array
            # by every ufunc call that takes it.
            a_hi = np.array(mesh_ratio * (0.5 * band.sigma_hi * band.sigma_hi))
            a_lo = np.array(mesh_ratio * (0.5 * band.sigma_lo * band.sigma_lo))
            u = u0.copy()
            d2, g, work = np.empty((3, n))
            nonzero = np.empty(n, dtype=bool)
            add, subtract, multiply, maximum = np.add, np.subtract, np.multiply, np.maximum
            # Views of the window [lo, hi) of interior nodes; state `scan` sets the next.
            lo, hi, scan = 0, n, K
            west, mid, east, d, gw, w = u[:-2], u[1:-1], u[2:], d2, g, work
            updates[0] = n * min(K, n_steps)

            for r in report:
                while True:
                    if k == scan:
                        # The moving ends and the nonzero D of state k - 1, which
                        # d2 still holds, widened by K: the cone of states k .. k + K - 1.
                        hull = movers.copy()
                        nz = np.not_equal(d2, 0.0, out=nonzero)
                        if nz.any():
                            hull += [int(nz.argmax()), n - 1 - int(nz[::-1].argmax())]
                        if hull:
                            lo, hi = max(min(hull) - K, 0), min(max(hull) + K + 1, n)
                        else:
                            lo = hi = 0
                        scan += K
                        updates[0] += (hi - lo) * (min(scan, n_steps) - k)
                        west, mid, east = u[lo:hi], u[lo + 1 : hi + 1], u[lo + 2 : hi + 2]
                        d, gw, w = d2[lo:hi], g[lo:hi], work[lo:hi]
                    if k >= r:
                        break
                    # Steps k .. up to the next scan or report: each takes state k to k + 1.
                    # The output goes positionally (a keyword costs ~30 ns a call),
                    # except to maximum, which deprecates a third positional argument.
                    for k in range(k, min(scan, r)):
                        # (u[j-1] + u[j+1]) - 2 u[j] in mirror-stable order, 2 u[j] as u[j] + u[j].
                        add(west, east, d)
                        add(mid, mid, w)
                        subtract(d, w, d)
                        # dt G(D/dx^2) = max(a_hi D, a_lo D); see the module notes.
                        multiply(d, a_hi, gw)
                        multiply(d, a_lo, w)
                        maximum(gw, w, out=gw)
                        add(mid, gw, mid)
                        # The ghost goes last: at nx = 3 its mirror is the right end.
                        if bc_right:
                            u[-1] = bc_right[k]
                        if mirror:
                            u[0] = u[mirror]
                        elif bc_left:
                            u[0] = bc_left[k]
                    k += 1
                # D of state r.
                add(west, east, d)
                add(mid, mid, w)
                subtract(d, w, d)
                # Backstop for a consumer that runs the march without that errstate.
                if r == n_steps and not np.isfinite(u).all():
                    raise NumericalError(f"non-finite values detected at step {n_steps}")
                yield r, u, d2
        except FloatingPointError:
            # A flag in D of state k counts as step k + 1, or n_steps at the end.
            step = min(k + 1, n_steps)
            raise NumericalError(f"non-finite values detected at step {step}") from None

    return _March(x, snapped_c, dt, times, stride, states, updates)


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
    setup_s = time.perf_counter() - start
    times = march.times[:: march.stride]
    values = np.empty((times.size, grid.nx))
    # A half march leaves the nodes left of its ghost to their mirrors.
    mirrored = grid.nx - march.x.size
    n_steps = march.times.size - 1
    with np.errstate(over="raise", invalid="raise"):
        for k, u, _ in march.states(range(0, n_steps + 1, march.stride)):
            row = values[k // march.stride]
            row[mirrored:] = u
            row[:mirrored] = u[::-1][:mirrored]
    march_s = time.perf_counter() - start
    return GridSolution(
        grid=grid, band=band, ic=ic, x=np.linspace(grid.x_min, grid.x_max, grid.nx),
        times=times, values=values, dt=march.dt, n_steps=n_steps,
        snapped_c=march.snapped_c,
        diagnostics={
            "march_s": march_s,
            "setup_s": setup_s,
            "steps_per_s": n_steps / march_s,
            "cfl": march.dt * band.sigma_hi * band.sigma_hi / (grid.dx * grid.dx),
            "nodes_per_step": march.x.size - 2,
            "active_nodes_per_step": march.updates[0] / n_steps,
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
    roots = xs[idx] - left[idx] * (xs[idx + 1] - xs[idx]) / (right[idx] - left[idx])
    pick = int(np.argmin(np.abs(roots - ref_c)))
    return float(roots[pick]), False, idx.size > 1


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
    c = tail_threshold(alpha, band, "two")
    if not 1 <= levels <= MAX_STEPS:
        raise DomainError(f"levels must lie in [1, {MAX_STEPS}], got {levels!r}")
    grid = default_two_sided_grid(c, band, nx=nx)
    march = _march(IndicatorAbsAbove(c), band, grid, max_levels=2)
    # Row j's time j t_end / levels lies between the steps before and at the
    # first step not earlier than it; the nearer one wins, the earlier on a tie.
    times = march.times
    wanted = np.arange(1, levels + 1) * grid.t_end / levels
    after = np.minimum(np.searchsorted(times, wanted), times.size - 1)
    before = np.maximum(after - 1, 0)
    nearer = np.abs(times[before] - wanted) <= np.abs(times[after] - wanted)
    picks = np.where(nearer, before, after).tolist()
    pos_from = int(np.searchsorted(march.x[1:-1], 0.0))
    noise_floor = _D2_NOISE_MULT * np.finfo(float).eps
    with np.errstate(over="raise", invalid="raise"):
        roots = {
            k: _d2_sign_change_root(march.x, d2, pos_from, march.snapped_c, noise_floor)
            for k, _, d2 in march.states(sorted(set(picks)))
        }
    return [ThresholdLevel(float(times[k]), *roots[k]) for k in picks]


def verify_sandwich(c: float, band: VolatilityBand) -> SandwichReport:
    """Check the scheme's own sandwich 0 <= u_h + v_h - w_h <= bound(t) at
    every retained node with t > 0 of ``default_two_sided_grid(c, band,
    nx=1601)``, the bound taken at the snapped c.

    The grid is symmetric about 0, as mirroring u_h needs.  Every c above
    s_hi/2 snaps to a point above s_hi/2 on it, so the bound's regime holds
    at the snapped c wherever it holds at c.  The explicit scheme is
    monotone and keeps constants, and G is sublinear, so the discrete
    triple satisfies the sandwich up to rounding (the discrete comparison
    principle); the tolerance is _SANDWICH_TOL.  Violations beyond it are
    reported, not raised.

    The gap u_h + v_h - w_h is formed only on the (nx + 1) // 2 columns
    that hold the centre.  Each row of w_h is its own mirror image bit for
    bit (``solve`` fills its left half by reversal) and float addition
    commutes, so the gap is mirror symmetric and its extrema there are the
    whole grid's.  u_h is dropped before w_h is solved, so the call holds
    one solution and half a gap at a time.
    """
    grid = default_two_sided_grid(c, band, nx=1601)
    _require_positive_time_regime(c, grid.t_end, band)
    one_sided = solve(IndicatorAbove(c), band, grid)
    snapped_c = one_sided.snapped_c
    bound = np.array(
        [two_sided_error_bound(snapped_c, t, band) for t in one_sided.times[1:].tolist()]
    )
    half = (grid.nx + 1) // 2  # the columns up to and including the centre
    u = one_sided.values[1:]
    gap = u[:, :half] + u[:, ::-1][:, :half]
    del one_sided, u
    gap -= solve(IndicatorAbsAbove(c), band, grid).values[1:, :half]
    # -min(gap) is max(-gap) bit for bit; then gap turns into bound - gap.
    lower_bound_violation = -float(gap.min())
    upper_bound_slack = float(np.subtract(bound[:, None], gap, out=gap).min())
    return SandwichReport(
        c=c,
        snapped_c=snapped_c,
        band=band,
        eps_grid=_SANDWICH_TOL,
        lower_bound_violation=lower_bound_violation,
        upper_bound_slack=upper_bound_slack,
        nodes_checked=bound.size * grid.nx,
    )
