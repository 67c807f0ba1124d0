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
  then the two boundary values.  This D order makes every step bitwise
  mirror-symmetric for symmetric data on a symmetric grid.  2 u[j] is
  u[j] + u[j], the same float as 2 * u[j] for every input (subnormals
  and -0.0 too) with the same overflow flag; a_hi and a_lo are 0-d
  float64 arrays holding the Python floats' values, since numpy 2
  (NEP 50) converts a Python float operand in every call.  As
  a_hi >= a_lo >= 0, g equals a_hi max(D, 0) + a_lo min(D, 0) up to the
  sign of a zero, and that sign changes u[j] + g only where u[j] is -0.0.
  No node ever holds -0.0: indicator data and the closed-form ends are
  +0.0 or positive, a table's -0.0 is sampled as +0.0, and a float sum is
  -0.0 only if both terms are.
* 1{|x| > c} on a grid with x_min = -x_max marches the right half only,
  behind a ghost node nx//2 - 1 that copies its mirror after the step's
  right boundary value.  Datum and ends are mirror images, so by the
  symmetry above every kept node holds the full march's bits.
* A step updates only a window of interior nodes.  The one set at state
  s = jK, K = _SCAN_STEPS, is the hull of the nonzero D of state s - 1
  widened by K (D's support grows by at most a node a step), and to each
  end whose value moves (exact !=) in steps s - 1 .. s + K - 2.  D = +0.0
  gives g = +0.0 and u + g = u (no node holds -0.0).  Outside the window
  no stencil node has changed since D there was +0.0, so D is +0.0 again,
  with no flag: the bits, the NumericalError step and the D buffer are the
  full march's.  The ghost needs no rule: its neighbour reads its mirror.
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

# Steps between two settings of the march's active window (K in the module
# notes).  Rescans cost a scan of D; wider cones cost more nodes per step.
_SCAN_STEPS = 32

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
    included), ``steps_per_s``, ``cfl``, the CFL fraction actually used,
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

    mirror = 0  # u[mirror] is the ghost's mirror in a half march; see the module notes
    if isinstance(ic, IndicatorAbsAbove) and grid.x_min == -grid.x_max:
        x, u0, mirror = x[grid.nx // 2 - 1 :], u0[grid.nx // 2 - 1 :], 1 + grid.nx % 2
    ends = [-1] if mirror else [0, -1]
    # Boundary values of every step at once, as Python floats for cheap
    # indexing in the step loop; t_next = (k + 1) * dt.
    if snapped_c is not None and band.sigma_lo > 0.0:
        t_next = np.arange(1, n_steps + 1)[:, None] * dt
        boundary = _closed_form(ic, snapped_c, x[ends], t_next, band)
    else:
        boundary = np.broadcast_to(u0[ends], (n_steps, len(ends)))
    bc_left, bc_right = boundary.T[[0, -1]].tolist()
    # For the active window: the steps at which each end's value moves, and
    # the interior index just past each end; see the module notes.
    n, K = x.size - 2, _SCAN_STEPS
    moves = boundary != np.vstack((u0[ends], boundary[:-1]))
    beyond = [-1, n][-len(ends) :]
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
            add, subtract, multiply, maximum = np.add, np.subtract, np.multiply, np.maximum
            # Views of the window [lo, hi) of interior nodes; state `scan` sets the next.
            lo, hi, scan = 0, n, K
            west, mid, east, d, gw, w = u[:-2], u[1:-1], u[2:], d2, g, work
            updates[0] = n * min(K, n_steps)

            for r in report:
                # D of state k, then step k, which takes state k to k + 1.
                for k in range(k, r + 1):
                    if k == scan:
                        # The ends that move in steps k - 1 .. k + K - 2 and the
                        # nonzero D of state k - 1 (d still holds it), widened
                        # by K: the light cone of states k .. k + K - 1.
                        hull = [p for p, m in zip(beyond, moves[k - 1 : k - 1 + K].any(0)) if m]
                        nonzero = d != 0.0
                        if nonzero.any():
                            last = d.size - 1 - int(nonzero[::-1].argmax())
                            hull += [lo + int(nonzero.argmax()), lo + last]
                        if hull:
                            lo, hi = max(min(hull) - K, 0), min(max(hull) + K + 1, n)
                        else:
                            lo = hi = 0
                        scan += K
                        updates[0] += (hi - lo) * (min(scan, n_steps) - k)
                        west, mid, east = u[lo:hi], u[lo + 1 : hi + 1], u[lo + 2 : hi + 2]
                        d, gw, w = d2[lo:hi], g[lo:hi], work[lo:hi]
                    # (u[j-1] + u[j+1]) - 2 u[j] in mirror-stable order, 2 u[j] as u[j] + u[j].
                    add(west, east, out=d)
                    add(mid, mid, out=w)
                    subtract(d, w, out=d)
                    if k == r:
                        break
                    # dt G(D/dx^2) = max(a_hi D, a_lo D); see the module notes.
                    multiply(d, a_hi, out=gw)
                    multiply(d, a_lo, out=w)
                    maximum(gw, w, out=gw)
                    add(mid, gw, out=mid)
                    # The ghost goes last: at nx = 3 its mirror is the right end.
                    u[-1] = bc_right[k]
                    u[0] = u[mirror] if mirror else bc_left[k]
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
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if levels < 1:
        raise DomainError("levels must be >= 1")
    c = tail_threshold(alpha, band, "two")
    grid = default_two_sided_grid(c, band, nx=nx)
    march = _march(IndicatorAbsAbove(c), band, grid, max_levels=2)
    picks = [
        int(np.argmin(np.abs(march.times - j * grid.t_end / levels)))
        for j in range(1, levels + 1)
    ]
    pos_from = int(np.searchsorted(march.x[1:-1], 0.0))
    noise_floor = _D2_NOISE_MULT * np.finfo(float).eps
    with np.errstate(over="raise", invalid="raise"):
        roots = {
            k: _d2_sign_change_root(march.x, d2, pos_from, march.snapped_c, noise_floor)
            for k, _, d2 in march.states(sorted(set(picks)))
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
