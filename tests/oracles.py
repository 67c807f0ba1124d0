"""Independent oracles used to derive frozen test values and to pin
rewritten hot paths.

The high-precision oracles go through mpmath at 40 significant digits and
never touch the package's own code paths: normal quantities via erf/erfc,
Student-t via the regularized incomplete beta, and the capacity profile via
adaptive quadrature of its defining integral.

``relative_error_bound_closed_form`` is the paper's printed relative
error bound, the reference the package's sharp bound is compared with.

The bitwise references at the end keep the first, allocating spelling of
the explicit PDE step and of the profile's erfc map; the package's
buffered forms must reproduce them byte for byte.  ``reference_solve``
always marches the whole grid, so it also pins the solver's half march of
mirror-symmetric data.  ``unfolded_march`` keeps the step that scaled by
1/dx^2 and by dt separately; the folded step must stay within a few eps of
it.  ``exact_values`` is the closed-form reference the PDE tests compare
solutions with.

The scalar references last: ``scalar_sigma`` evaluates a policy at width 1
for step-by-step re-simulation, ``t_statistic`` is the textbook Student
statistic, and ``pde_policy_equiv_check`` checks the one-sided rule against
the curvature sign of the closed-form solution, which ``profile_f_yy``
gives.
"""

import math

import mpmath as mp
import numpy as np

from gnormal.capacity import VolatilityBand, _require_closed_form, tail_threshold
from gnormal.errors import DomainError
from gnormal.gheat import _closed_form, _sample_ic
from gnormal.special import _INV_SQRT_2PI

mp.mp.dps = 40


def phi(x):
    return mp.exp(-mp.mpf(x) ** 2 / 2) / mp.sqrt(2 * mp.pi)


def Phi(x):
    return mp.erfc(-mp.mpf(x) / mp.sqrt(2)) / 2


def Phi_inv(p):
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def t_cdf(x, df):
    x = mp.mpf(x)
    df = mp.mpf(df)
    if x == 0:
        return mp.mpf("0.5")
    z = df / (df + x * x)
    tail = mp.betainc(df / 2, mp.mpf("0.5"), 0, z, regularized=True) / 2
    return 1 - tail if x > 0 else tail


def t_quantile(p, df):
    return mp.findroot(lambda t: t_cdf(t, df) - mp.mpf(p), 1.0)


def profile_f_quad(y, sigma_lo, sigma_hi):
    """The profile by adaptive quadrature of its two-piece integrand."""
    lo = mp.mpf(sigma_lo)
    hi = mp.mpf(sigma_hi)
    y = mp.mpf(y)

    def integrand(z):
        return phi(z / hi) if z >= 0 else phi(z / lo)

    # Split at 0 and truncate where both Gaussian pieces are < 1e-50.
    cut = 16 * hi
    a = -y
    pieces = []
    if a < 0:
        pieces.append((max(a, -16 * lo), mp.mpf(0)))
        pieces.append((mp.mpf(0), cut))
    else:
        pieces.append((a, max(cut, a + 1)))
    total = mp.mpf(0)
    for lo_z, hi_z in pieces:
        if hi_z > lo_z:
            total += mp.quad(integrand, [lo_z, hi_z])
    return 2 / (hi + lo) * total


def p1_quad(c, sigma_lo, sigma_hi):
    """One-sided capacity by quadrature of its defining integral."""
    return profile_f_quad(-mp.mpf(c), sigma_lo, sigma_hi)


def relative_error_bound_closed_form(c, t, band):
    """The paper's Gaussian-free bound on the relative error, for
    c > sigma_hi/2 and t > 0:

        (s_hi^2 - s_lo^2)(c^2/s_hi^2 + t)/(4 c^2) * exp(-3 c^2/(2 s_hi^2 t)).

    At t = 1 this dominates the asymptotic form
    (1 - s_lo^2/s_hi^2)/4 * exp(-3 c^2/(2 s_hi^2)).
    """
    lo, hi = band.sigma_lo, band.sigma_hi
    return (
        (hi * hi - lo * lo)
        * (c * c / (hi * hi) + t)
        / (4.0 * c * c)
        * math.exp(-1.5 * c * c / (hi * hi * t))
    )


def reference_march(u0, boundary, dt, dx, sigma_lo, sigma_hi):
    """The explicit monotone step, one allocating expression per line.

    Yields (k, u, D) for k = 0..len(boundary) like ``gheat._march``'s
    states, with fresh arrays, D being the undivided second difference;
    ``boundary[k]`` holds the (left, right) end values set after step k + 1.
    """
    mesh_ratio = dt / (dx * dx)
    a_hi = mesh_ratio * (0.5 * sigma_hi * sigma_hi)
    a_lo = mesh_ratio * (0.5 * sigma_lo * sigma_lo)
    u = np.array(u0, dtype=float)
    for k, (left, right) in enumerate(boundary):
        d = (u[:-2] + u[2:]) - 2.0 * u[1:-1]
        yield k, u.copy(), d
        u[1:-1] += a_hi * np.maximum(d, 0.0) + a_lo * np.minimum(d, 0.0)
        u[0], u[-1] = left, right
    yield len(boundary), u.copy(), (u[:-2] + u[2:]) - 2.0 * u[1:-1]


def unfolded_march(u0, boundary, dt, dx, sigma_lo, sigma_hi):
    """``reference_march`` with the step that divided the second difference
    by dx^2 and scaled G by dt as two more passes: the same scheme rounded
    differently.  Yields (k, u, d2) with d2 = D/dx^2."""
    half_hi = 0.5 * sigma_hi * sigma_hi
    half_lo = 0.5 * sigma_lo * sigma_lo
    inv_dx2 = 1.0 / (dx * dx)
    u = np.array(u0, dtype=float)
    for k, (left, right) in enumerate(boundary):
        d2 = ((u[:-2] + u[2:]) - 2.0 * u[1:-1]) * inv_dx2
        yield k, u.copy(), d2
        g = half_hi * np.maximum(d2, 0.0) + half_lo * np.minimum(d2, 0.0)
        u[1:-1] += dt * g
        u[0], u[-1] = left, right
    yield len(boundary), u.copy(), ((u[:-2] + u[2:]) - 2.0 * u[1:-1]) * inv_dx2


def reference_solve(ic, band, grid, dt, n_steps, march=reference_march):
    """``march`` (by default ``reference_march``) over the whole grid, from
    the datum sampled on every node, with both ends set by the boundary
    rule: the closed form for indicator data when sigma_lo > 0, the initial
    end values otherwise."""
    x = np.linspace(grid.x_min, grid.x_max, grid.nx)
    u0, c = _sample_ic(ic, x, grid.dx)
    if c is not None and band.sigma_lo > 0.0:
        t_next = np.arange(1, n_steps + 1)[:, None] * dt
        ends = _closed_form(ic, c, x[[0, -1]], t_next, band)
    else:
        ends = np.broadcast_to(u0[[0, -1]], (n_steps, 2))
    return march(u0, ends.tolist(), dt, grid.dx, band.sigma_lo, band.sigma_hi)


_erfc_object = np.frompyfunc(math.erfc, 1, 1)


def profile_f_object_erfc(y, sigma_lo, sigma_hi):
    """``capacity.profile_f`` with its erfc map through an object array."""
    s = sigma_hi + sigma_lo
    ys = np.asarray(y, dtype=float)
    left = ys <= 0.0
    with np.errstate(over="ignore"):
        z = np.where(left, ys / sigma_hi, -ys / sigma_lo)
    cdf = 0.5 * np.asarray(_erfc_object(-z / math.sqrt(2.0)), dtype=float)
    out = np.where(left, 2.0 * sigma_hi / s * cdf, 1.0 - 2.0 * sigma_lo / s * cdf)
    return float(out) if out.ndim == 0 else out


def exact_values(sol, t):
    """Closed-form solution on the solution's grid at time t, using the
    solver's snapped threshold: u for 1{x > c} data, u + v for 1{|x| > c}.
    At t = 0 this is the sampled indicator."""
    if sol.snapped_c is None:
        raise DomainError("exact values are defined for indicator data only")
    if t == 0.0:
        return sol.values[0].copy()
    return _closed_form(sol.ic, sol.snapped_c, sol.x, t, sol.band)


def scalar_sigma(spec, i, s, ss=0.0):
    """Volatility for step i from the float sum ``s`` and sum of squares
    ``ss`` of the first i-1 observations: the engine's kernel at width 1."""
    return float(np.reshape(spec.sigma(i, np.array([s]), np.array([ss])), -1)[0])


def t_statistic(xs):
    """Student statistic sqrt(n) * mean / s with the n-1 variance divisor."""
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if n < 2:
        raise DomainError(f"t statistic needs >= 2 observations, got {n}")
    mean = float(xs.mean())
    s2 = float(((xs - mean) ** 2).sum()) / (n - 1)
    if s2 <= 0.0:
        raise ZeroDivisionError("zero sample variance")
    return math.sqrt(n) * mean / math.sqrt(s2)


def profile_f_yy(y, band: VolatilityBand):
    """Second derivative of the profile; sign(f_yy(y)) = sign(-y).

    |f_yy| over y < 0 is maximized at y = -sigma_hi.  ``y`` is a float
    (giving a float) or an array.
    """
    _require_closed_form(band)
    lo, hi = band.sigma_lo, band.sigma_hi
    ys = np.asarray(y, dtype=float)
    sig = np.where(ys <= 0.0, hi, lo)
    # z * z overflows to inf for large |z|; exp(-inf) = 0 is the exact limit.
    with np.errstate(over="ignore"):
        z = ys / sig
        density = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    # Where the density is 0 the value is a zero signed like -y; a unit
    # stand-in for y keeps -2y finite there (inf * 0 would give NaN).
    ys = np.where(density == 0.0, np.sign(ys), ys)
    out = -2.0 * ys / (hi + lo) * density / (sig * sig)
    return float(out) if out.ndim == 0 else out


def pde_policy_equiv_check(band, alpha, n, *, s_points=2001):
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
