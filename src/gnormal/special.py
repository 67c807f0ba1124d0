"""Standard normal and Student-t distribution functions.

Self-contained scalar implementations on top of the C math library:
the normal CDF goes through ``erfc``, the Student-t CDF through the
regularized incomplete beta function evaluated with a modified Lentz
continued fraction, and both quantiles use bracketed Newton iteration
(bisection fallback keeps every step inside a sign-changing interval).

Accuracy contracts, enforced by the test suite:

* ``norm_cdf``      absolute error <= 1e-14 on |x| <= 8
* ``norm_quantile`` round-trip |norm_cdf(q(p)) - p| <= 1e-12 on p in [1e-10, 1 - 1e-10]
* ``t_quantile``    round-trip |t_cdf(q(p, df), df) - p| <= 1e-10

All functions are pure and stateless.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "norm_pdf",
    "norm_cdf",
    "norm_quantile",
    "t_pdf",
    "t_cdf",
    "t_quantile",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Continued-fraction controls (Lentz). _CF_TINY guards against zero
# denominators; convergence stalls past ~400 terms only for parameter
# ranges far outside integer-df Student-t use.
_CF_EPS = 3.0e-16
_CF_TINY = 1.0e-300
_CF_MAX_ITER = 500


def norm_pdf(x: float) -> float:
    """Standard normal density (2*pi)**-0.5 * exp(-x*x/2)."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def norm_cdf(x: float) -> float:
    """Standard normal CDF; accepts +-inf and returns the limits 1/0."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_quantile(p: float) -> float:
    """Inverse standard normal CDF on 0 < p < 1.

    Bracketed Newton on ``norm_cdf``; the bracket [-40, 40] covers every
    probability representable as a positive double.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"norm_quantile requires 0 < p < 1, got {p!r}")
    return _invert_cdf(norm_cdf, norm_pdf, p, lo=-40.0, hi=40.0, x0=0.0)


def t_pdf(x: float, df: int) -> float:
    """Student-t density with ``df`` degrees of freedom."""
    _check_df(df)
    ln_norm = (
        math.lgamma(0.5 * (df + 1))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(ln_norm - 0.5 * (df + 1) * math.log1p(x * x / df))


def t_cdf(x: float, df: int) -> float:
    """Student-t CDF with ``df`` degrees of freedom; accepts +-inf.

    Uses P(T <= x) = 1 - I_z(df/2, 1/2)/2 for x >= 0 with
    z = df / (df + x**2), and symmetry for x < 0.
    """
    _check_df(df)
    if math.isnan(x):
        raise DomainError("t_cdf requires x finite or +-inf")
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    if x == 0.0:
        return 0.5
    # Both pieces computed directly: forming 1 - z for z near 1 would lose
    # the small-|x| digits that the complement carries exactly.
    z = df / (df + x * x)
    zc = x * x / (df + x * x)
    tail = 0.5 * _reg_inc_beta(0.5 * df, 0.5, z, zc)
    return 1.0 - tail if x > 0 else tail


def t_quantile(p: float, df: int) -> float:
    """Inverse Student-t CDF on 0 < p < 1."""
    _check_df(df)
    if not 0.0 < p < 1.0:
        raise DomainError(f"t_quantile requires 0 < p < 1, got {p!r}")
    if p == 0.5:
        return 0.0
    # Expand a bracket first: heavy tails (df = 1) put extreme quantiles
    # at ~1/(pi*(1-p)), far outside any fixed interval.
    hi = 2.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
    lo = -2.0
    while t_cdf(lo, df) > p:
        lo *= 2.0
    return _invert_cdf(
        lambda t: t_cdf(t, df), lambda t: t_pdf(t, df), p, lo=lo, hi=hi, x0=0.0
    )


def _check_df(df: int) -> None:
    if not isinstance(df, int) or isinstance(df, bool) or df < 1:
        raise DomainError(f"degrees of freedom must be an integer >= 1, got {df!r}")


def _invert_cdf(cdf, pdf, p, *, lo, hi, x0, max_iter=200):
    # Newton kept inside a shrinking sign-change bracket. cdf must be
    # nondecreasing with cdf(lo) <= p <= cdf(hi).
    x = x0
    for _ in range(max_iter):
        err = cdf(x) - p
        if err > 0.0:
            hi = x
        elif err < 0.0:
            lo = x
        else:
            return x
        slope = pdf(x)
        nxt = x - err / slope if slope > 0.0 else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 4.0e-16 * max(1.0, abs(nxt)):
            return nxt
        x = nxt
    return x


def _reg_inc_beta(a: float, b: float, x: float, xc: float) -> float:
    # Regularized incomplete beta I_x(a, b); continued fraction applied on
    # the side where it converges (x below the distribution mean).  ``xc``
    # is the complement 1 - x, formed by the caller without cancellation.
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(xc)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, xc) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete-beta continued fraction.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # One Lentz half-step for each partial numerator of step m, even then odd.
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    return h
