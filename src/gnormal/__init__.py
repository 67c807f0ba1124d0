"""Tail capacities of the G-normal distribution.

Closed-form one-sided capacities and two-sided approximations with error
bounds (``capacity``), a monotone finite-difference solver for the
underlying nonlinear heat equation (``gheat``), adversarial
variance-control policies (``policy``), a reproducible parallel Monte
Carlo engine (``simulate``), and normal/Student-t special functions
(``special``).  The ``gnormal`` command line exposes all of it.
"""

from .capacity import (
    TwoSidedApprox,
    VolatilityBand,
    p1,
    p2_approx,
    profile_f,
    profile_f_yy,
    relative_error_bound,
    two_sided_error_bound,
)
from .errors import (
    ConfigurationError,
    DomainError,
    GNormalError,
    NumericalError,
)
from .gheat import (
    GridSolution,
    GridSpec,
    IndicatorAbove,
    IndicatorAbsAbove,
    LipschitzTable,
    SandwichReport,
    ThresholdLevel,
    p2_numeric,
    solve,
    two_sided_threshold,
    verify_sandwich,
)
from .policy import (
    PolicySpec,
    constant_policy,
    heuristic_t_policy,
    one_sided_optimal_policy,
    two_sided_threshold_policy,
)
from .simulate import (
    Histogram,
    SimulationConfig,
    SimulationReport,
    TestSpec,
    run,
    wilson_interval,
)
from .special import norm_cdf, norm_pdf, norm_quantile, t_cdf, t_pdf, t_quantile

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special
    "norm_pdf", "norm_cdf", "norm_quantile", "t_pdf", "t_cdf", "t_quantile",
    # capacity
    "VolatilityBand", "TwoSidedApprox", "profile_f", "profile_f_yy", "p1",
    "p2_approx", "two_sided_error_bound", "relative_error_bound",
    # gheat
    "GridSpec", "GridSolution", "SandwichReport", "ThresholdLevel",
    "IndicatorAbove", "IndicatorAbsAbove", "LipschitzTable",
    "solve", "p2_numeric", "two_sided_threshold", "verify_sandwich",
    # policy
    "PolicySpec", "constant_policy", "one_sided_optimal_policy",
    "two_sided_threshold_policy", "heuristic_t_policy",
    # simulate
    "TestSpec", "SimulationConfig", "SimulationReport", "Histogram",
    "wilson_interval", "run",
    # errors
    "GNormalError", "DomainError", "ConfigurationError", "NumericalError",
]
