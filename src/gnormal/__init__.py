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
    relative_error_bound_closed_form,
    two_sided_error_bound,
)
from .errors import (
    ConfigurationError,
    DomainError,
    GNormalError,
    NumericalError,
    StateError,
    UndefinedStatisticError,
)
from .gheat import (
    GridSolution,
    GridSpec,
    SandwichReport,
    ThresholdLevel,
    indicator_above,
    indicator_abs_above,
    lipschitz_sampled,
    p2_numeric,
    solve,
    two_sided_threshold,
    verify_sandwich,
)
from .policy import (
    PolicySpec,
    PolicyState,
    ThresholdTable,
    constant_policy,
    heuristic_t_policy,
    next_sigma,
    one_sided_optimal_policy,
    pde_policy_equiv_check,
    two_sided_threshold_policy,
)
from .simulate import (
    Histogram,
    SimulationConfig,
    SimulationReport,
    TestSpec,
    run,
    t_statistic,
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
    "relative_error_bound_closed_form",
    # gheat
    "GridSpec", "GridSolution", "SandwichReport", "ThresholdLevel",
    "indicator_above", "indicator_abs_above", "lipschitz_sampled",
    "solve", "p2_numeric", "two_sided_threshold", "verify_sandwich",
    # policy
    "PolicySpec", "PolicyState", "ThresholdTable", "constant_policy",
    "one_sided_optimal_policy", "two_sided_threshold_policy",
    "heuristic_t_policy", "next_sigma", "pde_policy_equiv_check",
    # simulate
    "TestSpec", "SimulationConfig", "SimulationReport", "Histogram",
    "t_statistic", "wilson_interval", "run",
    # errors
    "GNormalError", "DomainError", "ConfigurationError", "NumericalError",
    "UndefinedStatisticError", "StateError",
]
