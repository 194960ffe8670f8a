"""Bayesian posterior distribution of the mutual information of two discrete
variables from a contingency table under a Dirichlet prior: exact mean,
variance/skewness/kurtosis expansions, moment-matched density fits with tail
quantiles, and a Monte Carlo oracle.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateError,
    FitError,
    NumericPreconditionError,
    ValidationError,
)
from .fit import (
    FitResult,
    central_to_raw,
    density,
    fit_poly_ansatz,
    fit_two_moment,
    survival,
    survival_quad,
)
from .mc import McEstimate, mc_estimate, sample_dirichlet
from .moments import (
    MomentSummary,
    PointStats,
    central3,
    central4,
    dirichlet_covariance,
    i_max,
    mean_exact,
    mean_o2,
    mean_var_from_cov,
    point_mi,
    point_stats,
    skew_kurt,
    summarize,
    var_o1,
    var_o2,
)
from .special import EULER_GAMMA, digamma, digamma_half_integer, digamma_integer, psi
from .tables import (
    CountsTable,
    PosteriorCounts,
    PriorSpec,
    apply_prior,
    parse_grid,
    parse_table,
    serialize_table,
)

__all__ = [
    "CountsTable",
    "DegenerateError",
    "EULER_GAMMA",
    "FitError",
    "FitResult",
    "McEstimate",
    "MomentSummary",
    "NumericPreconditionError",
    "PointStats",
    "PosteriorCounts",
    "PriorSpec",
    "ValidationError",
    "apply_prior",
    "central3",
    "central4",
    "central_to_raw",
    "density",
    "digamma",
    "digamma_half_integer",
    "digamma_integer",
    "dirichlet_covariance",
    "fit_poly_ansatz",
    "fit_two_moment",
    "i_max",
    "mc_estimate",
    "mean_exact",
    "mean_o2",
    "mean_var_from_cov",
    "parse_grid",
    "parse_table",
    "point_mi",
    "point_stats",
    "psi",
    "sample_dirichlet",
    "serialize_table",
    "skew_kurt",
    "summarize",
    "survival",
    "survival_quad",
    "var_o1",
    "var_o2",
]
