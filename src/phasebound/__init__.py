"""Analytic MSE lower bounds for Bayesian phase estimation, plus a
truncated Fock-space simulator used to verify them numerically."""

from .bounds import (BoundReport, build_report, escher_bound,
                     h_limit_bound, hall_wiseman_bound, iti_bound,
                     lossy_sql_bound)
from .capacity import (capacity_upper_bound_lossy, entropy_gain,
                       unrestricted_capacity)
from .config import ScenarioConfig
from .errors import NumericalError, ValidationError
from .estimation import SimGrid, bayesian_mmse, monte_carlo_mse
from .fock import ProbeSpec, chi_decompose, holevo_quantity
from .priors import PhasePrior
from .rate_distortion import (blahut_arimoto_point, rd_curve,
                              shannon_lb_distortion, shannon_lb_rate)
from .verification import run_verification

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "NumericalError", "PhasePrior", "ProbeSpec",
    "ScenarioConfig", "SimGrid", "ValidationError", "__version__",
    "bayesian_mmse", "blahut_arimoto_point", "build_report",
    "capacity_upper_bound_lossy", "chi_decompose", "entropy_gain",
    "escher_bound", "h_limit_bound", "hall_wiseman_bound",
    "holevo_quantity", "iti_bound", "lossy_sql_bound", "monte_carlo_mse",
    "rd_curve", "run_verification", "shannon_lb_distortion",
    "shannon_lb_rate", "unrestricted_capacity",
]
