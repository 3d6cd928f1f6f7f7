"""Local residual bootstrap inference for generalized linear models.

Resampling residuals within covariate neighborhoods recreates responses
faithfully even when the working model is misspecified, which yields usable
standard errors, confidence intervals, p-values, and bootstrap model
selection for the pseudo-true parameter.
"""

from .bootstrap import (
    BootstrapMethod,
    BootstrapOutcome,
    ci_percentile,
    p_value,
    run,
    se_estimate,
)
from .data import Dataset, ModelSpec, Term, back_transform, build_design, make_dataset
from .glm import FitOptions, FitResult, fit_qmle, predict_mean
from .neighborhood import (
    NeighborhoodMap,
    SizeSelectionTrace,
    build_neighborhoods,
    select_size,
)
from .residuals import ResidualSet

__version__ = "0.1.0"
