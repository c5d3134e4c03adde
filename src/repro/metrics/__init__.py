"""Attack-evaluation metrics: MSE per feature, CBR, correlation reports."""

from repro.metrics.reconstruction import (
    esa_mse_upper_bound,
    feature_wise_mse,
    mse_per_feature,
)
from repro.metrics.branching import (
    aggregate_cbr,
    path_branch_decisions,
    path_cbr,
    path_cbr_batch,
    reconstruction_cbr,
    reconstruction_cbr_batch,
)
from repro.metrics.correlation import (
    CorrelationReport,
    correlation_report,
    mean_abs_correlation_with_columns,
)

__all__ = [
    "mse_per_feature",
    "feature_wise_mse",
    "esa_mse_upper_bound",
    "path_cbr",
    "path_cbr_batch",
    "reconstruction_cbr",
    "reconstruction_cbr_batch",
    "path_branch_decisions",
    "aggregate_cbr",
    "CorrelationReport",
    "correlation_report",
    "mean_abs_correlation_with_columns",
]
