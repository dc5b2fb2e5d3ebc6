"""Analysis utilities: theory predictions, complexity fitting, statistics, reporting.

The benchmarks compare measured quantities against what the paper's lemmas
predict; this package holds the machinery for both sides of that comparison:

* :mod:`repro.analysis.bounds`     — Chernoff / Azuma–Hoeffding predictions
  behind Lemmas 1–3 and Theorem 3 (cluster corruption tail probabilities,
  recovery lengths, recommended ``k`` for a wanted failure probability),
* :mod:`repro.analysis.complexity` — log–log regression helpers that decide
  whether a measured cost curve grows polylogarithmically or polynomially and
  estimate the exponent,
* :mod:`repro.analysis.statistics` — summaries of corruption trajectories
  (time above a threshold, exceedance counts, quantiles),
* :mod:`repro.analysis.reporting`  — plain-text experiment tables for
  the benchmark output (experiment inventory in docs/ARCHITECTURE.md).
"""

from .bounds import (
    azuma_exceedance_bound,
    chernoff_cluster_tail,
    expected_fraction_after_exchange,
    recommended_k,
)
from .complexity import FitResult, fit_power_law, fit_polylog, polylog_exponent
from .statistics import (
    MeanConfidence,
    QuantileSketch,
    RunningSummary,
    TrajectorySummary,
    mean_confidence,
    summarize_values,
)
from .reporting import format_table, ExperimentTable

__all__ = [
    "chernoff_cluster_tail",
    "azuma_exceedance_bound",
    "expected_fraction_after_exchange",
    "recommended_k",
    "FitResult",
    "fit_power_law",
    "fit_polylog",
    "polylog_exponent",
    "MeanConfidence",
    "QuantileSketch",
    "RunningSummary",
    "mean_confidence",
    "TrajectorySummary",
    "summarize_values",
    "format_table",
    "ExperimentTable",
]
