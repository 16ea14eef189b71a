"""Core adaptive-threshold-sampling framework (Section 2 of the paper).

Everything else in the library builds on these primitives:

* :mod:`repro.core.priorities` — priority distributions and duality.
* :mod:`repro.core.hashing` — stable hashes for coordinated priorities.
* :mod:`repro.core.thresholds` — adaptive threshold rules ``tau(R | D)``.
* :mod:`repro.core.recalibration` — recalibrated thresholds and
  substitutability checks.
* :mod:`repro.core.composition` — Theorem 9 closure operations.
* :mod:`repro.core.estimators` — Horvitz–Thompson estimation.
* :mod:`repro.core.distinct_sums` / :mod:`repro.core.pseudo_ht` —
  pseudo-HT estimators (central moments, Kendall's tau).
* :mod:`repro.core.sample` — the sample container all samplers emit.
* :mod:`repro.core.pathology` — counterexample rules from Section 2.3.
"""

from .composition import ClampedRule, MaxComposition, MinComposition
from .estimators import (
    hajek_mean,
    hajek_mean_variance_estimate,
    ht_confidence_interval,
    ht_ratio_variance_estimate,
    ht_stderr,
    ht_total,
    ht_variance_estimate,
    ht_variance_true,
    inclusion_probabilities,
    normal_interval,
    quantile_interval,
    weighted_quantile,
)
from .hashing import hash_array_to_unit, hash_key, hash_to_unit
from .priorities import (
    ExponentialPriority,
    InverseWeightPriority,
    PriorityFamily,
    TransformedPriority,
    Uniform01Priority,
)
from .pseudo_ht import (
    central_moment_unbiased,
    kendall_tau_confidence_interval,
    kendall_tau_estimate,
    kendall_tau_population,
    kendall_tau_stderr,
    kendall_tau_variance_estimate,
    kurtosis_estimate,
    skewness_estimate,
)
from .recalibration import (
    is_substitutable,
    recalibrate,
    substitutability_order,
    verify_singleton_condition,
)
from .estimators import canonical_times, decay_factors, time_window_mask
from .rng import RngFactory, as_generator, spawn_generators
from .sample import Sample, SampledItem
from .thresholds import (
    BottomK,
    BudgetPrefix,
    DescendingStoppingRule,
    FixedThreshold,
    SequentialBottomK,
    StratifiedBottomK,
    ThresholdRule,
    VarianceTargetRule,
    sample_indices,
    sample_mask,
)

__all__ = [
    # priorities
    "PriorityFamily",
    "Uniform01Priority",
    "InverseWeightPriority",
    "ExponentialPriority",
    "TransformedPriority",
    # hashing
    "hash_key",
    "hash_to_unit",
    "hash_array_to_unit",
    # threshold rules
    "ThresholdRule",
    "FixedThreshold",
    "BottomK",
    "BudgetPrefix",
    "StratifiedBottomK",
    "SequentialBottomK",
    "DescendingStoppingRule",
    "VarianceTargetRule",
    "sample_mask",
    "sample_indices",
    # composition
    "MinComposition",
    "MaxComposition",
    "ClampedRule",
    # recalibration
    "recalibrate",
    "is_substitutable",
    "substitutability_order",
    "verify_singleton_condition",
    # estimators
    "ht_total",
    "ht_variance_true",
    "ht_variance_estimate",
    "ht_stderr",
    "ht_confidence_interval",
    "ht_ratio_variance_estimate",
    "hajek_mean",
    "hajek_mean_variance_estimate",
    "normal_interval",
    "weighted_quantile",
    "quantile_interval",
    "inclusion_probabilities",
    "canonical_times",
    "time_window_mask",
    "decay_factors",
    # pseudo-HT
    "kendall_tau_population",
    "kendall_tau_estimate",
    "kendall_tau_stderr",
    "kendall_tau_variance_estimate",
    "kendall_tau_confidence_interval",
    "central_moment_unbiased",
    "skewness_estimate",
    "kurtosis_estimate",
    # containers / RNG
    "Sample",
    "SampledItem",
    "RngFactory",
    "as_generator",
    "spawn_generators",
]
