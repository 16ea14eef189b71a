"""Adaptive threshold sampling - a full reproduction of Ting (SIGMOD 2022).

The package mirrors the paper's structure:

* :mod:`repro.api` - the unified :class:`StreamSampler` protocol, the
  sampler registry/factory (``make_sampler``/``SamplerSpec``), and the
  ``to_state``/``from_state`` checkpoint machinery.
* :mod:`repro.engine` - the sharded ingestion engine
  (:class:`ShardedSampler`): hash-partitioned fan-out over mergeable
  samplers with merge-tree reduction.
* :mod:`repro.serve` - the async streaming serving runtime
  (:class:`StreamService`): bounded-queue ingestion with backpressure,
  micro-batched flushes, snapshot-isolated reads, write-ahead logging,
  atomic checkpoints and bit-exact crash recovery — plus the
  multi-tenant :class:`Cluster` (:mod:`repro.serve.cluster`):
  consistent-hash tenant routing, per-tenant quotas, live rebalancing,
  and a length-prefixed-JSON TCP front end.
* :mod:`repro.query` - the declarative query layer: ``Query`` specs
  (aggregate + where/group_by + CIs) planned once and executed vectorized
  over any sampler's sample, with HT/pseudo-HT variance plug-ins and a
  per-sampler capability table.
* :mod:`repro.core` - the adaptive threshold framework (Section 2):
  priorities, threshold rules, recalibration/substitutability, HT and
  pseudo-HT estimators.
* :mod:`repro.samplers` - the application samplers (Section 3): bottom-k,
  memory budgets, sliding windows, adaptive top-k, distinct counting and
  merges, stratified/multi-objective/variance-sized samples, AQP, time
  decay, plus VarOpt and exact CPS comparators.
* :mod:`repro.baselines` - FrequentItems, Space-Saving, Theta, KMV.
* :mod:`repro.workloads` - the synthetic workloads of the evaluation.
* :mod:`repro.asymptotics` - numerical reproductions of Sections 4-6.
* :mod:`repro.experiments` - one module per figure / quantified claim.

Quickstart — every sampler speaks the same protocol::

    import repro

    sampler = repro.make_sampler("bottom_k", k=100)   # or BottomKSampler(k=100)
    sampler.update_many(keys, weights)                # vectorized batch path
    sampler.update("late-arrival", weight=2.5)        # scalar path
    sample = sampler.sample()
    print(sample.ht_total(), sample.ht_confidence_interval())
    print(sampler.estimate("total"))                  # unified estimator facade

    state = sampler.to_state()                        # checkpoint (plain dict)
    revived = repro.sampler_from_state(state)
    combined = sampler | revived                      # pure merge (disjoint streams)

    result = sampler.query("sum", where=lambda k: k % 2 == 0, ci=0.95)
    print(result.estimate, result.ci)                 # declarative queries + CIs
"""

from .api import (
    SamplerSpec,
    StreamSampler,
    available_samplers,
    make_sampler,
    merged,
    register_sampler,
    sampler_from_state,
)
from .baselines import (
    FrequentItemsSketch,
    KMVSketch,
    SpaceSavingSketch,
    ThetaSketch,
    UnbiasedSpaceSavingSketch,
)
from .engine import ShardedSampler, mergeable_samplers
from .serve import (
    Cluster,
    ClusterClient,
    ClusterFrontend,
    ServiceCrashed,
    ServiceSnapshot,
    StreamService,
    TenantQuota,
)
from .query import (
    QUERY_AGGREGATES,
    Query,
    QueryCapabilityError,
    QueryResult,
    TopKItem,
    capability_table,
)
from .core import (
    BottomK,
    BudgetPrefix,
    ExponentialPriority,
    FixedThreshold,
    InverseWeightPriority,
    MaxComposition,
    MinComposition,
    RngFactory,
    Sample,
    SequentialBottomK,
    StratifiedBottomK,
    ThresholdRule,
    Uniform01Priority,
    VarianceTargetRule,
    hash_to_unit,
    ht_total,
    ht_variance_estimate,
    is_substitutable,
    kendall_tau_estimate,
    recalibrate,
    substitutability_order,
)
from .samplers import (
    AdaptiveDistinctSketch,
    AdaptiveTopKSampler,
    BottomKSampler,
    BudgetSampler,
    ConditionalPoissonSampler,
    ExponentialDecaySampler,
    GroupedDistinctSketch,
    MultiObjectiveLayout,
    MultiObjectiveSampler,
    MultiStratifiedSampler,
    PoissonSampler,
    PriorityLayoutTable,
    SlidingWindowSampler,
    VarianceTargetSampler,
    VarOptSampler,
    WeightedDistinctSketch,
    lcs_union,
    solve_stopping_threshold,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # api
    "StreamSampler",
    "SamplerSpec",
    "register_sampler",
    "make_sampler",
    "merged",
    "available_samplers",
    "sampler_from_state",
    # engine
    "ShardedSampler",
    "mergeable_samplers",
    # serving runtime
    "StreamService",
    "ServiceSnapshot",
    "ServiceCrashed",
    "Cluster",
    "ClusterClient",
    "ClusterFrontend",
    "TenantQuota",
    # query layer
    "Query",
    "QueryResult",
    "TopKItem",
    "QueryCapabilityError",
    "QUERY_AGGREGATES",
    "capability_table",
    # core
    "ThresholdRule",
    "FixedThreshold",
    "BottomK",
    "BudgetPrefix",
    "StratifiedBottomK",
    "SequentialBottomK",
    "VarianceTargetRule",
    "MinComposition",
    "MaxComposition",
    "Uniform01Priority",
    "InverseWeightPriority",
    "ExponentialPriority",
    "Sample",
    "RngFactory",
    "hash_to_unit",
    "ht_total",
    "ht_variance_estimate",
    "kendall_tau_estimate",
    "recalibrate",
    "is_substitutable",
    "substitutability_order",
    # samplers
    "PoissonSampler",
    "BottomKSampler",
    "BudgetSampler",
    "SlidingWindowSampler",
    "AdaptiveTopKSampler",
    "WeightedDistinctSketch",
    "AdaptiveDistinctSketch",
    "lcs_union",
    "GroupedDistinctSketch",
    "MultiStratifiedSampler",
    "MultiObjectiveSampler",
    "VarianceTargetSampler",
    "solve_stopping_threshold",
    "PriorityLayoutTable",
    "MultiObjectiveLayout",
    "ExponentialDecaySampler",
    "VarOptSampler",
    "ConditionalPoissonSampler",
    # baselines
    "FrequentItemsSketch",
    "SpaceSavingSketch",
    "UnbiasedSpaceSavingSketch",
    "ThetaSketch",
    "KMVSketch",
]
