"""Samplers and sketches built on the adaptive threshold framework.

One module per application section of the paper.  Every streaming sampler
here implements the unified :class:`repro.api.StreamSampler` protocol:

* ``update(key, weight=1.0, *, value=None, time=None)`` offers one item.
  Samplers with a required per-item column take it keyword-only and
  raise ``TypeError`` without it: ``time=`` for
  :class:`SlidingWindowSampler` and :class:`ExponentialDecaySampler`,
  ``group=`` for :class:`GroupedDistinctSketch`, ``strata=`` for
  :class:`MultiStratifiedSampler`, ``weights=`` for
  :class:`MultiObjectiveSampler` (:class:`BudgetSampler`'s ``size=``
  defaults to 1);
* ``update_many(keys, weights=None, values=None, times=None)`` ingests a
  batch through the class's vectorized kernel, with the same resulting
  state as the per-item loop;
* ``sample()`` finalizes into a :class:`repro.core.sample.Sample`;
* ``merge(other)`` merges in place and returns ``self``; ``a | b`` (or
  :func:`repro.api.merged`) is the pure form;
* ``estimate(kind=..., ...)`` fronts the per-sampler ``estimate_*``
  methods; an unknown ``kind`` raises ``ValueError``;
* ``to_state()`` / ``from_state()`` round-trip the full sampler state as a
  plain dict.

Each stream sampler is registered with :func:`repro.api.register_sampler`,
so ``repro.make_sampler("bottom_k", k=100)`` (or a
:class:`repro.api.SamplerSpec`) constructs any of them from configuration.
The AQP physical layouts (:class:`PriorityLayoutTable`,
:class:`MultiObjectiveLayout`) and the offline CPS design
(:class:`ConditionalPoissonSampler`) are not stream samplers: they are not
registered, and their constructors take the whole population.
"""

from .aqp import MultiObjectiveLayout, PriorityLayoutTable, ScanResult
from .bottomk import BottomKSampler
from .budget import BudgetSampler
from .cps import ConditionalPoissonSampler
from .distinct import AdaptiveDistinctSketch, WeightedDistinctSketch, lcs_union
from .grouped_distinct import GroupedDistinctSketch
from .multi_objective import MultiObjectiveSampler
from .poisson import PoissonSampler
from .sliding_window import SlidingWindowSampler, WindowSnapshot
from .stratified import MultiStratifiedSampler
from .time_decay import ExponentialDecaySampler
from .topk import AdaptiveTopKSampler
from .variance_sized import VarianceTargetSampler, solve_stopping_threshold
from .varopt import VarOptSampler

__all__ = [
    "PoissonSampler",
    "BottomKSampler",
    "BudgetSampler",
    "SlidingWindowSampler",
    "WindowSnapshot",
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
    "ScanResult",
    "ExponentialDecaySampler",
    "VarOptSampler",
    "ConditionalPoissonSampler",
]
