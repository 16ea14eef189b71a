"""Monte-Carlo statistical-correctness harness.

The contract suite proves *mechanical* equivalences (scalar == batch,
resume == straight-through); this harness proves the *statistical* claims:
``estimate()`` is unbiased for the subset-sum and distinct-count style
kinds each sampler advertises, against exact ground truth on Zipf and
uniform workloads — and stays unbiased when the sampler runs inside a
4-shard :class:`ShardedSampler` (the paper's merge/composition claim).

Method: ``TRIALS`` seeded replications per case (fresh RNG stream or hash
salt per trial), comparing the Monte-Carlo mean against ground truth with
a CLT-derived tolerance::

    |mean - truth| <= Z * std/sqrt(TRIALS) + REL_FLOOR * |truth|

``Z = 4.5`` puts the per-assertion false-failure probability below 1e-5;
the small relative floor absorbs quantization for near-deterministic
estimators (e.g. VarOpt's total, which is exact by construction).  Set
``REPRO_STAT_TRIALS`` to rescale (CI uses a reduced count; local runs can
raise it for more power).

Coverage is enforced: every registered sampler either appears in a case
row (possibly via its sharded wrapper) or in ``EXCLUDED`` with the reason
its estimator is out of scope (by-design-biased counters, offline
constructs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

import repro
from repro import ShardedSampler, make_sampler
from repro.workloads.zipf import zipf_stream

pytestmark = pytest.mark.statistical

TRIALS = int(os.environ.get("REPRO_STAT_TRIALS", "80"))
Z = 4.5
REL_FLOOR = 0.005

N = 1200
UNIVERSE = 400


# ----------------------------------------------------------------------
# Workloads (fixed populations; randomness varies per trial, not per run)
# ----------------------------------------------------------------------
def _build_workload(kind: str) -> dict:
    rng = np.random.default_rng(42)
    if kind == "zipf":
        keys = np.asarray(zipf_stream(N, UNIVERSE, 1.5, rng=rng), dtype=np.int64)
    else:
        keys = rng.integers(0, UNIVERSE, N).astype(np.int64)
    per_key = np.random.default_rng(43).lognormal(0.0, 0.6, UNIVERSE)
    return {
        "keys": keys,
        "weights": per_key[keys],  # per-key weights (distinct-sketch safe)
        "per_key": per_key,
        "unique": np.unique(keys),
        "times": np.cumsum(np.random.default_rng(44).exponential(1e-3, N)),
        "sizes": np.ones(N),
    }


WORKLOADS = {kind: _build_workload(kind) for kind in ("zipf", "uniform")}


def _subset(key) -> bool:
    return int(key) % 3 == 0


# Ground-truth helpers ---------------------------------------------------
def _truth_total(w):  # sum of weights over occurrences
    return float(w["weights"].sum())


def _truth_distinct(w):  # number of distinct keys
    return float(w["unique"].size)


def _truth_subset_occurrences(w):  # stream occurrences in the subset
    return float(sum(1 for key in w["keys"] if _subset(key)))


def _truth_subset_key_weight(w):  # per-key weights over distinct subset keys
    subset = [key for key in w["unique"] if _subset(key)]
    return float(w["per_key"][subset].sum())


def _truth_window_count(w):
    times = w["times"]
    return float(((times > times[-1] - 1.0)).sum())


def _truth_decayed_total(w):
    times = w["times"]
    return float((w["weights"] * np.exp(-(times[-1] - times))).sum())


def _truth_distinct_key_count(w):
    return float(w["unique"].size)


def _truth_per_key_total(w):
    return float(w["per_key"][w["unique"]].sum())


def _truth_g0_distinct(w):
    return float(len({int(key) for key in w["unique"] if int(key) % 7 == 0}))


# ----------------------------------------------------------------------
# Case table
# ----------------------------------------------------------------------
@dataclass
class StatCase:
    """One (sampler config, estimator kind, feed) unbiasedness check."""

    label: str
    name: str
    kind: str
    build: Callable[[int], object]          # trial -> sampler
    feed: Callable[[object, dict], None]    # (sampler, workload) -> None
    estimate: Callable[[object], float]
    truth: Callable[[dict], float]
    workloads: tuple = ("zipf", "uniform")


def _feed_weighted(s, w):
    s.update_many(w["keys"], w["weights"])


def _feed_unweighted(s, w):
    s.update_many(w["keys"])


def _feed_unique_unweighted(s, w):
    # Plain bottom-k does not deduplicate occurrences (that is the
    # weighted/adaptive distinct sketches' job), so its KMV-style distinct
    # estimator applies to distinct-key streams.
    s.update_many(w["unique"])


def _feed_sized(s, w):
    s.update_many(w["keys"], w["weights"], sizes=w["sizes"])


def _feed_timed(s, w):
    s.update_many(w["keys"], w["weights"], times=w["times"])


def _feed_window(s, w):
    s.update_many(w["keys"], times=w["times"])


def _feed_grouped(s, w):
    s.update_many(w["keys"], groups=[f"g{int(k) % 7}" for k in w["keys"]])


def _feed_stratified(s, w):
    s.update_many(
        w["keys"], strata=[(int(k) % 3, int(k) % 5) for k in w["keys"]]
    )


def _feed_unique_multiweight(s, w):
    # Multi-objective sketches expect one offer per key (set semantics).
    unique = w["unique"]
    cols = w["per_key"][unique]
    s.update_many(unique, weights={"a": cols, "b": 1.0 + cols})


CASES = [
    StatCase(
        "bottom_k/total", "bottom_k", "total",
        lambda t: make_sampler("bottom_k", k=64, rng=t),
        _feed_weighted, lambda s: s.estimate("total"), _truth_total,
    ),
    StatCase(
        "bottom_k-coordinated/distinct", "bottom_k", "distinct",
        lambda t: make_sampler(
            "bottom_k", k=64, family="uniform", coordinated=True, salt=t
        ),
        _feed_unique_unweighted,
        lambda s: s.estimate("distinct"), _truth_distinct,
    ),
    StatCase(
        "poisson/total", "poisson", "total",
        lambda t: make_sampler("poisson", threshold=0.05, rng=t),
        _feed_weighted, lambda s: s.estimate("total"), _truth_total,
    ),
    StatCase(
        "varopt/total", "varopt", "total",
        lambda t: make_sampler("varopt", k=64, rng=t),
        _feed_weighted, lambda s: s.estimate("total"), _truth_total,
    ),
    StatCase(
        "variance_target/total", "variance_target", "total",
        lambda t: make_sampler(
            "variance_target", delta=60.0, horizon=N, rng=t
        ),
        _feed_weighted, lambda s: s.estimate("total"), _truth_total,
    ),
    StatCase(
        "budget/total", "budget", "total",
        lambda t: make_sampler("budget", budget=80.0, rng=t),
        _feed_sized, lambda s: s.estimate("total"), _truth_total,
    ),
    StatCase(
        "top_k/subset_sum", "top_k", "subset_sum",
        lambda t: make_sampler("top_k", k=48, rng=t),
        _feed_unweighted,
        lambda s: s.estimate("subset_sum", predicate=_subset),
        _truth_subset_occurrences,
    ),
    StatCase(
        "unbiased_space_saving/subset_sum", "unbiased_space_saving",
        "subset_sum",
        lambda t: make_sampler("unbiased_space_saving", capacity=48, rng=t),
        _feed_unweighted,
        lambda s: s.estimate("subset_sum", predicate=_subset),
        _truth_subset_occurrences,
    ),
    StatCase(
        "weighted_distinct/distinct", "weighted_distinct", "distinct",
        lambda t: make_sampler("weighted_distinct", k=64, salt=t),
        _feed_weighted, lambda s: s.estimate("distinct"), _truth_distinct,
    ),
    StatCase(
        "weighted_distinct/subset_sum", "weighted_distinct", "subset_sum",
        lambda t: make_sampler("weighted_distinct", k=64, salt=t),
        _feed_weighted,
        lambda s: s.estimate("subset_sum", predicate=_subset),
        _truth_subset_key_weight,
    ),
    StatCase(
        "adaptive_distinct/distinct", "adaptive_distinct", "distinct",
        lambda t: make_sampler("adaptive_distinct", k=64, salt=t),
        _feed_unweighted, lambda s: s.estimate("distinct"), _truth_distinct,
    ),
    StatCase(
        "kmv/distinct", "kmv", "distinct",
        lambda t: make_sampler("kmv", k=64, salt=t),
        _feed_unweighted, lambda s: s.estimate("distinct"), _truth_distinct,
    ),
    StatCase(
        "theta/distinct", "theta", "distinct",
        lambda t: make_sampler("theta", k=64, salt=t),
        _feed_unweighted, lambda s: s.estimate("distinct"), _truth_distinct,
    ),
    StatCase(
        "grouped_distinct/distinct", "grouped_distinct", "distinct",
        lambda t: make_sampler("grouped_distinct", m=4, k=8, salt=t),
        _feed_grouped,
        lambda s: s.estimate("distinct", group="g0"), _truth_g0_distinct,
    ),
    StatCase(
        "multi_stratified/total", "multi_stratified", "total",
        lambda t: make_sampler("multi_stratified", n_dims=2, k=16, salt=t),
        _feed_stratified,
        # Stratified sketches are per-key (duplicate offers are idempotent
        # under the coordinated hash), so the estimable total is the
        # distinct-key count for this unweighted feed.
        lambda s: s.estimate("total"), _truth_distinct_key_count,
    ),
    StatCase(
        "multi_objective/total", "multi_objective", "total",
        lambda t: make_sampler(
            "multi_objective", k=64, objectives=("a", "b"), salt=t
        ),
        _feed_unique_multiweight,
        lambda s: s.estimate("total", objective="a"), _truth_per_key_total,
    ),
    StatCase(
        "sliding_window/window_count", "sliding_window", "window_count",
        lambda t: make_sampler("sliding_window", k=48, window=1.0, rng=t),
        _feed_window,
        lambda s: s.estimate("window_count"), _truth_window_count,
        workloads=("zipf",),
    ),
    StatCase(
        "time_decay/decayed_total", "time_decay", "decayed_total",
        lambda t: make_sampler("time_decay", k=64, decay_rate=1.0, rng=t),
        _feed_timed,
        lambda s: s.estimate("decayed_total"), _truth_decayed_total,
        workloads=("zipf",),
    ),
]


# ----------------------------------------------------------------------
# Mid-stream resize cases (the adaptive control plane's k-retunes)
# ----------------------------------------------------------------------
def _resized_feed(base_feed, k2: int):
    """Feed the first half of the stream, ``resize(k2)``, feed the rest.

    Splits every per-occurrence column at the same midpoint so the
    resized run sees the identical stream a straight-through run would.
    """

    def feed(s, w):
        mid = len(w["keys"]) // 2
        half = {
            **w,
            "keys": w["keys"][:mid],
            "weights": w["weights"][:mid],
        }
        rest = {
            **w,
            "keys": w["keys"][mid:],
            "weights": w["weights"][mid:],
        }
        base_feed(s, half)
        s.resize(k2)
        base_feed(s, rest)

    return feed


def _resize_case(name: str, kind: str, build, base_feed, estimate, truth,
                 k2: int, direction: str) -> StatCase:
    return StatCase(
        f"{name}-resize-{direction}/{kind}", name, kind, build,
        _resized_feed(base_feed, k2), estimate, truth,
    )


def _est_distinct(s):
    return s.estimate("distinct")


RESIZE_CASES = [
    case
    for k2, direction in ((24, "shrink"), (160, "grow"))
    for case in (
        _resize_case(
            "bottom_k", "total",
            lambda t: make_sampler("bottom_k", k=64, rng=t),
            _feed_weighted, lambda s: s.estimate("total"), _truth_total,
            k2, direction,
        ),
        _resize_case(
            "weighted_distinct", "distinct",
            lambda t: make_sampler("weighted_distinct", k=64, salt=t),
            _feed_weighted, _est_distinct, _truth_distinct, k2, direction,
        ),
        _resize_case(
            "adaptive_distinct", "distinct",
            lambda t: make_sampler("adaptive_distinct", k=64, salt=t),
            _feed_unweighted, _est_distinct, _truth_distinct, k2, direction,
        ),
        _resize_case(
            "kmv", "distinct",
            lambda t: make_sampler("kmv", k=64, salt=t),
            _feed_unweighted, _est_distinct, _truth_distinct, k2, direction,
        ),
        _resize_case(
            "theta", "distinct",
            lambda t: make_sampler("theta", k=64, salt=t),
            _feed_unweighted, _est_distinct, _truth_distinct, k2, direction,
        ),
    )
]


def _sharded_case(name: str, kind: str, params: dict, feed, estimate, truth,
                  salted: bool) -> StatCase:
    def build(trial: int):
        trial_params = dict(params, salt=trial) if salted else dict(params)
        return ShardedSampler(
            {"name": name, "params": trial_params}, n_shards=4, seed=trial
        )

    return StatCase(
        f"sharded[{name}]/{kind}", name, kind, build, feed, estimate, truth,
        workloads=("zipf",),
    )


#: Every mergeable sampler, wrapped in a 4-shard engine: sharding must not
#: change what the estimators converge to.
SHARDED_CASES = [
    _sharded_case(
        "bottom_k", "total", {"k": 64}, _feed_weighted,
        lambda s: s.estimate("total"), _truth_total, salted=False,
    ),
    _sharded_case(
        "bottom_k", "distinct",
        {"k": 64, "family": "uniform", "coordinated": True},
        _feed_unique_unweighted,
        lambda s: s.estimate("distinct"), _truth_distinct, salted=True,
    ),
    _sharded_case(
        "poisson", "total", {"threshold": 0.05}, _feed_weighted,
        lambda s: s.estimate("total"), _truth_total, salted=False,
    ),
    _sharded_case(
        "weighted_distinct", "distinct", {"k": 64}, _feed_weighted,
        lambda s: s.estimate("distinct"), _truth_distinct, salted=True,
    ),
    _sharded_case(
        "weighted_distinct", "subset_sum", {"k": 64}, _feed_weighted,
        lambda s: s.estimate("subset_sum", predicate=_subset),
        _truth_subset_key_weight, salted=True,
    ),
    _sharded_case(
        "adaptive_distinct", "distinct", {"k": 24}, _feed_unweighted,
        lambda s: s.estimate("distinct"), _truth_distinct, salted=True,
    ),
    _sharded_case(
        "kmv", "distinct", {"k": 64}, _feed_unweighted,
        lambda s: s.estimate("distinct"), _truth_distinct, salted=True,
    ),
    _sharded_case(
        "theta", "distinct", {"k": 64}, _feed_unweighted,
        lambda s: s.estimate("distinct"), _truth_distinct, salted=True,
    ),
]

#: Registered samplers with no unbiasedness case, and why.
EXCLUDED = {
    "space_saving": "deterministic upper-bound counter (biased by design)",
    "frequent_items": "deterministic undercount sketch (biased by design)",
    "sharded": "covered through the SHARDED_CASES wrappers",
    "tenant_mux": "a routing container: estimates delegate to per-tenant "
                  "children, whose unbiasedness is covered by their own rows",
}


def test_every_registered_sampler_is_covered_or_excluded():
    covered = {case.name for case in CASES + SHARDED_CASES}
    assert covered | set(EXCLUDED) == set(repro.available_samplers())
    assert not covered & set(EXCLUDED)


def test_case_kinds_are_advertised():
    """Each case exercises a kind the sampler actually advertises."""
    for case in CASES:
        sampler = case.build(0)
        assert case.kind in sampler.estimate_kinds(), case.label
    for case in SHARDED_CASES:
        engine = case.build(0)
        assert case.kind in engine.estimate_kinds(), case.label


def _run_case(case: StatCase, workload: str) -> None:
    w = WORKLOADS[workload]
    truth = case.truth(w)
    estimates = np.empty(TRIALS)
    for trial in range(TRIALS):
        sampler = case.build(trial)
        case.feed(sampler, w)
        estimates[trial] = float(case.estimate(sampler))
    mean = float(estimates.mean())
    se = float(estimates.std(ddof=1) / np.sqrt(TRIALS))
    tolerance = Z * se + REL_FLOOR * abs(truth)
    assert abs(mean - truth) <= tolerance, (
        f"{case.label} on {workload}: mean {mean:.3f} vs truth {truth:.3f} "
        f"(se {se:.4f}, z {'inf' if se == 0 else f'{(mean - truth) / se:.2f}'}"
        f", {TRIALS} trials)"
    )


@pytest.mark.parametrize(
    "case,workload",
    [(c, wl) for c in CASES for wl in c.workloads],
    ids=[f"{c.label}-{wl}" for c in CASES for wl in c.workloads],
)
def test_estimator_is_unbiased(case, workload):
    _run_case(case, workload)


@pytest.mark.slow
@pytest.mark.parametrize(
    "case,workload",
    [(c, wl) for c in SHARDED_CASES for wl in c.workloads],
    ids=[f"{c.label}-{wl}" for c in SHARDED_CASES for wl in c.workloads],
)
def test_sharded_estimator_is_unbiased(case, workload):
    _run_case(case, workload)


@pytest.mark.parametrize(
    "case,workload",
    [(c, wl) for c in RESIZE_CASES for wl in c.workloads],
    ids=[f"{c.label}-{wl}" for c in RESIZE_CASES for wl in c.workloads],
)
def test_resized_estimator_is_unbiased(case, workload):
    """Unbiasedness survives a mid-stream ``resize`` in both directions
    (shrink-with-fold and grow-with-cap) — the property the adaptive
    controller's ``k`` retunes rely on."""
    _run_case(case, workload)
