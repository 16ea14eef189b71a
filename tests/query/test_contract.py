"""Contract suite for the declarative query layer.

Mirrors the API contract suite's shape: one case table covering every
registered sampler, with coverage enforced — each name has a query case
(its supported aggregates all smoke-execute, its declared gaps all raise
:class:`repro.query.QueryCapabilityError` with the declared reason).

On top of the per-sampler sweep: group-by fan-out must agree with the
equivalent ``where=`` queries, the result cache must hit between updates
and invalidate on any mutation, and sharded engines must answer
bit-identically to single instances on the hash-coordinated sketches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import repro
from repro import Query, QueryCapabilityError, QueryResult, ShardedSampler, make_sampler
from repro.api.protocol import QUERY_AGGREGATES

N = 4000
UNIVERSE = 500


def _workload() -> dict:
    rng = np.random.default_rng(7)
    keys = rng.integers(0, UNIVERSE, N).astype(np.int64)
    per_key = np.random.default_rng(8).lognormal(0.0, 0.5, UNIVERSE)
    return {
        "keys": keys,
        "weights": per_key[keys],
        "per_key": per_key,
        "times": np.cumsum(rng.exponential(1e-3, N)),
        "sizes": np.ones(N),
        "unique": np.unique(keys),
    }


W = _workload()


def _feed_weighted(s):
    s.update_many(W["keys"], W["weights"])


def _feed_unweighted(s):
    s.update_many(W["keys"])


def _feed_sized(s):
    s.update_many(W["keys"], W["weights"], sizes=W["sizes"])


def _feed_timed(s):
    s.update_many(W["keys"], W["weights"], times=W["times"])


def _feed_window(s):
    s.update_many(W["keys"], times=W["times"])


def _feed_grouped(s):
    s.update_many(W["keys"], groups=[f"g{int(k) % 5}" for k in W["keys"]])


def _feed_stratified(s):
    s.update_many(W["keys"], strata=[(int(k) % 3, int(k) % 5) for k in W["keys"]])


def _feed_multiweight(s):
    unique = W["unique"]
    cols = W["per_key"][unique]
    s.update_many(unique, weights={"a": cols, "b": 1.0 + cols})


def _feed_mux(s):
    s.update_many([("t0", int(k)) for k in W["keys"]], W["weights"])


@dataclass
class QueryCase:
    """One sampler configuration driven through every aggregate."""

    name: str
    build: Callable[[], object]
    feed: Callable[[object], None]


CASES = [
    QueryCase("bottom_k", lambda: make_sampler("bottom_k", k=64, rng=0), _feed_weighted),
    QueryCase("poisson", lambda: make_sampler("poisson", threshold=0.05, rng=0), _feed_weighted),
    QueryCase("varopt", lambda: make_sampler("varopt", k=64, rng=0), _feed_weighted),
    QueryCase(
        "variance_target",
        lambda: make_sampler("variance_target", delta=60.0, horizon=N, rng=0),
        _feed_weighted,
    ),
    QueryCase("budget", lambda: make_sampler("budget", budget=60.0, rng=0), _feed_sized),
    QueryCase("top_k", lambda: make_sampler("top_k", k=32, rng=0), _feed_unweighted),
    QueryCase(
        "space_saving", lambda: make_sampler("space_saving", capacity=32), _feed_unweighted
    ),
    QueryCase(
        "frequent_items",
        lambda: make_sampler("frequent_items", max_map_size=32),
        _feed_unweighted,
    ),
    QueryCase(
        "unbiased_space_saving",
        lambda: make_sampler("unbiased_space_saving", capacity=32, rng=0),
        _feed_unweighted,
    ),
    QueryCase(
        "weighted_distinct",
        lambda: make_sampler("weighted_distinct", k=64, salt=0),
        _feed_weighted,
    ),
    QueryCase(
        "adaptive_distinct",
        lambda: make_sampler("adaptive_distinct", k=64, salt=0),
        _feed_unweighted,
    ),
    QueryCase("kmv", lambda: make_sampler("kmv", k=32, salt=0), _feed_unweighted),
    QueryCase("theta", lambda: make_sampler("theta", k=32, salt=0), _feed_unweighted),
    QueryCase(
        "grouped_distinct",
        lambda: make_sampler("grouped_distinct", m=4, k=8, salt=0),
        _feed_grouped,
    ),
    QueryCase(
        "multi_stratified",
        lambda: make_sampler("multi_stratified", n_dims=2, k=16, salt=0),
        _feed_stratified,
    ),
    QueryCase(
        "multi_objective",
        lambda: make_sampler("multi_objective", k=32, objectives=("a", "b"), salt=0),
        _feed_multiweight,
    ),
    QueryCase(
        "sliding_window",
        lambda: make_sampler("sliding_window", k=64, window=1.0, rng=0),
        _feed_window,
    ),
    QueryCase(
        "time_decay",
        lambda: make_sampler("time_decay", k=64, decay_rate=1.0, rng=0),
        _feed_timed,
    ),
    QueryCase(
        "sharded",
        lambda: ShardedSampler({"name": "bottom_k", "params": {"k": 64}}, n_shards=4),
        _feed_weighted,
    ),
    # The mux is in-protocol but answers no aggregates itself: every entry
    # is a tenant-scoped gap reason, so this case only exercises the
    # refusal path (queries run against the per-tenant child samplers).
    QueryCase(
        "tenant_mux",
        lambda: make_sampler(
            "tenant_mux",
            tenants={"t0": {"name": "bottom_k", "params": {"k": 64, "rng": 0}}},
        ),
        _feed_mux,
    ),
]

def test_every_registered_sampler_has_a_query_case():
    assert {case.name for case in CASES} == set(repro.available_samplers())


def _built(case: QueryCase):
    sampler = case.build()
    case.feed(sampler)
    return sampler


def _assert_scalar_result(result: QueryResult, with_variance: bool, level):
    assert math.isfinite(float(result.estimate))
    if with_variance:
        assert result.variance is not None and result.variance >= 0.0
        assert result.stderr == pytest.approx(math.sqrt(max(result.variance, 0.0)))
        if level is not None:
            lo, hi = result.ci
            assert lo <= result.estimate <= hi
            assert result.level == level
    else:
        assert result.variance is None and result.stderr is None
        assert result.ci is None


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_supported_aggregates_execute(case):
    """Every aggregate a sampler advertises runs and returns sane fields."""
    sampler = _built(case)
    with_variance = sampler.query_variance is True
    level = 0.95 if with_variance else None
    for aggregate in sampler.supported_aggregates():
        result = sampler.query(Query(aggregate=aggregate, ci=level))
        assert result.aggregate == aggregate
        assert result.sample_size >= 0
        if aggregate == "topk":
            assert isinstance(result.estimate, tuple)
            for item in result.estimate:
                assert math.isfinite(item.estimate)
        elif aggregate == "quantile":
            assert math.isfinite(float(result.estimate))
            if level is not None and result.sample_size:
                lo, hi = result.ci
                assert lo <= hi
        else:
            _assert_scalar_result(result, with_variance, level)


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_declared_gaps_raise_with_reason(case):
    """Unsupported aggregates raise, carrying the declared reason."""
    sampler = _built(case)
    for aggregate in QUERY_AGGREGATES:
        reason = sampler.query_gap_reason(aggregate)
        if reason is None:
            continue
        with pytest.raises(QueryCapabilityError) as err:
            sampler.query(aggregate)
        assert reason in str(err.value)


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_ci_requests_honor_variance_declaration(case):
    """ci= raises (with the declared reason) iff no variance story."""
    sampler = _built(case)
    supported = sampler.supported_aggregates()
    if not supported:
        return
    aggregate = supported[0]
    if sampler.query_variance is True:
        sampler.query(Query(aggregate=aggregate, ci=0.5))
    else:
        with pytest.raises(QueryCapabilityError) as err:
            sampler.query(Query(aggregate=aggregate, ci=0.5))
        assert str(sampler.query_variance) in str(err.value)


# ----------------------------------------------------------------------
# Group-by semantics
# ----------------------------------------------------------------------
def test_group_by_matches_where_fanout():
    """Each group's sub-result equals the equivalent where= query."""
    sampler = make_sampler("bottom_k", k=128, rng=0)
    _feed_weighted(sampler)
    grouped = sampler.query(
        Query("sum", group_by=lambda k: int(k) % 3, ci=0.95)
    )
    assert set(grouped.groups) == {0, 1, 2}
    for g, sub in grouped.groups.items():
        direct = sampler.query(
            Query("sum", where=lambda k, g=g: int(k) % 3 == g, ci=0.95)
        )
        assert sub.estimate == pytest.approx(direct.estimate, rel=1e-12)
        assert sub.variance == pytest.approx(direct.variance, rel=1e-12)
        assert sub.ci == pytest.approx(direct.ci, rel=1e-12)
    # The top-level fields hold the ungrouped answer over the selection.
    overall = sampler.query(Query("sum", ci=0.95))
    assert grouped.estimate == pytest.approx(overall.estimate, rel=1e-12)


def test_group_by_mean_matches_where_fanout():
    sampler = make_sampler("bottom_k", k=128, rng=0)
    _feed_weighted(sampler)
    grouped = sampler.query(Query("mean", group_by=lambda k: int(k) % 2, ci=0.9))
    for g, sub in grouped.groups.items():
        direct = sampler.query(
            Query("mean", where=lambda k, g=g: int(k) % 2 == g, ci=0.9)
        )
        assert sub.estimate == pytest.approx(direct.estimate, rel=1e-12)
        assert sub.variance == pytest.approx(direct.variance, rel=1e-12)


def test_group_by_accepts_precomputed_labels_and_masks():
    sampler = make_sampler("bottom_k", k=64, rng=0)
    _feed_weighted(sampler)
    n = len(sampler.sample())
    keys = sampler.sample().keys
    labels = [int(k) % 2 for k in keys]
    mask = np.array([int(k) % 3 == 0 for k in keys])
    by_callable = sampler.query(
        Query("sum", where=lambda k: int(k) % 3 == 0, group_by=lambda k: int(k) % 2)
    )
    by_columns = sampler.query(Query("sum", where=mask, group_by=labels))
    assert by_columns.estimate == pytest.approx(by_callable.estimate, rel=1e-12)
    for g in by_callable.groups:
        assert by_columns[g].estimate == pytest.approx(
            by_callable[g].estimate, rel=1e-12
        )
    with pytest.raises(ValueError, match="align with the sample rows"):
        sampler.query(Query("sum", where=np.ones(n + 1, dtype=bool)))
    with pytest.raises(ValueError, match="align with the sample rows"):
        sampler.query(Query("sum", group_by=[0] * (n + 1)))


def test_group_by_tuple_labels():
    """Multi-column group-bys (tuple labels) must not be stacked by numpy."""
    sampler = make_sampler("bottom_k", k=64, rng=0)
    _feed_weighted(sampler)
    grouped = sampler.query(
        Query("sum", group_by=lambda k: (int(k) % 2, int(k) % 3))
    )
    assert set(grouped.groups) == {(a, b) for a in (0, 1) for b in (0, 1, 2)}
    for (a, b), sub in grouped.groups.items():
        direct = sampler.query(
            Query(
                "sum",
                where=lambda k, a=a, b=b: int(k) % 2 == a and int(k) % 3 == b,
            )
        )
        assert sub.estimate == pytest.approx(direct.estimate, rel=1e-12)


def test_group_by_mixed_type_labels_keep_python_semantics():
    """Heterogeneous labels must not be silently stringified by numpy."""
    sampler = make_sampler("bottom_k", k=64, rng=0)
    _feed_weighted(sampler)
    grouped = sampler.query(
        Query("count", group_by=lambda k: "even" if int(k) % 2 == 0 else 1)
    )
    assert set(grouped.groups) == {"even", 1}
    assert grouped["even"].estimate > 0
    assert grouped[1].estimate > 0


def test_grouped_distinct_group_by_is_native():
    """grouped_distinct rows are (group, key) pairs; group_by fans them out."""
    sketch = make_sampler("grouped_distinct", m=4, k=8, salt=0)
    _feed_grouped(sketch)
    result = sketch.query(Query("distinct", group_by=lambda gk: gk[0]))
    assert set(result.groups) <= {f"g{i}" for i in range(5)}
    assert result.estimate == pytest.approx(
        sum(sub.estimate for sub in result.groups.values()), rel=1e-9
    )


# ----------------------------------------------------------------------
# Value column resolution
# ----------------------------------------------------------------------
def test_value_weight_recovers_weighted_subset_sum():
    """value="weight" on weighted_distinct is §3.4's weighted S_hat(A)."""
    sketch = make_sampler("weighted_distinct", k=256, salt=1)
    _feed_weighted(sketch)
    predicate = lambda k: int(k) % 3 == 0  # noqa: E731
    via_query = sketch.query(Query("sum", where=predicate, value="weight"))
    via_legacy = sketch.estimate("subset_sum", predicate=predicate)
    assert via_query.estimate == pytest.approx(via_legacy, rel=1e-9)


def test_value_callable_column():
    sampler = make_sampler("bottom_k", k=64, rng=0)
    _feed_weighted(sampler)
    doubled = sampler.query(Query("sum", value=lambda k: 2.0))
    counted = sampler.query(Query("count"))
    assert doubled.estimate == pytest.approx(2.0 * counted.estimate, rel=1e-12)


# ----------------------------------------------------------------------
# Result cache / state versioning
# ----------------------------------------------------------------------
def test_cache_hits_between_updates_and_invalidates_on_mutation():
    sampler = make_sampler("bottom_k", k=32, rng=0)
    _feed_weighted(sampler)
    q = Query("sum", ci=0.95)
    first = sampler.query(q)
    assert sampler.query(q) is first  # cached object, no re-execution
    v = sampler.state_version
    sampler.update(10**9, weight=5.0)
    assert sampler.state_version == v + 1
    second = sampler.query(q)
    assert second is not first


def test_cache_invalidates_on_trim_and_window_advance():
    """Sampler-specific public mutators bump state_version too: a trim
    or window advance must never replay pre-mutation cached answers."""
    sketch = make_sampler("adaptive_distinct", k=64, salt=0)
    sketch.update_many(np.arange(1000))
    q = Query("distinct")
    before = sketch.query(q)
    sketch.trim(8)
    after = sketch.query(q)
    assert after is not before
    assert after.estimate == pytest.approx(sketch.estimate("distinct"), rel=1e-12)

    window = make_sampler("sliding_window", k=16, window=10.0, rng=0)
    window.update_many(np.arange(100), times=np.linspace(0.0, 1.0, 100))
    q = Query("count")
    populated = window.query(q)
    window.advance(1000.0)  # everything expires
    emptied = window.query(q)
    assert emptied is not populated
    assert emptied.estimate == 0.0


def test_cache_invalidates_on_merge_and_state_restore():
    a = make_sampler("weighted_distinct", k=32, salt=0)
    b = make_sampler("weighted_distinct", k=32, salt=0)
    a.update_many(np.arange(0, 2000))
    b.update_many(np.arange(2000, 4000))
    q = Query("distinct")
    before = a.query(q)
    a.merge(b)
    after = a.query(q)
    assert after is not before
    assert after.estimate > before.estimate
    revived = repro.sampler_from_state(a.to_state())
    assert revived.query(q).estimate == pytest.approx(after.estimate, rel=1e-12)


def test_cache_never_serves_stale_answers_for_mutated_mask_buffers():
    """Precomputed columns fingerprint by content: rewriting a mask
    buffer in place must re-execute, not replay the cached answer."""
    sampler = make_sampler("bottom_k", k=64, rng=0)
    _feed_weighted(sampler)
    keys = sampler.sample().keys
    mask = np.array([int(k) % 2 == 0 for k in keys])
    first = sampler.query(Query("sum", where=mask))
    mask[:] = [int(k) % 2 == 1 for k in keys]  # same buffer, new content
    second = sampler.query(Query("sum", where=mask))
    direct = sampler.query(Query("sum", where=lambda k: int(k) % 2 == 1))
    assert second.estimate == pytest.approx(direct.estimate, rel=1e-12)
    assert second.estimate != first.estimate
    # Same story for python-list label columns.
    labels = [int(k) % 2 for k in keys]
    a = sampler.query(Query("count", group_by=labels))
    labels_copy = list(labels)
    b = sampler.query(Query("count", group_by=labels_copy))
    assert a is b  # equal content -> same cache entry


def test_hash_colliding_columns_do_not_share_cache_entries():
    """Fingerprints embed column *content*: hash collisions (CPython's
    hash(-1) == hash(-2)) must not serve another column's cached answer."""
    sampler = make_sampler("bottom_k", k=16, rng=0)
    sampler.update_many(np.arange(100))
    assert hash((-1,)) == hash((-2,))  # the collision this guards against
    n = len(sampler.sample())
    a = sampler.query(Query("sum", group_by=[-1] * n))
    b = sampler.query(Query("sum", group_by=[-2] * n))
    assert set(a.groups) == {-1}
    assert set(b.groups) == {-2}


def test_to_dict_disambiguates_colliding_group_labels():
    """int 1 and str "1" groups must both survive serialization."""
    sampler = make_sampler("bottom_k", k=16, rng=0)
    sampler.update_many(np.arange(100))
    n = len(sampler.sample())
    labels = [1 if i % 2 else "1" for i in range(n)]
    result = sampler.query(Query("count", group_by=labels))
    assert set(result.groups) == {1, "1"}
    d = result.to_dict()
    assert len(d["groups"]) == 2
    assert set(d["groups"]) == {"1", "'1'"}


def test_equal_queries_same_object_share_cache_entries():
    sampler = make_sampler("bottom_k", k=32, rng=0)
    _feed_weighted(sampler)
    predicate = lambda k: int(k) % 2 == 0  # noqa: E731
    q = Query("sum", where=predicate)
    assert sampler.query(q) is sampler.query(q)
    # A distinct-but-equivalent predicate misses the cache yet agrees.
    other = sampler.query(Query("sum", where=lambda k: int(k) % 2 == 0))
    assert other is not sampler.query(q)
    assert other.estimate == pytest.approx(sampler.query(q).estimate, rel=1e-12)


def test_query_entry_point_forms_agree():
    sampler = make_sampler("bottom_k", k=32, rng=0)
    _feed_weighted(sampler)
    spec = Query("count")
    assert sampler.query(spec).estimate == sampler.query("count").estimate
    assert sampler.query(aggregate="count").estimate == sampler.query(spec).estimate
    with pytest.raises(TypeError, match="not both"):
        sampler.query(spec, ci=0.5)
    with pytest.raises(TypeError, match="takes a Query"):
        sampler.query(12)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_samplers_and_results_stay_picklable_after_queries():
    """Querying (even with lambdas) must not break sampler pickling, and
    results — groups proxy included — pickle on their own."""
    import pickle

    sampler = make_sampler("bottom_k", k=32, rng=0)
    _feed_weighted(sampler)
    grouped = sampler.query(Query("sum", group_by=lambda k: int(k) % 2))
    revived = pickle.loads(pickle.dumps(sampler))
    assert revived.query(Query("count")).estimate == pytest.approx(
        sampler.query(Query("count")).estimate, rel=1e-12
    )
    round_tripped = pickle.loads(pickle.dumps(grouped))
    assert dict(round_tripped.to_dict()) == dict(grouped.to_dict())
    with pytest.raises(TypeError):  # still read-only after the round trip
        round_tripped.groups[0] = None


def test_query_spec_validation():
    with pytest.raises(ValueError, match="unknown aggregate"):
        Query("median")
    with pytest.raises(ValueError, match="only valid for the topk"):
        Query("sum", k=5)
    with pytest.raises(ValueError, match="only valid for the quantile"):
        Query("sum", q=0.5)
    with pytest.raises(ValueError, match="q must lie"):
        Query("quantile", q=1.5)
    with pytest.raises(ValueError, match="confidence level"):
        Query("sum", ci=95)
    with pytest.raises(ValueError, match="value="):
        Query("sum", value="weights")


def test_result_to_dict_round_trips_shapes():
    sampler = make_sampler("bottom_k", k=64, rng=0)
    _feed_weighted(sampler)
    grouped = sampler.query(Query("topk", k=3, group_by=lambda k: int(k) % 2))
    d = grouped.to_dict()
    assert d["aggregate"] == "topk"
    assert set(d["groups"]) == {"0", "1"}
    assert all(isinstance(row, dict) for row in d["estimate"])
    with pytest.raises(KeyError):
        sampler.query(Query("count"))["nope"]


# ----------------------------------------------------------------------
# Sharded execution
# ----------------------------------------------------------------------
#: Hash-coordinated sketches whose shard-then-merge state is bit-exact, so
#: query answers must be bit-identical too (canonical row ordering makes
#: the float reductions order-independent).
COORDINATED_SPECS = [
    ("weighted_distinct", {"k": 128, "salt": 3}, _feed_weighted),
    ("kmv", {"k": 64, "salt": 3}, _feed_unweighted),
    ("theta", {"k": 64, "salt": 3}, _feed_unweighted),
    (
        "bottom_k",
        {"k": 128, "family": "uniform", "coordinated": True, "salt": 3},
        _feed_unweighted,
    ),
]


@pytest.mark.parametrize(
    "name,params,feed", COORDINATED_SPECS, ids=[s[0] for s in COORDINATED_SPECS]
)
def test_sharded_query_answers_bit_identical(name, params, feed):
    single = make_sampler(name, **params)
    engine = ShardedSampler({"name": name, "params": params}, n_shards=4)
    feed(single)
    feed(engine)
    with_variance = single.query_variance is True
    level = 0.95 if with_variance else None
    for aggregate in single.supported_aggregates():
        q = Query(aggregate=aggregate, ci=level)
        a = single.query(q)
        b = engine.query(q)
        if aggregate == "topk":
            assert a.estimate == b.estimate
        else:
            assert a.estimate == b.estimate
            assert a.variance == b.variance
            assert a.ci == b.ci


def test_sharded_engine_mirrors_capabilities():
    engine = ShardedSampler({"name": "kmv", "params": {"k": 16}}, n_shards=2)
    kmv_cls = repro.KMVSketch
    assert engine.supported_aggregates() == tuple(
        a for a in QUERY_AGGREGATES if kmv_cls.query_capabilities[a] is True
    )
    with pytest.raises(QueryCapabilityError, match="retains only hash values"):
        engine.query("sum")
