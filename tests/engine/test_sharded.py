"""Behavioral tests for the sharded ingestion engine.

The StreamSampler contract (construction, batch equivalence, chunking,
checkpointing, merge algebra) is exercised by the registry-wide suite in
``tests/api/test_contract.py``; this module covers what is specific to the
engine: hash routing, merge-tree reduction semantics, capability
rejection, composition (engine-of-engine, engine-to-engine merges), and
restoring checkpoints of the earlier state version.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro
from repro import ShardedSampler, make_sampler, mergeable_samplers
from repro.core.hashing import batch_shard_indices, shard_of
from repro.serve.cluster.mux import TenantMuxSampler, install_op

from tests.helpers import sample_signature

N = 6000


def _stream(seed: int = 0, n: int = N, universe: int = 2000):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, universe, n)
    per_key = np.random.default_rng(seed + 1).lognormal(0.0, 0.6, universe)
    return keys, per_key[keys]


def _engine(name="bottom_k", params=None, **kw):
    params = {"k": 48} if params is None else params
    kw.setdefault("n_shards", 4)
    kw.setdefault("seed", 3)
    return ShardedSampler({"name": name, "params": params}, **kw)


class TestRouting:
    def test_scalar_and_batch_routing_agree(self):
        keys, weights = _stream()
        via_batch = _engine()
        via_batch.update_many(keys, weights)
        via_scalar = _engine()
        for key, w in zip(keys.tolist(), weights):
            via_scalar.update(key, float(w))
        assert sample_signature(via_batch) == sample_signature(via_scalar)

    def test_every_occurrence_of_a_key_hits_one_shard(self):
        keys, weights = _stream(universe=50)  # heavy duplication
        engine = _engine(params={"k": 1000})
        engine.update_many(keys, weights)
        seen: dict[object, int] = {}
        for index, shard in enumerate(engine.shards):
            for key in shard.sample().keys:
                assert seen.setdefault(key, index) == index
        assert shard_of(7, 4, salt=0) == int(batch_shard_indices([7], 4)[0])

    def test_float_keys_route_alike_from_array_list_and_scalar_feeds(self):
        """A float64 key array routes by its Python values, as the list
        and the scalar ``update`` feeds do, so all three engines end in
        the same state."""
        rng = np.random.default_rng(8)
        keys = rng.normal(0.0, 50.0, 300).round(2)
        weights = rng.lognormal(0.0, 0.6, 300)
        states = []
        for batch in (keys, keys.tolist()):
            engine = _engine()
            engine.update_many(batch, weights)
            states.append(engine.to_state())
        scalar = _engine()
        for key, w in zip(keys.tolist(), weights.tolist()):
            scalar.update(key, w)
        states.append(scalar.to_state())
        assert states[0] == states[1] == states[2]

    def test_partition_respects_salt(self):
        keys = np.arange(512)
        assert not np.array_equal(
            batch_shard_indices(keys, 4, salt=0),
            batch_shard_indices(keys, 4, salt=1),
        )

    def test_string_keys_route_consistently(self):
        engine = _engine(name="kmv", params={"k": 32, "salt": 2})
        labels = [f"user-{i % 40}" for i in range(500)]
        engine.update_many(labels)
        single = make_sampler("kmv", k=32, salt=2)
        single.update_many(labels)
        assert engine.estimate("distinct") == single.estimate("distinct")

    def test_partition_batch_is_the_dispatch_split(self):
        """The public partition helper: key-disjoint, order-preserving
        within a shard, covering every row exactly once, and agreeing
        with the hash routing ``update_many`` dispatches."""
        keys, weights = _stream(universe=60)
        engine = _engine()
        work = engine.partition_batch(keys, weights=weights)
        assert {s for s, _ in work} <= set(range(engine.n_shards))
        routed = batch_shard_indices(keys, engine.n_shards, engine.salt)
        covered = 0
        for shard_index, cols in work:
            positions = np.flatnonzero(routed == shard_index)
            assert np.array_equal(cols["keys"], keys[positions])  # in order
            assert np.array_equal(cols["weights"], weights[positions])
            covered += len(cols["keys"])
        assert covered == len(keys)
        assert engine.partition_batch([]) == []
        with pytest.raises(ValueError, match="same length"):
            engine.partition_batch(keys, weights=weights[:-1])


class TestReduction:
    def test_reduction_is_pure_and_cached(self):
        keys, weights = _stream()
        engine = _engine()
        engine.update_many(keys, weights)
        before = [shard.to_state() for shard in engine.shards]
        first = engine.reduced()
        assert engine.reduced() is first, "reduction should be cached"
        assert [shard.to_state() for shard in engine.shards] == before, (
            "merge tree must not mutate shard state"
        )
        engine.update(999_999, 1.0)
        assert engine.reduced() is not first, "updates must invalidate cache"

    def test_single_shard_reduces_to_a_copy(self):
        engine = _engine(n_shards=1)
        keys, weights = _stream(n=500)
        engine.update_many(keys, weights)
        reduced = engine.reduced()
        assert reduced is not engine.shards[0]
        assert sample_signature(reduced) == sample_signature(engine.shards[0])

    @pytest.mark.parametrize("n_shards", [2, 3, 4, 7])
    def test_population_size_survives_reduction(self, n_shards):
        keys, weights = _stream()
        engine = _engine(n_shards=n_shards)
        engine.update_many(keys, weights)
        assert engine.sample().population_size == N

    @pytest.mark.parametrize("name,params", [
        ("kmv", {"k": 64, "salt": 5}),
        ("theta", {"k": 64, "salt": 5}),
        ("weighted_distinct", {"k": 64, "salt": 5}),
        ("bottom_k", {"k": 64, "coordinated": True, "salt": 5}),
    ])
    def test_shard_then_merge_equals_single_instance_for_coordinated(
        self, name, params
    ):
        """For hash-coordinated sketches the merge tree reproduces the
        single-instance sketch *exactly* (same keys, priorities, and
        thresholds) — the strongest form of the paper's mergeability."""
        keys, weights = _stream(seed=4)
        single = make_sampler(name, **params)
        engine = _engine(name=name, params=params, n_shards=5)
        if name == "weighted_distinct":
            single.update_many(keys, weights)
            engine.update_many(keys, weights)
        else:
            single.update_many(keys)
            engine.update_many(keys)
        assert sample_signature(engine) == sample_signature(single)

    def test_adaptive_distinct_merge_retains_single_instance_keys(self):
        """The §3.5 per-entry-max merge keeps *more* than the plain union:
        every key the single-instance sketch retains must survive."""
        keys, _ = _stream(seed=4)
        single = make_sampler("adaptive_distinct", k=64, salt=5)
        engine = _engine(
            name="adaptive_distinct", params={"k": 64, "salt": 5}
        )
        single.update_many(keys)
        engine.update_many(keys)
        single_keys = {repr(key) for key in single.sample().keys}
        engine_keys = {repr(key) for key in engine.sample().keys}
        assert single_keys <= engine_keys


class TestCapabilities:
    def test_rejects_every_non_mergeable_registered_name(self):
        mergeable = set(mergeable_samplers())
        assert mergeable == {
            "adaptive_distinct", "bottom_k", "kmv", "poisson", "sharded",
            "theta", "weighted_distinct",
        }
        for name in repro.available_samplers():
            if name in mergeable:
                continue
            with pytest.raises(ValueError, match="not mergeable"):
                ShardedSampler(name, n_shards=2)

    def test_bad_spec_and_shard_count(self):
        with pytest.raises(TypeError, match="spec"):
            ShardedSampler(42, n_shards=2)
        with pytest.raises(ValueError, match="n_shards"):
            _engine(n_shards=0)
        with pytest.raises(ValueError, match="unknown sampler"):
            ShardedSampler("no_such_sampler", n_shards=2)


class TestComposition:
    def test_engines_merge_shard_wise(self):
        keys, weights = _stream()
        half = N // 2
        whole = _engine()
        whole.update_many(keys, weights)
        left, right = _engine(), _engine(seed=9)
        left.update_many(keys[:half], weights[:half])
        right.update_many(keys[half:], weights[half:])
        union = left | right
        assert isinstance(union, ShardedSampler)
        assert union.sample().population_size == N
        # Coordinated specs make the shard-wise merge exactly reproducible.
        coord = {"k": 48, "coordinated": True, "salt": 1}
        whole_c = _engine(params=coord)
        whole_c.update_many(keys, weights)
        left_c, right_c = _engine(params=coord), _engine(params=coord)
        left_c.update_many(keys[:half], weights[:half])
        right_c.update_many(keys[half:], weights[half:])
        assert sample_signature(left_c | right_c) == sample_signature(whole_c)

    def test_merge_rejects_incompatible_engines(self):
        base = _engine()
        with pytest.raises(TypeError):
            base.merge(make_sampler("bottom_k", k=48))
        with pytest.raises(ValueError, match="n_shards"):
            base.merge(_engine(n_shards=2))
        with pytest.raises(ValueError, match="spec"):
            base.merge(_engine(params={"k": 32}))
        with pytest.raises(ValueError, match="salt"):
            base.merge(_engine(salt=5))

    def test_engine_of_engines(self):
        """The engine registers as mergeable, so it composes with itself.

        Inner engines must use a different partition salt, otherwise the
        outer partition leaves them with degenerate key slices.
        """
        inner = {
            "name": "sharded",
            "params": {
                "spec": {"name": "kmv", "params": {"k": 32, "salt": 7}},
                "n_shards": 2, "salt": 1,
            },
        }
        outer = ShardedSampler(inner, n_shards=2, salt=0)
        keys, _ = _stream(n=2000)
        outer.update_many(keys)
        single = make_sampler("kmv", k=32, salt=7)
        single.update_many(keys)
        assert outer.estimate("distinct") == pytest.approx(
            single.estimate("distinct")
        )
        revived = repro.sampler_from_state(outer.to_state())
        assert sample_signature(revived) == sample_signature(outer)


class TestFacade:
    def test_estimate_kinds_follow_the_shard_class(self):
        engine = _engine(name="weighted_distinct", params={"k": 32, "salt": 1})
        assert engine.estimate_kinds() == ("distinct", "subset_sum")
        assert engine.default_estimate_kind == "distinct"
        keys, weights = _stream(n=1000)
        engine.update_many(keys, weights)
        assert engine.estimate() > 0
        assert engine.estimate(
            "subset_sum", predicate=lambda key: key % 2 == 0
        ) >= 0
        with pytest.raises(ValueError, match="no estimator kind"):
            engine.estimate("window_count")

    def test_len_and_update_verdict(self):
        engine = _engine(params={"k": 8})
        assert len(engine) == 0
        assert engine.update(1, 1.0) is True
        assert len(engine) == 1

    def test_per_shard_rng_streams_differ_but_are_reproducible(self):
        first = _engine()
        rngs = [shard.rng.random() for shard in first.shards]
        assert len(set(rngs)) == len(rngs), "shard RNG streams must differ"
        again = _engine()
        assert [shard.rng.random() for shard in again.shards] == rngs


class TestInputValidation:
    def test_column_length_mismatch_is_a_clear_error(self):
        engine = _engine()
        with pytest.raises(ValueError, match="same length as keys"):
            engine.update_many(list(range(10)), weights=[1.0] * 5)
        with pytest.raises(ValueError, match="same length as keys"):
            engine.update_many(list(range(10)), weights=[1.0] * 20)

    def test_bool_keys_route_identically_scalar_and_batch(self):
        assert batch_shard_indices(np.array([True, False]), 4).tolist() == [
            shard_of(True, 4), shard_of(False, 4)
        ]

    def test_class_level_introspection_stays_sane(self):
        """Instance attributes mirror the shard class; the ShardedSampler
        class itself must still expose the protocol defaults (plain
        values, not property objects or unbound methods)."""
        assert ShardedSampler.default_estimate_kind == "total"
        assert ShardedSampler.estimate_kinds() == ()
        engine = _engine(name="kmv", params={"k": 16, "salt": 0})
        assert engine.default_estimate_kind == "distinct"
        assert engine.estimate_kinds() == ("distinct",)

    def test_nested_engines_get_independent_leaf_rng_streams(self):
        """Regression: inner engines used to fall back to seed=0 in every
        outer shard, duplicating leaf RNG streams across shards."""
        inner = {
            "name": "sharded",
            "params": {
                "spec": {"name": "bottom_k", "params": {"k": 8}},
                "n_shards": 2, "salt": 1,
            },
        }
        outer = ShardedSampler(inner, n_shards=2, seed=99)
        draws = [
            leaf.rng.random()
            for inner_engine in outer.shards
            for leaf in inner_engine.shards
        ]
        assert len(set(draws)) == len(draws)
        again = ShardedSampler(inner, n_shards=2, seed=99)
        assert [
            leaf.rng.random()
            for inner_engine in again.shards
            for leaf in inner_engine.shards
        ] == draws


#: A 2-shard KMV engine checkpoint exactly as version-1 code wrote it
#: (keys 0-9 ingested, thread dispatch configured).
V1_ENGINE_STATE = {
    "sampler": "sharded", "version": 1,
    "params": {
        "spec": {"name": "kmv", "params": {"k": 3, "salt": 0}},
        "n_shards": 2, "seed": 0, "salt": 0,
        "parallel": "thread", "max_workers": 2,
    },
    "state": {"shards": [
        {"sampler": "kmv", "version": 1, "params": {"k": 3, "salt": 0},
         "state": {"hashes": [0.034011701304346456, 0.11772953082026642,
                              0.4995499327207215],
                   "exact": 4, "cap": 1.0}},
        {"sampler": "kmv", "version": 1, "params": {"k": 3, "salt": 0},
         "state": {"hashes": [0.24491767505262285, 0.39354525252110645,
                              0.8927182021782565],
                   "exact": 3, "cap": 1.0}},
    ]},
}


class TestCheckpointVersion:
    @staticmethod
    def _current() -> ShardedSampler:
        engine = ShardedSampler(
            {"name": "kmv", "params": {"k": 3, "salt": 0}}, n_shards=2
        )
        engine.update_many(list(range(10)))
        return engine

    def test_version_1_engine_restores_bit_exactly(self):
        """The upgrade drops the dispatch params and nothing else: the
        revived engine equals one the current code built and fed, and
        keeps ingesting in step with it."""
        revived = repro.sampler_from_state(copy.deepcopy(V1_ENGINE_STATE))
        current = self._current()
        assert revived.to_state() == current.to_state()
        revived.update_many(list(range(10, 40)))
        current.update_many(list(range(10, 40)))
        assert revived.to_state() == current.to_state()

    def test_version_1_engine_inside_a_tenant_mux_restores(self):
        """Serve and cluster checkpoints nest engine states; here one is a
        tenant whose spec carries the version-1 params too."""
        engine_state = copy.deepcopy(V1_ENGINE_STATE)
        mux_state = {
            "sampler": "tenant_mux", "version": 1,
            "params": {"tenants": {"acme": {
                "name": "sharded", "params": engine_state["params"],
            }}},
            "state": {"children": {"acme": engine_state},
                      "applied": {"acme": 10}, "order": ["acme"]},
        }
        mux = repro.sampler_from_state(mux_state)
        assert (mux.tenant_sampler("acme").to_state()
                == self._current().to_state())
        again = repro.sampler_from_state(mux.to_state())
        assert again.to_state() == mux.to_state()
        # A rebalance handoff logged by version-1 code replays the same way.
        replayed = TenantMuxSampler()
        replayed.apply_admin(
            install_op("acme", copy.deepcopy(V1_ENGINE_STATE))
        )
        assert replayed.to_state()["params"] == mux.to_state()["params"]

    def test_newer_version_is_refused_by_name(self):
        state = self._current().to_state()
        state["version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            repro.sampler_from_state(state)
        nested = self._current().to_state()
        nested["state"]["shards"][1]["version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            repro.sampler_from_state(nested)
