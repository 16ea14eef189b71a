"""Shared contract test for every registered sampler.

One parametrized suite exercises the :class:`repro.api.StreamSampler`
protocol across the whole registry:

* construction through ``make_sampler(name, **params)``;
* ``update`` vs ``update_many`` equivalence (same seed => same sample);
* merge semantics: in-place ``merge`` returns self, ``|`` is pure, and
  merging is associative-in-distribution on disjoint streams;
* ``to_state`` / ``from_state`` round-trips, including resuming a stream
  from a checkpoint with bit-identical results, and every restore path
  reading the checkpoint's ``version`` field.

Each sampler's :class:`Case` row says how to feed it and whether it
merges.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import repro
from tests.helpers import sample_signature
from repro.api import (
    StreamSampler,
    available_samplers,
    get_sampler_class,
    make_sampler,
    merged,
    register_sampler,
)
from repro.api.protocol import STATE_VERSION
from repro.workloads.zipf import zipf_stream

N = 400


def _keys(start: int = 0, n: int = N) -> np.ndarray:
    return np.arange(start, start + n)


def _weights(n: int = N, seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).lognormal(0.0, 0.6, n)


@dataclass
class Case:
    """Contract-test configuration for one registered sampler."""

    name: str
    params: dict
    #: feed(sampler, keys, weights) — scalar update loop.
    feed: Callable
    #: feed_many(sampler, keys, weights) — one update_many call.
    feed_many: Callable | None = None
    supports_merge: bool = False


def _plain_feed(sampler, keys, weights):
    for key, w in zip(keys, weights):
        sampler.update(int(key), float(w))


def _plain_feed_many(sampler, keys, weights):
    sampler.update_many(keys, weights)


def _unweighted_feed(sampler, keys, weights):
    for key in keys:
        sampler.update(int(key))


def _unweighted_feed_many(sampler, keys, weights):
    sampler.update_many(keys)


def _timed_feed(sampler, keys, weights):
    # Arrival time derives from the key so checkpoint-resume feeds continue
    # the clock instead of restarting it.
    for key, w in zip(keys, weights):
        sampler.update(int(key), float(w), time=int(key) * 0.01)


def _timed_feed_many(sampler, keys, weights):
    sampler.update_many(keys, weights, times=np.asarray(keys) * 0.01)


def _window_feed(sampler, keys, weights):
    for key in keys:
        sampler.update(int(key), time=int(key) * 0.01)


def _window_feed_many(sampler, keys, weights):
    sampler.update_many(keys, times=np.asarray(keys) * 0.01)


def _budget_feed(sampler, keys, weights):
    for key, w in zip(keys, weights):
        sampler.update(int(key), float(w), size=1.0)


def _budget_feed_many(sampler, keys, weights):
    sampler.update_many(keys, weights, sizes=np.ones(len(keys)))


def _grouped_feed(sampler, keys, weights):
    for key in keys:
        sampler.update(int(key), group=f"g{int(key) % 7}")


def _grouped_feed_many(sampler, keys, weights):
    sampler.update_many(keys, groups=[f"g{int(k) % 7}" for k in keys])


def _stratified_feed(sampler, keys, weights):
    for key in keys:
        sampler.update(int(key), strata=(int(key) % 3, int(key) % 5))


def _stratified_feed_many(sampler, keys, weights):
    sampler.update_many(
        keys, strata=[(int(k) % 3, int(k) % 5) for k in keys]
    )


def _mux_feed(sampler, keys, weights):
    # Composite (tenant, key) rows, interleaved across three tenants.
    for key, w in zip(keys, weights):
        sampler.update((f"t{int(key) % 3}", int(key)), float(w))


def _mux_feed_many(sampler, keys, weights):
    rows = [(f"t{int(key) % 3}", int(key)) for key in keys]
    sampler.update_many(rows, weights)


def _multi_objective_feed(sampler, keys, weights):
    for key, w in zip(keys, weights):
        sampler.update(int(key), weights={"a": float(w), "b": 1.0 + float(w)})


def _multi_objective_feed_many(sampler, keys, weights):
    weights = np.asarray(weights, dtype=float)
    sampler.update_many(keys, weights={"a": weights, "b": 1.0 + weights})


CASES = [
    Case("bottom_k", {"k": 32}, _plain_feed, _plain_feed_many,
         supports_merge=True),
    Case("bottom_k", {"k": 32, "coordinated": True, "salt": 3}, _plain_feed,
         _plain_feed_many, supports_merge=True),
    Case("poisson", {"threshold": 0.25}, _plain_feed, _plain_feed_many,
         supports_merge=True),
    Case("budget", {"budget": 48.0}, _budget_feed, _budget_feed_many),
    Case("sliding_window", {"k": 16, "window": 1.0}, _window_feed,
         _window_feed_many),
    Case("top_k", {"k": 8}, _unweighted_feed, _unweighted_feed_many),
    Case("weighted_distinct", {"k": 32, "salt": 1}, _plain_feed,
         _plain_feed_many, supports_merge=True),
    Case("adaptive_distinct", {"k": 32, "salt": 1}, _unweighted_feed,
         _unweighted_feed_many, supports_merge=True),
    Case("grouped_distinct", {"m": 4, "k": 8, "salt": 2}, _grouped_feed,
         _grouped_feed_many),
    Case("multi_stratified", {"n_dims": 2, "k": 8, "salt": 2},
         _stratified_feed, _stratified_feed_many),
    Case("multi_objective", {"k": 16, "objectives": ("a", "b"), "salt": 4},
         _multi_objective_feed, _multi_objective_feed_many),
    Case("variance_target", {"delta": 4.0}, _plain_feed, _plain_feed_many),
    Case("time_decay", {"k": 16, "decay_rate": 0.05}, _timed_feed,
         _timed_feed_many),
    Case("varopt", {"k": 16}, _plain_feed, _plain_feed_many),
    Case("kmv", {"k": 32, "salt": 1}, _unweighted_feed,
         _unweighted_feed_many, supports_merge=True),
    Case("theta", {"k": 32, "salt": 1}, _unweighted_feed,
         _unweighted_feed_many, supports_merge=True),
    Case("frequent_items", {"max_map_size": 64}, _unweighted_feed,
         _unweighted_feed_many),
    Case("space_saving", {"capacity": 32}, _unweighted_feed,
         _unweighted_feed_many),
    Case("unbiased_space_saving", {"capacity": 32}, _unweighted_feed,
         _unweighted_feed_many),
    # The cluster-worker multiplexer: independent per-tenant children fed
    # through composite (tenant, key) rows.
    Case("tenant_mux",
         {"tenants": {
             f"t{i}": {"name": "bottom_k", "params": {"k": 16, "rng": 40 + i}}
             for i in range(3)
         }},
         _mux_feed, _mux_feed_many),
    # The sharded engine is itself a registered, composable sampler.
    Case("sharded",
         {"spec": {"name": "bottom_k", "params": {"k": 32}},
          "n_shards": 4, "seed": 11},
         _plain_feed, _plain_feed_many, supports_merge=True),
]

IDS = [f"{c.name}[{i}]" for i, c in enumerate(CASES)]


def _build(case: Case) -> StreamSampler:
    return make_sampler(case.name, **case.params)


#: Canonical sample view shared with the engine/property suites.
_sample_signature = sample_signature


def _at_version(state: dict, version: int) -> dict:
    """A copy of ``state`` with every checkpoint in its tree stamped
    ``version``.  At version 1 a sharded engine also carries the dispatch
    params version-1 code wrote (``parallel="serial"``, ``max_workers`` =
    ``n_shards``)."""
    def stamp(node):
        if isinstance(node, list):
            return [stamp(item) for item in node]
        if not isinstance(node, dict):
            return copy.deepcopy(node)
        out = {key: stamp(value) for key, value in node.items()}
        if "sampler" in out and "state" in out:
            out["version"] = version
            if version == 1 and out["sampler"] == "sharded":
                out["params"] = {
                    **out["params"],
                    "parallel": "serial",
                    "max_workers": out["params"]["n_shards"],
                }
        return out

    return stamp(state)


class TestRegistryCoverage:
    def test_every_registered_sampler_has_a_case(self):
        covered = {c.name for c in CASES}
        assert covered == set(available_samplers())

    def test_register_sampler_refuses_a_class_outside_the_protocol(self):
        class Plain:
            def update(self, key, weight=1.0):
                pass

        with pytest.raises(TypeError, match="not a StreamSampler"):
            register_sampler("plain")(Plain)
        with pytest.raises(TypeError, match="not a StreamSampler"):
            register_sampler("plain")(lambda: None)
        assert "plain" not in available_samplers()
        assert Plain.__dict__.get("sampler_name") is None

    def test_merge_capability_is_declared_on_the_class(self):
        """``cls.mergeable`` is the contract the sharded engine trusts; it
        must agree with what the per-sampler contract rows exercise."""
        for case in CASES:
            cls = get_sampler_class(case.name)
            assert cls.mergeable == case.supports_merge, (
                f"{case.name}: mergeable flag disagrees with contract row"
            )

    def test_make_sampler_unknown_name(self):
        # The offline designs are built by their constructors only.
        for name in ("definitely_not_registered", "cps", "priority_layout",
                     "multi_objective_layout"):
            with pytest.raises(ValueError, match=f"unknown sampler {name!r}"):
                make_sampler(name)

    def test_sampler_spec_builds(self):
        spec = repro.SamplerSpec("bottom_k", {"k": 16})
        sampler = spec.build()
        assert type(sampler).__name__ == "BottomKSampler"
        assert repro.SamplerSpec.from_dict(spec.as_dict()) == spec

    def test_sampler_spec_of_each_form(self):
        spec = repro.SamplerSpec("bottom_k", {"k": 16})
        assert repro.SamplerSpec.of(spec) is spec
        assert repro.SamplerSpec.of(spec.as_dict()) == spec
        assert repro.SamplerSpec.of("kmv") == repro.SamplerSpec("kmv")
        with pytest.raises(TypeError, match="got list"):
            repro.SamplerSpec.of(["bottom_k"])
        for malformed in ({}, {"params": {"k": 3}}, {"name": None},
                          {"name": 3, "params": {}}):
            with pytest.raises(ValueError, match="'name'"):
                repro.SamplerSpec.of(malformed)
        for params in (None, "k=3", [("k", 3)]):
            with pytest.raises(TypeError, match="'params'"):
                repro.SamplerSpec.of({"name": "bottom_k", "params": params})


@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestStreamingContract:
    def test_constructible_and_streams(self, case):
        sampler = _build(case)
        assert isinstance(sampler, StreamSampler)
        assert sampler.sampler_name == case.name
        case.feed(sampler, _keys(), _weights())
        assert len(sampler.sample()) > 0

    def test_update_many_matches_scalar_loop(self, case):
        scalar = _build(case)
        batch = _build(case)
        keys, weights = _keys(), _weights()
        case.feed(scalar, keys, weights)
        case.feed_many(batch, keys, weights)
        assert _sample_signature(scalar) == _sample_signature(batch)

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_update_many_chunking_invariance(self, case, chunk):
        """One big batch == the same stream over arbitrary chunk splits.

        The batch kernels defer work to chunk-internal boundaries
        (recomputations, purges, threshold runs); splitting the stream
        moves those boundaries around, so invariance here pins down that
        the deferral is exact, not approximately right.
        """
        keys, weights = _keys(), _weights()
        whole = _build(case)
        case.feed_many(whole, keys, weights)
        split = _build(case)
        for lo in range(0, N, chunk):
            case.feed_many(
                split, keys[lo:lo + chunk], weights[lo:lo + chunk]
            )
        assert _sample_signature(split) == _sample_signature(whole)

    def test_state_round_trip_preserves_sample(self, case):
        sampler = _build(case)
        case.feed(sampler, _keys(), _weights())
        state = sampler.to_state()
        assert state["sampler"] == case.name
        revived = type(sampler).from_state(state)
        assert _sample_signature(revived) == _sample_signature(sampler)
        polymorphic = repro.sampler_from_state(state)
        assert _sample_signature(polymorphic) == _sample_signature(sampler)

    def test_checkpoint_resume_is_bit_identical(self, case):
        half = N // 2
        keys, weights = _keys(), _weights()
        straight = _build(case)
        case.feed(straight, keys, weights)
        resumed = _build(case)
        case.feed(resumed, keys[:half], weights[:half])
        resumed = type(resumed).from_state(resumed.to_state())
        case.feed(resumed, keys[half:], weights[half:])
        assert _sample_signature(resumed) == _sample_signature(straight)

    def test_restore_reads_the_checkpoint_version(self, case):
        """Both restore paths take a version-1 checkpoint through the
        upgrade to the sampler the current checkpoint restores, and refuse
        a newer version by name instead of misloading it."""
        sampler = _build(case)
        case.feed(sampler, _keys(), _weights())
        state = sampler.to_state()
        assert state["version"] == STATE_VERSION
        newer = STATE_VERSION + 1
        for restore in (type(sampler).from_state, repro.sampler_from_state):
            current = restore(copy.deepcopy(state))
            upgraded = restore(_at_version(state, 1))
            assert upgraded.to_state() == current.to_state()
            assert _sample_signature(upgraded) == _sample_signature(sampler)
            with pytest.raises(ValueError, match=f"version {newer}"):
                restore(_at_version(state, newer))

    def test_merge_in_place_and_pure(self, case):
        if not case.supports_merge:
            pytest.skip("sampler does not support merging")
        a = _build(case)
        b = _build(case)
        case.feed(a, _keys(0), _weights(seed=7))
        case.feed(b, _keys(N), _weights(seed=8))
        before = _sample_signature(a)
        pure = a | b
        assert _sample_signature(a) == before, "| must not mutate its inputs"
        in_place = a.merge(b)
        assert in_place is a, "merge() must return self"
        assert _sample_signature(pure) == _sample_signature(a)

    def test_merge_associative_on_disjoint_streams(self, case):
        if not case.supports_merge:
            pytest.skip("sampler does not support merging")
        parts = []
        for i in range(3):
            s = _build(case)
            case.feed(s, _keys(i * N), _weights(seed=10 + i))
            parts.append(s)
        a, b, c = parts
        left = merged(merged(a, b), c)
        right = merged(a, merged(b, c))
        assert _sample_signature(left) == _sample_signature(right)

    def test_estimate_facade_dispatches(self, case):
        sampler = _build(case)
        case.feed(sampler, _keys(), _weights())
        kinds = sampler.estimate_kinds()
        assert kinds, "every sampler exposes at least one estimator kind"
        assert sampler.default_estimate_kind in kinds
        if case.name in ("top_k", "frequent_items", "space_saving",
                         "unbiased_space_saving"):
            value = sampler.estimate("count", key=int(_keys()[0]))
        elif case.name == "grouped_distinct":
            value = sampler.estimate("distinct", group="g0")
        elif case.name == "multi_objective":
            value = sampler.estimate("total", objective="a")
        else:
            value = sampler.estimate()
        assert np.isfinite(float(value))
        with pytest.raises(ValueError):
            sampler.estimate("no_such_kind_registered")


#: The key-table sketches: their batch paths scan key codes or counters
#: and must leave the state the scalar loop leaves, in the same order.
KEY_TABLE_CASES = {
    "top_k": {"k": 8},
    "multi_stratified": {"n_dims": 2, "k": 8, "salt": 2},
    "frequent_items": {"max_map_size": 64},
    "space_saving": {"capacity": 32},
    "unbiased_space_saving": {"capacity": 32},
}

_BASE = zipf_stream(2000, 600, 1.1, rng=17)


def _signed_zeros() -> np.ndarray:
    """Floats with a mid-frequency zero key, spelled -0.0 every other
    time: the sketches drop and re-admit it under either spelling."""
    keys = (_BASE - 12) * 0.5
    zeros = np.flatnonzero(keys == 0.0)
    keys[zeros[::2]] = -0.0
    return keys


def _with_nans() -> np.ndarray:
    """Floats with ~5% NaN keys: each NaN is a key of its own."""
    keys = _BASE * 0.25 - 3.0
    keys[_BASE % 20 == 7] = np.nan
    return keys


#: Every key form a caller can send: arrays take the batch kernels, the
#: scalar loop sees their ``.tolist()`` values.
KEY_FORMS = {
    "int64_array": lambda: _BASE.astype(np.int64),
    "int_list": lambda: _BASE.tolist(),
    "negative_int_array": lambda: -_BASE.astype(np.int64) - 1,
    "int_array_past_dense_limit": lambda: _BASE.astype(np.int64) + 2**22,
    "uint64_array_past_2_63": lambda: (
        _BASE.astype(np.uint64) + np.uint64(2**63)
    ),
    "str_list": lambda: [f"k{b}" for b in _BASE.tolist()],
    "str_array": lambda: np.array([f"k{b}" for b in _BASE.tolist()]),
    "float64_signed_zeros": _signed_zeros,
    "float64_nan": _with_nans,
    "int_tuple_list": lambda: [(b % 7, b // 7) for b in _BASE.tolist()],
    "bool_list": lambda: [b % 3 == 0 for b in _BASE.tolist()],
}


def _key_table_feed(sampler, keys, start: int) -> None:
    """One ``update_many`` call over batch positions ``start...``; the
    multi-stratified labels follow the stream position, not the key."""
    if sampler.sampler_name != "multi_stratified":
        sampler.update_many(keys)
        return
    sampler.update_many(keys, strata=[
        (i % 3, (i // 7) % 4) for i in range(start, start + len(keys))
    ])


def _key_table_update(sampler, key, i: int) -> None:
    """One scalar ``update`` at stream position ``i``."""
    if sampler.sampler_name == "multi_stratified":
        sampler.update(key, strata=(i % 3, (i // 7) % 4))
    else:
        sampler.update(key)


def _key_table_scalar(sampler, keys) -> None:
    seq = keys.tolist() if isinstance(keys, np.ndarray) else keys
    for i, key in enumerate(seq):
        _key_table_update(sampler, key, i)


@pytest.mark.parametrize(
    "chunk", [None, 777, 64], ids=["whole", "chunks_777", "chunks_64"]
)
@pytest.mark.parametrize("form", list(KEY_FORMS))
@pytest.mark.parametrize("name", list(KEY_TABLE_CASES))
def test_key_table_batch_matches_scalar_loop_on_every_key_form(
    name, form, chunk
):
    """``update_many`` on any key form leaves the scalar loop's exact
    ``to_state()`` — row order and key spellings included (``repr``
    tells ``0.0`` from ``-0.0`` and compares NaN keys), which the
    order-free :func:`sample_signature` cannot see.  64-event calls are
    smaller than the tables, so they find their tracked keys by looking
    the batch's keys up in the table rather than the table in the
    batch."""
    keys = KEY_FORMS[form]()
    scalar = make_sampler(name, **KEY_TABLE_CASES[name])
    _key_table_scalar(scalar, keys)
    batch = make_sampler(name, **KEY_TABLE_CASES[name])
    step = chunk or len(keys)
    for lo in range(0, len(keys), step):
        _key_table_feed(batch, keys[lo:lo + step], lo)
    assert batch.items_seen == scalar.items_seen == len(keys)
    assert repr(batch.to_state()) == repr(scalar.to_state())


@pytest.mark.parametrize("name", list(KEY_TABLE_CASES))
def test_key_table_batch_finds_table_keys_of_another_type(name):
    """A table holding float keys meets an int batch: ``1`` finds the
    ``1.0`` entry, as the scalar loop's dict lookup does, and neither
    path respells the label it keeps."""
    floats = (_BASE[:500] * 1.0).tolist()
    ints = _BASE[500:].astype(np.int64)
    scalar = make_sampler(name, **KEY_TABLE_CASES[name])
    _key_table_scalar(scalar, floats + ints.tolist())
    batch = make_sampler(name, **KEY_TABLE_CASES[name])
    _key_table_feed(batch, floats, 0)
    _key_table_feed(batch, ints, 500)
    assert repr(batch.to_state()) == repr(scalar.to_state())


@pytest.mark.parametrize("name", list(KEY_TABLE_CASES))
def test_key_table_batch_calls_interleave_with_scalar_updates(name):
    """16-event ``update_many`` calls, shorter than the tables, between
    runs of scalar ``update``: each path continues from the state the
    other leaves (the counter sketches' heap must hold a current entry
    for every key a batch counted, or the scalar path misses victims)."""
    keys = KEY_FORMS["int64_array"]()
    scalar = make_sampler(name, **KEY_TABLE_CASES[name])
    _key_table_scalar(scalar, keys)
    mixed = make_sampler(name, **KEY_TABLE_CASES[name])
    seq = keys.tolist()
    for lo in range(0, len(keys), 24):
        _key_table_feed(mixed, keys[lo:lo + 16], lo)
        for i in range(lo + 16, min(lo + 24, len(keys))):
            _key_table_update(mixed, seq[i], i)
    assert repr(mixed.to_state()) == repr(scalar.to_state())


def _head_then_near_distinct() -> np.ndarray:
    """A Zipf head, then near-distinct keys (~1 repeat in 8): the later
    chunks of one ``update_many`` call are mostly untracked-key events,
    so the counter sketches hand the rest of the call to the scalar
    loop."""
    head = zipf_stream(4096, 300, 1.1, rng=23)
    tail = 10**6 + np.random.default_rng(29).permutation(
        np.arange(12288) % 10752
    )
    return np.concatenate([head, tail]).astype(np.int64)


@pytest.mark.parametrize("form", ["int64_array", "int_list"])
@pytest.mark.parametrize(
    "name", ["frequent_items", "space_saving", "unbiased_space_saving"]
)
def test_key_table_batch_bails_out_to_the_scalar_loop_exactly(name, form):
    """The hand-over to the scalar loop mid-call keeps the scalar
    state, and unbiased Space-Saving draws its remaining handovers from
    the generator only after the batch path's buffered draws are
    rewound."""
    keys = _head_then_near_distinct()
    if form == "int_list":
        keys = keys.tolist()
    scalar = make_sampler(name, **KEY_TABLE_CASES[name])
    _key_table_scalar(scalar, keys)
    batch = make_sampler(name, **KEY_TABLE_CASES[name])
    batch.update_many(keys)
    assert batch.items_seen == scalar.items_seen == len(keys)
    assert repr(batch.to_state()) == repr(scalar.to_state())


#: The threshold samplers that draw R_i = F^{-1}(U_i | w_i) per event.
PRIORITY_CASES = {
    "bottom_k": {"k": 16},
    "poisson": {"threshold": 0.3},
    "budget": {"budget": 24.0},
    "variance_target": {"delta": 10.0, "horizon": 300},
}

_AXIS_RNG = np.random.default_rng(41)
#: ~97 distinct keys over 300 events, one weight per key: on a
#: coordinated feed a repeated key draws the same priority each time.
_AXIS_IDS = _AXIS_RNG.integers(0, 97, 300)
_AXIS_WEIGHTS = _AXIS_RNG.lognormal(0.0, 0.6, 97)[_AXIS_IDS]
_AXIS_VALUES = _AXIS_RNG.uniform(1.0, 10.0, 300)
_AXIS_SIZES = _AXIS_RNG.uniform(0.5, 2.0, 300)

PRIORITY_KEY_FORMS = {
    "int64_array": lambda: _AXIS_IDS.astype(np.int64),
    "int_list": lambda: _AXIS_IDS.tolist(),
    "float64_array": lambda: _AXIS_IDS * 0.5,
    "str_list": lambda: [f"k{i}" for i in _AXIS_IDS.tolist()],
    "tuple_list": lambda: [(i % 7, i // 7) for i in _AXIS_IDS.tolist()],
}


@pytest.mark.parametrize(
    "chunk", [None, 64, 7], ids=["whole", "chunks_64", "chunks_7"]
)
@pytest.mark.parametrize("coordinated", [False, True],
                         ids=["drawn", "coordinated"])
@pytest.mark.parametrize("family", ["inverse_weight", "exponential",
                                    "uniform"])
@pytest.mark.parametrize("form", list(PRIORITY_KEY_FORMS))
@pytest.mark.parametrize("name", list(PRIORITY_CASES))
def test_priority_batch_matches_scalar_loop(
    name, form, family, coordinated, chunk
):
    """``update_many`` leaves the scalar loop's exact ``to_state()`` for
    every priority family, drawn or hashed, on every key form.  Repeated
    keys tie on a coordinated feed, so ``repr`` also pins the order tied
    rows are stored in, which :func:`sample_signature` cannot see."""
    keys = PRIORITY_KEY_FORMS[form]()
    params = {**PRIORITY_CASES[name], "family": family,
              "coordinated": coordinated, "salt": 5, "rng": 9}
    sized = name == "budget"
    scalar = make_sampler(name, **params)
    seq = keys.tolist() if isinstance(keys, np.ndarray) else keys
    for i, key in enumerate(seq):
        extra = {"size": float(_AXIS_SIZES[i])} if sized else {}
        scalar.update(key, float(_AXIS_WEIGHTS[i]),
                      value=float(_AXIS_VALUES[i]), **extra)
    batch = make_sampler(name, **params)
    step = chunk or len(keys)
    for lo in range(0, len(keys), step):
        hi = lo + step
        extra = {"sizes": _AXIS_SIZES[lo:hi]} if sized else {}
        batch.update_many(keys[lo:hi], _AXIS_WEIGHTS[lo:hi],
                          _AXIS_VALUES[lo:hi], **extra)
    assert batch.items_seen == scalar.items_seen == len(keys)
    assert repr(batch.to_state()) == repr(scalar.to_state())


@pytest.mark.parametrize("name,params,column,positional", [
    ("sliding_window", {"k": 8, "window": 1.0}, "time=", (0.5, "item")),
    ("time_decay", {"k": 8, "decay_rate": 0.1}, "time=", (1.0, "item")),
    ("grouped_distinct", {"m": 2, "k": 4}, "group=", ("g", "item")),
    ("multi_stratified", {"n_dims": 1, "k": 4}, "strata=", ("item", ("s",))),
    ("multi_objective", {"k": 4, "objectives": ["a"]}, "weights=",
     ("item", {"a": 2.0})),
], ids=["sliding_window", "time_decay", "grouped_distinct",
        "multi_stratified", "multi_objective"])
def test_missing_required_column_is_a_clear_typeerror(
    name, params, column, positional
):
    """A sampler with a required per-item column names it when a call
    leaves it out — keyword-only, or with the column's value passed
    positionally, where it lands in ``weight``."""
    sampler = make_sampler(name, **params)
    for args, kwargs in (
        (("item",), {}),
        ((), {"key": "item", "weight": 2.0}),
        (positional, {}),
    ):
        with pytest.raises(TypeError, match=column):
            sampler.update(*args, **kwargs)
    assert sampler.items_seen == 0


NAN = float("nan")

#: Per sampler: constructor params, a valid warm-up feed (update_many
#: keywords), and calls its stateless block rules refuse, scalar
#: (``update`` keywords) and batch (``update_many`` keywords, 3 keys),
#: with the error each raises.
REFUSED_CALLS = {
    "bottom_k": ({"k": 4}, {}, [
        ({"weight": -1.0}, ValueError), ({"weight": NAN}, ValueError),
    ], [({"weights": [1.0, -1.0, 2.0]}, ValueError),
        ({"weights": [1.0, NAN, 2.0]}, ValueError)]),
    "poisson": ({"threshold": 0.5}, {}, [
        ({"weight": -2.0}, ValueError),
    ], [({"weights": [1.0, 2.0, -2.0]}, ValueError)]),
    "budget": ({"budget": 3.0}, {"sizes": np.ones(40)}, [
        ({"weight": -1.0}, ValueError), ({"size": NAN}, ValueError),
        ({"size": -1.0}, ValueError),
    ], [({"weights": [1.0, -1.0, 1.0]}, ValueError),
        ({"sizes": [1.0, NAN, 1.0]}, ValueError)]),
    "variance_target": ({"delta": 5.0, "horizon": 60}, {}, [
        ({"weight": NAN}, ValueError),
    ], [({"weights": [1.0, 1.0, -0.5]}, ValueError)]),
    "weighted_distinct": ({"k": 4}, {}, [
        ({"weight": 0.0}, ValueError), ({"weight": NAN}, ValueError),
    ], [({"weights": [1.0, NAN, 2.0]}, ValueError)]),
    "varopt": ({"k": 4}, {}, [
        ({"weight": 0.0}, ValueError),
    ], [({"weights": [1.0, 0.0, 2.0]}, ValueError)]),
    "time_decay": ({"k": 4, "decay_rate": 0.1},
                   {"times": np.arange(40.0)}, [
        ({"weight": 0.0, "time": 50.0}, ValueError),
    ], [({"times": [50.0, 49.0, 51.0]}, ValueError),
        ({"times": [50.0, 51.0, 52.0], "weights": [1.0, -1.0, 1.0]},
         ValueError)]),
    "multi_objective": ({"k": 4, "objectives": ["a", "b"]},
                        {"weights": {"a": np.ones(40), "b": np.ones(40)}}, [
        ({"weights": {"a": 1.0, "b": -1.0}}, ValueError),
    ], [({"weights": [1.0, 2.0, 3.0]}, TypeError),
        ({"weights": {"a": [1.0, 1.0, 1.0], "b": [1.0, 0.0, 1.0]}},
         ValueError)]),
    "frequent_items": ({"max_map_size": 8}, {}, [
        ({"weight": 0.5}, ValueError),
    ], [({"weights": [1.0, 0.5, 2.0]}, ValueError)]),
}


@pytest.mark.parametrize("name", list(REFUSED_CALLS))
def test_a_refused_call_leaves_the_state_unchanged(name):
    """A call a sampler's block rules refuse raises before anything is
    counted or drawn: ``repr(to_state())`` reads as before, so the
    checkpoint, the generator and ``items_seen`` are untouched."""
    params, warm, scalar_calls, batch_calls = REFUSED_CALLS[name]
    sampler = make_sampler(name, **params)
    sampler.update_many(np.arange(40), **warm)
    before = repr(sampler.to_state())
    for kwargs, error in scalar_calls:
        with pytest.raises(error):
            sampler.update("x", **kwargs)
        assert repr(sampler.to_state()) == before
    for kwargs, error in batch_calls:
        with pytest.raises(error):
            sampler.update_many(["x", "y", "z"], **kwargs)
        assert repr(sampler.to_state()) == before
        with pytest.raises(error):
            type(sampler).check_columns(
                {"weights": None, "times": [50.0, 51.0, 52.0], **kwargs})
