"""Online resize (``StreamSampler.resize``) battery.

The adaptive control plane retunes the sample budget ``k`` mid-stream,
so every resizable sampler must honour two contracts:

- **shrink-with-fold** — shrinking to ``k'`` leaves the sketch in the
  state a fresh ``k'`` run of the same stream would reach (bottom-k /
  KMV / theta keep the smallest priorities; the adaptive sketch folds
  through its ``trim``, which is threshold-equivalent rather than
  state-equivalent — its unbiasedness is covered by the Monte-Carlo
  suite in ``tests/statistical``);
- **grow-with-cap** — growing freezes the pre-resize threshold as an
  admission cap (1-substitutability, paper §3.5), so the estimator
  stays unbiased while the enlarged sketch refills.

Plus the mechanical edges: no-op resizes, invalid budgets, cap
serialization, version bumps, sharded delegation, and chunking
invariance *across* a mid-stream resize.
"""

import numpy as np
import pytest

import repro
from repro import ShardedSampler, make_sampler

# (name, params, weighted, fresh_equal) — every sampler advertising
# ``resizable``; ``fresh_equal`` marks the ones whose shrink is bit-level
# fold-equivalent to a fresh smaller run (heap order aside).
RESIZABLE_CONFIGS = [
    ("bottom_k", {"k": 16, "rng": 7}, True, True),
    ("bottom_k", {"k": 16, "coordinated": True, "salt": 3}, True, True),
    ("weighted_distinct", {"k": 16, "salt": 3}, True, True),
    ("adaptive_distinct", {"k": 16, "salt": 3}, False, False),
    ("kmv", {"k": 16, "salt": 3}, False, True),
    ("theta", {"k": 16, "salt": 3}, False, True),
]

CONFIG_IDS = [
    f"{name}-{'coord' if params.get('coordinated') else 'plain'}"
    for name, params, _, _ in RESIZABLE_CONFIGS
]

#: Hash-deterministic configs (no per-trial RNG stream), used by the
#: chunking-invariance-across-resize check where feeding order inside a
#: chunk must not matter.
HASHED_CONFIGS = [cfg for cfg in RESIZABLE_CONFIGS if "salt" in cfg[1]]
HASHED_IDS = [
    f"{name}-{'coord' if params.get('coordinated') else 'plain'}"
    for name, params, _, _ in HASHED_CONFIGS
]

#: The configs whose state is a ``BottomKStore`` (kmv and theta keep a
#: ``KeyedBottomK``, and kmv's ``len`` counts its k-th-minimum witness by
#: design).
STORE_CONFIGS = [
    cfg for cfg in RESIZABLE_CONFIGS if cfg[0] not in ("kmv", "theta")
]
STORE_IDS = [
    f"{name}-{'coord' if params.get('coordinated') else 'plain'}"
    for name, params, _, _ in STORE_CONFIGS
]


def _stream(n=600, universe=200):
    rng = np.random.default_rng(13)
    keys = rng.integers(0, universe, n)
    per_key = np.random.default_rng(14).lognormal(0.0, 0.6, universe)
    return keys, per_key[keys]


KEYS, WEIGHTS = _stream()
MID = len(KEYS) // 2


def _feed(sampler, weighted, keys, weights):
    if weighted:
        sampler.update_many(keys, weights)
    else:
        sampler.update_many(keys)


def _canonical(state: dict) -> dict:
    """State with order-insensitive containers sorted (heap layouts are
    an implementation detail a fold need not reproduce)."""
    out = dict(state)
    inner = dict(out.get("state", {}))
    for key, value in inner.items():
        if isinstance(value, list):
            inner[key] = sorted(value, key=repr)
    out["state"] = inner
    return out


def _threshold(sampler) -> float:
    return float(getattr(sampler, "threshold", getattr(sampler, "theta", 0)))


class TestShrink:
    @pytest.mark.parametrize(
        "name,params,weighted,fresh_equal", RESIZABLE_CONFIGS, ids=CONFIG_IDS
    )
    def test_midstream_shrink_matches_fresh_run(
        self, name, params, weighted, fresh_equal
    ):
        s = make_sampler(name, **params)
        _feed(s, weighted, KEYS[:MID], WEIGHTS[:MID])
        assert s.resize(8) is s
        assert s.k == 8
        _feed(s, weighted, KEYS[MID:], WEIGHTS[MID:])

        fresh = make_sampler(name, **{**params, "k": 8})
        _feed(fresh, weighted, KEYS, WEIGHTS)
        if fresh_equal:
            assert _canonical(s.to_state()) == _canonical(fresh.to_state())
            assert float(s.estimate()) == pytest.approx(
                float(fresh.estimate())
            )
        else:
            # The adaptive sketch folds through trim: not state-equal to
            # a fresh run, but the budget must hold and the estimate
            # stays in the same statistical regime (unbiasedness is the
            # Monte-Carlo suite's job).
            assert len(s) <= 8 + 1
            assert float(s.estimate()) > 0

    @pytest.mark.parametrize(
        "name,params,weighted,fresh_equal", RESIZABLE_CONFIGS, ids=CONFIG_IDS
    )
    def test_shrink_respects_budget(self, name, params, weighted, fresh_equal):
        s = make_sampler(name, **params)
        _feed(s, weighted, KEYS, WEIGHTS)
        s.resize(4)
        # bottom-k style sketches may carry the (k+1)-th witness entry
        assert len(s) <= 4 + 1
        assert len(s.sample()) <= 4 + 1


class TestGrow:
    @pytest.mark.parametrize(
        "name,params,weighted,fresh_equal", RESIZABLE_CONFIGS, ids=CONFIG_IDS
    )
    def test_grow_caps_threshold(self, name, params, weighted, fresh_equal):
        s = make_sampler(name, **params)
        _feed(s, weighted, KEYS, WEIGHTS)
        before = _threshold(s)
        est_before = float(s.estimate())
        s.resize(64)
        assert s.k == 64
        # 1-substitutability: the saturated threshold is frozen as the
        # admission cap, so growing never loosens the threshold ...
        assert _threshold(s) <= before + 1e-12
        # ... and the estimate is untouched at the resize boundary.
        assert float(s.estimate()) == pytest.approx(est_before)
        # The enlarged sketch keeps admitting below the cap.
        extra_keys = np.arange(1000, 1400)
        _feed(s, weighted, extra_keys, np.ones(extra_keys.size))
        assert _threshold(s) <= before + 1e-12
        assert float(s.estimate()) > est_before

    @pytest.mark.parametrize(
        "name,params,weighted,fresh_equal", STORE_CONFIGS, ids=STORE_IDS
    )
    def test_len_is_the_sample_size_after_grow_and_merge(
        self, name, params, weighted, fresh_equal
    ):
        # len, sample() and the fill gauge all count the rows below the
        # threshold — also once a grow leaves the threshold witness
        # stored under the cap, and after a union with a grown sketch.
        def grown(keys, weights):
            s = make_sampler(name, **params)
            _feed(s, weighted, keys, weights)
            return s.resize(64)

        s = grown(KEYS[:300], WEIGHTS[:300])
        assert len(s) == len(s.sample()) == s.observe()["fill"]
        s.merge(grown(KEYS[300:], WEIGHTS[300:]))
        assert len(s) == len(s.sample()) == s.observe()["fill"]

    @pytest.mark.parametrize(
        "name,params,weighted,fresh_equal", RESIZABLE_CONFIGS, ids=CONFIG_IDS
    )
    def test_grow_while_underfull_is_plain(
        self, name, params, weighted, fresh_equal
    ):
        s = make_sampler(name, **params)
        _feed(s, weighted, KEYS[:5], WEIGHTS[:5])
        s.resize(64)
        fresh = make_sampler(name, **{**params, "k": 64})
        _feed(fresh, weighted, KEYS[:5], WEIGHTS[:5])
        assert _canonical(s.to_state()) == _canonical(fresh.to_state())


class TestMechanics:
    @pytest.mark.parametrize(
        "name,params,weighted,fresh_equal", RESIZABLE_CONFIGS, ids=CONFIG_IDS
    )
    def test_noop_resize_is_identity(self, name, params, weighted, fresh_equal):
        s = make_sampler(name, **params)
        _feed(s, weighted, KEYS, WEIGHTS)
        state = s.to_state()
        assert s.resize(s.k) is s
        assert s.to_state() == state

    @pytest.mark.parametrize(
        "name,params,weighted,fresh_equal", RESIZABLE_CONFIGS, ids=CONFIG_IDS
    )
    def test_invalid_k_raises(self, name, params, weighted, fresh_equal):
        s = make_sampler(name, **params)
        with pytest.raises(ValueError):
            s.resize(0)
        with pytest.raises(ValueError):
            s.resize(-3)

    @pytest.mark.parametrize(
        "name,params,weighted,fresh_equal", RESIZABLE_CONFIGS, ids=CONFIG_IDS
    )
    def test_resize_bumps_state_version(
        self, name, params, weighted, fresh_equal
    ):
        s = make_sampler(name, **params)
        _feed(s, weighted, KEYS[:MID], WEIGHTS[:MID])
        version = s.state_version
        s.resize(8)
        assert s.state_version > version

    @pytest.mark.parametrize(
        "name,params,weighted,fresh_equal", RESIZABLE_CONFIGS, ids=CONFIG_IDS
    )
    def test_cap_survives_state_roundtrip(
        self, name, params, weighted, fresh_equal
    ):
        # Grow leaves an admission cap behind; a serialize/revive cycle
        # must keep enforcing it bit-exactly on further ingestion.
        s = make_sampler(name, **params)
        _feed(s, weighted, KEYS[:MID], WEIGHTS[:MID])
        s.resize(64)
        revived = repro.sampler_from_state(s.to_state())
        extra = np.arange(2000, 2300)
        _feed(s, weighted, extra, np.ones(extra.size))
        _feed(revived, weighted, extra, np.ones(extra.size))
        assert revived.to_state() == s.to_state()

    def test_resizable_flag_advertised(self):
        for name, params, _, _ in RESIZABLE_CONFIGS:
            assert make_sampler(name, **params).resizable is True

    def test_non_resizable_sampler_raises(self):
        s = make_sampler("varopt", k=8, rng=1)
        assert s.resizable is False
        with pytest.raises(NotImplementedError, match="VarOpt"):
            s.resize(16)


class TestSharded:
    def test_sharded_mirrors_resizable_and_delegates(self):
        outer = ShardedSampler(
            {"name": "weighted_distinct", "params": {"k": 16, "salt": 3}},
            n_shards=4,
        )
        assert outer.resizable is True
        outer.update_many(KEYS, WEIGHTS)
        version = outer.state_version
        assert outer.resize(8) is outer
        assert outer.state_version > version
        assert outer.spec.params["k"] == 8
        for shard in outer.shards:
            assert shard.k == 8
            assert len(shard) <= 8 + 1
        # revive from state: the resized spec round-trips
        revived = repro.sampler_from_state(outer.to_state())
        assert revived.spec.params["k"] == 8
        assert revived.to_state() == outer.to_state()

    def test_sharded_non_resizable_raises(self):
        outer = ShardedSampler(
            {"name": "poisson", "params": {"threshold": 0.2, "rng": 1}},
            n_shards=2,
        )
        assert outer.resizable is False
        with pytest.raises(NotImplementedError):
            outer.resize(16)


class TestChunkingInvarianceAcrossResize:
    @pytest.mark.parametrize(
        "name,params,weighted,fresh_equal", HASHED_CONFIGS, ids=HASHED_IDS
    )
    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunked_feed_with_midstream_resize(
        self, chunk, name, params, weighted, fresh_equal
    ):
        # Same stream, same resize point, different chunking: the final
        # state must be identical (the serving runtime batches
        # arbitrarily and retunes at flush boundaries).
        def run(c):
            s = make_sampler(name, **params)
            for segment, seg_w, k in (
                (KEYS[:MID], WEIGHTS[:MID], None),
                (KEYS[MID:], WEIGHTS[MID:], 8),
            ):
                if k is not None:
                    s.resize(k)
                for i in range(0, len(segment), c):
                    _feed(s, weighted, segment[i:i + c], seg_w[i:i + c])
            return s.to_state()

        assert run(chunk) == run(len(KEYS))
