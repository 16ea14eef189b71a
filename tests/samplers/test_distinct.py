"""Tests for distinct counting & merges (repro.samplers.distinct, §3.4–3.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import hash_array_to_unit
from repro.samplers.distinct import (
    AdaptiveDistinctSketch,
    WeightedDistinctSketch,
    lcs_union,
)

from tests.helpers import assert_within_se


class TestWeightedDistinctSketch:
    def test_duplicates_idempotent(self):
        s = WeightedDistinctSketch(10, salt=0)
        for _ in range(5):
            s.update("a", weight=2.0)
        assert len(s) == 1
        assert s.estimate_distinct() == pytest.approx(1.0)

    def test_exact_while_underfull(self):
        s = WeightedDistinctSketch(50, salt=0)
        for i in range(20):
            s.update(i, weight=1.0 + i % 3)
        assert s.estimate_distinct() == pytest.approx(20.0)

    def test_distinct_estimate_unbiased(self):
        n, k = 500, 40
        estimates = []
        for salt in range(300):
            s = WeightedDistinctSketch(k, salt=salt)
            for i in range(n):
                s.update(i, weight=1.0 + (i % 5))
            estimates.append(s.estimate_distinct())
        assert_within_se(estimates, float(n))

    def test_subset_sum_unbiased(self):
        n, k = 400, 40
        weights = {i: 1.0 + (i % 7) for i in range(n)}
        truth = sum(w for i, w in weights.items() if i % 2 == 0)
        estimates = []
        for salt in range(300):
            s = WeightedDistinctSketch(k, salt=salt)
            for i in range(n):
                s.update(i, weight=weights[i])
            estimates.append(s.estimate_subset_sum(lambda key: key % 2 == 0))
        assert_within_se(estimates, truth)

    def test_heavy_key_always_kept(self):
        s = WeightedDistinctSketch(5, salt=1)
        s.update("whale", weight=1e9)
        for i in range(500):
            s.update(i)
        assert s.estimate_subset_sum(lambda key: key == "whale") > 0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedDistinctSketch(5).update("x", weight=0.0)

    def test_merge_rejects_a_different_k(self):
        # The k=10 side keeps 11 rows, too few to fill a k=100 cut: the
        # union would be biased low, so the merge refuses it.
        big = WeightedDistinctSketch(100, salt=3)
        big.update_many(np.arange(1000))
        small = WeightedDistinctSketch(10, salt=3)
        small.update_many(np.arange(1000, 2000))
        state = big.to_state()
        with pytest.raises(ValueError, match="different k"):
            big.merge(small)
        assert big.to_state() == state


class TestAdaptiveDistinctSketch:
    def test_exact_while_underfull(self):
        s = AdaptiveDistinctSketch(100, salt=0)
        s.update_many(range(30))
        assert s.estimate_distinct() == pytest.approx(30.0)
        assert len(s) == 30

    def test_estimate_unbiased(self):
        n, k = 1000, 50
        estimates = []
        for salt in range(300):
            s = AdaptiveDistinctSketch(k, salt=salt)
            s.update_many(range(n))
            estimates.append(s.estimate_distinct())
        assert_within_se(estimates, float(n))

    def test_from_hashes_matches_streaming(self):
        n, k, salt = 400, 30, 9
        streamed = AdaptiveDistinctSketch(k, salt=salt)
        streamed.update_many(range(n))
        hashed = AdaptiveDistinctSketch.from_hashes(
            hash_array_to_unit(np.arange(n), salt), k, salt
        )
        assert hashed.estimate_distinct() == pytest.approx(
            streamed.estimate_distinct()
        )
        assert hashed.stream_threshold == pytest.approx(streamed.stream_threshold)

    def test_merge_unbiased_on_overlap(self):
        size_a, size_b, overlap, k = 600, 800, 300, 60
        keys_a = np.arange(size_a)
        keys_b = np.arange(size_a - overlap, size_a - overlap + size_b)
        truth = float(np.union1d(keys_a, keys_b).size)
        estimates = []
        for salt in range(200):
            a = AdaptiveDistinctSketch.from_hashes(hash_array_to_unit(keys_a, salt), k, salt)
            b = AdaptiveDistinctSketch.from_hashes(hash_array_to_unit(keys_b, salt), k, salt)
            estimates.append(a.merge(b).estimate_distinct())
        assert_within_se(estimates, truth)

    def test_or_operator_is_pure(self):
        a = AdaptiveDistinctSketch(10, salt=0)
        a.update_many(range(100))
        before = a.estimate_distinct()
        b = AdaptiveDistinctSketch(10, salt=0)
        b.update_many(range(50, 150))
        union = a | b
        assert a.estimate_distinct() == pytest.approx(before)
        assert union.estimate_distinct() != pytest.approx(before)

    def test_merge_in_place_equals_pure(self):
        a1 = AdaptiveDistinctSketch(10, salt=0)
        a1.update_many(range(100))
        a2 = AdaptiveDistinctSketch(10, salt=0)
        a2.update_many(range(100))
        b = AdaptiveDistinctSketch(10, salt=0)
        b.update_many(range(50, 180))
        pure = (a1 | b).estimate_distinct()
        result = a2.merge(b)
        assert result is a2  # in-place merge returns self
        assert a2.estimate_distinct() == pytest.approx(pure)

    def test_merge_commutative(self):
        a = AdaptiveDistinctSketch(20, salt=3)
        a.update_many(range(300))
        b = AdaptiveDistinctSketch(20, salt=3)
        b.update_many(range(200, 600))
        assert (a | b).estimate_distinct() == pytest.approx(
            (b | a).estimate_distinct()
        )

    def test_merge_mixed_k_keeps_small_sketch_taus(self):
        # Regression: enlarging k before folding the live stream entries
        # used to lift the folded taus to the admission cap, collapsing
        # the estimate of the smaller sketch's stream.
        x = AdaptiveDistinctSketch(4, salt=0)
        x.update_many(range(200))
        alone = x.estimate_distinct()
        y = AdaptiveDistinctSketch(64, salt=0)
        y.update_many(range(10_000, 10_003))
        x.merge(y)
        assert x.estimate_distinct() == pytest.approx(alone + 3.0, rel=0.05)

    def test_merge_salt_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveDistinctSketch(5, salt=0).merge(AdaptiveDistinctSketch(5, salt=1))

    def test_update_after_merge_respects_cap(self):
        a = AdaptiveDistinctSketch(20, salt=0)
        a.update_many(range(500))
        b = AdaptiveDistinctSketch(20, salt=0)
        b.update_many(range(500, 1000))
        merged = a.merge(b)
        cap = merged.stream_threshold
        merged.update_many(range(1000, 1500))
        # New entries must all sit below the admission cap.
        for key, (h, tau) in merged.entries().items():
            assert h < max(tau, cap) + 1e-12

    def test_batch_after_merge_matches_scalar_loop(self):
        # Merged keys are left out before the batch's k+1 cut, so a batch
        # holding merged keys admits what the scalar loop admits.
        def merged():
            a = AdaptiveDistinctSketch(5, salt=2)
            a.update_many(range(100))
            b = AdaptiveDistinctSketch(5, salt=2)
            b.update_many(range(50, 150))
            return a.merge(b)

        batch, scalar = merged(), merged()
        batch.update_many(np.arange(300))
        for key in range(300):
            scalar.update(key)
        assert batch.to_state() == scalar.to_state()

    def test_trim_bounds_entries_and_stays_sane(self):
        a = AdaptiveDistinctSketch(50, salt=0)
        a.update_many(range(2000))
        b = AdaptiveDistinctSketch(50, salt=0)
        b.update_many(range(1500, 3500))
        merged = a.merge(b)
        merged.trim(40)
        assert len(merged) <= 40
        est = merged.estimate_distinct()
        assert est == pytest.approx(3500.0, rel=0.6)


#: Per-key weights spanning the float range, plus ``inf`` (priority 0).
_WEIGHTS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.just(float("inf")),
)


@st.composite
def _distinct_streams(draw):
    """A key stream with duplicates (one weight per key), one key
    container, random chunk sizes, a sketch size that leaves the store
    underfull or full, and an optional mid-stream grow-resize."""
    kind = draw(st.sampled_from(["int64", "list", "uint64", "float64", "str"]))
    if kind == "uint64":
        pool = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1,
                             max_size=30, unique=True))
    else:
        pool = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1,
                             max_size=30, unique=True))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=120))
    weights = draw(st.lists(_WEIGHTS, min_size=len(pool), max_size=len(pool)))
    if kind in ("int64", "uint64"):
        keys = np.array([pool[i] for i in picks], dtype=kind)
    elif kind == "float64":
        keys = np.array([pool[i] for i in picks], dtype=float)
    elif kind == "str":
        keys = [f"k{pool[i]}" for i in picks]
    else:
        keys = [pool[i] for i in picks]
    w = np.array([weights[i] for i in picks])
    chunks = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    k = draw(st.sampled_from([2, 5, 200]))
    grow_at = draw(st.one_of(st.none(), st.integers(0, len(picks))))
    return keys, w, chunks, k, grow_at


@settings(max_examples=150, deadline=None)
@given(stream=_distinct_streams(), weighted=st.booleans())
def test_batch_ingest_reaches_the_scalar_loop_state(stream, weighted):
    """Both sketches' ``update_many`` — which computes exact priorities
    only where a lower bound clears the threshold — reaches the scalar
    ``update`` loop's ``to_state()`` under any chunking, duplicate keys,
    weights from 1e-300 to 1e300 and ``inf``, an underfull or full store,
    and a grow-resize cap."""
    keys, w, chunks, k, grow_at = stream
    n = len(keys)
    scalar_keys = keys.tolist() if isinstance(keys, np.ndarray) else keys
    cut = n if grow_at is None else grow_at

    def run(cls, batched):
        sketch = cls(k, salt=7)
        use_w = weighted and cls is WeightedDistinctSketch
        for segment, (lo, end) in enumerate(((0, cut), (cut, n))):
            if segment and grow_at is not None:
                sketch.resize(2 * k)
            step = 0
            while lo < end:
                hi = min(lo + chunks[step % len(chunks)], end)
                if batched:
                    sketch.update_many(keys[lo:hi],
                                       w[lo:hi] if use_w else None)
                else:
                    for i in range(lo, hi):
                        sketch.update(scalar_keys[i],
                                      float(w[i]) if use_w else 1.0)
                lo, step = hi, step + 1
        return sketch.to_state()

    for cls in (WeightedDistinctSketch, AdaptiveDistinctSketch):
        assert run(cls, True) == run(cls, False)


class TestLCSUnionAdvantage:
    def test_lcs_beats_single_sketch_variance(self):
        """§3.5's point: the per-item merge uses ~2k samples, not k."""
        n, k = 2000, 40
        keys_a = np.arange(n)
        keys_b = np.arange(n, 2 * n)
        lcs_err, theta_like_err = [], []
        truth = 2.0 * n
        for salt in range(250):
            ha = hash_array_to_unit(keys_a, salt)
            hb = hash_array_to_unit(keys_b, salt)
            a = AdaptiveDistinctSketch.from_hashes(ha, k, salt)
            b = AdaptiveDistinctSketch.from_hashes(hb, k, salt)
            lcs_err.append(lcs_union(a, b) - truth)
            # Baseline: re-sketch the union down to k entries (trim).
            merged = a.merge(b)
            merged.trim(k)
            theta_like_err.append(merged.estimate_distinct() - truth)
        assert np.std(lcs_err) < 0.85 * np.std(theta_like_err)
