"""Tests for the adaptive top-k sampler (repro.samplers.topk, §3.3)."""

import numpy as np
import pytest

from repro.samplers.topk import AdaptiveTopKSampler
from repro.workloads.pitman_yor import pitman_yor_stream, true_top_k
from repro.workloads.zipf import zipf_stream


class TestMechanics:
    def test_tracked_items_count_exactly_after_entry(self, rng):
        s = AdaptiveTopKSampler(3, rng=rng)
        for _ in range(10):
            s.update("hot")
        assert s.estimate_count("hot") == pytest.approx(1.0 / 1.0 + 9)

    def test_untracked_key_estimates_zero(self, rng):
        s = AdaptiveTopKSampler(3, rng=rng)
        assert s.estimate_count("never-seen") == 0.0

    def test_threshold_monotone_decreasing(self, rng):
        s = AdaptiveTopKSampler(5, rng=rng)
        stream = zipf_stream(20_000, 500, 1.3, rng=3)
        last = 1.0
        for i, key in enumerate(stream.tolist()):
            s.update(key)
            assert s.threshold <= last + 1e-15
            last = s.threshold
        assert s.threshold < 1.0  # must have adapted on this stream

    def test_table_smaller_than_distinct_keys(self, rng):
        s = AdaptiveTopKSampler(10, rng=rng)
        stream = zipf_stream(30_000, 2000, 1.2, rng=5)
        s.update_many(stream.tolist())
        assert len(s) < len(np.unique(stream))
        assert s.max_table_size < len(np.unique(stream))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            AdaptiveTopKSampler(0)

    def test_frequent_keys_at_least_k(self, rng):
        s = AdaptiveTopKSampler(5, rng=rng)
        s.update_many(zipf_stream(20_000, 300, 1.5, rng=7).tolist())
        assert len(s.frequent_keys()) >= 5


class TestAccuracy:
    def test_topk_identified_on_zipf(self, rng):
        stream = zipf_stream(50_000, 1000, 1.4, rng=11)
        s = AdaptiveTopKSampler(10, rng=rng)
        s.update_many(stream.tolist())
        returned = {key for key, _ in s.top(10)}
        truth = set(true_top_k(stream, 10))
        assert len(returned & truth) >= 8

    def test_heavy_hitter_counts_accurate(self, rng):
        stream = zipf_stream(40_000, 500, 1.5, rng=13)
        s = AdaptiveTopKSampler(10, rng=rng)
        s.update_many(stream.tolist())
        ids, counts = np.unique(stream, return_counts=True)
        top = ids[np.argsort(counts)[::-1][:5]]
        for key in top:
            truth = counts[ids == key][0]
            est = s.estimate_count(int(key))
            assert est == pytest.approx(truth, rel=0.1)

    def test_total_count_estimate_roughly_unbiased(self):
        # Sum of estimates over tracked + discarded mass should track the
        # stream length within a modest tolerance (the re-anchoring rule
        # discards some exactly-counted tail occurrences).
        estimates = []
        n = 20_000
        for seed in range(10):
            stream = zipf_stream(n, 400, 1.3, rng=seed)
            s = AdaptiveTopKSampler(10, rng=np.random.default_rng(seed + 1))
            s.update_many(stream.tolist())
            estimates.append(s.estimate_subset_sum(lambda key: True))
        mean = np.mean(estimates)
        assert mean == pytest.approx(n, rel=0.35)

    def test_subset_sum_heavy_subset(self, rng):
        stream = zipf_stream(40_000, 500, 1.5, rng=17)
        s = AdaptiveTopKSampler(10, rng=rng)
        s.update_many(stream.tolist())
        truth = int(np.sum(stream < 5))
        est = s.estimate_subset_sum(lambda key: key < 5)
        assert est == pytest.approx(truth, rel=0.15)


class TestAdaptivity:
    def test_size_grows_with_tail_weight(self):
        """Figure 3's right panel: heavier tails need larger samples."""
        sizes = {}
        for beta in (0.25, 0.9):
            acc = []
            for seed in range(3):
                stream = pitman_yor_stream(15_000, beta, np.random.default_rng(seed))
                s = AdaptiveTopKSampler(10, rng=np.random.default_rng(seed + 50))
                s.update_many(stream.tolist())
                acc.append(len(s))
            sizes[beta] = np.mean(acc)
        assert sizes[0.9] > 1.5 * sizes[0.25]

    def test_well_separated_head_kept(self):
        stream = pitman_yor_stream(15_000, 0.25, np.random.default_rng(2))
        truth = true_top_k(stream, 10)
        s = AdaptiveTopKSampler(10, rng=np.random.default_rng(3))
        s.update_many(stream.tolist())
        returned = {key for key, _ in s.top(10)}
        assert len(returned & set(truth)) >= 7


class TestHTReanchoring:
    def test_reanchored_tail_counts_stay_unbiased(self):
        """Regression for the re-anchoring rule: zeroing the exact counts
        of surviving infrequent entries (the old behavior) biased subset
        sums ~20% low on churn-heavy near-uniform streams; the HT rescale
        (v <- v * T_i / T) must keep the total within a few percent."""
        n, universe = 1200, 400
        keys = np.random.default_rng(23).integers(0, universe, n)
        estimates = []
        for seed in range(60):
            s = AdaptiveTopKSampler(48, rng=np.random.default_rng(seed))
            s.update_many(keys.tolist())
            estimates.append(s.estimate_subset_sum(lambda key: True))
        assert np.mean(estimates) == pytest.approx(n, rel=0.05)

    def test_pre_carry_checkpoints_still_load(self):
        """4-tuple table rows (checkpoints from before the carry field)
        must revive with carry defaulting to zero."""
        s = AdaptiveTopKSampler(8, rng=np.random.default_rng(0))
        s.update_many(list(range(200)) * 2)
        state = s.to_state()
        state["state"]["table"] = [
            row[:4] for row in state["state"]["table"]
        ]
        revived = AdaptiveTopKSampler.from_state(state)
        assert all(e.carry == 0.0 for e in revived.table.values())
        assert set(revived.table) == set(s.table)


def test_estimate_kind_with_predicate_dispatches_to_that_kind():
    """Regression: ``estimate("subset_sum", predicate=...)`` on a sampler
    whose default kind takes a key must run ``estimate_subset_sum``, not
    read the kind name as a key."""
    from repro import make_sampler

    sampler = make_sampler("top_k", k=8, rng=0)
    sampler.update_many(list(range(64)) * 3)
    predicate = lambda key: key % 2 == 0  # noqa: E731
    assert sampler.estimate("subset_sum", predicate=predicate) == (
        sampler.estimate_subset_sum(predicate)
    )
