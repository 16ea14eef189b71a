"""Tests for Space-Saving variants (repro.baselines.space_saving)."""

import numpy as np
import pytest

from repro.baselines.space_saving import (
    SpaceSavingSketch,
    UnbiasedSpaceSavingSketch,
)
from repro.workloads.zipf import zipf_stream

from tests.helpers import assert_within_se


class TestSpaceSaving:
    def test_capacity_respected(self):
        s = SpaceSavingSketch(10)
        for i in range(1000):
            s.update(i)
        assert len(s) == 10

    def test_estimates_are_upper_bounds(self):
        s = SpaceSavingSketch(32)
        stream = zipf_stream(20_000, 500, 1.2, rng=0)
        ids, counts = np.unique(stream, return_counts=True)
        truth = dict(zip(ids.tolist(), counts.tolist()))
        for item in stream.tolist():
            s.update(item)
        for key, est in s.top(20):
            assert est >= truth[key]
            assert s.guaranteed(key) <= truth[key]

    def test_error_bound(self):
        # estimate - truth <= n / m for every tracked key.
        m = 40
        s = SpaceSavingSketch(m)
        stream = zipf_stream(15_000, 800, 1.1, rng=1)
        ids, counts = np.unique(stream, return_counts=True)
        truth = dict(zip(ids.tolist(), counts.tolist()))
        for item in stream.tolist():
            s.update(item)
        bound = s.items_seen / m
        for key, est in s.top(40):
            assert est - truth[key] <= bound + 1

    def test_exact_while_underfull(self):
        s = SpaceSavingSketch(100)
        for _ in range(7):
            s.update("x")
        assert s.estimate_count("x") == 7
        assert s.guaranteed("x") == 7

    def test_heavy_hitters_recovered(self):
        stream = zipf_stream(40_000, 1000, 1.5, rng=2)
        s = SpaceSavingSketch(64)
        for item in stream.tolist():
            s.update(item)
        ids, counts = np.unique(stream, return_counts=True)
        truth = set(ids[np.argsort(counts)[::-1][:5]].tolist())
        assert len({k for k, _ in s.top(5)} & truth) >= 4


class TestUnbiasedSpaceSaving:
    def test_capacity_respected(self, rng):
        s = UnbiasedSpaceSavingSketch(10, rng=rng)
        for i in range(500):
            s.update(i)
        assert len(s) == 10

    def test_total_preserved(self, rng):
        # The counter total always equals the stream length exactly.
        s = UnbiasedSpaceSavingSketch(16, rng=rng)
        stream = zipf_stream(5000, 300, 1.2, rng=3)
        for item in stream.tolist():
            s.update(item)
        assert s.estimate_subset_sum(lambda key: True) == 5000

    def test_subset_sum_unbiased(self):
        """Ting (2018)'s defining property, the reason it's 'unbiased'."""
        stream = zipf_stream(4000, 200, 1.05, rng=4)
        subset = set(range(0, 200, 2))
        truth = float(np.sum(np.isin(stream, list(subset))))
        estimates = []
        for seed in range(400):
            s = UnbiasedSpaceSavingSketch(24, rng=np.random.default_rng(seed))
            for item in stream.tolist():
                s.update(item)
            estimates.append(s.estimate_subset_sum(lambda key: key in subset))
        assert_within_se(estimates, truth)

    def test_top_identification(self, rng):
        stream = zipf_stream(30_000, 500, 1.5, rng=5)
        s = UnbiasedSpaceSavingSketch(64, rng=rng)
        for item in stream.tolist():
            s.update(item)
        ids, counts = np.unique(stream, return_counts=True)
        truth = set(ids[np.argsort(counts)[::-1][:5]].tolist())
        assert len({k for k, _ in s.top(5)} & truth) >= 4

    def test_batch_keeps_the_scalar_counter_order(self):
        """A lost label handover re-inserts the min counter, which moves it
        to the end of the counter map in the scalar loop; the batch path
        must move it too, or ``top()`` breaks count ties differently."""
        stream = zipf_stream(8000, 800, 1.2, rng=3)
        scalar = UnbiasedSpaceSavingSketch(32, rng=0)
        for item in stream.tolist():
            scalar.update(item)
        batch = UnbiasedSpaceSavingSketch(32, rng=0)
        batch.update_many(stream)
        assert batch.top(12) == scalar.top(12)
        assert list(batch._store.counts) == list(scalar._store.counts)
        assert list(batch._store.errors) == list(scalar._store.errors)
