"""Tests for sliding-window sampling (repro.samplers.sliding_window, §3.2)."""

import copy

import numpy as np
import pytest

from repro.samplers.sliding_window import SlidingWindowSampler
from repro.workloads.arrivals import homogeneous_arrivals


def feed(sampler: SlidingWindowSampler, times: np.ndarray) -> None:
    for i, t in enumerate(times):
        sampler.update(i, time=float(t))


class TestBookkeeping:
    def test_current_bounded_by_k(self, rng):
        s = SlidingWindowSampler(k=10, window=1.0, rng=rng)
        times = np.sort(rng.uniform(0, 5, 2000))
        for i, t in enumerate(times):
            s.update(i, time=float(t))
            assert s.snapshot(float(t)).stored_current <= 10
        assert s.max_current <= 10

    def test_expiry_moves_and_drops(self, rng):
        s = SlidingWindowSampler(k=5, window=1.0, rng=rng)
        feed(s, np.linspace(0.1, 0.5, 20))
        # window (0, 1]: everything still current
        assert s.snapshot(1.0).stored_current == 5
        # all items older than one window: expired
        snap = s.snapshot(2.0)
        assert (snap.stored_current, snap.stored_expired) == (0, 5)
        # older than two windows: gone entirely
        assert s.snapshot(10.0).stored_expired == 0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowSampler(k=1, window=1.0)
        with pytest.raises(ValueError):
            SlidingWindowSampler(k=5, window=0.0)

    def test_restore_rejects_an_inconsistent_arrival_order(self):
        s = SlidingWindowSampler(k=3, window=1.0, rng=0)
        feed(s, np.linspace(0.1, 0.5, 10))
        s.advance(0.5)  # the head of the arrival order is a stored record
        state = s.to_state()
        order = state["state"]["arrival_order"]
        # A gap, an id past next_id, and a stored record's id left out.
        for broken in (order[:1] + order[2:], order + [order[-1] + 1],
                       order[1:]):
            bad = copy.deepcopy(state)
            bad["state"]["arrival_order"] = broken
            with pytest.raises(ValueError, match="arrival_order"):
                SlidingWindowSampler.from_state(bad)

    def test_thresholds_default_to_one_when_empty(self, rng):
        s = SlidingWindowSampler(k=5, window=1.0, rng=rng)
        assert s.gl_threshold(0.0) == 1.0
        assert s.improved_threshold(0.0) == 1.0


class TestSamples:
    def test_samples_contain_only_window_items(self, rng):
        s = SlidingWindowSampler(k=20, window=1.0, rng=rng)
        times = np.sort(rng.uniform(0, 4, 3000))
        feed(s, times)
        now = 4.0
        for sample in (s.gl_sample(now), s.improved_sample(now)):
            for item in sample:
                assert times[item.key] > now - 1.0

    def test_improved_dominates_gl(self):
        # Structural claim of §3.2: the G&L final threshold is conservative.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            s = SlidingWindowSampler(k=25, window=1.0, rng=rng)
            times = np.sort(rng.uniform(0, 6, 4000))
            cursor = 0
            for g in np.arange(2.0, 6.0, 0.5):
                while cursor < times.size and times[cursor] <= g:
                    s.update(cursor, time=float(times[cursor]))
                    cursor += 1
                snap = s.snapshot(float(g))
                assert snap.improved_threshold >= snap.gl_threshold
                assert snap.improved_sample_size >= snap.gl_sample_size - 1

    def test_sample_size_ratio_near_two(self, rng):
        s = SlidingWindowSampler(k=40, window=1.0, rng=rng)
        times = np.sort(rng.uniform(0, 8, 8 * 600))
        cursor = 0
        ratios = []
        for g in np.arange(3.0, 8.0, 0.5):
            while cursor < times.size and times[cursor] <= g:
                s.update(cursor, time=float(times[cursor]))
                cursor += 1
            snap = s.snapshot(float(g))
            if snap.gl_sample_size:
                ratios.append(snap.improved_sample_size / snap.gl_sample_size)
        assert 1.4 < np.mean(ratios) < 2.8  # paper: ~2x

    def test_uniformity_of_improved_sample(self):
        """Every window item must be included with prob = the threshold.

        Aggregated over many runs, the inclusion frequency of a fixed
        arrival position should match the mean improved threshold.
        """
        window, k = 1.0, 15
        include = 0
        thresholds = []
        trials = 400
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            times = homogeneous_arrivals(120.0, 0.0, 3.0, rng)
            s = SlidingWindowSampler(k=k, window=window, rng=rng)
            probe = None
            for i, t in enumerate(times):
                s.update(i, time=float(t))
                # Choose the first item inside the final window as a probe.
                if probe is None and t > 2.0:
                    probe = i
            sample_keys = set(s.improved_sample(3.0).keys)
            thresholds.append(s.improved_threshold(3.0))
            if probe is not None:
                include += int(probe in sample_keys)
        rate = include / trials
        assert rate == pytest.approx(np.mean(thresholds), abs=0.05)

    def test_window_count_estimate(self, rng):
        # HT count of window arrivals should land near the truth.
        s = SlidingWindowSampler(k=50, window=1.0, rng=rng)
        times = np.sort(rng.uniform(0, 5, 5 * 500))
        feed(s, times)
        truth = np.sum(times > 4.0)
        est = s.estimate_window_count(5.0)
        assert est == pytest.approx(truth, rel=0.5)

    def test_estimates_unbiased_over_trials(self):
        counts, truths = [], []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            times = np.sort(rng.uniform(0.0, 3.0, 600))
            s = SlidingWindowSampler(k=20, window=1.0, rng=rng)
            feed(s, times)
            counts.append(s.estimate_window_count(3.0))
            truths.append(float(np.sum(times > 2.0)))
        bias = np.mean(counts) - np.mean(truths)
        se = np.std(counts, ddof=1) / np.sqrt(len(counts))
        assert abs(bias) < 5.0 * se
