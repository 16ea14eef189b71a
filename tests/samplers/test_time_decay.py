"""Tests for time-decayed sampling (repro.samplers.time_decay, §2.9)."""

import math

import numpy as np
import pytest

from repro.samplers.time_decay import ExponentialDecaySampler

from tests.helpers import assert_within_se


class TestMechanics:
    def test_sample_size_bounded(self, rng):
        s = ExponentialDecaySampler(k=10, decay_rate=0.5, rng=rng)
        for i in range(500):
            s.update(i, time=i * 0.01)
        assert len(s) == 10

    def test_times_must_be_nondecreasing(self, rng):
        s = ExponentialDecaySampler(k=3, decay_rate=0.5, rng=rng)
        s.update("a", time=1.0)
        with pytest.raises(ValueError):
            s.update("b", time=0.5)

    def test_weight_validation(self, rng):
        s = ExponentialDecaySampler(k=3, decay_rate=0.5, rng=rng)
        with pytest.raises(ValueError):
            s.update("a", weight=0.0, time=0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExponentialDecaySampler(k=0, decay_rate=0.5)
        with pytest.raises(ValueError):
            ExponentialDecaySampler(k=5, decay_rate=-1.0)

    def test_recency_bias(self):
        """Later arrivals must be retained more often under decay."""
        old_hits = new_hits = 0
        for seed in range(300):
            s = ExponentialDecaySampler(k=20, decay_rate=1.0,
                                        rng=np.random.default_rng(seed))
            for i in range(200):
                s.update(i, time=i * 0.05)
            kept = set(s.keys())
            old_hits += sum(1 for i in range(50) if i in kept)
            new_hits += sum(1 for i in range(150, 200) if i in kept)
        assert new_hits > 2 * old_hits

    def test_zero_decay_is_plain_weighted_sample(self):
        # With decay 0 arrival times are irrelevant.
        inclusion = np.zeros(100)
        for seed in range(400):
            s = ExponentialDecaySampler(k=10, decay_rate=0.0,
                                        rng=np.random.default_rng(seed))
            for i in range(100):
                s.update(i, time=float(i))
            for key in s.keys():
                inclusion[key] += 1
        # Uniform weights + zero decay: every position equally likely.
        rates = inclusion / 400
        assert rates.std() < 0.08
        assert rates.mean() == pytest.approx(0.1, abs=0.02)


class TestEstimation:
    def test_decayed_total_unbiased(self):
        lam = 0.8
        times = np.linspace(0, 5, 150)
        weights = np.random.default_rng(0).lognormal(0, 0.4, 150)
        now = 5.0
        truth = float(np.sum(weights * np.exp(-lam * (now - times))))
        estimates = []
        for seed in range(500):
            s = ExponentialDecaySampler(k=25, decay_rate=lam,
                                        rng=np.random.default_rng(seed))
            for i, t in enumerate(times):
                s.update(i, weight=float(weights[i]), time=float(t))
            estimates.append(s.estimate_decayed_total(now))
        assert_within_se(estimates, truth)

    def test_subset_decayed_total(self, rng):
        lam = 0.5
        s = ExponentialDecaySampler(k=50, decay_rate=lam, rng=rng)
        times = np.linspace(0, 3, 120)
        for i, t in enumerate(times):
            s.update(i, time=float(t))
        est = s.estimate_decayed_total(3.0, predicate=lambda key: key >= 60)
        truth = float(np.sum(np.exp(-lam * (3.0 - times[60:]))))
        assert est == pytest.approx(truth, rel=0.6)

    def test_inclusion_probability_formula(self, rng):
        s = ExponentialDecaySampler(k=5, decay_rate=0.3, rng=rng)
        for i in range(50):
            s.update(i, weight=2.0, time=float(i) * 0.1)
        log_t = s.log_threshold
        sample = s.sample()
        assert len(sample) == 5
        for weight, time, probability in zip(
            sample.weights, sample.times, sample.probabilities
        ):
            expected = math.exp(
                min(0.0, log_t + math.log(weight) + 0.3 * time)
            )
            assert probability == pytest.approx(expected)

    def test_long_stream_no_overflow(self, rng):
        # Log-domain priorities must survive large time values.
        s = ExponentialDecaySampler(k=5, decay_rate=1.0, rng=rng)
        for i in range(1000):
            s.update(i, time=float(i * 10))
        est = s.estimate_decayed_total(10_000.0)
        assert np.isfinite(est)
