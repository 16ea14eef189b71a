"""Tests for the bottom-k candidate kernel (repro.core.kernels)."""

import numpy as np

from repro.core.kernels import bottomk_candidates


def _scalar_survivors(priorities, k, threshold):
    """Batch positions a scalar bottom-k loop over an empty sketch keeps:
    each item enters unless its priority is >= the current threshold."""
    kept = []
    for i, p in enumerate(priorities):
        if len(kept) > k:
            t = min(threshold, max(priorities[j] for j in kept))
        else:
            t = threshold
        if p >= t:
            continue
        kept.append(i)
        if len(kept) > k + 1:
            kept.remove(max(kept, key=lambda j: (priorities[j], j)))
    return sorted(kept)


def test_returns_batch_order():
    priorities = np.random.default_rng(0).random(50)
    cand = bottomk_candidates(priorities, 5, np.inf)
    assert cand.tolist() == sorted(cand.tolist())
    assert set(cand.tolist()) == set(np.argsort(priorities)[:6].tolist())


def test_threshold_filters_first():
    priorities = np.random.default_rng(1).random(200)
    cand = bottomk_candidates(priorities, 50, 0.1)
    assert cand.tolist() == np.flatnonzero(priorities < 0.1).tolist()
    cand = bottomk_candidates(priorities, 3, 0.1)
    assert cand.tolist() == sorted(np.argsort(priorities)[:4].tolist())


def test_ties_at_the_cut_keep_the_earliest():
    priorities = np.array([0.5, 0.2, 0.5, 0.1, 0.5, 0.9, 0.5])
    assert bottomk_candidates(priorities, 2, np.inf).tolist() == [0, 1, 3]
    assert bottomk_candidates(priorities, 3, np.inf).tolist() == [0, 1, 2, 3]


def test_matches_the_scalar_loop_on_tied_batches():
    rng = np.random.default_rng(2)
    for _ in range(200):
        priorities = rng.integers(0, 6, rng.integers(1, 30)) / 6.0
        k = int(rng.integers(1, 6))
        threshold = float(rng.choice([np.inf, 0.5, 0.9]))
        assert bottomk_candidates(priorities, k, threshold).tolist() == \
            _scalar_survivors(priorities, k, threshold)
