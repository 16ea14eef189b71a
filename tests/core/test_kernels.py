"""Tests for the bottom-k candidate kernel and the key-code factorization
(repro.core.kernels)."""

import numpy as np

from repro.core.kernels import bottomk_candidates, code_lookup, key_codes


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


def _dict_codes(values):
    """Reference factorization: a dict's notion of one key."""
    index: dict = {}
    return [index.setdefault(key, len(index)) for key in values]


def test_key_codes_share_a_code_exactly_when_a_dict_does():
    nan = float("nan")
    batches = [
        np.array([3, 1, 3, 0, 7]),
        [3, 1, 3, 0, 7],
        np.array([-2, 5, -2, 2**40]),
        [2**70, 1, 2**70],
        np.array([2**63 + 1, 2**63 + 1, 5], dtype=np.uint64),
        ["b", "a", "b"],
        np.array(["b", "a", "b"]),
        np.array([0.0, -0.0, nan, 1.5, nan, 1.5]),
        [(1, 2), (3, 4), (1, 2)],
        [True, False, True],
        [1, 1.0, True, "1", 2],
    ]
    for keys in batches:
        codes, distinct, spelled = key_codes(keys)
        values = keys.tolist() if isinstance(keys, np.ndarray) else keys
        ref = _dict_codes(values)
        # Same partition of positions, whatever the code numbering.
        pairs = set(zip(codes.tolist(), ref))
        assert len(pairs) == len(set(ref)) == len(set(codes.tolist()))
        for i, key in enumerate(values):
            rep = distinct[codes[i]]
            assert rep == key or repr(rep) == repr(key) == "nan"
            assert spelled is None or repr(spelled[i]) == repr(key)


def test_key_codes_routes():
    dense = np.array([4, 0, 4])
    codes, distinct, spelled = key_codes(dense)
    assert codes is dense and distinct == range(5) and spelled is None
    codes, distinct, spelled = key_codes([4, 0, 4])
    assert codes.tolist() == [4, 0, 4] and distinct == range(5)
    codes, distinct, spelled = key_codes(np.array([-1, 9, -1]))
    assert distinct == [-1, 9] and codes.tolist() == [0, 1, 0]
    assert spelled is None
    # A list with a bool is not a list of plain ints: True keeps its
    # spelling, and 1 shares its code.
    codes, distinct, spelled = key_codes([True, 1, 2])
    assert distinct == [True, 2] and codes.tolist() == [0, 0, 1]
    assert spelled[1] is 1  # noqa: F632 - the occurrence's own spelling
    zeros = np.array([-0.0, 0.0])
    codes, distinct, spelled = key_codes(zeros)
    assert codes.tolist() == [0, 0] and str(spelled[1]) == "0.0"
    codes, distinct, _ = key_codes(np.array([np.nan, np.nan]))
    assert codes.tolist() == [0, 1] and len(distinct) == 2
    codes, distinct, _ = key_codes(np.array([], dtype=np.int64))
    assert codes.size == 0 and len(distinct) == 0


def test_code_lookup_uses_dict_equality():
    _, distinct, _ = key_codes(np.array([0, 1, 5]))
    lookup = code_lookup(distinct)
    assert lookup([1.0, True, np.int64(5), 6, -1, "1", 2**61 + 4]) == [1, 1, 5]
    _, distinct, _ = key_codes(["x", (1, 2), 3.0])
    lookup = code_lookup(distinct)
    assert lookup([3, (1, 2), "y", "x"]) == [2, 1, 0]
