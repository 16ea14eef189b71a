"""Tests for the bottom-k candidate kernel, the key-code factorization
and the key scan (repro.core.kernels)."""

from collections import Counter

import numpy as np

from repro.core.kernels import (
    KeyScan,
    bottomk_candidates,
    key_codes,
)


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


def test_key_scan_tracks_by_dict_equality_from_either_side():
    """The starting flags mark exactly the codes whose key a dict holding
    the table finds, whether the scan looks the table's keys up among the
    batch's codes (a table no larger than the batch) or the batch's keys
    up in the table."""
    keys = [1.0, True, np.int64(5), 6, -1, "1", 2**61 + 4]
    table = dict.fromkeys(keys)
    for batch in (np.array([0, 1, 5]), np.array([0, 1, 5, 9, 9, 9, 9, 9])):
        scan = KeyScan(batch, table)
        assert scan.tracked[scan.codes].tolist() == [
            key in table for key in batch.tolist()
        ]
    assert KeyScan(np.array([0, 1, 5]), {}).codes_of(keys) == [1, 1, 5]
    keys = [3, (1, 2), "y", "x"]
    table = dict.fromkeys(keys)
    for batch in (["x", (1, 2), 3.0], ["x", (1, 2), 3.0, "z", "x"] * 2):
        scan = KeyScan(batch, table)
        assert scan.tracked[scan.codes].tolist() == [
            key in table for key in batch
        ]
    assert KeyScan(["x", (1, 2), 3.0], {}).codes_of(keys) == [2, 1, 0]


def test_key_scan_present_codes():
    """Identity codes skip the values a batch lacks, sparse or dense."""
    assert KeyScan(np.array([5, 900, 5]), {}).present().tolist() == [5, 900]
    assert KeyScan([2, 0, 2] * 10, {}).present().tolist() == [0, 2]
    assert KeyScan(["b", "a", "b"], {}).present().tolist() == [0, 1]


def _walk(scan, drops=None, bail=True):
    """Replay a scan the way a key-table sketch does: insert every event's
    key and drop the keys ``drops`` names at an event position."""
    seen = []
    for i, code in scan.events(bail=bail):
        seen.append(i)
        scan.tracked[code] = True
        if drops and i in drops:
            scan.untrack(drops[i], i)
    return seen


def test_key_scan_events_untrack_and_bail_out():
    keys = [3, 1, 3, 2, 1, 4, 3, 1, 2]
    assert _walk(KeyScan(keys, {3: 0})) == [1, 3, 5]
    # One dropped key (occurrence index) and several (mask pass): their
    # later occurrences are events again.
    assert _walk(KeyScan(keys, {3: 0}), {3: [1]}) == [1, 3, 4, 5]
    assert _walk(KeyScan(keys, {3: 0}), {3: [1, 3]}) == [1, 3, 4, 5, 6]
    assert _walk(KeyScan([str(k) for k in keys], {"3": 0}), {3: ["1"]}) == [
        1, 3, 4, 5
    ]
    # A later chunk made mostly of events ends the walk at its start.
    keys = [0] * 4096 + list(range(1, 4097))
    scan = KeyScan(keys, {})
    assert _walk(scan) == [0] and scan.stop == 4096
    scan = KeyScan(keys, {})
    assert len(_walk(scan, bail=False)) == 4097 and scan.stop == len(keys)


def test_key_scan_span_counts_leave_out_the_events():
    scan = KeyScan([5, 5, 7, 5, 7], {5: 0, 7: 0})
    scan.skipped[7] = 1
    assert sorted(scan.counts(4)) == [(5, 3)]
    assert scan.skipped == {} and scan.counts(5) == [(7, 1)]
    weights = np.array([2, 1, 3, 1, 4], dtype=np.int64)
    scan = KeyScan(["a", "a", "b", "a", "b"], {}, weights=weights)
    scan.skipped[1] = 3
    assert sorted(scan.counts(5)) == [(0, 4), (1, 4)]
    # Long spans: bincount over dense codes, unique over sparse ones.
    rng = np.random.default_rng(3)
    for keys in (rng.integers(0, 10, 1000), rng.integers(0, 10, 1000) * 10**5):
        weights = rng.integers(1, 5, keys.size)
        for w in (None, weights):
            scan = KeyScan(keys, {}, weights=w)
            expect = Counter()
            for i, code in enumerate(scan.codes.tolist()):
                expect[code] += 1 if w is None else int(w[i])
            scan.skipped[int(scan.codes[0])] = 1
            expect[int(scan.codes[0])] -= 1
            got = scan.counts(keys.size)
            assert all(type(c) is int for _, c in got)
            assert dict(got) == {c: x for c, x in expect.items() if x}
