"""Tests for the sorted row store and the keyed bottom-k set
(repro.core.bottomk_store)."""

import math
import os

import numpy as np
import pytest

from repro.core.bottomk_store import BottomKStore, KeyedBottomK

#: Seeds of the schedule property test: 200 by default, 3000 under
#: ``REPRO_SOAK=1``.
SEEDS = 3000 if os.environ.get("REPRO_SOAK") else 200


def _store(k=3, priorities=(), keys=None, cap=math.inf):
    store = BottomKStore(k, ("weights",), cap=cap)
    priorities = np.asarray(priorities, dtype=float)
    keys = list(range(priorities.size)) if keys is None else keys
    store.offer(priorities, keys, weights=np.ones(priorities.size))
    return store


class TestThreshold:
    def test_underfull_threshold_is_the_cap(self):
        assert _store(3, [0.5, 0.2]).threshold == math.inf
        assert _store(3, [0.5, 0.2], cap=0.4).threshold == 0.4
        assert len(_store(3, [0.5, 0.2], cap=0.4)) == 1

    def test_full_threshold_is_the_k_plus_first_priority(self):
        store = _store(3, [0.9, 0.1, 0.7, 0.3, 0.5])
        assert store.priorities.tolist() == [0.1, 0.3, 0.5, 0.7]
        assert store.threshold == 0.7
        assert len(store) == 3

    def test_len_counts_rows_below_a_tied_threshold(self):
        store = _store(3, [0.1, 0.5, 0.5, 0.5])
        assert store.threshold == 0.5
        assert len(store) == len(store.below()["keys"]) == 1


class TestTies:
    def test_stored_row_beats_a_tied_batch_row(self):
        store = _store(1, [0.2, 0.6], keys=["old", "x"])
        store.offer(np.array([0.2, 0.1]), ["new", "y"],
                    weights=np.ones(2))
        assert store.keys.tolist() == ["y", "old"]

    def test_batch_order_among_tied_rows(self):
        store = _store(1, [0.3, 0.3, 0.3], keys=["a", "b", "c"])
        assert store.keys.tolist() == ["a", "b"]

    def test_scalar_update_matches_the_batch_offer(self):
        rng = np.random.default_rng(0)
        priorities = rng.integers(0, 5, 40) / 5.0
        batch = _store(4, priorities)
        scalar = BottomKStore(4, ("weights",))
        for i, p in enumerate(priorities):
            scalar.update(float(p), i, weights=1.0)
        assert scalar.keys.tolist() == batch.keys.tolist()
        assert scalar.priorities.tolist() == batch.priorities.tolist()


class TestBudgetAndMerge:
    def test_shrink_cuts_and_grow_caps(self):
        store = _store(4, [0.5, 0.1, 0.4, 0.2, 0.3, 0.6])
        store.resize(2)
        assert store.priorities.tolist() == [0.1, 0.2, 0.3]
        store.resize(5)
        assert store.cap == 0.3
        assert store.threshold == 0.3
        assert len(store) == 2
        with pytest.raises(ValueError, match="positive"):
            store.resize(0)

    def test_union_takes_the_smaller_cap_and_cuts(self):
        a = _store(2, [0.1, 0.5], keys=["a1", "a2"], cap=0.8)
        b = _store(2, [0.2, 0.3], keys=["b1", "b2"], cap=0.6)
        a.union(b)
        assert a.cap == 0.6
        assert a.keys.tolist() == ["a1", "b1", "b2"]

    def test_union_rejects_a_different_k(self):
        with pytest.raises(ValueError, match="different k"):
            _store(2, [0.1]).union(_store(3, [0.2]))


class TestRows:
    def test_rows_round_trip_with_missing_payloads(self):
        store = BottomKStore(3, ("weights", "times"))
        store.offer(np.array([0.4, 0.2]), [("t", 1), "s"],
                    weights=np.array([1.0, 2.0]))
        store.update(0.3, 7, weights=3.0, times=1.5)
        layout = ("priorities", "keys", "weights", "times")
        rows = store.rows(layout)
        assert rows == [(0.2, "s", 2.0, None), (0.3, 7, 3.0, 1.5),
                        (0.4, ("t", 1), 1.0, None)]
        revived = BottomKStore(3, ("weights", "times"))
        revived.load_rows([rows[2][:3], rows[0], rows[1]], layout)
        assert revived.rows(layout) == rows

    def test_holds_is_a_sorted_column_lookup(self):
        store = _store(3, [0.4, 0.2])
        assert store.holds(np.array([0.2, 0.3, 0.4])).tolist() == [
            True, False, True]
        assert bool(store.holds(0.4))
        assert not bool(BottomKStore(3).holds(0.4))


class TestKeyedBottomK:
    def test_offer_reports_join_meet_and_no_op(self):
        rows = KeyedBottomK(2, cap=0.9)
        assert [rows.offer(key, p) for key, p in
                [("a", 0.5), ("b", 0.2), ("a", 0.1), ("c", 0.95),
                 ("d", 0.7)]] == [1, 1, 0, 0, 1]
        assert rows.threshold == 0.7
        # A full set: a smaller priority displaces the largest, a larger
        # one (or a tie with it) is rejected; both report -1.
        assert rows.offer("e", 0.3) == -1
        assert rows.offer("f", 0.5) == -1
        assert rows.offer("g", 0.6) == -1
        assert rows.members == {"a": 0.5, "b": 0.2, "e": 0.3}
        assert rows.threshold == 0.5

    def test_threshold_is_the_cap_while_underfull_and_capped_after(self):
        rows = KeyedBottomK(2, cap=0.4)
        rows.offer("a", 0.1)
        assert rows.threshold == 0.4
        rows.offer("b", 0.3)
        rows.offer("c", 0.35)
        assert rows.threshold == 0.35
        assert KeyedBottomK(1).threshold == math.inf

    def test_members_keep_arrival_order(self):
        rows = KeyedBottomK(3)
        for i, p in enumerate([0.9, 0.1, 0.5, 0.3, 0.2, 0.4]):
            rows.offer(i, p)
        # 0.9 and then 0.5 were displaced; newcomers join at the end.
        assert list(rows.members) == [1, 3, 4, 5]

    def test_load_keeps_the_given_rows_and_order(self):
        rows = KeyedBottomK(2)
        rows.load([(("t", 1), 0.4), ("s", 0.1), (7, 0.3)])
        assert list(rows.members) == [("t", 1), "s", 7]
        assert rows.threshold == 0.4
        assert rows.offer("x", 0.2) == -1
        assert rows.members == {"s": 0.1, 7: 0.3, "x": 0.2}


class TestUnboundedStore:
    """``BottomKStore(None, ...)``: every row offered below the cap, with
    queued rows sorted in by :meth:`~BottomKStore.merge`."""

    @pytest.mark.parametrize("seed", range(5))
    def test_merged_rows_are_a_stable_sort_whatever_the_schedule(self, seed):
        """Single rows and batches, merged at random points, land in the
        order of one stable sort of every row by arrival: tied rows keep
        arrival order, stored rows first."""
        rng = np.random.default_rng(seed)
        n = 200
        priorities = rng.integers(0, 12, n) / 12.0
        store = BottomKStore(None, ("weights",))
        pos = 0
        while pos < n:
            if rng.random() < 0.5:
                store.add(float(priorities[pos]), pos, weights=float(pos))
                pos += 1
            else:
                end = min(n, pos + int(rng.integers(1, 20)))
                store.offer(priorities[pos:end], list(range(pos, end)),
                            weights=np.arange(pos, end, dtype=float))
                pos = end
            if rng.random() < 0.2:
                store.merge()
        order = priorities.argsort(kind="stable")
        assert len(store) == n
        assert store.keys.tolist() == order.tolist()
        assert store.priorities.tolist() == priorities[order].tolist()
        assert store.columns["weights"].tolist() == order.tolist()

    def test_cut_lowers_the_cap_and_drops_rows_at_or_above_it(self):
        store = BottomKStore(None, ("sizes",))
        store.offer(np.array([0.4, 0.1, 0.3]), ["a", "b", "c"],
                    sizes=np.ones(3))
        store.add(0.3, "d", sizes=2.0)
        store.cut(0.3)
        assert store.cap == 0.3
        assert store.keys.tolist() == ["b"]
        store.cut(0.5)
        assert store.cap == 0.3
        store.cut(np.float64(0.2))
        assert type(store.cap) is float

    def test_below_copies_the_rows_under_a_threshold(self):
        store = BottomKStore(None, ("weights",))
        store.offer(np.array([0.5, 0.2]), [("t", 1), "s"],
                    weights=np.array([1.0, 2.0]))
        rows = store.below(0.4)
        assert rows["keys"] == ["s"]
        rows["priorities"][0] = 9.0
        assert store.priorities.tolist() == [0.2, 0.5]
        assert store.below()["keys"] == ["s", ("t", 1)]

    def test_rows_round_trip_in_their_order(self):
        layout = ("priorities", "keys", "weights", "values")
        store = BottomKStore(None, layout[2:])
        store.add(0.3, 7, weights=3.0, values=1.5)
        store.offer(np.array([0.3, 0.2]), [("t", 1), "s"],
                    weights=np.array([1.0, 2.0]), values=np.zeros(2))
        rows = store.rows(layout)
        assert rows == [(0.2, "s", 2.0, 0.0), (0.3, 7, 3.0, 1.5),
                        (0.3, ("t", 1), 1.0, 0.0)]
        revived = BottomKStore(None, layout[2:], cap=0.9)
        revived.load_rows(rows, layout)
        assert revived.rows(layout) == rows
        empty = BottomKStore(None, layout[2:])
        empty.load_rows([], layout)
        assert len(empty) == 0
        assert empty.rows(layout) == []


def _schedule_stores(seed):
    """Feed one random schedule of single rows, batches, merges and cuts,
    with tied priorities, to an unbounded store, a bounded store with room
    for every row and a bounded store with a small ``k``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    k = int(rng.integers(1, 10))
    priorities = rng.integers(0, 10, n) / 10.0
    weights = np.arange(n, dtype=float)
    unbounded = BottomKStore(None, ("weights",))
    roomy = BottomKStore(n, ("weights",))
    small = BottomKStore(k, ("weights",))
    bounded = (roomy, small)
    pos = 0
    while pos < n:
        step = rng.random()
        if step < 0.35:
            p = float(priorities[pos])
            if p < unbounded.cap:
                unbounded.add(p, pos, weights=weights[pos])
            for store in bounded:
                store.update(p, pos, weights=weights[pos])
            pos += 1
        elif step < 0.75:
            end = min(n, pos + int(rng.integers(1, 16)))
            at = pos + np.flatnonzero(rng.random(end - pos) < 0.7)
            fresh = at[priorities[at] < unbounded.cap]
            unbounded.offer(priorities[fresh], fresh.tolist(),
                            weights=weights[fresh])
            for store in bounded:
                store.offer(priorities[at], np.arange(n), at=at,
                            weights=weights)
            pos = end
        elif step < 0.85:
            unbounded.merge()
        else:
            t = float(rng.integers(1, 11)) / 10.0
            for store in (unbounded, *bounded):
                store.cut(t)
    return unbounded, roomy, small


class TestOneStore:
    def test_unbounded_bounded_and_cut_agree_on_every_schedule(self):
        """An unbounded store equals a bounded one with room for every
        row offered, and a bounded store equals the unbounded store cut
        to its ``k + 1`` rows: the same rows, order and cap."""
        layout = ("priorities", "keys", "weights")
        diverged = []
        for seed in range(SEEDS):
            unbounded, roomy, small = _schedule_stores(seed)
            rows = unbounded.rows(layout)
            if roomy.rows(layout) != rows or \
                    small.rows(layout) != rows[: small.k + 1] or \
                    not unbounded.cap == roomy.cap == small.cap:
                diverged.append(seed)
        assert diverged == []
