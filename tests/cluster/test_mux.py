"""The tenant multiplexer sampler: routed blocks, composite rows, admin
ops, portability."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.hashing import batch_hash_to_unit, hash_to_unit
from repro.serve import StreamService, WriteAheadLog
from repro.serve.batcher import chunk_of
from repro.serve.cluster.frontend import _ingest_fields, _is_binary
from repro.serve.cluster.mux import (
    TenantMuxSampler,
    create_op,
    drop_op,
    install_op,
    key_block,
)
from tests.cluster.common import (
    control_signature,
    run_async,
    tenant_spec,
    tenant_stream,
)
from tests.helpers import sample_signature


def _mux(n_tenants: int = 3) -> TenantMuxSampler:
    return TenantMuxSampler(
        {f"t{i}": tenant_spec(i) for i in range(n_tenants)}
    )


def _rows(tenant: str, keys) -> list[tuple]:
    """Composite ``(tenant, key)`` rows for one tenant's key batch."""
    return [(tenant, key) for key in np.asarray(keys).tolist()]


def _routed(mux: TenantMuxSampler, tenant: str, keys, *columns) -> None:
    """Apply one tenant's block the way a cluster worker flush does."""
    keys = key_block(keys)
    mux.update_many(keys, *columns, routes=[(tenant, len(keys))])


def _interleaved(n_tenants: int = 3, n: int = 300) -> list[tuple]:
    """Row-interleaved composite stream over ``n_tenants`` tenant streams."""
    streams = {
        f"t{i}": tenant_stream(i, n).tolist() for i in range(n_tenants)
    }
    rows = []
    for at in range(n):
        for tenant in streams:
            rows.append((tenant, streams[tenant][at]))
    return rows


class TestGrouping:
    def test_batch_matches_scalar_routing(self):
        rows = _interleaved()
        batch, scalar = _mux(), _mux()
        batch.update_many(rows)
        for tenant, key in rows:
            scalar.update((tenant, key))
        for tenant in batch.tenants():
            assert sample_signature(batch.tenant_sampler(tenant)) == \
                sample_signature(scalar.tenant_sampler(tenant))

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunking_invariance_per_tenant(self, chunk):
        rows = _interleaved()
        whole, split = _mux(), _mux()
        whole.update_many(rows)
        for lo in range(0, len(rows), chunk):
            split.update_many(rows[lo:lo + chunk])
        for tenant in whole.tenants():
            assert sample_signature(whole.tenant_sampler(tenant)) == \
                sample_signature(split.tenant_sampler(tenant))

    def test_each_tenant_matches_an_isolated_control(self):
        mux = _mux()
        mux.update_many(_interleaved())
        for i in range(3):
            assert sample_signature(mux.tenant_sampler(f"t{i}")) == \
                control_signature(i, tenant_stream(i, 300))

    def test_optional_columns_slice_per_tenant(self):
        rows = _interleaved(2, 100)
        weights = np.random.default_rng(3).lognormal(0.0, 0.5, len(rows))
        mux = _mux(2)
        mux.update_many(rows, weights)
        controls = {t: repro.SamplerSpec.from_dict(tenant_spec(int(t[1]))).build()
                    for t in ("t0", "t1")}
        for (tenant, key), w in zip(rows, weights):
            controls[tenant].update(key, float(w))
        for tenant, control in controls.items():
            assert sample_signature(mux.tenant_sampler(tenant)) == \
                sample_signature(control)

    def test_applied_counters_track_data_rows_only(self):
        mux = TenantMuxSampler()
        mux.apply_admin(create_op("a", tenant_spec(0)))
        mux.update_many(_rows("a", [1, 2, 3]))
        mux.apply_admin({"op": "create", "tenant": "b",
                         "spec": tenant_spec(1)})
        mux.update(("a", 4))
        assert mux.events_applied_for("a") == 4
        assert mux.events_applied_for("b") == 0
        assert mux.applied_counts == {"a": 4, "b": 0}

    def test_tuple_keys_match_scalar_path(self):
        """Equal-length numeric tuple keys coerce to a 2-D array under
        ``np.asarray``; the batch path must still treat each tuple as one
        key (list form), exactly like the scalar ``update`` path."""
        pairs = [(int(k), int(k) + 1) for k in tenant_stream(0, 120)]
        rows = [("t0", pair) for pair in pairs]
        batch, scalar = _mux(1), _mux(1)
        batch.update_many(rows)
        for row in rows:
            scalar.update(row)
        assert batch.events_applied_for("t0") == len(pairs)
        assert sample_signature(batch.tenant_sampler("t0")) == \
            sample_signature(scalar.tenant_sampler("t0"))

    def test_ragged_tuple_keys_match_scalar_path(self):
        """Mixed-arity tuple keys (which ``np.asarray`` refuses outright)
        also fall back to the list form."""
        rows = [("t0", (1, 2)), ("t0", (3, 4, 5)), ("t0", (6,))]
        batch, scalar = _mux(1), _mux(1)
        batch.update_many(rows)
        for row in rows:
            scalar.update(row)
        assert batch.events_applied_for("t0") == 3
        assert sample_signature(batch.tenant_sampler("t0")) == \
            sample_signature(scalar.tenant_sampler("t0"))

    def test_unknown_tenant_rows_raise(self):
        mux = _mux(1)
        with pytest.raises(KeyError, match="unknown tenant"):
            mux.update(("ghost", 1))
        with pytest.raises(KeyError, match="unknown tenant"):
            mux.update_many([("ghost", 1)])
        with pytest.raises(KeyError, match="unknown tenant"):
            mux.update_many(np.arange(3), routes=[("ghost", 3)])

    def test_legacy_admin_rows_are_refused_not_replayed(self):
        """The older WAL format carried admin ops as ``("__mux_admin__",
        op)`` rows; the row form refuses them by the reserved prefix
        instead of feeding an op dict to a sampler as a key."""
        mux = _mux(1)
        legacy = ("__mux_admin__", {"op": "drop", "tenant": "t0"})
        with pytest.raises(ValueError, match="reserved"):
            mux.update_many([("t0", 1), legacy])
        with pytest.raises(ValueError, match="reserved"):
            mux.update(legacy)
        assert mux.has_tenant("t0")


class TestRoutedBlocks:
    def test_routes_match_the_row_form(self):
        """Routed runs — a tenant's rows split over several runs,
        with every optional column — apply exactly like the same events
        as composite rows."""
        rows = _interleaved(3, 120)
        weights = np.random.default_rng(4).lognormal(0.0, 0.5, len(rows))
        routes, keys = [], []
        for tenant, key in rows:
            if routes and routes[-1][0] == tenant:
                routes[-1] = (tenant, routes[-1][1] + 1)
            else:
                routes.append((tenant, 1))
            keys.append(key)
        routed, by_rows = _mux(), _mux()
        routed.update_many(np.asarray(keys), weights, routes=routes)
        by_rows.update_many(rows, weights)
        for tenant in routed.tenants():
            assert routed.events_applied_for(tenant) == 120
            assert sample_signature(routed.tenant_sampler(tenant)) == \
                sample_signature(by_rows.tenant_sampler(tenant))

    def test_list_blocks_route_per_tenant(self):
        """Non-numeric blocks (strings, tuple keys) travel as lists."""
        mux = _mux(2)
        words = [f"w{i}" for i in range(40)]
        pairs = [(i, i + 1) for i in range(30)]
        assert key_block(np.asarray(words)) == words
        assert key_block(pairs) == pairs
        mux.update_many(words + pairs, routes=[("t0", 40), ("t1", 30)])
        control = _mux(2)
        for word in words:
            control.update(("t0", word))
        for pair in pairs:
            control.update(("t1", pair))
        for tenant in ("t0", "t1"):
            assert sample_signature(mux.tenant_sampler(tenant)) == \
                sample_signature(control.tenant_sampler(tenant))

    def test_key_block_keeps_numeric_arrays(self):
        keys = np.arange(5, dtype=np.uint64)
        assert key_block(keys) is keys
        assert key_block([1, 2, 3]).dtype == np.int64
        assert key_block([1.5, 2.5]).dtype == np.float64
        assert key_block([True, False]) == [True, False]
        assert key_block([(1, 2), (3,)]) == [(1, 2), (3,)]


#: The list rule, one row per list form: ``key_block``'s dtype (``None``
#: when the keys stay a list) and values, and whether ``ClusterClient``
#: sends the block as a binary frame.  An int-led list is packed as
#: int64 unless an item is not an integer or falls outside int64; numpy
#: dtype discovery reads every other list.
LIST_RULE = {
    "ints": ([3, 1, 2], "int64", [3, 1, 2], True),
    "int-led-true": ([1, True], "int64", [1, 1], True),
    "int-led-np-int64": ([1, np.int64(5)], "int64", [1, 5], True),
    "int-led-np-uint32": ([1, np.uint32(5)], "int64", [1, 5], True),
    # numpy's dtype discovery alone promotes int64 with uint64 to float64.
    "int-led-np-uint64": ([1, np.uint64(5)], "int64", [1, 5], True),
    "int-led-np-bool": ([1, np.True_], "int64", [1, 1], True),
    "int-past-int64": ([1, 2**63], "uint64", [1, 2**63], True),
    "int-past-uint64": ([1, 2**64], None, [1, 2**64], False),
    "int-below-int64": ([1, -2**63 - 1], None, [1, -2**63 - 1], False),
    "int-led-float": ([1, 2.5], "float64", [1.0, 2.5], True),
    "int-led-int-valued-float": ([1, 2.0], "float64", [1.0, 2.0], True),
    "int-led-str": ([1, "a"], None, [1, "a"], False),
    "int-led-none": ([1, None], None, [1, None], False),
    "int-led-tuple": ([1, (2, 3)], None, [1, (2, 3)], False),
    "bool-led": ([True, False], None, [True, False], False),
    "bool-led-int": ([True, 2], "int64", [1, 2], True),
    "float-led": ([1.5, 2], "float64", [1.5, 2.0], True),
    "str-led": (["a", 1], None, ["a", 1], False),
    "empty": ([], "float64", [], True),
}

#: Float columns the strict pass reads, or hands to ``np.asarray``.
FLOAT_COLUMNS = {
    "floats": [0.5, -0.0, float("nan"), float("-inf")],
    "ints": [1, -3, 2**53 + 1, 2**64 + 1],
    "bools": [True, False],
    "none": [1.5, None],
    "numeric-strings": ["1.5", " 2 ", "1e3", "nan"],
    "numpy-scalars": [np.float32(1.1), np.int64(3), np.uint64(2**64 - 1)],
}


class TestListRule:
    @pytest.mark.parametrize("form", LIST_RULE)
    def test_key_block_and_frame_kind_of_each_list_form(self, form):
        keys, dtype, values, binary = LIST_RULE[form]
        block = key_block(list(keys))
        if dtype is None:
            assert type(block) is list
            assert repr(block) == repr(values)
        else:
            assert isinstance(block, np.ndarray) and block.ndim == 1
            assert block.dtype == dtype
            assert block.tolist() == values
        fields = _ingest_fields(list(keys), {})
        assert _is_binary(fields) is binary
        if binary:
            assert np.asarray(fields["keys"]).dtype == block.dtype
        else:
            assert repr(fields["keys"]) == repr(values)

    def test_a_str_led_list_reaches_the_child_without_numpy(
        self, monkeypatch
    ):
        """A str-led list stays a list after one type test of its first
        key: numpy's dtype discovery, which would build a string array
        only to drop it, never runs."""
        from repro.serve.cluster import mux as mux_module

        class NumpyWithoutAsarray:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def asarray(*args, **kwargs):
                raise AssertionError("np.asarray ran on a str-led list")

        monkeypatch.setattr(mux_module, "np", NumpyWithoutAsarray())
        keys = [f"k{i}" for i in range(300)] + [7, (1, 2)]
        block = key_block(keys)
        assert type(block) is list and block == keys and block is not keys
        mux = _mux(1)
        _routed(mux, "t0", keys)
        assert sample_signature(mux.tenant_sampler("t0")) == \
            control_signature(0, keys)

    def test_an_np_uint64_in_an_int_list_hashes_as_its_integer(self):
        keys = [1, np.uint64(5)]
        assert batch_hash_to_unit(key_block(keys), 7).tolist() == \
            [hash_to_unit(key, 7) for key in keys]

    @pytest.mark.parametrize("form", FLOAT_COLUMNS)
    def test_float_columns_read_as_numpy_reads_them(self, form):
        column = FLOAT_COLUMNS[form]
        want = np.asarray(column, dtype="<f8").tobytes()
        keys = list(range(len(column)))
        assert chunk_of(keys, weights=column)["weights"].tobytes() == want
        fields = _ingest_fields(keys, {"weights": column})
        assert np.asarray(fields["weights"]).tobytes() == want


class TestAdminOps:
    def test_create_then_data(self):
        mux = TenantMuxSampler()
        keys = tenant_stream(0, 200)
        mux.apply_admin(create_op("t0", tenant_spec(0)))
        _routed(mux, "t0", keys)
        assert sample_signature(mux.tenant_sampler("t0")) == \
            control_signature(0, keys)

    def test_admin_ops_order_against_data(self):
        """Data before a drop applies; data after a (re)create applies to
        the fresh sampler — stream position is what counts."""
        keys = tenant_stream(0, 100)
        mux = TenantMuxSampler()
        mux.apply_admin(create_op("t0", tenant_spec(0)))
        _routed(mux, "t0", keys)
        mux.apply_admin(drop_op("t0"))
        mux.apply_admin(create_op("t0", tenant_spec(0)))
        _routed(mux, "t0", keys[:10])
        assert sample_signature(mux.tenant_sampler("t0")) == \
            control_signature(0, keys[:10])
        assert mux.events_applied_for("t0") == 10

    def test_admin_ops_advance_the_state_version(self):
        mux = TenantMuxSampler()
        before = mux.state_version
        mux.apply_admin(create_op("t0", tenant_spec(0)))
        assert mux.state_version > before

    def test_install_continues_state_bit_exactly(self):
        keys = tenant_stream(0, 400)
        donor = TenantMuxSampler({"t0": tenant_spec(0)})
        _routed(donor, "t0", keys[:250])
        state = donor.tenant_sampler("t0").to_state()

        receiver = TenantMuxSampler()
        receiver.apply_admin(
            install_op("t0", state, donor.events_applied_for("t0"))
        )
        assert receiver.events_applied_for("t0") == 250
        _routed(receiver, "t0", keys[250:])
        assert sample_signature(receiver.tenant_sampler("t0")) == \
            control_signature(0, keys)

    def test_duplicate_create_raises(self):
        mux = _mux(1)
        with pytest.raises(ValueError, match="already exists"):
            mux.apply_admin(create_op("t0", tenant_spec(0)))

    def test_install_over_existing_copy_replaces_it(self):
        """Install is idempotent: a retried handoff ships the flushed
        source state again, and it must overwrite the stale uncommitted
        copy a failed earlier attempt left on the destination."""
        keys = tenant_stream(0, 200)
        donor = TenantMuxSampler({"t0": tenant_spec(0)})
        _routed(donor, "t0", keys)
        op = install_op(
            "t0",
            donor.tenant_sampler("t0").to_state(),
            donor.events_applied_for("t0"),
        )
        receiver = _mux(1)  # already holds a diverged copy of t0
        _routed(receiver, "t0", tenant_stream(1, 50))
        receiver.apply_admin(op)
        receiver.apply_admin(op)  # and twice is the same as once
        assert receiver.events_applied_for("t0") == 200
        assert sample_signature(receiver.tenant_sampler("t0")) == \
            control_signature(0, keys)

    def test_drop_unknown_and_bad_ops_raise(self):
        mux = TenantMuxSampler()
        with pytest.raises(KeyError, match="unknown tenant"):
            mux.apply_admin(drop_op("ghost"))
        with pytest.raises(ValueError, match="unknown tenant admin op"):
            mux.apply_admin({"op": "explode"})

    def test_reserved_tenant_ids_rejected(self):
        mux = TenantMuxSampler()
        with pytest.raises(ValueError, match="reserved"):
            mux.apply_admin(create_op("__shadow", tenant_spec(0)))


class TestStateAndReads:
    def test_state_round_trip_is_bit_exact(self):
        mux = _mux()
        mux.update_many(_interleaved())
        revived = repro.sampler_from_state(mux.to_state())
        assert isinstance(revived, TenantMuxSampler)
        assert revived.tenants() == mux.tenants()
        for tenant in mux.tenants():
            assert sample_signature(revived.tenant_sampler(tenant)) == \
                sample_signature(mux.tenant_sampler(tenant))
            assert revived.events_applied_for(tenant) == \
                mux.events_applied_for(tenant)

    def test_sample_concatenates_with_composite_keys(self):
        mux = _mux(2)
        mux.update_many(_interleaved(2, 100))
        sample = mux.sample()
        assert len(sample.keys) > 0
        tenants = {tenant for tenant, _ in sample.keys}
        assert tenants == {"t0", "t1"}
        assert len(sample.weights) == len(sample.keys)

    def test_empty_mux_sample_is_empty(self):
        assert len(TenantMuxSampler().sample().keys) == 0

    def test_estimate_total_sums_and_scopes(self):
        mux = _mux(2)
        mux.update_many(_interleaved(2, 200))
        per_tenant = [
            mux.estimate_total(tenant=t) for t in ("t0", "t1")
        ]
        assert mux.estimate_total() == pytest.approx(sum(per_tenant))
        assert mux.estimate() == pytest.approx(sum(per_tenant))

    def test_spec_accessors(self):
        mux = _mux(1)
        assert mux.tenant_spec("t0").name == "bottom_k"
        assert mux.has_tenant("t0") and not mux.has_tenant("nope")
        with pytest.raises(KeyError):
            mux.tenant_spec("nope")
        with pytest.raises(KeyError):
            mux.events_applied_for("nope")

    def test_not_mergeable(self):
        assert TenantMuxSampler.mergeable is False
        with pytest.raises(ValueError, match="not mergeable"):
            repro.ShardedSampler("tenant_mux", n_shards=2)


class TestParentFormatDirectories:
    """Worker directories written before routed blocks: WAL data records
    hold composite ``(tenant, key)`` rows, and admin ops were
    ``("__mux_admin__", op)`` rows among them."""

    SPECS = {"t0": tenant_spec(0), "t1": tenant_spec(1)}

    def _worker_dir(self, root) -> WriteAheadLog:
        async def create():
            service = StreamService(TenantMuxSampler(self.SPECS), dir=root)
            await service.start()
            await service.stop()

        run_async(create())
        return WriteAheadLog(root)

    @staticmethod
    def _legacy_record(rows) -> dict:
        return {"keys": rows, "weights": None, "values": None, "times": None}

    def test_data_only_tail_replays_bit_exactly(self, tmp_path):
        streams = {t: tenant_stream(i, 300) for i, t in enumerate(self.SPECS)}
        wal = self._worker_dir(tmp_path)
        offset = 0
        for lo in range(0, 300, 100):
            rows = [
                (tenant, int(streams[tenant][at]))
                for at in range(lo, lo + 100) for tenant in self.SPECS
            ]
            wal.append(offset, len(rows), self._legacy_record(rows))
            offset += len(rows)
        wal.close()

        recovered = StreamService.recover(tmp_path)
        assert recovered.events_durable == 600
        for i, tenant in enumerate(self.SPECS):
            assert recovered.sampler.events_applied_for(tenant) == 300
            assert sample_signature(recovered.sampler.tenant_sampler(
                tenant)) == control_signature(i, streams[tenant])

        # The recovered worker carries on with routed blocks.
        more = tenant_stream(7, 50)

        async def resume():
            await recovered.start()
            await recovered.ingest_many(more, route="t0")
            await recovered.stop()

        run_async(resume())
        assert sample_signature(recovered.sampler.tenant_sampler("t0")) == \
            control_signature(0, streams["t0"], more)

    def test_tail_with_an_admin_row_is_refused(self, tmp_path):
        wal = self._worker_dir(tmp_path)
        rows = [
            ("t0", 1),
            ("__mux_admin__", {"op": "create", "tenant": "t2",
                               "spec": tenant_spec(2)}),
            ("t2", 5),
        ]
        wal.append(0, len(rows), self._legacy_record(rows))
        wal.close()
        with pytest.raises(ValueError, match="reserved '__' prefix"):
            StreamService.recover(tmp_path)
