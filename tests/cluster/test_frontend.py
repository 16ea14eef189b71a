"""The frame protocol front end: verbs, error replies, framing edges."""

from __future__ import annotations

import asyncio
import contextlib
import json
import struct

import numpy as np
import pytest

from repro import SamplerSpec
from repro.serve.cluster import (
    Cluster,
    ClusterClient,
    ClusterFrontend,
    FrameError,
    TenantQuota,
)
from repro.serve import StreamService
from repro.serve.cluster.frontend import MAX_FRAME
from repro.serve.wal import replay_records
from tests.cluster.common import (
    control_signature,
    run_async,
    sig_of,
    tenant_spec,
    tenant_stream,
)


@contextlib.asynccontextmanager
async def served(n_services: int = 2, **cluster_kwargs):
    async with Cluster(services=n_services, **cluster_kwargs) as cluster:
        async with ClusterFrontend(cluster) as frontend:
            client = await ClusterClient.connect(*frontend.address)
            try:
                yield cluster, client
            finally:
                await client.aclose()


class TestVerbs:
    def test_ingest_estimate_query_sample_round_trip(self):
        async def body():
            async with served() as (cluster, client):
                await client.create_tenant("acme", tenant_spec(0))
                keys = tenant_stream(0, 300)
                reply = await client.ingest_many("acme", keys.tolist())
                assert reply == {"ok": True, "admitted": True, "n": 300}
                await client.admin("flush")

                estimate = await client.estimate("acme", "total")
                assert 0 < estimate["estimate"] < 5 * 300

                query = await client.query("acme", "count", ci=0.95)
                assert query["aggregate"] == "count"
                assert len(query["ci"]) == 2
                assert query["ci"][0] <= query["estimate"] <= query["ci"][1]
                assert query["sample_size"] > 0

                sample = await client.sample("acme")
                assert sample["n"] == len(sample["keys"]) > 0
                assert len(sample["weights"]) == sample["n"]
                # The wire sample is the same retained set the in-process
                # read returns (keys stringify over JSON).
                local = await cluster.sample("acme")
                assert sorted(map(str, sample["keys"])) == \
                    sorted(str(k) for k in local.keys)

        run_async(body())

    def test_wire_state_matches_inprocess_control(self):
        async def body():
            async with served() as (cluster, client):
                await client.create_tenant("acme", tenant_spec(3))
                keys = tenant_stream(3, 400)
                for lo in range(0, 400, 80):
                    await client.ingest_many(
                        "acme", keys[lo:lo + 80].tolist()
                    )
                await client.admin("flush")
                from tests.cluster.common import sig_of
                assert sig_of(await cluster.sample("acme")) == \
                    control_signature(3, keys)

        run_async(body())

    def test_scalar_ingest_blocking_and_quota_paths(self):
        async def body():
            clock = lambda: 0.0  # frozen: the bucket never refills
            async with served(clock=clock) as (cluster, client):
                await client.create_tenant(
                    "tiny", tenant_spec(0),
                    quota=TenantQuota(
                        events_per_sec=100.0, burst=3.0
                    ).to_dict(),
                )
                for key in (1, 2, 3):
                    reply = await client.ingest("tiny", key)
                    assert reply["admitted"]
                assert not (await client.ingest("tiny", 4))["admitted"]
                # The blocking path admits instead of rejecting.
                reply = await client.ingest("tiny", 4, block=True)
                assert reply["admitted"]
                record = cluster.registry.get("tiny")
                assert record.rejected["rate"] == 1
                assert record.events_enqueued == 4

        run_async(body())

    def test_bad_tenant_spec_is_an_error_reply_on_a_live_connection(self):
        """A spec the worker could not build or feed comes back as an
        error reply; the connection and the other tenants carry on."""
        async def body():
            async with served() as (cluster, client):
                await client.create_tenant("acme", tenant_spec(0))
                with pytest.raises(RuntimeError,
                                   match="ValueError: unknown sampler"):
                    await client.create_tenant("ghost", {"name": "nope"})
                with pytest.raises(RuntimeError, match="strata= column"):
                    await client.create_tenant("survey", {
                        "name": "multi_stratified",
                        "params": {"n_dims": 1, "k": 4},
                    })
                with pytest.raises(RuntimeError,
                                   match="ValueError: unknown sampler 'cps'"):
                    await client.create_tenant("design", {"name": "cps"})
                with pytest.raises(RuntimeError,
                                   match="ValueError: .*'name'"):
                    await client.create_tenant("nameless", {"params": {}})
                keys = tenant_stream(0, 200)
                await client.ingest_many("acme", keys.tolist())
                await client.admin("flush")
                assert (await client.admin("tenants"))["tenants"] == ["acme"]
                assert sig_of(await cluster.sample("acme")) == \
                    control_signature(0, keys)

        run_async(body())

    def test_weighted_ingest_carries_columns(self):
        async def body():
            async with served() as (cluster, client):
                await client.create_tenant("w", tenant_spec(0))
                await client.ingest_many(
                    "w", [10, 11, 12], weights=[1.0, 2.0, 3.0]
                )
                await client.admin("flush")
                estimate = await client.estimate("w", "total")
                assert estimate["estimate"] == pytest.approx(6.0)

        run_async(body())

    def test_windowed_query_round_trips_the_wire(self):
        """window=/last=/decay=/now= ride the query verb end-to-end: a
        JSON-list window coerces back to bounds, estimates match the
        in-process answer, and the retention gate surfaces as a clean
        error reply."""
        import numpy as np

        async def body():
            async with served() as (cluster, client):
                await client.create_tenant("tw", {
                    "name": "sliding_window",
                    "params": {"k": 128, "window": 4.0, "rng": 7},
                })
                rng = np.random.default_rng(0)
                times = np.sort(rng.uniform(0.0, 4.0, 800))
                keys = rng.integers(0, 10_000, 800)
                await client.ingest_many(
                    "tw", keys.tolist(), times=times.tolist()
                )
                await client.admin("flush")

                wire = await client.query("tw", "count", last=1.0, ci=0.95)
                local = await cluster.query("tw", "count", last=1.0, ci=0.95)
                assert wire["estimate"] == pytest.approx(local.estimate)
                assert wire["ci"] == pytest.approx(list(local.ci))

                windowed = await client.query(
                    "tw", "sum", window=[1.0, 2.0]
                )
                local_win = await cluster.query(
                    "tw", "sum", window=(1.0, 2.0)
                )
                assert windowed["estimate"] == pytest.approx(
                    local_win.estimate
                )

                # decay= and an explicit advancing now= over the wire.
                await client.create_tenant("td", {
                    "name": "time_decay",
                    "params": {"k": 128, "decay_rate": 0.5, "rng": 3},
                })
                await client.ingest_many(
                    "td", keys.tolist(), times=times.tolist()
                )
                await client.admin("flush")
                at4 = await client.query("td", "sum", decay=0.5, now=4.0)
                at6 = await client.query("td", "sum", decay=0.5, now=6.0)
                assert at6["estimate"] == pytest.approx(
                    at4["estimate"] * np.exp(-0.5 * 2.0)
                )

                # The retention gate comes back as an error reply, not a
                # hung connection.
                with pytest.raises(Exception, match="retains only"):
                    await client.query("tw", "sum", window=[-5.0, 0.5])

        run_async(body())

    def test_admin_lifecycle_and_pool_ops(self):
        async def body():
            async with served() as (cluster, client):
                await client.create_tenant("a", tenant_spec(0))
                await client.create_tenant("b", tenant_spec(1))
                assert (await client.admin("tenants"))["tenants"] == ["a", "b"]

                described = await client.admin(
                    "describe_tenant", tenant="a"
                )
                assert described["description"]["spec"]["name"] == "bottom_k"

                metrics = (await client.admin("metrics"))["metrics"]
                assert set(metrics["tenants"]) == {"a", "b"}
                assert set(metrics["services"]) == set(cluster.services)

                grown = await client.admin("add_service")
                assert grown["service"] == "svc-2"
                assert len(grown["services"]) == 3

                moved = (await client.admin("rebalance"))["moved"]
                assert moved == []  # add_service already converged

                shrunk = await client.admin(
                    "remove_service", name="svc-2"
                )
                assert "svc-2" not in shrunk["services"]

                await client.admin("drop_tenant", tenant="b")
                assert (await client.admin("tenants"))["tenants"] == ["a"]

        run_async(body())

    def test_pipelined_requests_answer_in_order(self):
        async def body():
            async with served() as (cluster, client):
                await client.create_tenant("p", tenant_spec(0))
                from repro.serve.cluster.frontend import (
                    read_frame,
                    write_frame,
                )
                for key in range(5):
                    write_frame(client._writer, {
                        "verb": "ingest", "tenant": "p", "key": key,
                        "block": True,
                    })
                await client._writer.drain()
                for _ in range(5):
                    reply = await read_frame(client._reader)
                    assert reply == {"ok": True, "admitted": True}

        run_async(body())

    def test_any_key_container_reaches_the_server_whole(self):
        """One-shot iterators are read once, and a strided array slice
        travels as its own rows, whichever frame kind the block takes."""
        async def body():
            async with served() as (cluster, client):
                await client.create_tenant("it", tenant_spec(0))
                keys = tenant_stream(0, 100)
                reply = await client.ingest_many("it", iter(keys.tolist()))
                assert reply["n"] == 100
                reply = await client.ingest_many(
                    "it", (f"s{k}" for k in range(7)))
                assert reply["n"] == 7
                reply = await client.ingest_many(
                    "it", keys[::2], weights=np.ones(100)[::2])
                assert reply["n"] == 50
                await client.admin("flush")
                sample = await cluster.sample("it")
                control = SamplerSpec.from_dict(tenant_spec(0)).build()
                control.update_many(keys)
                control.update_many([f"s{k}" for k in range(7)])
                control.update_many(keys[::2], np.ones(50))
                assert sig_of(sample) == sig_of(control.sample())

        run_async(body())

    @pytest.mark.parametrize("dtype", ["int64", "uint64", "float64", "int32",
                                       "uint8", "float32", "bool"])
    def test_numpy_inputs_match_inprocess_ingest(self, dtype):
        """The client sends numpy arrays and scalars as they come — key
        arrays of any numeric dtype, float64/float32 columns, numpy
        scalars on the scalar verb — and the tenant ends in the same
        sample as in-process ingestion of the same events.  Numeric key
        blocks travel as binary frames; a bool block stays JSON."""
        rng = np.random.default_rng(21)
        keys = rng.integers(0, 200 if dtype == "uint8" else 5000,
                            300).astype(dtype)
        weights = rng.lognormal(0.0, 0.6, 300)
        values = (weights * 3.0).astype(np.float32)
        times = np.sort(rng.uniform(0.0, 10.0, 300))
        spec = {"name": "bottom_k", "params": {"k": 32, "rng": 9}}

        def rows(sample):
            return sorted(zip(map(repr, sample.keys), sample.times.tolist()))

        async def body():
            async with Cluster(services=1) as local:
                await local.create_tenant("t", spec)
                await local.ingest_many("t", keys, weights=weights,
                                        values=values, times=times)
                await local.ingest("t", keys[0].item(), float(weights[0]),
                                   value=float(values[0]), time=10.0)
                await local.flush()
                expected = await local.sample("t")
            async with Cluster(services=2) as cluster:
                async with ClusterFrontend(cluster) as frontend:
                    client = await ClusterClient.connect(*frontend.address)
                    await client.create_tenant("t", spec)
                    await client.ingest_many("t", keys, weights=weights,
                                             values=values, times=times)
                    await client.ingest("t", keys[0], weights[0],
                                        value=values[0],
                                        time=np.float64(10.0), block=True)
                    await client.admin("flush")
                    got = await cluster.sample("t")
                    binary = frontend.metrics.binary_frames
                    await client.aclose()
            assert sig_of(got) == sig_of(expected)
            assert rows(got) == rows(expected)
            assert binary == (0 if dtype == "bool" else 1)

        run_async(body())

    @pytest.mark.parametrize("caller", ["array", "list"])
    def test_bad_columns_get_the_same_error_reply(self, caller):
        """Mismatched column lengths and non-numeric columns answer with
        the server's own ``ValueError`` reply whichever frame kind the
        block travels in, and the connection keeps serving."""
        def given(column):
            column = np.asarray(column)
            return column if caller == "array" else column.tolist()

        keys = given(np.arange(5))
        cases = (
            (dict(weights=given(np.ones(4))),
             "ValueError: weights must have the same length as keys"),
            (dict(times=given(np.arange(6.0))),
             "ValueError: times must have the same length as keys"),
            (dict(weights=given(["a", "b", "c", "d", "e"])),
             "ValueError: could not convert string to float: 'a'"),
            (dict(values=given(np.ones(5)), weights=given(np.ones((5, 1)))),
             "ValueError: weights must be a 1-D column"),
        )

        async def body():
            async with served() as (cluster, client):
                await client.create_tenant("t", tenant_spec(0))
                for columns, error in cases:
                    with pytest.raises(RuntimeError) as exc:
                        await client.ingest_many("t", keys, **columns)
                    assert str(exc.value) == error
                reply = await client.ingest_many("t", keys)
                assert reply["admitted"] and reply["n"] == 5
                await client.admin("flush")
                assert sig_of(await cluster.sample("t")) == \
                    control_signature(0, np.arange(5))

        run_async(body())


class TestErrors:
    @pytest.mark.parametrize("spec", [
        {"name": "sliding_window",
         "params": {"k": 8, "window": 50.0, "rng": 3}},
        {"name": "time_decay",
         "params": {"k": 8, "decay_rate": 0.1, "rng": 3}},
    ], ids=["sliding_window", "time_decay"])
    def test_block_without_a_required_column_is_refused_before_the_wal(
        self, tmp_path, spec
    ):
        """A block without the ``times=`` column its sampler requires is
        refused at the call through ``StreamService``, ``Cluster`` and
        ``ClusterClient`` alike: a ``TypeError`` (an error reply naming it
        on the wire, the connection kept), no WAL record, the service
        still serving, and a directory that recovers."""
        keys, times = np.arange(10), np.arange(10.0)
        missing = "requires a times= column"

        async def body():
            service = StreamService(spec, dir=tmp_path / "svc")
            await service.start()
            with pytest.raises(TypeError, match=missing):
                await service.ingest_many(keys)
            with pytest.raises(TypeError, match=missing):
                service.try_ingest_many(keys)
            await service.ingest_many(keys, times=times)
            await service.stop(checkpoint=False)

            async with Cluster(services=1, dir=tmp_path / "cluster") as cluster:
                async with ClusterFrontend(cluster) as frontend:
                    client = await ClusterClient.connect(*frontend.address)
                    try:
                        await client.create_tenant("t", spec)
                        with pytest.raises(TypeError, match=missing):
                            await cluster.ingest_many("t", keys)
                        with pytest.raises(TypeError, match=missing):
                            cluster.try_ingest_many("t", keys)
                        with pytest.raises(RuntimeError,
                                           match=f"^TypeError: .*{missing}"):
                            await client.ingest_many("t", keys)
                        reply = await client.ingest_many("t", keys,
                                                         times=times)
                        assert reply["admitted"] and reply["n"] == 10
                        await client.admin("flush")
                        data = [r for r in replay_records(
                            tmp_path / "cluster" / "svc-0") if r.n]
                        assert [r.n for r in data] == [10]
                        assert data[0].columns["times"] is not None
                        assert applied(cluster) == 10
                    finally:
                        await client.aclose()

            async with Cluster.recover(tmp_path / "cluster") as recovered:
                assert applied(recovered) == 10

        def applied(cluster):
            worker = cluster.service(cluster.placement()["t"])
            return worker.sampler.events_applied_for("t")

        run_async(body())
        logged = list(replay_records(tmp_path / "svc"))
        assert [r.n for r in logged] == [10]
        assert logged[0].columns["times"] is not None
        assert StreamService.recover(tmp_path / "svc").events_applied == 10

    def test_application_errors_become_error_replies(self):
        async def body():
            async with served() as (cluster, client):
                with pytest.raises(RuntimeError, match="unknown tenant"):
                    await client.estimate("ghost")
                with pytest.raises(RuntimeError, match="ValueError"):
                    await client.admin("explode")
                with pytest.raises(RuntimeError, match="unknown verb"):
                    await client.call({"verb": "nope"})
                with pytest.raises(RuntimeError, match="unknown verb"):
                    await client.call({})
                # Handler internals are not reachable as verbs.
                with pytest.raises(RuntimeError, match="unknown verb"):
                    await client.call({"verb": "_dispatch"})
                # The connection survives every one of those.
                await client.create_tenant("ok", tenant_spec(0))
                assert (await client.admin("tenants"))["tenants"] == ["ok"]

        run_async(body())

    def test_bad_json_frame_gets_error_reply_then_close(self):
        async def body():
            async with Cluster(services=1) as cluster:
                async with ClusterFrontend(cluster) as frontend:
                    reader, writer = await asyncio.open_connection(
                        *frontend.address
                    )
                    body_bytes = b"this is not json"
                    writer.write(
                        struct.pack(">I", len(body_bytes)) + body_bytes
                    )
                    await writer.drain()
                    header = await reader.readexactly(4)
                    (length,) = struct.unpack(">I", header)
                    reply = json.loads(await reader.readexactly(length))
                    assert reply["ok"] is False
                    assert reply["error_type"] == "FrameError"
                    assert await reader.read() == b""  # server closed
                    writer.close()

        run_async(body())

    def test_oversized_frame_is_refused(self):
        async def body():
            async with Cluster(services=1) as cluster:
                async with ClusterFrontend(cluster) as frontend:
                    reader, writer = await asyncio.open_connection(
                        *frontend.address
                    )
                    writer.write(struct.pack(">I", MAX_FRAME + 1))
                    await writer.drain()
                    header = await reader.readexactly(4)
                    (length,) = struct.unpack(">I", header)
                    reply = json.loads(await reader.readexactly(length))
                    assert reply["ok"] is False
                    assert "MAX_FRAME" in reply["error"]
                    writer.close()

        run_async(body())

    def test_oversized_reply_answers_error_frame(self, monkeypatch):
        """A reply exceeding MAX_FRAME (e.g. a huge sample) must come
        back as an error frame on a live connection, not escape the
        handler and kill the connection with no reply."""
        import repro.serve.cluster.frontend as frontend_mod

        original = frontend_mod.MAX_FRAME

        async def body():
            async with served() as (cluster, client):
                await client.create_tenant("big", tenant_spec(0))
                await client.ingest_many(
                    "big", tenant_stream(0, 300).tolist()
                )
                await client.admin("flush")
                monkeypatch.setattr(frontend_mod, "MAX_FRAME", 256)
                with pytest.raises(RuntimeError, match="FrameError"):
                    await client.sample("big")
                # The connection survives and keeps serving.
                monkeypatch.setattr(frontend_mod, "MAX_FRAME", original)
                assert (await client.admin("tenants"))["tenants"] == ["big"]

        run_async(body())

    def test_non_object_frame_is_refused(self):
        async def body():
            async with Cluster(services=1) as cluster:
                async with ClusterFrontend(cluster) as frontend:
                    reader, writer = await asyncio.open_connection(
                        *frontend.address
                    )
                    body_bytes = json.dumps([1, 2, 3]).encode()
                    writer.write(
                        struct.pack(">I", len(body_bytes)) + body_bytes
                    )
                    await writer.drain()
                    header = await reader.readexactly(4)
                    (length,) = struct.unpack(">I", header)
                    reply = json.loads(await reader.readexactly(length))
                    assert reply["ok"] is False
                    assert "JSON object" in reply["error"]
                    writer.close()

        run_async(body())

    def test_client_surfaces_a_dead_server(self):
        async def body():
            async with Cluster(services=1) as cluster:
                frontend = ClusterFrontend(cluster)
                await frontend.start()
                client = await ClusterClient.connect(*frontend.address)
                await frontend.stop()
                with pytest.raises(RuntimeError, match="not started"):
                    frontend.address
                await client.aclose()

        run_async(body())

    def test_lifecycle_guards(self):
        async def body():
            async with Cluster(services=1) as cluster:
                frontend = ClusterFrontend(cluster)
                with pytest.raises(RuntimeError, match="not started"):
                    frontend.address
                await frontend.start()
                with pytest.raises(RuntimeError, match="already started"):
                    await frontend.start()
                await frontend.stop()
                await frontend.stop()  # idempotent

        run_async(body())
