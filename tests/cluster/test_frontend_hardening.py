"""Per-connection hardening: caps, timeouts, rate limits, idempotency.

One misbehaving client must not wedge the frontend.  Each test drives
one enforcement — connection cap, idle/read timeouts, per-connection
frame rate, quiet mid-frame-disconnect cleanup, the idempotent-retry
dedupe table — and asserts both the wire behavior and the
:class:`~repro.serve.cluster.FrontendMetrics` counter that proves the
frontend saw it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import struct

import numpy as np
import pytest

from repro.serve.chaos import misbehaving_connection
from repro.serve.cluster import (
    CircuitBreaker,
    CircuitOpenError,
    Cluster,
    ClusterClient,
    ClusterFrontend,
    FrameError,
    FrameTimeout,
    RetryPolicy,
)
from repro import SamplerSpec
from repro.serve.cluster.frontend import read_frame
from tests.cluster.common import (
    control_signature,
    run_async,
    sig_of,
    tenant_spec,
    tenant_stream,
)

#: The first body byte of a binary frame.
MARKER = b"\x00"

FAST_RETRY = RetryPolicy(max_attempts=6, base_delay=0.02, max_delay=0.1,
                         jitter=0.0, request_timeout=5.0)


@contextlib.asynccontextmanager
async def served(n_services: int = 2, cluster_kwargs=None,
                 **frontend_kwargs):
    async with Cluster(services=n_services,
                       **(cluster_kwargs or {})) as cluster:
        async with ClusterFrontend(cluster, **frontend_kwargs) as frontend:
            yield cluster, frontend


def _frame(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return struct.pack(">I", len(body)) + body


def _binary_frame(header, *buffers: bytes) -> bytes:
    """A binary frame built by hand from the documented layout: marker
    byte, big-endian header length, JSON header, raw column buffers."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    body = MARKER + struct.pack(">I", len(text)) + text + b"".join(buffers)
    return struct.pack(">I", len(body)) + body


async def _one_reply_then_close(host: str, port: int, frame: bytes) -> dict:
    """Send ``frame`` on a raw socket; return the single reply frame,
    asserting the server closed the connection right after it."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(frame)
        await writer.drain()
        (length,) = struct.unpack(">I", await reader.readexactly(4))
        reply = json.loads(await reader.readexactly(length))
        assert await reader.read() == b""  # no second frame: closed
        return reply
    finally:
        writer.close()


class TestConnectionCap:
    def test_over_cap_connection_gets_retryable_unavailable(self):
        async def body():
            async with served(max_connections=2) as (cluster, frontend):
                host, port = frontend.address
                keep = [await ClusterClient.connect(host, port)
                        for _ in range(2)]
                # The cap counts *served* connections, so poke the two
                # live ones to make sure their handlers are running.
                for client in keep:
                    await client.admin("tenants")
                # Send nothing: the server rejects at accept time with
                # one error frame (sending first would leave unread
                # bytes and turn the server's close into an RST that
                # discards the reply).
                reply_bytes = await misbehaving_connection(
                    host, port, linger=0.1,
                )
                assert reply_bytes, "expected one error frame"
                (length,) = struct.unpack(">I", reply_bytes[:4])
                reply = json.loads(reply_bytes[4:4 + length])
                assert reply["ok"] is False
                assert reply["error_type"] == "Unavailable"
                assert reply["retryable"] is True
                assert frontend.metrics.connections_rejected == 1
                for client in keep:
                    await client.aclose()
                # Closed connections free slots for new ones.
                await asyncio.sleep(0.05)
                fresh = await ClusterClient.connect(host, port)
                assert (await fresh.admin("tenants"))["ok"]
                await fresh.aclose()

        run_async(body())


class TestTimeouts:
    def test_frame_timeout_carries_the_phase(self):
        """Handlers branch on ``FrameTimeout.what`` (``"header"`` =
        idle, ``"body"`` = slowloris), not on message wording — a
        rewording must not flip quiet-close vs error-reply behavior."""
        async def body():
            reader = asyncio.StreamReader()  # silent: no header
            with pytest.raises(FrameTimeout) as exc:
                await read_frame(reader, idle_timeout=0.01)
            assert exc.value.what == "header"
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 10))  # header, then stall
            with pytest.raises(FrameTimeout) as exc:
                await read_frame(reader, body_timeout=0.01)
            assert exc.value.what == "body"

        run_async(body())

    def test_idle_connection_is_reaped(self):
        async def body():
            async with served(idle_timeout=0.1) as (cluster, frontend):
                host, port = frontend.address
                received = await misbehaving_connection(
                    host, port, linger=0.4,
                )
                assert frontend.metrics.idle_timeouts == 1
                assert frontend.metrics.connections_active == 0
                # The reap is a *quiet* close: an error frame here would
                # desynchronize a reconnecting client's reply pairing.
                assert received == b""

        run_async(body())

    def test_slowloris_body_trickle_is_reaped(self):
        async def body():
            async with served(read_timeout=0.1) as (cluster, frontend):
                host, port = frontend.address
                # A header promising 64 bytes, then silence.
                received = await misbehaving_connection(
                    host, port, send=struct.pack(">I", 64) + b"abc",
                    linger=0.4,
                )
                assert frontend.metrics.read_timeouts == 1
                assert frontend.metrics.connections_active == 0
                assert b"FrameTimeout" in received

        run_async(body())

    def test_fast_clients_are_untouched_by_timeouts(self):
        async def body():
            async with served(idle_timeout=1.0, read_timeout=1.0) as (
                    cluster, frontend):
                client = await ClusterClient.connect(*frontend.address)
                await client.create_tenant("acme", tenant_spec(0))
                for _ in range(5):
                    reply = await client.ingest_many(
                        "acme", tenant_stream(0, 50).tolist()
                    )
                    assert reply["admitted"]
                assert frontend.metrics.idle_timeouts == 0
                assert frontend.metrics.read_timeouts == 0
                await client.aclose()

        run_async(body())


class TestFrameRateLimit:
    def test_over_rate_frames_get_ratelimited_reply(self):
        async def body():
            now = [0.0]
            async with served(frame_rate=2.0, frame_burst=2.0,
                              clock=lambda: now[0]) as (cluster, frontend):
                client = await ClusterClient.connect(*frontend.address)
                assert (await client.admin("tenants"))["ok"]
                assert (await client.admin("tenants"))["ok"]
                # Bucket drained; the third frame bounces but the
                # connection survives.
                with pytest.raises(RuntimeError, match="RateLimited"):
                    await client.admin("tenants")
                assert frontend.metrics.frames_rate_limited == 1
                now[0] += 1.0  # refill
                assert (await client.admin("tenants"))["ok"]
                await client.aclose()

        run_async(body())

    def test_rate_limited_reply_is_retryable_for_the_client(self):
        async def body():
            now = [0.0]
            async with served(frame_rate=2.0, frame_burst=2.0,
                              clock=lambda: now[0]) as (cluster, frontend):
                client = await ClusterClient.connect(
                    *frontend.address, retry=FAST_RETRY,
                )
                assert (await client.admin("tenants"))["ok"]
                assert (await client.admin("tenants"))["ok"]
                refill = asyncio.get_running_loop().call_later(
                    0.05, lambda: now.__setitem__(0, now[0] + 1.0)
                )
                # The retry loop rides out the rate limit window.
                assert (await client.admin("tenants"))["ok"]
                refill.cancel()
                assert frontend.metrics.frames_rate_limited >= 1
                await client.aclose()

        run_async(body())


class TestMidFrameDisconnect:
    def test_partial_header_disconnect_is_quiet(self):
        async def body():
            loop = asyncio.get_running_loop()
            escaped = []
            loop.set_exception_handler(
                lambda _l, ctx: escaped.append(ctx)
            )
            try:
                async with served() as (cluster, frontend):
                    await misbehaving_connection(
                        *frontend.address, send=b"\x00\x00",
                    )
                    await asyncio.sleep(0.05)
                    assert frontend.metrics.disconnects_mid_frame == 1
                    assert frontend.metrics.connections_active == 0
                    # No error frame was attempted at the vanished peer
                    # and no handler task escaped with a traceback.
                    assert frontend.metrics.frame_errors == 0
                await asyncio.sleep(0.05)
                assert escaped == []
            finally:
                loop.set_exception_handler(None)

        run_async(body())

    def test_truncated_body_disconnect_is_quiet(self):
        async def body():
            loop = asyncio.get_running_loop()
            escaped = []
            loop.set_exception_handler(
                lambda _l, ctx: escaped.append(ctx)
            )
            try:
                async with served() as (cluster, frontend):
                    # Header for 100 bytes, only 10 delivered, abrupt
                    # close (RST, not FIN).
                    await misbehaving_connection(
                        *frontend.address,
                        send=struct.pack(">I", 100) + b"x" * 10,
                        abort=True,
                    )
                    await asyncio.sleep(0.05)
                    assert frontend.metrics.disconnects_mid_frame == 1
                    assert frontend.metrics.connections_active == 0
                await asyncio.sleep(0.05)
                assert escaped == []
            finally:
                loop.set_exception_handler(None)

        run_async(body())

    def test_malformed_frame_still_answers_then_closes(self):
        async def body():
            async with served() as (cluster, frontend):
                received = await misbehaving_connection(
                    *frontend.address,
                    send=struct.pack(">I", 3) + b"{{{",
                    linger=0.1,
                )
                assert b"FrameError" in received
                assert frontend.metrics.frame_errors == 1

        run_async(body())


def _columns_header(*columns) -> dict:
    return {"verb": "ingest_many", "tenant": "acme", "block": True,
            "columns": [list(column) for column in columns]}


KEYS2 = np.arange(2, dtype="<i8").tobytes()

#: Binary bodies that do not match their own header: each must get one
#: FrameError reply and a close, like a bad JSON frame.
MALFORMED_BINARY = {
    "shorter-than-header-prefix":
        struct.pack(">I", 3) + MARKER + b"\x00\x00",
    "header-runs-past-body":
        struct.pack(">I", 7) + MARKER + struct.pack(">I", 100) + b"{}",
    "header-not-json": _binary_frame(b"{{{"),
    "header-not-an-object": _binary_frame(b"[1, 2]"),
    "no-columns-list": _binary_frame({"verb": "ingest_many",
                                      "tenant": "acme"}),
    "column-not-a-triple": _binary_frame(
        _columns_header(("keys", "<i8")), KEYS2),
    "dtype-int32": _binary_frame(
        _columns_header(("keys", "<i4", 2)),
        np.arange(2, dtype="<i4").tobytes()),
    "dtype-big-endian": _binary_frame(
        _columns_header(("keys", ">i8", 2)), KEYS2),
    "count-negative": _binary_frame(
        _columns_header(("keys", "<i8", -1)), KEYS2),
    "count-float": _binary_frame(
        _columns_header(("keys", "<i8", 2.0)), KEYS2),
    "count-bool": _binary_frame(
        _columns_header(("keys", "<i8", True)), KEYS2[:8]),
    "count-str": _binary_frame(
        _columns_header(("keys", "<i8", "2")), KEYS2),
    "column-unknown": _binary_frame(
        _columns_header(("weight", "<f8", 2)), KEYS2),
    "column-repeated": _binary_frame(
        _columns_header(("keys", "<i8", 2), ("keys", "<i8", 2)),
        KEYS2, KEYS2),
    "column-repeats-header-field": _binary_frame(
        {**_columns_header(("keys", "<i8", 2)), "keys": [0, 1]}, KEYS2),
    "buffers-short": _binary_frame(
        _columns_header(("keys", "<i8", 3)), KEYS2),
    "buffers-short-second-column": _binary_frame(
        _columns_header(("keys", "<i8", 2), ("weights", "<f8", 2)), KEYS2),
    "buffers-long": _binary_frame(
        _columns_header(("keys", "<i8", 1)), KEYS2),
}


class TestBinaryFrames:
    @pytest.mark.parametrize("frame", MALFORMED_BINARY.values(),
                             ids=MALFORMED_BINARY.keys())
    def test_malformed_binary_body_answers_once_then_closes(self, frame):
        async def body():
            async with served() as (cluster, frontend):
                await cluster.create_tenant("acme", tenant_spec(0))
                reply = await _one_reply_then_close(*frontend.address,
                                                    frame)
                assert reply["ok"] is False
                assert reply["error_type"] == "FrameError"
                assert frontend.metrics.frame_errors == 1
                assert frontend.metrics.binary_frames == 0
                assert cluster.registry.get("acme").events_enqueued == 0

        run_async(body())

    def test_hand_built_frame_ingests_on_a_raw_socket(self):
        """The documented layout, packed with ``struct`` and
        ``tobytes()`` and no ``ClusterClient``, ingests like any block
        (its columns start unaligned: nothing pads the header)."""
        keys = tenant_stream(0, 300).astype("<i8")
        weights = np.random.default_rng(4).lognormal(0.0, 0.6, 300)
        frame = _binary_frame(
            _columns_header(("keys", "<i8", 300), ("weights", "<f8", 300)),
            keys.tobytes(), weights.astype("<f8").tobytes(),
        )

        async def body():
            async with served() as (cluster, frontend):
                await cluster.create_tenant("acme", tenant_spec(0))
                reader, writer = await asyncio.open_connection(
                    *frontend.address)
                writer.write(frame)
                await writer.drain()
                reply = await read_frame(reader)
                writer.close()
                assert reply == {"ok": True, "admitted": True, "n": 300}
                await cluster.flush()
                control = SamplerSpec.from_dict(tenant_spec(0)).build()
                control.update_many(keys, weights)
                assert sig_of(await cluster.sample("acme")) == \
                    sig_of(control.sample())
                assert frontend.metrics.binary_frames == 1

        run_async(body())

    def test_written_frames_match_their_literal_bytes(self, monkeypatch):
        """``write_frame`` writes each frame in one call, equal to pinned
        literal bytes (one binary frame, one JSON frame), and writes
        nothing for a frame over ``MAX_FRAME``."""
        import repro.serve.cluster.frontend as frontend_mod

        class Writer:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(bytes(data))

        writer = Writer()
        frontend_mod.write_frame(writer, {
            "verb": "ingest_many", "tenant": "t", "block": True,
            "keys": np.array([1, -2], "<i8").data,
            "weights": np.array([0.5, 2.0], "<f8").data,
        })
        frontend_mod.write_frame(writer, {
            "verb": "ingest", "tenant": "t", "key": 3, "block": True,
        })
        assert writer.writes == [
            b'\x00\x00\x00\x86\x00\x00\x00\x00a{"columns":[["keys","<i8",2],'
            b'["weights","<f8",2]],"verb":"ingest_many","tenant":"t",'
            b'"block":true}\x01\x00\x00\x00\x00\x00\x00\x00\xfe\xff\xff\xff'
            b'\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00'
            b'\x00\x00\x00@',
            b'\x00\x00\x003{"verb":"ingest","tenant":"t","key":3,'
            b'"block":true}',
        ]
        monkeypatch.setattr(frontend_mod, "MAX_FRAME", 0x85)
        with pytest.raises(FrameError, match="134 bytes exceeds MAX_FRAME"):
            frontend_mod.write_frame(writer, {
                "verb": "ingest_many", "tenant": "t", "block": True,
                "keys": np.array([1, -2], "<i8").data,
                "weights": np.array([0.5, 2.0], "<f8").data,
            })
        assert len(writer.writes) == 2

    def test_binary_frame_over_max_frame_is_refused_on_both_ends(
            self, monkeypatch):
        import repro.serve.cluster.frontend as frontend_mod

        async def body():
            async with served() as (cluster, frontend):
                client = await ClusterClient.connect(*frontend.address)
                await client.create_tenant("acme", tenant_spec(0))
                monkeypatch.setattr(frontend_mod, "MAX_FRAME", 1024)
                # The client refuses before a byte is sent, so its
                # connection stays frame-aligned and keeps serving.
                with pytest.raises(FrameError, match="MAX_FRAME"):
                    await client.ingest_many("acme", np.arange(200))
                reply = await client.ingest_many("acme", np.arange(100))
                assert reply["admitted"] and reply["n"] == 100
                await client.aclose()
                # The server refuses a hand-built one: one FrameError
                # reply, then the connection closes.
                frame = _binary_frame(
                    _columns_header(("keys", "<i8", 200)),
                    np.arange(200, dtype="<i8").tobytes(),
                )
                reply = await _one_reply_then_close(*frontend.address,
                                                    frame)
                assert reply["error_type"] == "FrameError"
                assert "MAX_FRAME" in reply["error"]
                assert frontend.metrics.frame_errors == 1
                assert cluster.registry.get("acme").events_enqueued == 100

        run_async(body())

    def test_retried_binary_ingest_is_answered_from_the_dedupe_table(self):
        async def body():
            async with served() as (cluster, frontend):
                client = await ClusterClient.connect(*frontend.address)
                await client.create_tenant("acme", tenant_spec(0))
                keys = tenant_stream(0, 100)
                first = await client.ingest_many(
                    "acme", keys, request_id="bin-1"
                )
                assert first["admitted"] and first["frontier"] == 100
                replay = await client.ingest_many(
                    "acme", keys, request_id="bin-1"
                )
                assert replay["deduped"] is True
                assert replay["frontier"] == 100
                assert cluster.registry.get("acme").events_enqueued == 100
                assert frontend.metrics.replies_deduped == 1
                assert frontend.metrics.binary_frames == 2
                await client.admin("flush")
                assert sig_of(await cluster.sample("acme")) == \
                    control_signature(0, keys)
                await client.aclose()

        run_async(body())

    def test_binary_frames_are_counted_and_scraped(self):
        """Numeric blocks bump ``binary_frames``; a str-keyed block
        travels as JSON and does not."""
        from repro.obs import parse_exposition

        async def body():
            async with served() as (cluster, frontend):
                client = await ClusterClient.connect(*frontend.address)
                await client.create_tenant("acme", tenant_spec(0))
                await client.ingest_many("acme", [1, 2, 3])
                assert frontend.metrics.binary_frames == 1
                await client.ingest_many("acme", ["a", "b"],
                                         weights=[1.0, 2.0])
                assert frontend.metrics.binary_frames == 1
                families = parse_exposition(await client.scrape())
                (sample,) = families[
                    "repro_frontend_binary_frames_total"]["samples"]
                assert sample[2] == 1.0
                assert frontend.metrics.frames_read == 4
                await client.aclose()

        run_async(body())


class TestIdempotentIngest:
    def test_duplicate_request_id_replays_without_readmitting(self):
        async def body():
            async with served() as (cluster, frontend):
                client = await ClusterClient.connect(*frontend.address)
                await client.create_tenant("acme", tenant_spec(0))
                keys = tenant_stream(0, 100).tolist()
                first = await client.ingest_many(
                    "acme", keys, request_id="req-1"
                )
                assert first["admitted"] and first["frontier"] == 100
                replay = await client.ingest_many(
                    "acme", keys, request_id="req-1"
                )
                assert replay["deduped"] is True
                assert replay["frontier"] == 100
                # The duplicate did not double-count a single event.
                record = cluster.registry.get("acme")
                assert record.events_enqueued == 100
                assert frontend.metrics.replies_deduped == 1
                await client.admin("flush")
                assert sig_of(await cluster.sample("acme")) == \
                    control_signature(0, tenant_stream(0, 100))
                await client.aclose()

        run_async(body())

    def test_scalar_ingest_dedupes_too(self):
        async def body():
            async with served() as (cluster, frontend):
                client = await ClusterClient.connect(*frontend.address)
                await client.create_tenant("acme", tenant_spec(0))
                for _ in range(3):
                    reply = await client.ingest(
                        "acme", 7, block=True, request_id="one-key"
                    )
                    assert reply["admitted"]
                assert cluster.registry.get("acme").events_enqueued == 1
                assert frontend.metrics.replies_deduped == 2
                await client.aclose()

        run_async(body())

    def test_rejected_admissions_are_not_cached(self):
        async def body():
            from repro.serve.cluster import TenantQuota
            now = [0.0]
            async with served(
                cluster_kwargs=dict(clock=lambda: now[0]),
            ) as (cluster, frontend):
                client = await ClusterClient.connect(*frontend.address)
                await client.admin(
                    "create_tenant", tenant="acme", spec=tenant_spec(0),
                    quota={"events_per_sec": 10, "burst": 100},
                )
                # Drain the token bucket, then get denied.
                drained = await client.ingest_many(
                    "acme", list(range(100)), block=False,
                )
                assert drained["admitted"] is True
                denied = await client.ingest_many(
                    "acme", list(range(100)), block=False,
                    request_id="req-q",
                )
                assert denied["admitted"] is False
                now[0] += 100.0  # refill the quota bucket
                # Same request id: a non-admission was not cached, so
                # the retry really runs (and now succeeds).
                retry = await client.ingest_many(
                    "acme", list(range(100)), block=False,
                    request_id="req-q",
                )
                assert retry["admitted"] is True
                assert "deduped" not in retry
                await client.aclose()

        run_async(body())

    def test_dedupe_table_is_bounded(self):
        async def body():
            async with served(dedupe_capacity=4) as (cluster, frontend):
                client = await ClusterClient.connect(*frontend.address)
                await client.create_tenant("acme", tenant_spec(0))
                for i in range(8):
                    await client.ingest(
                        "acme", i, block=True, request_id=f"req-{i}"
                    )
                assert len(frontend._dedupe) == 4
                # The oldest entries fell off: replaying req-0 admits
                # again (at-most-once needs the client to retry within
                # the table's horizon, which retries do).
                reply = await client.ingest(
                    "acme", 0, block=True, request_id="req-0"
                )
                assert "deduped" not in reply
                await client.aclose()

        run_async(body())


class TestClientRetry:
    def test_retry_reconnects_after_server_side_close(self):
        async def body():
            async with served(idle_timeout=0.1) as (cluster, frontend):
                client = await ClusterClient.connect(
                    *frontend.address, retry=FAST_RETRY,
                )
                await client.create_tenant("acme", tenant_spec(0))
                # Let the server reap the idle connection, then call
                # again: the first attempt hits a dead socket, the
                # retry reconnects transparently.
                await asyncio.sleep(0.3)
                reply = await client.ingest_many(
                    "acme", tenant_stream(0, 50).tolist()
                )
                assert reply["admitted"]
                await client.aclose()

        run_async(body())

    def test_no_retry_client_is_unchanged_on_dead_socket(self):
        async def body():
            async with served(idle_timeout=0.1) as (cluster, frontend):
                client = await ClusterClient.connect(*frontend.address)
                await asyncio.sleep(0.3)
                with pytest.raises((FrameError, ConnectionError)):
                    await client.admin("tenants")
                await client.aclose()

        run_async(body())

    def test_circuit_breaker_opens_after_transport_failures(self):
        async def body():
            async with served() as (cluster, frontend):
                host, port = frontend.address
                client = await ClusterClient.connect(
                    host, port,
                    retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                      jitter=0.0, request_timeout=0.5),
                    breaker=CircuitBreaker(failure_threshold=2,
                                           reset_timeout=60.0),
                )
                await client.aclose()
            # The frontend (and cluster) are gone: every attempt is a
            # transport failure.
            with pytest.raises((ConnectionError, FrameError, OSError)):
                await client.call({"verb": "admin", "op": "tenants"})
            assert client.breaker.state == "open"
            with pytest.raises(CircuitOpenError):
                await client.call({"verb": "admin", "op": "tenants"})

        run_async(body())

    def test_retry_budget_exhaustion_raises_last_error(self):
        async def body():
            policy = RetryPolicy(max_attempts=3, base_delay=0.01,
                                 jitter=0.0, request_timeout=0.5)
            client = ClusterClient(
                None, None, host="127.0.0.1", port=1,  # nothing listens
                retry=policy,
            )
            client._writer = None
            with pytest.raises((ConnectionError, OSError)):
                await client.call({"verb": "admin", "op": "tenants"})

        run_async(body())

    def test_non_retryable_error_replies_surface_immediately(self):
        async def body():
            async with served() as (cluster, frontend):
                calls = []
                client = await ClusterClient.connect(
                    *frontend.address, retry=FAST_RETRY,
                )
                with pytest.raises(RuntimeError, match="KeyError"):
                    await client.estimate("ghost-tenant")
                await client.aclose()

        run_async(body())


class TestValidation:
    def test_bad_hardening_parameters_are_rejected(self):
        async def body():
            async with Cluster(services=1) as cluster:
                for kwargs in (
                    dict(max_connections=0),
                    dict(idle_timeout=0),
                    dict(read_timeout=-1),
                    dict(frame_rate=0),
                    dict(dedupe_capacity=0),
                ):
                    with pytest.raises(ValueError):
                        ClusterFrontend(cluster, **kwargs)

        run_async(body())
