"""Wire-level chaos: the hardened frontend and retry client under
worker failover.

The worker battery (:mod:`tests.chaos.test_worker_chaos`) proves the
cluster heals; this one proves a *remote caller* never notices: the
retry client rides out the degraded window on retryable ``Unavailable``
replies, frontier-guided resend closes the at-least-once loop over the
wire, and the idempotency table turns a retry-after-lost-reply into a
dedupe hit instead of a double count.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import struct

import pytest

from repro.serve.cluster import (
    Cluster,
    ClusterClient,
    ClusterFrontend,
    FrameError,
    RetryPolicy,
    Supervisor,
)
from tests.chaos.common import (
    FAST_SUPERVISION,
    control_signature,
    run_async,
    sig_of,
    tenant_spec,
    tenant_stream,
    wait_for,
)

#: Generous budget: one failover window (detect + restart) must fit
#: inside a single call's retry schedule.
FAST_RETRY = RetryPolicy(max_attempts=10, base_delay=0.02, max_delay=0.1,
                         jitter=0.0, request_timeout=5.0)


@contextlib.asynccontextmanager
async def served(tmp_path, n_services=2, n_tenants=1, stream_len=400):
    """A durable, fast-batching cluster behind a frontend, pre-loaded
    with ``n_tenants`` tenants, plus their control streams."""
    async with Cluster(services=n_services, dir=tmp_path, batch_size=32,
                       max_latency=0.001) as cluster:
        streams = {}
        for i in range(n_tenants):
            tenant = f"tenant-{i}"
            await cluster.create_tenant(tenant, tenant_spec(i))
            streams[tenant] = tenant_stream(i, stream_len)
        async with ClusterFrontend(cluster) as frontend:
            yield cluster, frontend, streams


async def wire_reliable_stream(client, tenant, keys, chunk=40,
                               deadline=15.0):
    """Drive ``keys`` to *durable* completion over the wire.

    The tenant's admission frontier (from ``admin metrics``) is the
    source of truth: every iteration resumes from it, and every send is
    conditional on it (``expect_frontier``), so events a failover
    rolled back are re-sent and a retried batch can never land at the
    wrong position.  Termination is settle-like — admission into a
    dead-but-undetected worker succeeds and is then lost, so "all
    admitted" means nothing; only "all durably applied with no worker
    down" does.  Returns how many calls failed (shed past the retry
    budget, stale frontier, dead connection) before settling.
    """
    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    n = len(keys)
    failures = 0
    while True:
        metrics = (await client.admin("metrics"))["metrics"]
        row = metrics["tenants"][tenant]
        frontier = row["events_enqueued"]
        if (frontier >= n and row["events_applied"] >= n
                and not metrics["services_down"]):
            return failures
        if loop.time() > end:
            raise AssertionError(f"{tenant} never settled over the wire")
        if frontier >= n:
            # Everything admitted, not everything durable: flush and
            # re-check.  A crash surfacing here marks the worker down,
            # rolls the frontier back, and the branch below re-sends.
            try:
                await client.admin("flush")
            except (RuntimeError, FrameError):
                failures += 1
            await asyncio.sleep(0.02)
            continue
        batch = [int(k) for k in keys[frontier:frontier + chunk]]
        try:
            await client.ingest_many(tenant, batch, block=True,
                                     expect_frontier=frontier)
        except (RuntimeError, FrameError):
            # StaleFrontier (a failover moved the frontier under a
            # retry), retry budget exhausted mid-outage, or a dead
            # connection: resync from the frontier and keep going.
            failures += 1
            await asyncio.sleep(0.02)


def _frame(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return struct.pack(">I", len(body)) + body


class TestFailoverOverTheWire:
    def test_retry_client_rides_out_worker_kill(self, tmp_path):
        async def body():
            async with served(tmp_path, n_tenants=2, stream_len=800) as (
                    cluster, frontend, streams):
                host, port = frontend.address
                client = await ClusterClient.connect(
                    host, port, retry=FAST_RETRY)
                producers = [
                    await ClusterClient.connect(host, port, retry=FAST_RETRY)
                    for _ in streams
                ]
                async with Supervisor(cluster, **FAST_SUPERVISION) as sup:
                    pumps = [
                        asyncio.ensure_future(
                            wire_reliable_stream(client2, tenant, keys)
                        )
                        for (tenant, keys), client2 in zip(
                            streams.items(), producers
                        )
                    ]
                    # Kill the holder of tenant-0 while the wire
                    # producers are mid-stream.
                    await wait_for(lambda: cluster.registry.get(
                        "tenant-0").events_enqueued > 0)
                    victim = cluster.registry.get("tenant-0").service
                    cluster._workers[victim]._task.cancel()
                    await wait_for(lambda: any(
                        e.restored_at is not None for e in sup.events
                    ))
                    await asyncio.gather(*pumps)
                    await client.admin("flush")
                    # No caller ever saw ServiceCrashed (gather would
                    # have raised), and the state is bit-exact.
                    for i, (tenant, keys) in enumerate(streams.items()):
                        assert sig_of(await cluster.sample(tenant)) == \
                            control_signature(i, keys), tenant
                for client2 in producers:
                    await client2.aclose()
                await client.aclose()

        run_async(body())

    def test_degraded_window_is_visible_but_retryable(self, tmp_path):
        async def body():
            async with served(tmp_path, n_tenants=1) as (
                    cluster, frontend, streams):
                host, port = frontend.address
                client = await ClusterClient.connect(
                    host, port, retry=FAST_RETRY)
                keys = streams["tenant-0"]
                await wire_reliable_stream(client, "tenant-0", keys)
                await client.admin("flush")
                durable = await client.query("tenant-0", "sum")
                holder = cluster.registry.get("tenant-0").service
                cluster.mark_service_down(holder, "chaos")
                # Reads over the wire carry the degraded flag and the
                # pinned snapshot.
                pinned = await client.query("tenant-0", "sum")
                assert pinned["degraded"] is True
                assert pinned["estimate"] == durable["estimate"]
                assert pinned["state_version"] == durable["state_version"]
                # A blocking ingest during the outage sheds with a
                # retryable Unavailable reply; the client's budget is
                # exhausted (nobody restores) and the last error
                # surfaces as the server's Unavailable.
                with pytest.raises(RuntimeError, match="Unavailable"):
                    await client.ingest_many(
                        "tenant-0", [1, 2, 3], block=True)
                await cluster.restart_service(holder, reason="chaos")
                fresh = await client.query("tenant-0", "sum")
                assert "degraded" not in fresh
                assert sig_of(await cluster.sample("tenant-0")) == \
                    control_signature(0, keys)
                await client.aclose()

        run_async(body())


class TestIdempotentRetryAfterLostReply:
    def test_abandoned_request_is_not_double_counted(self, tmp_path):
        async def body():
            async with served(tmp_path) as (cluster, frontend, streams):
                host, port = frontend.address
                keys = [int(k) for k in streams["tenant-0"][:50]]
                request = {
                    "verb": "ingest_many", "tenant": "tenant-0",
                    "keys": keys, "block": True,
                    "request_id": "lost-reply-1",
                }
                # Send the request and slam the connection shut without
                # reading the reply — the client-visible outcome of a
                # reply lost in flight.
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(_frame(request))
                await writer.drain()
                await wait_for(lambda: cluster.registry.get(
                    "tenant-0").events_enqueued == 50)
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                # The retry: same request_id on a fresh connection.
                client = await ClusterClient.connect(host, port)
                reply = await client.ingest_many(
                    "tenant-0", keys, block=True,
                    request_id="lost-reply-1")
                assert reply["deduped"] is True
                assert reply["admitted"] is True
                assert frontend.metrics.replies_deduped == 1
                # Exactly one admission: no double count.
                assert cluster.registry.get(
                    "tenant-0").events_enqueued == 50
                await cluster.flush()
                assert sig_of(await cluster.sample("tenant-0")) == \
                    control_signature(0, streams["tenant-0"][:50])
                await client.aclose()

        run_async(body())


@pytest.mark.soak
class TestWireSoak:
    def test_failover_cycles_over_the_wire_stay_bit_exact(self, tmp_path):
        async def body():
            async with served(tmp_path, n_services=3, n_tenants=4,
                              stream_len=2000) as (
                    cluster, frontend, streams):
                host, port = frontend.address
                clients = [
                    await ClusterClient.connect(host, port,
                                                retry=FAST_RETRY)
                    for _ in streams
                ]
                async with Supervisor(cluster, **FAST_SUPERVISION) as sup:

                    def restored_count():
                        return sum(1 for e in sup.events
                                   if e.restored_at is not None)

                    pumps = [
                        asyncio.ensure_future(
                            wire_reliable_stream(c, tenant, keys,
                                                 chunk=60)
                        )
                        for c, (tenant, keys) in zip(clients,
                                                     streams.items())
                    ]
                    for cycle in range(3):
                        await asyncio.sleep(0.05)
                        if all(p.done() for p in pumps):
                            break
                        holder = cluster.registry.get(
                            f"tenant-{cycle % 4}").service
                        worker = cluster._workers[holder]
                        if not worker.consumer_alive:
                            continue
                        worker._task.cancel()
                        target = restored_count() + 1
                        await wait_for(
                            lambda: restored_count() >= target)
                    await asyncio.gather(*pumps)
                    await clients[0].admin("flush")
                    for i, (tenant, keys) in enumerate(streams.items()):
                        assert sig_of(await cluster.sample(tenant)) == \
                            control_signature(i, keys), tenant
                for client in clients:
                    await client.aclose()

        run_async(body())
