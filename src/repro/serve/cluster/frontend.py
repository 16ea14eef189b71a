"""The cluster's network front end: length-prefixed frames.

:class:`ClusterFrontend` exposes a running
:class:`~repro.serve.cluster.Cluster` over TCP with a deliberately tiny
protocol — every frame is a 4-byte big-endian length followed by a body,
usually a UTF-8 JSON object — so any language can speak it in a dozen
lines.  Requests are ``{"verb": ..., ...}``; responses are
``{"ok": true, ...}`` or ``{"ok": false, "error": ..., "error_type": ...}``.
An application error (unknown verb or tenant, a bad argument) gets an
error reply and the connection stays open; a framing error (bad length
prefix, a body that does not decode) gets one ``FrameError`` reply and
then the connection closes, since the stream can no longer be trusted
to be frame-aligned.  One connection can pipeline requests (they are
served in order on the event loop).

Binary ingest frames
--------------------
Numeric ``ingest_many`` blocks skip JSON: their body is

* one marker byte ``0x00`` (no JSON text starts with it);
* a 4-byte big-endian header length, then that many bytes of UTF-8 JSON
  object — the request's scalar fields (``verb``, ``tenant``, ``block``,
  ``request_id``, ``expect_frontier``) plus ``"columns"``, a list of
  ``[name, dtype, count]`` with ``name`` one of ``keys``, ``weights``,
  ``values``, ``times`` (each at most once) and ``dtype`` one of
  ``"<i8"``, ``"<u8"``, ``"<f8"``;
* the column buffers, in header order, each ``8 * count`` raw
  little-endian bytes, ending exactly at the end of the body.

:func:`read_frame` hands each column back as a zero-copy memoryview over
the body, and :func:`write_frame` sends a message whose values include
memoryviews this way.  :class:`ClusterClient` picks the kind per block:
binary whenever the keys are numeric under the server's own
:func:`~repro.serve.cluster.mux.key_block` rule, JSON for everything
else (str, bool, tuple and object keys, scalar ``ingest``, every
control verb).  JSON ``ingest_many`` frames from other clients are
served exactly as before.

Verbs
-----
``ingest`` / ``ingest_many``
    Tenant event admission.  ``block=true`` uses the backpressure path
    (the response waits for admission), otherwise the non-blocking
    quota-checked path (``admitted`` reports the outcome).
``query`` / ``estimate`` / ``sample``
    Tenant-scoped snapshot-isolated reads.  Query options are the
    JSON-able subset (``aggregate``, ``k``, ``q``, ``ci`` — callables
    like ``where``/``group_by`` cannot cross the wire; run those
    in-process).
``admin``
    ``{"verb": "admin", "op": ...}`` with ops ``create_tenant``,
    ``drop_tenant``, ``describe_tenant``, ``tenants``, ``metrics``,
    ``add_service``, ``remove_service``, ``rebalance``, ``flush``.
``scrape`` / ``trace``
    Observability (PR 9).  ``scrape`` answers the full Prometheus
    exposition as ``{"text": ...}``; the same text is also served to
    plain HTTP clients (``curl``, a Prometheus scrape config) on the
    *same port* — the first four bytes of a connection are sniffed, and
    ``GET `` decodes as a length prefix beyond ``MAX_FRAME``, so no
    legal frame collides.  ``trace`` reads a worker's ingest-span ring
    (``{"verb": "trace", "service": ...}``; omit ``service`` for
    per-worker summaries).  Requires workers built with ``trace=True``.

Hardening
---------
One misbehaving client must not wedge the server.  The front end
enforces, per connection: an **idle timeout** (no new frame header),
a **read timeout** on frame bodies (the slowloris guard: a header
followed by a trickle), a **max-concurrent-connections** cap (excess
connections get one ``Unavailable`` error frame and are closed), and a
**frame-rate limit** backed by the same
:class:`~repro.serve.cluster.tenants.TokenBucket` machinery the tenant
quotas use (over-rate frames get a ``RateLimited`` error reply on a
still-live connection).  Every enforcement is counted in
:class:`~repro.serve.cluster.metrics.FrontendMetrics`.  A peer that
vanishes mid-frame is cleaned up quietly — no reply attempt, no logged
traceback (:class:`FrameDisconnect`).

Error replies that make sense to retry (``Unavailable`` while failover
is restoring a worker, ``RateLimited``) carry ``"retryable": true``.

:class:`ClusterClient` is the matching thin async client used by the
benchmarks, the demo example, and the tests.  Give it a
:class:`~repro.serve.cluster.retry.RetryPolicy` and it adds per-request
timeouts, bounded exponential backoff with jitter on retryable errors
(reconnecting as needed), idempotent ingest retries (a client-generated
``request_id`` the server deduplicates, so a retry whose original
admission succeeded — only the reply was lost — is *not* re-admitted;
the replayed reply carries the tenant's admission ``frontier``), and an
optional per-target :class:`~repro.serve.cluster.retry.CircuitBreaker`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import struct
from collections import OrderedDict

import numpy as np

from ...api.protocol import _as_key_list
from ..batcher import float_column
from .metrics import FrontendMetrics
from .mux import key_block
from .retry import CircuitBreaker, CircuitOpenError, RetryPolicy
from .tenants import TokenBucket

__all__ = [
    "ClusterFrontend",
    "ClusterClient",
    "FrameError",
    "FrameDisconnect",
    "FrameTimeout",
    "MAX_FRAME",
]

_HEADER = struct.Struct(">I")
#: Refuse frames above this size (a corrupt length prefix must not make
#: the server try to buffer gigabytes).
MAX_FRAME = 32 * 1024 * 1024

#: The protocol sniff: ASCII ``GET `` read as a big-endian length prefix
#: is ~1.2 GB — far beyond ``MAX_FRAME`` — so no legal frame's first four
#: bytes collide with an HTTP request line and one port can serve both.
_HTTP_GET = b"GET "
assert _HEADER.unpack(_HTTP_GET)[0] > MAX_FRAME

#: The first body byte of a binary frame (see the module docstring).
_BINARY = b"\x00"
#: Column dtypes a binary frame carries, and the columns it may name.
_WIRE_DTYPES = ("<i8", "<u8", "<f8")
_WIRE_COLUMNS = ("keys", "weights", "values", "times")

#: Query/estimate keyword options accepted over the wire.  Callable
#: options (``where``, ``group_by``, ``weight_of``) are in-process only.
_QUERY_OPTIONS = (
    "aggregate", "k", "q", "ci", "window", "last", "decay", "now",
)


def _plain(value):
    """A numpy scalar as the Python number ``json`` can encode."""
    return value.item() if isinstance(value, np.generic) else value


class FrameError(RuntimeError):
    """A malformed frame (bad length prefix, not JSON, not an object, a
    binary body that does not match its header)."""


class FrameDisconnect(FrameError):
    """The peer vanished mid-frame (partial length prefix or truncated
    body).  There is nobody left to answer: the server cleans up quietly
    instead of attempting an error reply or logging a traceback."""


class FrameTimeout(FrameError):
    """A frame read exceeded its deadline.

    ``what`` carries the phase that timed out — ``"header"`` (the
    connection sat idle between requests) or ``"body"`` (a slowloris
    trickle after a header arrived) — so handlers branch on it rather
    than on the message wording.
    """

    def __init__(self, message: str, *, what: str = "body"):
        super().__init__(message)
        self.what = what


async def _read_exactly(reader: asyncio.StreamReader, n: int,
                        timeout: float | None, what: str) -> bytes:
    if timeout is None:
        return await reader.readexactly(n)
    try:
        return await asyncio.wait_for(reader.readexactly(n), timeout)
    except asyncio.TimeoutError as err:
        raise FrameTimeout(
            f"timed out reading frame {what}", what=what
        ) from err


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    idle_timeout: float | None = None,
    body_timeout: float | None = None,
    preread_header: bytes | None = None,
) -> dict | None:
    """Read one frame as a dict; ``None`` on clean EOF.

    A binary body's columns come back as memoryviews (see the module
    docstring).  ``idle_timeout`` bounds the wait for the 4-byte header
    (how long a connection may sit silent between requests);
    ``body_timeout`` bounds the wait for the body once a header arrived
    (the slowloris guard).  Either raises :class:`FrameTimeout`.  A peer that disconnects after
    sending a partial header or body raises :class:`FrameDisconnect`.
    ``preread_header`` supplies the 4 length-prefix bytes when the
    caller already consumed them (the frontend's protocol sniff).
    """
    if preread_header is not None:
        header = preread_header
    else:
        try:
            header = await _read_exactly(reader, _HEADER.size, idle_timeout,
                                         "header")
        except asyncio.IncompleteReadError as err:
            if not err.partial:
                return None
            raise FrameDisconnect("connection closed mid-header") from err
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds MAX_FRAME")
    try:
        body = await _read_exactly(reader, length, body_timeout, "body")
    except asyncio.IncompleteReadError as err:
        raise FrameDisconnect("connection closed mid-frame") from err
    if body[:1] == _BINARY:
        return _binary_message(body)
    return _json_object(body, "frame")


def _json_object(text: bytes, what: str) -> dict:
    """``text`` decoded as a UTF-8 JSON object (``FrameError`` if not)."""
    try:
        message = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FrameError(f"{what} is not UTF-8 JSON: {err}") from err
    if not isinstance(message, dict):
        raise FrameError(f"{what} must encode a JSON object")
    return message


def _binary_message(body: bytes) -> dict:
    """A binary body as its header's fields plus one zero-copy memoryview
    per declared column; ``FrameError`` unless the buffers match the
    header exactly."""
    start = len(_BINARY) + _HEADER.size
    if len(body) < start:
        raise FrameError("binary frame is shorter than its header prefix")
    (size,) = _HEADER.unpack_from(body, len(_BINARY))
    offset = start + size
    if offset > len(body):
        raise FrameError("binary frame header runs past the body")
    message = _json_object(body[start:offset], "binary frame header")
    columns = message.pop("columns", None)
    if not isinstance(columns, list):
        raise FrameError("binary frame header needs a columns list")
    for column in columns:
        if not (isinstance(column, list) and len(column) == 3):
            raise FrameError(f"column {column!r} is not [name, dtype, count]")
        name, dtype, count = column
        if name not in _WIRE_COLUMNS or name in message:
            raise FrameError(f"unknown or repeated column {name!r}")
        if dtype not in _WIRE_DTYPES:
            raise FrameError(f"column {name!r} has dtype {dtype!r}, not one "
                             f"of {', '.join(_WIRE_DTYPES)}")
        if type(count) is not int or count < 0:
            raise FrameError(f"column {name!r} has count {count!r}, not a "
                             "non-negative integer")
        end = offset + 8 * count
        if end > len(body):
            raise FrameError("binary frame buffers are shorter than its "
                             "columns")
        message[name] = np.frombuffer(body, dtype, count, offset).data
        offset = end
    if offset != len(body):
        raise FrameError("binary frame buffers are longer than its columns")
    return message


def _is_binary(message: dict) -> bool:
    """Whether ``message`` carries binary columns (memoryview values)."""
    return any(isinstance(value, memoryview) for value in message.values())


def _binary_frame(message: dict) -> bytes:
    """``message`` as one binary frame, length prefix included: its
    memoryview values become columns (1-D, of a wire dtype —
    :func:`read_frame` refuses others), everything else the JSON
    header.  Each column is copied once, into the frame."""
    header, buffers = {}, []
    columns = header["columns"] = []
    size = len(_BINARY) + _HEADER.size
    for name, value in message.items():
        if not isinstance(value, memoryview):
            header[name] = value
            continue
        column = np.ascontiguousarray(value)
        columns.append([name, column.dtype.str, len(column)])
        buffers.append(column)
        size += column.nbytes
    text = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([_HEADER.pack(size + len(text)), _BINARY,
                     _HEADER.pack(len(text)), text, *buffers])


def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Queue one length-prefixed frame on ``writer``: binary when
    ``message`` carries memoryview columns, a JSON object otherwise.
    Nothing is queued for a frame over ``MAX_FRAME``."""
    if _is_binary(message):
        frame = _binary_frame(message)
        size = len(frame) - _HEADER.size
    else:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
        size = len(body)
        frame = _HEADER.pack(size) + body
    if size > MAX_FRAME:
        raise FrameError(f"frame of {size} bytes exceeds MAX_FRAME")
    writer.write(frame)


class ClusterFrontend:
    """An asyncio TCP server fronting one cluster.

    >>> import asyncio
    >>> from repro.serve.cluster import Cluster, ClusterFrontend, ClusterClient
    >>> async def demo():
    ...     async with Cluster(services=2) as cluster:
    ...         frontend = ClusterFrontend(cluster)
    ...         await frontend.start()
    ...         client = await ClusterClient.connect(*frontend.address)
    ...         await client.create_tenant(
    ...             "acme", {"name": "bottom_k", "params": {"k": 32, "rng": 3}})
    ...         await client.ingest_many("acme", list(range(100)))
    ...         await client.admin("flush")  # reads see applied events
    ...         reply = await client.estimate("acme", "total")
    ...         await client.aclose()
    ...         await frontend.stop()
    ...         return reply["estimate"]
    >>> 30 < asyncio.run(demo()) < 300  # HT estimate of the true 100
    True
    """

    def __init__(
        self,
        cluster,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int | None = None,
        idle_timeout: float | None = None,
        read_timeout: float | None = None,
        frame_rate: float | None = None,
        frame_burst: float | None = None,
        dedupe_capacity: int = 4096,
        clock=None,
        alerts=None,
    ):
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be >= 1 (or None)")
        for name, value in (("idle_timeout", idle_timeout),
                            ("read_timeout", read_timeout),
                            ("frame_rate", frame_rate)):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None)")
        if dedupe_capacity < 1:
            raise ValueError("dedupe_capacity must be >= 1")
        self.cluster = cluster
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.read_timeout = read_timeout
        self.frame_rate = frame_rate
        # Default burst matches the tenant-quota convention: one
        # second's worth of frames.
        self.frame_burst = (
            frame_burst if frame_burst is not None else frame_rate
        )
        self.dedupe_capacity = dedupe_capacity
        self.metrics = FrontendMetrics()
        self._clock = clock
        #: Optional :class:`~repro.obs.AlertEngine` whose firing state
        #: rides along in the scrape (usually the supervisor's engine).
        self.alerts = alerts
        self._server: asyncio.AbstractServer | None = None
        self._registry = None
        #: Idempotency table: request_id -> successful ingest reply.
        #: Bounded LRU — old entries fall off past ``dedupe_capacity``.
        self._dedupe: OrderedDict[str, dict] = OrderedDict()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._server is None:
            raise RuntimeError("frontend not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "ClusterFrontend":
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("frontend already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        return self

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "ClusterFrontend":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    def scrape_registry(self):
        """The :class:`~repro.obs.PrometheusRegistry` behind ``/metrics``
        (built lazily: cluster + this frontend + the alert engine, when
        one is attached)."""
        if self._registry is None:
            from ...obs.adapters import cluster_registry
            self._registry = cluster_registry(
                self.cluster, frontend=self, alerts=self.alerts
            )
        return self._registry

    def _frame_bucket(self) -> TokenBucket | None:
        """A fresh per-connection frame-rate bucket (``None`` = no limit)."""
        if self.frame_rate is None:
            return None
        kwargs = {} if self._clock is None else {"clock": self._clock}
        return TokenBucket(self.frame_rate, self.frame_burst, **kwargs)

    async def _serve_connection(self, reader, writer) -> None:
        """Serve frames on one connection until EOF, timeout, or a fatal
        framing error."""
        metrics = self.metrics
        if (self.max_connections is not None
                and metrics.connections_active >= self.max_connections):
            # Over the cap: one retryable error frame, then close.  The
            # client's backoff spreads the reconnects out.
            metrics.connections_rejected += 1
            with contextlib.suppress(Exception):
                write_frame(writer, {
                    "ok": False,
                    "error": "connection limit reached",
                    "error_type": "Unavailable",
                    "retryable": True,
                })
                await writer.drain()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            return
        metrics.connections_opened += 1
        metrics.connections_active += 1
        bucket = self._frame_bucket()
        try:
            # Protocol sniff: the first four bytes of a connection are
            # either a frame's length prefix or the ``GET `` of an HTTP
            # scrape (which no legal prefix collides with — _HTTP_GET).
            try:
                sniffed = await _read_exactly(
                    reader, _HEADER.size, self.idle_timeout, "header"
                )
            except asyncio.IncompleteReadError as err:
                if err.partial:
                    metrics.disconnects_mid_frame += 1
                return
            except FrameTimeout:
                metrics.idle_timeouts += 1
                return
            if sniffed == _HTTP_GET:
                from ...obs.exporter import serve_http
                metrics.scrapes_served += 1
                await serve_http(reader, writer, self.scrape_registry(),
                                 preread=sniffed)
                return
            preread: bytes | None = sniffed
            while True:
                try:
                    request = await read_frame(
                        reader,
                        idle_timeout=self.idle_timeout,
                        body_timeout=self.read_timeout,
                        preread_header=preread,
                    )
                except FrameDisconnect:
                    # The peer is gone mid-frame: nobody to answer, and
                    # a traceback would be noise.  Clean close only.
                    metrics.disconnects_mid_frame += 1
                    break
                except FrameTimeout as err:
                    if err.what == "header":
                        # Idle between requests: close *quietly*.  An
                        # error frame here would sit in the peer's
                        # receive buffer and desynchronize its next
                        # request/reply pairing after a reconnect.
                        metrics.idle_timeouts += 1
                        break
                    # Mid-frame trickle (slowloris): the peer is not
                    # awaiting a reply, so announcing the reap is safe.
                    metrics.read_timeouts += 1
                    with contextlib.suppress(Exception):
                        write_frame(writer, {
                            "ok": False, "error": str(err),
                            "error_type": "FrameTimeout",
                        })
                        await writer.drain()
                    break
                except FrameError as err:
                    metrics.frame_errors += 1
                    with contextlib.suppress(Exception):
                        write_frame(writer, {
                            "ok": False, "error": str(err),
                            "error_type": "FrameError",
                        })
                        await writer.drain()
                    break
                preread = None  # only the first header was sniffed
                if request is None:
                    break
                metrics.frames_read += 1
                if _is_binary(request):
                    metrics.binary_frames += 1
                if bucket is not None and not bucket.try_acquire(1):
                    # Over the per-connection frame rate: push back on
                    # this frame only; the connection stays usable.
                    metrics.frames_rate_limited += 1
                    write_frame(writer, {
                        "ok": False,
                        "error": "per-connection frame rate exceeded",
                        "error_type": "RateLimited",
                        "retryable": True,
                    })
                    await writer.drain()
                    continue
                reply = await self._dispatch(request)
                try:
                    write_frame(writer, reply)
                except FrameError as err:
                    # An oversized reply (e.g. a huge sample) must answer
                    # with an error frame, not kill the connection; the
                    # size check runs before any bytes hit the transport,
                    # so the stream stays frame-aligned.
                    write_frame(writer, {
                        "ok": False, "error": str(err),
                        "error_type": "FrameError",
                    })
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            metrics.connections_active -= 1
            metrics.connections_closed += 1
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: dict) -> dict:
        """Answer one request; application errors become error replies."""
        verb = request.get("verb")
        handler = getattr(self, f"_verb_{verb}", None) if verb else None
        if handler is None or (verb or "").startswith("_"):
            return {
                "ok": False,
                "error": f"unknown verb {verb!r}",
                "error_type": "ValueError",
            }
        try:
            reply = await handler(request)
        except Exception as err:  # noqa: BLE001 - answer, don't disconnect
            return {
                "ok": False,
                "error": str(err),
                "error_type": type(err).__name__,
            }
        reply.setdefault("ok", True)
        return reply

    @staticmethod
    def _columns(request: dict) -> dict:
        """The optional event columns of an ingest request (a binary
        frame's memoryviews as the arrays they view)."""
        return {name: _array(request.get(name))
                for name in ("weights", "values", "times")}

    def _dedupe_lookup(self, request: dict) -> dict | None:
        """The cached reply for this ``request_id``, if one exists."""
        request_id = request.get("request_id")
        if request_id is None or request_id not in self._dedupe:
            return None
        self._dedupe.move_to_end(request_id)
        self.metrics.replies_deduped += 1
        return {**self._dedupe[request_id], "deduped": True}

    def _dedupe_store(self, request: dict, reply: dict) -> dict:
        """Cache a *successful admission* reply under its ``request_id``
        (stamped with the tenant's admission frontier), so a retry whose
        only casualty was the reply is answered without re-admitting."""
        request_id = request.get("request_id")
        if request_id is None or not reply.get("admitted"):
            return reply
        record = self.cluster.registry.get(request["tenant"])
        reply = {**reply, "frontier": record.events_enqueued}
        self._dedupe[request_id] = reply
        while len(self._dedupe) > self.dedupe_capacity:
            self._dedupe.popitem(last=False)
        return reply

    @staticmethod
    def _shed_reply() -> dict:
        """The retryable push-back reply for ingest shed while a worker
        is down (the supervisor is restoring it; the client's backoff
        covers the gap)."""
        return {
            "ok": False,
            "error": "tenant's worker is down; ingest shed",
            "error_type": "Unavailable",
            "retryable": True,
        }

    async def _verb_ingest(self, request: dict) -> dict:
        """Scalar admission: blocking or quota-checked non-blocking."""
        cached = self._dedupe_lookup(request)
        if cached is not None:
            return cached
        tenant = request["tenant"]
        kwargs = {
            "value": request.get("value"), "time": request.get("time"),
        }
        weight = float(request.get("weight", 1.0))
        if request.get("block", False):
            admitted = await self.cluster.ingest(
                tenant, request["key"], weight,
                expect_frontier=request.get("expect_frontier"), **kwargs
            )
            if not admitted:
                return self._shed_reply()
            return self._dedupe_store(request, {"admitted": True})
        admitted = self.cluster.try_ingest(
            tenant, request["key"], weight, **kwargs
        )
        return self._dedupe_store(request, {"admitted": admitted})

    async def _verb_ingest_many(self, request: dict) -> dict:
        """Batch admission: blocking or quota-checked non-blocking."""
        cached = self._dedupe_lookup(request)
        if cached is not None:
            return cached
        tenant = request["tenant"]
        keys = _array(request["keys"])
        columns = self._columns(request)
        if request.get("block", False):
            admitted = await self.cluster.ingest_many(
                tenant, keys,
                expect_frontier=request.get("expect_frontier"), **columns
            )
            if not admitted:
                return self._shed_reply()
            return self._dedupe_store(
                request, {"admitted": True, "n": len(keys)}
            )
        admitted = self.cluster.try_ingest_many(tenant, keys, **columns)
        return self._dedupe_store(
            request, {"admitted": admitted, "n": len(keys) if admitted else 0}
        )

    async def _verb_estimate(self, request: dict) -> dict:
        """Tenant-scoped estimate (JSON-able kinds/options only)."""
        estimate = await self.cluster.estimate(
            request["tenant"], request.get("kind")
        )
        return {"estimate": float(estimate)}

    async def _verb_query(self, request: dict) -> dict:
        """Tenant-scoped declarative query, result flattened to JSON."""
        options = {
            name: request[name] for name in _QUERY_OPTIONS if name in request
        }
        result = await self.cluster.query(request["tenant"], **options)
        reply = {
            "aggregate": result.aggregate,
            "estimate": _jsonable(result.estimate),
            "sample_size": result.sample_size,
            "state_version": result.state_version,
        }
        if result.stderr is not None:
            reply["stderr"] = float(result.stderr)
        if result.ci is not None:
            reply["ci"] = [float(bound) for bound in result.ci]
        if result.degraded:
            reply["degraded"] = True
        return reply

    async def _verb_sample(self, request: dict) -> dict:
        """A tenant's retained sample as parallel JSON columns."""
        sample = await self.cluster.sample(request["tenant"])
        return {
            "keys": [_jsonable(key) for key in list(sample.keys)],
            "weights": [float(w) for w in sample.weights],
            "thresholds": [float(t) for t in sample.thresholds],
            "n": len(sample.keys),
        }

    async def _verb_admin(self, request: dict) -> dict:
        """Namespace/pool administration (see the module docstring)."""
        op = request.get("op")
        cluster = self.cluster
        if op == "create_tenant":
            record = await cluster.create_tenant(
                request["tenant"], request["spec"],
                quota=request.get("quota"),
            )
            return {"tenant": request["tenant"], "service": record.service}
        if op == "drop_tenant":
            await cluster.drop_tenant(request["tenant"])
            return {"tenant": request["tenant"]}
        if op == "describe_tenant":
            return {"description": cluster.describe_tenant(request["tenant"])}
        if op == "tenants":
            return {"tenants": list(cluster.tenants())}
        if op == "metrics":
            return {"metrics": cluster.metrics().to_dict()}
        if op == "add_service":
            name = await cluster.add_service(request.get("name"))
            return {"service": name, "services": list(cluster.services)}
        if op == "remove_service":
            await cluster.remove_service(request["name"])
            return {"services": list(cluster.services)}
        if op == "rebalance":
            plan = await cluster.rebalance()
            return {"moved": [
                {"tenant": move.tenant, "source": move.source,
                 "destination": move.destination}
                for move in plan.moves
            ]}
        if op == "flush":
            await cluster.flush()
            return {}
        raise ValueError(f"unknown admin op {op!r}")

    async def _verb_scrape(self, request: dict) -> dict:
        """The Prometheus exposition as a frame (same text HTTP gets)."""
        from ...obs.exporter import SCRAPE_CONTENT_TYPE
        self.metrics.scrapes_served += 1
        return {
            "text": self.scrape_registry().render(),
            "content_type": SCRAPE_CONTENT_TYPE,
        }

    async def _verb_trace(self, request: dict) -> dict:
        """A worker's ingest-span ring (records + summary), or — without
        a ``service`` — every worker's summary.  Workers not built with
        ``trace=True`` report ``enabled: false``."""
        self.metrics.trace_reads += 1
        name = request.get("service")
        if name is None:
            summaries = {}
            for worker_name in self.cluster.services:
                trace = getattr(
                    self.cluster.service(worker_name), "trace_log", None
                )
                summaries[worker_name] = (
                    None if trace is None else trace.summary()
                )
            return {"services": summaries}
        trace = getattr(self.cluster.service(name), "trace_log", None)
        if trace is None:
            return {"service": name, "enabled": False,
                    "records": [], "summary": None}
        return {
            "service": name,
            "enabled": True,
            "records": trace.records(),
            "summary": trace.summary(),
        }


def _array(value):
    """A binary frame's memoryview column as the (read-only) array it
    views; JSON values pass through."""
    return np.asarray(value) if isinstance(value, memoryview) else value


def _jsonable(value):
    """Best-effort JSON form of a query/sample value."""
    if hasattr(value, "__dataclass_fields__"):  # e.g. TopKItem
        return {
            name: _jsonable(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _ingest_fields(keys, columns: dict) -> dict:
    """An ``ingest_many`` block's frame fields.

    Binary memoryview columns when ``keys`` come out numeric under the
    server's :func:`~repro.serve.cluster.mux.key_block` rule and every
    column coerces to a 1-D float array under its
    :func:`~repro.serve.batcher.float_column` rule; JSON lists otherwise,
    so the server's own validation answers a bad block as it does for
    any JSON client.  ``keys`` is read once (it may be an iterator).
    """
    block = key_block(keys)
    if isinstance(block, np.ndarray) and block.dtype.kind in "iuf":
        arrays = {"keys": block.astype(f"<{block.dtype.kind}8", copy=False)}
        try:
            arrays.update(
                (name, float_column(column).astype("<f8", copy=False))
                for name, column in columns.items())
        except (TypeError, ValueError):
            pass
        else:
            if all(array.ndim == 1 for array in arrays.values()):
                return {name: array.data for name, array in arrays.items()}
    return {"keys": _as_key_list(block),
            **{name: _as_key_list(column) for name, column in columns.items()}}


class ClusterClient:
    """Thin async client speaking the frontend's frame protocol.

    One request at a time per client instance (the protocol itself
    pipelines fine; open more clients for concurrency).

    Without a ``retry`` policy the client is exactly the thin wrapper it
    always was: one attempt, errors surface immediately.  With one, each
    :meth:`call` is bounded by the policy's ``request_timeout``, retried
    with exponential backoff and jitter on transport failures, timeouts,
    and replies flagged ``"retryable": true`` (reconnecting on a dead or
    suspect connection), and ingest verbs get an automatic
    ``request_id`` so a retry after a lost reply is answered from the
    server's idempotency table instead of double-counting events.  An
    optional per-target ``breaker`` fails calls fast
    (:class:`~repro.serve.cluster.retry.CircuitOpenError`) while the
    target keeps failing at the transport level.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 host: str | None = None, port: int | None = None,
                 retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 rng=None):
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self.retry = retry
        self.breaker = breaker
        self._rng = rng
        self._request_seq = 0
        self._nonce = os.urandom(6).hex()

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      retry: RetryPolicy | None = None,
                      breaker: CircuitBreaker | None = None,
                      rng=None) -> "ClusterClient":
        """Open a connection to a running :class:`ClusterFrontend`."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host=host, port=port,
                   retry=retry, breaker=breaker, rng=rng)

    async def aclose(self) -> None:
        """Close the connection."""
        if self._writer is None:
            return
        self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()

    def next_request_id(self) -> str:
        """A fresh idempotency key (unique per client instance)."""
        self._request_seq += 1
        return f"{self._nonce}-{self._request_seq}"

    async def _ensure_connection(self) -> None:
        """Reconnect if the previous attempt burned the connection."""
        if self._writer is not None:
            return
        if self._host is None or self._port is None:
            raise FrameError(
                "connection lost and no (host, port) to reconnect"
            )
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    def _drop_connection(self) -> None:
        """Discard a connection whose frame alignment is no longer
        trustworthy (timeout mid-round-trip, transport error)."""
        if self._writer is None:
            return
        writer, self._writer = self._writer, None
        self._reader = None
        writer.close()

    async def _roundtrip(self, request: dict) -> dict:
        """One request frame out, one reply frame back (no retries)."""
        await self._ensure_connection()
        write_frame(self._writer, request)
        await self._writer.drain()
        reply = await read_frame(self._reader)
        if reply is None:
            raise FrameError("server closed the connection")
        return reply

    @staticmethod
    def _reply_error(reply: dict) -> RuntimeError:
        return RuntimeError(
            f"{reply.get('error_type', 'Error')}: "
            f"{reply.get('error', 'unknown error')}"
        )

    async def call(self, request: dict) -> dict:
        """Send one request frame and await its reply frame.

        Raises ``RuntimeError`` on an error reply (carrying the server's
        ``error_type``/``error``) and ``FrameError`` on a dead
        connection (after the retry budget, when a policy is set).
        """
        if self.retry is None:
            reply = await self._roundtrip(request)
            if not reply.get("ok", False):
                raise self._reply_error(reply)
            return reply
        policy = self.retry
        last_error: Exception | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if self.breaker is not None and not self.breaker.allow():
                raise CircuitOpenError(
                    f"circuit open for {self._host}:{self._port}"
                )
            try:
                if policy.request_timeout is None:
                    reply = await self._roundtrip(request)
                else:
                    reply = await asyncio.wait_for(
                        self._roundtrip(request), policy.request_timeout
                    )
            except (ConnectionError, OSError, FrameError,
                    asyncio.TimeoutError) as err:
                # Transport failure: the connection's frame alignment is
                # unknown — burn it, count it against the breaker, back
                # off, reconnect on the next attempt.
                self._drop_connection()
                if self.breaker is not None:
                    self.breaker.record_failure()
                last_error = err
            else:
                if reply.get("ok", False):
                    if self.breaker is not None:
                        self.breaker.record_success()
                    return reply
                if not reply.get("retryable", False):
                    if self.breaker is not None:
                        self.breaker.record_success()
                    raise self._reply_error(reply)
                # Application-level push-back (Unavailable, RateLimited):
                # the target is alive, so the breaker is not charged.
                last_error = self._reply_error(reply)
            if attempt < policy.max_attempts:
                await asyncio.sleep(policy.delay(attempt, self._rng))
        raise last_error

    # -- convenience verbs -------------------------------------------------
    async def ingest(self, tenant: str, key, weight: float = 1.0, *,
                     value=None, time=None, block: bool = False,
                     request_id: str | None = None,
                     expect_frontier: int | None = None) -> dict:
        """Scalar ``ingest`` (non-blocking unless ``block=True``).

        With a retry policy set, a ``request_id`` is generated
        automatically so retries are idempotent.  ``expect_frontier``
        makes a blocking admission conditional on the tenant's frontier
        (a non-retryable ``StaleFrontier`` error reply otherwise)."""
        request = {
            "verb": "ingest", "tenant": tenant, "key": _plain(key),
            "weight": _plain(weight), "block": block,
        }
        if value is not None:
            request["value"] = _plain(value)
        if time is not None:
            request["time"] = _plain(time)
        if expect_frontier is not None:
            request["expect_frontier"] = int(expect_frontier)
        if request_id is None and self.retry is not None:
            request_id = self.next_request_id()
        if request_id is not None:
            request["request_id"] = request_id
        return await self.call(request)

    async def ingest_many(self, tenant: str, keys, *, weights=None,
                          values=None, times=None, block: bool = True,
                          request_id: str | None = None,
                          expect_frontier: int | None = None) -> dict:
        """Batch ``ingest_many`` (blocking by default, like the API).

        Numeric key blocks — numpy arrays or lists that
        :func:`~repro.serve.cluster.mux.key_block` turns into an integer
        or float array — travel as a binary frame: keys widened to
        int64/uint64/float64 and ``weights``/``values``/``times`` as
        float64, so the server gets the arrays it would have rebuilt
        from JSON.  str, bool, tuple and object keys, and columns that
        do not coerce to 1-D floats, travel as JSON lists.

        With a retry policy set, a ``request_id`` is generated
        automatically so retries are idempotent.  ``expect_frontier``
        makes a blocking admission conditional on the tenant's frontier
        (a non-retryable ``StaleFrontier`` error reply otherwise)."""
        columns = {name: column for name, column in (
            ("weights", weights), ("values", values), ("times", times))
            if column is not None}
        request = {"verb": "ingest_many", "tenant": tenant, "block": block,
                   **_ingest_fields(keys, columns)}
        if expect_frontier is not None:
            request["expect_frontier"] = int(expect_frontier)
        if request_id is None and self.retry is not None:
            request_id = self.next_request_id()
        if request_id is not None:
            request["request_id"] = request_id
        return await self.call(request)

    async def estimate(self, tenant: str, kind: str | None = None) -> dict:
        """Tenant-scoped ``estimate``."""
        request = {"verb": "estimate", "tenant": tenant}
        if kind is not None:
            request["kind"] = kind
        return await self.call(request)

    async def query(self, tenant: str, aggregate: str, **options) -> dict:
        """Tenant-scoped declarative ``query`` (JSON-able options only)."""
        return await self.call({
            "verb": "query", "tenant": tenant, "aggregate": aggregate,
            **options,
        })

    async def sample(self, tenant: str) -> dict:
        """A tenant's retained sample."""
        return await self.call({"verb": "sample", "tenant": tenant})

    async def admin(self, op: str, **options) -> dict:
        """Any admin op (``create_tenant``, ``metrics``, ...)."""
        return await self.call({"verb": "admin", "op": op, **options})

    async def scrape(self) -> str:
        """The frontend's Prometheus exposition text (frame verb)."""
        reply = await self.call({"verb": "scrape"})
        return reply["text"]

    async def trace(self, service: str | None = None) -> dict:
        """A worker's ingest-span ring, or all workers' summaries."""
        request: dict = {"verb": "trace"}
        if service is not None:
            request["service"] = service
        return await self.call(request)

    async def create_tenant(self, tenant: str, spec, *, quota=None) -> dict:
        """Admin shorthand: register a tenant."""
        options = {"tenant": tenant, "spec": spec}
        if quota is not None:
            options["quota"] = quota
        return await self.admin("create_tenant", **options)
