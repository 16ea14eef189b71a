"""Micro-batch accumulation: flush on size *and* max-latency deadline.

The :class:`MicroBatcher` is deliberately synchronous and loop-agnostic —
it owns the *policy* (when is a flush due, what goes in it) while the
service owns the *mechanics* (queues, locks, the event loop).  That split
is what lets the Hypothesis property suite drive arbitrary flush
interleavings straight through the batcher without an event loop, pinning
the contract that matters: any sequence of flush boundaries feeds the
sampler the same events in the same order, so by the chunking-invariance
contract of ``update_many`` (PR2) the resulting state is seed-for-seed
identical to one scalar pass.

Chunks carry optional per-event columns (weights/values/times).  A flush
never mixes chunks whose *set* of present columns differs: ``update_many``
gives absent columns per-sampler defaults (weight 1, value = weight), so
splicing a default-weight chunk into an explicit-weights batch would need
fabricated filler values.  Nor does it mix key containers: the key dtype
of an array chunk (or "a list") is part of the signature too, because
concatenating an int64 block with a float64, uint64 or str block would
promote every key of the flush (``1`` becomes ``1.0``, or ``'1'``) and
the sampler would hash different keys than it was sent.  On a mismatch
the batcher reports it and the service drains the pending batch first —
an extra flush boundary, which the invariance contract makes free.

A chunk may be *routed*: tagged with the tenant whose block it is.  A
routed flush also returns run-length ``routes`` — ``[(tenant, n), ...]``
in admission order — so a tenant multiplexer hands each run's slice to
that tenant's sampler without ever seeing a per-event tenant column.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["MicroBatcher", "chunk_of", "float_column"]

_OPTIONAL = ("weights", "values", "times")


def _packed(items: list, code: str, dtype) -> np.ndarray | None:
    """``items`` as a new 1-D ``dtype`` array, packed by ``struct`` with
    the C type ``code`` (``"q"`` int64, ``"d"`` float64); ``None`` when
    ``struct`` refuses an item.

    One pass in C with no dtype discovery.  ``"q"`` takes what
    ``__index__`` takes — ints, bools, numpy integers — and refuses
    floats, strings, ``None``, tuples, numpy bools and ints outside
    int64 (``np.array(items, dtype=np.int64)`` and ``np.fromiter`` would
    truncate ``2.5`` to ``2``).  ``"d"`` takes ints, floats, bools and
    numpy numbers and refuses strings and ``None`` (``np.asarray`` reads
    those as numbers and NaN).
    """
    out = np.empty(len(items), dtype)
    try:
        struct.pack_into(f"{len(items)}{code}", out, 0, *items)
    except (struct.error, TypeError):
        return None
    return out


def float_column(column) -> np.ndarray:
    """A weights/values/times column as a float64 array, with the values
    and errors of ``np.asarray(column, dtype=float)``.

    A list is packed in one pass (:func:`_packed`); a list it refuses
    (``None``, numeric strings, nested rows, a non-numeric entry) and
    any other container go through ``np.asarray``.
    """
    if type(column) is list:
        packed = _packed(column, "d", np.float64)
        if packed is not None:
            return packed
    return np.asarray(column, dtype=float)


def chunk_of(keys, weights=None, values=None, times=None,
             route=None) -> dict:
    """Normalize one ingestion call into a chunk dict.

    Keys stay in their caller-provided container (numpy array or list —
    arrays concatenate and pickle fastest), so the sampler ingests the
    very keys it was sent; optional columns become float64 arrays
    (:func:`float_column`) and are validated for length here so errors
    surface at the ``ingest`` call site, not inside the consumer task.
    ``route`` tags the chunk with its tenant (see the module docstring).
    """
    if not isinstance(keys, (np.ndarray, list, tuple)):
        keys = list(keys)
    n = len(keys)
    chunk = {"n": n, "keys": keys, "route": route}
    for name, column in zip(_OPTIONAL, (weights, values, times)):
        if column is None:
            chunk[name] = None
            continue
        column = float_column(column)
        if column.size != n:
            raise ValueError(f"{name} must have the same length as keys")
        if column.ndim != 1:
            raise ValueError(f"{name} must be a 1-D column")
        chunk[name] = column
    return chunk


def _slice_chunk(chunk: dict, lo: int, hi: int) -> dict:
    """A sub-chunk covering rows ``[lo, hi)`` (for queue-bound splitting)."""
    out = {"n": hi - lo, "keys": chunk["keys"][lo:hi],
           "route": chunk["route"]}
    for name in _OPTIONAL:
        column = chunk[name]
        out[name] = None if column is None else column[lo:hi]
    return out


class MicroBatcher:
    """Accumulates chunks until a size- or deadline-triggered flush.

    Parameters
    ----------
    batch_size:
        Flush as soon as at least this many events are pending.
    max_latency:
        Flush no later than this many seconds after the *oldest* pending
        event arrived, even if the batch is small — bounding the
        staleness a reader can observe under a trickle of traffic.
    """

    def __init__(self, batch_size: int = 8192, max_latency: float = 0.05):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_latency <= 0:
            raise ValueError("max_latency must be positive")
        self.batch_size = int(batch_size)
        self.max_latency = float(max_latency)
        self._chunks: list[dict] = []
        self._pending = 0
        self._oldest: float | None = None
        self._signature: tuple | None = None
        # Trace spans riding the pending chunks (observability only —
        # spans are chunk metadata, never part of the column signature).
        self._spans: list[dict] = []
        self._drained_spans: list[dict] = []

    def __len__(self) -> int:
        return self._pending

    @staticmethod
    def signature(chunk: dict) -> tuple:
        """Which optional columns the chunk carries, its key dtype
        (``None`` for a list) and whether it is routed.

        The dtype enters as its string form: a numpy dtype compares
        equal to ``None`` (``np.dtype(None)`` is float64).
        """
        keys = chunk["keys"]
        return (
            *(chunk[name] is not None for name in _OPTIONAL),
            keys.dtype.str if isinstance(keys, np.ndarray) else None,
            chunk.get("route") is not None,
        )

    def accepts(self, chunk: dict) -> bool:
        """Whether ``chunk`` can join the pending batch (same columns,
        key dtype and routing)."""
        return self._signature is None or self.signature(chunk) == self._signature

    def add(self, chunk: dict, now: float) -> None:
        """Append a chunk (the caller flushes first on signature change)."""
        if not self.accepts(chunk):
            raise ValueError(
                "chunk column signature differs from the pending batch; "
                "drain before adding"
            )
        if self._signature is None:
            self._signature = self.signature(chunk)
        if self._oldest is None:
            self._oldest = now
        self._chunks.append(chunk)
        self._pending += chunk["n"]
        span = chunk.get("span")
        if span is not None:
            self._spans.append(span)

    def size_due(self) -> bool:
        """True when the pending batch has reached ``batch_size``."""
        return self._pending >= self.batch_size

    def deadline(self) -> float | None:
        """Absolute time the pending batch must flush by (None if empty)."""
        if self._oldest is None:
            return None
        return self._oldest + self.max_latency

    def due(self, now: float) -> str | None:
        """The flush reason due at ``now`` (``"size"``/``"deadline"``),
        or ``None`` when the batch can keep accumulating."""
        if self._pending == 0:
            return None
        if self.size_due():
            return "size"
        if now >= self._oldest + self.max_latency:
            return "deadline"
        return None

    def drain(self) -> tuple[dict, int]:
        """Merge and clear the pending chunks.

        Returns ``(columns, n)`` where ``columns`` are ``update_many``
        keyword arguments: keys concatenated (one numpy dtype, or a flat
        list), optional columns concatenated float arrays or ``None``,
        and for a routed batch the run-length ``routes``.
        """
        if self._pending == 0:
            raise ValueError("nothing pending to drain")
        chunks, n = self._chunks, self._pending
        signature = self._signature
        self._chunks, self._pending = [], 0
        self._oldest, self._signature = None, None
        # Spans of the drained batch wait in a side pocket: the flush
        # completes them once the batch's stages have run (pop_spans).
        self._drained_spans, self._spans = self._spans, []

        if len(chunks) == 1:
            keys = chunks[0]["keys"]
        elif signature[len(_OPTIONAL)] is not None:  # one key dtype
            keys = np.concatenate([c["keys"] for c in chunks])
        else:
            keys = []
            for c in chunks:
                keys.extend(c["keys"])
        columns: dict = {"keys": keys}
        for name, present in zip(_OPTIONAL, signature):
            if not present:
                columns[name] = None
            elif len(chunks) == 1:
                columns[name] = chunks[0][name]
            else:
                columns[name] = np.concatenate([c[name] for c in chunks])
        if signature[-1]:
            routes: list[tuple] = []
            for c in chunks:
                if routes and routes[-1][0] == c["route"]:
                    routes[-1] = (c["route"], routes[-1][1] + c["n"])
                else:
                    routes.append((c["route"], c["n"]))
            columns["routes"] = routes
        return columns, n

    def pop_spans(self) -> list[dict]:
        """Trace spans of the most recent :meth:`drain` (cleared on
        read, so a span is completed exactly once)."""
        spans, self._drained_spans = self._drained_spans, []
        return spans
