"""Segmented append-only write-ahead event log.

Durability layer of the serving runtime: every micro-batch the
:class:`~repro.serve.service.StreamService` is about to apply is first
appended here as one framed record, so a crash between "logged" and
"applied" loses nothing — recovery replays the log tail after the last
checkpoint and, because batch ingestion is chunking-invariant
(seed-for-seed identical for any flush boundaries, the PR2 contract),
reaches a state bit-identical to the uninterrupted run.

Format
------
The log is a sequence of segment files inside ``<dir>/wal/``::

    wal-<seq:08d>-<first_offset:016d>.log

``seq`` orders segments, ``first_offset`` is the stream offset (events
logged before this segment) of its first record — which is what lets
:meth:`WriteAheadLog.prune` drop fully-checkpointed segments without
reading them.  (One exception keeps that rule sound: when the previous
segment ends with a zero-event record at that very offset, the name
carries the offset plus one, since a replay starting there still needs
the previous segment.)  Each record is::

    <u32 payload length> <u32 crc32(payload)> <payload>

where the payload is a pickled dict ``{"offset", "n", "columns"}``:
``offset`` is the stream offset of the record's first event, ``n`` the
event count, and ``columns`` either the ``update_many`` keyword columns
of a micro-batch — ``keys`` plus the optional ``weights``/``values``/
``times`` arrays, and for a routed batch the run-length ``routes``
``[(tenant, n), ...]`` — or, for a zero-event admin record,
``{"admin": {"seq", ...}}``.  Numpy arrays pickle as raw buffers, so
logging adds little over a memcpy.

Torn writes
-----------
Appends are not atomic; a crash can leave a torn final record.  Replay
(:func:`replay_records`) stops at the first short or checksum-failing
record — everything before it is durable, everything after never
happened.  Re-opening the log for appends truncates that torn tail so
subsequent records land on a clean boundary and later replays read
straight through.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["WalRecord", "WriteAheadLog", "replay_records", "wal_dir"]

_HEADER = struct.Struct("<II")

_SEGMENT_RE = re.compile(r"^wal-(\d{8})-(\d{16})\.log$")


def wal_dir(root: str | os.PathLike) -> pathlib.Path:
    """The log directory under a service root."""
    return pathlib.Path(root) / "wal"


@dataclass(frozen=True)
class WalRecord:
    """One replayed record: a micro-batch at a known stream offset."""

    #: Stream offset of the record's first event (events logged before it).
    offset: int
    #: Number of events in the batch.
    n: int
    #: ``update_many`` keyword columns (``keys`` plus optional
    #: ``weights``/``values``/``times``).
    columns: dict
    #: Framed on-disk size (header + payload), for metrics accounting.
    nbytes: int = 0


def _segments(directory: pathlib.Path) -> list[tuple[int, int, pathlib.Path]]:
    """``(seq, first_offset, path)`` for every segment, in append order."""
    if not directory.is_dir():
        return []
    out = []
    for path in directory.iterdir():
        match = _SEGMENT_RE.match(path.name)
        if match:
            out.append((int(match.group(1)), int(match.group(2)), path))
    return sorted(out)


def _read_segment(path: pathlib.Path) -> tuple[list[WalRecord], int]:
    """All complete records of one segment plus the clean-tail byte size.

    Stops at the first torn record (short header, short payload, bad
    checksum, or an unpicklable payload): the returned byte size is where
    a re-opened writer must truncate to before appending.
    """
    records: list[WalRecord] = []
    clean = 0
    data = path.read_bytes()
    pos = 0
    while pos + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, pos)
        start = pos + _HEADER.size
        end = start + length
        if end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            rec = pickle.loads(payload)
        except Exception:
            break
        records.append(
            WalRecord(int(rec["offset"]), int(rec["n"]), rec["columns"],
                      nbytes=end - pos)
        )
        pos = clean = end
    return records, clean


def replay_records(
    root: str | os.PathLike, from_offset: int = 0
) -> Iterator[WalRecord]:
    """Yield the durable records at or after ``from_offset``, in order.

    Records are yielded while they chain contiguously
    (``record.offset == previous.offset + previous.n``); replay stops at
    the first torn record or gap, which defines the durable extent of the
    log.  Records entirely below ``from_offset`` (already captured by a
    checkpoint) are skipped but still checked for contiguity.
    """
    expected: int | None = None
    for _, _, path in _segments(wal_dir(root)):
        records, clean = _read_segment(path)
        for record in records:
            if expected is not None and record.offset != expected:
                return  # gap: everything past it is not contiguous
            expected = record.offset + record.n
            if record.offset >= from_offset:
                yield record
        if clean < path.stat().st_size:
            return  # torn tail: later segments cannot be trusted either


class WriteAheadLog:
    """Appender over the segmented log (one open segment at a time).

    Parameters
    ----------
    root:
        Service directory; segments live in ``<root>/wal/``.
    segment_max_bytes:
        Rotation bound — a record that would push the open segment past
        it goes to a fresh segment instead (records never split).
    fsync:
        Force ``os.fsync`` after every append.  Off by default: the
        runtime's durability unit is "flushed to the OS", which is what
        the fault-injection suite exercises; power-loss durability costs
        an fsync per batch and is a config flip away.
    fault_hook:
        Test seam. When set, called as ``fault_hook(stage)`` at
        ``"wal.append.before"`` / ``"wal.append.mid"`` /
        ``"wal.append.after"``; raising at ``mid`` leaves a torn record,
        exactly like a crash between the two writes.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        segment_max_bytes: int = 4 * 1024 * 1024,
        fsync: bool = False,
        fault_hook: Callable[[str], None] | None = None,
    ):
        self.root = pathlib.Path(root)
        self.segment_max_bytes = int(segment_max_bytes)
        self.fsync = bool(fsync)
        self.fault_hook = fault_hook
        self._dir = wal_dir(self.root)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._file = None
        self._seg_bytes = 0
        #: One past the offset of a zero-event record ending the open
        #: segment (0 otherwise): the next segment's name may not go
        #: below it (see the module docstring).
        self._pinned = 0
        existing = _segments(self._dir)
        self._next_seq = existing[-1][0] + 1 if existing else 0
        if existing:
            # Truncate a torn tail so appends land on a record boundary
            # and future replays read through into our new records.
            last = existing[-1][2]
            records, clean = _read_segment(last)
            if clean < last.stat().st_size:
                with open(last, "r+b") as fh:
                    fh.truncate(clean)
            if records and records[-1].n == 0:
                self._pinned = records[-1].offset + 1

    @property
    def segment_count(self) -> int:
        """Number of segment files currently on disk."""
        return len(_segments(self._dir))

    def _hook(self, stage: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(stage)

    def _rotate(self, first_offset: int) -> None:
        if self._file is not None:
            self._file.close()
        first_offset = max(first_offset, self._pinned)
        name = f"wal-{self._next_seq:08d}-{first_offset:016d}.log"
        self._next_seq += 1
        self._file = open(self._dir / name, "ab")
        self._seg_bytes = 0
        self._pinned = 0

    def append(self, offset: int, n: int, columns: dict) -> int:
        """Append one micro-batch record; returns its framed byte size.

        The batch is durable (modulo ``fsync``) when this returns;
        a crash mid-append leaves a torn record that replay ignores.
        """
        payload = pickle.dumps(
            {"offset": int(offset), "n": int(n), "columns": columns},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        frame = len(payload) + _HEADER.size
        if self._file is None or (
            self._seg_bytes and self._seg_bytes + frame > self.segment_max_bytes
        ):
            self._rotate(offset)
        self._hook("wal.append.before")
        self._file.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
        self._hook("wal.append.mid")
        self._file.write(payload)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self._hook("wal.append.after")
        self._seg_bytes += frame
        self._pinned = int(offset) + 1 if n == 0 else 0
        return frame

    def prune(self, before_offset: int) -> int:
        """Delete segments wholly below ``before_offset``; returns count.

        A segment is removable when the *next* segment starts at or below
        ``before_offset`` (so every record it holds is already covered by
        a retained checkpoint).  The open segment is never removed.
        """
        segs = _segments(self._dir)
        removed = 0
        for (_, _, path), (_, next_first, _) in zip(segs, segs[1:]):
            if next_first <= before_offset:
                path.unlink()
                removed += 1
        return removed

    def close(self) -> None:
        """Close the open segment (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None
