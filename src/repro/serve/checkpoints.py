"""Atomic, self-validating sampler checkpoints.

A checkpoint captures a sampler's full ``to_state()`` dict (RNG streams
included — the same plain-dict round-trip the sharded engine ships across
process pools) at a known stream offset, so recovery replays only the
write-ahead-log tail after it instead of the whole history.

Two crash-safety properties:

* **Atomic visibility.**  The file is written to a temp name and
  ``os.replace``d into place, so a partially-written checkpoint is never
  visible under its final name — a crash mid-write leaves only the old
  checkpoints plus a stray ``.tmp`` (cleaned up on the next write).
* **Self-validating.**  The payload is framed with a CRC32 the same way
  as WAL records, so a checkpoint file truncated or corrupted *after* the
  fact (disk trouble, a torn copy) is detected at load time and skipped,
  falling back to the next-newest valid checkpoint.  The store retains
  the last ``retain`` checkpoints — and the log keeps the segments the
  oldest retained one needs — precisely so that fallback has somewhere
  to land.

A retired checkpoint is recycled, not deleted: it is renamed to one
spare name, and the next write overwrites that file under its ``.tmp``
name before renaming it into place.  Unlinking a file that was fsynced
moments ago is far from free — on a filesystem that discards freed
blocks it can cost tens of milliseconds — while overwriting an existing
file in place costs about as much as writing a fresh one.  The spare
keeps its old length when the new body is shorter; the length-framed
read ignores the stale bytes past the frame.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import re
import struct
import zlib
from typing import Callable

__all__ = ["CheckpointStore"]

_HEADER = struct.Struct("<II")

_CKPT_RE = re.compile(r"^ckpt-(\d{16})\.pkl$")

#: The retired checkpoint waiting to be overwritten by the next write.
_SPARE = "spare.ckpt"


class CheckpointStore:
    """Writer/loader for the ``ckpt-<offset:016d>.pkl`` files in a
    service directory.

    Parameters
    ----------
    root:
        Service directory; checkpoints live in ``<root>/ckpt/``.
    retain:
        How many newest checkpoints to keep (>= 1).  After each
        successful write the oldest one beyond that becomes the spare
        the next write reuses; any further surplus is deleted.
    fault_hook:
        Test seam, called as ``fault_hook(stage)`` at
        ``"checkpoint.before"`` / ``"checkpoint.mid"`` (temp file partly
        written, not yet renamed) / ``"checkpoint.after"`` (renamed, not
        yet pruned).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        retain: int = 2,
        fault_hook: Callable[[str], None] | None = None,
    ):
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.retain = int(retain)
        self.fault_hook = fault_hook
        self._dir = pathlib.Path(root) / "ckpt"
        self._dir.mkdir(parents=True, exist_ok=True)

    def _hook(self, stage: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(stage)

    def _checkpoints(self) -> list[tuple[int, pathlib.Path]]:
        """``(offset, path)`` for every checkpoint file, oldest first."""
        out = []
        for path in self._dir.iterdir():
            match = _CKPT_RE.match(path.name)
            if match:
                out.append((int(match.group(1)), path))
        return sorted(out)

    def offsets(self) -> tuple[int, ...]:
        """Stream offsets of the checkpoints on disk, oldest first."""
        return tuple(offset for offset, _ in self._checkpoints())

    def oldest_retained_offset(self) -> int:
        """The offset below which the WAL may be pruned (0 if none)."""
        offsets = self.offsets()
        return offsets[0] if offsets else 0

    def write(self, offset: int, payload: dict) -> pathlib.Path:
        """Atomically persist ``payload`` as the checkpoint at ``offset``.

        ``payload`` must be picklable (it is the service's
        ``{"state": sampler.to_state(), ...}`` dict).  The body goes into
        the spare file when there is one (a fresh file otherwise), is
        fsynced, and is renamed into place; only then does the checkpoint
        falling out of ``retain`` leave its final name, so a crash
        anywhere leaves at least the previous checkpoints intact.
        """
        self._hook("checkpoint.before")
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        final = self._dir / f"ckpt-{int(offset):016d}.pkl"
        tmp = final.with_suffix(".pkl.tmp")
        spare = self._dir / _SPARE
        mode = "wb"
        if spare.exists():
            os.replace(spare, tmp)
            mode = "r+b"
        with open(tmp, mode) as fh:
            fh.write(_HEADER.pack(len(body), zlib.crc32(body)))
            fh.write(body[: len(body) // 2])
            fh.flush()
            self._hook("checkpoint.mid")
            fh.write(body[len(body) // 2:])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        self._hook("checkpoint.after")
        for old, path in self._checkpoints()[: -self.retain]:
            if old == offset:
                continue
            if spare.exists():
                path.unlink()
            else:
                os.replace(path, spare)
        for stray in self._dir.glob("*.tmp"):
            stray.unlink()
        return final

    def load_latest(self) -> tuple[int, dict] | None:
        """The newest *valid* checkpoint as ``(offset, payload)``.

        Checkpoints failing the CRC frame or unpickling are skipped
        (newest first), so truncation/corruption degrades to a longer
        WAL replay rather than a failed recovery.  Returns ``None`` when
        no valid checkpoint exists.
        """
        for offset, path in reversed(self._checkpoints()):
            data = path.read_bytes()
            if len(data) < _HEADER.size:
                continue
            length, crc = _HEADER.unpack(data[: _HEADER.size])
            body = data[_HEADER.size: _HEADER.size + length]
            if len(body) != length or zlib.crc32(body) != crc:
                continue
            try:
                return offset, pickle.loads(body)
            except Exception:
                continue
        return None
