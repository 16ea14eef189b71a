"""Theta sketch baseline (Dasgupta–Lang–Rhodes–Thaler, cited as [11]).

The Theta sketch keeps the ``k`` smallest coordinated hash values together
with a global threshold ``theta``; the estimate is ``|retained| / theta``.
Unions take the *minimum* theta of the inputs, keep the retained hashes
below it, and trim back to nominal size — discarding samples the inputs
paid for.  That discard is exactly what the paper's per-item-threshold
merge (Section 3.5, :func:`repro.samplers.distinct.lcs_union`) avoids;
Figure 4 measures the resulting accuracy gap.

This implementation mirrors the DataSketches QuickSelect behaviour closely
enough for the comparison: streaming keeps ``k`` smallest (+ witness),
``union`` sets ``theta = min(theta_A, theta_B, (k+1)-th smallest of the
retained union)``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..api import StreamSampler, merged, query_support, register_sampler
from ..api.protocol import _as_key_batch
from ..core.bottomk_store import KeyedBottomK
from ..core.hashing import batch_hash_to_unit, hash_to_unit
from ..core.kernels import smallest_distinct
from ..core.priorities import Uniform01Priority
from ..core.sample import Sample

__all__ = ["ThetaSketch", "theta_union"]


@register_sampler("theta")
class ThetaSketch(StreamSampler):
    """Bottom-k distinct-counting sketch with a global theta threshold."""

    default_estimate_kind = "distinct"
    mergeable = True
    resizable = True
    #: Retains only hash values (no keys, weights, or payloads): the
    #: count-style aggregates apply and nothing else can.
    query_capabilities = query_support(
        "count", "distinct",
        sum="retains only hash values, no payloads (sum degenerates to distinct)",
        mean="retains only hash values, no payloads",
        topk="rows are anonymous hashes; there are no keys to rank",
        quantile="retains only hash values, no payload distribution",
    )

    def __init__(self, k: int, salt: int = 0):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.k = int(k)
        self.salt = int(salt)
        # The k+1 smallest hashes, keyed by themselves; the cap carries
        # the min-theta of unions and grow-resizes.
        self._rows = KeyedBottomK(self.k, cap=1.0)

    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> None:
        """Offer a key; duplicates are idempotent (same hash)."""
        h = hash_to_unit(key, self.salt)
        self._rows.offer(h, h)

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Hashes the batch with numpy and offers only the ``k + 2`` smallest
        distinct hashes — the only values that can affect the sketch state.
        """
        keys = _as_key_batch(keys)
        if not len(keys):
            return
        h = batch_hash_to_unit(keys, self.salt)
        for hv in smallest_distinct(h, self.k + 2).tolist():
            self._rows.offer(hv, hv)

    @property
    def theta(self) -> float:
        """Sampling threshold: min of the union cap and the (k+1)-th hash."""
        return self._rows.threshold

    def retained(self) -> list[float]:
        """Hash values strictly below theta (the usable entries)."""
        t = self.theta
        return [h for h in self._rows.members if h < t]

    def __len__(self) -> int:
        return len(self.retained())

    def estimate_distinct(self) -> float:
        """``|retained| / theta``; exact while the sketch is underfull.

        Also reachable as ``estimate()`` through the protocol facade (the
        sketch's default estimator kind is ``"distinct"``).
        """
        t = self.theta
        return len(self.retained()) / t

    def sample(self) -> Sample:
        """Retained hashes below theta as a uniform Sample.

        ``sample().ht_total()`` equals :meth:`estimate_distinct`.
        """
        t = self.theta
        hashes = sorted(self.retained())
        n = len(hashes)
        return Sample(
            keys=hashes,
            values=np.ones(n),
            weights=np.ones(n),
            priorities=np.asarray(hashes, dtype=float),
            thresholds=np.full(n, t),
            family=Uniform01Priority(),
        )

    @classmethod
    def from_hashes(cls, hashes, k: int, salt: int = 0) -> "ThetaSketch":
        """Build a sketch directly from precomputed distinct hash values.

        Vectorized construction path for the large Monte-Carlo experiments:
        only the ``k + 2`` smallest hashes can affect the sketch state, so
        they are selected with a partition and offered normally.
        """
        import numpy as np

        hashes = np.asarray(hashes, dtype=float)
        out = cls(k, salt=salt)
        keep = min(k + 2, hashes.size)
        if keep:
            smallest = np.partition(hashes, keep - 1)[:keep]
            for h in np.sort(smallest).tolist():
                out._rows.offer(h, h)
        return out

    def resize(self, k: int) -> "ThetaSketch":
        """Change the nominal size mid-stream, keeping the estimate unbiased.

        Shrinking keeps the ``k+1`` smallest hashes (the state a fresh
        ``k`` sketch of the same stream would hold).  Growing freezes the
        current theta as the cap — the same mechanism unions already use —
        until the enlarged sketch genuinely fills past it.
        """
        if k < 1:
            raise ValueError("k must be a positive integer")
        k = int(k)
        if k == self.k:
            return self
        rows = self._rows
        if k < self.k:
            rows.load((h, h) for h in sorted(rows.members)[: k + 1])
        else:
            rows.cap = self.theta
        self.k = rows.k = k
        return self

    def merge(self, other: "ThetaSketch") -> "ThetaSketch":
        """DataSketches-style union in place (returns self): min-theta,
        then trim to nominal k."""
        if other.salt != self.salt:
            raise ValueError("cannot merge sketches with different salts")
        pool = set(self.retained()) | set(other.retained())
        self.k = max(self.k, other.k)
        self._rows = KeyedBottomK(self.k, cap=min(self.theta, other.theta))
        for h in pool:
            self._rows.offer(h, h)
        return self

    def union(self, other: "ThetaSketch") -> "ThetaSketch":
        """Pure union: a new sketch, leaving both inputs untouched
        (equivalent to ``self | other``)."""
        return merged(self, other)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "salt": self.salt}

    def _get_state(self) -> dict:
        return {"hashes": sorted(self._rows.members),
                "theta_cap": self._rows.cap}

    def _set_state(self, state: dict) -> None:
        self._rows = KeyedBottomK(self.k, cap=float(state["theta_cap"]))
        self._rows.load((h, h) for h in state["hashes"])


def theta_union(sketches: Iterable[ThetaSketch]) -> ThetaSketch:
    """Union an iterable of Theta sketches left to right (pure)."""
    sketches = list(sketches)
    if not sketches:
        raise ValueError("need at least one sketch")
    out = sketches[0].copy()
    for sk in sketches[1:]:
        out.merge(sk)
    return out
