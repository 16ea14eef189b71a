"""Tenant namespace, quotas, and bounded fairness for the cluster.

The cluster multiplexes many tenants onto a small worker pool, so one
noisy tenant must not be able to starve the rest.  Fairness is enforced
*before* events reach the shared bounded queue, with two per-tenant
limits declared in a :class:`TenantQuota`:

- **event rate** — a classic token bucket (:class:`TokenBucket`)
  refilled at ``events_per_sec`` with a ``burst`` ceiling.  The
  non-blocking ingest path rejects (counted, per reason) when the bucket
  is dry; the blocking path awaits the refill, converting a hot tenant's
  overload into its *own* backpressure.
- **queue share** — a cap on the fraction of a worker's bounded buffer
  one tenant may occupy (its in-flight events: enqueued minus applied).
  Even a tenant under its rate limit cannot monopolize the queue that
  the worker's global backpressure bound protects.

Rejections never disappear into a boolean: every refusal increments a
per-tenant, per-reason counter (``rate`` / ``share`` / ``backpressure``)
on the :class:`TenantRecord`, so dashboards can tell quota pushback from
worker overload at a glance.  The registry itself
(:class:`TenantRegistry`) is the cluster's authoritative namespace —
spec, quota, and current placement per tenant — and serializes to the
cluster's JSON meta file for recovery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ...api import SamplerSpec

__all__ = [
    "TenantQuota",
    "TokenBucket",
    "TenantRecord",
    "TenantRegistry",
    "REJECT_REASONS",
]

#: The per-tenant rejection counters every record carries.  ``rate`` and
#: ``share`` are quota refusals, ``backpressure`` is a full worker
#: buffer (or an in-progress handoff), and ``unavailable`` is load shed
#: while the tenant's worker is down and failover has not restored it.
REJECT_REASONS = ("rate", "share", "backpressure", "unavailable")

#: The per-event columns a cluster block carries beside its keys.
_BLOCK_COLUMNS = ("weights", "values", "times")


def check_tenant_id(tenant) -> str:
    """Validate a tenant id: non-empty ``str`` outside the reserved
    ``__`` domain (the in-stream admin rows of the older WAL format used
    it, so such a row can never pass for a tenant's data)."""
    if not isinstance(tenant, str) or not tenant:
        raise ValueError("tenant id must be a non-empty string")
    if tenant.startswith("__"):
        raise ValueError(f"tenant id {tenant!r} uses the reserved '__' prefix")
    return tenant


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant ingest limits (``None`` means unlimited).

    ``events_per_sec`` caps sustained ingest rate, ``burst`` the token
    bucket's capacity (defaults to one second of rate), ``queue_share``
    the fraction of the owning worker's bounded queue this tenant's
    in-flight events may occupy.
    """

    events_per_sec: float | None = None
    burst: float | None = None
    queue_share: float | None = None

    def __post_init__(self):
        if self.events_per_sec is not None and self.events_per_sec <= 0:
            raise ValueError("events_per_sec must be positive (or None)")
        if self.burst is not None and self.burst <= 0:
            raise ValueError("burst must be positive (or None)")
        if self.queue_share is not None and not (0 < self.queue_share <= 1):
            raise ValueError("queue_share must be in (0, 1] (or None)")

    def bucket(self, clock=None) -> "TokenBucket | None":
        """A fresh token bucket enforcing this quota's rate (or ``None``
        when the rate is unlimited)."""
        if self.events_per_sec is None:
            return None
        burst = self.burst if self.burst is not None else self.events_per_sec
        return TokenBucket(self.events_per_sec, burst, clock=clock)

    def to_dict(self) -> dict:
        """JSON form (inverse of :meth:`from_dict`)."""
        return {
            "events_per_sec": self.events_per_sec,
            "burst": self.burst,
            "queue_share": self.queue_share,
        }

    @classmethod
    def from_dict(cls, spec: dict | None) -> "TenantQuota":
        """Rebuild a quota from its :meth:`to_dict` form."""
        spec = spec or {}
        return cls(
            events_per_sec=spec.get("events_per_sec"),
            burst=spec.get("burst"),
            queue_share=spec.get("queue_share"),
        )


class TokenBucket:
    """A token bucket refilled continuously at ``rate`` tokens/second.

    The bucket starts full (``burst`` tokens) and refills lazily on each
    call from an injectable monotonic ``clock`` — no background task, so
    the cluster can run thousands of buckets for free, and tests can
    drive time deterministically.

    >>> now = [0.0]
    >>> bucket = TokenBucket(10.0, burst=5.0, clock=lambda: now[0])
    >>> bucket.try_acquire(5)
    True
    >>> bucket.try_acquire(1)
    False
    >>> now[0] += 0.1  # 1 token refills
    >>> bucket.try_acquire(1)
    True
    """

    def __init__(self, rate: float, burst: float, *, clock=None):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock if clock is not None else time.monotonic
        self._tokens = self.burst
        self._stamp = float(self._clock())

    def _refill(self) -> None:
        """Credit tokens for the time elapsed since the last call."""
        now = float(self._clock())
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    @property
    def tokens(self) -> float:
        """Currently available tokens (after refill)."""
        self._refill()
        return self._tokens

    def try_acquire(self, n: int = 1) -> bool:
        """Take ``n`` tokens if available; never waits."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def acquire_delay(self, n: int = 1) -> float:
        """Take ``n`` tokens, returning how long the caller must sleep.

        Zero when the bucket covers ``n`` now; otherwise the bucket goes
        negative (the debt is real: subsequent calls queue behind it) and
        the returned delay is when the debt refills.  This is the
        blocking ingest path's primitive: awaiting the returned delay
        yields exactly ``rate`` events/second under sustained load.
        """
        self._refill()
        self._tokens -= n
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / self.rate


@dataclass
class TenantRecord:
    """One tenant's registry entry: identity, config, placement, counters.

    ``service`` is the tenant's *current* worker (the authoritative
    placement map lives here, with the hash ring supplying defaults and
    rebalance targets).  ``events_enqueued`` counts admissions through
    the cluster; ``rejected`` counts refusals by reason — quota
    (``rate``/``share``) versus worker ``backpressure`` — so pushback is
    attributable.  ``migrating`` flags an in-progress handoff (ingest
    gates on it).
    """

    tenant: str
    spec: SamplerSpec
    quota: TenantQuota = field(default_factory=TenantQuota)
    service: str = ""
    events_enqueued: int = 0
    rejected: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in REJECT_REASONS}
    )
    migrating: bool = False

    def reject(self, reason: str, n: int = 1) -> None:
        """Count ``n`` refused events under ``reason``."""
        if reason not in self.rejected:
            raise ValueError(
                f"unknown rejection reason {reason!r}; "
                f"expected one of {REJECT_REASONS}"
            )
        self.rejected[reason] += n

    def to_dict(self) -> dict:
        """JSON form for the cluster meta file (counters included, so a
        recovered cluster keeps its rejection history)."""
        return {
            "tenant": self.tenant,
            "spec": self.spec.as_dict(),
            "quota": self.quota.to_dict(),
            "service": self.service,
            "events_enqueued": self.events_enqueued,
            "rejected": dict(self.rejected),
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "TenantRecord":
        """Rebuild a record from its :meth:`to_dict` form."""
        record = cls(
            tenant=check_tenant_id(spec["tenant"]),
            spec=SamplerSpec.from_dict(spec["spec"]),
            quota=TenantQuota.from_dict(spec.get("quota")),
            service=str(spec.get("service", "")),
            events_enqueued=int(spec.get("events_enqueued", 0)),
        )
        for reason, count in spec.get("rejected", {}).items():
            if reason in record.rejected:
                record.rejected[reason] = int(count)
        return record


class TenantRegistry:
    """The cluster's tenant namespace: create / describe / drop.

    Holds a :class:`TenantRecord` per tenant plus its live token bucket
    (buckets are runtime objects — rebuilt from the quota on recovery,
    deliberately *not* persisted, so a restart refills them).
    """

    def __init__(self, *, clock=None):
        self._records: dict[str, TenantRecord] = {}
        self._buckets: dict[str, TokenBucket | None] = {}
        self._clock = clock

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._records

    def tenants(self) -> tuple[str, ...]:
        """All tenant ids, sorted."""
        return tuple(sorted(self._records))

    def create(
        self,
        tenant: str,
        spec: SamplerSpec | dict | str,
        *,
        quota: TenantQuota | dict | None = None,
        service: str = "",
    ) -> TenantRecord:
        """Register a new tenant (its worker creates the sampler via an
        in-stream admin op; the registry only owns the namespace).

        The spec is built once here and the sampler discarded: a spec its
        worker could not build, or one whose sampler needs a per-event
        column that cluster blocks do not carry (``strata=``,
        ``groups=``), is refused before the caller can register, enqueue
        or log it — a create op that fails on its worker would crash it
        and every WAL replay of its directory.
        """
        check_tenant_id(tenant)
        if tenant in self._records:
            raise ValueError(f"tenant {tenant!r} already exists")
        spec = SamplerSpec.of(spec)
        for column in spec.build().required_columns:
            if column not in _BLOCK_COLUMNS:
                raise ValueError(
                    f"sampler {spec.name!r} requires a {column}= column, "
                    f"which cluster blocks do not carry"
                )
        if quota is None:
            quota = TenantQuota()
        elif not isinstance(quota, TenantQuota):
            quota = TenantQuota.from_dict(quota)
        record = TenantRecord(
            tenant=tenant, spec=spec, quota=quota, service=service
        )
        self._records[tenant] = record
        self._buckets[tenant] = quota.bucket(self._clock)
        return record

    def get(self, tenant: str) -> TenantRecord:
        """The record for ``tenant`` (raises ``KeyError`` when unknown)."""
        try:
            return self._records[tenant]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant!r}") from None

    def bucket(self, tenant: str) -> TokenBucket | None:
        """The tenant's live rate bucket (``None`` = unlimited rate)."""
        self.get(tenant)
        return self._buckets[tenant]

    def retune_quota(
        self, tenant: str, quota: TenantQuota | dict | None
    ) -> TenantRecord:
        """Replace ``tenant``'s quota in place, rebuilding its bucket.

        Quotas are frozen, so a retune swaps the whole
        :class:`TenantQuota` on the record and rebuilds the live token
        bucket from it (a fresh, full bucket — a rate *cut* therefore
        takes effect after at most one old burst).  ``None`` lifts all
        limits.  Returns the updated record.
        """
        record = self.get(tenant)
        if quota is None:
            quota = TenantQuota()
        elif not isinstance(quota, TenantQuota):
            quota = TenantQuota.from_dict(quota)
        record.quota = quota
        self._buckets[tenant] = quota.bucket(self._clock)
        return record

    def drop(self, tenant: str) -> TenantRecord:
        """Remove ``tenant`` from the namespace, returning its record."""
        record = self.get(tenant)
        del self._records[tenant]
        del self._buckets[tenant]
        return record

    def to_dict(self) -> dict:
        """JSON form of the whole namespace, tenant-sorted."""
        return {
            tenant: self._records[tenant].to_dict()
            for tenant in self.tenants()
        }

    @classmethod
    def from_dict(cls, spec: dict, *, clock=None) -> "TenantRegistry":
        """Rebuild the namespace from a cluster meta file."""
        registry = cls(clock=clock)
        for tenant in sorted(spec):
            record = TenantRecord.from_dict(spec[tenant])
            registry._records[record.tenant] = record
            registry._buckets[record.tenant] = record.quota.bucket(clock)
        return registry
