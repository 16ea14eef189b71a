"""The tenant multiplexer: many tenant samplers behind one service.

A cluster worker is an ordinary :class:`~repro.serve.StreamService` — one
bounded queue, one micro-batcher, one WAL, one checkpoint store — whose
wrapped sampler is a :class:`TenantMuxSampler`: a registered
``StreamSampler`` holding an independent child sampler per tenant.  Each
event row carries a composite ``(tenant, key)`` key; ``update_many``
groups a batch by tenant and feeds each child its sub-stream through the
vectorized kernels, preserving per-tenant order, so the PR2
chunking-invariance contract lifts directly: any flush/chunk boundaries
produce bit-identical per-tenant states.

Tenant membership changes are **events in the stream**: creating,
installing (rebalance handoff), and dropping a tenant are admin rows
(:func:`create_op` / :func:`install_op` / :func:`drop_op`) ingested
through the same queue as data.  That single decision buys the whole
durability story for free — admin ops are WAL-logged and ordered
relative to the tenant's own events, so ``StreamService.recover`` replays
membership and data together and lands on a bit-exact multi-tenant state
without any cluster-specific recovery code.

Because every child speaks ``to_state()``/``from_state()`` (the paper's
mergeable-summary machinery), a tenant's entire sampler — RNG
continuation included — is *portable*: extract it on one worker, ship it
inside an install op to another, and the moved tenant's estimates are
bit-identical to an unmoved control replay.  That portability is what the
live rebalancer (:mod:`repro.serve.cluster.rebalance`) is built on.
"""

from __future__ import annotations

import numpy as np

from ...api.protocol import StreamSampler, query_support, upgrade_state
from ...api.registry import SamplerSpec, register_sampler, sampler_from_state

__all__ = [
    "TenantMuxSampler",
    "ADMIN_KEY",
    "compose_rows",
    "create_op",
    "install_op",
    "drop_op",
]

#: Reserved tenant field marking an admin row; real tenant ids must not
#: start with ``"__"`` (enforced by the tenant registry).
ADMIN_KEY = "__mux_admin__"

_TENANT_SCOPED = (
    "tenant-scoped: query the tenant's child sampler "
    "(Cluster.query(tenant, ...) / TenantMuxSampler.tenant_sampler)"
)


def compose_rows(tenant: str, keys) -> list[tuple]:
    """Composite ``(tenant, key)`` rows for one tenant's key batch."""
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    return [(tenant, key) for key in keys]


def create_op(tenant: str, spec: SamplerSpec | dict) -> tuple:
    """An admin row creating ``tenant`` with a fresh sampler from ``spec``."""
    spec = spec.as_dict() if isinstance(spec, SamplerSpec) else dict(spec)
    return (ADMIN_KEY, {"op": "create", "tenant": tenant, "spec": spec})


def install_op(tenant: str, state: dict, applied: int = 0) -> tuple:
    """An admin row installing ``tenant`` from a checkpointed sampler state.

    ``applied`` carries the tenant's event count at extraction so the
    per-tenant applied counters continue across a rebalance handoff.
    """
    return (
        ADMIN_KEY,
        {"op": "install", "tenant": tenant, "state": state,
         "applied": int(applied)},
    )


def drop_op(tenant: str) -> tuple:
    """An admin row removing ``tenant`` and its sampler state."""
    return (ADMIN_KEY, {"op": "drop", "tenant": tenant})


@register_sampler("tenant_mux")
class TenantMuxSampler(StreamSampler):
    """A registered sampler multiplexing independent per-tenant children.

    Parameters
    ----------
    tenants:
        Optional initial membership: ``{tenant_id: spec}`` where each
        spec is a :class:`~repro.api.SamplerSpec` or its
        ``{"name", "params"}`` dict form.  Tenants are usually created
        through admin rows in the event stream instead (see
        :func:`create_op`), which is what makes membership durable under
        the serving runtime's WAL.

    Examples
    --------
    >>> mux = TenantMuxSampler({"acme": {"name": "bottom_k", "params": {"k": 8, "rng": 1}}})
    >>> mux.update(("acme", "item-1"), 2.0)
    True
    >>> mux.tenants()
    ('acme',)
    """

    mergeable = False
    default_estimate_kind = "total"
    #: The mux itself answers no aggregates: queries are tenant-scoped
    #: and run against the per-tenant child samplers, which declare their
    #: own capabilities.
    query_capabilities = query_support(
        sum=_TENANT_SCOPED,
        count=_TENANT_SCOPED,
        mean=_TENANT_SCOPED,
        distinct=_TENANT_SCOPED,
        topk=_TENANT_SCOPED,
        quantile=_TENANT_SCOPED,
    )
    query_variance = _TENANT_SCOPED

    def __init__(self, tenants: dict | None = None):
        self._children: dict[str, StreamSampler] = {}
        self._specs: dict[str, dict] = {}
        self._applied: dict[str, int] = {}
        for tenant, spec in (tenants or {}).items():
            self._admin_create(tenant, spec)

    # ------------------------------------------------------------------
    # Membership (applied through admin rows in the stream)
    # ------------------------------------------------------------------
    @staticmethod
    def _check_tenant_id(tenant) -> str:
        """Validate a tenant id (a plain string outside the admin domain)."""
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("tenant id must be a non-empty string")
        if tenant.startswith("__"):
            raise ValueError(
                f"tenant id {tenant!r} uses the reserved '__' prefix"
            )
        return tenant

    def _admin_create(self, tenant: str, spec) -> None:
        """Create a fresh child sampler for ``tenant`` from ``spec``."""
        self._check_tenant_id(tenant)
        if tenant in self._children:
            raise ValueError(f"tenant {tenant!r} already exists")
        spec = spec if isinstance(spec, SamplerSpec) else SamplerSpec.from_dict(spec)
        self._children[tenant] = spec.build()
        self._specs[tenant] = spec.as_dict()
        self._applied[tenant] = 0

    def _admin_install(self, tenant: str, state: dict, applied: int) -> None:
        """Install ``tenant`` from a portable sampler state (handoff).

        Installing over an existing copy replaces it: the shipped state
        is the flushed source state and therefore authoritative, which
        makes the op idempotent when a failed handoff is retried against
        a destination still holding an earlier, uncommitted copy.
        """
        self._check_tenant_id(tenant)
        # Upgrade here too: the spec kept below reads the state's params.
        state = upgrade_state(state)
        self._children[tenant] = sampler_from_state(state)
        self._specs[tenant] = {
            "name": state["sampler"], "params": dict(state.get("params", {}))
        }
        self._applied[tenant] = int(applied)

    def _admin_drop(self, tenant: str) -> None:
        """Remove ``tenant`` and discard its sampler state."""
        if tenant not in self._children:
            raise KeyError(f"unknown tenant {tenant!r}")
        del self._children[tenant]
        del self._specs[tenant]
        del self._applied[tenant]

    def _apply_admin(self, op: dict) -> None:
        """Apply one admin payload (the ``op`` dicts built by the helpers)."""
        kind = op.get("op")
        if kind == "create":
            self._admin_create(op["tenant"], op["spec"])
        elif kind == "install":
            self._admin_install(
                op["tenant"], op["state"], op.get("applied", 0)
            )
        elif kind == "drop":
            self._admin_drop(op["tenant"])
        else:
            raise ValueError(f"unknown tenant admin op {kind!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tenants(self) -> tuple[str, ...]:
        """Current tenant ids, sorted."""
        return tuple(sorted(self._children))

    def has_tenant(self, tenant: str) -> bool:
        """Whether ``tenant`` currently has a child sampler."""
        return tenant in self._children

    def tenant_sampler(self, tenant: str) -> StreamSampler:
        """The live child sampler of ``tenant`` (raises ``KeyError``)."""
        try:
            return self._children[tenant]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant!r}") from None

    def tenant_spec(self, tenant: str) -> SamplerSpec:
        """The spec ``tenant``'s sampler was built (or installed) from."""
        if tenant not in self._specs:
            raise KeyError(f"unknown tenant {tenant!r}")
        return SamplerSpec.from_dict(self._specs[tenant])

    def events_applied_for(self, tenant: str) -> int:
        """Data events applied to ``tenant``'s sampler (admin rows not
        counted), continued across install handoffs."""
        if tenant not in self._applied:
            raise KeyError(f"unknown tenant {tenant!r}")
        return self._applied[tenant]

    @property
    def applied_counts(self) -> dict[str, int]:
        """Per-tenant applied-event counters (a defensive copy)."""
        return dict(self._applied)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, key, weight: float = 1.0, *, value=None, time=None):
        """Offer one composite ``(tenant, key)`` event (or admin row)."""
        tenant, inner = key
        if tenant == ADMIN_KEY:
            self._apply_admin(inner)
            return None
        try:
            child = self._children[tenant]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant!r}") from None
        self._applied[tenant] += 1
        return child.update(inner, weight, value=value, time=time)

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Offer a batch of composite rows, grouped per tenant.

        Rows are partitioned by tenant and each child ingests its
        sub-stream through its own vectorized ``update_many`` — in
        stream order, so per-tenant state is chunking-invariant across
        any batch boundaries.  Admin rows apply at their position
        relative to *their* tenant's rows (a tenant's pending group is
        flushed before its admin op applies); rows of other tenants
        commute with the op, which is safe because children are fully
        independent.
        """
        columns = [
            None if col is None else np.asarray(col, dtype=float)
            for col in (weights, values, times)
        ]
        has_columns = any(col is not None for col in columns)
        keys_by: dict[str, list] = {}
        idx_by: dict[str, list[int]] = {}

        def apply_group(tenant: str) -> None:
            sub_keys = keys_by.pop(tenant, None)
            if not sub_keys:
                return
            child = self._children.get(tenant)
            if child is None:
                raise KeyError(f"unknown tenant {tenant!r}")
            try:
                batch = np.asarray(sub_keys)
            except ValueError:  # ragged tuple keys refuse to coerce
                batch = sub_keys
            # Only 1-D numeric batches take the vectorized fast path.
            # Equal-length numeric tuple keys coerce to a 2-D numeric
            # array that would be misread as one row per tuple *element*;
            # the list form feeds each tuple through as a single key,
            # matching the scalar update() path.
            if not (isinstance(batch, np.ndarray) and batch.ndim == 1
                    and np.issubdtype(batch.dtype, np.number)):
                batch = sub_keys
            if has_columns:
                at = np.asarray(idx_by.pop(tenant), dtype=np.intp)
                child.update_many(batch, *(
                    None if col is None else col[at] for col in columns
                ))
            else:
                child.update_many(batch)
            self._applied[tenant] += len(sub_keys)

        for i, (tenant, inner) in enumerate(keys):
            if tenant == ADMIN_KEY:
                apply_group(inner.get("tenant", ""))
                self._apply_admin(inner)
                continue
            group = keys_by.get(tenant)
            if group is None:
                group = keys_by[tenant] = []
                if has_columns:
                    idx_by[tenant] = []
            group.append(inner)
            if has_columns:
                idx_by[tenant].append(i)
        for tenant in list(keys_by):
            apply_group(tenant)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def sample(self):
        """The union of all child samples, keys recomposited as
        ``(tenant, key)`` tuples.

        A cross-tenant introspection view (sizes, contract checks, the
        dashboard's "what is retained" panel); estimator-grade reads are
        tenant-scoped through :meth:`tenant_sampler`.  The composite
        carries the first child's priority family — per-tenant families
        can differ, so cross-tenant HT arithmetic on this view is only
        meaningful when every tenant shares one family.
        """
        from ...core.sample import Sample

        parts = [
            (tenant, self._children[tenant].sample())
            for tenant in self.tenants()
        ]
        parts = [(tenant, s) for tenant, s in parts if len(s.keys) > 0]
        if not parts:
            empty = np.empty(0, dtype=float)
            return Sample([], empty, empty, empty, empty)
        keys = [
            (tenant, key) for tenant, s in parts for key in s.keys
        ]
        # The composite carries a time column when any part has one;
        # parts without times contribute NaN rows (excluded by windowed
        # masks), matching the per-row "untimed" convention.
        times = None
        if any(s.times is not None for _, s in parts):
            times = np.concatenate([
                s.times
                if s.times is not None
                else np.full(len(s.keys), np.nan)
                for _, s in parts
            ])
        return Sample(
            keys,
            np.concatenate([s.values for _, s in parts]),
            np.concatenate([s.weights for _, s in parts]),
            np.concatenate([s.priorities for _, s in parts]),
            np.concatenate([s.thresholds for _, s in parts]),
            family=parts[0][1].family,
            times=times,
        )

    def estimate_total(self, tenant: str | None = None, **kw):
        """HT total — one tenant's, or summed across every tenant.

        With ``tenant`` given, delegates to that child's
        ``estimate("total", **kw)``; otherwise sums the per-tenant
        totals (children estimate independently, so the sum is the HT
        estimate of the combined total).
        """
        if tenant is not None:
            return self.tenant_sampler(tenant).estimate("total", **kw)
        return float(sum(
            float(child.estimate("total", **kw))
            for child in self._children.values()
        ))

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        """Constructor kwargs reproducing the current membership."""
        return {"tenants": {t: dict(self._specs[t]) for t in self._specs}}

    def _get_state(self) -> dict:
        """Portable state: every child's checkpoint plus the counters."""
        return {
            "children": {
                tenant: child.to_state()
                for tenant, child in self._children.items()
            },
            "applied": dict(self._applied),
            "order": list(self._children),
        }

    def _set_state(self, state: dict) -> None:
        """Restore membership and every child bit-exactly."""
        children = state.get("children", {})
        order = state.get("order") or sorted(children)
        self._children = {
            tenant: sampler_from_state(children[tenant]) for tenant in order
        }
        self._specs = {
            tenant: {
                "name": children[tenant]["sampler"],
                "params": dict(children[tenant].get("params", {})),
            }
            for tenant in order
        }
        applied = state.get("applied", {})
        self._applied = {
            tenant: int(applied.get(tenant, 0)) for tenant in order
        }
