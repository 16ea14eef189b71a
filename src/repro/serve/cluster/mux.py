"""The tenant multiplexer: many tenant samplers behind one service.

A cluster worker is an ordinary :class:`~repro.serve.StreamService` — one
bounded queue, one micro-batcher, one WAL, one checkpoint store — whose
wrapped sampler is a :class:`TenantMuxSampler`: a registered
``StreamSampler`` holding an independent child sampler per tenant.

Data arrives as *routed blocks*.  ``Cluster.ingest_many(tenant, keys)``
hands the worker the caller's key block (normalized by :func:`key_block`)
tagged with its tenant; the micro-batcher concatenates same-signature
blocks and records run-length routes ``[(tenant, n), ...]``; and one
``update_many(keys, weights, values, times, routes=...)`` per flush gives
each tenant its rows through the child's vectorized kernel, in stream
order.  A tenant's sampler is a function of its own sub-stream only, so
by the chunking-invariance contract any flush or chunk boundaries produce
bit-identical per-tenant states — no per-event tenant column ever exists.

Tenant membership changes are **admin ops in the stream**: creating,
installing (rebalance handoff) and dropping a tenant are op dicts
(:func:`create_op` / :func:`install_op` / :func:`drop_op`) queued with
:meth:`StreamService.enqueue_admin` behind the data already admitted.
The consumer logs them as a zero-event WAL admin record and hands them to
:meth:`TenantMuxSampler.apply_admin` between batches, so a create
precedes the tenant's rows and a drop follows them, and
``StreamService.recover`` replays membership and data together — landing
on a bit-exact multi-tenant state without any cluster-specific recovery
code.

The protocol's composite-row form — ``update((tenant, key))`` and
``update_many`` over ``(tenant, key)`` rows — stays for the sampler
contract and for WAL tails written before routed blocks existed; rows are
grouped per tenant and take the same per-tenant apply step.  Tenant ids
starting with ``"__"`` are reserved, so an admin row of that older format
is refused with a ``ValueError`` instead of being replayed as data.

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
from ..batcher import _packed, float_column
from .tenants import check_tenant_id

__all__ = [
    "TenantMuxSampler",
    "key_block",
    "create_op",
    "install_op",
    "drop_op",
]

_TENANT_SCOPED = (
    "tenant-scoped: query the tenant's child sampler "
    "(Cluster.query(tenant, ...) / TenantMuxSampler.tenant_sampler)"
)


def key_block(keys):
    """One tenant's key block in the form its child sampler ingests.

    A 1-D numeric block stays (or becomes) a numpy array — the kernels'
    vectorized path.  Anything else (strings, tuple keys, mixed or
    ragged input) becomes a plain list, so every key reaches the child
    as one key, as on the scalar ``update`` path: equal-length numeric
    tuple keys would coerce to a 2-D array misread as one row per tuple
    *element*.  A list led by a plain ``int`` is packed as int64 in one
    strict pass (:func:`~repro.serve.batcher._packed`: ints, bools and
    numpy integers only, so ``[1, 2.5]`` is refused, never truncated).
    A list led by a ``str`` stays a list: numpy reads it as a string
    array at best, never as a numeric block.  Only a list the int pass
    refuses, and any other container, goes through numpy's dtype
    discovery.  Python ints that overflow int64 (uint64 keys arriving as
    JSON numbers) become uint64, never float64, so they hash as the
    integers they are.
    :class:`~repro.serve.cluster.ClusterClient` applies the same rule to
    pick the blocks it sends as binary frames.
    """
    if type(keys) is list and keys:
        if type(keys[0]) is int:
            packed = _packed(keys, "q", np.int64)
            if packed is not None:
                return packed
        elif type(keys[0]) is str:
            return list(keys)
    try:
        block = np.asarray(keys)
        if block.dtype.kind in "fO" and not isinstance(keys, np.ndarray) \
                and len(keys) and all(type(k) is int for k in keys):
            block = np.asarray(keys, dtype=np.uint64)
    except (TypeError, ValueError, OverflowError):
        block = None  # ragged tuple keys, or ints outside uint64
    # The kinds of np.number (timedelta64 is a signed integer to numpy):
    # a string test where np.issubdtype costs ~1 us a call.
    if block is not None and block.ndim == 1 and \
            block.dtype.kind in "iufcm":
        return block
    return keys.tolist() if isinstance(keys, np.ndarray) else list(keys)


def create_op(tenant: str, spec: SamplerSpec | dict) -> dict:
    """An admin op creating ``tenant`` with a fresh sampler from ``spec``."""
    spec = spec.as_dict() if isinstance(spec, SamplerSpec) else dict(spec)
    return {"op": "create", "tenant": tenant, "spec": spec}


def install_op(tenant: str, state: dict, applied: int = 0) -> dict:
    """An admin op installing ``tenant`` from a checkpointed sampler state.

    ``applied`` carries the tenant's event count at extraction so the
    per-tenant applied counters continue across a rebalance handoff.
    """
    return {"op": "install", "tenant": tenant, "state": state,
            "applied": int(applied)}


def drop_op(tenant: str) -> dict:
    """An admin op removing ``tenant`` and its sampler state."""
    return {"op": "drop", "tenant": tenant}


def _take(column, runs: list[tuple[int, int]]):
    """Rows ``[lo, hi)`` of every run, in order (one run: a slice)."""
    if len(runs) == 1:
        lo, hi = runs[0]
        return column[lo:hi]
    if isinstance(column, np.ndarray):
        return np.concatenate([column[lo:hi] for lo, hi in runs])
    return [key for lo, hi in runs for key in column[lo:hi]]


@register_sampler("tenant_mux")
class TenantMuxSampler(StreamSampler):
    """A registered sampler multiplexing independent per-tenant children.

    Parameters
    ----------
    tenants:
        Optional initial membership: ``{tenant_id: spec}`` where each
        spec is a :class:`~repro.api.SamplerSpec` or its
        ``{"name", "params"}`` dict form.  Tenants are usually created
        through admin ops in the event stream instead (see
        :func:`create_op`), which is what makes membership durable under
        the serving runtime's WAL.

    Examples
    --------
    >>> mux = TenantMuxSampler({"acme": {"name": "bottom_k", "params": {"k": 8, "rng": 1}}})
    >>> mux.update_many(np.arange(5), routes=[("acme", 5)])
    >>> mux.events_applied_for("acme")
    5
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
    # Membership (applied through admin ops in the stream)
    # ------------------------------------------------------------------
    def _admin_create(self, tenant: str, spec) -> None:
        """Create a fresh child sampler for ``tenant`` from ``spec``."""
        check_tenant_id(tenant)
        if tenant in self._children:
            raise ValueError(f"tenant {tenant!r} already exists")
        spec = SamplerSpec.of(spec)
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
        check_tenant_id(tenant)
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

    def apply_admin(self, op: dict) -> None:
        """Apply one admin op (:func:`create_op`, :func:`install_op` or
        :func:`drop_op`) — the serving runtime calls this between
        batches, live and on WAL replay."""
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
        """Data events applied to ``tenant``'s sampler, continued across
        install handoffs."""
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
    def _child(self, tenant) -> StreamSampler:
        """``tenant``'s child sampler; a reserved id (the admin rows of
        the older WAL format) raises ``ValueError``, any other unknown
        tenant ``KeyError``."""
        child = self._children.get(tenant)
        if child is None:
            check_tenant_id(tenant)
            raise KeyError(f"unknown tenant {tenant!r}")
        return child

    def _feed(self, tenant, keys, columns) -> None:
        """Apply one tenant's part of a batch through its child's kernel."""
        self._child(tenant).update_many(keys, *columns)
        self._applied[tenant] += len(keys)

    def update(self, key, weight: float = 1.0, *, value=None, time=None):
        """Offer one composite ``(tenant, key)`` event."""
        tenant, inner = key
        child = self._child(tenant)
        self._applied[tenant] += 1
        return child.update(inner, weight, value=value, time=time)

    def update_many(self, keys, weights=None, values=None, times=None, *,
                    routes=None) -> None:
        """Apply a batch, each tenant's rows through its child's kernel.

        With ``routes`` — run-length ``[(tenant, n), ...]`` covering
        ``keys`` in order — each run's rows (of the keys and of every
        column present) belong to that run's tenant; a tenant's runs are
        applied as one block, in stream order.  Without ``routes`` the
        keys are composite ``(tenant, key)`` rows, grouped per tenant the
        same way.  Either way per-tenant state is chunking-invariant
        across any batch boundaries.
        """
        columns = [
            None if col is None else float_column(col)
            for col in (weights, values, times)
        ]
        if routes is None:
            self._update_rows(keys, columns)
            return
        runs: dict = {}
        lo = 0
        for tenant, n in routes:
            runs.setdefault(tenant, []).append((lo, lo + n))
            lo += n
        for tenant, at in runs.items():
            self._feed(tenant, _take(keys, at), [
                None if col is None else _take(col, at) for col in columns
            ])

    def _update_rows(self, rows, columns) -> None:
        """The composite-row form: group per tenant, then feed."""
        keys_by: dict = {}
        idx_by: dict = {}
        for i, (tenant, inner) in enumerate(rows):
            group = keys_by.get(tenant)
            if group is None:
                group = keys_by[tenant] = []
                idx_by[tenant] = []
            group.append(inner)
            idx_by[tenant].append(i)
        for tenant, group in keys_by.items():
            at = np.asarray(idx_by[tenant], dtype=np.intp)
            self._feed(tenant, key_block(group), [
                None if col is None else col[at] for col in columns
            ])

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
