"""The unified :class:`StreamSampler` protocol.

Ting's adaptive threshold framework (SIGMOD 2022) builds every sampler in
this library out of the same three ingredients — per-item priorities, an
adaptive threshold rule, and pseudo-HT estimation — so all of them can (and
now do) share one canonical surface:

* ``update(key, weight=1.0, *, value=None, time=None)`` — offer one item;
* ``update_many(keys, weights=None, values=None, times=None)`` — vectorized
  batch ingestion (numpy fast path where the sampler supports it, a plain
  loop otherwise);
* ``sample()`` — finalize into a :class:`repro.core.sample.Sample`;
* ``merge(other)`` — in-place union with another sampler over a disjoint
  stream, returning ``self`` (``a | b`` is the pure variant, via
  :func:`merged`);
* ``estimate(kind=..., predicate=..., **kw)`` — one facade over the
  per-sampler ``estimate_*`` methods;
* ``to_state()`` / ``from_state()`` — plain-dict round-trip serialization
  for checkpointing and cross-process shipping, stamped with
  :data:`STATE_VERSION` (older checkpoints go through
  :func:`upgrade_state`).

Concrete samplers register themselves under a config-friendly name with
:func:`repro.api.registry.register_sampler`, which is what makes
``repro.make_sampler("bottom_k", k=100)`` work.

On top of the imperative facade sits the declarative query layer
(:mod:`repro.query`): every class carries a capability table
(:attr:`StreamSampler.query_capabilities`, declared with
:func:`query_support` in the same spirit as the ``mergeable`` ClassVar)
saying which query aggregates it answers and *why* the others are out of
scope, and :meth:`StreamSampler.query` plans/executes/caches declarative
queries against it.
"""

from __future__ import annotations

import abc
import functools
import inspect
from typing import Callable, ClassVar, Mapping

import numpy as np

from ..core.hashing import batch_hash_to_unit, hash_to_unit
from ..core.priorities import (
    ExponentialPriority,
    InverseWeightPriority,
    PriorityFamily,
    Uniform01Priority,
)
from ..core.rng import as_generator

__all__ = [
    "StreamSampler",
    "PrioritySampler",
    "QUERY_AGGREGATES",
    "query_support",
    "merged",
    "family_to_name",
    "family_from_name",
    "rng_to_state",
    "rng_from_state",
    "STATE_VERSION",
    "upgrade_state",
]

#: The aggregates the declarative query layer (:mod:`repro.query`) knows
#: how to execute.  Every sampler class accounts for each of them in its
#: :attr:`StreamSampler.query_capabilities` table — either as supported or
#: with a declared reason for the gap.
QUERY_AGGREGATES = ("sum", "count", "mean", "distinct", "topk", "quantile")

#: Gap reason used by the protocol default: a sampler that never declared
#: capabilities supports nothing, for this stated reason.
_NO_SAMPLE_REASON = (
    "does not declare query capabilities (no Sample-backed query execution)"
)

#: Gap reason for the windowed-query default: a sampler that records no
#: per-item arrival times cannot scope estimation to a time window or
#: discount by age.
_NO_TIME_REASON = (
    "records no per-item arrival times; windowed/decayed queries "
    "(window=/last=/decay=) need a time-indexed sampler"
)


def query_support(*supported: str, **gaps: str) -> dict[str, bool | str]:
    """Build a complete per-aggregate capability table.

    Positional names are supported aggregates; keyword arguments map each
    remaining aggregate to the *reason* it is out of scope.  Together they
    must account for every name in :data:`QUERY_AGGREGATES` exactly once —
    partial or overlapping declarations are construction-time errors, so a
    sampler cannot silently drift out of sync with the query layer.

    >>> caps = query_support("sum", "count", "mean", "topk", "quantile",
    ...                      distinct="samples occurrences, not distinct keys")
    >>> caps["sum"], caps["distinct"]
    (True, 'samples occurrences, not distinct keys')
    """
    table: dict[str, bool | str] = {}
    for name in supported:
        if name not in QUERY_AGGREGATES:
            raise ValueError(
                f"unknown query aggregate {name!r}; expected one of "
                + ", ".join(QUERY_AGGREGATES)
            )
        table[name] = True
    for name, reason in gaps.items():
        if name not in QUERY_AGGREGATES:
            raise ValueError(
                f"unknown query aggregate {name!r}; expected one of "
                + ", ".join(QUERY_AGGREGATES)
            )
        if name in table:
            raise ValueError(
                f"aggregate {name!r} declared both supported and gapped"
            )
        if not isinstance(reason, str) or not reason:
            raise ValueError(
                f"gap reason for {name!r} must be a non-empty string"
            )
        table[name] = reason
    missing = [name for name in QUERY_AGGREGATES if name not in table]
    if missing:
        raise ValueError(
            "capability table must account for every aggregate; missing: "
            + ", ".join(missing)
        )
    return {name: table[name] for name in QUERY_AGGREGATES}


def _bumps_state_version(fn):
    """Wrap a mutator so it advances the owner's ``state_version``.

    Applied automatically by ``StreamSampler.__init_subclass__`` to every
    ``update``/``update_many``/``merge``/``_set_state`` a subclass defines,
    so the query-result cache can invalidate on any mutation without each
    sampler having to remember to bump anything.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        self.__dict__["_state_version"] = (
            self.__dict__.get("_state_version", 0) + 1
        )
        return fn(self, *args, **kwargs)

    wrapper._bumps_state_version = True
    return wrapper


#: Mutators whose subclass overrides are auto-wrapped for version bumping.
#: Beyond the protocol surface, this covers the sampler-specific public
#: mutators (window advancement, sketch trimming, the tenant mux's admin
#: ops, ``variance_target``'s offers of externally drawn priorities) so
#: every state change a caller can make invalidates cached query results.
_VERSIONED_MUTATORS = (
    "update", "update_many", "merge", "_set_state", "advance", "trim",
    "resize", "apply_admin", "offer_with_priority",
)

#: Cap on cached query results per sampler instance (FIFO eviction).
_QUERY_CACHE_LIMIT = 128

#: Serializable priority families, by config name.
_FAMILIES: dict[str, type[PriorityFamily]] = {
    "uniform": Uniform01Priority,
    "inverse_weight": InverseWeightPriority,
    "exponential": ExponentialPriority,
}


def family_to_name(family: PriorityFamily) -> str:
    """Return the config name of a priority family (for ``to_state``)."""
    for name, cls in _FAMILIES.items():
        if type(family) is cls:
            return name
    raise ValueError(
        f"{type(family).__name__} has no registered config name and cannot "
        "be serialized; use one of " + ", ".join(sorted(_FAMILIES))
    )


def family_from_name(name: str | PriorityFamily | None) -> PriorityFamily | None:
    """Build a priority family from its config name (``None`` passes through)."""
    if name is None or isinstance(name, PriorityFamily):
        return name
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown priority family {name!r}; expected one of "
            + ", ".join(sorted(_FAMILIES))
        ) from None


def rng_to_state(rng: np.random.Generator) -> dict:
    """Capture a numpy generator's bit-generator state as a plain dict."""
    return rng.bit_generator.state


def rng_from_state(state: dict) -> np.random.Generator:
    """Rebuild a numpy generator from :func:`rng_to_state` output."""
    rng = np.random.default_rng()
    bit_gen = type(rng.bit_generator)
    if state.get("bit_generator", "PCG64") != bit_gen.__name__:
        bit_cls = getattr(np.random, state["bit_generator"])
        gen = np.random.Generator(bit_cls())
        gen.bit_generator.state = state
        return gen
    rng.bit_generator.state = state
    return rng


#: Schema version :meth:`StreamSampler.to_state` stamps on checkpoints.
#: Version 2 dropped the sharded engine's ``parallel``/``max_workers``
#: params; :func:`upgrade_state` carries version-1 checkpoints forward.
STATE_VERSION = 2


def upgrade_state(state: dict) -> dict:
    """Bring a :meth:`StreamSampler.to_state` checkpoint to
    :data:`STATE_VERSION`.

    Every restore path runs this first, and each schema bump adds one
    explicit step here.  A checkpoint from a newer release raises a
    ``ValueError`` naming its version instead of misloading; a current
    one is returned as-is.
    """
    version = state.get("version", 1)
    if version == STATE_VERSION:
        return state
    if version > STATE_VERSION:
        raise ValueError(
            f"checkpoint version {version} is newer than this release, "
            f"which restores versions up to {STATE_VERSION}"
        )
    return _upgrade_v1(state)


def _upgrade_v1(node):
    """Version 1 -> 2 over a whole checkpoint tree.

    Drops ``parallel``/``max_workers`` wherever a sharded engine is
    described — its own checkpoint, engines nested as shards or tenants,
    and ``{"name", "params"}`` specs naming one — and stamps every nested
    checkpoint current.
    """
    if isinstance(node, list):
        return [_upgrade_v1(item) for item in node]
    if not isinstance(node, dict):
        return node
    out = {key: _upgrade_v1(value) for key, value in node.items()}
    if "sampler" in out and "state" in out:
        out["version"] = STATE_VERSION
    params = out.get("params")
    if "sharded" in (out.get("sampler"), out.get("name")) and isinstance(
        params, dict
    ):
        out["params"] = {
            name: value for name, value in params.items()
            if name not in ("parallel", "max_workers")
        }
    return out


class StreamSampler(abc.ABC):
    """Abstract base class for every streaming sampler and sketch.

    Subclasses implement :meth:`update` (and usually :meth:`sample`), plus
    the two state hooks ``_config()`` and ``_get_state()``/``_set_state()``
    that power :meth:`to_state`/:meth:`from_state`.  Everything else —
    batch ingestion, the estimator facade, pure merges, copying — comes for
    free from this base class.
    """

    #: Registry name, set by :func:`repro.api.registry.register_sampler`.
    sampler_name: ClassVar[str | None] = None
    #: Whether :meth:`merge` combines two instances over disjoint streams
    #: into a valid sketch of the concatenated stream.  Classes that
    #: implement ``merge`` declare this True; execution layers (the sharded
    #: engine) consult it to reject configurations they cannot reduce.
    mergeable: ClassVar[bool] = False
    #: The ``estimate()`` facade's default ``kind``.
    default_estimate_kind: ClassVar[str] = "total"
    #: Per-aggregate capability table for the declarative query layer —
    #: every :data:`QUERY_AGGREGATES` name maps to ``True`` (supported) or
    #: a reason string for the gap.  Declare with :func:`query_support`;
    #: the base default supports nothing.
    query_capabilities: ClassVar[Mapping[str, bool | str]] = {
        name: _NO_SAMPLE_REASON for name in QUERY_AGGREGATES
    }
    #: Whether this sampler's ``sample()`` carries genuine pseudo-inclusion
    #: probabilities, licensing the HT plug-in variance and the normal
    #: confidence intervals of ``query(..., ci=...)``.  Classes whose
    #: samples degenerate to probability-1 rows (pre-adjusted weights,
    #: deterministic counters) set a reason string instead, and the query
    #: layer refuses ``ci=`` requests with that reason.
    query_variance: ClassVar[bool | str] = True
    #: Whether ``query(..., window=/last=/decay=)`` can scope estimation
    #: by arrival time.  ``True`` requires ``sample()`` to attach a
    #: ``times`` column (the planner's time pass masks and discounts by
    #: it); samplers without a time notion keep the default reason string
    #: and the planner refuses time-scoped queries with it.
    query_windowed: ClassVar[bool | str] = _NO_TIME_REASON
    #: Whether :meth:`resize` can change the sketch budget ``k`` online
    #: while keeping the estimators unbiased (shrink folds the retained
    #: set under a lowered threshold; grow caps the threshold at its
    #: pre-resize value, which 1-substitutability makes sound).  Classes
    #: that implement ``resize`` declare this True; the serving control
    #: plane consults it before proposing ``k`` retunes.
    resizable: ClassVar[bool] = False
    #: The per-item columns ``update_many`` cannot run without, by keyword
    #: (``"times"``, ``"groups"``, ...): :meth:`check_columns` requires
    #: them, and the cluster's per-tenant admission refuses a block
    #: lacking one at the call, before it is logged or applied.
    required_columns: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs):
        """Auto-wrap subclass mutators so ``state_version`` tracks them."""
        super().__init_subclass__(**kwargs)
        for name in _VERSIONED_MUTATORS:
            fn = cls.__dict__.get(name)
            if callable(fn) and not getattr(fn, "_bumps_state_version", False):
                setattr(cls, name, _bumps_state_version(fn))

    # ------------------------------------------------------------------
    # Canonical stream interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def update(self, key, weight: float = 1.0, *, value=None, time=None):
        """Offer one item to the sampler.

        Parameters
        ----------
        key:
            Item identifier (any hashable object).
        weight:
            Sampling weight (ignored by unweighted samplers).
        value:
            Payload aggregated by subset-sum estimators; defaults to the
            weight.
        time:
            Arrival time, for time-aware samplers (sliding windows, decay).

        Returns
        -------
        bool or None
            ``True``/``False`` when the sampler can cheaply report whether
            the item is currently retained, ``None`` otherwise.
        """

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Offer a batch of items.

        The base implementation is a plain loop over :meth:`update`;
        samplers with a numpy fast path (bottom-k, Poisson, the distinct
        sketches) override it with genuinely vectorized bulk ingestion.
        Both paths consume randomness identically, so a given seed yields
        the same sample either way.
        """
        keys = _as_key_list(keys)
        n = len(keys)
        weights = _as_optional_array(weights, n, "weights")
        values = _as_optional_array(values, n, "values")
        times = _as_optional_array(times, n, "times")
        for i, key in enumerate(keys):
            self.update(
                key,
                1.0 if weights is None else float(weights[i]),
                value=None if values is None else float(values[i]),
                time=None if times is None else float(times[i]),
            )

    @classmethod
    def check_columns(cls, columns: Mapping) -> None:
        """Refuse a batch ``update_many`` would refuse whatever the state:
        ``columns`` maps keywords to columns (float arrays once coerced).

        Raises ``TypeError`` naming the first of :attr:`required_columns`
        that ``columns`` leaves out or maps to None.  Subclasses add their
        stateless block rules (``ValueError``: a weight out of range,
        times out of order within the block).  ``update_many`` runs this
        check before it counts or draws anything, and service admission
        runs it on every block, so a block the sampler would refuse is
        refused at the call, before it is logged or applied."""
        for name in cls.required_columns:
            if columns.get(name) is None:
                raise TypeError(
                    f"{cls.__name__}.update_many() requires a {name}= column"
                )

    def sample(self):
        """Finalize into a :class:`repro.core.sample.Sample`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not produce Sample containers"
        )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "StreamSampler") -> "StreamSampler":
        """Absorb ``other`` (a sampler over a disjoint stream) into ``self``.

        In-place; returns ``self`` so merges chain.  Use :func:`merged` or
        the ``|`` operator for the pure variant.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support merging"
        )

    def __or__(self, other: "StreamSampler") -> "StreamSampler":
        """Pure merge: ``a | b`` returns a new sampler, leaving both inputs
        untouched (equivalent to :func:`merged`)."""
        if not isinstance(other, StreamSampler):
            return NotImplemented
        return merged(self, other)

    # ------------------------------------------------------------------
    # Online resizing
    # ------------------------------------------------------------------
    def resize(self, k: int) -> "StreamSampler":
        """Change the sketch budget to ``k`` mid-stream, in place.

        Only classes declaring :attr:`resizable` implement this.  The
        contract: after ``resize``, estimates remain unbiased for the
        whole stream (prefix ingested before the resize included) —
        shrinking folds the retained set under the new, lower threshold;
        growing keeps admitting under the pre-resize threshold as a cap
        until the enlarged budget genuinely fills.  Returns ``self``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support online resizing"
        )

    # ------------------------------------------------------------------
    # Estimation facade
    # ------------------------------------------------------------------
    @classmethod
    def estimate_kinds(cls) -> tuple[str, ...]:
        """The ``kind`` values :meth:`estimate` accepts for this sampler."""
        kinds = []
        for name in dir(cls):
            if name.startswith("estimate_") and name != "estimate_kinds":
                if callable(getattr(cls, name)):
                    kinds.append(name[len("estimate_"):])
        return tuple(sorted(kinds))

    def estimate(self, kind: str | None = None, predicate=None, **kw):
        """Unified estimator facade.

        Dispatches ``estimate(kind="total", predicate=...)`` to the
        sampler's ``estimate_total(predicate=...)`` method and so on; with
        no arguments the sampler's natural estimator
        (:attr:`default_estimate_kind`) runs.  Extra keyword arguments are
        forwarded (e.g. ``estimate("count", key="x")`` on a top-k sampler).
        A ``kind`` outside :meth:`estimate_kinds` raises ``ValueError``.
        """
        if kind is None:
            kind = self.default_estimate_kind
        if not isinstance(kind, str) or kind not in self.estimate_kinds():
            raise ValueError(self._unknown_kind_message(kind))
        fn = getattr(self, f"estimate_{kind}")
        if predicate is not None:
            if "predicate" not in inspect.signature(fn).parameters:
                raise ValueError(
                    f"estimator kind {kind!r} of {type(self).__name__} does "
                    "not accept a predicate"
                )
            kw["predicate"] = predicate
        return fn(**kw)

    def _unknown_kind_message(self, kind) -> str:
        """Unknown-``kind`` diagnostics, derived from the live surfaces.

        Both listings come from single sources of truth — the scanned
        ``estimate_*`` methods and the declared capability table — never
        from hand-maintained strings, so the message cannot drift from
        what the sampler actually accepts (pinned by
        ``tests/query/test_capability_pinning.py``).
        """
        msg = (
            f"{type(self).__name__} has no estimator kind {kind!r}; "
            f"available kinds: {', '.join(self.estimate_kinds())}"
        )
        supported = self.supported_aggregates()
        if supported:
            msg += (
                "; declarative queries (.query()) support aggregates: "
                + ", ".join(supported)
            )
        return msg

    # ------------------------------------------------------------------
    # Declarative query layer
    # ------------------------------------------------------------------
    def supported_aggregates(self) -> tuple[str, ...]:
        """Aggregates :meth:`query` answers for this sampler.

        Reads :attr:`query_capabilities` on the instance, so execution
        layers that mirror a wrapped class's table (the sharded engine)
        report the wrapped capabilities.
        """
        return tuple(
            name
            for name in QUERY_AGGREGATES
            if self.query_capabilities.get(name) is True
        )

    def query_gap_reason(self, aggregate: str) -> str | None:
        """The declared reason ``aggregate`` is unsupported (None if it
        is supported)."""
        if aggregate not in QUERY_AGGREGATES:
            raise ValueError(
                f"unknown query aggregate {aggregate!r}; expected one of "
                + ", ".join(QUERY_AGGREGATES)
            )
        entry = self.query_capabilities.get(aggregate, _NO_SAMPLE_REASON)
        return None if entry is True else str(entry)

    @property
    def state_version(self) -> int:
        """Monotonic mutation counter (bumped by every update/merge/restore).

        Maintained automatically by the ``__init_subclass__`` mutator
        wrapping; the (version, fingerprint) pair keys the :meth:`query`
        result cache, so cached answers invalidate on any state change.
        """
        return self.__dict__.get("_state_version", 0)

    def query(self, query=None, /, **kw):
        """Answer a declarative :class:`repro.query.Query` over this sampler.

        Accepts a prebuilt :class:`~repro.query.Query`, an aggregate name
        plus keyword options, or the :class:`~repro.query.Query` keyword
        arguments directly::

            sampler.query("sum", where=lambda k: k % 2 == 0, ci=0.95)
            sampler.query(aggregate="mean", group_by=region_of)
            sampler.query(Query("distinct"))

        Results are cached per instance, keyed by ``(state_version,
        query.fingerprint())`` — repeated dashboard polls between updates
        are O(1), and any mutation invalidates the cache.  Execution is a
        single vectorized pass over :meth:`sample`'s arrays; see
        :mod:`repro.query` for planning, executors and variance plug-ins.
        """
        from ..query import Query
        from ..query.planner import execute

        if isinstance(query, Query):
            if kw:
                raise TypeError(
                    "pass either a Query object or keyword arguments, not both"
                )
            spec = query
        elif isinstance(query, str):
            spec = Query(aggregate=query, **kw)
        elif query is None:
            spec = Query(**kw)
        else:
            raise TypeError(
                "query() takes a Query, an aggregate name, or Query keyword "
                f"arguments; got {type(query).__name__}"
            )
        version = self.state_version
        cache = self.__dict__.setdefault("_query_cache", {})
        fp = spec.fingerprint()
        hit = cache.get(fp)
        if hit is not None and hit[0] == version:
            return hit[2]
        result = execute(self, spec)
        cache.pop(fp, None)
        while len(cache) >= _QUERY_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        # The entry retains the spec itself: callables fingerprint by
        # id(), so the cached spec must keep them alive — otherwise a
        # recycled id from a fresh lambda could false-hit a stale entry.
        cache[fp] = (version, spec, result)
        return result

    def snapshot_state(self) -> tuple[int, dict]:
        """Atomic ``(state_version, to_state())`` pair.

        The version hook for checkpoint writers (the serving runtime's
        :class:`~repro.serve.CheckpointStore`): capturing both in one
        call pins which mutation epoch a persisted checkpoint describes,
        so a recovered sampler can be correlated with the version-pinned
        query results (:attr:`repro.query.QueryResult.state_version`)
        that were served from it.
        """
        return self.state_version, self.to_state()

    def observe(self) -> dict:
        """Operational gauges describing the sampler's live state.

        The observability hook (:mod:`repro.obs`): a flat
        ``{name: float}`` map of whatever this sampler can report from
        the shared gauge vocabulary — ``state_version`` always;
        ``items_seen``, ``k``, ``fill`` (current retained sample size),
        and ``threshold`` (the inclusion bound tau, ``+Inf`` while a
        bottom-k structure is underfull) when the class exposes them.
        A read-only probe: it must never mutate state (it is
        deliberately *not* in the version-bumped mutator set) and never
        raise — subclasses overriding it should extend the dict, not
        replace the contract.
        """
        gauges = {"state_version": float(self.state_version)}
        for name in ("items_seen", "k", "threshold"):
            try:
                value = getattr(self, name)
            except AttributeError:
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                gauges[name] = float(value)
        try:
            gauges["fill"] = float(len(self))
        except TypeError:
            pass
        return gauges

    # ------------------------------------------------------------------
    # State serialization
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support: drop the query-result cache and its version.

        Cached specs may hold unpicklable callables, and a revived copy
        is a different instance whose cache must start cold anyway — the
        same contract as the :meth:`to_state` round-trip.
        """
        state = dict(self.__dict__)
        state.pop("_query_cache", None)
        state.pop("_state_version", None)
        return state

    def to_state(self) -> dict:
        """Serialize to a plain dict (constructor params + internal state).

        The result round-trips through :meth:`from_state` (or the
        polymorphic :func:`repro.api.registry.sampler_from_state`) and is
        picklable for cross-process shipping.
        """
        return {
            "sampler": self.sampler_name or type(self).__name__,
            "version": STATE_VERSION,
            "params": self._config(),
            "state": self._get_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamSampler":
        """Rebuild a sampler from :meth:`to_state` output (a checkpoint
        of an older version is upgraded first, see :func:`upgrade_state`)."""
        state = upgrade_state(state)
        obj = cls(**state["params"])
        obj._set_state(state["state"])
        return obj

    def copy(self) -> "StreamSampler":
        """An independent deep copy (via the state round-trip)."""
        return type(self).from_state(self.to_state())

    # Hooks for subclasses -----------------------------------------------
    def _config(self) -> dict:
        """Constructor keyword arguments reproducing this sampler's config."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state serialization"
        )

    def _get_state(self) -> dict:
        """Mutable internal state as a plain dict (default: stateless)."""
        return {}

    def _set_state(self, state: dict) -> None:
        """Restore internal state captured by :meth:`_get_state`."""
        if state:
            raise NotImplementedError(
                f"{type(self).__name__} does not implement state restoration"
            )


class PrioritySampler(StreamSampler):
    """A threshold sampler over per-item priorities ``R = F^{-1}(U | w)``.

    ``U`` is a draw from ``rng`` or, when ``coordinated``, a salted hash
    of the key, so sketches sharing a salt rank every key alike (§2.1,
    §2.9).  Subclasses pass ``family``, ``coordinated``, ``salt`` and
    ``rng`` to this constructor, draw through :meth:`_priority` and
    :meth:`_batch_priorities`, and put :meth:`_priority_config` last in
    their ``_config()``.

    Parameters
    ----------
    family:
        Priority family or its config name (``"inverse_weight"``,
        ``"exponential"``, ``"uniform"``); ``InverseWeightPriority`` by
        default.
    coordinated:
        Hash-based priorities (stable per key) instead of RNG draws.
    salt:
        Hash salt of the coordinated priorities.
    rng:
        Seed or generator for the drawn priorities (seed 0 by default).
    """

    def __init__(
        self,
        family: PriorityFamily | str | None = None,
        coordinated: bool = False,
        salt: int = 0,
        rng=None,
    ):
        family = family_from_name(family)
        self.family = family if family is not None else InverseWeightPriority()
        self.coordinated = bool(coordinated)
        self.salt = int(salt)
        self.rng = as_generator(rng if rng is not None else 0)

    @classmethod
    def check_columns(cls, columns: Mapping) -> None:
        """Also refuse a negative or NaN weight; a zero weight is allowed
        (its priority is +inf, so the item is never sampled)."""
        super().check_columns(columns)
        if not _column_min(columns, "weights") >= 0:
            raise ValueError("weights must be non-negative")

    def _priority(self, key: object, weight: float) -> float:
        """The priority of one item; a negative or NaN weight raises
        ``ValueError`` before anything is drawn."""
        if not weight >= 0:
            raise ValueError("weights must be non-negative")
        if self.coordinated:
            u = hash_to_unit(key, self.salt)
        else:
            u = float(self.rng.random())
        return float(self.family.inverse_cdf(u, weight))

    def _batch_priorities(self, keys, weights: np.ndarray | None) -> np.ndarray:
        """The priorities of a batch (unit weights when ``weights`` is
        None), bit-equal to ``len(keys)`` :meth:`_priority` calls, which
        advance the generator just as far."""
        u = (batch_hash_to_unit(keys, self.salt) if self.coordinated
             else self.rng.random(len(keys)))
        return np.asarray(
            self.family.inverse_cdf(u, 1.0 if weights is None else weights),
            dtype=float,
        )

    def _priority_config(self) -> dict:
        """The draw's constructor arguments, as ``_config()`` writes them."""
        return {
            "family": family_to_name(self.family),
            "coordinated": self.coordinated,
            "salt": self.salt,
        }

    def estimate_total(
        self, predicate: Callable[[object], bool] | None = None
    ) -> float:
        """HT estimate of the (subset) sum of item values."""
        sample = self.sample()
        if predicate is not None:
            sample = sample.select(predicate)
        return sample.ht_total()


def merged(a: StreamSampler, b: StreamSampler) -> StreamSampler:
    """Pure merge: combine two samplers without mutating either input.

    Equivalent to ``a.copy().merge(b)`` — the protocol-level
    :meth:`StreamSampler.merge` is in-place, so this helper (also spelled
    ``a | b``) is the functional form for reduce-style pipelines that must
    keep their inputs intact.
    """
    return a.copy().merge(b)


# ----------------------------------------------------------------------
# Shared coercion helpers for update_many implementations
# ----------------------------------------------------------------------
def _as_key_list(keys) -> list:
    """Coerce a key batch to a plain list (numpy scalars become python)."""
    if isinstance(keys, np.ndarray):
        return keys.tolist()
    return list(keys)


def _as_key_batch(keys):
    """A key batch as an ndarray (kept whole, so only the positions a
    sampler keeps are ever converted) or a plain list."""
    return keys if isinstance(keys, np.ndarray) else list(keys)


def _column_min(columns: Mapping, name: str) -> float:
    """The smallest value of column ``name`` in one vectorized pass: NaN
    when the column holds a NaN, +inf when it is absent or empty."""
    column = columns.get(name)
    if column is None or not len(column):
        return np.inf
    # argmin takes the first NaN for the smallest, and on a small array it
    # costs a third of min().
    column = np.asarray(column)
    return column[column.argmin()]


def _as_optional_array(arr, n: int, name: str) -> np.ndarray | None:
    """Coerce an optional per-item column to a float array of length n."""
    if arr is None:
        return None
    out = np.asarray(arr, dtype=float)
    if out.size != n:
        raise ValueError(f"{name} must have the same length as keys")
    return out
