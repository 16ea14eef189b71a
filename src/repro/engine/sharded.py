"""Sharded ingestion with merge-tree reduction.

The execution layer that turns the paper's central property — adaptive
threshold samples stay mergeable, with unbiased estimation surviving
arbitrary composition (Ting, SIGMOD 2022, §3.5) — into horizontal
scale-out.  A :class:`ShardedSampler` hash-partitions the key space across
``n_shards`` independent sampler instances built from a registry
:class:`~repro.api.SamplerSpec`, ingests each partition through the
shard's vectorized ``update_many`` kernel, and reduces the shards through
a deterministic binary merge tree of pure ``a | b`` unions whenever a
query arrives.

Soundness rests on two invariants:

* **Key-disjoint partitions.**  :func:`repro.core.hashing.shard_of` sends
  every occurrence of a key to the same shard, so shard sub-streams are
  key-disjoint and the per-class ``merge`` rules for disjoint streams
  apply.  The partition hash is domain-separated from the priority hashes,
  so coordinated sketches see unbiased priority distributions per shard.
* **Mergeability is declared, not assumed.**  Only sampler classes that
  set ``mergeable = True`` (bottom-k, Poisson, the distinct sketches, KMV,
  Theta — and the engine itself) can be sharded; anything else is rejected
  at construction with the list of valid names.

The engine speaks the full :class:`~repro.api.StreamSampler` protocol —
``update``/``update_many``/``sample``/``estimate``/``to_state``/
``from_state``/``merge`` — and registers itself as ``"sharded"``, so a
sharded sampler is itself a composable, checkpointable sampler: engines
over disjoint traffic slices merge shard-wise, and ``sampler_from_state``
revives a full engine (per-shard RNG streams included) bit-exactly.
"""

from __future__ import annotations

import inspect
from typing import Any, ClassVar

import numpy as np

from ..api import SamplerSpec, StreamSampler, get_sampler_class, register_sampler
from ..api.protocol import QUERY_AGGREGATES
from ..api.registry import sampler_from_state
from ..core.hashing import batch_shard_indices, shard_of

__all__ = ["ShardedSampler", "mergeable_samplers"]

#: Domain tag mixed into the root seed so per-shard RNG streams are
#: disjoint from any other stream derived from the same user seed.
_ENGINE_SEED_DOMAIN = 0x454E47494E45  # ASCII "ENGINE"


def mergeable_samplers() -> tuple[str, ...]:
    """Registry names whose classes declare ``mergeable = True``."""
    from ..api.registry import available_samplers

    return tuple(
        name
        for name in available_samplers()
        if get_sampler_class(name).mergeable
    )


def _take(column, positions: np.ndarray):
    """Select the rows of one per-item column for one shard."""
    if isinstance(column, np.ndarray):
        return column[positions]
    return [column[i] for i in positions]


@register_sampler("sharded")
class ShardedSampler(StreamSampler):
    """Hash-partitioned fan-out over ``n_shards`` mergeable samplers.

    Parameters
    ----------
    spec:
        The per-shard sampler configuration: a :class:`SamplerSpec`, its
        dict form ``{"name": ..., "params": {...}}``, or a bare registry
        name.  The named class must declare ``mergeable = True``.
    n_shards:
        Number of independent sampler instances to partition keys across.
    seed:
        Root seed for the per-shard RNG streams.  When the shard class
        takes an ``rng`` argument (and the spec does not pin one), each
        shard receives an independent generator spawned from
        ``SeedSequence([seed, shard_index domain])`` — the whole engine is
        reproducible from ``(spec, n_shards, salt, seed)``.
    salt:
        Partition-hash salt.  Engines that must agree on key routing (e.g.
        to merge shard-wise) must share it; it is domain-separated from
        sampler priority salts, so reusing the same integer is safe.

    Examples
    --------
    >>> engine = ShardedSampler({"name": "bottom_k", "params": {"k": 64}},
    ...                         n_shards=4, seed=7)
    >>> engine.update_many(range(10_000))
    >>> 0 < engine.estimate("distinct") < 20_000
    True
    """

    mergeable = True
    #: Class-level placeholder: each engine *instance* mirrors its shard
    #: class's capability table (set in ``__init__``), so queries against
    #: an engine behave exactly like queries against the wrapped sampler —
    #: executed over the merge-tree-reduced sample.
    query_capabilities = {
        name: (
            "per-spec: engine instances mirror the sharded class's "
            "capability table"
        )
        for name in QUERY_AGGREGATES
    }
    query_variance = (
        "per-spec: engine instances mirror the sharded class's variance "
        "declaration"
    )
    query_windowed = (
        "per-spec: engine instances mirror the sharded class's windowed "
        "declaration"
    )

    #: The class every shard is an instance of; the estimator-facade
    #: attributes (``default_estimate_kind``, ``estimate_kinds``) are
    #: mirrored from it onto each engine instance.
    _shard_cls: type

    def __init__(
        self,
        spec: SamplerSpec | dict | str,
        n_shards: int = 4,
        *,
        seed: int = 0,
        salt: int = 0,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be a positive integer")
        self.spec = SamplerSpec.of(spec)
        self.n_shards = int(n_shards)
        self.seed = int(seed)
        self.salt = int(salt)

        self._shard_cls = get_sampler_class(self.spec.name)
        if not self._shard_cls.mergeable:
            raise ValueError(
                f"sampler {self.spec.name!r} ({self._shard_cls.__name__}) is "
                "not mergeable and cannot be sharded; mergeable samplers: "
                + ", ".join(mergeable_samplers())
            )
        # Estimator-facade introspection follows the shard class.  Set as
        # instance attributes (shadowing the protocol ClassVars and the
        # estimate_kinds classmethod) so class-level access on
        # ShardedSampler itself still yields the protocol defaults instead
        # of property objects or unbound methods.
        self.default_estimate_kind = self._shard_cls.default_estimate_kind
        self.estimate_kinds = self._shard_cls.estimate_kinds
        # The declarative query surface mirrors the shard class too:
        # planning reads these instance attributes, and execution runs
        # over reduced().sample(), so sharded answers match (bit-exactly,
        # for the hash-coordinated sketches) the single-instance answers.
        self.query_capabilities = dict(self._shard_cls.query_capabilities)
        self.query_variance = self._shard_cls.query_variance
        self.query_windowed = self._shard_cls.query_windowed
        self.resizable = self._shard_cls.resizable
        # So does block admission: a service refuses a block any shard
        # would refuse, at the call.
        self.required_columns = self._shard_cls.required_columns
        self.check_columns = self._shard_cls.check_columns
        self._shards = [self._build_shard(i) for i in range(self.n_shards)]
        self._reduced_cache: StreamSampler | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_shard(self, index: int) -> StreamSampler:
        params = dict(self.spec.params)
        init_params = inspect.signature(self._shard_cls.__init__).parameters
        seq = np.random.SeedSequence([self.seed, _ENGINE_SEED_DOMAIN, index])
        if "rng" in init_params and "rng" not in params:
            params["rng"] = np.random.default_rng(seq)
        elif "seed" in init_params and "seed" not in params:
            # Nested engines fan the root seed out the same way, so the
            # leaves of an engine-of-engines get pairwise-independent RNG
            # streams instead of every inner engine repeating seed 0.
            params["seed"] = int(seq.generate_state(1)[0])
        return self._shard_cls(**params)

    @property
    def shards(self) -> tuple[StreamSampler, ...]:
        """Read-only view of the per-shard sampler instances."""
        return tuple(self._shards)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._reduced_cache = None

    def update(self, key, weight: float = 1.0, *, value=None, time=None):
        """Route one item to its shard (returns the shard's verdict)."""
        self._invalidate()
        shard = self._shards[shard_of(key, self.n_shards, self.salt)]
        return shard.update(key, weight, value=value, time=time)

    def partition_batch(self, keys, weights=None, values=None, times=None,
                        **columns) -> list[tuple[int, dict]]:
        """Partition a batch into per-shard ``update_many`` sub-batches.

        Returns ``(shard_index, columns)`` pairs for every non-empty
        shard, stream order preserved within each.  The partition is
        computed vectorized for integer key arrays and is exactly the
        split :meth:`update_many` dispatches (the serving runtime's
        flushes go through ``update_many`` and therefore through this
        routing); it is public so custom dispatchers can reuse the
        split without re-deriving the hash.
        """
        if not isinstance(keys, np.ndarray):
            keys = list(keys)
        n = len(keys)
        if n == 0:
            return []
        columns = {
            "weights": weights, "values": values, "times": times, **columns,
        }
        columns = {
            name: column
            if isinstance(column, (np.ndarray, list, tuple))
            else list(column)
            for name, column in columns.items()
            if column is not None
        }
        for name, column in columns.items():
            if len(column) != n:
                raise ValueError(f"{name} must have the same length as keys")
        idx = batch_shard_indices(keys, self.n_shards, self.salt)
        work: list[tuple[int, dict]] = []
        for s in range(self.n_shards):
            positions = np.flatnonzero(idx == s)
            if positions.size == 0:
                continue
            shard_cols: dict[str, Any] = {"keys": _take(keys, positions)}
            for name, column in columns.items():
                shard_cols[name] = _take(column, positions)
            work.append((s, shard_cols))
        return work

    def update_many(self, keys, weights=None, values=None, times=None,
                    **columns) -> None:
        """Partition a batch by key hash and bulk-ingest every shard.

        The partition comes from :meth:`partition_batch`; each shard then
        receives its sub-batch through the shard's own vectorized
        ``update_many``.  Extra keyword columns (per-item sequences) are
        partitioned alongside and forwarded.
        """
        work = self.partition_batch(
            keys, weights=weights, values=values, times=times, **columns
        )
        if not work:
            return
        self._invalidate()
        for s, cols in work:
            self._shards[s].update_many(**cols)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def reduced(self) -> StreamSampler:
        """The shards reduced to one sampler via a binary merge tree.

        Pure ``a | b`` merges pair adjacent shards level by level —
        ``((s0|s1)|(s2|s3))`` for four shards — leaving the shard states
        untouched, so ingestion can continue after a query.  The tree shape
        is fixed by shard index, hence deterministic; the result is cached
        until the next update invalidates it.  Treat the returned sampler
        as read-only (it is the cache itself, not a copy).
        """
        if self._reduced_cache is None:
            layer = self._shards
            if len(layer) == 1:
                self._reduced_cache = layer[0].copy()
            else:
                while len(layer) > 1:
                    merged_layer = [
                        layer[i] | layer[i + 1]
                        for i in range(0, len(layer) - 1, 2)
                    ]
                    if len(layer) % 2:
                        merged_layer.append(layer[-1])
                    layer = merged_layer
                self._reduced_cache = layer[0]
        return self._reduced_cache

    def sample(self):
        """Finalized sample of the merged shards (same contract as the
        underlying sampler's ``sample``)."""
        return self.reduced().sample()

    def __len__(self) -> int:
        return len(self.sample())

    # ------------------------------------------------------------------
    # Estimation facade (delegated to the reduced sampler)
    # ------------------------------------------------------------------
    def estimate(self, kind: str | None = None, predicate=None, **kw):
        """Run the shard class's estimator facade on the merged state."""
        return self.reduced().estimate(kind, predicate=predicate, **kw)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "ShardedSampler") -> "ShardedSampler":
        """Absorb another engine over a disjoint stream, shard-wise.

        Valid when both engines share the same spec, shard count, and
        partition salt: identical routing means shard ``i`` of both engines
        holds key-disjoint sub-streams of the same key slice, so the
        per-shard disjoint-stream merge applies.  In-place; returns self.
        """
        if not isinstance(other, ShardedSampler):
            raise TypeError("can only merge with another ShardedSampler")
        for attr in ("spec", "n_shards", "salt"):
            if getattr(self, attr) != getattr(other, attr):
                raise ValueError(
                    "cannot merge sharded engines with different "
                    f"{attr}: {getattr(self, attr)!r} != "
                    f"{getattr(other, attr)!r}"
                )
        self._invalidate()
        for mine, theirs in zip(self._shards, other._shards):
            mine.merge(theirs)
        return self

    # ------------------------------------------------------------------
    # Online resizing
    # ------------------------------------------------------------------
    def resize(self, k: int) -> "ShardedSampler":
        """Resize every shard's budget to ``k`` (per shard, so the engine
        retains about ``n_shards * k`` entries total).

        Delegates to the shard class's :meth:`resize` — the per-shard
        fold/cap semantics carry over unchanged because shards hold
        key-disjoint sub-streams.  The spec is updated so serialization
        round-trips the new budget.
        """
        if not self.resizable:
            raise NotImplementedError(
                f"sampler {self.spec.name!r} does not support online "
                "resizing"
            )
        for shard in self._shards:
            shard.resize(k)
        self.spec = SamplerSpec(
            self.spec.name, {**self.spec.params, "k": int(k)}
        )
        self._invalidate()
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "n_shards": self.n_shards,
            "seed": self.seed,
            "salt": self.salt,
        }

    def _get_state(self) -> dict:
        return {"shards": [shard.to_state() for shard in self._shards]}

    def _set_state(self, state: dict) -> None:
        shards = state["shards"]
        if len(shards) != self.n_shards:
            raise ValueError(
                f"checkpoint has {len(shards)} shards, engine expects "
                f"{self.n_shards}"
            )
        self._shards = [sampler_from_state(s) for s in shards]
        self._invalidate()
