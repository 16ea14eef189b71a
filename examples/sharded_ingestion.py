"""Scaling out with the sharded ingestion engine.

A :class:`repro.ShardedSampler` hash-partitions a stream across N
independent sampler instances (built from a registry spec), ingests each
partition through the shard's vectorized batch kernel, and answers queries
by reducing the shards through a binary merge tree of pure ``a | b``
unions.  Because adaptive threshold samples
stay mergeable (Ting, SIGMOD 2022, §3.5), the reduced sample estimates
exactly what a single giant sampler would.

The demo ingests one million weighted events, compares the sharded HT
estimate against ground truth and against a single-instance sampler,
checkpoints the whole engine mid-stream, and resumes it bit-exactly.

Run:  PYTHONPATH=src python examples/sharded_ingestion.py
"""

import numpy as np

import repro

N, UNIVERSE, SHARDS = 1_000_000, 50_000, 4

rng = np.random.default_rng(7)
keys = rng.integers(0, UNIVERSE, N)
weights = rng.lognormal(0.0, 0.8, N)

# One engine, four bottom-k shards, reproducible from (spec, seed).
spec = {"name": "bottom_k", "params": {"k": 512}}
engine = repro.ShardedSampler(spec, n_shards=SHARDS, seed=42)
engine.update_many(keys, weights)

truth = weights.sum()
estimate = engine.estimate("total")
print(f"ground-truth total      : {truth:,.0f}")
print(f"sharded HT estimate     : {estimate:,.0f} "
      f"({(estimate - truth) / truth:+.2%} error, "
      f"{len(engine)} of {N:,} items retained)")

single = repro.make_sampler(spec["name"], **spec["params"])
single.update_many(keys, weights)
print(f"single-instance estimate: {single.estimate('total'):,.0f} "
      "(same estimator, no sharding)")

# Shard routing is deterministic: every occurrence of a key lands on the
# same shard, so shard sub-streams are key-disjoint and merges are sound.
sizes = [shard.sample().population_size for shard in engine.shards]
print(f"per-shard arrivals      : {sizes} (sum {sum(sizes):,})")

# Checkpoint the WHOLE engine mid-stream and resume bit-exactly.
half = N // 2
resumed = repro.ShardedSampler(spec, n_shards=SHARDS, seed=42)
resumed.update_many(keys[:half], weights[:half])
state = resumed.to_state()  # plain dict: every shard + its RNG stream
resumed = repro.sampler_from_state(state)
resumed.update_many(keys[half:], weights[half:])
match = resumed.estimate("total") == estimate
print(f"resumed estimate matches uninterrupted run: {match}")

# Engines over disjoint traffic slices merge shard-wise (same spec/salt).
east = repro.ShardedSampler(spec, n_shards=SHARDS, seed=1)
west = repro.ShardedSampler(spec, n_shards=SHARDS, seed=2)
east.update_many(keys[:half], weights[:half])
west.update_many(keys[half:], weights[half:])
union = east | west
print(f"east|west merged estimate: {union.estimate('total'):,.0f} "
      f"(pure merge; inputs untouched)")
