"""Multi-instance execution layer: sharded ingestion.

:class:`ShardedSampler` (registered as ``"sharded"``) hash-partitions a
stream across N mergeable sampler instances and reduces them through a
binary merge tree — see :mod:`repro.engine.sharded`.
"""

from .sharded import ShardedSampler, mergeable_samplers

__all__ = ["ShardedSampler", "mergeable_samplers"]
