"""Unified sampler API: protocol, registry/factory, and serialization.

See :mod:`repro.api.protocol` for the :class:`StreamSampler` contract and
:mod:`repro.api.registry` for config-driven construction
(``make_sampler``/``SamplerSpec``) and checkpoint revival
(``sampler_from_state``).
"""

from .protocol import (
    QUERY_AGGREGATES,
    PrioritySampler,
    StreamSampler,
    family_from_name,
    family_to_name,
    merged,
    query_support,
    rng_from_state,
    rng_to_state,
)
from .registry import (
    SamplerSpec,
    available_samplers,
    get_sampler_class,
    make_sampler,
    register_sampler,
    sampler_from_state,
)

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
    "register_sampler",
    "make_sampler",
    "get_sampler_class",
    "available_samplers",
    "sampler_from_state",
    "SamplerSpec",
]
