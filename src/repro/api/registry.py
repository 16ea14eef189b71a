"""Sampler registry and config-driven factory.

Deployments construct samplers from configuration rather than code: a
config names a registered sampler ("bottom_k", "sliding_window", ...) plus
its keyword parameters, and :func:`make_sampler` (or a
:class:`SamplerSpec`) builds it.  Checkpoint dicts produced by
``StreamSampler.to_state`` carry the same name, so
:func:`sampler_from_state` can revive a sampler without knowing its class.

Every stream sampler in :mod:`repro.samplers` and every baseline sketch
in :mod:`repro.baselines` registers itself with the
:func:`register_sampler` class decorator at import time.  Only
:class:`~repro.api.StreamSampler` subclasses register; the offline
designs (CPS, the AQP layouts) are built by their constructors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .protocol import StreamSampler

__all__ = [
    "register_sampler",
    "make_sampler",
    "get_sampler_class",
    "available_samplers",
    "sampler_from_state",
    "SamplerSpec",
]

_REGISTRY: dict[str, type] = {}


def register_sampler(name: str):
    """Class decorator registering a sampler under a config name.

    Sets ``cls.sampler_name`` (used by ``to_state``) and makes the class
    constructible via :func:`make_sampler` and :class:`SamplerSpec`.
    Raises ``TypeError`` for a class that is not a :class:`StreamSampler`.
    """

    def decorator(cls):
        if not (isinstance(cls, type) and issubclass(cls, StreamSampler)):
            raise TypeError(
                f"cannot register {name!r}: {cls!r} is not a StreamSampler "
                "subclass"
            )
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"sampler name {name!r} already registered to "
                f"{existing.__name__}"
            )
        _REGISTRY[name] = cls
        cls.sampler_name = name
        return cls

    return decorator


@functools.cache
def _ensure_registered() -> None:
    """Import the sampler packages so their decorators have run — once:
    a repeated import statement costs microseconds, and the cluster looks
    a tenant's class up for every block it admits."""
    from .. import baselines, engine, samplers  # noqa: F401  (import side effect)


def get_sampler_class(name: str) -> type:
    """Return the class registered under ``name``."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sampler {name!r}; available: "
            + ", ".join(available_samplers())
        ) from None


def available_samplers() -> tuple[str, ...]:
    """Names of every registered sampler, sorted."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def make_sampler(name: str, **params):
    """Build a registered sampler from its config name.

    >>> sampler = make_sampler("bottom_k", k=100)
    >>> sampler.update("item", weight=2.0)
    True
    """
    return get_sampler_class(name)(**params)


def sampler_from_state(state: dict):
    """Revive any registered sampler from a ``to_state`` checkpoint dict."""
    return get_sampler_class(state["sampler"]).from_state(state)


@dataclass(frozen=True)
class SamplerSpec:
    """A declarative sampler configuration (name + constructor params).

    The dataclass is what config files deserialize into; ``build()`` turns
    it into a live sampler.

    >>> spec = SamplerSpec("bottom_k", {"k": 64})
    >>> type(spec.build()).__name__
    'BottomKSampler'
    """

    name: str
    params: dict = field(default_factory=dict)

    def build(self):
        """Instantiate the configured sampler."""
        return make_sampler(self.name, **self.params)

    def as_dict(self) -> dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, spec: dict) -> "SamplerSpec":
        """Build a spec from ``{"name": ..., "params": {...}}``.

        Raises ``ValueError`` when ``name`` is missing or not a string and
        ``TypeError`` when ``params`` is given but is not a dict.
        """
        name = spec.get("name")
        if not isinstance(name, str):
            raise ValueError(
                f"a sampler spec needs a str 'name'; got {name!r}"
            )
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise TypeError(
                "a sampler spec's 'params' must be a dict; got "
                f"{type(params).__name__}"
            )
        return cls(name=name, params=dict(params))

    @classmethod
    def of(cls, spec: "SamplerSpec | dict | str") -> "SamplerSpec":
        """A spec from a spec, its dict form or a bare registry name."""
        if isinstance(spec, SamplerSpec):
            return spec
        if isinstance(spec, str):
            return cls(spec)
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        raise TypeError(
            "spec must be a SamplerSpec, a {'name': ..., 'params': ...} "
            f"dict, or a registry name; got {type(spec).__name__}"
        )
