"""Reproducible random-number fan-out.

Every stochastic component in this library draws randomness from a
:class:`numpy.random.Generator`.  Experiments need many *independent* streams
(one per trial, per sampler, per workload) that remain reproducible when
components are added or reordered.  This module provides a tiny layer over
:class:`numpy.random.SeedSequence` that names each child stream.

Example
-------
>>> root = RngFactory(seed=7)
>>> a = root.generator("workload")
>>> b = root.generator("sampler", 3)
>>> float(a.random()) != float(b.random())
True
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RngFactory", "spawn_generators", "as_generator"]


def _token_to_int(token: object) -> int:
    """Map an arbitrary hashable token to a stable 32-bit integer.

    Python's built-in ``hash`` is salted per process for strings, so we use
    CRC32 of the repr for stability across runs.
    """
    if isinstance(token, (int, np.integer)):
        return int(token) & 0xFFFFFFFF
    return zlib.crc32(repr(token).encode("utf-8"))


class RngFactory:
    """Create named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed.  Two factories built with the same seed produce identical
        streams for identical names.
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The root seed this factory was created with."""
        return self._seed

    def generator(self, *tokens: object) -> np.random.Generator:
        """Return a generator keyed by ``tokens``.

        The same ``(seed, tokens)`` pair always yields the same stream, and
        distinct token tuples yield (statistically) independent streams.
        """
        entropy = [self._seed] + [_token_to_int(t) for t in tokens]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def child(self, *tokens: object) -> "RngFactory":
        """Return a sub-factory whose streams are disjoint from this one's."""
        mixed = zlib.crc32(
            repr((self._seed,) + tokens).encode("utf-8")
        )
        return RngFactory(seed=mixed)


def spawn_generators(seed: int, n: int) -> list[np.random.Generator]:
    """Return ``n`` independent generators derived from ``seed``."""
    seq = np.random.SeedSequence(int(seed))
    return [np.random.default_rng(s) for s in seq.spawn(int(n))]


def as_generator(
    rng: np.random.Generator | int | None,
) -> np.random.Generator:
    """Coerce ``rng`` into a generator.

    ``None`` yields a fresh nondeterministic generator; an int is used as a
    seed; a generator passes through unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"cannot interpret {type(rng).__name__} as a Generator")
