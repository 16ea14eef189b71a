"""Stable hashing of item keys to uniform (0, 1) priorities.

Coordinated sampling (Sections 2.9, 3.4–3.8 of the paper) requires that the
*same* item receive the *same* priority in every sketch that observes it.
That is achieved by deriving the priority from a hash of the item's key
rather than from a per-sketch RNG.  This module provides:

* :func:`splitmix64` — the SplitMix64 finalizer, as scalar and vectorized
  numpy implementations.  Fast, high-quality avalanche, stable across runs.
* :func:`hash_key` — 64-bit hash of an arbitrary key (ints take the fast
  SplitMix path; strings/bytes go through BLAKE2b).
* :func:`hash_to_unit` / :func:`hash_array_to_unit` — map keys into the open
  unit interval (0, 1), suitable for use as Uniform(0, 1) priorities.
* :func:`batch_hash_to_unit` / :func:`batch_hash_bounds` — the same for any
  key batch, exactly or as cheap lower bounds with exact values on demand.
* :func:`shard_of` / :func:`batch_shard_indices` — hash routes of keys to
  shards, in a hash domain of their own.

All functions accept a ``salt`` so that independent replications can be built
from the same keys (Figure 4's Monte-Carlo trials use one salt per trial).

**The vectorized kernel.**  Every array path — :func:`splitmix64_array`,
:func:`hash_array_to_unit`, :func:`batch_shard_indices` and
:func:`batch_hash_bounds` — runs one private kernel: it XORs the mixed salt
into a single uint64 copy of the keys (for 8-byte integer keys the XOR *is*
the copy) and runs the SplitMix64 rounds in place, with one scratch buffer
for the shifted terms.  No other full-size temporary is made; the unit map
writes its floats into that scratch buffer.

**The unit map** is ``h * 2**-64 + 2**-65`` with ``float(h)`` correctly
rounded, which is what the scalar path computes.  numpy's uint64 -> float64
cast is an order of magnitude slower than its int64 one, so the array path
builds ``float(h)`` from the two 32-bit halves: ``hi * 2**32`` and ``lo``
are exact doubles, and their sum rounds once from the exact value ``h`` —
so it *is* the correctly rounded ``float(h)``, bit for bit.

**Shard routes** take ``h & (n_shards - 1)`` when ``n_shards`` is a power
of two (the same value as ``h % n_shards``) and the modulo otherwise.

**Key batches.**  A 1-D integer (or bool) array takes the kernel; any other
batch is hashed key by key through the scalar functions — an ndarray
through its ``.tolist()`` values, so a float64 or bool array hashes like
the Python floats and bools the scalar path is given.
"""

from __future__ import annotations

import hashlib
import struct
import sys

import numpy as np

__all__ = [
    "splitmix64",
    "splitmix64_array",
    "hash_key",
    "hash_to_unit",
    "hash_array_to_unit",
    "batch_hash_to_unit",
    "batch_hash_bounds",
    "shard_of",
    "batch_shard_indices",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
# SplitMix64 constants (Steele, Lea & Flood 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# 2**-64, multiplied in to land in [0, 1); we nudge zero away from 0.
_INV_2_64 = float(2.0**-64)
_HALF_ULP = float(2.0**-65)
# Index of the high 32-bit half within a uint64 viewed as two uint32s.
_HI = 1 if sys.byteorder == "little" else 0


def splitmix64(x: int) -> int:
    """Scalar SplitMix64 finalizer: mix ``x`` into a 64-bit hash."""
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_salted(keys: np.ndarray,
                       mixed_salt: int) -> tuple[np.ndarray, np.ndarray]:
    """SplitMix64 of ``keys ^ mixed_salt``, computed in place in one
    C-ordered uint64 copy of ``keys``.

    Returns the hashes and the scratch buffer the rounds shifted into
    (same shape, contents undefined), which a caller may reuse.
    """
    if keys.dtype.kind in "iu" and keys.dtype.itemsize == 8:
        x = np.empty(keys.shape, dtype=np.uint64)
        np.bitwise_xor(keys.view(np.uint64), np.uint64(mixed_salt), out=x)
    else:
        x = keys.astype(np.uint64, order="C")
        x ^= np.uint64(mixed_salt)
    scratch = np.empty_like(x)
    x += np.uint64(_GAMMA)
    for shift, factor in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(x, np.uint64(shift), out=scratch)
        x ^= scratch
        x *= np.uint64(factor)
    np.right_shift(x, np.uint64(31), out=scratch)
    x ^= scratch
    return x, scratch


def _unit_array(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The unit map ``float(h) * 2**-64 + 2**-65`` of C-ordered uint64
    hashes, into ``out`` (a float64 array of ``h``'s shape that does not
    overlap it) or a new array; ``float(h)`` is ``hi * 2**32 + lo`` (see
    the module docstring)."""
    out = np.empty(h.shape) if out is None else out
    halves = h.reshape(-1).view(np.uint32)
    flat = out.reshape(-1)
    np.multiply(halves[_HI::2], 2.0**32, out=flat)
    flat += halves[1 - _HI::2]
    flat *= _INV_2_64
    flat += _HALF_ULP
    return out


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 over an array of (unsigned) 64-bit ints.

    The input is never modified: the result is a new uint64 array."""
    return _splitmix64_salted(np.asarray(x), 0)[0]


def hash_key(key: object, salt: int = 0) -> int:
    """Return a stable 64-bit hash of ``key`` under ``salt``.

    Integers (and numpy integers) are mixed directly with SplitMix64, which
    is what the vectorized path uses, so ``hash_key(5, s)`` equals
    ``hash_array_to_unit`` on the same input.  Other keys are serialized and
    hashed with BLAKE2b, which is stable across processes and platforms.
    """
    if isinstance(key, (int, np.integer)):
        return splitmix64((int(key) ^ splitmix64(salt)) & _MASK64)
    if isinstance(key, bytes):
        payload = key
    elif isinstance(key, str):
        payload = key.encode("utf-8")
    else:
        payload = repr(key).encode("utf-8")
    digest = hashlib.blake2b(
        payload, digest_size=8, salt=struct.pack("<q", salt & 0x7FFFFFFFFFFFFFFF)[:8]
    ).digest()
    return struct.unpack("<Q", digest)[0]


def _unit_from_u64(h: int) -> float:
    """Map a 64-bit hash to the open interval (0, 1)."""
    return h * _INV_2_64 + _HALF_ULP


def hash_to_unit(key: object, salt: int = 0) -> float:
    """Hash ``key`` to a deterministic Uniform(0, 1) variate.

    The output is in the *open* interval, so it is always a valid priority
    (a zero priority would have pseudo-inclusion probability zero and break
    HT estimation).
    """
    return _unit_from_u64(hash_key(key, salt))


def hash_array_to_unit(keys: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorized :func:`hash_to_unit` for integer key arrays.

    Parameters
    ----------
    keys:
        Array of integer keys (any integer dtype).
    salt:
        Replication salt; different salts give independent hash functions.
    """
    keys = np.asarray(keys)
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError("hash_array_to_unit requires an integer key array")
    return _units(keys, salt)


def _units(keys: np.ndarray, salt: int) -> np.ndarray:
    """:func:`hash_to_unit` of integer (or bool) ``keys``, vectorized: the
    kernel, then the unit map into its scratch buffer."""
    h, scratch = _splitmix64_salted(keys, splitmix64(salt))
    return _unit_array(h, out=scratch.view(np.float64))


def _int_batch(keys) -> np.ndarray | None:
    """``keys`` as a 1-D integer or bool array — the vectorized route —
    or None.  1-D only: equal-length numeric tuple keys coerce to a 2-D
    integer array, but each tuple is *one* key and must hash as a whole
    (the scalar path serializes it), not element-wise."""
    if isinstance(keys, np.ndarray):
        arr = keys
    else:
        try:
            arr = np.asarray(keys)
        except (TypeError, ValueError):
            return None
    return arr if arr.ndim == 1 and arr.dtype.kind in "iub" else None


def _scalar_keys(keys):
    """A batch as the keys the scalar functions see: an ndarray's
    ``.tolist()`` values (Python floats, bools, ...), other batches as
    given."""
    return keys.tolist() if isinstance(keys, np.ndarray) else keys


def batch_hash_to_unit(keys, salt: int = 0) -> np.ndarray:
    """Coordinated hash priorities for an arbitrary key batch.

    The shared fast path of every ``update_many`` implementation: 1-D
    integer and bool arrays take the vectorized kernel, any other batch
    a :func:`hash_to_unit` loop over its Python values.  Both agree
    bit-for-bit with the scalar path per key.
    """
    arr = _int_batch(keys)
    if arr is not None:
        return _units(arr, salt)
    return np.fromiter(
        (hash_to_unit(key, salt) for key in _scalar_keys(keys)),
        dtype=float, count=len(keys),
    )


def batch_hash_bounds(keys, salt: int = 0):
    """Lower bounds of a batch's :func:`batch_hash_to_unit` priorities,
    and the exact priorities on demand.

    Returns ``(bound, exact)``: a new float array with ``bound[i]`` never
    above row ``i``'s priority, and ``exact(positions)``, those rows'
    priorities.  For a 1-D integer or bool array the bound is the hash's
    high 32-bit half, ``hi * 2**-32``, written into the kernel's scratch
    buffer: a representable value at most ``h * 2**-64``, so at most its
    correctly rounded unit, and less than ``2**-32`` below it.  Only the
    rows a caller asks for are unit-mapped.  Any other batch is hashed
    exactly and its bound is that priority.  Division by a positive
    weight and rounding are monotone, so ``bound / w`` never exceeds the
    weighted priority either: the rows whose bound clears a threshold
    are the only ones that can fall below it.
    """
    arr = _int_batch(keys)
    if arr is None:
        units = batch_hash_to_unit(keys, salt)
        return units.copy(), units.__getitem__
    h, scratch = _splitmix64_salted(arr, splitmix64(salt))
    bound = scratch.view(np.float64)
    np.multiply(h.view(np.uint32)[_HI::2], 2.0**-32, out=bound)
    return bound, lambda positions: _unit_array(h[positions])


# ----------------------------------------------------------------------
# Key partitioning (the sharded-ingestion kernel)
# ----------------------------------------------------------------------
# Domain-separation constant mixed into the partition salt so shard
# assignment is statistically independent of the priority hashes above even
# when both use the same user-facing salt.  Without this, a coordinated
# sketch partitioned by its own priority hash would see only a slice of the
# priority range per shard and every per-shard threshold would be biased.
_SHARD_DOMAIN = 0x53484152_44303031  # ASCII "SHARD001"


def _shard_salt(salt: int) -> int:
    """Mix a user salt into the shard-assignment hash domain."""
    return splitmix64((salt ^ _SHARD_DOMAIN) & _MASK64)


def shard_of(key: object, n_shards: int, salt: int = 0) -> int:
    """Deterministic shard index of ``key`` in ``range(n_shards)``.

    Every occurrence of a key lands on the same shard (under a fixed
    ``salt``), which is what makes hash partitioning preserve sampler
    semantics: shards see key-disjoint sub-streams, so their sketches merge
    under the disjoint-stream rules, and coordinated sketches still observe
    each key's full occurrence run on one shard.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be a positive integer")
    if isinstance(key, (bool, np.bool_)):
        key = int(key)  # match the batch path, which uplifts bool arrays
    return int(hash_key(key, _shard_salt(salt)) % n_shards)


def batch_shard_indices(keys, n_shards: int, salt: int = 0) -> np.ndarray:
    """Vectorized :func:`shard_of` for an arbitrary key batch.

    1-D integer and bool arrays take the vectorized kernel; any other
    batch a :func:`shard_of` loop over its Python values.  Both agree with
    :func:`shard_of` per key, so routing a stream item-by-item or in bulk
    produces identical partitions.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be a positive integer")
    arr = _int_batch(keys)
    if arr is None:
        return np.fromiter(
            (shard_of(key, n_shards, salt) for key in _scalar_keys(keys)),
            dtype=np.int64,
            count=len(keys),
        )
    h, _ = _splitmix64_salted(arr, splitmix64(_shard_salt(salt)))
    if n_shards & (n_shards - 1):
        np.remainder(h, np.uint64(n_shards), out=h)
    else:
        h &= np.uint64(n_shards - 1)
    return h.view(np.int64)
