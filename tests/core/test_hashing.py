"""Tests for stable hashing (repro.core.hashing)."""

import numpy as np
import pytest
from scipy import stats

from repro.core.hashing import (
    _unit_array,
    batch_hash_bounds,
    batch_hash_to_unit,
    batch_shard_indices,
    hash_array_to_unit,
    hash_key,
    hash_to_unit,
    shard_of,
    splitmix64,
    splitmix64_array,
)


class TestSplitMix:
    def test_scalar_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_scalar_distinct_inputs(self):
        outputs = {splitmix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000  # no collisions on small ints

    def test_scalar_in_64bit_range(self):
        for i in (0, 1, 2**63, 2**64 - 1):
            h = splitmix64(i)
            assert 0 <= h < 2**64

    def test_array_matches_scalar(self):
        keys = np.arange(1000, dtype=np.uint64)
        arr = splitmix64_array(keys)
        for i in (0, 1, 17, 999):
            assert int(arr[i]) == splitmix64(i)

    def test_array_does_not_mutate_input(self):
        keys = np.arange(10, dtype=np.uint64)
        copy = keys.copy()
        splitmix64_array(keys)
        assert np.array_equal(keys, copy)


class TestHashKey:
    def test_int_and_numpy_int_agree(self):
        assert hash_key(7) == hash_key(np.int64(7))

    def test_salt_changes_hash(self):
        assert hash_key(7, salt=0) != hash_key(7, salt=1)

    def test_string_stable(self):
        assert hash_key("user-123") == hash_key("user-123")

    def test_bytes_and_str_routes(self):
        # bytes and the utf-8 string hash identically by construction
        assert hash_key(b"abc") == hash_key("abc")

    def test_tuple_keys_supported(self):
        assert hash_key(("group", 5)) == hash_key(("group", 5))
        assert hash_key(("group", 5)) != hash_key(("group", 6))


class TestHashToUnit:
    def test_open_interval(self):
        values = [hash_to_unit(i) for i in range(5000)]
        assert all(0.0 < v < 1.0 for v in values)

    def test_uniformity_kolmogorov_smirnov(self):
        values = np.array([hash_to_unit(i, salt=3) for i in range(20_000)])
        stat = stats.kstest(values, "uniform")
        assert stat.pvalue > 1e-4, f"hash output not uniform: p={stat.pvalue}"

    def test_salts_give_independent_streams(self):
        a = np.array([hash_to_unit(i, salt=1) for i in range(5000)])
        b = np.array([hash_to_unit(i, salt=2) for i in range(5000)])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_vectorized_matches_scalar(self):
        keys = np.arange(256)
        vec = hash_array_to_unit(keys, salt=9)
        scalars = np.array([hash_to_unit(int(k), salt=9) for k in keys])
        np.testing.assert_allclose(vec, scalars, rtol=0, atol=0)

    def test_vectorized_rejects_floats(self):
        with pytest.raises(TypeError):
            hash_array_to_unit(np.array([0.5, 1.5]))

    def test_vectorized_uniformity(self):
        values = hash_array_to_unit(np.arange(50_000), salt=11)
        stat = stats.kstest(values, "uniform")
        assert stat.pvalue > 1e-4


def _reference_unit(h: np.ndarray) -> np.ndarray:
    """The unit map as first written: numpy's uint64 -> float64 cast."""
    return h.astype(np.float64) * 2.0**-64 + 2.0**-65


#: Keys of the literal pins: int64 min and max, -1, 0 and 2**53 +- 1, then
#: the uint64 keys 2**63, 2**63 + 1 and 2**64 - 1.
PIN_INT64 = np.array([-(2**63), 2**63 - 1, -1, 0, 2**53 - 1, 2**53 + 1],
                     dtype=np.int64)
PIN_UINT64 = np.array([2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64)

#: ``hash_array_to_unit`` of the pin keys (int64 then uint64) per salt,
#: as ``float.hex`` — written from the implementation before the in-place
#: kernel, so priorities stay bit-identical.
UNIT_PINS = {
    0: ["0x1.4e175dffccec8p-2", "0x1.8f63ccf291e54p-1",
        "0x1.6ec16447d1959p-3", "0x1.4e0dba5e9a330p-1",
        "0x1.92a51ab3e32bcp-1", "0x1.d6e791af26780p-1",
        "0x1.4e175dffccec8p-2", "0x1.582c2a0f17f0ap-1",
        "0x1.6ec16447d1959p-3"],
    1: ["0x1.6fb3a89b4a191p-1", "0x1.057834220c8d2p-1",
        "0x1.4ac5becd9058dp-1", "0x1.7906ac21d0e58p-2",
        "0x1.100438732ca5ep-4", "0x1.5a0bcc93ba9a6p-1",
        "0x1.6fb3a89b4a191p-1", "0x1.507ff34dcdee2p-1",
        "0x1.4ac5becd9058dp-1"],
    2**40: ["0x1.cb31e395a1322p-4", "0x1.700570ff3db18p-3",
            "0x1.507ce79924ae2p-4", "0x1.994fcbcfcd05dp-3",
            "0x1.7496b9c7550aep-1", "0x1.926c6b10b7ac2p-1",
            "0x1.cb31e395a1322p-4", "0x1.867cdb7207be4p-1",
            "0x1.507ce79924ae2p-4"],
}

#: ``batch_shard_indices`` of the pin keys (int64 then uint64) per salt
#: and shard count, written from the same earlier implementation.
SHARD_PINS = {
    0: {1: [0, 0, 0, 0, 0, 0, 0, 0, 0], 2: [0, 0, 1, 0, 1, 1, 0, 1, 1],
        3: [1, 1, 2, 1, 2, 0, 1, 0, 2], 5: [1, 0, 1, 4, 1, 2, 1, 2, 1],
        8: [2, 0, 5, 0, 3, 7, 2, 5, 5], 16: [10, 0, 5, 8, 11, 15, 10, 5, 5]},
    1: {1: [0, 0, 0, 0, 0, 0, 0, 0, 0], 2: [1, 0, 1, 0, 0, 0, 1, 1, 1],
        3: [0, 1, 1, 1, 2, 0, 0, 0, 1], 5: [0, 1, 3, 1, 0, 0, 0, 4, 3],
        8: [1, 2, 3, 4, 0, 0, 1, 5, 3], 16: [1, 10, 11, 4, 8, 8, 1, 5, 11]},
    2**40: {1: [0, 0, 0, 0, 0, 0, 0, 0, 0], 2: [1, 0, 0, 0, 1, 0, 1, 1, 0],
            3: [0, 1, 0, 1, 1, 0, 0, 0, 0], 5: [4, 1, 2, 2, 1, 2, 4, 2, 2],
            8: [1, 0, 2, 4, 3, 4, 1, 5, 2],
            16: [1, 0, 2, 12, 3, 12, 1, 13, 2]},
}


class TestKernelPins:
    """The hash kernel is a bit-exact contract: priorities and shard
    routes are checked against literals, never against a tolerance."""

    @pytest.mark.parametrize("salt", sorted(UNIT_PINS))
    def test_unit_priorities_match_the_literal_pins(self, salt):
        got = [*hash_array_to_unit(PIN_INT64, salt),
               *hash_array_to_unit(PIN_UINT64, salt)]
        assert [float.hex(float(x)) for x in got] == UNIT_PINS[salt]
        assert [float.hex(hash_to_unit(int(key), salt)) for key in
                [*PIN_INT64.tolist(), *PIN_UINT64.tolist()]] == UNIT_PINS[salt]

    @pytest.mark.parametrize("salt", sorted(SHARD_PINS))
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8, 16])
    def test_shard_routes_match_the_literal_pins(self, salt, n_shards):
        got = [*batch_shard_indices(PIN_INT64, n_shards, salt).tolist(),
               *batch_shard_indices(PIN_UINT64, n_shards, salt).tolist()]
        assert got == SHARD_PINS[salt][n_shards]
        assert [shard_of(int(key), n_shards, salt) for key in
                [*PIN_INT64.tolist(), *PIN_UINT64.tolist()]] == got

    def test_unit_map_matches_the_reference_cast(self):
        """The two-half unit map equals ``float(h) * 2**-64 + 2**-65``
        with numpy's uint64 cast, on random hashes and at and next to the
        round-half-even ties near 2**64."""
        rng = np.random.default_rng(2024)
        h = rng.integers(0, 2**64, size=10**6, dtype=np.uint64,
                         endpoint=False)
        ties = np.array([2**64 - 1024, 2**64 - 1025, 2**64 - 3072,
                         2**64 - 1023, 2**64 - 3071, 2**64 - 3073,
                         2**64 - 1, 2**63 + 1024, 2**63 + 3072,
                         2**53 + 1, 2**54 + 2, 2**54 + 6, 0, 1],
                        dtype=np.uint64)
        for hashes in (h, ties):
            assert np.array_equal(_unit_array(hashes).view(np.uint64),
                                  _reference_unit(hashes).view(np.uint64))

    def test_kernel_matches_the_reference_formula(self):
        """``hash_array_to_unit`` equals the reference pipeline — salt
        XOR, ``splitmix64``, reference unit map — for every integer dtype
        and any key array layout."""
        rng = np.random.default_rng(7)
        keys = rng.integers(-(2**63), 2**63, size=50_000, dtype=np.int64)
        mixed = np.uint64(splitmix64(5))
        for arr in (keys, keys[::3], keys.astype(np.int32),
                    keys.astype(np.uint8), keys.view(np.uint64),
                    keys[:600].reshape(20, 30).T):
            want = _reference_unit(splitmix64_array(
                arr.astype(np.uint64) ^ mixed))
            assert np.array_equal(hash_array_to_unit(arr, 5), want)

    def test_bounds_never_exceed_the_priorities(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(-(2**63), 2**63, size=200_000, dtype=np.int64)
        bound, exact = batch_hash_bounds(keys, 3)
        units = hash_array_to_unit(keys, 3)
        assert (bound <= units).all()
        assert (units - bound < 2.0**-32 + 2.0**-52).all()  # + rounding
        pos = np.flatnonzero(bound < 0.01)
        assert np.array_equal(exact(pos), units[pos])
        w = rng.lognormal(0.0, 3.0, keys.size)
        assert (bound / w <= units / w).all()
        labels = [f"k{i}" for i in range(50)]
        bound, exact = batch_hash_bounds(labels, 3)
        assert np.array_equal(bound, batch_hash_to_unit(labels, 3))
        assert np.array_equal(exact(np.arange(50)), bound)


def _key_arrays():
    """Key batches of every ndarray kind next to their Python values."""
    floats = np.array([1.5, -0.25, 3.0, 1e300, 2.0**70, -0.0, 7.125, 1e-9])
    return {
        "int64": np.array([3, -4, 2**40, 0, 3]),
        "float64": floats,
        "bool": np.array([True, False, True]),
        "str": np.array(["a", "bb", "a", ""]),
        "object": np.array(["a", 3, (1, 2), 2.5, None], dtype=object),
    }


class TestBatchMatchesScalar:
    """Bulk hashing and routing agree with the scalar functions per key:
    an ndarray hashes as its ``.tolist()`` values, never as numpy scalar
    reprs."""

    @pytest.mark.parametrize("kind", sorted(_key_arrays()))
    def test_batch_hash_to_unit_matches_scalar(self, kind):
        keys = _key_arrays()[kind]
        want = [hash_to_unit(key, 4) for key in keys.tolist()]
        assert batch_hash_to_unit(keys, 4).tolist() == want
        assert batch_hash_to_unit(keys.tolist(), 4).tolist() == want

    @pytest.mark.parametrize("kind", sorted(_key_arrays()))
    @pytest.mark.parametrize("n_shards", [3, 4])
    def test_batch_shard_indices_match_scalar(self, kind, n_shards):
        keys = _key_arrays()[kind]
        want = [shard_of(key, n_shards, 4) for key in keys.tolist()]
        assert batch_shard_indices(keys, n_shards, 4).tolist() == want
        assert batch_shard_indices(keys.tolist(), n_shards, 4).tolist() == want

    def test_equal_length_tuple_keys_hash_whole(self):
        """A list of equal-length integer tuples coerces to a 2-D integer
        array, but each tuple is one key on both bulk paths."""
        keys = [(i % 3, i) for i in range(12)]
        assert batch_hash_to_unit(keys, 4).tolist() == [
            hash_to_unit(key, 4) for key in keys]
        assert batch_shard_indices(keys, 4, 4).tolist() == [
            shard_of(key, 4, 4) for key in keys]
