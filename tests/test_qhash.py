import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhc.qhash
from qhc import (
    Certification,
    GuardError,
    KeySet,
    SearchError,
    bias,
    hash_qubits,
    required_keys,
    search_key_set,
    swap_accept,
    verify_resistance,
)
from qhc.qhash import _MONTE_CARLO_TRIALS, ResistanceReport
from qhc.util import rand_below_many

from oracles import (
    bias_direct,
    bias_rows_direct,
    hash_amplitudes_direct,
    max_bias_direct,
    rand_below_per_call,
    residue_ratios_direct,
    swap_circuit_accept,
)


def _random_key_set(rng: np.random.Generator, max_log_n: int = 20) -> KeySet:
    n = int(rng.integers(2, 1 << max_log_n))
    d = int(rng.integers(1, min(40, n) + 1))
    keys = tuple(sorted(rng.choice(n, size=d, replace=False).tolist()))
    return KeySet(modulus=n, keys=keys)


# ---------------------------------------------------------------- KeySet


class TestKeySet:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            KeySet(modulus=8, keys=(1, 1, 3))

    def test_key_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            KeySet(modulus=8, keys=(8,))

    @pytest.mark.parametrize("n", [16, 1 << 40, 1 << 64, (1 << 40) - 87, (1 << 64) + 13])
    @pytest.mark.parametrize(
        "case",
        [
            lambda n: ((3, n, n + 5, 1), f"key {n} outside [0, {n})"),
            lambda n: ((5, -2, n + 1), f"key -2 outside [0, {n})"),
            lambda n: ((1 << 70, 2), f"key {1 << 70} outside [0, {n})"),
            lambda n: ((n + 1, 4, 4), "duplicate keys (would silently skew the bias average)"),
        ],
    )
    def test_checks_name_the_first_bad_key(self, n, case):
        """One message per fault, naming the same key first, whether the keys
        are checked as a uint64 array or one by one."""
        keys, message = case(n)
        with pytest.raises(ValueError) as info:
            KeySet(modulus=n, keys=keys)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "n,tier", [(16, True), (1 << 32, True), ((1 << 32) + 1, False), (1 << 64, True),
                   ((1 << 40) - 87, False), ((1 << 64) + 13, False), (1 << 65, False)]
    )
    def test_key_array_only_in_the_uint64_tier(self, n, tier):
        """A uint64 key array in the tier, an object array of Python ints
        above it; read-only either way."""
        ks = KeySet(modulus=n, keys=(n - 1, 0, 1))
        if tier:
            assert ks.key_array.dtype == np.uint64
        else:
            assert ks.key_array.dtype == object
            assert all(type(k) is int for k in ks.key_array)
        assert ks.key_array.tolist() == [n - 1, 0, 1]
        assert not ks.key_array.flags.writeable
        assert ks == KeySet(modulus=n, keys=(n - 1, 0, 1))

    def test_needs_a_key(self):
        with pytest.raises(ValueError):
            KeySet(modulus=8, keys=())

    def test_modulus_floor(self):
        with pytest.raises(ValueError) as info:
            KeySet(1, (0,))
        assert str(info.value) == "modulus must be >= 2, got 1"

    def test_never_equals_another_type(self):
        assert (KeySet(16, (1,)) == 1) is False
        assert KeySet(16, (1,)) != (1,)

    @pytest.mark.parametrize("n", [16, (1 << 64) + 13])
    def test_non_integer_keys_and_differences_are_refused(self, n):
        """On both tiers a float key or difference raises ValueError, as
        operator.index refuses it, and is never truncated; numpy integers and
        an empty difference list (a float64 array to numpy) still work."""
        for keys in ([1.5, 2.7], [1, 2.0], np.array([1.0, 3.0])):
            with pytest.raises(ValueError, match="must be integers"):
                KeySet(n, keys)
        ks = KeySet(n, np.array([1, 3, 5]))
        assert ks == KeySet(n, [1, 3, 5])
        for diffs in ([0.5, 1.9], np.array([0.5]), [np.float64(2.0)]):
            with pytest.raises(ValueError, match="must be integers"):
                bias(ks, diffs)
        assert bias(ks, []).shape == (0,) and bias(ks, np.array([])).shape == (0,)
        want = bias(ks, [3, -1, 0]).tobytes()
        for diffs in (np.array([3, -1, 0]), np.array([3, -1, 0], dtype=np.int32),
                      [np.int64(3), np.int8(-1), np.uint64(0)]):
            assert bias(ks, diffs).tobytes() == want

    def test_key_file_digits_skip_the_per_key_path(self, monkeypatch):
        """In the uint64 tier a key file's digit strings are parsed into the
        key array in one pass, with no per-key Python conversion."""
        monkeypatch.setattr(qhc.qhash, "_int_array", None)
        ks = KeySet.from_json({"N": str(1 << 21), "keys": ["7", "1", "3"]})
        assert ks.key_array.dtype == np.uint64 and ks.keys == (7, 1, 3)

    def test_json_round_trip_with_big_modulus(self):
        ks = KeySet(
            modulus=1 << 80,
            keys=(0, 1 << 79, (1 << 80) - 1),
            delta=0.25,
            certification=Certification(mode="monte-carlo", max_bias=0.1),
        )
        doc = json.loads(json.dumps(ks.to_json()))
        assert KeySet.from_json(doc) == ks
        assert doc["N"] == str(1 << 80)

    @pytest.mark.parametrize("n", [1 << 21, 1 << 64])
    def test_json_round_trip_in_the_uint64_tier(self, n):
        """A set built from ints and one read back from its JSON (digit
        strings, parsed straight into the key array) are the same set."""
        ks = KeySet(
            modulus=n,
            keys=(n - 1, 0, 12345, n // 3),
            delta=0.25,
            certification=Certification(mode="exact", max_bias=0.1),
        )
        text = json.dumps(ks.to_json())
        loaded = KeySet.from_json(json.loads(text))
        assert loaded == ks and ks == loaded and hash(loaded) == hash(ks)
        assert json.dumps(loaded.to_json()) == text
        assert loaded.keys == ks.keys and all(type(k) is int for k in loaded.keys)
        assert not loaded.key_array.flags.writeable and not ks.key_array.flags.writeable
        assert loaded != KeySet(modulus=n, keys=(0, n - 1, 12345, n // 3), delta=0.25,
                                certification=Certification(mode="exact", max_bias=0.1))
        diffs = [3, 1, n - 1, 12345, -7]
        assert bias(loaded, diffs).tobytes() == bias(ks, diffs).tobytes()


# ------------------------------------------------------------ hash states


class TestBuildHash:
    """Hash states written out as amplitudes by the oracle: the known
    states, and bias as the overlap of two of them."""

    def test_value_zero_all_cosines(self):
        amps = hash_amplitudes_direct((2, 5, 11), 16, 0)
        assert np.allclose(amps[0::2], 1 / math.sqrt(3))
        assert np.allclose(amps[1::2], 0.0)
        assert bias(KeySet(modulus=16, keys=(2, 5, 11)), [0])[0] == 1.0

    def test_quarter_turn(self):
        amps = hash_amplitudes_direct((1,), 4, 1)
        assert np.allclose(amps, [0.0, 1.0], atol=1e-15)
        # orthogonal to the hash of 0, which is (1, 0)
        assert abs(bias(KeySet(modulus=4, keys=(1,)), [1 - 0])[0]) < 1e-15

    def test_two_key_example(self):
        amps = hash_amplitudes_direct((1, 3), 8, 2)
        r = 1 / math.sqrt(2)
        assert np.allclose(amps, [0.0, r, 0.0, -r], atol=1e-15)
        overlap = np.dot(amps, hash_amplitudes_direct((1, 3), 8, 0))
        assert abs(bias(KeySet(modulus=8, keys=(1, 3)), [2 - 0])[0] - overlap) < 1e-15

    @given(st.integers(0, 60), st.data())
    @settings(max_examples=40)
    def test_unit_norm_up_to_2_64(self, shift, data):
        """The state has unit norm, and bias at difference 0, its overlap
        with itself, is exactly 1."""
        n = data.draw(st.integers(2, 1 << 64))
        d = data.draw(st.integers(1, 30))
        keys = sorted({data.draw(st.integers(0, n - 1)) for _ in range(d)})
        v = data.draw(st.integers(0, n - 1))
        amps = hash_amplitudes_direct(keys, n, v)
        assert abs(np.dot(amps, amps) - 1.0) < 1e-12
        assert bias(KeySet(modulus=n, keys=tuple(keys)), [v - v])[0] == 1.0


# ------------------------------------------------------------- fidelities


class TestBiasKernel:
    """bias() over many differences must match one-at-a-time calls bit for
    bit, however the differences fall into the kernel's blocks."""

    def test_batch_equals_single_calls_int64(self):
        rng = np.random.default_rng(11)
        n = 1 << 20
        ks = KeySet(modulus=n, keys=tuple(sorted(rng.choice(n, size=3000, replace=False).tolist())))
        diffs = [0, 1, n - 1, -5, n + 7] + rng.integers(0, n, size=300).tolist()
        batch = bias(ks, diffs)
        assert batch.dtype == np.float64 and batch.shape == (len(diffs),)
        for got, dd in zip(batch, diffs):
            assert got == bias(ks, [dd])[0]
            assert abs(got - bias_direct(ks.keys, n, dd % n)) < 1e-12

    def test_batch_equals_single_calls_bigint(self):
        rng = np.random.default_rng(12)
        n = 1 << 64
        keys = tuple(sorted({int(k) << 2 | 3 for k in rng.integers(0, 1 << 62, size=1002)}))
        ks = KeySet(modulus=n, keys=keys)
        diffs = [0, 1, n - 1] + [int(k) for k in rng.integers(1, 1 << 63, size=150)]
        batch = bias(ks, diffs)
        for got, dd in zip(batch, diffs):
            assert got == bias(ks, [dd])[0]
            assert abs(got - bias_direct(keys, n, dd)) < 1e-12


class TestBiasZeros:
    """A zero difference costs no row and gives exactly 1.0; every other
    difference keeps the bits of the row-at-a-time oracle, wherever the
    zeros fall among the kernel's blocks."""

    D = 700  # keys per set: blocks of _BIAS_BLOCK_CELLS // 700 differences

    @staticmethod
    def key_set(n: int, d: int, seed: int) -> KeySet:
        rng = np.random.default_rng(seed)
        keys = {int(k) % n for k in rng.integers(0, 1 << 63, size=d, dtype=np.uint64)}
        return KeySet(modulus=n, keys=tuple(sorted(keys | {1, n - 1})))

    @pytest.mark.parametrize(
        "n", [1 << 10, 1 << 21, 1 << 64, (1 << 32) - 5, 1_000_003, (1 << 64) + 13]
    )
    def test_equals_row_oracle_with_zeros_at_block_edges(self, n):
        ks = self.key_set(n, self.D, n % 997)
        step = qhc.qhash._BIAS_BLOCK_CELLS // ks.d
        rng = np.random.default_rng(n % 991)
        diffs = [int(v) % n for v in rng.integers(1, 1 << 62, size=3 * step + 7)]
        for i in (0, step - 1, step, step + 1, 2 * step, len(diffs) - 1):
            diffs[i] = 0
        diffs[5] = n  # zero mod N
        diffs[7] = -n
        want = bias_rows_direct(ks.keys, n, diffs)
        got = bias(ks, diffs)
        assert got.tobytes() == want.tobytes()
        zero = np.array([dd % n == 0 for dd in diffs])
        assert (got[zero] == 1.0).all() and (got[~zero] != 1.0).all()

    @pytest.mark.parametrize("n", [1 << 21, 1 << 64, (1 << 32) - 5, (1 << 64) + 13])
    def test_values_do_not_depend_on_the_block_size(self, monkeypatch, n):
        """bias and _rough_bias give the same bytes in blocks of 2^16 and
        2^13 residues and of one row: each row is summed in one order."""
        ks = self.key_set(n, self.D, n % 983)
        rng = np.random.default_rng(n % 977)
        diffs = [int(v) % n for v in rng.integers(1, 1 << 62, size=3 * (1 << 16) // self.D + 7)]
        seen = set()
        for cells in (1 << 16, 1 << 13, 1):
            monkeypatch.setattr(qhc.qhash, "_BIAS_BLOCK_CELLS", cells)
            seen.add((bias(ks, diffs).tobytes(), qhc.qhash._rough_bias(ks, diffs).tobytes()))
        assert len(seen) == 1

    @pytest.mark.parametrize("n", [1 << 21, 1 << 64, (1 << 64) + 13])
    def test_all_zero_and_empty(self, n):
        ks = self.key_set(n, 50, 3)
        got = bias(ks, [0, n, 0, -n])
        assert got.dtype == np.float64 and got.tolist() == [1.0] * 4
        empty = bias(ks, [])
        assert empty.dtype == np.float64 and empty.shape == (0,)

    def test_zeros_compute_no_row(self, monkeypatch):
        ks = self.key_set(1 << 21, 50, 4)
        rows = []
        residues = qhc.qhash._residues
        monkeypatch.setattr(qhc.qhash, "_residues", lambda k, v: rows.append(len(v)) or residues(k, v))
        bias(ks, [0, 5, 1 << 21, 0, 7])
        assert rows == [2]


class TestResidueTiers:
    """The uint64 tier (N <= 2^32, or N = 2^L <= 2^64) and the big-int
    fallback both equal Python-int residues bit for bit, through
    _residues and through bias."""

    @staticmethod
    def assert_matches_oracle(ks: KeySet, diffs: list[int]) -> None:
        n = ks.modulus
        values = [dd % n for dd in diffs]
        ratios = np.array(residue_ratios_direct(ks.keys, values, n))
        got = qhc.qhash._residues(ks, values)
        assert got.dtype == np.float64
        assert got.tobytes() == ratios.tobytes()
        want = np.cos(2.0 * np.pi * ratios).mean(axis=1)
        assert bias(ks, diffs).tobytes() == want.tobytes()

    @staticmethod
    def edge_case(n: int, seed: int) -> tuple[KeySet, list[int]]:
        rng = np.random.default_rng(seed)
        drawn = {int(k) % n for k in rng.integers(0, 1 << 63, size=200, dtype=np.uint64)}
        ks = KeySet(modulus=n, keys=tuple(sorted(drawn | {0, 1, n - 1})))
        diffs = [0, 1, n - 1, -1, -(n - 1), -12345, n, 2 * n + 3]
        diffs += [int(v) % n for v in rng.integers(0, 1 << 63, size=100, dtype=np.uint64)]
        diffs += [-(int(v) % n) for v in rng.integers(0, 1 << 63, size=20, dtype=np.uint64)]
        return ks, diffs

    @pytest.mark.parametrize(
        "n", [(1 << 31) + 11, (1 << 32) - 5, 1 << 32, 1 << 40, 1 << 63, 1 << 64]
    )
    def test_uint64_tier_equals_python_ints(self, n):
        ks, diffs = self.edge_case(n, n % 1000)
        assert ks.key_array.dtype == np.uint64
        self.assert_matches_oracle(ks, diffs)

    @pytest.mark.parametrize(
        "n,residues",
        [
            (1 << 63, [(1 << 53) + 1, (1 << 62) + 512, (1 << 62) + 513, (1 << 63) - 513,
                       (1 << 63) - 512, (1 << 63) - 1]),
            (1 << 64, [(1 << 53) + 1, (1 << 63) + 1024, (1 << 63) + 1025, (1 << 64) - 1025,
                       (1 << 64) - 1024, (1 << 64) - 1]),
        ],
    )
    @pytest.mark.parametrize("keys", [(1,), (1, 3)])
    def test_halfway_residues_round_like_python(self, n, residues, keys):
        """Residues past 2^53 whose dropped bits are exactly half an ulp (or
        one either side) round to even, as float(int) does."""
        self.assert_matches_oracle(KeySet(modulus=n, keys=keys), residues)

    @pytest.mark.parametrize("n", [(1 << 64) + 13, 1 << 65, (1 << 40) - 87])
    def test_big_int_fallback_equals_python_ints(self, n):
        ks, diffs = self.edge_case(n, n % 1000)
        assert ks.key_array.dtype == object
        assert not ks.key_array.flags.writeable
        self.assert_matches_oracle(ks, diffs)

    @pytest.mark.parametrize("n", [(1 << 64) + 13, 1 << 80, (1 << 40) - 87])
    def test_numpy_integer_keys_and_differences_price_like_python_ints(self, n):
        """Above the tier, numpy integers become Python ints: an int64 key
        times a difference past 2^63 must not overflow."""
        keys = [1, 2, 3, 12345, min(n, 1 << 63) - 2]
        diffs = [1 << 63, 5, -7, 0, (1 << 63) - 1, -(1 << 62)]
        ks, plain = KeySet(modulus=n, keys=np.array(keys)), KeySet(modulus=n, keys=keys)
        assert ks == plain and all(type(k) is int for k in ks.key_array)
        self.assert_matches_oracle(ks, diffs)
        assert bias(ks, diffs).tobytes() == bias(plain, diffs).tobytes()
        for numpy_diffs in ([np.int64(dd) if -(1 << 63) <= dd < 1 << 63 else np.uint64(dd)
                             for dd in diffs],
                            np.array(diffs[1:], dtype=np.int64),
                            np.array([1 << 63, 5, 0], dtype=np.uint64)):
            python_diffs = [int(dd) for dd in numpy_diffs]
            assert bias(ks, numpy_diffs).tobytes() == bias(plain, python_diffs).tobytes()


class TestBiasPrologue:
    """One difference at a time, as a run prices it, and a whole batch give
    the same bits on every tier, whatever form each difference takes."""

    TIERS = [1 << 21, 1 << 64, (1 << 64) + 13, 1 << 80]

    @staticmethod
    def key_set(n: int) -> KeySet:
        rng = np.random.default_rng(n % 1009)
        drawn = {int(k) % n for k in rng.integers(0, 1 << 63, size=300, dtype=np.uint64)}
        return KeySet(modulus=n, keys=tuple(sorted(drawn | {1, n - 1})))

    @pytest.mark.parametrize("n", TIERS)
    def test_one_difference_equals_the_batch(self, n):
        ks = self.key_set(n)
        diffs = [0, 1, -1, 12345, -12345, n, -n, n + 7, 3 * n - 1, n - 1, (1 << 63) + 5,
                 np.int64(-9), np.int8(3), np.uint64((1 << 64) - 1), np.int64(0), True]
        batch = bias(ks, diffs)
        singles = np.array([bias(ks, [dd])[0] for dd in diffs])
        assert singles.tobytes() == batch.tobytes()
        want = bias_rows_direct(ks.keys, n, [int(dd) for dd in diffs])
        assert batch.tobytes() == want.tobytes()
        assert batch[0] == batch[5] == batch[6] == batch[14] == 1.0

    def test_int64_array_equals_one_difference_calls(self):
        ks = self.key_set(1 << 21)
        diffs = np.array([0, 5, -5, 1 << 21, (1 << 40) + 3, -(1 << 50)], dtype=np.int64)
        singles = np.array([bias(ks, [int(dd)])[0] for dd in diffs])
        assert bias(ks, diffs).tobytes() == singles.tobytes()

    @pytest.mark.parametrize("n", TIERS)
    def test_float_is_refused_with_the_same_message(self, n):
        ks = self.key_set(n)
        for diffs, kind in (([1.5], "float"), ([3, 2.0], "float"), ([np.float64(4.0)], "numpy.float64")):
            with pytest.raises(ValueError) as info:
                bias(ks, diffs)
            assert str(info.value) == (f"keys and differences must be integers: '{kind}' object "
                                       "cannot be interpreted as an integer")


def test_drawn_keys_stay_one_uint64_array():
    """Up to N = 2^24 a draw is one sorted uint64 array, which the key set
    keeps as its key array."""
    drawn = qhc.qhash._draw_keys(np.random.default_rng(3), 1 << 21, 500)
    assert drawn.dtype == np.uint64 and (np.diff(drawn.astype(np.int64)) > 0).all()
    ks = KeySet(modulus=1 << 21, keys=drawn)
    assert ks.key_array is drawn and not drawn.flags.writeable


class TestInnerProduct:
    """<a|b> of two hashes two ways: bias at their difference, and the dot
    product of the oracle's amplitude vectors."""

    def test_identical_states(self):
        ks = KeySet(modulus=32, keys=(3, 7, 9))
        h = hash_amplitudes_direct(ks.keys, 32, 17)
        assert bias(ks, [17 - 17])[0] == 1.0
        assert abs(np.dot(h, h) - 1.0) < 1e-12

    def test_antipodal_rotation(self):
        ks = KeySet(modulus=4, keys=(1,))
        a, b = hash_amplitudes_direct(ks.keys, 4, 3), hash_amplitudes_direct(ks.keys, 4, 1)
        assert abs(bias(ks, [3 - 1])[0] + 1.0) < 1e-12
        assert abs(np.dot(a, b) + 1.0) < 1e-12

    def test_two_term_cosine_sum(self):
        ks = KeySet(modulus=4, keys=(1, 2))
        a, b = hash_amplitudes_direct(ks.keys, 4, 1), hash_amplitudes_direct(ks.keys, 4, 0)
        assert abs(bias(ks, [1 - 0])[0] + 0.5) < 1e-12
        assert abs(np.dot(a, b) + 0.5) < 1e-10

    @given(st.integers(0, 10**9), st.data())
    @settings(max_examples=50)
    def test_analytic_agrees_with_amplitude_dot(self, seed, data):
        rng = np.random.default_rng(seed)
        ks = _random_key_set(rng)
        n = ks.modulus
        u, v = int(rng.integers(n)), int(rng.integers(n))
        a, b = hash_amplitudes_direct(ks.keys, n, u), hash_amplitudes_direct(ks.keys, n, v)
        assert abs(bias(ks, [u - v])[0] - np.dot(a, b)) < 1e-10

    @given(st.integers(0, 10**9))
    @settings(max_examples=50)
    def test_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        ks = _random_key_set(rng)
        n = ks.modulus
        u, v, c = (int(rng.integers(n)) for _ in range(3))
        base = bias(ks, [u - v])[0]
        shifted = bias(ks, [(u + c) % n - (v + c) % n])[0]
        assert abs(base - shifted) < 1e-12


class TestSwapTest:
    """The accept rule swap_accept applied to the fidelity bias gives."""

    def test_equal_values_accept_with_certainty(self):
        ks = KeySet(modulus=64, keys=(5, 9))
        assert swap_accept(bias(ks, [11 - 11])[0]) == 1.0

    def test_zero_overlap_is_coin_flip(self):
        ks = KeySet(modulus=4, keys=(1,))
        f = bias(ks, [1 - 0])[0]
        assert abs(f) < 1e-12
        assert abs(swap_accept(f) - 0.5) < 1e-12

    def test_half_negative_fidelity(self):
        ks = KeySet(modulus=4, keys=(1, 2))
        f = bias(ks, [1 - 0])[0]
        assert abs(f + 0.5) < 1e-12
        assert abs(swap_accept(f) - 0.625) < 1e-12

    @given(st.integers(0, 10**9))
    @settings(max_examples=50)
    def test_accept_probability_range(self, seed):
        rng = np.random.default_rng(seed)
        ks = _random_key_set(rng)
        f = bias(ks, [int(rng.integers(ks.modulus)) - int(rng.integers(ks.modulus))])[0]
        p = swap_accept(f)
        assert 0.5 <= p <= 1.0
        assert (p == 1.0) == (abs(f) == 1.0)

    def test_elementwise_on_arrays(self):
        ks = KeySet(modulus=97, keys=(3, 10, 40))
        fid = bias(ks, range(97))
        want = [swap_accept(float(f)) for f in fid]
        assert swap_accept(fid).tolist() == want and swap_accept(-fid).tolist() == want

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_matches_statevector_circuit(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(20):
            n = int(rng.integers(2, 4096))
            keys = tuple(sorted(rng.choice(n, size=min(d, n), replace=False).tolist()))
            ks = KeySet(modulus=n, keys=keys)
            u, v = int(rng.integers(n)), int(rng.integers(n))
            a, b = hash_amplitudes_direct(keys, n, u), hash_amplitudes_direct(keys, n, v)
            circuit = swap_circuit_accept(a, b)
            assert abs(circuit - swap_accept(bias(ks, [u - v])[0])) < 1e-10


# ---------------------------------------------------- collision resistance


class TestVerifyResistance:
    def test_certified_pair_set(self):
        report = verify_resistance(KeySet(modulus=4, keys=(1, 2)), 0.6)
        assert report.certified
        assert abs(report.max_bias - 0.5) < 1e-12
        assert report.worst_difference == 1
        assert report.key_set.certified and report.key_set.delta == 0.6

    def test_refuted_single_key(self):
        report = verify_resistance(KeySet(modulus=4, keys=(1,)), 0.9)
        assert not report.certified
        assert report.worst_difference == 2
        assert abs(report.max_bias - 1.0) < 1e-12
        assert report.key_set.certification.mode == "none"

    def test_zero_key_always_refuted(self):
        report = verify_resistance(KeySet(modulus=100, keys=(0,)), 0.99)
        assert not report.certified
        assert abs(report.max_bias - 1.0) < 1e-9

    def test_full_ring_bias_vanishes(self):
        report = verify_resistance(KeySet(modulus=16, keys=tuple(range(16))), 0.01)
        assert report.certified
        assert report.max_bias < 1e-12

    @pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
    def test_full_ring_certifies_by_its_algebra_in_either_mode(self, monkeypatch, mode):
        # Nothing is swept, sampled or priced, and the certificate keeps the
        # label of the mode asked for.
        monkeypatch.setattr(qhc.qhash, "bias", None)  # a call would fail
        report = verify_resistance(KeySet(modulus=1 << 10, keys=tuple(range(1 << 10))),
                                   1e-18, mode=mode, rng=0)
        assert report.certified
        assert (report.max_bias, report.worst_difference, report.bound) == (0.0, 1, 0.0)
        assert report.key_set.certification == Certification(mode=mode, max_bias=0.0)

    def test_unknown_mode_is_refused_for_the_full_ring(self):
        with pytest.raises(ValueError, match="unknown mode 'fast'"):
            verify_resistance(KeySet(modulus=16, keys=tuple(range(16))), 0.5, mode="fast")

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_sweep_matches_direct_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        d = int(rng.integers(1, min(20, n) + 1))
        ks = KeySet(modulus=n, keys=tuple(sorted(rng.choice(n, size=d, replace=False).tolist())))
        report = verify_resistance(ks, 0.999)
        want_max, want_arg = max_bias_direct(ks.keys, n)
        assert abs(report.max_bias - want_max) < 1e-9
        if report.certified:
            assert abs(bias_direct(ks.keys, n, report.worst_difference) ) == pytest.approx(
                want_max, abs=1e-9
            )
            assert report.worst_difference == want_arg

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fft_sweep_within_allowance_of_fsum(self, seed):
        # The certificate's allowance must cover bias's rounding: the
        # sweep's max bias is checked against correctly rounded sums.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 1 << 10, endpoint=True))
        d = int(rng.integers(1, min(64, n), endpoint=True))
        keys = sorted(rng.choice(n, size=d, replace=False).tolist())
        top = qhc.qhash._exact_bias_sweep(KeySet(modulus=n, keys=keys))[0]
        want = max(
            abs(math.fsum(math.cos(2.0 * math.pi * ((k * diff) % n) / n) for k in keys)) / d
            for diff in range(1, n)
        )
        assert abs(top - want) <= 1e-12

    def test_exact_certificate_keeps_the_allowance(self):
        ks = KeySet(modulus=64, keys=tuple(range(1, 41)))
        max_bias = verify_resistance(ks, 0.999).max_bias
        assert not verify_resistance(ks, max_bias + 5e-13).certified
        assert verify_resistance(ks, max_bias + 2e-12).certified

    def test_monte_carlo_certificate_has_no_allowance(self):
        # Monte Carlo biases come from the direct kernel, not an FFT.
        ks = KeySet(modulus=1 << 20, keys=tuple(range(1, 300, 7)))
        max_bias = verify_resistance(ks, 0.999, mode="monte-carlo", rng=4).max_bias
        report = verify_resistance(ks, max_bias + 5e-13, mode="monte-carlo", rng=4)
        assert report.certified

    def test_exact_guard_points_at_monte_carlo(self):
        ks = KeySet(modulus=1 << 22, keys=(1, 2, 3))
        with pytest.raises(GuardError, match="monte-carlo"):
            verify_resistance(ks, 0.5)

    @pytest.mark.parametrize("log2_n,delta", [(64, 0.001), (64, 1e-9), (22, 0.001)])
    def test_key_count_guard_refuses_before_drawing(self, log2_n, delta):
        """d above 2^21 is refused, also where required_keys exceeds N = 2^64."""
        with pytest.raises(GuardError, match=r"refusing to draw \d+ keys; guard is d <= 2097152"):
            search_key_set(1 << log2_n, delta, seed=0)

    def test_monte_carlo_refutation_is_genuine(self):
        # arithmetic-progression keys have a near-1 bias spike that uniform
        # difference sampling finds quickly
        step = 0x9E3779B97F4A7C15
        keys = tuple(sorted((i * step) % (1 << 64) for i in range(1, 200)))
        report = verify_resistance(
            KeySet(modulus=1 << 64, keys=keys), 0.5, mode="monte-carlo", rng=3
        )
        assert not report.certified
        assert abs(bias_direct(keys, 1 << 64, report.worst_difference)) >= 0.5

    def test_monte_carlo_certification_is_labelled_not_exact(self):
        rng = np.random.default_rng(8)
        keys = tuple(sorted(int(k) for k in rng.choice(1 << 30, size=300, replace=False)))
        report = verify_resistance(
            KeySet(modulus=1 << 30, keys=keys), 0.5, mode="monte-carlo", rng=9
        )
        assert report.certified
        cert = report.key_set.certification
        assert cert.to_json() == {"mode": "monte-carlo", "max_bias": report.max_bias}
        assert not report.key_set.certified  # never presented as exact

    def test_certified_soundness_exhaustive(self, certified_n64):
        # |fidelity| < delta for every pair of distinct hashed values
        for diff in range(1, 64):
            assert abs(bias(certified_n64, [diff])[0]) < certified_n64.delta


class TestBlockedSweep:
    """The exact sweep splits N = B*M and proposes candidates; bias prices
    them.  Its verdicts must equal pricing every D in [1, N/2] with bias
    under the same tie rule."""

    # Moduli of three kinds (a power of two, odd, 3 * 2^k), each with the
    # blockings its factors allow, forced by lowering the block floor.
    SPLITS = [(1 << 12, 1), (1 << 12, 2), (1 << 12, 8), (1 << 12, 32),
              (4095, 1), (3 << 10, 1), (3 << 10, 2), (3 << 10, 8), (3 << 10, 32)]

    @staticmethod
    def every_difference(key_set: KeySet) -> tuple[float, int]:
        """(|bias| at the smallest D within the tie tolerance of the maximum,
        that D), every D in [1, N/2] priced by bias."""
        priced = np.abs(bias(key_set, np.arange(1, key_set.modulus // 2 + 1)))
        worst = int(np.argmax(priced >= priced.max() - qhc.qhash._SWEEP_TIE_TOLERANCE))
        return float(priced[worst]), worst + 1

    @pytest.mark.parametrize("n,blocks", SPLITS)
    @given(st.integers(1, 8), st.sampled_from([1, 3, 4, 8, 64]), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_window_matches_pricing_every_difference(self, n, blocks, d, stride, seed):
        # A stride that divides N draws keys from a coset, whose biases tie.
        rng = np.random.default_rng(seed)
        stride = stride if n % stride == 0 else 1
        offset = int(rng.integers(stride))
        keys = rng.choice(np.arange(offset, n, stride), size=d, replace=False)
        ks = KeySet(modulus=n, keys=sorted(keys.tolist()))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qhc.qhash, "_SWEEP_BLOCK_FLOOR", n // blocks)
            assert qhc.qhash._sweep_blocks(n, d) == blocks
            folded = []
            for first, step, values in qhc.qhash._blocked_spectrum(ks):
                diffs = first + step * np.arange(len(values))
                error = np.abs(values - bias(ks, diffs))
                assert error.max() <= qhc.qhash._SWEEP_WINDOW / 1000
                folded.extend(np.minimum(diffs, n - diffs).tolist())
            assert sorted(folded) == list(range(1, n // 2 + 1))
            report = verify_resistance(ks, 0.5)
        assert (report.max_bias, report.worst_difference) == self.every_difference(ks)
        assert report.certified == (report.max_bias + qhc.qhash._SWEEP_TIE_TOLERANCE < 0.5)

    @pytest.mark.parametrize("n,d,blocks", [
        (1 << 16, 1, 1), (1 << 17, 1, 2), (1 << 17, 1 << 16, 2), (1 << 17, (1 << 16) + 1, 1),
        (1 << 21, 12200, 32), (1 << 21, 1 << 16, 32), (1 << 21, 1 << 17, 16),
        (1 << 21, 1 << 21, 1), (3 << 18, 100, 8), ((1 << 21) - 1, 3, 1),
    ])
    def test_blocks(self, n, d, blocks):
        # B is the largest power of two dividing N with N/B >= 2^16 and B*d <= N.
        assert qhc.qhash._sweep_blocks(n, d) == blocks

    def test_plateau_prices_within_the_cell_budget(self, monkeypatch):
        # Every difference of Z_N without 0 ties at |bias| = 1/(N - 1): the
        # sweep proposes N/2 candidates, and bias may price only the
        # budget's worth of them.
        cells = []

        def counted(key_set, differences):
            cells.append(len(differences) * key_set.d)
            return bias(key_set, differences)

        monkeypatch.setattr(qhc.qhash, "bias", counted)
        n = 1 << 21
        report = verify_resistance(KeySet(modulus=n, keys=np.arange(1, n, dtype=np.uint64)),
                                   0.003)
        assert report.certified and abs(report.max_bias - 1 / (n - 1)) < 1e-12
        assert 0 < sum(cells) <= qhc.qhash._SWEEP_PRICE_CELLS

    def test_key_zero_plateau_is_refuted_at_the_smallest_difference(self):
        report = verify_resistance(KeySet(modulus=1 << 16, keys=(0,)), 0.5)
        assert not report.certified
        assert (report.max_bias, report.worst_difference) == (1.0, 1)

    def test_unpriced_candidates_certify_only_below_the_sweep_ceiling(self, monkeypatch):
        # Z_64 without 0: |bias| is 1/63 at every nonzero D.  Priced in full,
        # the certificate needs only bias's maximum plus the tie tolerance
        # below delta; with candidates left unpriced, the sweep's maximum
        # plus the window must be below it too.
        ks = KeySet(modulus=64, keys=tuple(range(1, 64)))
        delta = 1 / 63 + 1e-10
        assert verify_resistance(ks, delta).certified
        monkeypatch.setattr(qhc.qhash, "_SWEEP_PRICE_CELLS", 64)
        report = verify_resistance(ks, delta)
        assert report.max_bias + qhc.qhash._SWEEP_TIE_TOLERANCE < delta
        assert not report.certified
        assert verify_resistance(ks, 1 / 63 + 1e-8).certified

    @given(st.sampled_from([(1 << 10, "exact"), (4095, "exact"), (3 << 12, "exact"),
                            (1 << 18, "exact"), (3 << 17, "exact"), (1 << 21, "exact"),
                            (1 << 22, "monte-carlo"), ((1 << 40) - 87, "monte-carlo"),
                            (1 << 64, "monte-carlo")]),
           st.integers(1, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_max_bias_is_bias_at_the_worst_difference(self, case, d, seed):
        n, mode = case
        ks = TestMonteCarloScreen.key_set(n, d, seed)
        report = verify_resistance(ks, 0.5, mode=mode, rng=seed)
        assert report.max_bias == abs(bias(ks, [report.worst_difference])[0])
        if report.certified:
            assert report.key_set.certification.max_bias == report.max_bias


class TestSinglePrecisionSweep:
    """The exact sweep proposes at float32 first, with a window derived from
    the key set's column counts, and runs again at float64 only when its
    candidates overflow the pricing budget.  Its triple must equal that of
    a sweep whose every pass runs at float64."""

    @staticmethod
    def float64_only(key_set: KeySet) -> tuple[float, int, float]:
        propose = qhc.qhash._sweep_candidates
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qhc.qhash, "_sweep_candidates",
                          lambda ks, columns, dtype: propose(ks, columns, np.float64))
            return qhc.qhash._exact_bias_sweep(key_set)

    @staticmethod
    def sweep_precisions(monkeypatch) -> list:
        """The dtype of each _blocked_spectrum pass from here on."""
        passes = []
        spectrum = qhc.qhash._blocked_spectrum

        def counted(key_set, dtype=np.float64, columns=None):
            passes.append(dtype)
            return spectrum(key_set, dtype, columns)

        monkeypatch.setattr(qhc.qhash, "_blocked_spectrum", counted)
        return passes

    @pytest.mark.parametrize("n,blocks", TestBlockedSweep.SPLITS)
    @given(st.integers(1, 8), st.sampled_from([1, 3, 4, 8, 64]), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_float32_spectrum_within_a_hundredth_of_its_window(self, n, blocks, d, stride, seed):
        # A stride that divides N draws keys from a coset, whose biases tie.
        rng = np.random.default_rng(seed)
        stride = stride if n % stride == 0 else 1
        offset = int(rng.integers(stride))
        keys = rng.choice(np.arange(offset, n, stride), size=d, replace=False)
        ks = KeySet(modulus=n, keys=sorted(keys.tolist()))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qhc.qhash, "_SWEEP_BLOCK_FLOOR", n // blocks)
            columns = qhc.qhash._sweep_columns(ks)
            assert columns.blocks == blocks
            folded = []
            for first, step, values in qhc.qhash._blocked_spectrum(ks, np.float32, columns):
                diffs = first + step * np.arange(len(values))
                error = np.abs(values.astype(np.float64) - bias(ks, diffs))
                assert error.max() <= columns.window32 / 100
                folded.extend(np.minimum(diffs, n - diffs).tolist())
            assert sorted(folded) == list(range(1, n // 2 + 1))

    @given(st.sampled_from([1 << 10, 4095, 3 << 10, 1 << 14, (1 << 17) + 1, 3 << 16, 1 << 18]),
           st.integers(1, 3000), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_triple_equals_a_float64_sweep_on_random_sets(self, n, d, seed):
        rng = np.random.default_rng(seed)
        keys = np.sort(rng.choice(n, min(d, n), replace=False)).astype(np.uint64)
        ks = KeySet(modulus=n, keys=keys)
        assert qhc.qhash._exact_bias_sweep(ks) == self.float64_only(ks)

    @pytest.mark.parametrize("d", [3050, 6225, 12200])
    def test_triple_equals_a_float64_sweep_at_2_21(self, monkeypatch, d):
        # The key counts search-keys draws at N = 2^21 for delta 0.1, 0.07, 0.05.
        keys = qhc.qhash._draw_keys(np.random.default_rng(d), 1 << 21, d)
        ks = KeySet(modulus=1 << 21, keys=keys)
        want = self.float64_only(ks)
        passes = self.sweep_precisions(monkeypatch)
        assert qhc.qhash._exact_bias_sweep(ks) == want
        assert passes == [np.float32]

    @pytest.mark.parametrize("n,keys,worst", [
        (1 << 12, (0,), 1),  # key 0: every |bias| is 1
        (1 << 12, tuple(range(32, 1 << 12, 64)), 64),  # a coset: |bias| 1 at multiples of 64
        (64, tuple(range(64)), None),  # the full ring: every |bias| is ~1e-17
    ])
    def test_plateaus_take_the_float64_re_sweep(self, monkeypatch, n, keys, worst):
        ks = KeySet(modulus=n, keys=keys)
        monkeypatch.setattr(qhc.qhash, "_SWEEP_PRICE_CELLS", 64)
        want = self.float64_only(ks)
        passes = self.sweep_precisions(monkeypatch)
        got = qhc.qhash._exact_bias_sweep(ks)
        assert passes == [np.float32, np.float64]
        assert got == want
        if worst is not None:
            assert got[:2] == (1.0, worst)


class TestMonteCarloScreen:
    """Monte Carlo mode prices exactly only the sampled rows whose rough
    |bias| is within 2 epsilon of the sample's rough maximum; its verdicts
    must equal pricing every sampled row with bias, from the same draws."""

    MODULI = [1 << 22, (1 << 33) + 1, (1 << 40) - 87, 1 << 64, (1 << 64) + 13, 1 << 80]

    @staticmethod
    def key_set(n: int, d: int, seed: int) -> KeySet:
        """About d random keys; above the uint64 tier, where every residue is
        a Python int, d / 32 of them keep an example within a second."""
        if not qhc.qhash._uint64_exact(n):
            d = 1 + d // 32
        keys = set(rand_below_many(np.random.default_rng(seed), n, d))
        return KeySet(modulus=n, keys=sorted(keys))

    @staticmethod
    def unscreened(key_set: KeySet, seed: int) -> tuple[float, int]:
        """(max |bias|, first sampled difference attaining it, or 1 when every
        |bias| is 0), every sampled row priced by bias, drawn as
        verify_resistance draws them."""
        gen = np.random.default_rng(seed)
        n = key_set.modulus
        diffs = sorted(v + 1 for v in rand_below_many(gen, n - 1, _MONTE_CARLO_TRIALS))
        magnitudes = np.abs(bias(key_set, diffs))
        top = int(np.argmax(magnitudes))
        return float(magnitudes[top]), diffs[top] if magnitudes[top] > 0.0 else 1

    @given(st.sampled_from(MODULI), st.integers(1, 2000), st.integers(0, 2**32 - 1),
           st.floats(0.5, 1.5))
    @settings(max_examples=12, deadline=None)
    def test_verdict_equals_pricing_every_row(self, n, d, seed, scale):
        ks = self.key_set(n, d, seed)
        want_max, want_worst = self.unscreened(ks, seed + 1)
        for delta in (min(max(want_max * scale, 1e-6), 0.999999), want_max):
            if not 0 < delta < 1:
                continue
            report = verify_resistance(ks, delta, mode="monte-carlo", rng=seed + 1)
            assert report.max_bias == want_max
            assert report.worst_difference == want_worst
            assert report.certified == (want_max < delta)

    @pytest.mark.parametrize("n", MODULI)
    def test_all_tie_key_set_reports_the_smallest_sampled_difference(self, n):
        # Key 0 hashes every value alike: every |bias| is exactly 1.0.
        report = verify_resistance(KeySet(modulus=n, keys=(0,)), 0.5, mode="monte-carlo", rng=3)
        first = sorted(v + 1 for v in rand_below_many(np.random.default_rng(3), n - 1,
                                                      _MONTE_CARLO_TRIALS))
        assert report.max_bias == 1.0 and not report.certified
        assert report.worst_difference == first[0]

    def test_all_zero_sample_reports_difference_one(self, monkeypatch):
        # No sampled |bias| above 0.0 leaves the worst difference at 1.
        monkeypatch.setattr(qhc.qhash, "bias", lambda key_set, diffs: np.zeros(len(diffs)))
        report = verify_resistance(KeySet(modulus=1 << 64, keys=(1, 2, 3)), 0.5,
                                   mode="monte-carlo", rng=0)
        assert (report.max_bias, report.worst_difference, report.certified) == (0.0, 1, True)

    @pytest.mark.parametrize("n", [1 << 22, 1 << 64, (1 << 40) - 87])
    def test_worst_rough_values_the_bound_allows_keep_the_verdict(self, monkeypatch, n):
        # d = 1: the largest sampled |cos| lie far closer than 2 epsilon, so a
        # rough value that lowers each exact maximum by epsilon and raises
        # every other row by it puts the rough maximum on another row.
        epsilon = qhc.qhash._SCREEN_EPSILON
        ks = self.key_set(n, 1, 0)
        want = self.unscreened(ks, 1)

        def adversary(key_set, differences):
            exact = np.abs(bias(key_set, differences))
            assert np.count_nonzero(exact >= exact.max() - 2 * epsilon) > 1
            return np.where(exact == exact.max(), exact - epsilon, exact + epsilon)

        monkeypatch.setattr(qhc.qhash, "_rough_bias", adversary)
        report = verify_resistance(ks, 0.5, mode="monte-carlo", rng=1)
        assert (report.max_bias, report.worst_difference) == want

    @given(st.sampled_from([1 << 20, 1 << 32, (1 << 32) + 15, (1 << 63) - 25, *MODULI]),
           st.integers(1, 5000), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rough_bias_within_a_hundredth_of_epsilon(self, n, d, seed):
        ks = self.key_set(n, d, seed)
        diffs = rand_below_many(np.random.default_rng(seed + 1), n, max(1, 20000 // ks.d))
        error = np.abs(qhc.qhash._rough_bias(ks, diffs) - np.abs(bias(ks, diffs)))
        assert error.max() < qhc.qhash._SCREEN_EPSILON / 100

    @pytest.mark.parametrize("n", [1 << 54, 1 << 64, 1 << 80])
    def test_screen_ratios_within_2_to_the_minus_53(self, n):
        ks = self.key_set(n, 500, 1)
        values = rand_below_many(np.random.default_rng(2), n, 200)
        rounded = qhc.qhash._residues(ks, values)
        gap = rounded - qhc.qhash._residues(ks, values, truncate=True)
        assert 0.0 <= gap.min() and gap.max() <= 2.0 ** -53

    @pytest.mark.parametrize("n", [(1 << 64) + 13, (1 << 40) - 87, (1 << 33) + 1, 1 << 53, 3 << 20])
    def test_screen_ratios_elsewhere_are_the_rounded_ones(self, n):
        ks = self.key_set(n, 500, 3)
        values = rand_below_many(np.random.default_rng(4), n, 200)
        truncated = qhc.qhash._residues(ks, values, truncate=True)
        assert truncated.tobytes() == qhc.qhash._residues(ks, values).tobytes()

    def test_only_the_screen_truncates(self, monkeypatch):
        ks = self.key_set(1 << 64, 50, 5)
        residues, calls = qhc.qhash._residues, []

        def recorded(key_set, values, truncate=False):
            calls.append(truncate)
            return residues(key_set, values, truncate)

        monkeypatch.setattr(qhc.qhash, "_residues", recorded)
        qhc.qhash._rough_bias(ks, [1, 2, 3])
        bias(ks, [1, 2, 3])
        assert calls == [True, False]


# ---------------------------------------------------------------- search


class TestSearchKeySet:
    def test_hoeffding_sizes(self):
        assert required_keys(1 << 10, 0.3) == 170
        assert required_keys(1 << 8, 0.1) == 1248

    def test_delta_domain(self):
        with pytest.raises(ValueError, match="delta"):
            search_key_set(16, 1.0, seed=0)
        with pytest.raises(ValueError, match="delta"):
            required_keys(16, 0.0)
        with pytest.raises(ValueError, match=r"^delta out of \(0,1\): 1\.5$"):
            verify_resistance(KeySet(modulus=16, keys=(1, 3, 7)), 1.5)

    def test_seeded_search_certifies(self):
        ks = search_key_set(1 << 10, 0.3, seed=7)
        assert ks.d == 170
        assert ks.certified and ks.certification.mode == "exact"
        assert ks.certification.max_bias < 0.3

    def test_bit_reproducible(self):
        assert search_key_set(1 << 10, 0.3, seed=7) == search_key_set(1 << 10, 0.3, seed=7)

    def test_tiny_ring_keeps_every_residue(self):
        ks = search_key_set(2, 0.5, seed=0)
        assert ks.keys == (0, 1)
        assert ks.certification.max_bias < 1e-12

    def test_oversized_demand_falls_back_to_full_ring(self):
        # d formula asks for 108 keys over N = 64; the searcher keeps Z_64
        ks = search_key_set(64, 0.3, seed=5)
        assert ks.d == 64 and ks.keys == tuple(range(64))

    def test_spawns_one_seed_stream_per_attempt_made(self):
        root = np.random.SeedSequence(0)
        ks = search_key_set(1 << 10, 0.3, seed=root)
        assert ks.certified and root.n_children_spawned == 1
        assert ks == search_key_set(1 << 10, 0.3, seed=0)

    def test_all_attempts_refuted_raises(self, monkeypatch):
        def always_refuted(key_set, delta, mode="exact", rng=None):
            return ResistanceReport(certified=False, max_bias=0.97, worst_difference=1,
                                    key_set=key_set, bound=0.97)

        monkeypatch.setattr(qhc.qhash, "verify_resistance", always_refuted)
        with pytest.raises(SearchError) as info:
            search_key_set(1 << 10, 0.3, seed=1)
        assert "in 10 attempts (smallest bound 0.97, best max bias seen 0.97)" in str(info.value)

    def test_full_ring_certifies_by_its_algebra(self, monkeypatch):
        """d = N leaves one set, Z_N, whose keys sum all N-th roots of unity
        at every nonzero D: it certifies on one draw at any delta, with
        nothing swept or priced."""
        monkeypatch.setattr(qhc.qhash, "bias", None)  # a call would fail
        root = np.random.SeedSequence(0)
        ks = search_key_set(1 << 10, 1e-18, seed=root)
        assert root.n_children_spawned == 1
        assert ks.keys == tuple(range(1 << 10)) and ks.certified and ks.delta == 1e-18
        assert ks.certification == Certification(mode="exact", max_bias=0.0)
        report = verify_resistance(ks, 1e-18)
        assert (report.max_bias, report.worst_difference, report.bound) == (0.0, 1, 0.0)


# ------------------------------------------------------------ accounting


@pytest.mark.parametrize("d,qubits", [(16, 5), (1, 1), (170, 9), (2, 2), (1024, 11)])
def test_hash_qubits(d, qubits):
    assert hash_qubits(d) == qubits
    if d <= 64:
        ks = KeySet(modulus=1 << 11, keys=tuple(range(d)))
        assert hash_qubits(ks) == qubits


def test_hash_qubits_needs_a_key():
    with pytest.raises(ValueError, match="^need at least one key$"):
        hash_qubits(0)


# ------------------------------------------------------------ batched draws


@pytest.mark.parametrize(
    "bound", [5, (1 << 21) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) - 1, 1 << 64, 3 << 100]
)
@pytest.mark.parametrize("seed", range(3))
def test_batched_draws_match_per_call_draws(bound, seed):
    """One batched call draws the values, and leaves the generator where,
    one call per try would; an odd 32-bit draw first leaves a spare half
    word that both must use."""
    per_call, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    for gen in (per_call, batched):
        gen.integers(0, 1 << 32)
    want = [rand_below_per_call(per_call, bound) for _ in range(257)]
    assert rand_below_many(batched, bound, 257) == want
    assert batched.integers(0, 1 << 32) == per_call.integers(0, 1 << 32)


def test_draws_need_a_positive_bound():
    with pytest.raises(ValueError, match="^bound must be positive$"):
        rand_below_many(np.random.default_rng(0), 0, 1)
