import math
import re
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc import (
    BooleanFunction,
    BoundError,
    Certification,
    Characteristic,
    CharacteristicError,
    GuardError,
    KeySet,
    LinearPolynomial,
    ProtocolSpec,
    bias,
    builtin,
    conjunction,
    error_profile,
    run_exact,
    run_sampled,
    search_key_set,
    verify_resistance,
)
from qhc import protocol
from qhc.boolfn import polynomial_instance
from qhc.protocol import _rank
from qhc.util import index_to_bits

from oracles import THREE_POLYS, profile_csv_direct


def full_ring(n: int) -> KeySet:
    return KeySet(modulus=n, keys=tuple(range(n)))


@pytest.fixture(scope="module")
def eq2_spec():
    # EQ on 2+2 bits over Z_4 with the certified pair set {1, 2}
    ks = verify_resistance(KeySet(modulus=4, keys=(1, 2)), 0.6).key_set
    return ProtocolSpec(builtin("EQ", 2), ks)


def two_pair_eq2() -> Characteristic:
    base = builtin("EQ", 2)
    poly = base.polynomials[0]
    return Characteristic(base.function, (poly, poly), base.n1)


def three_pair_eq2() -> Characteristic:
    base = builtin("EQ", 2)
    poly = base.polynomials[0]
    return Characteristic(base.function, (poly,) * 3, base.n1)


# ---------------------------------------------------------------- wiring


class TestProtocolSpec:
    def test_key_modulus_must_cover_polynomial_modulus(self):
        with pytest.raises(ValueError, match="smaller"):
            ProtocolSpec(builtin("EQ", 2), full_ring(2))

    def test_pair_counts_must_match(self):
        inst = two_pair_eq2()
        with pytest.raises(ValueError, match="key sets"):
            ProtocolSpec(inst, (full_ring(4),))

    def test_smp_cannot_forward(self):
        inst = builtin("EQ", 2)
        with pytest.raises(ValueError, match="SMP"):
            ProtocolSpec(inst, full_ring(4), topology="smp", n1=2, forwarded=(1,))

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            ProtocolSpec(builtin("EQ", 2), full_ring(4), topology="broadcast")

    def test_certified_delta_is_weakest_link(self):
        a = verify_resistance(KeySet(modulus=4, keys=(1, 2)), 0.51).key_set
        b = verify_resistance(KeySet(modulus=4, keys=(1, 2)), 0.7).key_set
        spec = ProtocolSpec(two_pair_eq2(), [a, b])
        assert spec.certified_delta == 0.7  # not None: every set is certified

    def test_a_bare_key_set_is_shared_by_every_pair(self):
        ks = full_ring(4)
        assert ProtocolSpec(two_pair_eq2(), ks).key_sets == (ks, ks)

    def test_cut_defaults_to_the_natural_cut(self):
        char = conjunction(2, 3)
        spec = ProtocolSpec(char, full_ring(16))
        assert spec.n1 == char.n1 == 2
        assert spec == ProtocolSpec(char, full_ring(16), "one-way", 2, ())

    def test_sequences_are_kept_as_tuples(self):
        a = verify_resistance(KeySet(modulus=4, keys=(1, 2)), 0.51).key_set
        b = full_ring(4)
        listed = ProtocolSpec(two_pair_eq2(), [a, b], forwarded=[1])
        tupled = ProtocolSpec(two_pair_eq2(), (a, b), forwarded=(1,))
        assert (listed.key_sets, listed.forwarded) == ((a, b), (1,))
        assert listed == tupled and hash(listed) == hash(tupled)

    def test_replace_rebuilds_the_spec(self):
        spec = ProtocolSpec(builtin("EQ", 2), full_ring(4))
        smp = replace(spec, topology="smp")
        assert smp == ProtocolSpec(builtin("EQ", 2), full_ring(4), topology="smp")
        assert smp.total_qubits == 2 * spec.total_qubits
        assert smp.splits == spec.splits

    def test_summary_shape(self, eq2_spec):
        doc = eq2_spec.summary()
        assert doc["function"] == "EQ_2"
        assert (doc["n1"], doc["n2"], doc["pairs"]) == (2, 2, 1)
        assert doc["modulus"] == "4"
        assert doc["key_sets"][0]["d"] == 2


# ------------------------------------------------------------- execution


class TestRunExact:
    def test_equal_inputs_accept_with_certainty(self, eq2_spec):
        report = run_exact(eq2_spec, (1, 0), (1, 0))
        assert report.f_value == 1
        assert report.exact_accept == 1.0
        assert report.fidelities == (1.0,)

    def test_unequal_pair_coin_flip(self, eq2_spec):
        # u = 2, v = 0: both keys' cosines cancel, so the swap test is blind
        report = run_exact(eq2_spec, (0, 1), (0, 0))
        assert report.f_value == 0
        assert abs(report.exact_accept - 0.5) < 1e-12

    def test_two_pairs_multiply(self):
        spec = ProtocolSpec(two_pair_eq2(), verify_resistance(full_ring(4), 0.6).key_set)
        report = run_exact(spec, (0, 1), (0, 0))
        assert abs(report.exact_accept - 0.25) < 1e-12
        assert len(report.fidelities) == 2

    @pytest.mark.parametrize(
        "instance,ring",
        [
            (builtin("EQ", 2), 4),
            (builtin("MOD", 4, m=3), 3),
            (builtin("MODBIN", 4, m=5), 5),
            (builtin("PALINDROME", 4), 4),
            (builtin("PERM", 2), 81),
            (conjunction(2, 2), 12),
        ],
        ids=lambda v: v.function.name if isinstance(v, Characteristic) else str(v),
    )
    def test_one_sided_on_every_input(self, instance, ring):
        spec = ProtocolSpec(instance, full_ring(ring))
        for bits in product((0, 1), repeat=instance.function.arity):
            sigma, gamma = bits[: spec.n1], bits[spec.n1 :]
            report = run_exact(spec, sigma, gamma)
            assert (report.exact_accept == 1.0) == (report.f_value == 1)

    def test_broken_polynomial_is_caught(self):
        base = builtin("EQ", 2)
        poly = base.polynomials[0]
        bad = LinearPolynomial(modulus=4, coeffs=poly.coeffs, constant=1)
        inst = Characteristic(base.function, (bad,), 2)
        spec = ProtocolSpec(inst, full_ring(4))
        with pytest.raises(CharacteristicError, match="EQ_2"):
            run_exact(spec, (1, 1), (1, 1))

    def test_input_validation(self, eq2_spec):
        with pytest.raises(ValueError, match="alice"):
            run_exact(eq2_spec, (1,), (0, 0))
        with pytest.raises(ValueError, match="bob"):
            run_exact(eq2_spec, (1, 0), (0,))
        with pytest.raises(ValueError, match="0/1"):
            run_exact(eq2_spec, (1, 2), (0, 0))

    def test_uncertified_keys_flagged(self):
        spec = ProtocolSpec(builtin("EQ", 2), KeySet(modulus=4, keys=(1, 2)))
        report = run_exact(spec, (0, 1), (0, 0))
        assert report.spec.certified_delta is None
        assert report.to_json()["bounds"] == {
            "certified": False,
            "note": "key sets not exactly certified",
        }

    def test_report_json_shape(self, eq2_spec):
        doc = run_exact(eq2_spec, (0, 1), (0, 0)).to_json()
        assert list(doc) == ["spec", "input", "f", "exact_accept", "fidelities", "qubits", "bounds"]
        assert doc["input"] == {"alice": "01", "bob": "00"}
        assert doc["bounds"]["certified"] is True
        assert abs(doc["bounds"]["false_accept"] - 0.5 * (1 + 0.6**2)) < 1e-15

    @pytest.mark.parametrize("topology", ["one-way", "smp"])
    def test_report_json_embeds_the_spec_summary(self, eq2_spec, topology):
        spec = replace(eq2_spec, topology=topology)
        for report in (run_exact(spec, (0, 1), (0, 1)),
                       run_sampled(spec, (0, 1), (0, 0), seed=3, trials=16)):
            assert report.to_json()["spec"] == spec.summary()


class TestRunSampled:
    def test_ones_always_accept(self, eq2_spec):
        report = run_sampled(eq2_spec, (1, 1), (1, 1), seed=3, trials=500)
        assert report.sampled_bit == 1
        assert report.sample_accepts == 500

    def test_frequency_tracks_exact_probability(self, eq2_spec):
        trials = 100_000
        report = run_sampled(eq2_spec, (0, 1), (0, 0), seed=11, trials=trials)
        sigma = math.sqrt(trials * 0.25)
        assert abs(report.sample_accepts - 0.5 * trials) <= 3 * sigma

    def test_seeded_repeat_is_identical(self, eq2_spec):
        a = run_sampled(eq2_spec, (0, 1), (1, 0), seed=21, trials=64)
        b = run_sampled(eq2_spec, (0, 1), (1, 0), seed=21, trials=64)
        assert a == b
        assert a.to_json()["sampled"]["frequency"] == a.sample_accepts / 64

    def test_trials_floor(self, eq2_spec):
        with pytest.raises(ValueError):
            run_sampled(eq2_spec, (0, 0), (0, 0), seed=0, trials=0)
        with pytest.raises(ValueError, match="outside 1..9223372036854775807"):
            run_sampled(eq2_spec, (0, 0), (0, 0), seed=0, trials=1 << 63)

    @pytest.mark.parametrize("instance", [two_pair_eq2, three_pair_eq2])
    def test_trials_accept_with_the_product_over_pairs(self, instance):
        """Each trial accepts with exact_accept, the product of the pairs'
        terms (1/2 each here), not with one pair's term."""
        spec = ProtocolSpec(instance(), full_ring(4))
        p = run_exact(spec, (0, 1), (0, 0)).exact_accept
        assert p == 0.5**spec.l
        bits = sum(run_sampled(spec, (0, 1), (0, 0), seed=s).sampled_bit for s in range(400))
        assert abs(bits - 400 * p) <= 4 * math.sqrt(400 * p * (1 - p))
        trials = 10**6
        report = run_sampled(spec, (0, 1), (0, 0), seed=5, trials=trials)
        assert abs(report.sample_accepts - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))

    @pytest.mark.parametrize("instance", [two_pair_eq2, three_pair_eq2])
    def test_ones_accept_every_trial_up_to_the_binomial_limit(self, instance):
        spec = ProtocolSpec(instance(), full_ring(4))
        trials = (1 << 63) - 1
        report = run_sampled(spec, (1, 0), (1, 0), seed=0, trials=trials)
        assert report.sampled_bit == 1 and report.sample_accepts == trials


class TestRunSmp:
    def test_equal_inputs_accept_with_certainty(self):
        spec = ProtocolSpec(builtin("EQ", 2), full_ring(4), topology="smp")
        report = run_exact(spec, (1, 0), (1, 0))
        assert report.exact_accept == 1.0
        assert report.spec.topology == "smp"
        assert "alice_to_referee" in report.to_json()["qubits"]

    def test_agrees_with_one_way_route(self, eq2_spec, certified_n64):
        spec = ProtocolSpec(builtin("EQ", 2), certified_n64)
        smp = replace(spec, topology="smp")
        for bits in product((0, 1), repeat=4):
            want = run_exact(spec, bits[:2], bits[2:])
            got = run_exact(smp, bits[:2], bits[2:])
            assert got.fidelities == want.fidelities
            assert got.exact_accept == want.exact_accept

    def test_one_inputs_accept_with_certainty(self):
        """Every 1-input of EQ 3+3 accepts with probability exactly 1 on the
        README's key set, as on the one-way route."""
        spec = ProtocolSpec(builtin("EQ", 3), search_key_set(2**10, 0.3, seed=7), topology="smp")
        for sigma in product((0, 1), repeat=3):
            report = run_exact(spec, sigma, sigma)
            assert report.f_value == 1
            assert report.exact_accept == 1.0 and report.fidelities == (1.0,)

    def test_forwarding_rejected(self):
        spec = ProtocolSpec(builtin("EQ", 2), full_ring(4), n1=3, forwarded=(3,))
        with pytest.raises(ValueError, match="SMP"):
            run_exact(replace(spec, topology="smp"), (1, 0, 1), (0,))


# ----------------------------------------------------------- accounting


class TestCommCost:
    def test_single_pair_one_way(self):
        spec = ProtocolSpec(builtin("EQ", 3), KeySet(modulus=32, keys=tuple(range(16))))
        assert spec.party_qubits == 5
        assert spec.qubits()["alice_to_bob"] == 5 and spec.total_qubits == 5
        assert spec.n1 == 3  # the classical baseline: Alice sends her input
        assert spec.qubits() == {"forwarded_bits": 0, "alice_to_bob": 5}

    def test_forwarded_bits_ride_along(self):
        ks = KeySet(modulus=32, keys=tuple(range(16)))
        spec = ProtocolSpec(two_pair_eq2(), ks, n1=2, forwarded=(1, 2))
        assert spec.party_qubits == 5 + 5
        assert spec.qubits()["forwarded_bits"] == 2
        assert spec.total_qubits == 12

    def test_smp_counts_both_parties(self):
        spec = ProtocolSpec(
            builtin("EQ", 3), KeySet(modulus=32, keys=tuple(range(16))), topology="smp"
        )
        qubits = spec.qubits()
        assert qubits["alice_to_referee"] == 5 and qubits["bob_to_referee"] == 5
        assert spec.total_qubits == 10
        assert qubits == {
            "forwarded_bits": 0,
            "alice_to_referee": 5,
            "bob_to_referee": 5,
        }


# -------------------------------------------------------------- profiling


class TestErrorProfile:
    def test_worst_false_accept_under_certified_bound(self, certified_n64):
        spec = ProtocolSpec(builtin("EQ", 3), certified_n64)
        prof = error_profile(spec)
        assert prof.spec is spec and spec.certified_bound == 0.5 * (1 + 0.3**2)
        assert prof.worst_false_accept <= spec.certified_bound + 1e-9
        assert prof.false_inputs == 64 - 8
        assert sum(prof.histogram) == prof.false_inputs
        assert prof.accept_grid.shape == (8, 8)
        assert np.array_equal(np.diag(prof.f_grid), np.ones(8, dtype=np.uint8))

    def test_rows_enumerate_in_assignment_order(self, certified_n64):
        spec = ProtocolSpec(builtin("EQ", 3), certified_n64)
        prof = error_profile(spec)
        blocks = list(prof.csv_blocks())
        assert len(blocks) == 1 + 8  # the header, then one block per sigma
        header, *rows = "".join(blocks).splitlines()
        assert header == "sigma,gamma,f,exact_accept"
        assert len(rows) == 64
        assert rows[0] == "000,000,1,1.0"
        assert rows[1].split(",")[:3] == ["000", "001", "0"]
        recomputed = run_exact(spec, (0, 0, 0), (0, 0, 1)).exact_accept
        assert rows[1].split(",")[3] == repr(recomputed)

    def test_attaining_input_is_first_in_row_major_order(self, certified_n64):
        # bias(D) = bias(N - D): here the worst value is held by several
        # codes, and the first row-major cell among all of them is reported.
        spec = ProtocolSpec(builtin("EQ", 3), certified_n64)
        prof = error_profile(spec)
        worst = (prof.accept_grid == prof.worst_false_accept) & (prof.f_grid == 0)
        assert np.unique(prof.codes[worst]).size >= 2
        hits = np.argwhere(worst)
        i, j = (int(x) for x in hits[0])
        assert prof.attaining == (index_to_bits(i, 3), index_to_bits(j, 3))

    def test_every_cell_equals_run_exact_bitwise(self):
        # The grid and the per-input run share one bias kernel, so the
        # profile must reproduce run_exact's float exactly, not just closely.
        spec = ProtocolSpec(builtin("EQ", 5), search_key_set(1 << 10, 0.3, seed=1))
        prof = error_profile(spec)
        for i, sigma in enumerate(product((0, 1), repeat=5)):
            for j, gamma in enumerate(product((0, 1), repeat=5)):
                assert prof.accept_grid[i, j] == run_exact(spec, sigma, gamma).exact_accept

    def test_three_pairs_compact_into_codes(self):
        fn = builtin("EQ", 3).function
        polys = tuple(LinearPolynomial.from_json(doc) for doc in THREE_POLYS)
        inst = Characteristic(fn, polys, 3)
        sets = [search_key_set(1 << 8, 0.3, seed=s) for s in (1, 2, 3)]
        spec = ProtocolSpec(inst, sets)
        prof = error_profile(spec)
        assert len(prof.values) <= prof.codes.size
        assert np.array_equal(np.unique(prof.codes), np.arange(len(prof.values)))
        assert np.array_equal(prof.accept_grid, prof.values[prof.codes])
        for i, sigma in enumerate(product((0, 1), repeat=3)):
            for j, gamma in enumerate(product((0, 1), repeat=3)):
                assert prof.accept_grid[i, j] == run_exact(spec, sigma, gamma).exact_accept

    @pytest.mark.parametrize("log2_n,table", [(12, False), (6, True)])
    def test_both_rank_branches_match_run_exact(self, log2_n, table, monkeypatch):
        # 64 cells: EQ 3+3's differences span 2m = 16 and are ranked by the
        # table, MODBIN_1009's span 2m = 2018 and are ranked by np.unique;
        # the sizes error_profile hands _rank select the branch.  The Alice
        # classes are ranked by _rank too: the differences' call has size 2m.
        branches = {}

        def spy(keys, size):
            branches[size] = size <= keys.size
            return _rank(keys, size)

        monkeypatch.setattr(protocol, "_rank", spy)
        instance = builtin("EQ", 3) if table else builtin("MODBIN", 6, m=1009)
        spec = ProtocolSpec(instance, search_key_set(1 << log2_n, 0.3, seed=1))
        prof = error_profile(spec)
        assert branches[2 * spec.modulus] == table
        assert prof.codes.shape == (8, 8)
        for i, sigma in enumerate(product((0, 1), repeat=3)):
            for j, gamma in enumerate(product((0, 1), repeat=3)):
                assert prof.accept_grid[i, j] == run_exact(spec, sigma, gamma).exact_accept
        hist, _ = np.histogram(prof.accept_grid[prof.f_grid == 0], 20, (0, 1))
        assert prof.histogram == tuple(hist.tolist())

    def test_forwarding_is_a_pure_refactoring_when_moduli_match(self):
        # With the key modulus equal to the polynomial modulus, moving a
        # coefficient to Bob's side leaves every hashed difference -- and so
        # the whole acceptance grid -- bit-for-bit unchanged.
        ks = verify_resistance(KeySet(modulus=4, keys=(1, 2)), 0.6).key_set
        inst = builtin("EQ", 2)
        plain = error_profile(ProtocolSpec(inst, ks))
        moved_spec = ProtocolSpec(inst, ks, n1=2, forwarded=(2,))
        moved = error_profile(moved_spec)
        assert np.array_equal(plain.accept_grid, moved.accept_grid)
        for bits in product((0, 1), repeat=4):
            direct = run_exact(moved_spec, bits[:2], bits[2:])
            i, j = int(np.dot(bits[:2], [2, 1])), int(np.dot(bits[2:], [2, 1]))
            assert direct.exact_accept == pytest.approx(moved.accept_grid[i, j], abs=1e-12)

    def test_forwarding_under_wider_key_modulus_stays_sound(self, certified_n64):
        # With a key modulus strictly wider than the polynomial's, the
        # hashed differences change class representative mod N, so exact
        # probabilities may shift -- but one-sidedness and the certified
        # bound must survive.
        moved = error_profile(
            ProtocolSpec(builtin("EQ", 2), certified_n64, n1=2, forwarded=(2,))
        )
        assert np.array_equal(np.diag(moved.f_grid), np.ones(4, dtype=np.uint8))
        assert np.allclose(np.diag(moved.accept_grid), 1.0)
        assert moved.worst_false_accept <= moved.spec.certified_bound + 1e-9

    def test_never_false_function_has_empty_profile(self):
        fn = BooleanFunction("ONE_2", 2, lambda b: np.ones(len(b.bits), dtype=bool))
        zero = LinearPolynomial(modulus=4, coeffs=(0, 0))
        inst = Characteristic(fn, (zero,), 1)
        prof = error_profile(ProtocolSpec(inst, full_ring(4)))
        assert prof.false_inputs == 0
        assert prof.worst_false_accept == 0.0
        assert prof.attaining is None
        assert prof.histogram == (0,) * 20

    def test_broken_polynomial_is_caught(self):
        base = builtin("MOD", 4, m=3)
        poly = base.polynomials[0]
        bad = LinearPolynomial(modulus=3, coeffs=poly.coeffs, constant=2)
        inst = Characteristic(base.function, (bad,), 2)
        with pytest.raises(CharacteristicError, match="MOD"):
            error_profile(ProtocolSpec(inst, full_ring(3)))

    @pytest.mark.parametrize("keys", [KeySet(1 << 64, (1,)), KeySet(16, (1, 5, 9))],
                             ids=["fidelity-rounds-to-1", "N16"])
    def test_one_sided_check_is_exact_on_integers(self, keys):
        """EQ 2's polynomial plus 1 is nonzero on every 1-input.  Under the
        key 1 over N = 2^64 every fidelity cos(2 pi D / 2^64) rounds to 1.0,
        so only a check on the hash points, not on the accept, refuses it."""
        base = builtin("EQ", 2)
        poly = base.polynomials[0]
        bad = LinearPolynomial(modulus=4, coeffs=poly.coeffs, constant=1)
        spec = ProtocolSpec(Characteristic(base.function, (bad,), 2), keys)
        for refuse in (lambda: run_exact(spec, (0, 0), (0, 0)), lambda: error_profile(spec)):
            with pytest.raises(CharacteristicError, match="1-input 00,00 .* EQ_2$"):
                refuse()

    def test_first_offending_input_matches_run_exact(self):
        """One of two pairs breaks only where the forwarded x1 is 1; the
        profile names the first such 1-input in assignment order, with the
        message run_exact gives for it."""
        base = builtin("EQ", 3)
        poly = base.polynomials[0]
        bad = LinearPolynomial(poly.modulus, (poly.coeffs[0] + 1,) + poly.coeffs[1:])
        inst = Characteristic(base.function, (poly, bad), 3)
        spec = ProtocolSpec(inst, KeySet(1 << 64, (1,)), forwarded=(1,))
        first = None
        for bits in product((0, 1), repeat=6):
            try:
                run_exact(spec, bits[:3], bits[3:])
            except CharacteristicError as e:
                first = first or str(e)
        assert first is not None and "pair 1 " in first and "1-input 100,100 " in first
        with pytest.raises(CharacteristicError) as info:
            error_profile(spec)
        assert str(info.value) == first

    def test_alice_class_splits_where_f_differs(self):
        """x3 - y2 over Z_2 vanishes on every 1-input of F = [x3 = y2] and
        not (x1 = y1 = 1), and on the 0-inputs with x1 = y1 = 1 too.  The
        rows with the same x3 share u and pattern, but those with x1 = 1 have
        a different f row, so the profile keeps the whole grid."""

        def rule(b):
            x1, x3, y1, y2 = b.bits[:, 0], b.bits[:, 2], b.bits[:, 3], b.bits[:, 4]
            return (x3 == y2) & ~((x1 == 1) & (y1 == 1))

        fn = BooleanFunction("F", 5, rule)
        poly = LinearPolynomial(modulus=2, coeffs=(0, 0, 1, 0, -1))
        spec = ProtocolSpec(Characteristic(fn, (poly,), 3), KeySet(64, (1, 5, 9)))
        prof = error_profile(spec)
        assert prof.worst_false_accept == 1.0  # a vanishing 0-input collides
        assert len(prof.cells) == 8 and np.array_equal(prof.row_class, np.arange(8))
        assert_profile_is_direct(prof)

    def test_class_rows_kept(self):
        """CONJ 9+9 with x1 forwarded: 512 Alice rows, 6 messages (x1, and
        the count of ones in x2..x9 mod 3).  EQ 10+10: every message is
        distinct, so every row is kept, in order."""
        conj = error_profile(ProtocolSpec(conjunction(9, 9), search_key_set(1 << 12, 0.3, seed=1),
                                          forwarded=(1,)))
        assert len(conj.cells) == 6 and conj.row_class.shape == (512,)
        assert np.bincount(conj.row_class).sum() == 512
        eq = error_profile(ProtocolSpec(builtin("EQ", 10), search_key_set(1 << 10, 0.3, seed=1)))
        assert len(eq.cells) == 1024 and np.array_equal(eq.row_class, np.arange(1024))

    @pytest.mark.parametrize("n_a,n1", [(3, 5), (4, 7)])
    def test_class_keys_wider_than_the_rows(self, n_a, n1):
        """CONJ n_a+n_a with Bob holding one bit: both pairs' u are fixed by
        Alice's count of ones mod 3 and her binary value mod 4, so 12
        classes.  The second pair's keys span 12 classes x m = 144, more
        than the 32 or 128 rows; they are ranked all the same, and the 12
        class rows are kept."""
        prof = error_profile(ProtocolSpec(conjunction(n_a, n_a), KeySet(16, (1, 3, 5)), n1=n1))
        assert len(prof.cells) == 12
        assert_profile_is_direct(prof)

    def test_no_class_ranking_when_bob_holds_no_bits(self, monkeypatch):
        """MODBIN 6 mod 101 with Alice holding every bit: a row is one cell,
        so no Alice keys are ranked.  The only table wider than its keys is
        the differences' 2m flags, which every profile takes."""
        spec = ProtocolSpec(builtin("MODBIN", 6, m=101), KeySet(256, (1, 5, 9)), n1=6)
        assert spec.n2 == 0 and spec.modulus > 1 << spec.n1
        calls = []

        def rank(keys, size):
            calls.append((keys.size, size))
            return _rank(keys, size)

        monkeypatch.setattr(protocol, "_rank", rank)
        prof = error_profile(spec)
        assert [size for n, size in calls if size > n] == [2 * spec.modulus]
        assert np.array_equal(prof.row_class, np.arange(64))
        assert_profile_is_direct(prof)

    def test_enumeration_guard(self):
        spec = ProtocolSpec(builtin("EQ", 11), full_ring(1 << 11))
        with pytest.raises(GuardError, match="2\\^22"):
            error_profile(spec)

    def test_wide_modulus_guard(self):
        # The polynomial modulus is guarded; the key modulus is not.
        spec = ProtocolSpec(builtin("MODBIN", 4, m=(1 << 31) + 11), KeySet(1 << 33, (1, 5)))
        with pytest.raises(GuardError, match="polynomial modulus .* 2\\^31"):
            error_profile(spec)

    @pytest.mark.parametrize("n", [1 << 64, (1 << 32) - 5, (1 << 80) + 7],
                             ids=["2^64", "2^32-5", "2^80+7"])
    def test_key_moduli_past_2_31_match_run_exact(self, n):
        # Signed differences u - v lie in (-m, m) whatever N; bias reduces them.
        spec = ProtocolSpec(builtin("EQ", 8), search_key_set(n, 0.3, seed=2))
        prof = error_profile(spec)
        cells = np.random.default_rng(0).integers(0, 256, size=(200, 2)).tolist()
        for i, j in cells + [[3, 3]]:
            report = run_exact(spec, index_to_bits(i, 8), index_to_bits(j, 8))
            assert prof.accept_grid[i, j] == report.exact_accept
        assert prof.worst_false_accept == run_exact(spec, *prof.attaining).exact_accept
        assert prof.false_inputs == (1 << 16) - (1 << 8)


class TestCertifiedBound:
    """Every false accept is checked against (1+delta^2)/2 at the certified
    delta, so a false exact certificate is refuted, not reported."""

    @staticmethod
    def forged_spec() -> ProtocolSpec:
        # bias(D) = cos(2 pi D / 16) for the single key 1: 0.92 at D = 1.
        forged = KeySet(16, (1,), delta=0.3, certification=Certification(mode="exact"))
        return ProtocolSpec(builtin("EQ", 2), forged)

    @pytest.mark.parametrize("run", [
        run_exact,
        pytest.param(lambda spec, *a: run_exact(replace(spec, topology="smp"), *a), id="run_smp"),
        lambda *a: run_sampled(*a, seed=0, trials=10),
    ])
    def test_runs_refute_a_false_certificate(self, run):
        spec = self.forged_spec()
        assert run(spec, (1, 0), (1, 0)).exact_accept == 1.0
        with pytest.raises(BoundError, match="0-input 10,00 exceeds the certified bound 0.545"):
            run(spec, (1, 0), (0, 0))

    def test_profile_refutes_a_false_certificate(self):
        with pytest.raises(BoundError, match="0-input 01,10"):
            error_profile(self.forged_spec())

    def test_bound_holds_per_pair_not_per_polynomial(self, certified_n64):
        # A zero polynomial adds a pair that always collides, so a 0-input may
        # differ in one pair only: ((1+delta^2)/2)^2 fails, (1+delta^2)/2 holds.
        base = builtin("EQ", 2)
        eq = base.polynomials[0]
        zero = LinearPolynomial(modulus=eq.modulus, coeffs=(0,) * eq.arity)
        inst = Characteristic(base.function, (eq, zero), 2)
        prof = error_profile(ProtocolSpec(inst, certified_n64))
        assert (0.5 * (1 + 0.3**2)) ** 2 < prof.worst_false_accept <= prof.spec.certified_bound


@pytest.mark.parametrize("table", [True, False])
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_rank_equals_np_unique(table, data):
    # table: size <= keys.size, ranked by flags; otherwise np.unique's sort.
    shape = data.draw(st.sampled_from([(1,), (7,), (12,), (1, 1), (3, 4), (5, 2)]))
    count = int(np.prod(shape))
    size = data.draw(st.integers(1, count) if table else st.integers(count + 1, 4 * count))
    form = data.draw(st.sampled_from(["any", "equal", "top"]))
    if form == "equal":
        keys = [data.draw(st.integers(0, size - 1))] * count
    else:
        keys = data.draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count))
        if form == "top":
            keys[data.draw(st.integers(0, count - 1))] = size - 1
    keys = np.array(keys, dtype=np.int64).reshape(shape)
    uniq, inv = _rank(keys, size)
    want_uniq, want_inv = np.unique(keys, return_inverse=True)
    assert np.array_equal(uniq, want_uniq) and uniq.dtype.kind == want_uniq.dtype.kind
    assert inv.shape == keys.shape and inv.dtype.kind == want_inv.dtype.kind
    assert np.array_equal(inv, want_inv.reshape(shape))


# Two polynomials over Z_3 on 6 bits as a polynomial file: Alice's half
# takes only 3 values per polynomial, so her rows repeat.
REPEATING_POLYS = [
    {"modulus": "3", "coeffs": ["1", "1", "1", "-1", "-1", "-1"]},
    {"modulus": "3", "coeffs": ["1", "2", "0", "0", "-1", "-2"], "constant": "1"},
]

PROFILED = {
    "EQ 3": lambda: builtin("EQ", 3),
    "THREE_POLYS": lambda: polynomial_instance(
        [LinearPolynomial.from_json(doc) for doc in THREE_POLYS]),
    "MOD_3 6": lambda: builtin("MOD", 6, m=3),
    "MODBIN_5 6": lambda: builtin("MODBIN", 6, m=5),
    "CONJ 3+3": lambda: conjunction(3, 3),
    "REPEATING_POLYS": lambda: polynomial_instance(
        [LinearPolynomial.from_json(doc) for doc in REPEATING_POLYS]),
}


def profile_direct(spec: ProtocolSpec):
    """Every cell by run_exact, and the f = 0 summaries read off them."""
    reports = [[run_exact(spec, sigma, gamma) for gamma in product((0, 1), repeat=spec.n2)]
               for sigma in product((0, 1), repeat=spec.n1)]
    accept = [[r.exact_accept for r in row] for row in reports]
    f_grid = [[r.f_value for r in row] for row in reports]
    zeros = [r for row in reports for r in row if r.f_value == 0]  # row-major order
    worst = max((r.exact_accept for r in zeros), default=0.0)
    first = next((r for r in zeros if r.exact_accept == worst), None)
    hist, _ = np.histogram([r.exact_accept for r in zeros], bins=20, range=(0.0, 1.0))
    summary = (worst, first and (first.alice, first.bob), len(zeros), tuple(hist.tolist()))
    return accept, f_grid, summary


def assert_profile_is_direct(prof) -> None:
    spec = prof.spec
    accept, f_grid, summary = profile_direct(spec)
    assert prof.accept_grid.tolist() == accept
    assert prof.f_grid.tolist() == f_grid
    assert (prof.worst_false_accept, prof.attaining, prof.false_inputs,
            prof.histogram) == summary
    assert "".join(prof.csv_blocks()) == profile_csv_direct(spec.n1, spec.n2, f_grid, accept)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_profile_prices_each_residue_once(data):
    # With m <= N < 2m, differences D in (-m, m) and D - N share a residue
    # mod N: bias prices each residue that occurs once, and every cell, the
    # f = 0 summaries and the CSV keep run_exact's bits.  The instances
    # include builtins and polynomial files whose Alice rows repeat (MOD,
    # MODBIN, CONJ, REPEATING_POLYS), which the profile keeps once per class.
    inst = PROFILED[data.draw(st.sampled_from(sorted(PROFILED)), label="instance")]()
    m, n = inst.modulus, inst.function.arity
    modulus = m + data.draw(st.sampled_from([0, min(3, m - 1)]), label="N - m")  # N < 2m
    n1 = data.draw(st.sampled_from([0, n // 2, n]), label="n1")  # 0 and n: an empty side
    forwarded = data.draw(st.lists(st.integers(1, max(n1, 1)), unique=True, max_size=min(n1, 2)),
                          label="fwd")
    keys = st.lists(st.integers(0, modulus - 1), min_size=1, max_size=4, unique=True)
    sets = [KeySet(modulus, data.draw(keys, label="keys")) for _ in range(len(inst))]
    spec = ProtocolSpec(inst, sets, n1=n1, forwarded=forwarded)

    priced = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "bias", lambda ks, d: priced.append(np.asarray(d)) or bias(ks, d))
        prof = error_profile(spec)
    assert len(priced) == spec.l
    for residues in priced:
        assert np.array_equal(residues, np.unique(residues))
        assert 0 <= residues.min() and residues.max() < modulus
    assert_profile_is_direct(prof)


# --------------------------------------------------- cross-route agreement


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_smp_and_one_way_agree_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    inst = builtin("PALINDROME", 6)
    keys = tuple(sorted(int(k) for k in rng.choice(256, size=12, replace=False)))
    spec = ProtocolSpec(inst, KeySet(modulus=256, keys=keys))
    bits = tuple(int(b) for b in rng.integers(0, 2, size=6))
    a, b = bits[: spec.n1], bits[spec.n1 :]
    one_way, referee = run_exact(spec, a, b), run_exact(replace(spec, topology="smp"), a, b)
    assert referee.fidelities == one_way.fidelities
    assert referee.exact_accept == one_way.exact_accept


def test_readme_tour_prints_what_it_claims(capsys):
    """README.md's library tour runs as written and prints 1.0, then 9
    qubits, then a worst false accept within (1 + 0.3^2)/2."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})
    accept, qubits, worst = capsys.readouterr().out.split()
    assert (accept, qubits) == ("1.0", "9")
    assert 0 < float(worst) <= (1 + 0.3**2) / 2
