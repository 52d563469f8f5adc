import math
from itertools import product

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
    FunctionInstance,
    GuardError,
    KeySet,
    LinearPolynomial,
    ProtocolSpec,
    build_spec,
    builtin,
    comm_cost,
    conjunction,
    error_profile,
    run_exact,
    run_sampled,
    run_smp,
    search_key_set,
    verify_resistance,
)
from qhc import protocol
from qhc.protocol import _accepted_trials, _rank
from qhc.util import index_to_bits

from oracles import THREE_POLYS


def full_ring(n: int) -> KeySet:
    return KeySet(modulus=n, keys=tuple(range(n)))


@pytest.fixture(scope="module")
def eq2_spec():
    # EQ on 2+2 bits over Z_4 with the certified pair set {1, 2}
    ks = verify_resistance(KeySet(modulus=4, keys=(1, 2)), 0.6).key_set
    return build_spec(builtin("EQ", 2), ks)


def two_pair_eq2() -> FunctionInstance:
    base = builtin("EQ", 2)
    poly = base.characteristic.polynomials[0]
    return FunctionInstance(
        function=base.function,
        characteristic=Characteristic(base.function, (poly, poly)),
        splits=base.splits + base.splits,
    )


# ---------------------------------------------------------------- wiring


class TestProtocolSpec:
    def test_key_modulus_must_cover_polynomial_modulus(self):
        with pytest.raises(ValueError, match="smaller"):
            build_spec(builtin("EQ", 2), full_ring(2))

    def test_pair_counts_must_match(self):
        inst = two_pair_eq2()
        with pytest.raises(ValueError, match="key sets"):
            ProtocolSpec(
                function=inst.function,
                splits=inst.splits,
                key_sets=(full_ring(4),),
            )

    def test_arity_must_match_split(self):
        with pytest.raises(ValueError, match="split covers"):
            ProtocolSpec(
                function=builtin("EQ", 3).function,
                splits=builtin("EQ", 2).splits,
                key_sets=(full_ring(4),),
            )

    def test_smp_cannot_forward(self):
        inst = builtin("EQ", 2)
        with pytest.raises(ValueError, match="SMP"):
            build_spec(inst, full_ring(4), topology="smp", n1=2, forwarded=(1,))

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            build_spec(builtin("EQ", 2), full_ring(4), topology="broadcast")

    def test_certified_delta_is_weakest_link(self):
        a = verify_resistance(KeySet(modulus=4, keys=(1, 2)), 0.51).key_set
        b = verify_resistance(KeySet(modulus=4, keys=(1, 2)), 0.7).key_set
        spec = build_spec(two_pair_eq2(), [a, b])
        assert spec.bounds_certified and spec.certified_delta == 0.7

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
        spec = build_spec(two_pair_eq2(), verify_resistance(full_ring(4), 0.6).key_set)
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
        ids=lambda v: v.function.name if isinstance(v, FunctionInstance) else str(v),
    )
    def test_one_sided_on_every_input(self, instance, ring):
        spec = build_spec(instance, full_ring(ring))
        for bits in product((0, 1), repeat=instance.function.arity):
            sigma, gamma = bits[: spec.n1], bits[spec.n1 :]
            report = run_exact(spec, sigma, gamma)
            assert (report.exact_accept == 1.0) == (report.f_value == 1)

    def test_broken_polynomial_is_caught(self):
        base = builtin("EQ", 2)
        poly = base.characteristic.polynomials[0]
        bad = LinearPolynomial(modulus=4, coeffs=poly.coeffs, constant=1)
        inst = FunctionInstance(
            function=base.function,
            characteristic=Characteristic(base.function, (bad,)),
            splits=(),
        )
        spec = build_spec(inst, full_ring(4), n1=2)
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
        spec = build_spec(builtin("EQ", 2), KeySet(modulus=4, keys=(1, 2)))
        report = run_exact(spec, (0, 1), (0, 0))
        assert report.certified_delta is None
        assert report.to_json()["bounds"] == {
            "certified": False,
            "note": "key sets not exactly certified",
        }

    def test_report_json_shape(self, eq2_spec):
        doc = run_exact(eq2_spec, (0, 1), (0, 0)).to_json(eq2_spec.summary())
        assert list(doc) == ["spec", "input", "f", "exact_accept", "fidelities", "qubits", "bounds"]
        assert doc["input"] == {"alice": "01", "bob": "00"}
        assert doc["bounds"]["certified"] is True
        assert abs(doc["bounds"]["false_accept"] - 0.5 * (1 + 0.6**2)) < 1e-15
        assert abs(doc["bounds"]["false_accept_linear"] - 0.8) < 1e-15


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

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_chunked_draws_match_one_shot(self, pairs):
        """Chunks of 64 that do not divide 1000 trials read the same uniforms
        as one pairs x trials draw, in the same row-major order."""
        probs = np.random.default_rng(pairs).uniform(0.3, 0.9, size=pairs)
        whole = (np.random.default_rng(7).random((pairs, 1000)) < probs[:, None]).all(axis=0)
        chunked = _accepted_trials(np.random.default_rng(7), probs, 1000, chunk=64)
        assert chunked.dtype == bool and np.array_equal(chunked, whole)
        assert 0 < whole.sum() < 1000

    def test_draw_guard_refuses_before_any_draw(self, monkeypatch):
        """pairs x trials may reach SAMPLE_GUARD_DRAWS and not pass it; a
        stand-in generator shows where a run would start drawing, so
        neither case allocates."""

        class WouldDraw(Exception):
            pass

        def no_generator(seed):
            raise WouldDraw

        spec = build_spec(two_pair_eq2(), full_ring(4))
        most = protocol.SAMPLE_GUARD_DRAWS // 2
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(WouldDraw):
            run_sampled(spec, (0, 1), (0, 0), seed=0, trials=most)
        with pytest.raises(GuardError, match="of 2 x 8388609 draws; guard is 16777216"):
            run_sampled(spec, (0, 1), (0, 0), seed=0, trials=most + 1)


class TestRunSmp:
    def test_equal_inputs_accept_with_certainty(self):
        spec = build_spec(builtin("EQ", 2), full_ring(4), topology="smp")
        report = run_smp(spec, (1, 0), (1, 0))
        assert report.exact_accept == 1.0
        assert report.cost.topology == "smp"

    def test_agrees_with_one_way_route(self, eq2_spec, certified_n64):
        spec = build_spec(builtin("EQ", 2), certified_n64)
        for bits in product((0, 1), repeat=4):
            want = run_exact(spec, bits[:2], bits[2:])
            got = run_smp(spec, bits[:2], bits[2:])
            assert got.fidelities == want.fidelities
            assert got.exact_accept == want.exact_accept

    def test_one_inputs_accept_with_certainty(self):
        """Every 1-input of EQ 3+3 accepts with probability exactly 1 on the
        README's key set, as on the one-way route."""
        spec = build_spec(builtin("EQ", 3), search_key_set(2**10, 0.3, seed=7), topology="smp")
        for sigma in product((0, 1), repeat=3):
            report = run_smp(spec, sigma, sigma)
            assert report.f_value == 1
            assert report.exact_accept == 1.0 and report.fidelities == (1.0,)

    def test_forwarding_rejected(self):
        spec = build_spec(builtin("EQ", 2), full_ring(4), n1=3, forwarded=(3,))
        with pytest.raises(ValueError, match="SMP"):
            run_smp(spec, (1, 0, 1), (0,))


# ----------------------------------------------------------- accounting


class TestCommCost:
    def test_single_pair_one_way(self):
        spec = build_spec(builtin("EQ", 3), KeySet(modulus=32, keys=tuple(range(16))))
        cost = comm_cost(spec)
        assert cost.pair_qubits == (5,)
        assert cost.alice_to_bob == 5 and cost.total == 5
        assert cost.classical_baseline == 3
        assert cost.to_json() == {"forwarded_bits": 0, "alice_to_bob": 5}

    def test_forwarded_bits_ride_along(self):
        ks = KeySet(modulus=32, keys=tuple(range(16)))
        spec = build_spec(two_pair_eq2(), ks, n1=2, forwarded=(1, 2))
        cost = comm_cost(spec)
        assert cost.pair_qubits == (5, 5)
        assert cost.forwarded_bits == 2
        assert cost.total == 12

    def test_smp_counts_both_parties(self):
        spec = build_spec(
            builtin("EQ", 3), KeySet(modulus=32, keys=tuple(range(16))), topology="smp"
        )
        cost = comm_cost(spec)
        assert cost.alice_to_referee == 5 and cost.bob_to_referee == 5
        assert cost.total == 10
        assert cost.to_json() == {
            "forwarded_bits": 0,
            "alice_to_referee": 5,
            "bob_to_referee": 5,
        }


# -------------------------------------------------------------- profiling


class TestErrorProfile:
    def test_worst_false_accept_under_certified_bound(self, certified_n64):
        spec = build_spec(builtin("EQ", 3), certified_n64)
        prof = error_profile(spec)
        assert prof.certified_bound == 0.5 * (1 + 0.3**2)
        assert prof.worst_false_accept <= prof.certified_bound + 1e-9
        assert prof.false_inputs == 64 - 8
        assert sum(prof.histogram) == prof.false_inputs
        assert prof.accept_grid.shape == (8, 8)
        assert np.array_equal(np.diag(prof.f_grid), np.ones(8, dtype=np.uint8))

    def test_rows_enumerate_in_assignment_order(self, certified_n64):
        spec = build_spec(builtin("EQ", 3), certified_n64)
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
        spec = build_spec(builtin("EQ", 3), certified_n64)
        prof = error_profile(spec)
        worst = (prof.accept_grid == prof.worst_false_accept) & (prof.f_grid == 0)
        assert np.unique(prof.codes[worst]).size >= 2
        hits = np.argwhere(worst)
        i, j = (int(x) for x in hits[0])
        assert prof.attaining == (index_to_bits(i, 3), index_to_bits(j, 3))

    def test_every_cell_equals_run_exact_bitwise(self):
        # The grid and the per-input run share one bias kernel, so the
        # profile must reproduce run_exact's float exactly, not just closely.
        spec = build_spec(builtin("EQ", 5), search_key_set(1 << 10, 0.3, seed=1))
        prof = error_profile(spec)
        for i, sigma in enumerate(product((0, 1), repeat=5)):
            for j, gamma in enumerate(product((0, 1), repeat=5)):
                assert prof.accept_grid[i, j] == run_exact(spec, sigma, gamma).exact_accept

    def test_three_pairs_compact_into_codes(self):
        fn = builtin("EQ", 3).function
        polys = tuple(LinearPolynomial.from_json(doc) for doc in THREE_POLYS)
        inst = FunctionInstance(fn, Characteristic(fn, polys), ())
        sets = [search_key_set(1 << 8, 0.3, seed=s) for s in (1, 2, 3)]
        spec = build_spec(inst, sets, n1=3)
        prof = error_profile(spec)
        assert len(prof.values) <= prof.codes.size
        assert np.array_equal(np.unique(prof.codes), np.arange(len(prof.values)))
        assert np.array_equal(prof.accept_grid, prof.values[prof.codes])
        for i, sigma in enumerate(product((0, 1), repeat=3)):
            for j, gamma in enumerate(product((0, 1), repeat=3)):
                assert prof.accept_grid[i, j] == run_exact(spec, sigma, gamma).exact_accept

    @pytest.mark.parametrize("log2_n,table", [(12, False), (6, True)])
    def test_both_rank_branches_match_run_exact(self, log2_n, table, monkeypatch):
        # 64 cells: N = 2^12 keys are ranked by np.unique, N = 64 by the table;
        # the sizes error_profile hands _rank select the branch.
        branches = []

        def spy(keys, size):
            branches.append(size <= keys.size)
            return _rank(keys, size)

        monkeypatch.setattr(protocol, "_rank", spy)
        spec = build_spec(builtin("EQ", 3), search_key_set(1 << log2_n, 0.3, seed=1))
        prof = error_profile(spec)
        assert branches == [table]
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
        plain = error_profile(build_spec(inst, ks))
        moved_spec = build_spec(inst, ks, n1=2, forwarded=(2,))
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
            build_spec(builtin("EQ", 2), certified_n64, n1=2, forwarded=(2,))
        )
        assert np.array_equal(np.diag(moved.f_grid), np.ones(4, dtype=np.uint8))
        assert np.allclose(np.diag(moved.accept_grid), 1.0)
        assert moved.worst_false_accept <= moved.certified_bound + 1e-9

    def test_never_false_function_has_empty_profile(self):
        fn = BooleanFunction("ONE_2", 2, lambda b: np.ones(len(b.bits), dtype=bool))
        inst = FunctionInstance(
            function=fn,
            characteristic=Characteristic(fn, (LinearPolynomial(modulus=4, coeffs=(0, 0)),)),
            splits=(),
        )
        prof = error_profile(build_spec(inst, full_ring(4), n1=1))
        assert prof.false_inputs == 0
        assert prof.worst_false_accept == 0.0
        assert prof.attaining is None
        assert prof.histogram == (0,) * 20

    def test_broken_polynomial_is_caught(self):
        base = builtin("MOD", 4, m=3)
        poly = base.characteristic.polynomials[0]
        bad = LinearPolynomial(modulus=3, coeffs=poly.coeffs, constant=2)
        inst = FunctionInstance(
            function=base.function,
            characteristic=Characteristic(base.function, (bad,)),
            splits=(),
        )
        with pytest.raises(CharacteristicError, match="MOD"):
            error_profile(build_spec(inst, full_ring(3), n1=2))

    def test_enumeration_guard(self):
        spec = build_spec(builtin("EQ", 11), full_ring(1 << 11))
        with pytest.raises(GuardError, match="2\\^22"):
            error_profile(spec)

    def test_wide_modulus_guard(self):
        spec = build_spec(builtin("EQ", 2), KeySet(modulus=1 << 33, keys=(1, 5)))
        with pytest.raises(GuardError, match="2\\^31"):
            error_profile(spec)


class TestCertifiedBound:
    """Every false accept is checked against (1+delta^2)/2 at the certified
    delta, so a false exact certificate is refuted, not reported."""

    @staticmethod
    def forged_spec() -> ProtocolSpec:
        # bias(D) = cos(2 pi D / 16) for the single key 1: 0.92 at D = 1.
        forged = KeySet(16, (1,), delta=0.3, certification=Certification(mode="exact"))
        return build_spec(builtin("EQ", 2), forged)

    @pytest.mark.parametrize("run", [run_exact, run_smp,
                                     lambda *a: run_sampled(*a, seed=0, trials=10)])
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
        eq = base.characteristic.polynomials[0]
        zero = LinearPolynomial(modulus=eq.modulus, coeffs=(0,) * eq.arity)
        inst = FunctionInstance(base.function, Characteristic(base.function, (eq, zero)), ())
        prof = error_profile(build_spec(inst, certified_n64, n1=2))
        assert (0.5 * (1 + 0.3**2)) ** 2 < prof.worst_false_accept <= prof.certified_bound


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


# --------------------------------------------------- cross-route agreement


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_smp_and_one_way_agree_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    inst = builtin("PALINDROME", 6)
    keys = tuple(sorted(int(k) for k in rng.choice(256, size=12, replace=False)))
    spec = build_spec(inst, KeySet(modulus=256, keys=keys))
    bits = tuple(int(b) for b in rng.integers(0, 2, size=6))
    a, b = bits[: spec.n1], bits[spec.n1 :]
    one_way, referee = run_exact(spec, a, b), run_smp(spec, a, b)
    assert referee.fidelities == one_way.fidelities
    assert referee.exact_accept == one_way.exact_accept
