from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc import (
    BooleanFunction,
    Characteristic,
    GuardError,
    KeySet,
    LinearPolynomial,
    build_spec,
    builtin,
    conjunction,
    verify_characteristic,
)
from qhc import boolfn
from qhc.boolfn import polynomial_instance
from qhc.util import bit_matrix, index_to_bits

from oracles import (
    all_vanish_direct,
    conj_direct,
    conj_table_direct,
    eq_direct,
    mod_direct,
    modbin_direct,
    palindrome_direct,
    perm_direct,
    poly_eval_direct,
    poly_table_direct,
    recombined,
)

# The modulus that pushes polynomial tables past int64 in the benchmark.
BIG_M = (1 << 64) + 13


# ----------------------------------------------------------- polynomials


class TestLinearPolynomial:
    def test_eq_identical_operands_cancel(self):
        p = builtin("EQ", 3).characteristic.polynomials[0]
        assert p.evaluate((1, 0, 1, 1, 0, 1)) == 0

    def test_mod3_all_ones(self):
        p = builtin("MOD", 3, m=3).characteristic.polynomials[0]
        assert p.evaluate((1, 1, 1)) == 0

    def test_palindrome4_sample_input(self):
        # x1 + 2 x2 - 2 x3 - x4 mod 4 on 1011 gives 1 - 3 = 2
        p = builtin("PALINDROME", 4).characteristic.polynomials[0]
        assert p.evaluate((1, 0, 1, 1)) == 2
        # and the whole 16-row table agrees with the direct oracle
        assert list(p.table()) == poly_table_direct(p.modulus, p.coeffs, p.constant)

    def test_length_mismatch(self):
        p = LinearPolynomial(modulus=5, coeffs=(1, 2, 3))
        with pytest.raises(ValueError, match="3 variables"):
            p.evaluate((1, 0))

    def test_modulus_floor(self):
        with pytest.raises(ValueError):
            LinearPolynomial(modulus=1, coeffs=(0,))

    @given(
        m=st.integers(2, 1 << 70),
        coeffs=st.lists(st.integers(-(1 << 80), 1 << 80), min_size=1, max_size=6),
        constant=st.integers(-(1 << 80), 1 << 80),
    )
    def test_reduction_is_canonical(self, m, coeffs, constant):
        p = LinearPolynomial(modulus=m, coeffs=tuple(coeffs), constant=constant)
        assert all(0 <= c < m for c in p.coeffs) and 0 <= p.constant < m
        # re-reducing stored residues is a no-op
        assert LinearPolynomial(modulus=m, coeffs=p.coeffs, constant=p.constant) == p

    @given(
        m=st.integers(2, 10**6),
        n=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_table_matches_direct_oracle(self, m, n, data):
        coeffs = tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
        constant = data.draw(st.integers(0, m - 1))
        p = LinearPolynomial(modulus=m, coeffs=coeffs, constant=constant)
        assert list(p.table()) == poly_table_direct(m, coeffs, constant)

    def test_table_big_modulus_stays_exact(self):
        m = (1 << 80) + 1
        p = LinearPolynomial(modulus=m, coeffs=(1 << 79, (1 << 80) - 3), constant=m - 1)
        assert list(p.table()) == poly_table_direct(m, p.coeffs, p.constant)

    def test_table_past_int64_is_an_array_of_python_ints(self):
        p = LinearPolynomial(
            modulus=BIG_M, coeffs=(BIG_M - 1, 1 << 63, BIG_M - 7, 5, 1 << 40), constant=BIG_M - 2
        )
        table = p.table()
        assert isinstance(table, np.ndarray)
        assert all(type(v) is int for v in table)
        assert table.tolist() == poly_table_direct(p.modulus, p.coeffs, p.constant)

    def test_json_round_trip(self):
        p = builtin("PERM", 3).characteristic.polynomials[0]
        assert LinearPolynomial.from_json(p.to_json()) == p
        assert all(isinstance(v, str) for v in p.to_json()["coeffs"])


# -------------------------------------------------------------- builtins


def test_eq4_printed_coefficients():
    p = builtin("EQ", 4).characteristic.polynomials[0]
    assert p.modulus == 16
    assert p.coeffs == (1, 2, 4, 8, 15, 14, 12, 8)  # (-1,-2,-4,-8) reduced


def test_perm2_instantiation():
    p = builtin("PERM", 2).characteristic.polynomials[0]
    assert p.modulus == 81
    assert p.coeffs[0] == 10  # 3^0 + 3^2
    assert p.constant == 41  # -(1+3+9+27) mod 81
    # identity and the swap permutation both vanish
    assert p.evaluate((1, 0, 0, 1)) == 0
    assert p.evaluate((0, 1, 1, 0)) == 0
    # a non-permutation does not
    assert p.evaluate((1, 1, 0, 1)) != 0


def test_palindrome5_middle_variable_drops_out():
    p = builtin("PALINDROME", 5).characteristic.polynomials[0]
    assert p.modulus == 4
    assert p.coeffs[2] == 0


def test_palindrome_even_overlap_term_vanishes():
    # the second sum starts one index early for even n; its extra
    # coefficient is 2^(n/2) = 0 mod 2^(n//2), so nothing changes
    p = builtin("PALINDROME", 6).characteristic.polynomials[0]
    assert p.coeffs == (1, 2, 4 - 8 + 8, 8 - 4, 8 - 2, 8 - 1)


def test_perm6_arithmetic_is_exact():
    inst = builtin("PERM", 6)
    p = inst.characteristic.polynomials[0]
    assert p.modulus == 7**12
    identity = tuple(1 if i == j else 0 for i in range(6) for j in range(6))
    assert p.evaluate(identity) == 0
    assert poly_eval_direct(p.modulus, p.coeffs, p.constant, identity) == 0
    almost = (0,) + identity[1:]
    assert p.evaluate(almost) == poly_eval_direct(p.modulus, p.coeffs, p.constant, almost) != 0


@pytest.mark.parametrize("name,n,m", [("MOD", 4, 1), ("MODBIN", 4, None)])
def test_builtin_bad_modulus(name, n, m):
    with pytest.raises(ValueError):
        builtin(name, n, m=m)


def test_function_refuses_the_wrong_number_of_bits():
    with pytest.raises(ValueError, match="^EQ_2 takes 4 bits, got 3$"):
        builtin("EQ", 2).function((0, 1, 0))


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("XOR", 4)


@pytest.mark.parametrize("name,n", [("EQ", 4), ("PALINDROME", 4), ("PERM", 2)])
def test_builtin_rejects_modulus_override(name, n):
    with pytest.raises(ValueError, match=f"^{name}'s modulus is fixed"):
        builtin(name, n, m=3)


# ------------------------------------------------- rules against oracles


FAMILY_ORACLES = [
    (builtin("EQ", 1), eq_direct),
    (builtin("EQ", 4), eq_direct),
    (builtin("MOD", 7, m=3), lambda bits: mod_direct(bits, 3)),
    (builtin("MOD", 6, m=BIG_M), lambda bits: mod_direct(bits, BIG_M)),
    (builtin("MODBIN", 8, m=5), lambda bits: modbin_direct(bits, 5)),
    (builtin("MODBIN", 7, m=BIG_M), lambda bits: modbin_direct(bits, BIG_M)),
    (builtin("PALINDROME", 6), palindrome_direct),
    (builtin("PALINDROME", 7), palindrome_direct),
    (builtin("PERM", 2), lambda bits: perm_direct(bits, 2)),
    (builtin("PERM", 3), lambda bits: perm_direct(bits, 3)),
    (conjunction(3, 4), lambda bits: conj_direct(bits, 3, 3, 4)),
    (conjunction(2, 5, m_a=5, m_b=3), lambda bits: conj_direct(bits, 2, 5, 3)),
    (conjunction(4, 3, m_a=2, m_b=9), lambda bits: conj_direct(bits, 4, 2, 9)),
]


@pytest.mark.parametrize(
    "instance,oracle", FAMILY_ORACLES, ids=[i.function.name for i, _ in FAMILY_ORACLES]
)
def test_rule_matches_oracle_on_every_input(instance, oracle):
    fn = instance.function
    want = [int(oracle(bits)) for bits in product((0, 1), repeat=fn.arity)]
    assert fn.truth_table().tolist() == want
    assert [fn(bits) for bits in product((0, 1), repeat=fn.arity)] == want


@pytest.mark.parametrize(
    "n,start,stop",
    [
        (0, 0, None),
        (1, 0, None),
        (7, 0, None),
        (24, (1 << 16) - 40, (1 << 16) + 40),  # across a 2^16 boundary
        (24, (1 << 24) - 3, None),
    ],
)
def test_bit_matrix_rows_are_index_to_bits(n, start, stop):
    rows = bit_matrix(n, start, stop)
    indices = range(start, 1 << n if stop is None else stop)
    assert rows.dtype == np.uint8 and rows.shape == (len(indices), n)
    assert [tuple(r) for r in rows.tolist()] == [index_to_bits(i, n) for i in indices]


def test_index_to_bits_refuses_an_index_past_n_bits():
    with pytest.raises(ValueError, match="^index 4 out of range for 2 bits$"):
        index_to_bits(4, 2)


@pytest.mark.parametrize("m", [5, BIG_M])
def test_wide_modbin_is_exact_pointwise(m):
    # 70 bits overflow int64; multiples of m make both outcomes appear.
    rng = np.random.default_rng(70)
    fn = builtin("MODBIN", 70, m=m).function
    inputs = [tuple(int(b) for b in rng.integers(0, 2, size=70)) for _ in range(100)]
    for _ in range(100):
        value = m * (int(rng.integers(0, 1 << 62)) % ((1 << 70) // m))
        inputs.append(tuple((value >> i) & 1 for i in range(70)))
    got = [fn(bits) for bits in inputs]
    assert got == [int(modbin_direct(bits, m)) for bits in inputs]
    assert 0 < sum(got) < len(inputs)


def test_wide_conjunction_is_exact_pointwise():
    rng = np.random.default_rng(72)
    fn = conjunction(2, 70).function
    inputs = [tuple(int(b) for b in rng.integers(0, 2, size=72)) for _ in range(400)]
    got = [fn(bits) for bits in inputs]
    assert got == [int(conj_direct(bits, 2, 3, 4)) for bits in inputs]
    assert 0 < sum(got) < len(inputs)


@st.composite
def small_functions(draw):
    """A builtin, a conjunction or a polynomial-set (``poly_file``) function
    of at most 10 variables, with its oracle.  Polynomial sets are drawn over
    a small ring and over BIG_M, so their rule runs in int64 and in Python
    ints."""
    kind = draw(st.sampled_from(["EQ", "MOD", "MODBIN", "PALINDROME", "PERM", "CONJ", "POLY"]))
    if kind == "EQ":
        return builtin("EQ", draw(st.integers(1, 5))).function, eq_direct
    if kind in ("MOD", "MODBIN"):
        n, m = draw(st.integers(1, 10)), draw(st.one_of(st.integers(2, 40), st.just(BIG_M)))
        oracle = mod_direct if kind == "MOD" else modbin_direct
        return builtin(kind, n, m=m).function, lambda bits: oracle(bits, m)
    if kind == "PALINDROME":
        return builtin("PALINDROME", draw(st.integers(2, 10))).function, palindrome_direct
    if kind == "PERM":
        n = draw(st.integers(1, 3))
        return builtin("PERM", n).function, lambda bits: perm_direct(bits, n)
    if kind == "CONJ":
        n_a, n_b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        m_a, m_b = draw(st.sampled_from([(3, 4), (2, 9), (5, 3), (7, 2)]))
        fn = conjunction(n_a, n_b, m_a=m_a, m_b=m_b).function
        return fn, lambda bits: conj_direct(bits, n_a, m_a, m_b)
    n, m = draw(st.integers(1, 8)), draw(st.one_of(st.integers(2, 12), st.just(BIG_M)))
    residue = st.integers(0, m - 1)
    polys = [(m, tuple(draw(residue) for _ in range(n)), draw(residue))
             for _ in range(draw(st.integers(1, 3)))]
    fn = polynomial_instance([LinearPolynomial(*p) for p in polys]).function
    return fn, lambda bits: all_vanish_direct(polys, bits)


@given(case=small_functions())
@settings(max_examples=80, deadline=None)
def test_table_pointwise_and_oracle_agree_at_every_index(case):
    fn, oracle = case
    table = fn.truth_table()
    for i in range(1 << fn.arity):
        bits = index_to_bits(i, fn.arity)
        assert table[i] == fn(bits) == int(oracle(bits)), (fn.name, bits)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pointwise_past_62_bits_matches_oracle(data):
    """Indices of 70 and 80 bits are exact Python ints; each case is drawn
    as a 1-input or as arbitrary bits, so both outcomes occur."""
    kind = data.draw(st.sampled_from(["EQ", "PALINDROME", "MODBIN"]))
    one = data.draw(st.booleans())
    if kind == "EQ":
        fn, oracle = builtin("EQ", 40).function, eq_direct
        half = data.draw(st.lists(st.integers(0, 1), min_size=40, max_size=40))
        other = half if one else data.draw(st.lists(st.integers(0, 1), min_size=40, max_size=40))
        bits = tuple(half + other)
    elif kind == "PALINDROME":
        fn, oracle = builtin("PALINDROME", 70).function, palindrome_direct
        half = data.draw(st.lists(st.integers(0, 1), min_size=35, max_size=35))
        other = half[::-1] if one else data.draw(
            st.lists(st.integers(0, 1), min_size=35, max_size=35))
        bits = tuple(half + other)
    else:
        m = data.draw(st.integers((1 << 63) + 1, 1 << 70))
        fn = builtin("MODBIN", 70, m=m).function
        value = m * data.draw(st.integers(0, (1 << 70) // m - 1)) if one else data.draw(
            st.integers(0, (1 << 70) - 1))
        bits = tuple((value >> i) & 1 for i in range(70))  # x_1 least significant
        oracle = lambda b: modbin_direct(b, m)  # noqa: E731
    got = fn(bits)
    assert got == int(oracle(bits))
    if one:
        assert got == 1


@pytest.mark.parametrize("instance", [builtin("EQ", 10), builtin("PALINDROME", 15)],
                         ids=["EQ_10", "PALINDROME_15"])
def test_index_rules_build_no_bit_rows(instance, monkeypatch):
    calls = []
    monkeypatch.setattr(boolfn, "bit_matrix", lambda *a: calls.append(a) or bit_matrix(*a))
    table = instance.function.truth_table()
    assert calls == [] and table.sum() > 0
    builtin("MOD", 15, m=3).function.truth_table()  # a rule that reads bits
    assert len(calls) == 2


# ----------------------------------------------------------- verification


@pytest.mark.parametrize(
    "name,n,m",
    [
        ("EQ", 2, None),
        ("EQ", 4, None),
        ("EQ", 6, None),
        ("MOD", 5, 2),
        ("MOD", 9, 3),
        ("MOD", 12, 7),
        ("MODBIN", 8, 5),
        ("MODBIN", 11, 6),
        ("PALINDROME", 2, None),
        ("PALINDROME", 7, None),
        ("PALINDROME", 12, None),
        ("PERM", 2, None),
        ("PERM", 3, None),
    ],
)
def test_builtins_verify_valid(name, n, m):
    report = verify_characteristic(builtin(name, n, m=m).characteristic)
    assert report.valid
    arity = builtin(name, n, m=m).function.arity
    assert report.checked == 1 << arity


def test_mismatched_pair_returns_first_violation():
    eq_poly = builtin("EQ", 2).characteristic.polynomials[0]
    mod2 = builtin("MOD", 4, m=2).function
    report = verify_characteristic(Characteristic(function=mod2, polynomials=(eq_poly,)))
    assert not report.valid
    # 0000 has f=1 and g=0; the first disagreement is the smallest index
    # where the zero pattern and the truth table split
    idx = next(
        i
        for i, bits in enumerate(product((0, 1), repeat=4))
        if (eq_poly.evaluate(bits) == 0) != (mod2(bits) == 1)
    )
    assert report.counterexample == index_to_bits(idx, 4)


def test_builtin_size_guard_refuses_before_building():
    cap = boolfn.BUILTIN_GUARD_VARS
    assert builtin("MOD", cap, m=3).function.arity == cap  # at the guard: built
    for make, arity in ((lambda: builtin("MOD", cap + 1, m=3), cap + 1),
                        (lambda: builtin("EQ", cap // 2 + 1), cap + 2),
                        (lambda: builtin("PERM", 91), 91 * 91),
                        (lambda: builtin("PALINDROME", 20000), 20000),
                        (lambda: conjunction(cap // 2, cap // 2 + 1), cap + 1)):
        with pytest.raises(GuardError, match=f"has {arity} variables; builtin guard is {cap}"):
            make()
    with pytest.raises(ValueError, match="unknown builtin 'XOR'"):  # the name is checked first
        builtin("XOR", 10**12)


def test_verify_guard_refuses_large_arity():
    big = BooleanFunction("BIG", 25, lambda b: np.ones(len(b.bits), dtype=bool))
    poly = LinearPolynomial(modulus=2, coeffs=(0,) * 25)
    with pytest.raises(GuardError, match="n <= 24"):
        verify_characteristic(Characteristic(function=big, polynomials=(poly,)))


def test_tables_refuse_past_the_enumeration_guard():
    """25 variables are refused before a 2^25-row table is built."""
    big = BooleanFunction("BIG", 25, lambda b: pytest.fail("tabulated past the guard"))
    with pytest.raises(GuardError, match=r"^refusing to tabulate 25 variables \(guard: 24\)$"):
        big.truth_table()
    with pytest.raises(GuardError, match=r"^refusing to tabulate 25 variables \(guard: 24\)$"):
        LinearPolynomial(modulus=2, coeffs=(0,) * 25).table()


# ------------------------------------------- splits at a protocol spec's cut


def spec_at(instance, n1=None, forwarded=()):
    """A spec over ``instance`` cut at ``n1``; its one key plays no part in the split."""
    return build_spec(instance, KeySet(instance.characteristic.modulus, (1,)), n1=n1,
                      forwarded=forwarded)


@given(
    m=st.integers(2, 10**9),
    n=st.integers(1, 10),
    data=st.data(),
)
@settings(max_examples=60)
def test_split_recombine_round_trip(m, n, data):
    coeffs = tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
    poly = LinearPolynomial(modulus=m, coeffs=coeffs, constant=data.draw(st.integers(0, m - 1)))
    n1 = data.draw(st.integers(0, n))
    fwd = data.draw(st.permutations(range(1, n1 + 1))) if n1 else []
    fwd = tuple(fwd[: data.draw(st.integers(0, n1))])
    spec = spec_at(polynomial_instance([poly]), n1, fwd)
    (g1, g2), = spec.splits
    assert recombined(g1, g2, spec.forwarded) == (poly.coeffs, poly.constant)
    assert (g1.arity, g2.arity, spec.k) == (n1, n - n1 + len(fwd), len(fwd))


def test_split_eval_identity_exhaustive():
    # MODBIN_5 on 6 bits, and CONJ 3+4, whose two pairs are each checked
    for instance, n1, forwarded in ((builtin("MODBIN", 6, m=5), 4, (2, 4)),
                                    (conjunction(3, 4), 3, (1, 3))):
        spec = spec_at(instance, n1, forwarded)
        polys = instance.characteristic.polynomials
        assert len(spec.splits) == len(polys)
        for bits in product((0, 1), repeat=instance.function.arity):
            sigma, gamma = bits[:n1], bits[n1:]
            bob = gamma + tuple(sigma[i - 1] for i in forwarded)  # his bits, then forwarded ones
            for poly, (g1, g2) in zip(polys, spec.splits):
                assert (g1.evaluate(sigma) + g2.evaluate(bob)) % poly.modulus == poly.evaluate(bits)


def test_split_forwarded_validation():
    eq3 = builtin("EQ", 3)
    with pytest.raises(ValueError, match=r"forwarded index 3 outside Alice's 1\.\.2"):
        spec_at(eq3, 2, forwarded=(3,))
    with pytest.raises(ValueError, match="forwarded indices must be distinct"):
        spec_at(eq3, 3, forwarded=(1, 1))
    with pytest.raises(ValueError, match=r"cut 7 outside 0\.\.6"):
        spec_at(eq3, 7)


def test_pure_split_has_empty_g1_constant():
    for inst in (builtin("EQ", 4), builtin("PERM", 2)):  # PERM's constant is nonzero
        spec = spec_at(inst)
        (g1, g2), = spec.splits
        assert spec.k == 0
        assert g1.constant == 0
        assert g2.constant == inst.characteristic.polynomials[0].constant
        assert g1.arity == g2.arity == inst.n1 == inst.function.arity - inst.n1


# ------------------------------------------------------------ conjunction


def test_conjunction_is_two_polynomial_characteristic():
    inst = conjunction(3, 3)
    assert len(inst.characteristic) == 2
    assert inst.characteristic.modulus == 12
    report = verify_characteristic(inst.characteristic)
    assert report.valid
    # each polynomial alone must already vanish exactly on f^{-1}(1)
    for poly in inst.characteristic.polynomials:
        solo = Characteristic(function=inst.function, polynomials=(poly,))
        assert verify_characteristic(solo).valid


@pytest.mark.parametrize("m_a,m_b", [(3, 4), (2, 5), (5, 3), (2, 9)])
def test_conjunction_other_moduli(m_a, m_b):
    inst = conjunction(2, 3, m_a=m_a, m_b=m_b)
    assert verify_characteristic(inst.characteristic).valid
    p, q = inst.characteristic.polynomials
    assert p != q


@pytest.mark.parametrize("n_a,n_b,m_a,m_b", [(9, 9, 3, 4), (3, 16, 3, 4), (5, 12, 2, 9)])
def test_conjunction_table_across_blocks(n_a, n_b, m_a, m_b, monkeypatch):
    # Blocks of 2^14 rows: at 9+9 and 5+12 one block holds several high
    # halves, at 3+16 each high half spans several blocks.  m_a = 2 takes
    # the other pair of units.  Bit rows are built for high halves only.
    assert boolfn._TABLE_BLOCK_ROWS < 1 << (n_a + n_b)
    assert conj_table_direct(2, 3, m_a, m_b).tolist() == [
        int(conj_direct(bits, 2, m_a, m_b)) for bits in product((0, 1), repeat=5)]
    widths = []
    monkeypatch.setattr(boolfn, "bit_matrix", lambda n, *a: widths.append(n) or bit_matrix(n, *a))
    inst = conjunction(n_a, n_b, m_a=m_a, m_b=m_b)
    table = inst.function.truth_table()
    assert set(widths) == {n_a}
    assert np.array_equal(table, conj_table_direct(n_a, n_b, m_a, m_b))
    assert 0 < table.sum() < table.size
    if m_a == 2:
        assert verify_characteristic(inst.characteristic).valid
    # The rule takes any range of consecutive indices, also one whose low
    # halves wrap past 2^n_b - 1 back to 0.
    for start in ((1 << n_b) - 100, 3 << n_b, 5 * (1 << n_b) - 7):
        stop = min(start + (1 << 14), table.size)
        block = boolfn.Block(n_a + n_b, np.arange(start, stop, dtype=np.int64))
        assert np.array_equal(inst.function.rule(block), table[start:stop])


def test_conjunction_rejects_common_factor():
    with pytest.raises(ValueError, match="coprime"):
        conjunction(2, 2, m_a=4, m_b=6)


@pytest.mark.parametrize("polys,why", [
    ([LinearPolynomial(5, (1, 2)), LinearPolynomial(7, (1, 2))], "share one modulus"),
    ([LinearPolynomial(5, (1, 2)), LinearPolynomial(5, (1, 2, 3))], "arity 3 != function arity 2"),
    ([], "at least one polynomial"),
])
def test_polynomial_instance_refuses_mixed_sets(polys, why):
    with pytest.raises(ValueError, match=why):
        polynomial_instance(polys)
