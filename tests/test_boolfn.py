import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc import (
    BooleanFunction,
    Characteristic,
    GuardError,
    LinearPolynomial,
    builtin,
    characteristic_from_table,
    conjunction,
    split_polynomial,
    verify_characteristic,
)
from qhc import boolfn
from qhc.cli import _instance_from_polys
from qhc.util import bit_matrix, index_to_bits

from oracles import (
    all_vanish_direct,
    conj_direct,
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


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("XOR", 4)


def test_builtin_rejects_modulus_override():
    with pytest.raises(ValueError):
        builtin("EQ", 4, m=7)


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
    of at most 10 variables, with its oracle."""
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
    n, m = draw(st.integers(1, 8)), draw(st.integers(2, 12))
    residue = st.integers(0, m - 1)
    polys = [(m, tuple(draw(residue) for _ in range(n)), draw(residue))
             for _ in range(draw(st.integers(1, 3)))]
    fn = _instance_from_polys([LinearPolynomial(*p) for p in polys], "polys.json").function
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


def test_verify_guard_refuses_large_arity():
    big = BooleanFunction("BIG", 25, lambda b: np.ones(len(b.bits), dtype=bool))
    poly = LinearPolynomial(modulus=2, coeffs=(0,) * 25)
    with pytest.raises(GuardError, match="n <= 24"):
        verify_characteristic(Characteristic(function=big, polynomials=(poly,)))


# ---------------------------------------------------------- decomposition


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
    deco = split_polynomial(poly, n1, fwd)
    assert recombined(deco) == (poly.coeffs, poly.constant)
    assert deco.k == len(fwd)


def test_split_eval_identity_exhaustive():
    poly = builtin("MODBIN", 6, m=5).characteristic.polynomials[0]
    deco = split_polynomial(poly, 4, forwarded=(2, 4))
    for bits in product((0, 1), repeat=6):
        sigma, gamma = bits[:4], bits[4:]
        u = deco.g1.evaluate(sigma)
        r = deco.g2.evaluate(deco.bob_argument(sigma, gamma))
        assert (u + r) % poly.modulus == poly.evaluate(bits)


def test_split_forwarded_validation():
    poly = builtin("EQ", 3).characteristic.polynomials[0]
    with pytest.raises(ValueError, match="outside Alice's"):
        split_polynomial(poly, 2, forwarded=(3,))
    with pytest.raises(ValueError, match="distinct"):
        split_polynomial(poly, 3, forwarded=(1, 1))
    with pytest.raises(ValueError, match="cut"):
        split_polynomial(poly, 7)


def test_pure_split_has_empty_g1_constant():
    deco = builtin("EQ", 4).splits[0]
    assert deco.k == 0
    assert deco.g1.constant == 0
    assert deco.n1 == deco.n2 == 4


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


def test_conjunction_rejects_common_factor():
    with pytest.raises(ValueError, match="coprime"):
        conjunction(2, 2, m_a=4, m_b=6)


# --------------------------------------------- search for characteristics


def test_characteristic_from_table_finds_eq2_over_z16():
    eq2 = builtin("EQ", 2)
    found = characteristic_from_table(eq2.function, 16, rng=0)
    assert found is not None
    assert verify_characteristic(found).valid
    # determinism: same seed, same polynomial
    again = characteristic_from_table(eq2.function, 16, rng=0)
    assert again.polynomials == found.polynomials


def test_characteristic_from_table_or_has_no_linear_form():
    # OR forces c1 = c2 = -c0 and then c0 = 0, contradicting g(00) != 0,
    # over every ring — the honest answer is None
    or2 = BooleanFunction("OR_2", 2, lambda b: (b.bits == 1).any(1))
    assert characteristic_from_table(or2, 16, attempts=4000, rng=0) is None
    assert characteristic_from_table(or2, 7, attempts=4000, rng=1) is None


# What the search found before it scored candidates in row blocks, for
# rng = 0..3: EQ_2 over Z_16 (many characteristics, so the draw order shows)
# and x_1 = x_9 over Z_2 (one characteristic, refuted only past row 256).
RECORDED_SEARCHES = {
    "EQ_2": [(15, 9, 1, 7), (3, 4, 13, 12), (9, 10, 7, 6), (3, 14, 13, 2)],
    "ENDS_9": [(1, 0, 0, 0, 0, 0, 0, 0, 1)] * 4,
}


@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_characteristic_from_table_blocks_keep_recorded_results(monkeypatch, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(boolfn, "_SCORE_BLOCK_ROWS", block_rows)
    functions = {
        "EQ_2": (builtin("EQ", 2).function, 16),
        "ENDS_9": (BooleanFunction("ENDS_9", 9, lambda b: b.bits[:, 0] == b.bits[:, 8]), 2),
    }
    for name, (function, modulus) in functions.items():
        for seed, coeffs in enumerate(RECORDED_SEARCHES[name]):
            (poly,) = characteristic_from_table(function, modulus, rng=seed).polynomials
            assert (poly.modulus, poly.coeffs, poly.constant) == (modulus, coeffs, 0)


def test_characteristic_from_table_memory_is_bounded():
    """2048 candidates against 2^12 rows took a 128 MiB peak when the whole
    table was scored at once."""
    mod3 = builtin("MOD", 12, m=3).function
    tracemalloc.start()
    try:
        assert characteristic_from_table(mod3, 7, attempts=2048, rng=0) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_characteristic_from_table_big_modulus_path():
    never = BooleanFunction("NEVER", 2, lambda b: np.zeros(len(b.bits), dtype=bool))
    found = characteristic_from_table(never, (1 << 70) + 3, attempts=50, rng=2)
    assert found is not None and verify_characteristic(found).valid
