"""Independent oracles the tests check library results against.

Everything here is deliberately written the slow, obvious way — separate
code paths from the package (no shared helpers), so agreement actually
means something.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


# Three polynomials over Z_7 on 6 bits that all vanish exactly when
# x_1 x_2 x_3 = x_4 x_5 x_6, in the JSON form of a ``poly_file``: each
# e_i = x_i - x_{i+3} is -1, 0 or 1, so e_1 + 2 e_2 = 0 and e_2 + 3 e_3 = 0
# (mod 7) force all three to 0.  A three-pair characteristic of EQ whose
# pairs take different values.
THREE_POLYS = [
    {"modulus": "7", "coeffs": ["1", "2", "0", "-1", "-2", "0"]},
    {"modulus": "7", "coeffs": ["0", "1", "3", "0", "-1", "-3"]},
    {"modulus": "7", "coeffs": ["1", "0", "1", "-1", "0", "-1"]},
]


def poly_eval_direct(modulus: int, coeffs, constant: int, bits) -> int:
    """Plain big-int evaluation of constant + sum coeff_i * bit_i mod m."""
    return (constant + sum(c * b for c, b in zip(coeffs, bits))) % modulus


def poly_table_direct(modulus: int, coeffs, constant: int) -> list[int]:
    """Values on all assignments, x_1 as the most significant index bit."""
    return [
        poly_eval_direct(modulus, coeffs, constant, bits)
        for bits in product((0, 1), repeat=len(coeffs))
    ]


def recombined(g1, g2, forwarded) -> tuple[tuple[int, ...], int]:
    """(coeffs, constant) of the joint polynomial over x_1..x_{n1},
    y_1..y_{n2} that a split's g1 and g2 came from: each forwarded
    variable's g2 coefficient folds back onto its x coefficient, mod m."""
    m = g1.modulus
    n2 = g2.arity - len(forwarded)
    coeffs = list(g1.coeffs) + list(g2.coeffs[:n2])
    for pos, i in enumerate(forwarded):
        coeffs[i - 1] = (coeffs[i - 1] + g2.coeffs[n2 + pos]) % m
    return tuple(coeffs), (g1.constant + g2.constant) % m


def eq_direct(bits) -> bool:
    """EQ: the first half of the bits equals the second half."""
    half = len(bits) // 2
    return list(bits[:half]) == list(bits[half:])


def mod_direct(bits, m: int) -> bool:
    """MOD_m: the number of ones is divisible by m."""
    return sum(bits) % m == 0


def modbin_direct(bits, m: int) -> bool:
    """MODBIN_m: the bits, read as a binary number with x_1 least
    significant, give a multiple of m."""
    return int("".join(str(b) for b in reversed(bits)), 2) % m == 0


def palindrome_direct(bits) -> bool:
    """PALINDROME: the bits read the same backwards."""
    return list(bits) == list(reversed(bits))


def perm_direct(bits, n: int) -> bool:
    """PERM_n: the row-major n x n 0/1 matrix has one 1 in every row and
    every column."""
    rows = [list(bits[i * n : (i + 1) * n]) for i in range(n)]
    return all(sum(r) == 1 for r in rows) and all(sum(c) == 1 for c in zip(*rows))


def conj_direct(bits, n_a: int, m_a: int, m_b: int) -> bool:
    """MOD_{m_a} on the first n_a bits AND MODBIN_{m_b} on the rest."""
    return mod_direct(bits[:n_a], m_a) and modbin_direct(bits[n_a:], m_b)


def conj_table_direct(n_a: int, n_b: int, m_a: int, m_b: int) -> np.ndarray:
    """The truth table of MOD_{m_a} on the first n_a bits AND MODBIN_{m_b}
    on the last n_b, over all indices at once: each bit of the index is
    shifted out, counted for the first block and weighted for the second
    (x_{n_a+1}, the high bit of the low n_b, weighs 1)."""
    index = np.arange(1 << (n_a + n_b), dtype=np.int64)
    ones = sum((index >> (n_b + i)) & 1 for i in range(n_a))
    value = sum(((index >> (n_b - 1 - i)) & 1) << i for i in range(n_b))
    return ((ones % m_a == 0) & (value % m_b == 0)).astype(np.uint8)


def all_vanish_direct(polys, bits) -> bool:
    """A polynomial set read as a function: every (modulus, coeffs,
    constant) in ``polys`` evaluates to 0 on the bits."""
    return all(poly_eval_direct(m, coeffs, c, bits) == 0 for m, coeffs, c in polys)


def profile_csv_direct(n1: int, n2: int, f_grid, accept_grid) -> str:
    """The profile CSV written one row at a time: sigma and gamma as bit
    strings (x_1 first, empty for an empty side), f as 0/1, accept as the
    repr of a Python float."""
    lines = ["sigma,gamma,f,exact_accept"]
    for i, sigma in enumerate(product((0, 1), repeat=n1)):
        for j, gamma in enumerate(product((0, 1), repeat=n2)):
            lines.append(
                "".join(str(b) for b in sigma) + ","
                + "".join(str(b) for b in gamma) + ","
                + str(int(f_grid[i][j])) + ","
                + repr(float(accept_grid[i][j]))
            )
    return "\n".join(lines) + "\n"


def bias_direct(keys, modulus: int, difference: int) -> float:
    """Cosine-average fidelity via a bare math.cos loop."""
    total = 0.0
    for k in keys:
        total += math.cos(2.0 * math.pi * ((k * difference) % modulus) / modulus)
    return total / len(keys)


def hash_amplitudes_direct(keys, modulus: int, value: int) -> np.ndarray:
    """The hash state of ``value`` as its 2d amplitudes: for each key k the
    pair cos(2 pi r / N), sin(2 pi r / N), r = (k * value) mod N taken in
    Python integers, each scaled by 1/sqrt(d)."""
    scale = 1.0 / math.sqrt(len(keys))
    amps = []
    for k in keys:
        angle = 2.0 * math.pi * ((k * value) % modulus) / modulus
        amps += [math.cos(angle) * scale, math.sin(angle) * scale]
    return np.array(amps)


def residue_ratios_direct(keys, values, modulus: int) -> list[list[float]]:
    """(k * v) mod N over N, one row per value: the residue in Python
    integers, rounded to float64 by float(), then divided by float(N)."""
    return [[float((k * v) % modulus) / float(modulus) for k in keys] for v in values]


def max_bias_direct(keys, modulus: int) -> tuple[float, int]:
    """(max |bias|, smallest attaining difference) by looping every D."""
    best, arg = -1.0, 1
    for d in range(1, modulus):
        b = abs(bias_direct(keys, modulus, d))
        if b > best + 1e-15:
            best, arg = b, d
    return best, arg


def rand_below_per_call(rng: np.random.Generator, bound: int) -> int:
    """One uniform value in [0, bound), one generator call per try: a bounded
    integers() draw up to 2^63; above, ceil(bits / 32) 32-bit words read
    most significant first, cut to the bound's bit length and rejected when
    not below it."""
    if bound <= 1 << 63:
        return int(rng.integers(0, bound))
    nbits = bound.bit_length()
    nwords = -(-nbits // 32)
    while True:
        words = rng.integers(0, 1 << 32, size=nwords, dtype=np.uint64)
        value = int("".join(format(int(w), "032b") for w in words), 2) >> (32 * nwords - nbits)
        if value < bound:
            return value


def swap_circuit_accept(a: np.ndarray, b: np.ndarray) -> float:
    """Statevector simulation of the swap test on two real state vectors.

    Builds the full (2 * D^2)-dimensional joint system ancilla (x) a (x) b
    with explicit Hadamard and controlled-swap matrices, applies
    H . CSWAP . H, and returns the probability of measuring the ancilla
    in |0>.
    """
    dim = a.size
    assert b.size == dim
    joint = dim * dim
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h_anc = np.kron(h, np.eye(joint))
    cswap = np.zeros((2 * joint, 2 * joint))
    for anc in (0, 1):
        for i in range(dim):
            for j in range(dim):
                src = anc * joint + i * dim + j
                dst = anc * joint + (j * dim + i if anc == 1 else i * dim + j)
                cswap[dst, src] = 1.0
    psi = np.kron(np.array([1.0, 0.0]), np.kron(a, b))
    psi = h_anc @ (cswap @ (h_anc @ psi))
    return float(np.sum(psi[:joint] ** 2))


def bias_rows_direct(keys, modulus: int, differences) -> np.ndarray:
    """bias at each difference, one row at a time: D and every k * D reduced
    with % in Python integers, each residue rounded to float64 by float()
    and divided by float(N), then the row's cosines of 2 pi times that
    ratio averaged with numpy's mean."""
    out = np.empty(len(differences))
    for i, difference in enumerate(differences):
        dd = int(difference) % modulus
        ratios = np.array([float((k * dd) % modulus) for k in keys]) / float(modulus)
        out[i] = np.cos(2.0 * np.pi * ratios).mean()
    return out
