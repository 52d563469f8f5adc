"""Boolean functions and their linear characteristic polynomials over Z_m.

A *characteristic polynomial* of f: {0,1}^n -> {0,1} is a polynomial g over
some residue ring Z_m with g(sigma) = 0 exactly when f(sigma) = 1.  A
*characteristic* is a nonempty set of such polynomials, each individually
vanishing exactly on f^{-1}(1).  A :class:`FunctionInstance` adds the
natural Alice/Bob cut; a :class:`qhc.protocol.ProtocolSpec` splits the
polynomials there (or at any other cut, with any Alice bits forwarded) and
tests them conjunctively, so nothing here knows how a split is laid out.
A polynomial set given without a function is its own function
(:func:`polynomial_instance`).

Only linear polynomials are represented: every builtin family here is
linear, and the protocol layer evaluates polynomials pointwise, so degree
> 1 would be unexercised machinery.

All arithmetic is exact over Python integers; moduli routinely exceed 64
bits (PERM_n uses (n+1)^(2n)).  numpy fast paths are used only when the
modulus provably fits.

A Boolean function is one array ``rule`` over a :class:`Block` of
assignments: their indices, plus their bit matrix built only when the rule
reads it (see :class:`BooleanFunction`).  Rules stay exact at any width and
modulus: ``run`` evaluates functions far past the table guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import GuardError
from .util import DIGITS, LIST, SIGNED, bit_matrix, index_to_bits, read_field, read_items

# Brute-force enumeration refuses above this many variables (16M rows).
ENUM_GUARD_BITS = 24

# numpy int64 is safe while sums of two canonical residues cannot overflow.
_INT64_SAFE_MODULUS = 1 << 62

# Truth tables evaluate their rule on blocks of this many assignments.
_TABLE_BLOCK_ROWS = 1 << 14

# Indices of up to this many bits are int64; wider ones are exact Python ints.
_INT64_INDEX_BITS = 62

# Builtins refuse above this many variables, before building a coefficient:
# EQ's coefficients alone take about n^2/8 bytes (4 MB at EQ 4096).
BUILTIN_GUARD_VARS = 1 << 13

BUILTINS = ("EQ", "MOD", "MODBIN", "PALINDROME", "PERM")


@dataclass(frozen=True)
class LinearPolynomial:
    """constant + sum(coeffs[i] * x_{i+1}) over Z_modulus.

    Stored residues are always canonical (reduced into [0, m)); negative
    coefficients from the usual textbook presentations are reduced on
    construction so polynomial equality is plain field equality.
    """

    modulus: int
    coeffs: tuple[int, ...]
    constant: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(self, "coeffs", tuple(c % self.modulus for c in self.coeffs))
        object.__setattr__(self, "constant", self.constant % self.modulus)

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def evaluate(self, bits: Sequence[int]) -> int:
        if len(bits) != len(self.coeffs):
            raise ValueError(
                f"polynomial has {len(self.coeffs)} variables, got {len(bits)} bits"
            )
        total = self.constant
        for c, b in zip(self.coeffs, bits):
            if b:
                total += c
        return total % self.modulus

    def table(self) -> np.ndarray:
        """Values on all 2^n assignments in index order (x_1 is the MSB).

        The array is int64 when the modulus fits, else of dtype object
        holding exact Python ints.  Built by doubling: appending variable
        x_i offsets the existing block by coeffs[i-1].
        """
        n = self.arity
        if n > ENUM_GUARD_BITS:
            raise GuardError(
                f"refusing to tabulate {n} variables (guard: {ENUM_GUARD_BITS})"
            )
        m = self.modulus
        out = np.empty(1 << n, dtype=np.int64 if m <= _INT64_SAFE_MODULUS else object)
        out[0] = self.constant
        size = 1
        for c in reversed(self.coeffs):
            np.mod(out[:size] + c, m, out=out[size : 2 * size])
            size *= 2
        return out

    def to_json(self) -> dict:
        return {
            "modulus": str(self.modulus),
            "constant": str(self.constant),
            "coeffs": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LinearPolynomial":
        return cls(
            modulus=read_field(doc, "modulus", "modulus", DIGITS),
            coeffs=read_items(read_field(doc, "coeffs", "coeffs", LIST), "coeffs", SIGNED),
            constant=read_field(doc, "constant", "constant", SIGNED, 0),
        )


class Block:
    """Assignments of n variables that a rule is evaluated on.

    ``index`` holds their indices (see :mod:`qhc.util`): int64 up to 62
    bits, exact Python ints (dtype object) above.  ``bits`` is their
    (rows, n) uint8 bit matrix, x_1 in column 0.  It is built on first read
    unless given; a block built without it holds a contiguous index range
    (``is_range``), which a rule may read in pieces instead.
    """

    __slots__ = ("n", "index", "_bits", "is_range")

    def __init__(self, n: int, index: np.ndarray, bits: np.ndarray | None = None) -> None:
        self.n = n
        self.index = index
        self._bits = bits
        self.is_range = bits is None

    @property
    def bits(self) -> np.ndarray:
        if self._bits is None:
            start = int(self.index[0])
            self._bits = bit_matrix(self.n, start, start + len(self.index))
        return self._bits


@dataclass(frozen=True)
class BooleanFunction:
    """A total function {0,1}^n -> {0,1} with a printable name.

    ``rule`` maps a :class:`Block` of assignments to one bool per
    assignment; it reads ``block.index``, or ``block.bits`` when the rule
    is simpler over bits.  Pointwise calls pass one assignment with its
    bits; truth tables pass blocks of consecutive indices, whose bits are
    built only if the rule reads them.
    """

    name: str
    arity: int
    rule: Callable[[Block], np.ndarray] = field(compare=False, repr=False)

    def __call__(self, bits: Sequence[int]) -> int:
        n = self.arity
        if len(bits) != n:
            raise ValueError(f"{self.name} takes {n} bits, got {len(bits)}")
        row = np.array(bits, dtype=np.uint8).reshape(1, n)
        value = 0
        for b in row[0].tolist():
            value = value << 1 | b
        index = np.array([value], dtype=np.int64 if n <= _INT64_INDEX_BITS else object)
        return int(self.rule(Block(n, index, row))[0])

    def truth_table(self) -> np.ndarray:
        """uint8 vector of length 2^n in index order."""
        n = self.arity
        if n > ENUM_GUARD_BITS:
            raise GuardError(f"refusing to tabulate {n} variables (guard: {ENUM_GUARD_BITS})")
        out = np.empty(1 << n, dtype=np.uint8)
        for start in range(0, 1 << n, _TABLE_BLOCK_ROWS):
            stop = min(start + _TABLE_BLOCK_ROWS, 1 << n)
            out[start:stop] = self.rule(Block(n, np.arange(start, stop, dtype=np.int64)))
        return out


@dataclass(frozen=True)
class Characteristic:
    """Polynomials over one modulus, each vanishing exactly on f^{-1}(1)."""

    function: BooleanFunction
    polynomials: tuple[LinearPolynomial, ...]

    def __post_init__(self) -> None:
        if not self.polynomials:
            raise ValueError("characteristic needs at least one polynomial")
        m = self.polynomials[0].modulus
        for p in self.polynomials:
            if p.modulus != m:
                raise ValueError("characteristic polynomials must share one modulus")
            if p.arity != self.function.arity:
                raise ValueError(
                    f"polynomial arity {p.arity} != function arity {self.function.arity}"
                )

    @property
    def modulus(self) -> int:
        return self.polynomials[0].modulus

    def __len__(self) -> int:
        return len(self.polynomials)


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    checked: int
    counterexample: tuple[int, ...] | None = None
    reason: str = ""  # names the polynomial that fails


def verify_characteristic(c: Characteristic) -> VerificationReport:
    """Exhaustively check g(sigma) = 0 <=> f(sigma) = 1 for every polynomial.

    Enumerates all 2^n assignments (guarded at n <= 24) and returns either
    a valid verdict or the first violating assignment — smallest assignment
    index, ties broken by polynomial order.
    """
    n = c.function.arity
    if n > ENUM_GUARD_BITS:
        raise GuardError(
            f"verify_characteristic enumerates 2^{n} assignments; guard is "
            f"n <= {ENUM_GUARD_BITS} (no silent sampling — reduce n)"
        )
    truth = c.function.truth_table()
    want_zero = truth == 1

    def first_violation(poly: LinearPolynomial) -> int | None:
        bad = np.nonzero((poly.table() == 0) != want_zero)[0]
        return int(bad[0]) if bad.size else None

    violations = [first_violation(p) for p in c.polynomials]
    hits = [(idx, j) for j, idx in enumerate(violations) if idx is not None]
    if not hits:
        return VerificationReport(valid=True, checked=1 << n)
    idx, j = min(hits)
    sigma = index_to_bits(idx, n)
    value = c.polynomials[j].evaluate(sigma)
    f_value = int(truth[idx])
    if f_value == 1:
        reason = f"polynomial {j} evaluates to {value} != 0 on a 1-input"
    else:
        reason = f"polynomial {j} vanishes on a 0-input"
    return VerificationReport(valid=False, checked=1 << n, counterexample=sigma, reason=reason)


@dataclass(frozen=True)
class FunctionInstance:
    """A characteristic and its natural Alice/Bob cut: Alice holds the
    first ``n1`` variables.  :class:`qhc.protocol.ProtocolSpec` makes the
    cut; nothing here verifies the characteristic (see
    :func:`verify_characteristic`)."""

    characteristic: Characteristic
    n1: int

    @property
    def function(self) -> BooleanFunction:
        return self.characteristic.function


def _binary_value(b: np.ndarray) -> np.ndarray:
    """Bit-matrix rows as binary numbers, column 0 least significant:
    int64 up to 62 columns, exact Python ints beyond."""
    weights = [1 << i for i in range(b.shape[1])]
    return b @ np.array(weights, dtype=np.int64 if len(weights) <= _INT64_INDEX_BITS else object)


def _reversed(values: np.ndarray, width: int) -> np.ndarray:
    """The low ``width`` bits of each value in reverse order, by shifts that
    are exact on int64 and on Python ints alike."""
    out = values & 0
    for _ in range(width):
        out = out << 1 | values & 1
        values = values >> 1
    return out


def _divisible(values: np.ndarray, m: int) -> np.ndarray:
    """values % m == 0 for values >= 0, exact for every m: numpy cannot
    reduce int64 by m >= 2^63, but such an m exceeds every int64 value."""
    return values % m == 0 if values.dtype == object or m < 1 << 63 else values == 0


def _guard_size(what: str, arity: int) -> None:
    if arity > BUILTIN_GUARD_VARS:
        raise GuardError(f"{what} has {arity} variables; builtin guard is {BUILTIN_GUARD_VARS}")


def builtin(name: str, n: int, m: int | None = None) -> FunctionInstance:
    """Construct one of the five builtin function families.

    EQ(n): equality of two n-bit blocks; g = sum x_i 2^(i-1) - sum y_i 2^(i-1)
        over Z_(2^n); natural split at the half (n1 = n).
    MOD(n, m): number of ones divisible by m; g = sum x_i over Z_m.
    MODBIN(n, m): the input read as a binary number (x_1 least significant)
        divisible by m; g = sum x_i 2^(i-1) over Z_m.
    PALINDROME(n): input equal to its reverse; g over Z_(2^(n//2)) compares
        the two halves (for odd n the middle variable's coefficient reduces
        to 0 and drops out).
    PERM(n): the n x n 0/1 matrix (row-major variables) is a permutation
        matrix; g encodes all row and column sums as base-(n+1) digits over
        Z_((n+1)^(2n)) — digit sums never carry, so g = 0 exactly when every
        row and column sum is 1.

    Each instance carries its natural Alice/Bob cut; the polynomials are
    plain sums, so any other cut splits them as cleanly.  More than
    BUILTIN_GUARD_VARS variables in all raise GuardError.
    """
    name = name.upper()
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin {name!r} (expected {', '.join(BUILTINS)})")
    _guard_size(f"{name} with n={n}", 2 * n if name == "EQ" else n * n if name == "PERM" else n)
    if name == "EQ":
        if m is not None:
            raise ValueError("EQ's modulus is fixed at 2^n")
        if n < 1:
            raise ValueError("EQ needs n >= 1 bits per side")
        mod = 1 << n
        coeffs = tuple(1 << i for i in range(n)) + tuple(-(1 << i) for i in range(n))
        poly = LinearPolynomial(modulus=mod, coeffs=coeffs)
        low = (1 << n) - 1
        fn = BooleanFunction(f"EQ_{n}", 2 * n, lambda b: b.index >> n == b.index & low)
        return FunctionInstance(Characteristic(fn, (poly,)), n)

    if name == "MOD":
        if m is None or m < 2:
            raise ValueError("MOD needs a modulus m >= 2")
        if n < 1:
            raise ValueError("MOD needs n >= 1")
        poly = LinearPolynomial(modulus=m, coeffs=(1,) * n)
        fn = BooleanFunction(f"MOD_{m}", n, lambda b: _divisible(b.bits.sum(1, dtype=np.int64), m))
        return FunctionInstance(Characteristic(fn, (poly,)), n // 2)

    if name == "MODBIN":
        if m is None or m < 2:
            raise ValueError("MODBIN needs a modulus m >= 2")
        if n < 1:
            raise ValueError("MODBIN needs n >= 1")
        poly = LinearPolynomial(modulus=m, coeffs=tuple((1 << i) % m for i in range(n)))
        fn = BooleanFunction(f"MODBIN_{m}", n, lambda b: _divisible(_binary_value(b.bits), m))
        return FunctionInstance(Characteristic(fn, (poly,)), n // 2)

    if name == "PALINDROME":
        if m is not None:
            raise ValueError("PALINDROME's modulus is fixed at 2^(n//2)")
        if n < 2:
            raise ValueError("PALINDROME needs n >= 2")
        mod = 1 << (n // 2)
        coeffs = [0] * n
        for i in range(1, n // 2 + 1):
            coeffs[i - 1] += 1 << (i - 1)
        for i in range((n + 1) // 2, n + 1):
            coeffs[i - 1] -= 1 << (n - i)
        poly = LinearPolynomial(modulus=mod, coeffs=tuple(coeffs))
        half, low = n // 2, (1 << n // 2) - 1

        def is_palindrome(b: Block) -> np.ndarray:
            return b.index >> (n - half) == _reversed(b.index & low, half)

        fn = BooleanFunction(f"PALINDROME_{n}", n, is_palindrome)
        return FunctionInstance(Characteristic(fn, (poly,)), (n + 1) // 2)

    if m is not None:
        raise ValueError("PERM's modulus is fixed at (n+1)^(2n)")
    if n < 1:
        raise ValueError("PERM needs matrix dimension n >= 1")
    base = n + 1
    mod = base ** (2 * n)
    coeffs = tuple(
        base ** (i - 1) + base ** (n + j - 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    constant = -sum(base ** (t - 1) for t in range(1, 2 * n + 1))
    poly = LinearPolynomial(modulus=mod, coeffs=coeffs, constant=constant)

    def is_perm(b: Block) -> np.ndarray:
        matrices = b.bits.reshape(-1, n, n)
        rows_ok = (matrices.sum(2) == 1).all(1)
        return rows_ok & (matrices.sum(1) == 1).all(1)

    fn = BooleanFunction(f"PERM_{n}", n * n, is_perm)
    return FunctionInstance(Characteristic(fn, (poly,)), n * n // 2)


def conjunction(n_a: int, n_b: int, m_a: int = 3, m_b: int = 4) -> FunctionInstance:
    """MOD_{m_a} on the first block AND MODBIN_{m_b} on the second, as a
    genuine two-polynomial characteristic over Z_(m_a * m_b).

    With coprime moduli and units u mod m_a, w mod m_b, the polynomial
    m_b*u*(sum a_i) + m_a*w*(value of b) vanishes mod m_a*m_b exactly when
    both blocks satisfy their constraint (reduce mod m_a and mod m_b
    separately).  Two distinct (u, w) choices give two distinct polynomials
    that each individually vanish exactly on f^{-1}(1).
    """
    if n_a < 1 or n_b < 1:
        raise ValueError("both blocks need at least one variable")
    if m_a < 2 or m_b < 2 or math.gcd(m_a, m_b) != 1:
        raise ValueError("block moduli must be >= 2 and coprime")
    _guard_size(f"CONJ with n_a={n_a}, n_b={n_b}", n_a + n_b)
    mod = m_a * m_b
    if m_a > 2:
        units = [(1, 1), (m_a - 1, 1)]
    else:
        units = [(1, 1), (1, m_b - 1)]
    polys = [
        LinearPolynomial(
            modulus=mod,
            coeffs=tuple(m_b * u for _ in range(n_a))
            + tuple(m_a * w * (1 << i) for i in range(n_b)),
        )
        for u, w in units
    ]
    low = (1 << n_b) - 1

    def both_hold(b: Block) -> np.ndarray:
        if not b.is_range:  # a pointwise row, given with its bits
            return (_divisible(b.bits[:, :n_a].sum(1, dtype=np.int64), m_a)
                    & _divisible(_binary_value(b.bits[:, n_a:]), m_b))
        # Over a range, the high halves (the first block) are one run of
        # consecutive values, and so are the low halves mod 2^n_b: each
        # constraint is evaluated once per value of its run, then gathered.
        # The low run is read as indices, of which _reversed takes only
        # the low n_b bits.
        high = b.index >> n_b
        first_high, first = int(high[0]), int(b.index[0])
        ones = bit_matrix(n_a, first_high, int(high[-1]) + 1).sum(1, dtype=np.int64)
        lows = np.arange(first, first + min(len(b.index), low + 1))
        return (_divisible(ones, m_a)[high - first_high]
                & _divisible(_reversed(lows, n_b), m_b)[(b.index - first) & low])

    fn = BooleanFunction(f"MOD_{m_a}&MODBIN_{m_b}", n_a + n_b, both_hold)
    return FunctionInstance(Characteristic(fn, tuple(polys)), n_a)


def polynomial_instance(polys: Sequence[LinearPolynomial]) -> FunctionInstance:
    """A polynomial set as its own function POLY: f = 1 iff all vanish,
    cut at the half.  Polynomials that disagree on modulus or arity raise
    ValueError.  The rule is one matrix product per block of bit rows:
    int64 when no sum can overflow it, exact Python ints otherwise, past
    the table guard too."""

    def all_vanish(b: Block) -> np.ndarray:
        return ((b.bits @ coeffs + constants) % char.modulus == 0).all(1)

    fn = BooleanFunction("POLY", polys[0].arity if polys else 0, all_vanish)
    char = Characteristic(fn, tuple(polys))  # refuses mixed moduli or arities first
    dtype = np.int64 if char.modulus * (fn.arity + 1) < _INT64_SAFE_MODULUS else object
    coeffs = np.array([p.coeffs for p in polys], dtype=dtype).T
    constants = np.array([p.constant for p in polys], dtype=dtype)
    return FunctionInstance(char, fn.arity // 2)
