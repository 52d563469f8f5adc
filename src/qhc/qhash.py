"""Amplitude-form quantum hashing over Z_N and collision-resistant key sets.

A key set K = {k_1, ..., k_d} over Z_N hashes a value v to the d-qubit-pair
superposition with amplitudes cos(2 pi k_i v / N)/sqrt(d) and
sin(2 pi k_i v / N)/sqrt(d).  Two hashes of values differing by D have real
fidelity

    bias(D) = (1/d) * sum_i cos(2 pi k_i D / N),

so delta-collision resistance is exactly: |bias(D)| < delta for every
nonzero D mod N.  Everything here reduces k*v mod N in exact integer
arithmetic; the only float step is the cosine of (k*v mod N) / N.  A key
set stores its keys once, as one read-only array whose dtype N chooses:
uint64, with wrapping products, when N <= 2^32 (no product of two residues
reaches 2^64) or N = 2^L <= 2^64 (2^64 is a multiple of N), and object,
holding Python integers of any size, for every other N; one code path
serves both.  A key file's digit strings are parsed into uint64 in one pass.

:func:`bias` is the one direct kernel: every caller (one-way and SMP runs,
error-profile grids, Monte Carlo certification) gets bit-identical values for
the same difference, and no hash state is ever built as a vector.  Both
certification screens run at single precision, and :func:`bias` prices every
value they report.  Its block loop, :func:`_cosine_sums`, also runs the Monte
Carlo screen at float32 (:func:`_rough_bias`, with ratios truncated to 53
bits at N = 2^L above 2^53), and :func:`bias` prices only the samples that
may hold the maximum; no rough value leaves this module.
:func:`_exact_bias_sweep` is the only full-spectrum route: a cache-blocked FFT
sweep over all N differences, its angles from :func:`_residues` too, proposes
the candidates for the maximum, and :func:`bias` prices them, so every
certificate's ``max_bias`` is a :func:`bias` value too.  The sweep runs at
float32 within a window derived from the key set's column counts, and again
at float64 only when a plateau proposes more candidates than the pricing
budget.  :func:`swap_accept` is the one SWAP-test accept rule, (1 + F^2)/2,
that every protocol route and bound applies.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import GuardError, SearchError
from .util import (
    DIGITS, INT, LIST, NUMBER, OBJECT, STRING, parse_uint64s, rand_below_many, read_field,
    read_items, refuse_unread,
)

# Key moduli stay below 2^MODULUS_BITS: a residue ratio needs float(N).
MODULUS_BITS = 1023

# Exhaustive difference sweeps refuse above this modulus (2M differences).
EXACT_SWEEP_GUARD = 1 << 21

# An int64 array of differences reduces mod N in int64 up to this N; other
# differences reduce as Python ints (they may be negative or >= 2^63).
_INT64_DIFFERENCE_N = 1 << 31

# Residues per block of the bias kernel: 64 KiB of float64, half glibc's
# default mmap threshold (128 KiB).  Blocks at or above it are each served by
# a fresh mmap and fault in new zero pages; smaller ones reuse heap pages.
_BIAS_BLOCK_CELLS = 1 << 13

# Uniform nonzero differences a Monte Carlo pass samples.
_MONTE_CARLO_TRIALS = 2000

# Bound on |rough - exact| |bias| of the Monte Carlo screen (_rough_bias
# derives 8.4e-7; the worst seen on random rows is 5.6e-7, at d = 1).
_SCREEN_EPSILON = 1e-4

# Priced |bias| values this close to the priced maximum count as ties, so
# bias's rounding (a few units of 2^-53) does not decide which of equal biases
# is reported.  An exact certificate also keeps this much room below delta.
_SWEEP_TIE_TOLERANCE = 1e-12

# Bound on |sweep value - bias| at any D (see _blocked_spectrum).  The
# length-M FFT rounds by at most log2(M) * c * u * sqrt(M * d) / d (u = 2^-53,
# c ~ 5; Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# 24.1) when the keys fill each of the M columns about once, and by
# log2(M) * c * u * sqrt(M) <= 1.7e-11 when all share one column; bincount's
# column sums add at most (d + 4) * u <= 2.3e-10 for d <= 2^21, and bias's own
# error (pairwise sums of cosines of rounded ratios) a few u.  The worst seen,
# on 90 random sets of 1-64 keys at N <= 2^14 (odd N and 3 * 2^10 among
# them) with B up to 32, is 8.1e-16.
#
# At float32 (_sweep_columns' window32) three terms are added to this one.
# The screen term: each key's cos and sin of its class angle are off by the
# angle's error, 6e-7 (the float32 ratio, float32(2 pi) and the float32
# product, as _rough_bias derives), plus 2.4e-7 each from the float32 cos
# and sin; a value is an average over the keys, so it is off by at most
# 9.4e-7, which _SCREEN_EPSILON bounds with 100x headroom.  The FFT term:
# c * log2(M) * u32 * sqrt(M) * ||y_r||_2 / d, with u32 = 2^-24 and c = 10
# (Higham's constant above, about 7 for a radix-2 transform, times sqrt 2:
# the transform sees z's Hermitian extension, of 2-norm at most
# 2 sqrt 2 ||y_r||_2, scaled by 1/(2d)), and ||y_r||_2 <= sqrt(sum_j n_j^2)
# for every class, n_j the keys with k mod M = j.  The cast: rounding z to
# complex64 and the float32 scaling by M/(2d) add at most 4 * u32.  The
# window is 1.2-1.5e-4 on the N = 2^21 sets that search-keys draws at
# delta 0.1-0.05, whose float32 values stay within 3.1e-8 of the float64
# ones; the worst seen against bias, on 521 random and coset sets of 1-199
# keys at N <= 2^12 with B up to 32, is 5.8e-7, or 0.0042 of the window.
_SWEEP_WINDOW = 1e-9
_U32 = 2.0 ** -24

# Smallest block length M the sweep splits N into (see _sweep_blocks).
_SWEEP_BLOCK_FLOOR = 1 << 16

# Residues the sweep's candidates may cost bias: a plateau (key 0, a coset,
# Z_N without 0) has up to N/2 candidates, and pricing stops here.
_SWEEP_PRICE_CELLS = 1 << 21

# Draws search_key_set makes before it gives up.  A Hoeffding-sized set is
# delta-resistant with positive probability, so this is a budget, not a
# setting: the benchmark's seven key searches, at seeds 1 and 7, each
# certify on their first draw.
_SEARCH_ATTEMPTS = 10


@dataclass(frozen=True)
class Certification:
    """How (whether) a key set's bias bound was established."""

    mode: str = "none"  # "exact" | "monte-carlo" | "none"
    max_bias: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "monte-carlo", "none"):
            raise ValueError(f"unknown certification mode {self.mode!r}")

    def to_json(self) -> dict:
        doc: dict = {"mode": self.mode}
        if self.max_bias is not None:
            doc["max_bias"] = self.max_bias
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Certification":
        """A key file's certification object.  Older files also hold a Monte
        Carlo pass's ``trials`` and ``confidence``, which prove nothing: they
        are checked, so a malformed file still exits 3, and then dropped."""
        mode = read_field(doc, "mode", "certification.mode", STRING, "none")
        max_bias = read_field(doc, "max_bias", "certification.max_bias", NUMBER, None)
        read_field(doc, "trials", "certification.trials", INT, None, lo=1)
        read_field(doc, "confidence", "certification.confidence", NUMBER, None)
        return cls(mode, max_bias)


@dataclass(frozen=True, init=False, eq=False)
class KeySet:
    """d distinct keys in [0, N), optionally certified delta-resistant.

    The keys are stored once, as the read-only array ``key_array``: uint64
    in the tier of :func:`_uint64_exact`, where a uint64 array may also be
    passed as ``keys`` (the set then keeps that array and makes it
    read-only), and dtype object holding Python ints above it.  ``keys`` is
    the tuple of ints, built on demand.  Sets are equal when their modulus,
    keys in order, delta and certification are."""

    modulus: int
    delta: float | None
    certification: Certification
    key_array: np.ndarray = field(repr=False)

    def __init__(
        self,
        modulus: int,
        keys: Sequence[int] | np.ndarray,
        delta: float | None = None,
        certification: Certification = Certification(),
    ) -> None:
        n = modulus
        _check_modulus(n)
        if not len(keys):
            raise ValueError("key set must be nonempty")
        if _uint64_exact(n) and isinstance(keys, np.ndarray) and keys.dtype == np.uint64:
            stored = keys
        else:  # out-of-range keys stay Python ints, and are refused below
            stored = _int_array(keys)
            # Range first: numpy 1.x may wrap a negative int into uint64, not raise.
            if _uint64_exact(n) and 0 <= stored.min() and stored.max() < 1 << 64:
                stored = stored.astype(np.uint64)
        # Drawn keys and key files come in ascending order, and need no sort.
        ordered = stored if (stored[1:] > stored[:-1]).all() else np.sort(stored)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("duplicate keys (would silently skew the bias average)")
        if int(ordered[0]) < 0 or int(ordered[-1]) >= n:
            bad = next(k for k in stored.tolist() if not 0 <= k < n)
            raise ValueError(f"key {bad} outside [0, {n})")
        if delta is not None and not 0 < delta < 1:
            raise ValueError(f"delta out of (0,1): {delta}")
        stored.flags.writeable = False
        self.__dict__.update(modulus=n, delta=delta, certification=certification, key_array=stored)

    @property
    def keys(self) -> tuple[int, ...]:
        return tuple(self.key_array.tolist())

    @property
    def d(self) -> int:
        return len(self.key_array)

    @property
    def certified(self) -> bool:
        return self.certification.mode == "exact" and self.delta is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeySet):
            return NotImplemented
        scalars = (self.modulus, self.delta, self.certification)
        same = scalars == (other.modulus, other.delta, other.certification)
        return same and np.array_equal(self.key_array, other.key_array)

    def __hash__(self) -> int:
        return hash((self.modulus, self.d, self.delta, self.certification))

    def to_json(self) -> dict:
        doc: dict = {
            "N": str(self.modulus),
            "keys": [str(k) for k in self.keys],
            "certification": self.certification.to_json(),
        }
        if self.delta is not None:
            doc["delta"] = self.delta
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "KeySet":
        """Digit-string keys (the form :meth:`to_json` writes) go straight
        into the uint64 key array in the uint64 tier; any other list is read
        one key at a time."""
        modulus = read_field(doc, "N", "N", DIGITS)
        values = read_field(doc, "keys", "keys", LIST)
        keys = parse_uint64s(values) if _uint64_exact(modulus) else None
        cdoc = read_field(doc, "certification", "certification", OBJECT, {})
        key_set = cls(
            modulus=modulus,
            keys=read_items(values, "keys", DIGITS) if keys is None else keys,
            delta=read_field(doc, "delta", "delta", NUMBER, None),
            certification=Certification.from_json(cdoc),
        )
        refuse_unread(doc, "", ("N", "keys", "delta", "certification"), "a key set")
        cert_fields = ("mode", "max_bias", "trials", "confidence")
        refuse_unread(cdoc, "certification", cert_fields, "certification")
        return key_set


def _check_modulus(modulus: int) -> None:
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if modulus >> MODULUS_BITS:
        raise ValueError(f"modulus must be below 2^{MODULUS_BITS}, got {modulus.bit_length()} bits")


def _uint64_exact(modulus: int) -> bool:
    """Whether k*v mod N is exact in wrapping uint64 arithmetic for k, v in
    [0, N): every product is below 2^64 when N <= 2^32, and wrapping mod 2^64
    keeps the residue mod N when N is a power of two up to 2^64."""
    return modulus <= 1 << 32 or (modulus <= 1 << 64 and modulus & (modulus - 1) == 0)


def _int_array(values: Sequence[int], modulus: int = 0, dtype=object) -> np.ndarray:
    """``values`` as Python ints, each reduced mod ``modulus`` if one is
    given, in one array of ``dtype`` (numpy integers in an object array
    would overflow); a value ``operator.index`` refuses, such as a float,
    raises ValueError."""
    try:
        ints = [operator.index(v) % modulus if modulus else operator.index(v) for v in values]
    except TypeError as e:
        raise ValueError(f"keys and differences must be integers: {e}") from None
    return np.array(ints, dtype=dtype)


def _residues(key_set: KeySet, values: Sequence[int], truncate: bool = False) -> np.ndarray:
    """(k * v) mod N as float ratios in [0, 1), one row per value v in [0, N).

    One outer product in the keys' dtype (wrapping uint64 or Python ints),
    reduced mod N, by a mask when N is a power of two (the wrap alone for
    N = 2^64); exact until each residue is rounded to float64 as
    ``float(int)`` does.  With ``truncate`` (the float32 screen), a uint64
    tier N = 2^L above 2^53 takes each ratio from the residue's top 53 bits
    instead, (r >> (L - 53)) * 2^-53 through int64: at most 2^-53 below the
    rounded ratio, and without numpy's uint64 -> float64 cast, which is
    several times slower on a mix of values below and above 2^63.  Above
    2^64 the residues are Python ints, and shifting them costs more than
    the cast saves."""
    n, keys = key_set.modulus, key_set.key_array
    scalar = keys.dtype.type  # np.uint64, or for dtype object the int itself
    r = np.asarray(values, dtype=keys.dtype)[:, None] * keys
    if n & (n - 1):
        r %= scalar(n)
    elif n != 1 << 64:
        r &= scalar(n - 1)
    shift = n.bit_length() - 54
    if truncate and shift > 0 and r.dtype == np.uint64:  # so N = 2^(shift + 53)
        r >>= scalar(shift)
        ratios = r.view(np.int64).astype(np.float64)
        ratios *= 2.0 ** -53
    else:
        ratios = r.astype(np.float64)
        ratios /= float(n)
    return ratios


def _reduced(key_set: KeySet, differences: Sequence[int]) -> np.ndarray:
    """Differences reduced mod N as one array: an int64 array up to
    N = 2^31 in int64, any other input one Python int at a time straight
    into the keys' dtype (a float is refused)."""
    n = key_set.modulus
    if n <= _INT64_DIFFERENCE_N and getattr(differences, "dtype", None) == np.int64:
        return differences % n
    return _int_array(differences, n, key_set.key_array.dtype)


def _cosine_sums(key_set: KeySet, diffs: np.ndarray, dtype) -> np.ndarray:
    """Sum over the keys of cos(2 pi (k*D mod N)/N) per reduced difference D:
    :func:`_residues` in blocks of about _BIAS_BLOCK_CELLS, angle and cosine
    in ``dtype``, each row summed in float64 in one order whatever its block.
    Below float64 the ratios are truncated where that is cheaper."""
    sums = np.empty(len(diffs))
    step = max(1, _BIAS_BLOCK_CELLS // key_set.d)
    two_pi = dtype(2.0 * np.pi)
    # Only bias's float64 cosines need correctly rounded ratios.
    residues = _residues if dtype == np.float64 else functools.partial(_residues, truncate=True)
    for start in range(0, len(diffs), step):
        angles = residues(key_set, diffs[start : start + step]).astype(dtype, copy=False)
        angles *= two_pi
        np.cos(angles, out=angles)
        sums[start : start + step] = np.add.reduce(angles, axis=1, dtype=np.float64)
    return sums


def bias(key_set: KeySet, differences: Sequence[int]) -> np.ndarray:
    """Fidelity between hashes of values differing by each difference.

    Differences are reduced mod N by :func:`_reduced`; residues stay exact
    until the final ratio.  A difference of 0 mod N gives exactly 1.0
    without a row; the others are :func:`_cosine_sums` at float64 over d
    (the sum over d is bitwise ``mean``).
    """
    diffs = _reduced(key_set, differences)
    live = np.flatnonzero(diffs)
    out = np.ones(len(differences))
    out[live] = _cosine_sums(key_set, diffs[live], np.float64) / key_set.d
    return out


def _rough_bias(key_set: KeySet, differences: Sequence[int]) -> np.ndarray:
    """|bias| at each difference within _SCREEN_EPSILON, for screening only.

    :func:`_cosine_sums` at float32: the same exact residues as
    :func:`bias`, in the same blocks, rows summed in float64.  Its error,
    per cosine and so per row average: a ratio of N = 2^L above 2^53 in the
    uint64 tier is truncated to 53 bits, 2 pi * 2^-53 (7e-16) in the angle
    (:func:`_residues`); rounding the float64 ratio in [0, 1) to float32
    moves the angle by at most 2 pi * 2^-25 (1.9e-7), float32(2 pi) is
    1.7e-7 above 2 pi, the float32 product rounds by at most 2^-22 (2.4e-7,
    half an ulp below 8), and cos is 1-Lipschitz; numpy's float32 cosines
    stay within a few ulp, 2.4e-7 at 4 ulp.  The float64 sum adds below
    1e-12 for d <= 2^21, and bias's own float64 rounding far less, so
    |rough - |bias|| <= 8.4e-7.
    """
    return np.abs(_cosine_sums(key_set, _reduced(key_set, differences), np.float32)) / key_set.d


def swap_accept(fidelity: float | np.ndarray) -> float | np.ndarray:
    """SWAP-test accept probability (1 + F^2)/2 of states with fidelity F,
    elementwise on arrays (Buhrman, Cleve, Watrous & de Wolf,
    quant-ph/0102001).  The one place the rule is written."""
    return 0.5 * (1.0 + fidelity * fidelity)


def hash_qubits(key_set: KeySet | int) -> int:
    """Qubits to transmit one hash: index register plus the rotated qubit.

    Accepts a key set or a bare key count d, so planned costs can be
    accounted before any concrete set is drawn."""
    d = key_set if isinstance(key_set, int) else key_set.d
    if d < 1:
        raise ValueError("need at least one key")
    return (d - 1).bit_length() + 1


@dataclass(frozen=True)
class ResistanceReport:
    certified: bool
    max_bias: float
    worst_difference: int
    key_set: KeySet
    bound: float  # what ``certified`` compares with delta, >= max_bias


def _sweep_blocks(modulus: int, d: int) -> int:
    """B of the split N = B*M: the largest power of two dividing N with
    M = N/B >= _SWEEP_BLOCK_FLOOR and B*d <= N (at most one key per column
    on average), else 1."""
    b = 1
    while (modulus % (2 * b) == 0 and modulus // (2 * b) >= _SWEEP_BLOCK_FLOOR
           and 2 * b * d <= modulus):
        b *= 2
    return b


class _Columns(NamedTuple):
    """What both precisions of :func:`_blocked_spectrum` share, computed
    once per key set: B of N = B*M, each key's column j = k mod M folded to
    min(j, M - j), its weights as float32 (exact: 1 or 2 for the real part;
    0 or +-1 for the imaginary part, None at B = 1, which has no sines) and
    the float32 window (see _SWEEP_WINDOW)."""

    blocks: int
    folded: np.ndarray
    real_weight: np.ndarray
    imag_weight: np.ndarray | None
    window32: float


def _sweep_columns(key_set: KeySet) -> _Columns:
    """The sweep's column prologue.  ``window32`` takes ||y_r||_2 <=
    sqrt(sum_j n_j^2) from the column counts n_j; at B = 1 every key is
    below N = M, alone in its column, so the sum is d."""
    n, d = key_set.modulus, key_set.d
    b = _sweep_blocks(n, d)
    m = n // b
    # uint64 keys below N <= 2^32 read as int64: signed, for m - 2 * columns.
    columns = key_set.key_array.view(np.int64)
    square_sum = d
    if b > 1:
        columns = columns % m
        counts = np.bincount(columns, minlength=m)
        square_sum = int(counts @ counts)
    folded = np.minimum(columns, m - columns)
    own = folded == 0
    if m % 2 == 0:
        own |= folded == m // 2
    real_weight = np.where(own, np.float32(2.0), np.float32(1.0))
    imag_weight = np.where(own, 0, np.sign(m - 2 * columns)).astype(np.float32) if b > 1 else None
    fft = 10.0 * math.log2(m) * _U32 * math.sqrt(m * square_sum) / d
    window32 = _SWEEP_WINDOW + _SCREEN_EPSILON + fft + 4.0 * _U32
    return _Columns(b, folded, real_weight, imag_weight, window32)


def _blocked_spectrum(
    key_set: KeySet, dtype=np.float64, columns: _Columns | None = None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (first, step, s) per residue class: s[i] approximates
    bias(first + step*i) within _SWEEP_WINDOW at float64 and within the
    columns' ``window32`` at float32.  Every D in [1, N/2] comes out once,
    as D or as its mirror image N - D.

    N = B*M (:func:`_sweep_blocks`).  For D = r + B*t, splitting each key as
    k = j + M*q gives k*D/N = (k*r mod N)/N + j*t/M + q*t, so
    sum_k e^(2 pi i k D/N) is the length-M DFT of
    y_r[j] = sum_{k = j mod M} e^(2 pi i (k*r mod N)/N) (Bailey, "FFTs in
    external or hierarchical memory", J. Supercomputing 4 (1990)).  Its real
    part is (M/2) * irfft(z) of the Hermitian half
    z[j] = y_r[j] + conj(y_r[-j mod M]), j <= M/2, which two bincounts build
    directly: a key in column M - j adds its conjugate to z[j], and one in
    column 0 or M/2, its own mirror, adds twice its real part.  Class B - r
    holds the mirror images of class r, so only r in [0, B/2] is
    transformed; a class that is its own mirror (r = 0 or B/2) keeps
    D <= N/2.  Memory is O(M + d).  At float32 the angles, their cos and
    sin and the weights are float32, z is complex64 and the transform runs
    in single precision (numpy 1.x computes it in float64).  ``columns``
    (:func:`_sweep_columns`) is computed here if not given.
    """
    n, d = key_set.modulus, key_set.d
    b, folded, real_weight, imag_weight, _ = columns or _sweep_columns(key_set)
    m = n // b
    half = m // 2 + 1
    complex_dtype = np.result_type(dtype, np.complex64)
    for r in range(b // 2 + 1):
        if r:
            angles = _residues(key_set, [r])[0].astype(dtype, copy=False)
            angles *= dtype(2.0 * np.pi)
            z = np.empty(half, complex_dtype)
            z.real = np.bincount(folded, np.cos(angles) * real_weight, half)
            z.imag = np.bincount(folded, np.sin(angles) * imag_weight, half)
        else:  # every angle is 0; a complex z skips irfft's slower real-input path
            z = np.bincount(folded, real_weight, half).astype(complex_dtype)
        values = np.fft.irfft(z, m)
        values *= m / (2.0 * d)
        start = int(r == 0)  # D = 0 is no difference
        stop = (n // 2 - r) // b + 1 if 2 * r % b == 0 else m
        yield r + b * start, b, values[start:stop]


def _sweep_candidates(key_set: KeySet, columns: _Columns, dtype) -> tuple[np.ndarray, float]:
    """(candidates folded to D <= N/2 in ascending order, the sweep's
    maximum): every D whose sweep magnitude is within 2 * window +
    _SWEEP_TIE_TOLERANCE of the maximum."""
    n = key_set.modulus
    window = columns.window32 if dtype == np.float32 else _SWEEP_WINDOW
    band = 2.0 * window + _SWEEP_TIE_TOLERANCE
    top, near = -math.inf, []
    for first, step, values in _blocked_spectrum(key_set, dtype, columns):
        magnitudes = np.abs(values, out=values)
        top = max(top, float(magnitudes.max()))
        kept = np.flatnonzero(magnitudes >= top - band)
        near.append((first + step * kept, magnitudes[kept]))
    # Folded candidates come in a few ascending and descending runs, which a
    # stable sort merges in linear time.
    candidates = np.sort(np.concatenate(
        [np.minimum(diffs, n - diffs)[mags >= top - band] for diffs, mags in near]
    ), kind="stable")
    return candidates, top


def _exact_bias_sweep(key_set: KeySet) -> tuple[float, int, float]:
    """(|bias| at the worst difference, that difference, ceiling).

    :func:`_blocked_spectrum` proposes, :func:`bias` prices.  A difference
    whose |bias| is within _SWEEP_TIE_TOLERANCE of the maximum has a sweep
    magnitude within 2 * window + _SWEEP_TIE_TOLERANCE of the sweep's
    maximum; every such candidate, folded to D <= N/2 (bias(N - D) =
    bias(D)), is priced in ascending order, up to _SWEEP_PRICE_CELLS
    residues.  The worst difference is the smallest priced candidate within
    _SWEEP_TIE_TOLERANCE of the priced maximum, and the first value is
    |bias| there, bit for bit.  The ceiling bounds every |bias(D)| and
    carries the tie tolerance as an allowance: the reported |bias| plus the
    tolerance, or, when the budget left candidates unpriced (a plateau such
    as key 0, or Z_N without 0), at least the sweep's maximum plus
    _SWEEP_WINDOW plus the tolerance.

    The sweep runs at float32 first, with the columns' wider window.  Its
    candidates include every one a float64 sweep proposes (the window's
    headroom is far above both sweeps' errors), so when they fit the budget
    so would the float64 ones, and pricing gives the float64 sweep's triple.
    When they do not fit (a plateau), the sweep runs again at float64 and
    goes on as it would alone.
    """
    columns = _sweep_columns(key_set)
    rows = max(1, _SWEEP_PRICE_CELLS // key_set.d)
    candidates, top = _sweep_candidates(key_set, columns, np.float32)
    if len(candidates) > rows:
        candidates, top = _sweep_candidates(key_set, columns, np.float64)
    priced = np.abs(bias(key_set, candidates[:rows]))
    worst = int(np.argmax(priced >= priced.max() - _SWEEP_TIE_TOLERANCE))
    max_bias = float(priced[worst])
    ceiling = max_bias if len(candidates) <= rows else max(max_bias, top + _SWEEP_WINDOW)
    return max_bias, int(candidates[worst]), ceiling + _SWEEP_TIE_TOLERANCE


def verify_resistance(
    key_set: KeySet,
    delta: float,
    mode: str = "exact",
    rng: np.random.Generator | int | None = None,
) -> ResistanceReport:
    """Certify or refute |bias(D)| < delta over nonzero differences.

    The full ring (d = N) is certified by its algebra, under the label of
    either mode: at every nonzero D its keys sum a full set of N-th roots
    of unity, so ``max_bias`` and ``bound`` are 0.0 and
    ``worst_difference`` is 1.
    Exact mode sweeps every D in [1, N) and is refused (with a pointer at
    Monte Carlo mode) above N = 2^21.  :func:`_exact_bias_sweep` proposes
    and :func:`bias` prices, so ``max_bias`` is |bias| at
    ``worst_difference``, bit for bit; it certifies only when that value
    plus _SWEEP_TIE_TOLERANCE stays below delta (and, if a plateau left
    candidates unpriced, the sweep's own bound does too).  Monte Carlo mode
    samples _MONTE_CARLO_TRIALS uniform nonzero differences; the maximum is
    still priced exactly, so a refutation is genuine, while a pass proves
    nothing about the differences not drawn (its certificate is labelled
    ``"monte-carlo"``, never exact).  :func:`_rough_bias` is within
    _SCREEN_EPSILON of every exact |bias|, so a difference that attains the
    exact maximum has a rough value within 2 epsilon of the rough maximum;
    only those rows go to :func:`bias`, in ascending order, and the first
    exact maximum among them is the smallest difference attaining it.
    ``max_bias`` and ``worst_difference`` are those of pricing every sampled
    difference with :func:`bias`, bit for bit (difference 1 when every
    |bias| is 0).  ``bound`` is the value compared with delta: the exact
    sweep's ceiling, or ``max_bias`` in Monte Carlo mode.  The report
    carries the key set re-annotated with the verdict.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta out of (0,1): {delta}")
    if mode not in ("exact", "monte-carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    n = key_set.modulus

    if key_set.d == n:
        max_bias, worst, ceiling = 0.0, 1, 0.0
    elif mode == "exact":
        if n > EXACT_SWEEP_GUARD:
            raise GuardError(
                f"exact sweep over {n - 1} differences exceeds the N <= 2^21 "
                f"guard; use mode='monte-carlo'"
            )
        max_bias, worst, ceiling = _exact_bias_sweep(key_set)
    else:
        gen = np.random.default_rng(rng)
        diffs = sorted(v + 1 for v in rand_below_many(gen, n - 1, _MONTE_CARLO_TRIALS))
        rough = _rough_bias(key_set, diffs)
        rows = np.flatnonzero(rough >= rough.max() - 2.0 * _SCREEN_EPSILON)
        magnitudes = np.abs(bias(key_set, [diffs[i] for i in rows]))
        top = int(np.argmax(magnitudes))
        max_bias = float(magnitudes[top])
        worst = diffs[rows[top]] if max_bias > 0.0 else 1
        ceiling = max_bias

    certified = ceiling < delta
    verdict = Certification(mode=mode, max_bias=max_bias) if certified else Certification()
    # A uint64 key array is passed on as it is, not copied.
    annotated = KeySet(n, key_set.key_array, delta if certified else None, verdict)
    return ResistanceReport(certified, max_bias, worst, annotated, ceiling)


def required_keys(modulus: int, delta: float) -> int:
    """Hoeffding sizing: d = ceil((2/delta^2) * ln(2N)) random keys suffice
    for delta-resistance with positive probability (union bound over the
    N - 1 differences).  Pure formula; for d > N the searcher falls back to
    the full residue ring, whose bias vanishes identically.  Where the float
    formula overflows (delta below about 1e-154), d is its exact rational."""
    if not 0 < delta < 1:
        raise ValueError(f"delta out of (0,1): {delta}")
    square, log = delta * delta, math.log(2 * modulus)
    size = 2.0 / square * log if square else math.inf
    (a, b), (p, q) = log.as_integer_ratio(), delta.as_integer_ratio()  # ceil(2a/b / (p/q)^2)
    return math.ceil(size) if math.isfinite(size) else -(-2 * a * q * q // (b * p * p))


def _draw_keys(gen: np.random.Generator, modulus: int, d: int) -> np.ndarray | tuple[int, ...]:
    """d distinct keys in ascending order: a uint64 array up to N = 2^24,
    which a KeySet keeps as it is, and Python ints above."""
    if d == modulus:
        return np.arange(modulus, dtype=np.uint64)
    if modulus <= 1 << 24:
        return np.sort(gen.choice(modulus, size=d, replace=False)).astype(np.uint64)
    chosen: set[int] = set()
    while len(chosen) < d:  # each batch is the shortfall, so no draw is spare
        chosen.update(rand_below_many(gen, modulus, d - len(chosen)))
    return tuple(sorted(chosen))


def search_key_set(
    modulus: int, delta: float, seed: int | np.random.SeedSequence
) -> KeySet:
    """Draw-and-verify search for a delta-resistant key set over Z_N.

    Each of up to _SEARCH_ATTEMPTS attempts draws d = required_keys(N, delta)
    distinct keys from its own spawned seed stream and verifies them —
    exactly for N <= 2^21, by Monte Carlo above.  When d = N the full ring
    is the only set, and its algebra certifies it on the first draw.
    Returns the first certified set; raises :class:`SearchError` with the
    smallest bound and the best bias seen if every attempt is refuted, and
    :class:`GuardError` before any draw when d > 2^21.  Bit-reproducible
    for a fixed seed.
    """
    _check_modulus(modulus)
    d = min(required_keys(modulus, delta), modulus)
    if d > EXACT_SWEEP_GUARD:
        raise GuardError(f"refusing to draw {d} keys; guard is d <= {EXACT_SWEEP_GUARD}")
    mode = "exact" if modulus <= EXACT_SWEEP_GUARD else "monte-carlo"
    best = bound = math.inf
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for _ in range(_SEARCH_ATTEMPTS):  # the children root.spawn(10) gives, one at a time
        gen = np.random.default_rng(root.spawn(1)[0])
        candidate = KeySet(modulus=modulus, keys=_draw_keys(gen, modulus, d))
        report = verify_resistance(candidate, delta, mode=mode, rng=gen)
        if report.certified:
            return report.key_set
        best, bound = min(best, report.max_bias), min(bound, report.bound)
    raise SearchError(
        f"no delta={delta} key set over N={modulus} in {_SEARCH_ATTEMPTS} attempts "
        f"(smallest bound {bound:.4g}, best max bias seen {best:.4g})"
    )
