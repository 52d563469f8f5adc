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
the same difference, and no hash state is ever built as a vector.
:func:`_exact_bias_sweep`, one FFT over all N differences, is the only
full-spectrum route.  :func:`swap_accept` is the one SWAP-test accept rule,
(1 + F^2)/2, that every protocol route and bound applies.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import GuardError, SearchError
from .util import (
    DIGITS, INT, LIST, NUMBER, OBJECT, STRING, parse_uint64s, rand_below_many, read_field,
    read_items,
)

# Exhaustive difference sweeps refuse above this modulus (2M differences).
EXACT_SWEEP_GUARD = 1 << 21

# An int64 array of differences reduces mod N in int64 up to this N; other
# differences reduce as Python ints (they may be negative or >= 2^63).
_INT64_DIFFERENCE_N = 1 << 31

# Residues per block of the bias kernel (512 KiB of float64).
_BIAS_BLOCK_CELLS = 1 << 16

# FFT magnitudes this close to the maximum count as ties; rounding noise
# (~1e-16 per bin) must not decide which of equal biases is reported.  The
# exact sweep's certificate also keeps this much room below delta.
_SWEEP_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Certification:
    """How (whether) a key set's bias bound was established."""

    mode: str = "none"  # "exact" | "monte-carlo" | "none"
    max_bias: float | None = None
    trials: int | None = None
    confidence: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "monte-carlo", "none"):
            raise ValueError(f"unknown certification mode {self.mode!r}")

    def to_json(self) -> dict:
        doc: dict = {"mode": self.mode}
        if self.max_bias is not None:
            doc["max_bias"] = self.max_bias
        if self.trials is not None:
            doc["trials"] = self.trials
        if self.confidence is not None:
            doc["confidence"] = self.confidence
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Certification":
        """A key file's certification object."""
        return cls(
            mode=read_field(doc, "mode", "certification.mode", STRING, "none"),
            max_bias=read_field(doc, "max_bias", "certification.max_bias", NUMBER, None),
            trials=read_field(doc, "trials", "certification.trials", INT, None, lo=1),
            confidence=read_field(doc, "confidence", "certification.confidence", NUMBER, None),
        )


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
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        if not len(keys):
            raise ValueError("key set must be nonempty")
        if _uint64_exact(n) and isinstance(keys, np.ndarray) and keys.dtype == np.uint64:
            stored = keys
        else:  # out-of-range keys stay Python ints, and are refused below
            stored = _int_array(keys)
            # Range first: numpy 1.x may wrap a negative int into uint64, not raise.
            if _uint64_exact(n) and 0 <= stored.min() and stored.max() < 1 << 64:
                stored = stored.astype(np.uint64)
        ordered = np.sort(stored)
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
        return cls(
            modulus=modulus,
            keys=read_items(values, "keys", DIGITS) if keys is None else keys,
            delta=read_field(doc, "delta", "delta", NUMBER, None),
            certification=Certification.from_json(
                read_field(doc, "certification", "certification", OBJECT, {})
            ),
        )


def _uint64_exact(modulus: int) -> bool:
    """Whether k*v mod N is exact in wrapping uint64 arithmetic for k, v in
    [0, N): every product is below 2^64 when N <= 2^32, and wrapping mod 2^64
    keeps the residue mod N when N is a power of two up to 2^64."""
    return modulus <= 1 << 32 or (modulus <= 1 << 64 and modulus & (modulus - 1) == 0)


def _int_array(values: Sequence[int]) -> np.ndarray:
    """An object array of Python ints (numpy integers in it would overflow);
    a value ``operator.index`` refuses, such as a float, raises ValueError."""
    try:
        return np.array([operator.index(v) for v in values], dtype=object)
    except TypeError as e:
        raise ValueError(f"keys and differences must be integers: {e}") from None


def _residues(key_set: KeySet, values: Sequence[int]) -> np.ndarray:
    """(k * v) mod N as float ratios in [0, 1), one row per value v in [0, N).

    One outer product in the keys' dtype (wrapping uint64 or Python ints),
    reduced mod N, by a mask when N is a power of two (the wrap alone for
    N = 2^64); exact until each residue is rounded to float64 as
    ``float(int)`` does."""
    n, keys = key_set.modulus, key_set.key_array
    scalar = keys.dtype.type  # np.uint64, or for dtype object the int itself
    r = np.asarray(values, dtype=keys.dtype)[:, None] * keys
    if n & (n - 1):
        r %= scalar(n)
    elif n != 1 << 64:
        r &= scalar(n - 1)
    return r.astype(np.float64) / float(n)


def bias(key_set: KeySet, differences: Sequence[int]) -> np.ndarray:
    """Fidelity between hashes of values differing by each difference.

    Differences are reduced mod N as one array (an int64 array up to N = 2^31,
    else Python ints; a float is refused); residues stay exact until the
    final ratio.  A difference of 0 mod N gives exactly 1.0 without a row.
    The others go in blocks of about _BIAS_BLOCK_CELLS residues, each row's
    d cosines averaged in one order whatever the block: a difference's bias
    ignores its company.
    """
    n = key_set.modulus
    fast = n <= _INT64_DIFFERENCE_N and getattr(differences, "dtype", None) == np.int64
    diffs = (differences if fast else _int_array(differences)) % n
    live = np.flatnonzero(diffs)
    diffs = diffs[live]
    out = np.ones(len(differences))
    step = max(1, _BIAS_BLOCK_CELLS // key_set.d)
    for start in range(0, len(diffs), step):
        ratios = _residues(key_set, diffs[start : start + step])
        out[live[start : start + step]] = np.cos(2.0 * np.pi * ratios).mean(axis=1)
    return out


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
    mode: str  # "exact" | "monte-carlo"
    delta: float
    max_bias: float
    worst_difference: int
    key_set: KeySet
    trials: int | None = None
    confidence: float | None = None


def _exact_bias_sweep(key_set: KeySet) -> tuple[float, int]:
    """(max |bias|, smallest attaining difference) over all nonzero D.

    One FFT over the key indicator vector gives sum_k cos(2 pi k D / N) as
    the real spectrum; bias(N - D) = bias(D) folds the sweep to D <= N/2,
    and the smaller mirror image is always the reported difference.  Among
    differences tied with the maximum up to _SWEEP_TIE_TOLERANCE the
    smallest is reported.
    """
    n = key_set.modulus
    x = np.zeros(n)
    x[key_set.key_array] = 1.0
    spectrum = np.fft.rfft(x).real[1:] / key_set.d
    magnitudes = np.abs(spectrum)
    top = float(magnitudes.max())
    worst = int(np.argmax(magnitudes >= top - _SWEEP_TIE_TOLERANCE))
    return top, worst + 1


def verify_resistance(
    key_set: KeySet,
    delta: float,
    mode: str = "exact",
    trials: int = 2000,
    rng: np.random.Generator | int | None = None,
) -> ResistanceReport:
    """Certify or refute |bias(D)| < delta over nonzero differences.

    Exact mode sweeps every D in [1, N) and is refused (with a pointer at
    Monte Carlo mode) above N = 2^21; it certifies only when the FFT's
    max bias plus _SWEEP_TIE_TOLERANCE stays below delta.  Monte Carlo mode
    samples ``trials`` uniform nonzero differences; each sampled bias is
    still computed exactly, so a refutation is genuine, while a pass
    certifies only with ``confidence`` = the chance that a single worst
    difference would have been drawn.  The returned report carries the key
    set re-annotated with the verdict.  ``trials`` must be at least 1: with
    no trial, no difference is checked.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta out of (0,1): {delta}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = key_set.modulus

    if mode == "exact":
        if n > EXACT_SWEEP_GUARD:
            raise GuardError(
                f"exact sweep over {n - 1} differences exceeds the N <= 2^21 "
                f"guard; use mode='monte-carlo'"
            )
        max_bias, worst = _exact_bias_sweep(key_set)
        meta: dict = {}
    elif mode == "monte-carlo":
        gen = np.random.default_rng(rng)
        max_bias, worst = 0.0, 1
        remaining = trials
        while remaining > 0:
            chunk = min(remaining, 4096)
            remaining -= chunk
            diffs = sorted(v + 1 for v in rand_below_many(gen, n - 1, chunk))
            magnitudes = np.abs(bias(key_set, diffs))
            top = int(np.argmax(magnitudes))
            if magnitudes[top] > max_bias:
                max_bias, worst = float(magnitudes[top]), diffs[top]
        confidence = -math.expm1(trials * math.log1p(-1.0 / (n - 1)))
        meta = {"trials": trials, "confidence": confidence}
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # The FFT's magnitudes may be off by rounding; exact mode keeps its
    # tie tolerance as an allowance, Monte Carlo's biases are direct.
    allowance = _SWEEP_TIE_TOLERANCE if mode == "exact" else 0.0
    certified = max_bias + allowance < delta
    verdict = Certification(mode=mode, max_bias=max_bias, **meta) if certified else Certification()
    # A uint64 key array is passed on as it is, not copied.
    annotated = KeySet(n, key_set.key_array, delta if certified else None, verdict)
    return ResistanceReport(
        certified=certified,
        mode=mode,
        delta=delta,
        max_bias=max_bias,
        worst_difference=worst,
        key_set=annotated,
        trials=meta.get("trials"),
        confidence=meta.get("confidence"),
    )


def required_keys(modulus: int, delta: float) -> int:
    """Hoeffding sizing: d = ceil((2/delta^2) * ln(2N)) random keys suffice
    for delta-resistance with positive probability (union bound over the
    N - 1 differences).  Pure formula; for d > N the searcher falls back to
    the full residue ring, whose bias vanishes identically."""
    if not 0 < delta < 1:
        raise ValueError(f"delta out of (0,1): {delta}")
    return math.ceil((2.0 / (delta * delta)) * math.log(2 * modulus))


def _draw_keys(gen: np.random.Generator, modulus: int, d: int) -> tuple[int, ...]:
    if d == modulus:
        return tuple(range(modulus))
    if modulus <= 1 << 24:
        picked = gen.choice(modulus, size=d, replace=False)
        return tuple(sorted(int(k) for k in picked))
    chosen: set[int] = set()
    while len(chosen) < d:  # each batch is the shortfall, so no draw is spare
        chosen.update(rand_below_many(gen, modulus, d - len(chosen)))
    return tuple(sorted(chosen))


def search_key_set(
    modulus: int,
    delta: float,
    seed: int | np.random.SeedSequence,
    max_attempts: int = 10,
    mc_trials: int = 2000,
) -> KeySet:
    """Draw-and-verify search for a delta-resistant key set over Z_N.

    Each attempt draws d = required_keys(N, delta) distinct keys from its
    own spawned seed stream and verifies them — exactly for N <= 2^21,
    by Monte Carlo above.  Returns the first certified set; raises
    :class:`SearchError` with the best bias seen if every attempt is
    refuted, and :class:`GuardError` before any draw when d > 2^21.
    Bit-reproducible for a fixed seed.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    d = min(required_keys(modulus, delta), modulus)
    if d > EXACT_SWEEP_GUARD:
        raise GuardError(f"refusing to draw {d} keys; guard is d <= {EXACT_SWEEP_GUARD}")
    mode = "exact" if modulus <= EXACT_SWEEP_GUARD else "monte-carlo"
    best = math.inf
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for child in root.spawn(max_attempts):
        gen = np.random.default_rng(child)
        candidate = KeySet(modulus=modulus, keys=_draw_keys(gen, modulus, d))
        report = verify_resistance(candidate, delta, mode=mode, trials=mc_trials, rng=gen)
        if report.certified:
            return report.key_set
        best = min(best, report.max_bias)
    raise SearchError(
        f"no delta={delta} key set over N={modulus} in {max_attempts} attempts "
        f"(best max bias seen: {best:.6f})",
        attempts=max_attempts,
        best_max_bias=best,
    )
