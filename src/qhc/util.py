"""Bit-vector plumbing shared by the polynomial and protocol layers.

Conventions (used everywhere, never locally overridden):

* An *assignment* is a tuple of ints in {0, 1} of length ``n``; position 0
  holds x_1.
* The *index* of an assignment is the integer whose most significant bit
  is x_1, so index order is itertools.product((0, 1), repeat=n) order.
* A *bit matrix* holds one assignment per row (uint8, x_1 in column 0);
  ``bit_matrix`` builds the rows of a range of indices.
* Bit *strings* are written the same way: "01" means x_1=0, x_2=1.

Integers read from key and polynomial files go through ``parse_int`` /
``parse_ints``: a JSON integer or a string of decimal digits, nothing else.
``parse_uint64s`` reads a list of digit strings below 2^64 in one pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def parse_bits(s: str) -> tuple[int, ...]:
    """Parse "0110" into (0, 1, 1, 0). Whitespace is ignored."""
    s = "".join(s.split())
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"not a bit string: {s!r}")
    return tuple(int(c) for c in s)


def format_bits(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    """Inverse of the index convention: bit i is x_{i+1}."""
    if not 0 <= index < 1 << n:
        raise ValueError(f"index {index} out of range for {n} bits")
    return tuple((index >> (n - 1 - i)) & 1 for i in range(n))


def parse_int(value, field: str, signed: bool = False) -> int:
    """``value`` as an int if it is a JSON integer (not a bool) or a string of
    ASCII digits, with one leading '-' when ``signed``; else ValueError naming
    ``field``."""
    if type(value) is str:
        digits = value[1:] if signed and value.startswith("-") else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    elif type(value) is int:
        return value
    raise ValueError(f"{field} must be an integer or a string of decimal digits, got {value!r}")


def parse_ints(values: Sequence, field: str, signed: bool = False) -> tuple[int, ...]:
    """``parse_int`` over a list; a bad entry is named ``field[i]``."""
    return tuple(parse_int(v, f"{field}[{i}]", signed) for i, v in enumerate(values))


def parse_uint64s(values: Sequence) -> np.ndarray | None:
    """A list of nonempty ASCII digit strings (the form qhc writes) as one
    uint64 array, parsed in one pass with no Python int per entry; None for
    any other list, or when a value is 2^64 or more.

    ``np.fromstring`` reads a value of 2^64 or more as 2^64 - 1 without a
    warning, so every entry read as 10^19 or more (every one of 20 or more
    significant digits) is checked again with ``int``."""
    try:
        text = "".join(values)  # TypeError unless every entry is a string
    except TypeError:
        return None
    # bytes.isdigit tests ASCII digits as str.isdigit does here, ten times faster.
    if not (text.isascii() and text.encode().isdigit() and all(values)):
        return None
    array = np.fromstring(" ".join(values), dtype=np.uint64, sep=" ")
    if any(int(values[i]) >> 64 for i in np.flatnonzero(array >= np.uint64(10**19)).tolist()):
        return None
    return array


def bit_matrix(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """(stop - start, n) uint8 array; row r is index_to_bits(start + r, n).

    The rows default to all 2**n indices.  Guarded by callers (n <= 24
    keeps the full matrix under 512 MiB); truth tables take it in blocks."""
    idx = np.arange(start, 1 << n if stop is None else stop, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def rand_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrary-precision bounds."""
    return rand_below_many(rng, bound, 1)[0]


def rand_below_many(rng: np.random.Generator, bound: int, count: int) -> list[int]:
    """``count`` draws of :func:`rand_below`, batched.

    numpy's integers() stops at 64 bits; beyond 2^63 each value is composed
    from 32-bit words and rejected when out of range (expected < 2 tries).
    Each call asks for the words of exactly the values still needed, and
    32-bit draws continue one stream across calls, so the values and the
    generator's state after them are those of drawing one value at a time."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound <= 1 << 63:
        return rng.integers(0, bound, size=count).tolist()
    nbits = bound.bit_length()
    nwords = (nbits + 31) // 32
    out: list[int] = []
    while len(out) < count:
        words = rng.integers(0, 1 << 32, size=nwords * (count - len(out)), dtype=np.uint64)
        for group in words.reshape(-1, nwords).tolist():
            value = 0
            for word in group:
                value = (value << 32) | word
            value >>= nwords * 32 - nbits
            if value < bound:
                out.append(value)
    return out
