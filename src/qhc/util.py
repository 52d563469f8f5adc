"""Bit-vector plumbing shared by the polynomial and protocol layers.

Conventions (used everywhere, never locally overridden):

* An *assignment* is a tuple of ints in {0, 1} of length ``n``; position 0
  holds x_1.
* The *index* of an assignment is the integer whose most significant bit
  is x_1, so index order is itertools.product((0, 1), repeat=n) order.
* A *bit matrix* holds one assignment per row (uint8, x_1 in column 0);
  ``bit_matrix`` builds the rows of a range of indices.  A Boolean
  function's rule reads a block of indices and builds these rows only on
  demand (``qhc.boolfn.Block``).
* Bit *strings* are written the same way: "01" means x_1=0, x_2=1.

Every field of a JSON input (config, key file, polynomial) and every
``search-keys`` flag is read by ``read_field``, which checks its kind and bounds
and names its JSON path on failure.  ``parse_uint64s`` reads a list of digit
strings below 2^64 in one pass.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from .errors import ConfigError

# The kinds of value ``read_field`` reads, spelled as its messages name them.
INT = "a JSON integer"
DIGITS = "an integer or a string of decimal digits"
SIGNED = "an integer or a string of decimal digits with an optional leading '-'"
NUMBER = "a JSON number"
STRING = "a JSON string"
FILE = "a file name"
LIST = "a JSON list"
OBJECT = "a JSON object"
_TYPES = {INT: (int,), DIGITS: (int,), SIGNED: (int,), NUMBER: (int, float),
          STRING: (str,), FILE: (str,), LIST: (list,), OBJECT: (dict,)}

REQUIRED = object()  # the default of a field that must be present

# A message shows at most this much of an offending value, and then its type.
_SHOWN_CHARS = 80
_LONG_TYPES = {str: STRING, int: INT, list: LIST, dict: OBJECT}


def parse_bits(s: str) -> tuple[int, ...]:
    """Parse "0110" into (0, 1, 1, 0), and "" (an empty side) into ().
    Whitespace is ignored."""
    s = "".join(s.split())
    if any(c not in "01" for c in s):
        raise ValueError(f"not a bit string: {show(s)}")
    return tuple(int(c) for c in s)


def format_bits(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    """Inverse of the index convention: bit i is x_{i+1}."""
    if not 0 <= index < 1 << n:
        raise ValueError(f"index {index} out of range for {n} bits")
    return tuple((index >> (n - 1 - i)) & 1 for i in range(n))


def show(value) -> str:
    """A JSON value as an error message shows it: its JSON text (a string's
    repr), cut after _SHOWN_CHARS characters and then named by its type and
    length, so no input makes a message long."""
    text = repr(value) if type(value) is str else json.dumps(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({_LONG_TYPES[type(value)]} of {len(text)} characters)"


def read_field(doc, key, path: str, kind: str, default=REQUIRED, lo=None, hi=None):
    """``doc[key]``, a field of a JSON object or an entry of a JSON list at
    JSON path ``path``, checked as ``kind``; a DIGITS or SIGNED digit string
    is returned as its int.  An absent key gives ``default``; a field whose
    default is None also takes null, as None.  Bounds are inclusive for
    integers and exclusive for numbers; a number must be finite.

    A failure raises ConfigError(path, message), the message starting with
    the field's name (its key, or ``name[i]`` for a list entry).  A field
    that takes null names its whole accepted form ("a JSON integer >= 1 or
    null"); another names what failed, its kind or its bounds, and shows
    the value (:func:`show`)."""
    value = doc[key] if type(key) is int else doc.get(key, REQUIRED)
    if value is REQUIRED:
        if default is REQUIRED:
            raise ConfigError(path, f"{key} is required")
        return default
    if value is None and default is None:
        return None
    if kind in (DIGITS, SIGNED) and type(value) is str:
        digits = value[1:] if kind == SIGNED and value.startswith("-") else value
        if digits.isascii() and digits.isdigit():
            value = int(value)
    typed = type(value) in _TYPES[kind]
    closed = kind != NUMBER
    finite = type(value) is not float or math.isfinite(value)  # json reads NaN, Infinity
    if typed and finite and (lo is None or (lo <= value if closed else lo < value)) and (
        hi is None or (value <= hi if closed else value < hi)
    ):
        return value
    name = key if type(key) is str else path.rpartition(".")[2]
    shown = show(value)
    span = f"{lo}..{hi}" if closed else f"({lo},{hi})"
    if default is None:
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in {span}"
        raise ConfigError(path, f"{name} must be {kind}{bounds} or null, got {shown}")
    if typed and hi is not None:
        raise ConfigError(path, f"{name} out of {span}: {shown}")
    raise ConfigError(path, f"{name} must be {f'>= {lo}' if typed else kind}, got {shown}")


def read_items(values: list, path: str, kind: str, lo=None, hi=None) -> list:
    """``read_field`` on every entry of the JSON list ``values`` at ``path``."""
    return [read_field(values, i, f"{path}[{i}]", kind, lo=lo, hi=hi) for i in range(len(values))]


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
    keeps the full matrix within 512 MiB); a truth-table block builds the
    rows of its range when its rule first reads them.
    The rows are the last n of the 32 bits of each big-endian index."""
    idx = np.arange(start, 1 << n if stop is None else stop, dtype=">u4")
    return np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1)[:, 32 - n:]


def rand_below_many(rng: np.random.Generator, bound: int, count: int) -> list[int]:
    """``count`` uniform integers in [0, bound) for arbitrary-precision bounds.

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
