"""One-way and SMP communication protocols built on quantum hashing.

A protocol spec is a characteristic, a cut and a forward list; it splits
each polynomial as g_j = g1_j + g2_j.  Alice hashes u_j = g1_j(sigma), Bob
(or, in the SMP topology, a referee) compares against the hash of
v_j = -g2_j(gamma, forwarded bits) mod m, and the verdict is the AND of one
swap test per pair; :func:`run_exact` serves both topologies.  On f = 1
inputs every pair collides exactly and the protocol accepts with certainty;
on f = 0 inputs some pair differs (that is what makes the polynomial set a
characteristic).  The acceptance probability is the product of the per-pair
terms (1 + F_j^2)/2 of :func:`qhash.swap_accept`, the one rule that the
exact route, the profile and the bound apply to fidelities F_j from
:func:`qhash.bias`, the one fidelity kernel.  The pairs' swap tests are
independent, so one measured trial accepts with exactly that product: a
sampled run draws its trials from the exact route's ``exact_accept``.

Key sets may live over a modulus N larger than the polynomial modulus m:
residues of Z_m embed as themselves into [0, N), which preserves both
collisions (u = v) and non-collisions (0 < |u - v| < m <= N), so a
delta-certified set over N certifies the same bound here.

Exact analysis is the primary path; sampling exists to demonstrate
measurement statistics, never to establish bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .boolfn import BooleanFunction, Characteristic, LinearPolynomial
from .errors import BoundError, CharacteristicError, GuardError
from .qhash import KeySet, bias, hash_qubits, swap_accept
from .util import format_bits, index_to_bits

# Full-grid error profiling refuses above this many total input bits.
PROFILE_GUARD_BITS = 20

# Profiling refuses polynomial moduli above this: its value tables and
# grid differences are int64 arrays.  Key moduli are not limited.
PROFILE_MODULUS_GUARD = 1 << 31

# Slack for float rounding in the certified-bound check.
_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class ProtocolSpec:
    """A characteristic, cut after Alice's ``n1`` variables (by default its
    natural cut), and one key set per polynomial: a single key set is
    shared by every pair, and a sequence gives each polynomial its own.
    The Alice variables in ``forwarded`` also go to Bob as bits.  Sequences
    are kept as tuples, so a spec stays hashable.  ``splits`` holds each
    polynomial's (g1, g2) at that cut, made here and nowhere else:
    g1(sigma) + g2(gamma, forwarded bits) = g(sigma gamma), with the
    forwarded coefficients and the constant in g2.  Every polynomial is
    linear and so splits cleanly at any cut: forwarding is only ever a
    choice here, never a necessity.

    The spec is the one owner of the protocol's qubit cost and certified
    bound: run reports and profiles keep their spec and read both from it.
    The per-party hash qubits and the certified delta are computed on first
    use and kept, as a spec is immutable."""

    characteristic: Characteristic
    key_sets: tuple[KeySet, ...]
    topology: str = "one-way"
    n1: int = None  # type: ignore[assignment]
    forwarded: tuple[int, ...] = ()
    splits: tuple[tuple[LinearPolynomial, LinearPolynomial], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key_sets = self.key_sets
        if isinstance(key_sets, KeySet):
            key_sets = (key_sets,) * len(self.characteristic)
        object.__setattr__(self, "key_sets", tuple(key_sets))
        if self.n1 is None:
            object.__setattr__(self, "n1", self.characteristic.n1)
        object.__setattr__(self, "forwarded", tuple(self.forwarded))
        n1, fwd, m = self.n1, self.forwarded, self.modulus
        if not 0 <= n1 <= self.function.arity:
            raise ValueError(f"cut {n1} outside 0..{self.function.arity}")
        for i in fwd:
            if not 1 <= i <= n1:
                raise ValueError(f"forwarded index {i} outside Alice's 1..{n1}")
        if len(set(fwd)) != len(fwd):
            raise ValueError("forwarded indices must be distinct")
        moved, splits = set(fwd), []
        for p in self.characteristic.polynomials:
            alice = tuple(0 if i in moved else c for i, c in enumerate(p.coeffs[:n1], 1))
            bob = p.coeffs[n1:] + tuple(p.coeffs[i - 1] for i in fwd)
            splits.append((LinearPolynomial(m, alice), LinearPolynomial(m, bob, p.constant)))
        object.__setattr__(self, "splits", tuple(splits))
        if len(splits) != len(self.key_sets):
            raise ValueError(f"{len(splits)} polynomial pairs but {len(self.key_sets)} key sets")
        for ks in self.key_sets:
            if ks.modulus < self.modulus:
                raise ValueError(
                    f"key modulus {ks.modulus} smaller than polynomial modulus "
                    f"{self.modulus}: differences would wrap"
                )
        if self.topology not in ("one-way", "smp"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "smp" and fwd:
            raise ValueError("forwarded variables have no receiver in the SMP topology")

    @property
    def function(self) -> BooleanFunction:
        return self.characteristic.function

    @property
    def l(self) -> int:
        return len(self.splits)

    @property
    def n2(self) -> int:
        return self.function.arity - self.n1

    @property
    def k(self) -> int:
        return len(self.forwarded)

    @property
    def modulus(self) -> int:
        return self.characteristic.modulus

    @cached_property
    def certified_delta(self) -> float | None:
        """The weakest (largest) delta across pairs, or None unless every
        key set carries an exact delta certification."""
        if not all(ks.certified for ks in self.key_sets):
            return None
        return max(ks.delta for ks in self.key_sets)  # type: ignore[type-var]

    @property
    def certified_bound(self) -> float | None:
        """(1 + delta^2)/2 at the certified delta.  On a 0-input some pair's
        values differ, and that pair alone accepts with at most this, so no
        false accept may exceed it (the l-th power needs every pair to
        differ, which a polynomial list need not give)."""
        delta = self.certified_delta
        return None if delta is None else swap_accept(delta)

    def bounds(self) -> dict:
        """The false-accept bound as a run report writes it."""
        if self.certified_delta is None:
            return {"certified": False, "note": "key sets not exactly certified"}
        return {"certified": True, "false_accept": self.certified_bound}

    @cached_property
    def party_qubits(self) -> int:
        """Qubits of one party's hashes, ceil(log2 d) + 1 per pair: Alice's
        message one way, and each of Alice's and Bob's in SMP."""
        return sum(hash_qubits(ks) for ks in self.key_sets)

    @property
    def total_qubits(self) -> int:
        """Qubits sent in all; forwarded bits ride along at one qubit each
        (computational-basis states)."""
        if self.topology == "smp":
            return 2 * self.party_qubits
        return self.party_qubits + self.k

    def qubits(self) -> dict:
        """The message sizes as a run report writes them."""
        if self.topology == "smp":
            q = self.party_qubits
            return {"forwarded_bits": 0, "alice_to_referee": q, "bob_to_referee": q}
        return {"forwarded_bits": self.k, "alice_to_bob": self.total_qubits}

    def summary(self) -> dict:
        return {
            "function": self.function.name,
            "n1": self.n1,
            "n2": self.n2,
            "forwarded": list(self.forwarded),
            "pairs": self.l,
            "modulus": str(self.modulus),
            "topology": self.topology,
            "key_sets": [
                {
                    "N": str(ks.modulus),
                    "d": ks.d,
                    "delta": ks.delta,
                    "certification": ks.certification.to_json(),
                }
                for ks in self.key_sets
            ],
        }


@dataclass(frozen=True)
class RunReport:
    """One protocol execution on one input, exact and optionally sampled;
    its spec summary, qubit cost and bounds are read from ``spec`` when it
    is written."""

    spec: ProtocolSpec = field(repr=False)
    alice: tuple[int, ...]
    bob: tuple[int, ...]
    f_value: int
    fidelities: tuple[float, ...]
    exact_accept: float
    sampled_bit: int | None = None
    sample_trials: int | None = None
    sample_accepts: int | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        doc: dict = {
            "spec": self.spec.summary(),
            "input": {"alice": format_bits(self.alice), "bob": format_bits(self.bob)},
            "f": self.f_value,
            "exact_accept": self.exact_accept,
            "fidelities": list(self.fidelities),
            "qubits": self.spec.qubits(),
            "bounds": self.spec.bounds(),
        }
        if self.sampled_bit is not None:
            doc["sampled"] = {
                "seed": self.seed,
                "trials": self.sample_trials,
                "accepts": self.sample_accepts,
                "frequency": self.sample_accepts / self.sample_trials,
                "bit": self.sampled_bit,
            }
        return doc


def _check_input(spec: ProtocolSpec, sigma: Sequence[int], gamma: Sequence[int]) -> None:
    if len(sigma) != spec.n1:
        raise ValueError(f"alice input has {len(sigma)} bits, split says {spec.n1}")
    if len(gamma) != spec.n2:
        raise ValueError(f"bob input has {len(gamma)} bits, split says {spec.n2}")
    if any(b not in (0, 1) for b in sigma) or any(b not in (0, 1) for b in gamma):
        raise ValueError("inputs must be 0/1 vectors")


def _hash_points(
    spec: ProtocolSpec, sigma: Sequence[int], gamma: Sequence[int]
) -> list[tuple[int, int]]:
    """Per pair: Alice's hashed value u_j and Bob's comparison value v_j,
    both canonical residues of Z_m embedded into [0, N_j)."""
    bob = tuple(gamma) + tuple(sigma[i - 1] for i in spec.forwarded)
    return [(g1.evaluate(sigma), (-g2.evaluate(bob)) % spec.modulus) for g1, g2 in spec.splits]


def _check_one_sided(
    spec: ProtocolSpec, points: list[tuple[int, int]], sigma: Sequence[int],
    gamma: Sequence[int],
) -> None:
    """Refute the characteristic if some pair's hash points (u_j, v_j) in
    ``points`` differ on the 1-input (sigma, gamma).  The check is on the
    integers, not on the accept probability: a key set whose fidelity at
    some D != 0 rounds to 1.0 must not hide that D."""
    for j, (u, v) in enumerate(points):
        if u != v:
            raise CharacteristicError(
                f"pair {j} differs by {u - v} on the 1-input "
                f"{format_bits(sigma)},{format_bits(gamma)} — the polynomial set is "
                f"not a characteristic of {spec.function.name}"
            )


def _check_bound(
    spec: ProtocolSpec, accept: float, sigma: Sequence[int], gamma: Sequence[int]
) -> None:
    """Refute the key sets' certificates if the 0-input (sigma, gamma)
    accepts above the certified bound."""
    bound = spec.certified_bound
    if bound is not None and accept > bound + _BOUND_TOL:
        raise BoundError(
            f"accept probability {accept} on the 0-input "
            f"{format_bits(sigma)},{format_bits(gamma)} exceeds the certified bound "
            f"{bound} — a key set's delta certificate is false"
        )


def run_exact(spec: ProtocolSpec, sigma: Sequence[int], gamma: Sequence[int]) -> RunReport:
    """Closed-form acceptance probability on one input."""
    _check_input(spec, sigma, gamma)
    points = _hash_points(spec, sigma, gamma)
    f_value = spec.function(tuple(sigma) + tuple(gamma))
    if f_value == 1:
        _check_one_sided(spec, points, sigma, gamma)
    fidelities = [float(bias(ks, [u - v])[0]) for ks, (u, v) in zip(spec.key_sets, points)]
    accept = 1.0
    for f in fidelities:
        accept *= swap_accept(f)
    if f_value == 0:
        _check_bound(spec, accept, sigma, gamma)
    return RunReport(
        spec=spec,
        alice=tuple(sigma),
        bob=tuple(gamma),
        f_value=f_value,
        fidelities=tuple(fidelities),
        exact_accept=accept,
    )


def run_sampled(
    spec: ProtocolSpec,
    sigma: Sequence[int],
    gamma: Sequence[int],
    seed: int,
    trials: int = 1,
) -> RunReport:
    """Simulate measured trials: each accepts with ``exact_accept``, the
    product over the pairs' independent swap tests.  The first trial's bit
    is one uniform draw below it, and the other trials' accept count one
    binomial draw, so memory is O(1) in ``trials``, which
    ``Generator.binomial`` takes up to 2^63 - 1.  Identical seeds give
    identical reports."""
    if not 1 <= trials <= (1 << 63) - 1:
        raise ValueError(f"trials {trials} outside 1..{(1 << 63) - 1}")
    base = run_exact(spec, sigma, gamma)
    gen = np.random.default_rng(seed)
    bit = int(gen.random() < base.exact_accept)
    return replace(
        base,
        sampled_bit=bit,
        sample_trials=trials,
        sample_accepts=bit + int(gen.binomial(trials - 1, base.exact_accept)),
        seed=seed,
    )


@dataclass(frozen=True)
class ErrorProfile:
    """Exact acceptance over the full input grid of ``spec``, summarized
    over f = 0; the function, the cut and the certified bound are those of
    ``spec``.

    A row of the grid depends on sigma only through Alice's message (every
    u_j and the forwarded bits) and its f row, so the rows are kept once per
    Alice class: ``row_class`` maps each sigma to its class, and row c of
    ``cells`` holds class c's cells.  When every class is one sigma, or
    the polynomials vanish on some 0-input, ``row_class`` is the identity
    and ``cells`` the whole grid.  ``values`` holds the distinct products
    of per-pair acceptances that occur, and a cell's index is 2 * code + f:
    the index of its product in ``values``, and its f value.  ``values`` is
    never longer than the grid has cells.
    The f = 0 summaries, the bound check and the CSV read ``cells``;
    ``codes``, ``f_grid`` and ``accept_grid`` expand them to the whole
    grid."""

    spec: ProtocolSpec = field(repr=False)
    worst_false_accept: float
    attaining: tuple[tuple[int, ...], tuple[int, ...]] | None
    false_inputs: int
    histogram: tuple[int, ...]  # 20 equal bins over [0, 1]
    values: np.ndarray = field(compare=False, repr=False)
    cells: np.ndarray = field(compare=False, repr=False)
    row_class: np.ndarray = field(compare=False, repr=False)

    @property
    def codes(self) -> np.ndarray:  # read from cells, as is f_grid, anew on each read
        return self.cells[self.row_class] >> 1

    @property
    def f_grid(self) -> np.ndarray:
        return (self.cells[self.row_class] & 1).astype(np.uint8)

    @property
    def accept_grid(self) -> np.ndarray:
        return self.values[self.codes]

    def csv_blocks(self):
        """The CSV text: the header, then one block of lines per sigma row.

        Rows are ``sigma,gamma,f,exact_accept`` in assignment order, floats
        written with ``repr``.  Each ``values`` entry is formatted once per f
        and a cell picks its tail by its index, so nothing is sorted here and
        a class's first row is one join over a template whose gamma slots
        never change.  Later rows of that class differ only in the sigma
        that starts each line: the first row's text is cut once at every
        newline followed by its sigma, and each later row joins the pieces
        with its own sigma.  A class's pieces are dropped once its last row
        is written."""

        def bits(i: int, n: int) -> str:  # an empty side is "", not format's "0"
            return format(i, f"0{n}b") if n else ""

        n1, n2 = self.spec.n1, self.spec.n2
        yield "sigma,gamma,f,exact_accept\n"
        cols = 1 << n2
        tails = np.array([f",{f},{a!r}\n" for a in self.values.tolist() for f in (0, 1)],
                         dtype=object)
        line = [""] * (3 * cols)  # sigma + ",", gamma, tail for each cell
        line[1::3] = [bits(j, n2) for j in range(cols)]
        left = np.bincount(self.row_class).tolist()  # rows still to write, per class
        kept = {}  # class -> its first row's text, cut at each line's sigma
        for i, c in enumerate(self.row_class.tolist()):
            sigma = bits(i, n1)
            if c in kept:
                yield sigma + ("\n" + sigma).join(kept[c])
            else:
                line[0::3] = [sigma + ","] * cols
                line[2::3] = tails[self.cells[c]].tolist()
                block = "".join(line)
                yield block
                if left[c] > 1:  # a newline and then sigma occur only at line starts
                    pieces = block.split("\n" + sigma)
                    pieces[0] = pieces[0][n1:]
                    kept[c] = pieces
            left[c] -= 1
            if not left[c]:
                kept.pop(c, None)


def _value_tables(spec: ProtocolSpec, pair: int) -> tuple[np.ndarray, np.ndarray]:
    """u over all sigma (2^n1,) and v over (forward pattern, gamma) (2^k, 2^n2),
    both int64 in [0, m), so a cell's difference u - v lies in (-m, m).
    Callers guarantee int64 safety."""
    g1, g2 = spec.splits[pair]
    return g1.table(), (-g2.table().reshape(1 << spec.n2, 1 << spec.k).T) % spec.modulus


def _rank(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """What ``np.unique(keys, return_inverse=True)`` gives for integer keys
    in [0, size): the ascending distinct keys, and an intp inverse shaped
    like ``keys``.  When a table of ``size`` flags is no larger than
    ``keys``, the keys that occur are marked in it and ranked by a running
    count, with no sort; wider keys fall back to ``np.unique``."""
    if size > keys.size:
        uniq, inv = np.unique(keys, return_inverse=True)
        return uniq, inv.reshape(keys.shape)  # numpy 1.x flattens the inverse
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


def _alice_classes(
    truth: np.ndarray, tables: list[tuple[np.ndarray, np.ndarray]], m: int,
    pattern: np.ndarray | int, patterns: int, ones: int,
) -> tuple | None:
    """Group the sigma rows of ``truth`` into Alice classes: the same u_j
    for every pair (the value ``tables``), the same forward ``pattern`` (one
    of ``patterns``; 0 when nothing is forwarded) and the same f row.
    Returns each sigma's class, and each class's size, f row, pattern and
    value tables (its u_j, Bob's v_j), or None when every class would be
    one sigma or the f rows differ within a class.

    The (pattern, u_j) keys are ranked one pair at a time with
    :func:`_rank`, and each class's values are read back from its keys.  A
    class's f row is taken to be the cells where every pair collides,
    u_j = v_j (from Bob's ``tables``).  The one-sided check has shown that
    each sigma's 1-cells lie within its class's row, so the rows are equal
    when their 1-counts add up to ``ones``, the grid's; they do not only
    when the polynomials vanish on some 0-input."""
    code, count, keys = pattern, patterns, []
    for u, _ in tables:
        uniq, code = _rank(code * m + u, count * m)
        count = uniq.size
        if count == truth.shape[0]:
            return None
        keys.append(uniq)
    class_us, class_pattern = [], np.arange(count)
    for uniq in reversed(keys):  # a class's key at pair j: (its key at pair j - 1) * m + u_j
        class_pattern, u = np.divmod(uniq[class_pattern], m)
        class_us.insert(0, u)
    f_rows = np.ones((count, truth.shape[1]), dtype=bool)
    for u, (_, v) in zip(class_us, tables):
        f_rows &= u[:, None] == v[class_pattern]
    sizes = np.bincount(code, minlength=count)
    if sizes @ f_rows.sum(axis=1) != ones:
        return None
    class_tables = [(u, v) for u, (_, v) in zip(class_us, tables)]
    return code, sizes, f_rows.view(np.uint8), class_pattern, class_tables


def error_profile(spec: ProtocolSpec) -> ErrorProfile:
    """Enumerate every (sigma, gamma), assert that every pair's hash points
    coincide on f = 1 (so acceptance is 1), and report the worst false
    accept (smallest attaining input) over f = 0, refusing it if it
    exceeds the certified bound.

    A row of the grid depends on sigma only through Alice's message and
    its f row, so the grid is built on one row per Alice class
    (:func:`_alice_classes`): the same u_j for every pair, the same
    forwarded bits and the same f row.  The counts below weigh each class
    row by its size.  When every class would be one sigma (EQ at its
    natural cut), Bob holds no bits, or the polynomials vanish on some
    0-input, the grid is the whole grid.

    Each pair's fidelities come from one :func:`qhash.bias` call over the
    distinct differences of the grid, so every cell equals the
    ``exact_accept`` that :func:`run_exact` reports for that input.  When
    N < 2m two differences can share a residue mod N, and ``bias`` is
    called on the distinct residues instead: it reduces mod N first, so
    the values are the same bits.  Every ranking here (the Alice keys, the
    signed differences u - v + m, the residues and the codes) is
    :func:`_rank`: a counting table where it fits the keys, else one sort.
    The differences take 2m flags, whatever the key modulus.  Each
    cell then gets one index, 2 * code + f: one weighted count per index
    gives the f = 0 summaries.  The attaining input is the first sigma
    whose class row holds the worst value at f = 0, at the first such
    gamma.  The one-sided check reads u and v at every f = 1 cell of the
    whole grid, on the integers.

    Guarded at n1 + n2 <= 20 and at polynomial moduli m <= 2^31; run
    chosen inputs exactly (``qhc run``) beyond that.
    """
    n1, n2 = spec.n1, spec.n2
    if n1 + n2 > PROFILE_GUARD_BITS:
        raise GuardError(
            f"full profile enumerates 2^{n1 + n2} inputs; guard is "
            f"{PROFILE_GUARD_BITS} total bits — use qhc run (exact) on chosen inputs"
        )
    m = spec.modulus
    if m > PROFILE_MODULUS_GUARD:
        raise GuardError("profiling needs a polynomial modulus within the vectorized 2^31 range")

    truth = spec.function.truth_table().reshape(1 << n1, 1 << n2)

    # Bob's values per sigma row: one row for all when nothing is forwarded,
    # else the row of that sigma's forward pattern.
    k = spec.k
    pattern = 0
    if k:
        pattern = np.zeros(1 << n1, dtype=np.int64)
        for pos, i in enumerate(spec.forwarded):
            pattern |= (np.arange(1 << n1) >> (n1 - i) & 1) << (k - 1 - pos)
    tables = [_value_tables(spec, j) for j in range(spec.l)]

    # The 1-cells in assignment order, as (row, column): at each, every
    # pair's difference u - v must be 0.  ``differs`` flags those where
    # some pair's is not, read from the value tables at those cells alone.
    # ``truth`` holds 0/1 bytes, scanned as bool: 9x faster than as uint8.
    rows, cols = np.divmod(np.flatnonzero(truth.view(bool)), 1 << n2)
    bob_rows = pattern[rows] if k else 0
    differs = np.zeros(rows.size, dtype=bool)
    for u, v in tables:
        differs |= u[rows] != v[bob_rows, cols]
    if differs.any():  # the first offending 1-input, refused as run_exact refuses it
        at = int(np.argmax(differs))
        sigma, gamma = index_to_bits(int(rows[at]), n1), index_to_bits(int(cols[at]), n2)
        _check_one_sided(spec, _hash_points(spec, sigma, gamma), sigma, gamma)

    # From here on the grid has one row per Alice class, weighted by the
    # class's size in the counts.  With no bits for Bob a row is one cell,
    # and a class saves nothing.
    classes = _alice_classes(truth, tables, m, pattern, 1 << k, rows.size) if n2 else None
    if classes is None:
        row_class, weights = np.arange(1 << n1), None
    else:
        row_class, sizes, truth, pattern, tables = classes
        weights = np.repeat(sizes, 1 << n2)

    # Each cell's acceptance is (a_0 * a_1) * ..., a_j its pair-j term, in
    # the order run_exact multiplies them.  Pair j's terms come per distinct
    # difference (``inv`` indexes them), priced once per distinct residue
    # mod N; the products so far come per distinct code.  The (code, inv)
    # pairs that occur are compacted to new codes, so no table outgrows the
    # grid and each product is formed once.
    for j, (ks, (u, v)) in enumerate(zip(spec.key_sets, tables)):
        uniq, inv = _rank((u + m)[:, None] - v[pattern], 2 * m)
        diffs, at = uniq - m, slice(None)
        if ks.modulus < 2 * m:  # D and D - N share a residue: price it once
            diffs, at = _rank(diffs % ks.modulus, ks.modulus)
        terms = swap_accept(bias(ks, diffs))[at]
        if j == 0:
            values, codes = terms, inv
        else:
            used, codes = _rank(codes * terms.size + inv, values.size * terms.size)
            values = values[used // terms.size] * terms[used % terms.size]

    # One index per cell, 2 * code + f (made in place: ``codes`` is ours);
    # per index, how many cells of the whole grid hold it.
    cells = codes
    cells <<= 1
    cells |= truth
    counts = np.bincount(cells.ravel(), weights, minlength=2 * values.size)
    false_counts = counts[0::2]
    false_inputs = int(false_counts.sum())
    hist, _ = np.histogram(values, bins=20, range=(0.0, 1.0), weights=false_counts)
    if false_inputs == 0:
        worst, attaining = 0.0, None
    else:
        worst = float(values[false_counts > 0].max())
        # Distinct codes can share a value (bias(D) = bias(N - D)), so the
        # first attaining input is searched among the cells, not the codes:
        # the first sigma whose class row holds a flagged cell, and there
        # the first such gamma.
        flags = np.zeros(2 * values.size, dtype=bool)
        flags[0::2] = values == worst
        hits = flags[cells]
        i = int(np.argmax(hits.any(axis=1)[row_class]))
        j = int(np.argmax(hits[row_class[i]]))
        attaining = (index_to_bits(i, n1), index_to_bits(j, n2))
        _check_bound(spec, worst, *attaining)

    return ErrorProfile(
        spec=spec,
        worst_false_accept=worst,
        attaining=attaining,
        false_inputs=false_inputs,
        histogram=tuple(int(c) for c in hist),
        values=values,
        cells=cells,
        row_class=row_class,
    )
