"""One-way and SMP communication protocols built on quantum hashing.

A protocol spec is a characteristic, a cut and a forward list; it splits
each polynomial as g_j = g1_j + g2_j.  Alice hashes u_j = g1_j(sigma), Bob
(or, in the SMP topology, a referee) compares against the hash of
v_j = -g2_j(gamma, forwarded bits) mod m, and the verdict is the AND of one
swap test per pair; :func:`run_exact` serves both topologies.  On f = 1
inputs every pair collides exactly and the protocol accepts with certainty;
on f = 0 inputs some pair differs (that is what makes the polynomial set a
characteristic).  The acceptance probability is the product of the per-pair
terms (1 + F_j^2)/2 of :func:`qhash.swap_accept`, the one rule that every
route (exact, sampled, profile) and the bound apply to fidelities F_j from
:func:`qhash.bias`, the one fidelity kernel.

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

from .boolfn import BooleanFunction, Characteristic, FunctionInstance, LinearPolynomial
from .errors import BoundError, CharacteristicError, GuardError
from .qhash import KeySet, bias, hash_qubits, swap_accept
from .util import format_bits, index_to_bits

# Full-grid error profiling refuses above this many total input bits.
PROFILE_GUARD_BITS = 20

# Sampled runs refuse above this many Bernoulli draws (pairs x trials).
SAMPLE_GUARD_DRAWS = 1 << 24

# Sampled runs draw at most this many uniforms at a time.
_SAMPLE_CHUNK = 1 << 16

# Profiling refuses polynomial moduli above this: its value tables and
# grid differences are int64 arrays.  Key moduli are not limited.
PROFILE_MODULUS_GUARD = 1 << 31

# Slack for float rounding in the one-sided and certified-bound checks.
_ONE_SIDED_TOL = 1e-12


@dataclass(frozen=True)
class ProtocolSpec:
    """A characteristic, cut after Alice's ``n1`` variables, and one key set
    per polynomial; the Alice variables in ``forwarded`` also go to Bob as
    bits.  ``splits`` holds each polynomial's (g1, g2) at that cut, made
    here and nowhere else: g1(sigma) + g2(gamma, forwarded bits) = g(sigma
    gamma), with the forwarded coefficients and the constant in g2.  Every
    polynomial is linear and so splits cleanly at any cut: forwarding is
    only ever a choice here, never a necessity.

    The spec is the one owner of the protocol's qubit cost and certified
    bound: run reports and profiles keep their spec and read both from it.
    The per-party hash qubits and the certified delta are computed on first
    use and kept, as a spec is immutable."""

    characteristic: Characteristic
    n1: int
    key_sets: tuple[KeySet, ...]
    forwarded: tuple[int, ...] = ()
    topology: str = "one-way"
    splits: tuple[tuple[LinearPolynomial, LinearPolynomial], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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
        """The false-accept bounds as a run report writes them, with the
        looser linear line (1 + delta)/2 sometimes quoted for this test."""
        delta = self.certified_delta
        if delta is None:
            return {"certified": False, "note": "key sets not exactly certified"}
        return {"certified": True, "false_accept": self.certified_bound,
                "false_accept_linear": 0.5 * (1.0 + delta)}

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


def build_spec(
    instance: FunctionInstance,
    key_sets: KeySet | Sequence[KeySet],
    topology: str = "one-way",
    n1: int | None = None,
    forwarded: Sequence[int] = (),
) -> ProtocolSpec:
    """Assemble a spec from a function instance, cut at ``n1`` (default: the
    instance's natural cut).

    A single key set is shared across all pairs; pass a sequence to give
    each polynomial its own.
    """
    if isinstance(key_sets, KeySet):
        key_sets = (key_sets,) * len(instance.characteristic)
    cut = instance.n1 if n1 is None else n1
    return ProtocolSpec(instance.characteristic, cut, tuple(key_sets), tuple(forwarded), topology)


@dataclass(frozen=True)
class RunReport:
    """One protocol execution on one input, exact and optionally sampled;
    its qubit cost and bounds are read from ``spec`` when it is written."""

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

    def to_json(self, spec_summary: dict | str | None = None) -> dict:
        doc: dict = {
            "input": {"alice": format_bits(self.alice), "bob": format_bits(self.bob)},
            "f": self.f_value,
            "exact_accept": self.exact_accept,
            "fidelities": list(self.fidelities),
            "qubits": self.spec.qubits(),
            "bounds": self.spec.bounds(),
        }
        if spec_summary is not None:
            doc = {"spec": spec_summary, **doc}
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


def _check_bound(
    spec: ProtocolSpec, accept: float, sigma: Sequence[int], gamma: Sequence[int]
) -> None:
    """Refute the key sets' certificates if the 0-input (sigma, gamma)
    accepts above the certified bound."""
    bound = spec.certified_bound
    if bound is not None and accept > bound + _ONE_SIDED_TOL:
        raise BoundError(
            f"accept probability {accept} on the 0-input "
            f"{format_bits(sigma)},{format_bits(gamma)} exceeds the certified bound "
            f"{bound} — a key set's delta certificate is false"
        )


def run_exact(spec: ProtocolSpec, sigma: Sequence[int], gamma: Sequence[int]) -> RunReport:
    """Closed-form acceptance probability on one input."""
    _check_input(spec, sigma, gamma)
    fidelities = [
        float(bias(ks, [u - v])[0])
        for ks, (u, v) in zip(spec.key_sets, _hash_points(spec, sigma, gamma))
    ]
    accept = 1.0
    for f in fidelities:
        accept *= swap_accept(f)
    f_value = spec.function(tuple(sigma) + tuple(gamma))
    if f_value == 1 and accept < 1.0 - _ONE_SIDED_TOL:
        raise CharacteristicError(
            f"accept probability {accept} on a 1-input — the polynomial set is "
            f"not a characteristic of {spec.function.name}"
        )
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
    """Simulate measured swap outcomes: per trial, AND of one Bernoulli draw
    per pair.  Identical seeds give identical reports.  Refused before any
    draw when pairs x trials exceeds SAMPLE_GUARD_DRAWS."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if spec.l * trials > SAMPLE_GUARD_DRAWS:
        raise GuardError(f"sampled run of {spec.l} x {trials} draws; guard is {SAMPLE_GUARD_DRAWS}")
    base = run_exact(spec, sigma, gamma)
    probs = swap_accept(np.array(base.fidelities))
    accepted = _accepted_trials(np.random.default_rng(seed), probs, trials)
    return replace(
        base,
        sampled_bit=int(accepted[0]),
        sample_trials=trials,
        sample_accepts=int(accepted.sum()),
        seed=seed,
    )


def _accepted_trials(
    gen: np.random.Generator, probs: np.ndarray, trials: int, chunk: int = _SAMPLE_CHUNK
) -> np.ndarray:
    """Per trial, whether every pair's uniform draw fell below its accept
    probability.  The draws are those of ``gen.random((len(probs), trials))``
    in its row-major order, taken ``chunk`` at a time, so no pairs x trials
    array is ever held."""
    accepted = np.ones(trials, dtype=bool)
    for p in probs.tolist():
        for start in range(0, trials, chunk):
            stop = min(start + chunk, trials)
            accepted[start:stop] &= gen.random(stop - start) < p
    return accepted


@dataclass(frozen=True)
class ErrorProfile:
    """Exact acceptance over the full input grid of ``spec``, summarized
    over f = 0; the function, the cut and the certified bound are those of
    ``spec``.

    ``values`` holds the distinct products of per-pair acceptances that
    occur, and ``cells`` the one index of each cell, 2 * code + f: the
    index of its product in ``values`` (``codes``), and its f value
    (``f_grid``).  ``values`` is never longer than the grid has cells.
    The checks, the f = 0 summaries and the CSV all read ``cells``."""

    spec: ProtocolSpec = field(repr=False)
    worst_false_accept: float
    attaining: tuple[tuple[int, ...], tuple[int, ...]] | None
    false_inputs: int
    histogram: tuple[int, ...]  # 20 equal bins over [0, 1]
    values: np.ndarray = field(compare=False, repr=False)
    cells: np.ndarray = field(compare=False, repr=False)

    @property
    def codes(self) -> np.ndarray:  # read from cells, as is f_grid, anew on each read
        return self.cells >> 1

    @property
    def f_grid(self) -> np.ndarray:
        return (self.cells & 1).astype(np.uint8)

    @property
    def accept_grid(self) -> np.ndarray:
        return self.values[self.codes]

    def csv_blocks(self):
        """The CSV text: the header, then one block of lines per sigma row.

        Rows are ``sigma,gamma,f,exact_accept`` in assignment order, floats
        written with ``repr``.  Each ``values`` entry is formatted once per f
        and a cell picks its tail by its index, so nothing is sorted here and
        a block is one join over a template whose gamma slots never change."""

        def bits(i: int, n: int) -> str:  # an empty side is "", not format's "0"
            return format(i, f"0{n}b") if n else ""

        n1, n2 = self.spec.n1, self.spec.n2
        yield "sigma,gamma,f,exact_accept\n"
        cols = 1 << n2
        tails = np.array([f",{f},{a!r}\n" for a in self.values.tolist() for f in (0, 1)],
                         dtype=object)
        line = [""] * (3 * cols)  # sigma + ",", gamma, tail for each cell
        line[1::3] = [bits(j, n2) for j in range(cols)]
        for i, row in enumerate(self.cells):
            line[0::3] = [bits(i, n1) + ","] * cols
            line[2::3] = tails[row].tolist()
            yield "".join(line)


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


def error_profile(spec: ProtocolSpec) -> ErrorProfile:
    """Enumerate every (sigma, gamma), assert acceptance 1 on f = 1, and
    report the worst false accept (smallest attaining input) over f = 0,
    refusing it if it exceeds the certified bound.

    Each pair's fidelities come from one :func:`qhash.bias` call over the
    distinct differences of the grid, so every cell equals the
    ``exact_accept`` that :func:`run_exact` reports for that input.  When
    N < 2m two differences can share a residue mod N, and ``bias`` is
    called on the distinct residues instead: it reduces mod N first, so
    the values are the same bits.  The signed differences u - v + m and
    the codes are ranked with a counting table (:func:`_rank`): 2m flags
    for the differences, whatever the key modulus.  Nothing is sorted when
    2m, and each product of table sizes, is no larger than the grid.  Each
    cell then gets one index, 2 * code + f: one count per index gives the
    one-sided check and the f = 0 summaries, and one argmax over flagged
    indices a first offending or attaining cell.

    Guarded at n1 + n2 <= 20 and at polynomial moduli m <= 2^31; use
    sampled runs beyond that.
    """
    n1, n2 = spec.n1, spec.n2
    if n1 + n2 > PROFILE_GUARD_BITS:
        raise GuardError(
            f"full profile enumerates 2^{n1 + n2} inputs; guard is "
            f"{PROFILE_GUARD_BITS} total bits — use run_sampled on chosen inputs"
        )
    m = spec.modulus
    if m > PROFILE_MODULUS_GUARD:
        raise GuardError("profiling needs a polynomial modulus within the vectorized 2^31 range")

    truth = spec.function.truth_table().reshape(1 << n1, 1 << n2)

    # Bob's values per sigma row: one row for all when nothing is forwarded,
    # else the row of that sigma's forward pattern.
    k = spec.k
    if k:
        pattern = np.zeros(1 << n1, dtype=np.int64)
        for pos, i in enumerate(spec.forwarded):
            pattern |= (np.arange(1 << n1) >> (n1 - i) & 1) << (k - 1 - pos)

    # Each cell's acceptance is (a_0 * a_1) * ..., a_j its pair-j term, in
    # the order run_exact multiplies them.  Pair j's terms come per distinct
    # difference (``inv`` indexes them), priced once per distinct residue
    # mod N; the products so far come per distinct code.  The (code, inv)
    # pairs that occur are compacted to new codes, so no table outgrows the
    # grid and each product is formed once.
    for j, ks in enumerate(spec.key_sets):
        u, v = _value_tables(spec, j)
        uniq, inv = _rank((u + m)[:, None] - (v[pattern] if k else v), 2 * m)
        diffs, at = uniq - m, slice(None)
        if ks.modulus < 2 * m:  # D and D - N share a residue: price it once
            diffs, at = np.unique(diffs % ks.modulus, return_inverse=True)
        terms = swap_accept(bias(ks, diffs))[at]
        if j == 0:
            values, codes = terms, inv
        else:
            used, codes = _rank(codes * terms.size + inv, values.size * terms.size)
            values = values[used // terms.size] * terms[used % terms.size]

    # One index per cell, 2 * code + f (made in place: ``codes`` is ours);
    # per index, how many cells hold it.
    cells = codes
    cells <<= 1
    cells |= truth
    counts = np.bincount(cells.ravel(), minlength=2 * values.size)

    def first_cell(flags: np.ndarray) -> tuple[int, int]:  # (row, column), first flagged
        return divmod(int(np.argmax(flags[cells])), 1 << n2)

    flags = np.zeros(2 * values.size, dtype=bool)
    flags[1::2] = values < 1.0 - _ONE_SIDED_TOL
    if (flags & (counts > 0)).any():
        i, j = first_cell(flags)
        raise CharacteristicError(
            f"accept probability {values[cells[i, j] >> 1]} on the 1-input "
            f"{format_bits(index_to_bits(i, n1))},"
            f"{format_bits(index_to_bits(j, n2))} — polynomial set is not "
            f"a characteristic of {spec.function.name}"
        )

    false_counts = counts[0::2]
    false_inputs = int(false_counts.sum())
    hist, _ = np.histogram(values, bins=20, range=(0.0, 1.0), weights=false_counts)
    if false_inputs == 0:
        worst, attaining = 0.0, None
    else:
        worst = float(values[false_counts > 0].max())
        # Distinct codes can share a value (bias(D) = bias(N - D)), so the
        # first attaining input is searched among the cells, not the codes.
        flags[:] = False
        flags[0::2] = values == worst
        i, j = first_cell(flags)
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
    )
