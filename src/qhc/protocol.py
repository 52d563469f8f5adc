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

from .boolfn import BooleanFunction, Characteristic, Decomposition, FunctionInstance, split_polynomial
from .errors import BoundError, CharacteristicError, GuardError
from .qhash import KeySet, bias, hash_qubits, swap_accept
from .util import format_bits, index_to_bits

# Full-grid error profiling refuses above this many total input bits.
PROFILE_GUARD_BITS = 20

# Sampled runs refuse above this many Bernoulli draws (pairs x trials).
SAMPLE_GUARD_DRAWS = 1 << 24

# Sampled runs draw at most this many uniforms at a time.
_SAMPLE_CHUNK = 1 << 16

# Profiling refuses moduli above this: its value tables and grid
# differences are int64 arrays.
PROFILE_MODULUS_GUARD = 1 << 31

# Slack for float rounding in the one-sided and certified-bound checks.
_ONE_SIDED_TOL = 1e-12


@dataclass(frozen=True)
class ProtocolSpec:
    """A characteristic, cut after Alice's ``n1`` variables, and one key set
    per polynomial; the Alice variables in ``forwarded`` also go to Bob as
    bits.  ``splits`` holds each polynomial's Decomposition at that cut,
    made here and nowhere else; the qubit cost and certified delta are
    computed on first use and kept, as a spec is immutable."""

    characteristic: Characteristic
    n1: int
    key_sets: tuple[KeySet, ...]
    forwarded: tuple[int, ...] = ()
    topology: str = "one-way"
    splits: tuple[Decomposition, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        splits = tuple(
            split_polynomial(p, self.n1, self.forwarded) for p in self.characteristic.polynomials
        )
        object.__setattr__(self, "splits", splits)
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
        if self.topology == "smp" and self.forwarded:
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

    @property
    def bounds_certified(self) -> bool:
        """True when every key set carries an exact delta certification."""
        return all(ks.certified for ks in self.key_sets)

    @cached_property
    def certified_delta(self) -> float | None:
        """The weakest (largest) certified delta across pairs, if all have one."""
        if not self.bounds_certified:
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

    @cached_property
    def cost(self) -> "CommCost":
        return comm_cost(self)

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
class CommCost:
    """Message sizes in qubits; forwarded classical bits ride along at one
    qubit each (computational-basis states)."""

    topology: str
    pair_qubits: tuple[int, ...]
    forwarded_bits: int
    classical_baseline: int
    alice_to_bob: int | None = None
    alice_to_referee: int | None = None
    bob_to_referee: int | None = None

    @property
    def total(self) -> int:
        if self.topology == "one-way":
            return self.alice_to_bob or 0
        return (self.alice_to_referee or 0) + (self.bob_to_referee or 0)

    def to_json(self) -> dict:
        doc: dict = {"forwarded_bits": self.forwarded_bits}
        if self.topology == "one-way":
            doc["alice_to_bob"] = self.alice_to_bob
        else:
            doc["alice_to_referee"] = self.alice_to_referee
            doc["bob_to_referee"] = self.bob_to_referee
        return doc


def comm_cost(spec: ProtocolSpec) -> CommCost:
    """Qubit accounting: each hash costs ceil(log2 d) + 1, plus k forwarded
    bits; the classical baseline is Alice sending her n1 input bits."""
    per_pair = tuple(hash_qubits(ks) for ks in spec.key_sets)
    hashes = sum(per_pair)
    if spec.topology == "one-way":
        return CommCost(
            topology="one-way",
            pair_qubits=per_pair,
            forwarded_bits=spec.k,
            classical_baseline=spec.n1,
            alice_to_bob=hashes + spec.k,
        )
    return CommCost(
        topology="smp",
        pair_qubits=per_pair,
        forwarded_bits=0,
        classical_baseline=spec.n1,
        alice_to_referee=hashes,
        bob_to_referee=hashes,
    )


@dataclass(frozen=True)
class RunReport:
    """One protocol execution on one input, exact and optionally sampled."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]
    f_value: int
    fidelities: tuple[float, ...]
    exact_accept: float
    cost: CommCost
    certified_delta: float | None = None  # None unless every key set is certified
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
            "qubits": self.cost.to_json(),
        }
        if spec_summary is not None:
            doc = {"spec": spec_summary, **doc}
        if self.certified_delta is not None:
            delta = self.certified_delta
            doc["bounds"] = {
                "certified": True,
                "false_accept": swap_accept(delta),
                # looser comparison line sometimes quoted for this test
                "false_accept_linear": 0.5 * (1.0 + delta),
            }
        else:
            doc["bounds"] = {"certified": False, "note": "key sets not exactly certified"}
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
    points = []
    for s in spec.splits:
        u = s.g1.evaluate(sigma)
        v = (-s.g2.evaluate(s.bob_argument(sigma, gamma))) % s.modulus
        points.append((u, v))
    return points


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
        alice=tuple(sigma),
        bob=tuple(gamma),
        f_value=f_value,
        fidelities=tuple(fidelities),
        exact_accept=accept,
        cost=spec.cost,
        certified_delta=spec.certified_delta,
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
    """Exact acceptance over the full input grid, summarized over f = 0.

    ``values`` holds the distinct products of per-pair acceptances that
    occur, and ``codes`` the index of each cell's product in it;
    ``values`` is never longer than the grid has cells.  The f = 0
    summaries are read from how many 0-cells hold each code."""

    function_name: str
    n1: int
    n2: int
    worst_false_accept: float
    attaining: tuple[tuple[int, ...], tuple[int, ...]] | None
    false_inputs: int
    histogram: tuple[int, ...]  # 20 equal bins over [0, 1]
    certified_bound: float | None
    f_grid: np.ndarray = field(compare=False, repr=False)
    values: np.ndarray = field(compare=False, repr=False)
    codes: np.ndarray = field(compare=False, repr=False)

    @property
    def accept_grid(self) -> np.ndarray:  # built anew on each read
        return self.values[self.codes]

    def csv_blocks(self):
        """The CSV text: the header, then one block of lines per sigma row.

        Rows are ``sigma,gamma,f,exact_accept`` in assignment order, floats
        written with ``repr``.  Each ``values`` entry is formatted once and a
        cell picks its tail by its code, so nothing is sorted here and a
        block is one join over a template whose gamma slots never change."""

        def bits(i: int, n: int) -> str:  # an empty side is "", not format's "0"
            return format(i, f"0{n}b") if n else ""

        yield "sigma,gamma,f,exact_accept\n"
        cols = 1 << self.n2
        tails = np.array([f",{f},{a!r}\n" for a in self.values.tolist() for f in (0, 1)],
                         dtype=object)
        line = [""] * (3 * cols)  # sigma + ",", gamma, tail for each cell
        line[1::3] = [bits(j, self.n2) for j in range(cols)]
        for i, (row, f) in enumerate(zip(self.codes, self.f_grid)):
            line[0::3] = [bits(i, self.n1) + ","] * cols
            line[2::3] = tails[row * 2 + f].tolist()
            yield "".join(line)


def _value_tables(spec: ProtocolSpec, pair: int) -> tuple[np.ndarray, np.ndarray]:
    """u over all sigma (2^n1,) and v over (forward pattern, gamma) (2^k, 2^n2),
    embedded into [0, N) as int64.  Callers guarantee int64 safety."""
    s = spec.splits[pair]
    m = s.modulus
    u = s.g1.table()
    v = (-s.g2.table().reshape(1 << s.n2, 1 << s.k).T) % m
    return u, v


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
    ``exact_accept`` that :func:`run_exact` reports for that input.  The
    distinct differences and codes are ranked with a counting table
    (:func:`_rank`), so nothing is sorted when a key modulus, and each
    product of table sizes, is no larger than the grid.

    Guarded at n1 + n2 <= 20; use sampled runs beyond that.
    """
    n1, n2 = spec.n1, spec.n2
    if n1 + n2 > PROFILE_GUARD_BITS:
        raise GuardError(
            f"full profile enumerates 2^{n1 + n2} inputs; guard is "
            f"{PROFILE_GUARD_BITS} total bits — use run_sampled on chosen inputs"
        )
    if any(max(ks.modulus, spec.modulus) > PROFILE_MODULUS_GUARD for ks in spec.key_sets):
        raise GuardError("profiling needs moduli within the vectorized 2^31 range")

    truth = spec.function.truth_table().reshape(1 << n1, 1 << n2)

    # Forward pattern of each sigma row (k = 0 collapses to a single group).
    k = spec.k
    pattern = np.zeros(1 << n1, dtype=np.int64)
    for pos, i in enumerate(spec.forwarded):
        bit = (np.arange(1 << n1) >> (n1 - i)) & 1
        pattern |= bit << (k - 1 - pos)

    # Each cell's acceptance is (a_0 * a_1) * ..., a_j its pair-j term, in
    # the order run_exact multiplies them.  Pair j's terms come per distinct
    # difference (``inv`` indexes them), and the products so far per
    # distinct code; the (code, inv) pairs that occur are compacted to new
    # codes, so no table outgrows the grid and each product is formed once.
    for j, ks in enumerate(spec.key_sets):
        u, v = _value_tables(spec, j)
        uniq, inv = _rank((u[:, None] - v[pattern, :]) % ks.modulus, ks.modulus)
        terms = swap_accept(bias(ks, uniq))
        if j == 0:
            values, codes = terms, inv
        else:
            used, codes = _rank(codes * terms.size + inv, values.size * terms.size)
            values = values[used // terms.size] * terms[used % terms.size]

    ones_bad = (truth == 1) & (values < 1.0 - _ONE_SIDED_TOL)[codes]
    if ones_bad.any():
        i, j = np.unravel_index(int(np.argmax(ones_bad)), ones_bad.shape)
        raise CharacteristicError(
            f"accept probability {values[codes[i, j]]} on the 1-input "
            f"{format_bits(index_to_bits(int(i), n1))},"
            f"{format_bits(index_to_bits(int(j), n2))} — polynomial set is not "
            f"a characteristic of {spec.function.name}"
        )

    zero_mask = truth == 0
    counts = np.bincount(codes[zero_mask], minlength=values.size)
    false_inputs = int(counts.sum())
    hist, _ = np.histogram(values, bins=20, range=(0.0, 1.0), weights=counts)
    if false_inputs == 0:
        worst, attaining = 0.0, None
    else:
        worst = float(values[counts > 0].max())
        # Distinct codes can share a value (bias(D) = bias(N - D)), so the
        # first attaining input is searched among the cells, not the codes.
        flat = int(np.argmax(zero_mask & (values == worst)[codes]))
        i, j = divmod(flat, 1 << n2)
        attaining = (index_to_bits(i, n1), index_to_bits(j, n2))
        _check_bound(spec, worst, *attaining)

    return ErrorProfile(
        function_name=spec.function.name,
        n1=n1,
        n2=n2,
        worst_false_accept=worst,
        attaining=attaining,
        false_inputs=false_inputs,
        histogram=tuple(int(c) for c in hist),
        certified_bound=spec.certified_bound,
        f_grid=truth,
        values=values,
        codes=codes,
    )
