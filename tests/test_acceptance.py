"""End-to-end acceptance gates.

Each test checks one headline guarantee of the package at its stated
tolerance and prints a single PASS line (run with ``pytest -v -s`` to see
them); a pytest failure on any test is the corresponding FAIL line.
"""

import contextlib
import hashlib
import io
import json
import math
import time

import numpy as np
import pytest

from qhc import (
    KeySet,
    ProtocolSpec,
    builtin,
    conjunction,
    error_profile,
    hash_qubits,
    required_keys,
    run_exact,
    run_sampled,
    search_key_set,
    swap_accept,
    verify_resistance,
)
from qhc.cli import main
from qhc.qhash import bias
from qhc.util import rand_below_many

from oracles import THREE_POLYS, hash_amplitudes_direct, swap_circuit_accept


def _pass(num: int, text: str) -> None:
    print(f"\nPASS c{num:02d}: {text}")


def test_c01_builtin_characteristics_all_verify(capsys):
    start = time.perf_counter()
    jobs = [
        ("EQ", "4", None),
        ("MOD", "9", "3"),
        ("MODBIN", "8", "5"),
        ("PALINDROME", "4", None),
        ("PALINDROME", "5", None),
        ("PALINDROME", "9", None),
        ("PERM", "2", None),
        ("PERM", "3", None),
    ]
    for name, n, m in jobs:
        argv = ["verify", "--function", name, "--n", n]
        if m is not None:
            argv += ["--m", m]
        assert main(argv) == 0, f"verify refused {name} n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    capsys.readouterr()
    _pass(1, f"8 builtin characteristics verified exhaustively in {elapsed:.2f}s")


def test_c02_one_sided_error_full_enumeration(certified_n64):
    for instance in (builtin("EQ", 3), builtin("MOD", 6, m=3)):
        spec = ProtocolSpec(instance, certified_n64)
        prof = error_profile(spec)
        ones = prof.accept_grid[prof.f_grid == 1]
        assert ones.size > 0
        assert np.all(np.abs(ones - 1.0) <= 1e-12)
    _pass(2, "every 1-input accepted with certainty (EQ 3+3 and MOD_3 3+3)")


def test_c03_soundness_bound_certified_profile(certified_n64):
    start = time.perf_counter()
    assert certified_n64.modulus == 1 << 6 and certified_n64.delta == 0.3
    prof = error_profile(ProtocolSpec(builtin("EQ", 3), certified_n64))
    bound = 0.5 + 0.3**2 / 2
    assert prof.worst_false_accept <= bound + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(
        3,
        f"EQ 3+3 worst false accept {prof.worst_false_accept:.6f} "
        f"<= {bound} (delta=0.3, N=2^6)",
    )


def test_c04_key_search_hits_hoeffding_size():
    start = time.perf_counter()
    ks = search_key_set(1 << 10, 0.3, seed=7)
    elapsed = time.perf_counter() - start
    assert ks.d == 170 == required_keys(1 << 10, 0.3)
    assert ks.certified and ks.certification.mode == "exact"
    report = verify_resistance(ks, 0.3)  # independent exact re-sweep, all 1023 diffs
    assert report.certified and report.max_bias < 0.3
    assert elapsed < 10.0
    _pass(
        4,
        f"search over N=2^10 certified d=170 keys (max bias "
        f"{report.max_bias:.4f}) in {elapsed:.2f}s",
    )


@pytest.mark.parametrize("d", [1, 2, 4])
def test_c05_swap_formula_matches_statevector(d):
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(max(d, 2), 1 << 12))
        keys = tuple(sorted(rng.choice(n, size=d, replace=False).tolist()))
        ks = KeySet(modulus=n, keys=keys)
        u, v = int(rng.integers(n)), int(rng.integers(n))
        a, b = hash_amplitudes_direct(keys, n, u), hash_amplitudes_direct(keys, n, v)
        circuit = swap_circuit_accept(a, b)
        closed_form = swap_accept(bias(ks, [u - v])[0])
        assert abs(circuit - closed_form) <= 1e-10
    _pass(5, f"SWAP circuit statevector == (1+F^2)/2 on 20 instances (d={d})")


def test_c06_sampled_frequencies_within_binomial_bands(certified_n64):
    master = np.random.default_rng(0)
    instances = [
        builtin("EQ", 3),
        builtin("MOD", 6, m=3),
        builtin("PALINDROME", 6),
        builtin("MODBIN", 5, m=5),
        conjunction(2, 2),
    ]
    trials = 100_000
    for instance in instances:
        spec = ProtocolSpec(instance, certified_n64)
        arity = instance.function.arity
        while True:
            bits = tuple(int(b) for b in master.integers(0, 2, size=arity))
            if instance.function(bits) == 0:
                break
        sigma, gamma = bits[: spec.n1], bits[spec.n1 :]
        seed = int(master.integers(1 << 31))
        report = run_sampled(spec, sigma, gamma, seed=seed, trials=trials)
        p = report.exact_accept
        band = 3 * math.sqrt(trials * p * (1 - p))
        assert abs(report.sample_accepts - trials * p) <= band, instance.function.name
    _pass(6, "5 sampled 0-input runs stayed inside 3-sigma of exact_accept")


def test_c07_qubit_cost_beats_sending_the_input():
    expected = {8: 1248, 16: 2357, 32: 4575, 64: 9011}
    costs = {}
    for n, d in expected.items():
        assert required_keys(1 << n, 0.1) == d
        costs[n] = hash_qubits(d)  # single pair, no forwarded bits
    assert costs == {8: 12, 16: 13, 32: 14, 64: 15}
    for n in (32, 64):
        assert costs[n] < n
    for small, large in ((8, 16), (16, 32), (32, 64)):
        assert costs[large] - costs[small] <= 1

    # the accounting is also what a concrete (uncertified) key set reports
    rng = np.random.default_rng(1)
    for n in (16, 32, 64):
        modulus = 1 << n
        keys: set[int] = set()
        while len(keys) < expected[n]:
            keys.update(rand_below_many(rng, modulus, 1))
        ks = KeySet(modulus=modulus, keys=tuple(sorted(keys)))
        spec = ProtocolSpec(builtin("EQ", n), ks)
        assert spec.total_qubits == costs[n]
        assert spec.n1 == n  # the classical baseline: Alice sends her input
    _pass(7, "EQ costs 12/13/14/15 qubits for n=8/16/32/64 (vs n classical bits)")


def test_c08_referee_route_agrees_with_one_way(certified_n64):
    rng = np.random.default_rng(2026)
    checked = 0
    for instance in (builtin("EQ", 3), builtin("PALINDROME", 6)):
        spec = ProtocolSpec(instance, certified_n64)
        smp = ProtocolSpec(instance, certified_n64, topology="smp")
        for _ in range(50):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=instance.function.arity))
            sigma, gamma = bits[: spec.n1], bits[spec.n1 :]
            referee, one_way = run_exact(smp, sigma, gamma), run_exact(spec, sigma, gamma)
            assert referee.fidelities == one_way.fidelities
            assert referee.exact_accept == one_way.exact_accept
            checked += 1
    assert checked == 100
    _pass(8, "SMP and one-way fidelities and acceptance equal on 100 random inputs")


def test_c09_two_polynomial_conjunction(certified_n64):
    spec = ProtocolSpec(conjunction(3, 3), certified_n64)
    assert spec.l == 2
    prof = error_profile(spec)  # raises if any 1-input is not accepted surely
    bound = 0.5 * (1 + 0.3**2)
    assert prof.worst_false_accept <= bound + 1e-9
    assert spec.total_qubits == spec.l * hash_qubits(certified_n64)
    _pass(
        9,
        f"conjunction: one-sided, worst {prof.worst_false_accept:.4f} <= {bound}, "
        f"cost {spec.total_qubits} = 2 hashes",
    )


def test_c10_seeded_commands_are_canonically_deterministic(tmp_path, capsys):
    # key search: byte-identical files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(
            ["search-keys", "--log2-n", "10", "--delta", "0.3", "--seed", "7",
             "--out", str(out)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()

    # sampled run: identical reports once the wall clock is dropped
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "function": {"name": "EQ", "n": 3},
                "delta": 0.3,
                "keys": {"search": {"log2_n": 10, "seed": 7}},
                "mode": "sampled",
                "trials": 1000,
                "seed": 13,
                "input": {"alice": "101", "bob": "100"},
            }
        )
    )
    envelopes = []
    for _ in range(2):
        assert main(["run", "--config", str(config)]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("wall_clock_s")
        envelopes.append(doc)
    assert envelopes[0] == envelopes[1]

    # profile: byte-identical CSV
    prof_config = tmp_path / "profile.json"
    prof_config.write_text(
        json.dumps(
            {
                "function": {"name": "EQ", "n": 3},
                "delta": 0.3,
                "keys": {"search": {"log2_n": 10, "seed": 7}},
            }
        )
    )
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for out in (c, d):
        assert main(["profile", "--config", str(prof_config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert c.read_bytes() == d.read_bytes()
    _pass(10, "search-keys, sampled run, and profile repeat bit-for-bit")


# Digests of seeded outputs recorded before the uint64 residue tier replaced
# int64 and big-int products, so a change in the arithmetic fails here
# instead of drifting: two key files and, on each, an EQ n=16 run report
# (exact one-way and SMP) with its wall_clock_s dropped.  The three profile
# CSVs were recorded before profiles moved to per-pair codes: one pair, one
# pair with a forwarded bit, and three pairs from a polynomial file.  The two
# SMP reports were re-recorded when the referee's overlap became a fixed-order
# sum (it was a BLAS dot, whose order depends on the thread count), and again
# when the referee began to price each pair with bias, as the one-way route
# does: each SMP result now equals its one-way result but for topology and
# qubits, which the test also checks.  The key file at N = 2^80 (delta 0.5, so d
# stays small), its one-way run and a run searching keys at N = 2^40 - 87
# pin the exact big-integer tier, above uint64; they were recorded before
# its keys moved from a tuple into an object array.  A CONJ 3+4 run with
# Alice's bit 1 forwarded, and the stdout of two EQ n=6 profiles (a certified
# key search, then the N = 2^64 Monte Carlo key file), were recorded before
# run reports and profiles began to read qubit cost and certified bound from
# their spec.  The N = 2^21 key file, its two runs and the CONJ 3+4 run were
# re-recorded when exact certificates began to report bias at the worst
# difference instead of the FFT's magnitude there: only the last bits of
# max_bias, in the key file and in the spec summaries that echo it, moved.
# The MODBIN_5 8-bit profile cut at n1 = 7 was recorded before profiles
# grouped Alice's rows into classes: its 128 rows hold 5 distinct messages,
# and Bob holds one bit.
GOLDEN_SHA256 = {
    "keys64.json": "3baa02a7a43773a4e47d5c7e221f63df0b6e96e66bae5124683be8e5feb04766",
    "run64-one-way.json": "180434d91cec3d9dbaa438640bd5aa0c26a7b6c44d286c123cb96e023efd4305",
    "run64-smp.json": "656a5c8f604cca3574a5625ee13e82b0862f613324a1200db3932ef1d81def7b",
    "keys21.json": "c0d55f3c02c3b7c043d1b896882b6c0328b164fa0fbb337a530966f06a224cf5",
    "run21-one-way.json": "659412907326651bf089e3ed25fbf43533cecbf4c8fc9f16e47c87ac919ea4f9",
    "run21-smp.json": "f58dbedc6ebdc58f9c2fc09d9e3cf5a74af7eac83795341ada3f1b7278940378",
    "keys80.json": "38ec6be26b56dd8eda475335fca7d859b529275e46470c3f70d44768812f2577",
    "run80-one-way.json": "7a413cfd28dc1dd6bcf9faa06751abcf5832be58557771ca86e8f0757e619884",
    "run-search-n40m87.json": "55cdb0457e955d1832a41ec7d4c060023df65a0ea3e81d7b7fdc55854588a048",
    "profile-eq6.csv": "ed1092861dd92a8ba281f6a2de40c9c2a1e48fcbc530f6cd6fb479dff737d7dd",
    "profile-conj34.csv": "55527daea9eeb4e8d84b1e16264deea7c58f6e4c8a83298538d4d4655f901bb3",
    "profile-poly3.csv": "1dc41d3f86f0104e4ffdbb0b5fecae06e5f88b256a5b60ad0949b1ba29230fbe",
    "run-conj34-forwarded.json": "3f8b3aa87b5fac46569217053d4cc3507b72c73e95a3744c966d682b7664b2e7",
    "profile-eq6.stdout": "c7ba830ccd86c80066b8155db46a688e1b9e3fb163e24262d51576af36ba70bb",
    "profile-eq6-keys64.stdout": "86d50e8cb8cbf6ef124ea7be57a8461e162e3df643accfc76016ba51437cc6d4",
    "profile-modbin8.csv": "41acfa894810d945f05a81644b58b85df7a82b4573a1466b2ab4d5c93b2481fc",
}

GOLDEN_PROFILES = {
    "profile-eq6.csv": {"function": {"name": "EQ", "n": 6}},
    "profile-conj34.csv": {"function": {"name": "CONJ", "n_a": 3, "n_b": 4},
                           "split": {"n1": 3, "forwarded": [1]}},
    "profile-poly3.csv": {"function": {"poly_file": "polys.json"}},
    "profile-modbin8.csv": {"function": {"name": "MODBIN", "n": 8, "m": 5}, "split": {"n1": 7}},
}


EQ16 = {"name": "EQ", "n": 16}
EQ16_INPUT = {"alice": "0110100110010110", "bob": "0110100110010111"}


def _run_report(config, doc: dict, function: dict = EQ16, bits: dict = EQ16_INPUT) -> bytes:
    """The report of an exact run of ``function`` on ``bits`` under ``doc``'s
    keys, split and topology, its wall_clock_s dropped."""
    config.write_text(json.dumps({
        "function": function,
        **doc,
        "mode": "exact",
        "input": bits,
    }))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", "--config", str(config)]) == 0
    report = json.loads(out.getvalue())
    report.pop("wall_clock_s")
    return (json.dumps(report, indent=2) + "\n").encode()


def _profile(work, name: str, doc: dict) -> tuple[bytes, bytes]:
    """The CSV ``name`` and the stdout of ``profile`` under ``doc``, run in
    the directory ``work``; the stdout names that directory ``<work>``."""
    config = work / f"{name}.json"
    config.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["profile", "--config", str(config), "--out", str(work / name)]) == 0
    return (work / name).read_bytes(), out.getvalue().replace(str(work), "<work>").encode()


def _golden_outputs(work) -> dict[str, bytes]:
    """The outputs GOLDEN_SHA256 pins, produced in the directory ``work``."""
    outputs = {}
    for log2_n, delta, topologies in ((64, 0.3, ("one-way", "smp")),
                                      (21, 0.1, ("one-way", "smp")),
                                      (80, 0.5, ("one-way",))):
        keys = f"keys{log2_n}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["search-keys", "--log2-n", str(log2_n), "--delta", str(delta),
                         "--seed", "0", "--out", str(work / keys)]) == 0
        outputs[keys] = (work / keys).read_bytes()
        for topology in topologies:
            name = f"run{log2_n}-{topology}.json"
            outputs[name] = _run_report(work / name, {"keys": {"file": keys},
                                                      "topology": topology})
    outputs["run-search-n40m87.json"] = _run_report(
        work / "run-search-n40m87.json",
        {"delta": 0.5, "keys": {"search": {"N": (1 << 40) - 87, "seed": 0}}})
    search = {"delta": 0.3, "keys": {"search": {"log2_n": 10, "seed": 7}}}
    outputs["run-conj34-forwarded.json"] = _run_report(
        work / "run-conj34-forwarded.json", {"split": {"n1": 3, "forwarded": [1]}, **search},
        {"name": "CONJ", "n_a": 3, "n_b": 4}, {"alice": "110", "bob": "0100"})
    (work / "polys.json").write_text(json.dumps(THREE_POLYS))
    for name, doc in GOLDEN_PROFILES.items():
        outputs[name], stdout = _profile(work, name, {**doc, **search})
        if name == "profile-eq6.csv":  # its key set is exactly certified
            outputs["profile-eq6.stdout"] = stdout
    _, outputs["profile-eq6-keys64.stdout"] = _profile(  # a Monte Carlo key file
        work, "profile-eq6-keys64.csv",
        {"function": {"name": "EQ", "n": 6}, "keys": {"file": "keys64.json"}})
    return outputs


def test_c11_seeded_outputs_match_recorded_digests(tmp_path):
    outputs = _golden_outputs(tmp_path)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN_SHA256
    for log2_n in (64, 21):
        one_way, smp = (json.loads(outputs[f"run{log2_n}-{topology}.json"])["result"]
                        for topology in ("one-way", "smp"))
        assert smp["spec"].pop("topology") == "smp" and smp.pop("qubits") != one_way["qubits"]
        del one_way["spec"]["topology"], one_way["qubits"]
        assert smp == one_way
    conj = json.loads(outputs["run-conj34-forwarded.json"])["result"]
    assert conj["qubits"] == {"forwarded_bits": 1, "alice_to_bob": 2 * hash_qubits(170) + 1}
    _pass(11, "key files, run reports and profile CSVs match the recorded SHA-256 digests")
