"""Output checks, made from outside qhc and outside the timed region.

Each check takes one command's captured outcome and returns a list of
problems; an empty list means the output is correct.  The facts checked
are the SWAP-test fingerprinting guarantees the protocols rest on:
one-sided error (every 1-input accepts with probability 1) and soundness
(every 0-input accepts with probability at most ((1 + delta^2)/2)^l for l
hash pairs over delta-resistant key sets).  Key sets are re-certified
here with an independent numpy FFT.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-12


def hoeffding_keys(modulus: int, delta: float) -> int:
    """d = ceil((2/delta^2) ln(2N)), capped at N: the key count qhc must draw."""
    return min(math.ceil((2.0 / (delta * delta)) * math.log(2 * modulus)), modulus)


# ------------------------------------------------------------ oracles


def oracle_f(oracle: list, bits: str) -> int:
    """f on one assignment string (x_1 first), computed without qhc."""
    b = [int(c) for c in bits]
    if oracle[0] == "EQ":
        n = oracle[1]
        return int(b[:n] == b[n:])
    if oracle[0] == "PERM":
        n = oracle[1]
        rows = [sum(b[i * n : (i + 1) * n]) for i in range(n)]
        cols = [sum(b[i * n + j] for i in range(n)) for j in range(n)]
        return int(all(s == 1 for s in rows + cols))
    raise ValueError(f"no oracle for {oracle[0]}")


def _grid_f(oracle: list, n1: int, n2: int) -> np.ndarray:
    """f over the (2^n1, 2^n2) grid of (sigma, gamma) indices, x_1 the MSB."""
    i = np.arange(1 << n1)[:, None]
    j = np.arange(1 << n2)[None, :]
    if oracle[0] == "EQ":
        return (i == j).astype(np.uint8)
    if oracle[0] == "CONJ":
        _, _, m_a, m_b = oracle[1:]  # the blocks are sigma and gamma themselves
        ones = sum((i >> t) & 1 for t in range(n1))
        value = sum(((j >> (n2 - 1 - t)) & 1) << t for t in range(n2))
        return ((ones % m_a == 0) & (value % m_b == 0)).astype(np.uint8)
    raise ValueError(f"no grid oracle for {oracle[0]}")


def soundness_bound(delta: float, pairs: int) -> float:
    return (0.5 * (1.0 + delta * delta)) ** pairs


def max_bias_fft(modulus: int, keys: list[int]) -> float:
    """max over nonzero D of |(1/d) sum_k cos(2 pi k D / N)|, by one rfft."""
    x = np.zeros(modulus)
    x[np.asarray(keys, dtype=np.int64)] = 1.0
    spectrum = np.fft.rfft(x).real[1:] / len(keys)
    return float(np.abs(spectrum).max())


# ------------------------------------------------------------ checks


def _exit_ok(outcome: dict) -> list[str]:
    if outcome["code"] != 0:
        return [f"exit {outcome['code']}, expected 0: {outcome['stderr'].strip()[-300:]}"]
    return []


def check_verify(check: dict, outcome: dict, work_dir: Path) -> list[str]:
    problems = _exit_ok(outcome)
    text = outcome["stdout"]
    if not text.startswith("valid:"):
        problems.append(f"verify did not print valid: {text[:200]!r}")
    if f"{check['assignments']} assignments" not in text:
        problems.append(f"verify did not check {check['assignments']} assignments: {text[:200]!r}")
    return problems


def check_profile(check: dict, outcome: dict, work_dir: Path) -> list[str]:
    problems = _exit_ok(outcome)
    if problems:
        return problems
    n1, n2 = check["n1"], check["n2"]
    cells = 1 << (n1 + n2)
    if f" {cells} inputs -> " not in outcome["stdout"]:
        problems.append(f"profile summary does not count {cells} inputs")
    data = (work_dir / check["csv"]).read_bytes()
    header, _, body = data.partition(b"\n")
    if header != b"sigma,gamma,f,exact_accept":
        return problems + [f"bad CSV header {header[:80]!r}"]
    if not body.endswith(b"\n"):
        return problems + ["CSV does not end with a newline"]
    flat = body[:-1].replace(b"\n", b",").split(b",")
    if len(flat) != 4 * cells:
        return problems + [f"CSV has {len(flat) / 4} rows, expected {cells}"]
    sigmas = [format(i, f"0{n1}b").encode() for i in range(1 << n1)]
    gammas = [format(j, f"0{n2}b").encode() for j in range(1 << n2)]
    if flat[0::4] != [s for s in sigmas for _ in gammas]:
        problems.append("sigma column is not the index order")
    if flat[1::4] != gammas * len(sigmas):
        problems.append("gamma column is not the index order")
    f = np.array(flat[2::4], dtype=np.uint8).reshape(1 << n1, 1 << n2)
    if not np.array_equal(f, _grid_f(check["oracle"], n1, n2)):
        problems.append("f column disagrees with the oracle")
    accept = np.array(flat[3::4], dtype=np.float64).reshape(f.shape)
    bound = soundness_bound(check["delta"], check["pairs"])
    ones = f == 1
    if ones.any() and np.abs(accept[ones] - 1.0).max() > TOL:
        problems.append("a 1-input accepts with probability other than 1")
    if (~ones).any() and accept[~ones].max() > bound + TOL:
        problems.append(f"a 0-input accepts above the soundness bound {bound}")
    if (accept < 0).any():
        problems.append("negative acceptance probability")
    return problems


def check_search_keys(check: dict, outcome: dict, work_dir: Path) -> list[str]:
    problems = _exit_ok(outcome)
    if problems:
        return problems
    if not outcome["stdout"].startswith("certified:"):
        problems.append(f"search-keys did not print certified: {outcome['stdout'][:200]!r}")
    doc = json.loads((work_dir / check["file"]).read_text())
    modulus, delta = 1 << check["log2_n"], check["delta"]
    keys = [int(k) for k in doc["keys"]]
    d = hoeffding_keys(modulus, delta)
    if int(doc["N"]) != modulus:
        problems.append(f"key file N={doc['N']}, expected {modulus}")
    if len(set(keys)) != len(keys) or len(keys) != d:
        problems.append(f"key file has {len(set(keys))} distinct of {len(keys)} keys, expected {d}")
    if not all(0 <= k < modulus for k in keys):
        problems.append("key outside [0, N)")
    if doc.get("delta") != delta:
        problems.append(f"key file delta {doc.get('delta')}, expected {delta}")
    cert = doc.get("certification", {})
    if modulus <= 1 << 21:
        if cert.get("mode") != "exact":
            problems.append(f"certification mode {cert.get('mode')!r}, expected exact")
        worst = max_bias_fft(modulus, keys)
        if not worst < delta:
            problems.append(f"recomputed max bias {worst} is not below delta {delta}")
        if abs(worst - float(cert.get("max_bias", -1.0))) > 1e-9:
            problems.append(f"reported max bias {cert.get('max_bias')} but recomputed {worst}")
    elif cert.get("mode") != "monte-carlo":
        problems.append(f"certification mode {cert.get('mode')!r}, expected monte-carlo")
    return problems


def check_run(check: dict, outcome: dict, work_dir: Path) -> list[str]:
    problems = _exit_ok(outcome)
    if problems:
        return problems
    config = check["config"]
    doc = json.loads(outcome["stdout"])
    result = doc["result"]
    alice, bob = config["input"]["alice"], config["input"]["bob"]
    fn = config["function"]
    want_f = oracle_f([fn["name"], fn["n"]], alice + bob)
    if result["input"] != {"alice": alice, "bob": bob}:
        problems.append("report echoes another input")
    if result["f"] != want_f:
        problems.append(f"f={result['f']}, oracle says {want_f}")
    if result["spec"]["topology"] != config["topology"]:
        problems.append(f"topology {result['spec']['topology']}, expected {config['topology']}")
    delta = json.loads((work_dir / check["key_file"]).read_text())["delta"]
    accept = result["exact_accept"]
    if want_f == 1 and abs(accept - 1.0) > TOL:
        problems.append(f"1-input accepts with {accept!r}")
    bound = soundness_bound(delta, result["spec"]["pairs"])
    if want_f == 0 and not 0.0 <= accept <= bound + TOL:
        problems.append(f"0-input accepts with {accept!r}, bound {bound}")
    if config["mode"] == "sampled":
        sampled = result.get("sampled", {})
        trials, accepts = sampled.get("trials"), sampled.get("accepts", -1)
        if trials != config["trials"] or not 0 <= accepts <= trials:
            problems.append(f"sampled {accepts} of {trials} trials, asked {config['trials']}")
        elif want_f == 1 and accepts != trials:
            problems.append(f"1-input rejected in {trials - accepts} sampled trials")
    return problems


CHECKS = {
    "verify": check_verify,
    "profile": check_profile,
    "search-keys": check_search_keys,
    "run": check_run,
}


def check_command(kind: str, check: dict, outcome: dict, work_dir: Path) -> list[str]:
    """Problems with one command's output; a malformed output is a problem too."""
    try:
        return CHECKS[kind](check, outcome, work_dir)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{kind} output unreadable: {type(e).__name__}: {e}"]
