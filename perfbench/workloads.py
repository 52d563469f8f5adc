"""Benchmark workloads: the qhc commands one pass runs, generated from a seed.

Each workload builds a ``Plan``: the argv of every command a pass sends to
``qhc.cli.main``, the config files those commands read, and for each
command the facts the harness needs to check its output from outside.
qhc receives only the generated argv and files; the facts stay here.

Every workload names one *unit* command kind and one unit of work.  The
end-to-end metric ``work_per_s`` is taken over the unit commands, so one
metric name reads on every workload while measuring what that workload is
for; the unit command's latency percentiles are printed beside it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WHY = {
    "profile-grid": (
        "CSV output in cli, the boolfn truth table and the protocol accept grid do "
        "nearly all the work; qhash is nearly idle (its small key sets take about "
        "1 ms), so this is the bypass workload for qhash changes."
    ),
    # Runnable, but not declared in BENCHMARK.json: three workloads leave each
    # run too short for steady figures on a 2-core machine whose speed drifts
    # over minutes, so the declared benchmark keeps the two that cover every
    # layer.
    "verify-enum": (
        "All the work is in boolfn; qhash and protocol do nothing, so this is the "
        "bypass workload for protocol and CSV-output changes.  The big-int MODBIN "
        "case stops a speed-up on the int64 path from hiding a regression on the "
        "exact path.  The cases are fixed: the seed changes nothing here."
    ),
    "keys-runs": (
        "qhash does most of the work, in two forms: the FFT spectrum sweep and the "
        "scalar big-int bias.  protocol works per input rather than per grid, so it "
        "exercises the same layers differently from profile-grid; boolfn is nearly idle."
    ),
}

# The unit command of each workload and what one unit of its work is.
UNIT = {
    "profile-grid": ("profile", "grid cells written"),
    "verify-enum": ("verify", "assignments x polynomials checked"),
    "keys-runs": ("run", "run commands completed"),
}

# The end-to-end metric each per-layer metric should move, and where.  Where
# the gated name is generic, the workload's own printed names are in brackets.
PREDICTIONS = [
    ("cli.emit_s", "work_per_s [cells_per_s]", "profile-grid"),
    ("cli.emit_s", "work_per_s [runs_per_s, run_p50_ms]", "keys-runs"),
    ("cli.parse_s", "work_per_s [runs_per_s, run_p50_ms]", "keys-runs"),
    ("boolfn.truth_table_s", "work_per_s [assignments_per_s]", "verify-enum"),
    ("boolfn.truth_table_s", "work_per_s [cells_per_s]", "profile-grid"),
    ("boolfn.truth_table_s", "none: predicted to stay at zero", "keys-runs"),
    ("boolfn.poly_table_s", "work_per_s [assignments_per_s], through MODBIN", "verify-enum"),
    ("boolfn.verify_s", "work_per_s [assignments_per_s]", "verify-enum"),
    ("qhash.search_s", "wall_s [search_s]", "keys-runs"),
    ("qhash.draw_s", "wall_s [search_s]", "keys-runs"),
    ("qhash.sweep_s", "wall_s [search_s]", "keys-runs"),
    ("qhash.bias_s", "wall_s [search_s], Monte Carlo", "keys-runs"),
    ("qhash.bias_s", "work_per_s [runs_per_s, run_p50_ms]", "keys-runs"),
    ("protocol.error_profile_s", "work_per_s [cells_per_s], most on 2-pair CONJ", "profile-grid"),
    ("protocol.iter_rows_s", "work_per_s [cells_per_s]", "profile-grid"),
    ("protocol.run_s", "work_per_s [runs_per_s, run_p50_ms, run_p95_ms]", "keys-runs"),
]


@dataclass
class Command:
    argv: list[str]
    kind: str  # the qhc subcommand
    check: dict  # what the harness verifies about this command's output
    work: int = 0  # units of work, for unit commands


@dataclass
class Plan:
    workload: str
    commands: list[Command]
    files: dict[str, str] = field(default_factory=dict)  # name -> text, written before the passes

    @property
    def unit_kind(self) -> str:
        return UNIT[self.workload][0]


def _profile_grid(rng: random.Random) -> Plan:
    cases = [
        # EQ n=10 one-way: 20 bits, the profile guard; one pair.
        ("eq", {"name": "EQ", "n": 10}, {"n1": 10}, 10, 10, 1, 10, ("EQ", 10)),
        # CONJ 9+9 with Alice's bit 1 forwarded: 18 bits, two pairs.
        ("conj", {"name": "CONJ", "n_a": 9, "n_b": 9}, {"n1": 9, "forwarded": [1]}, 9, 9, 2, 12,
         ("CONJ", 9, 9, 3, 4)),
    ]
    delta = 0.3
    plan = Plan("profile-grid", [])
    for tag, function, split, n1, n2, pairs, log2_n, oracle in cases:
        config = {
            "function": function,
            "split": split,
            "delta": delta,
            "keys": {"search": {"log2_n": log2_n, "seed": rng.randrange(1 << 32)}},
            "topology": "one-way",
        }
        plan.files[f"{tag}.json"] = json.dumps(config, indent=1)
        plan.commands.append(
            Command(
                argv=["profile", "--config", f"{tag}.json", "--out", f"{tag}.csv"],
                kind="profile",
                check={"csv": f"{tag}.csv", "n1": n1, "n2": n2, "pairs": pairs,
                       "delta": delta, "oracle": list(oracle)},
                work=1 << (n1 + n2),
            )
        )
    return plan


def _verify_enum(rng: random.Random) -> Plan:
    cases = [
        (["--function", "PALINDROME", "--n", "22"], 22, 1),
        (["--function", "CONJ", "--n", "20"], 20, 2),
        (["--function", "PERM", "--n", "4"], 16, 1),
        # m = 2^64 + 13 forces the exact big-int polynomial table.
        (["--function", "MODBIN", "--n", "20", "--m", str((1 << 64) + 13)], 20, 1),
    ]
    return Plan(
        "verify-enum",
        [
            Command(argv=["verify", *args], kind="verify",
                    check={"assignments": 1 << bits}, work=polys << bits)
            for args, bits, polys in cases
        ],
    )


def _random_bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _eq_input(rng: random.Random, want_one: bool) -> tuple[str, str]:
    alice = _random_bits(rng, 16)
    return alice, alice if want_one else _random_bits(rng, 16)


def _perm_input(rng: random.Random, want_one: bool) -> tuple[str, str]:
    if want_one:
        perm = list(range(4))
        rng.shuffle(perm)
        bits = "".join("1" if perm[r] == c else "0" for r in range(4) for c in range(4))
    else:
        bits = _random_bits(rng, 16)
    return bits[:8], bits[8:]  # PERM_4's natural cut is n1 = 8


SEARCHES = [(21, 0.1), (21, 0.07), (21, 0.05), (64, 0.3)]
RUNS_PER_CASE = 40  # 2 functions x 3 modes x 40 = 240 run commands per pass


def _keys_runs(rng: random.Random) -> Plan:
    plan = Plan("keys-runs", [])
    key_files = []
    for i, (log2_n, delta) in enumerate(SEARCHES):
        out = f"keys{i}.json"
        key_files.append(out)
        plan.commands.append(
            Command(
                argv=["search-keys", "--log2-n", str(log2_n), "--delta", str(delta),
                      "--seed", str(rng.randrange(1 << 32)), "--out", out],
                kind="search-keys",
                check={"file": out, "log2_n": log2_n, "delta": delta},
            )
        )
    runs = []
    for function, draw in (({"name": "EQ", "n": 16}, _eq_input), ({"name": "PERM", "n": 4}, _perm_input)):
        for topology, mode in (("one-way", "exact"), ("smp", "exact"), ("one-way", "sampled")):
            for j in range(RUNS_PER_CASE):
                alice, bob = draw(rng, rng.random() < 0.25)
                key_file = key_files[j % len(key_files)]
                config = {
                    "function": function,
                    "keys": {"file": key_file},
                    "topology": topology,
                    "mode": mode,
                    "input": {"alice": alice, "bob": bob},
                }
                if mode == "sampled":
                    config.update(trials=1000, seed=rng.randrange(1 << 32))
                runs.append((config, key_file))
    rng.shuffle(runs)
    for i, (config, key_file) in enumerate(runs):
        name = f"run{i:03d}.json"
        plan.files[name] = json.dumps(config, indent=1)
        plan.commands.append(
            Command(
                argv=["run", "--config", name],
                kind="run",
                check={"config": config, "key_file": key_file},
                work=1,
            )
        )
    return plan


BUILDERS = {"profile-grid": _profile_grid, "verify-enum": _verify_enum, "keys-runs": _keys_runs}


def build_plan(workload: str, seed: int) -> Plan:
    return BUILDERS[workload](random.Random(seed))


def write_plan_files(plan: Plan, work_dir: Path) -> None:
    for name, text in plan.files.items():
        (work_dir / name).write_text(text + "\n")
