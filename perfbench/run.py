"""qhc benchmark: times the four CLI commands end to end, checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qhc checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Workloads (see
``workloads.py`` for why each exists): profile-grid and keys-runs, declared
in BENCHMARK.json, and verify-enum, which runs the same way but is not
declared there.

Load model: a closed loop with one client.  Each pass runs the workload's
commands in order, through ``qhc.cli.main`` as the ``qhc`` script does, in
a fresh child interpreter.  Passes repeat until the next one would end
after ``--seconds`` (at least two untraced passes are made, so every run
also checks that one seed gives byte-identical outputs).  ``--threads`` is
never passed and ``QHC_THREADS`` is unset: the defaults users get are
measured.

Gated times are rescaled to a reference machine speed (see ``speed.py``):
a probe loop timed every 0.05 s during each untraced pass, and around each
set-up sample, tells how fast the shared host let the machine run
meanwhile.  Times are medians over the passes of a run.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` one more pass runs with the span recorder of ``tracer.py``
installed, and the last line reports the per-layer metrics of that pass.
Outputs are checked outside the timed region; every command that fails or
whose output fails a check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed
from checks import check_command
from tracer import summarize
from workloads import PREDICTIONS, UNIT, WHY, Plan, build_plan, write_plan_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up is sampled between passes, so its samples span the run as the
# passes do; at least SETUP_MIN samples are taken.
SETUP_PER_PASS = 2
SETUP_MIN = 11
SETUP_PROBE_LOOPS = 3  # probe loops timed just before and just after each import
MIN_PASSES = 2
PASS_TIMEOUT_S = 150

NOTES = {"qhash.sweep_bytes": " (computed: 8N in + 16(N/2+1) out per sweep)",
         "trace.gap_s": " (traced wall minus the layers' self times)"}


def _env() -> dict[str, str]:
    """The children's environment: qhc's defaults (no ``QHC_THREADS``), and
    byte-code cached after the first import, as for an installed package."""
    drop = ("QHC_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


def time_import(env: dict[str, str]) -> float:
    """Seconds for a fresh interpreter to start and import qhc.cli, rescaled
    by probe loops timed just before and just after."""
    loops = [speed.loop() for _ in range(SETUP_PROBE_LOOPS)]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import qhc.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    loops += [speed.loop() for _ in range(SETUP_PROBE_LOOPS)]
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: cannot import qhc.cli from {SRC}:\n{proc.stderr}")
    return elapsed * speed.factor(loops)


def run_pass(plan: Plan, work: Path, env: dict[str, str], trace: bool, index: int) -> dict:
    spec_path = work / f"pass{index}.spec.json"
    result_path = work / f"pass{index}.result.json"
    spec_path.write_text(json.dumps({
        "src": str(SRC),
        "commands": [c.argv for c in plan.commands],
        "trace": trace,
        "result": str(result_path),
    }))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)], cwd=work,
                          env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.is_file():
        raise SystemExit(f"perfbench: pass {index} failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    spec_path.unlink()
    return result


def _output_files(check: dict) -> list[str]:
    return [check[k] for k in ("csv", "file") if k in check]


def digest(kind: str, check: dict, outcome: dict, work: Path) -> str:
    """What must repeat exactly for one seed; ``wall_clock_s`` is excluded."""
    stdout = outcome["stdout"]
    if kind == "run":
        try:
            doc = json.loads(stdout)
            doc.pop("wall_clock_s", None)
            stdout = json.dumps(doc, sort_keys=True)
        except (ValueError, AttributeError):
            pass  # not a report; compared verbatim, and check_run rejects it
    h = hashlib.sha256(json.dumps([outcome["code"], stdout, outcome["stderr"]]).encode())
    for name in _output_files(check):
        path = work / name
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


class Ledger:
    """Attempted and failed commands over every pass of a run.

    The first pass is checked in full.  A later pass must repeat its
    outputs byte for byte (one seed, one output) and then shares its
    verdicts; a command whose output differs has failed.
    """

    def __init__(self, plan: Plan, work: Path) -> None:
        self.plan, self.work = plan, work
        self.reference: list[tuple[str, list[str]]] = []  # (digest, problems) per command
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def add(self, result: dict, label: str) -> None:
        for i, (command, outcome) in enumerate(zip(self.plan.commands, result["commands"])):
            self.attempted += 1
            d = digest(command.kind, command.check, outcome, self.work)
            if i == len(self.reference):
                self.reference.append((d, check_command(command.kind, command.check, outcome, self.work)))
            ref, verdict = self.reference[i]
            found = verdict if d == ref else ["output differs from the first pass"]
            if found:
                self.failed += 1
                self.problems += [f"{label}: qhc {' '.join(command.argv)}: {p}" for p in found]


def out_bytes(plan: Plan, result: dict, work: Path) -> int:
    total = 0
    for command, outcome in zip(plan.commands, result["commands"]):
        total += len(outcome["stdout"].encode())
        total += sum((work / n).stat().st_size for n in _output_files(command.check)
                     if (work / n).is_file())
    return total


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qhc" / "cli.py").is_file():
        print(f"perfbench: no qhc package under {SRC}", file=sys.stderr)
        return 2
    env = _env()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, env, work)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(args: argparse.Namespace, env: dict[str, str], work: Path) -> int:
    plan = build_plan(args.workload, args.seed)
    write_plan_files(plan, work)
    time_import(env)  # warm-up: byte-code compilation is not counted
    setup: list[float] = []

    ledger = Ledger(plan, work)
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup += [time_import(env) for _ in range(SETUP_PER_PASS)]
        result = run_pass(plan, work, env, trace=False, index=len(passes))
        ledger.add(result, f"pass {len(passes)}")
        passes.append(result)
        pass_s = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + pass_s > args.seconds:
            break
    setup += [time_import(env) for _ in range(max(SETUP_PER_PASS, SETUP_MIN - len(setup)))]

    # Gated times are rescaled to the probe's reference speed (speed.py), each
    # command by the samples taken during the commands of its kind in its
    # pass (most commands are too short to hold one), or, if those hold none,
    # by all the samples of its pass.
    unit = plan.unit_kind
    unit_times, rescaled, rates, searches = [], [], [], []
    for result in passes:
        pairs = list(zip(plan.commands, result["commands"]))
        factors = {}
        for kind in {c.kind for c in plan.commands}:
            loops = [s for c, o in pairs if c.kind == kind for s in o["probe"]]
            factors[kind] = speed.factor(loops or result["probe"])
        times = [o["seconds"] * factors[c.kind] for c, o in pairs]
        rescaled.append(times)
        unit_times += [o["seconds"] for c, o in pairs if c.kind == unit]
        rates.append(sum(c.work for c in plan.commands if c.kind == unit)
                     / sum(t for c, t in zip(plan.commands, times) if c.kind == unit))
        searches.append(sum(t for c, t in zip(plan.commands, times) if c.kind == "search-keys"))
    walls = [r["wall_s"] for r in passes]
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(times) for times in rescaled),
        "work_per_s": statistics.median(rates),
        "peak_rss_mb": max(r["maxrss_kb"] for r in passes) / 1024,
    }
    # Printed, not gated: per-workload names for the same figures, and
    # latency percentiles, which only keys-runs has enough unit commands
    # for (the other workloads make a few per case).
    n = len(unit_times)
    named = {
        "raw_wall_s": (statistics.median(walls), "s (not rescaled)"),
        "speed": (statistics.median(speed.factor(r["probe"]) for r in passes),
                  "x reference (median over passes)"),
    }
    named |= {
        "profile-grid": {"cells_per_s": (e2e["work_per_s"], "1/s")},
        "verify-enum": {"assignments_per_s": (e2e["work_per_s"], "1/s")},
        "keys-runs": {
            "search_s": (statistics.median(searches), "s"),
            "runs_per_s": (e2e["work_per_s"], "1/s"),
        },
    }[args.workload]
    named[f"{unit}_p50_ms"] = (1000 * statistics.median(unit_times), f"ms, not rescaled (n={n})")
    named[f"{unit}_p95_ms"] = (1000 * percentile(unit_times, 0.95), f"ms, not rescaled (n={n})")

    layer: dict[str, float] = {}
    wrapped: list[str] = []
    if args.trace:
        traced = run_pass(plan, work, env, trace=True, index=len(passes))
        ledger.add(traced, "traced pass")
        wrapped = traced["wrapped"]
        layer = summarize(traced["spans"], traced["wall_s"])
        layer["cli.out_bytes"] = out_bytes(plan, traced, work)
        layer["trace.overhead_frac"] = traced["wall_s"] / statistics.median(walls) - 1.0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    chosen = layer if args.trace else e2e
    wanted = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(chosen) != wanted:
        raise SystemExit(f"perfbench: metrics {sorted(set(chosen) ^ wanted)} "
                         "are measured or declared in BENCHMARK.json, not both")

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "why": WHY[args.workload],
        "unit_command": unit,
        "unit_of_work": UNIT[args.workload][1],
        "passes": len(passes),
        "reference_loop_s": speed.REFERENCE_LOOP_S,
        "samples": {"setup_s": len(setup), "wall_s": len(walls), "cmd_latency": len(unit_times)},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines(),
        "predictions": [p for p in PREDICTIONS if p[2] == args.workload],
        "traced_functions": wrapped,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("context " + json.dumps(context))
    rows = [(k, v, units[k]) for k, v in e2e.items()] + [(k, v, u) for k, (v, u) in named.items()]
    rows.append(("fail_frac", ledger.failed / ledger.attempted,
                 f"ratio ({ledger.failed} of {ledger.attempted})"))
    rows += [(k, v, units[k] + NOTES.get(k, "")) for k, v in sorted(layer.items())]
    for name, value, unit_name in rows:
        print(f"  {name:<32} {value:>18.6f} {unit_name}")
    for p in ledger.problems[:20]:
        print(f"FAIL {p}")
    if len(ledger.problems) > 20:
        print(f"FAIL ... and {len(ledger.problems) - 20} more problems")

    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
