"""Span recording around qhc's public functions, from outside the package.

``install`` replaces each traced function or method with a wrapper that
records one span per call: name, layer, start, end, parent span and a few
counts.  Module-level functions are replaced in every loaded ``qhc``
module that holds them, so names imported by name (``qhc.cli.error_profile``)
are traced too.  Spans stay in memory; the pass writes them out at exit.

``summarize`` turns the spans of one pass into the per-layer metrics.  A
span's self time is its duration minus the part of it that its child spans
cover (the union of their intervals, since qhc may run children on worker
threads).
"""

from __future__ import annotations

import functools
import sys
import threading
import time

LAYERS = ("cli", "boolfn", "qhash", "protocol")


def _table_counts(args, kwargs, result):
    rows = 1 << args[0].arity
    return {"rows": rows, "bigint_rows": rows if isinstance(result, list) else 0}


def _resistance_counts(args, kwargs, result):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return {"mode": mode, "N": args[0].modulus, "certified": bool(result.certified)}


# (layer, module, dotted name, counts of one call, drain a returned generator)
TARGETS = [
    ("boolfn", "qhc.boolfn", "verify_characteristic", None, False),
    ("boolfn", "qhc.boolfn", "BooleanFunction.truth_table",
     lambda a, k, r: {"rows": 1 << a[0].arity}, False),
    ("boolfn", "qhc.boolfn", "LinearPolynomial.table", _table_counts, False),
    # Pointwise evaluation, the boolfn work of a single protocol run.
    ("boolfn", "qhc.boolfn", "BooleanFunction.__call__", None, False),
    ("boolfn", "qhc.boolfn", "LinearPolynomial.evaluate", None, False),
    ("qhash", "qhc.qhash", "search_key_set", None, False),
    ("qhash", "qhc.qhash", "verify_resistance", _resistance_counts, False),
    ("qhash", "qhc.qhash", "bias", None, False),
    ("qhash", "qhc.qhash", "build_hash", None, False),
    ("protocol", "qhc.protocol", "error_profile", None, False),
    ("protocol", "qhc.protocol", "ErrorProfile.iter_rows", None, True),
    ("protocol", "qhc.protocol", "run_exact", None, False),
    ("protocol", "qhc.protocol", "run_smp", None, False),
    ("protocol", "qhc.protocol", "run_sampled", None, False),
    ("cli", "qhc.cli", "main", None, False),
    ("cli", "qhc.cli", "parse_config", None, False),
    # Config-file reading and key-file loading; cli.parse_s counts their self time.
    ("cli", "qhc.cli", "_load_run_config", None, False),
    ("cli", "qhc.cli", "_resolve_key_sets", None, False),
]

PARSE_SPANS = ("parse_config", "_load_run_config", "_resolve_key_sets")
RUN_SPANS = ("run_exact", "run_smp", "run_sampled")


class Recorder:
    """In-memory spans: [name, layer, parent index, start, end, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self.wrapped: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str, counts=None, drain: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span belongs to the span that spawned it.
            source = stack or self._main_stack
            span = [name, layer, source[-1] if source else -1, 0.0, 0.0, None]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    rows = list(result)
                    result = iter(rows)
                    span[5] = {"rows": len(rows)}
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced


def install() -> Recorder:
    """Wrap every target (and every ``qhc.cli.cmd_*``); return the recorder."""
    import qhc.cli  # noqa: F401  (loads every module the targets live in)

    recorder = Recorder()
    modules = [m for n, m in sorted(sys.modules.items()) if n == "qhc" or n.startswith("qhc.")]
    cli = sys.modules["qhc.cli"]
    targets = list(TARGETS) + [
        ("cli", "qhc.cli", n, None, False) for n in sorted(vars(cli)) if n.startswith("cmd_")
    ]
    for layer, module_name, dotted, counts, drain in targets:
        owner = sys.modules[module_name]
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr, None)
        if original is None:
            continue  # the program no longer has this function; its metrics read zero
        traced = recorder.wrap(original, dotted, layer, counts, drain)
        if path:
            setattr(owner, attr, traced)
        else:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        recorder.wrapped.append(f"{module_name}.{dotted}")
    return recorder


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[list]) -> list[float]:
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, layer, parent, start, end, counts in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(s[4] - s[3]) - _covered(children[i]) for i, s in enumerate(spans)]


def summarize(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time was ``wall_s``."""
    selfs = self_times(spans)
    names = [s[0] for s in spans]

    def dur(i: int) -> float:
        return spans[i][4] - spans[i][3]

    def where(pred) -> list[int]:
        return [i for i, n in enumerate(names) if pred(n)]

    def total(indices, of=None) -> float:
        return sum((of or dur)(i) for i in indices)

    def self_of(i: int) -> float:
        return selfs[i]

    def count(indices, key) -> int:
        return sum(spans[i][5][key] for i in indices)

    cmd = where(lambda n: n.startswith("cmd_"))
    truth = where(lambda n: n == "BooleanFunction.truth_table")
    table = where(lambda n: n == "LinearPolynomial.table")
    search = where(lambda n: n == "search_key_set")
    attempts = [i for i in where(lambda n: n == "verify_resistance") if spans[i][2] in search]
    certified = [i for i in attempts if spans[i][5]["certified"]]
    sweeps = [i for i in where(lambda n: n == "verify_resistance") if spans[i][5]["mode"] == "exact"]
    sweep_points = sum(spans[i][5]["N"] for i in sweeps)
    runs = [i for i in where(lambda n: n in RUN_SPANS)
            if spans[i][2] < 0 or names[spans[i][2]] not in RUN_SPANS]
    iter_rows = where(lambda n: n == "ErrorProfile.iter_rows")
    evals = where(lambda n: n in ("BooleanFunction.__call__", "LinearPolynomial.evaluate"))

    m: dict[str, float] = {
        "cli.emit_s": total(cmd, self_of),
        "cli.parse_s": total(where(lambda n: n in PARSE_SPANS), self_of),
        "cli.commands": len(where(lambda n: n == "main")),
        "boolfn.truth_table_s": total(truth),
        "boolfn.truth_table_rows": count(truth, "rows"),
        "boolfn.poly_table_s": total(table),
        "boolfn.poly_table_rows": count(table, "rows"),
        "boolfn.poly_table_bigint_rows": count(table, "bigint_rows"),
        "boolfn.eval_s": total(evals),
        "boolfn.evals": len(evals),
        "boolfn.verify_s": total(where(lambda n: n == "verify_characteristic"), self_of),
        "qhash.search_s": total(search),
        "qhash.draw_s": total(search, self_of),
        "qhash.search_attempts": len(attempts),
        "qhash.search_certified_ratio": len(certified) / len(attempts) if attempts else 0.0,
        "qhash.sweep_s": total(sweeps),
        "qhash.sweep_points": sweep_points,
        # computed, not measured: 8N bytes of rfft input plus 16(N/2+1) of output
        "qhash.sweep_bytes": sum(8 * spans[i][5]["N"] + 16 * (spans[i][5]["N"] // 2 + 1) for i in sweeps),
        "qhash.bias_s": total(where(lambda n: n == "bias")),
        "qhash.bias_calls": len(where(lambda n: n == "bias")),
        "qhash.build_hash_calls": len(where(lambda n: n == "build_hash")),
        "protocol.error_profile_s": total(where(lambda n: n == "error_profile"), self_of),
        "protocol.iter_rows_s": total(iter_rows),
        "protocol.grid_cells": count(iter_rows, "rows"),
        "protocol.run_s": total(runs),
        "protocol.runs": len(runs),
    }
    layer_sum = 0.0
    for layer in LAYERS:
        value = sum(selfs[i] for i, s in enumerate(spans) if s[1] == layer)
        m[f"{layer}.self_s"] = value
        layer_sum += value
    m["trace.wall_s"] = wall_s
    m["trace.gap_s"] = wall_s - layer_sum
    m["trace.spans"] = len(spans)
    return m
