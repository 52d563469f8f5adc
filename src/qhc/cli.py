"""Config-driven command-line front end.

Subcommands:

* ``verify``      — exhaustively check a builtin (or file-supplied)
                    characteristic; exit 0 valid, 1 counterexample.
* ``search-keys`` — randomized search for a certified key set, JSON out.
* ``run``         — execute one protocol input (exact or sampled), JSON out.
* ``profile``     — full-grid error profile, CSV out (sigma,gamma,f,exact_accept).

A config says what to run; each command writes to its ``--out`` (relative to
the working directory) or to stdout, and ``profile`` requires ``--out``.

Exit codes: 0 success; 1 mathematical counterexample or refuted bound;
2 resource-guard refusal; 3 malformed input.  Everything is deterministic
for fixed seeds except the ``wall_clock_s`` field, which is excluded from
the comparison canon.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .boolfn import (
    BUILTINS,
    Characteristic,
    FunctionInstance,
    LinearPolynomial,
    builtin,
    conjunction,
    polynomial_instance,
    verify_characteristic,
)
from .errors import BoundError, CharacteristicError, ConfigError, GuardError, SearchError
from .protocol import ProtocolSpec, build_spec, error_profile, run_exact, run_sampled
from .qhash import MODULUS_BITS, KeySet, search_key_set
from .util import (
    FILE, INT, LIST, NUMBER, OBJECT, REQUIRED, STRING, format_bits, parse_bits, read_field,
    read_items, refuse_unread, show,
)

class _Parser(argparse.ArgumentParser):
    """argparse's own exit code for bad flags is 2; our contract reserves
    2 for guard refusals, so flag errors are rerouted to the config path."""

    def error(self, message: str):
        raise ConfigError("argv", message)


def _polynomial_set(make, polys: Sequence[LinearPolynomial], where: str):
    """``make(polys)`` for the polynomials ``polys`` read at ``where``;
    polynomials that disagree on modulus or arity are refused naming ``where``."""
    try:
        return make(tuple(polys))
    except ValueError as e:
        raise ConfigError(where, f"bad polynomial set: {e}")


def _read_bytes(path: Path, what: str) -> bytes:
    try:
        return path.read_bytes()
    except (OSError, UnicodeError) as e:  # UnicodeError: a name the file system cannot encode
        raise ConfigError(str(path), f"cannot read {what}: {e}")


def _json_loads(data: bytes, where: str):
    """``data`` decoded strictly as UTF-8 (RFC 8259 section 8.1), whatever
    the locale, and parsed as JSON; an error names ``where``."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigError(where, f"not UTF-8: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(where, f"not valid JSON: {e}")
    except RecursionError:
        raise ConfigError(where, "not readable JSON: nested too deeply") from None


def _read_json(path: Path, what: str):
    return _json_loads(_read_bytes(path, what), str(path))


def _parse_doc(parse, doc, where: str, whole: str, what: str):
    """``parse(doc)`` for the JSON object ``doc`` (a key set or polynomial)
    read at ``where``, a file or a config path.  An error names ``where``,
    then the field by its path in ``doc``."""
    read_field({whole: doc}, whole, where, OBJECT)
    try:
        return parse(doc)
    except ConfigError as e:  # e.message starts with the field's own name
        parent = e.path.rpartition(".")[0]
        raise ConfigError(where, f"bad {what}: {parent + '.' if parent else ''}{e.message}")
    except ValueError as e:
        raise ConfigError(where, f"bad {what}: {e}")


def _poly_from_json(doc, where: str) -> LinearPolynomial:
    return _parse_doc(LinearPolynomial.from_json, doc, where, "a polynomial", "polynomial")


def _load_polys(path: Path) -> list[LinearPolynomial]:
    doc = _read_json(path, "polynomial file")
    docs = doc if isinstance(doc, list) else [doc]  # one polynomial or a list of them
    if not docs:
        raise ConfigError(str(path), "empty polynomial file")
    return [_poly_from_json(d, str(path)) for d in docs]


# Key files whose key sets a process keeps, the most recently loaded last:
# path -> (the file's bytes, the key set parsed from them).
_KEY_SET_CACHE_SIZE = 8
_key_sets: OrderedDict[str, tuple[bytes, KeySet]] = OrderedDict()


def _load_key_set(path: Path) -> KeySet:
    """The key set in the file at ``path``, read on every call.

    A process keeps the key sets of the last few files it has loaded, each
    with the bytes it was parsed from, so loading an unchanged file again
    costs one read and one byte comparison; a rewritten file is parsed and
    checked anew.  Sharing a set is safe: a ``KeySet``, its certification
    and its key array are immutable.  A failed load is not kept, so it
    fails alike each time."""
    where = str(path)
    data = _read_bytes(path, "key file")
    kept = _key_sets.pop(where, None)
    if kept is None or kept[0] != data:
        doc = _json_loads(data, where)
        kept = (data, _parse_doc(KeySet.from_json, doc, where, "key file", "key set"))
    _key_sets[where] = kept
    if len(_key_sets) > _KEY_SET_CACHE_SIZE:
        _key_sets.popitem(last=False)
    return kept[1]


# Bounds of the keys.search fields, shared with the search-keys flags.
_SEARCH_BOUNDS = {"log2_n": (1, 256), "seed": (0, None)}


def _search_field(doc: dict, key: str, prefix: str, default=REQUIRED) -> int:
    return read_field(doc, key, prefix + key, INT, default, *_SEARCH_BOUNDS[key])


def _resolve_builtin(fdoc: dict) -> FunctionInstance:
    """A builtin from its descriptor: {"name", "n"}, with "m" for MOD and
    MODBIN, or for CONJ {"name", "n_a", "n_b", "m_a", "m_b"}; once it is
    built, any other field is refused.  Shared by configs and ``verify``."""
    name = read_field(fdoc, "name", "function.name", STRING, "").upper()
    if name == "CONJ":
        fields = {"n_a": REQUIRED, "n_b": REQUIRED, "m_a": 3, "m_b": 4}
    elif name not in BUILTINS:
        raise ConfigError(
            "function.name",
            f"unknown function {show(name)} (expected {', '.join(BUILTINS)} or CONJ)",
        )
    else:
        fields = {"n": REQUIRED, "m": None} if name in ("MOD", "MODBIN") else {"n": REQUIRED}
    sizes = tuple(read_field(fdoc, k, f"function.{k}", INT, d) for k, d in fields.items())
    try:
        instance = _builtin_instance(name, sizes)
    except ValueError as e:
        raise ConfigError("function", str(e))
    refuse_unread(fdoc, "function", ("name", *fields))
    return instance


@functools.lru_cache(maxsize=16)
def _builtin_instance(name: str, sizes: tuple) -> FunctionInstance:
    """A builtin by name and its sizes in descriptor order.  A process keeps
    the last 16 it built, so a repeated descriptor costs no rebuild (an
    instance is immutable); a ValueError is raised anew each time."""
    return conjunction(*sizes) if name == "CONJ" else builtin(name, *sizes)


# ---------------------------------------------------------------- configs


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    instance: FunctionInstance
    n1: int
    forwarded: tuple[int, ...]
    topology: str
    mode: str
    delta: float | None
    key_search: dict | None  # {"seed", "modulus"}
    key_files: list[Path] | None
    trials: int
    seed: int
    input_bits: tuple[tuple[int, ...], tuple[int, ...]] | None


def parse_config(doc: dict, base_dir: Path) -> ExperimentConfig:
    """Validate an experiment document; the first problem wins and is
    reported with its JSON path.  Every object refuses the fields it does
    not read once it has read its own, so a field's own message wins and
    ``run`` echoes only fields that ``read_field`` checked."""
    read_field({"config": doc}, "config", "$", OBJECT)
    fdoc = read_field(doc, "function", "function", OBJECT)
    if sum(k in fdoc for k in ("poly", "poly_file", "name")) > 1:
        raise ConfigError("function", "give only one of poly, poly_file and name")
    if "poly" in fdoc:
        poly = _poly_from_json(fdoc["poly"], "function.poly")
        instance = _polynomial_set(polynomial_instance, [poly], "function.poly")
        refuse_unread(fdoc, "function", ("poly",))
    elif "poly_file" in fdoc:
        path = base_dir / read_field(fdoc, "poly_file", "function.poly_file", FILE)
        instance = _polynomial_set(polynomial_instance, _load_polys(path), str(path))
        refuse_unread(fdoc, "function", ("poly_file",))
    else:
        instance = _resolve_builtin(fdoc)

    arity = instance.function.arity
    pairs = len(instance.characteristic.polynomials)
    sdoc = read_field(doc, "split", "split", OBJECT, {})
    n1 = read_field(sdoc, "n1", "split.n1", INT, instance.n1, lo=0, hi=arity)
    forwarded = read_field(sdoc, "forwarded", "split.forwarded", LIST, [])
    forwarded = tuple(read_items(forwarded, "split.forwarded", INT, lo=1, hi=n1))
    if len(set(forwarded)) != len(forwarded):
        raise ConfigError("split.forwarded", "indices must be distinct")
    refuse_unread(sdoc, "split", ("n1", "forwarded"))

    delta = read_field(doc, "delta", "delta", NUMBER, None, lo=0, hi=1)

    kdoc = read_field(doc, "keys", "keys", OBJECT)
    if sum(k in kdoc for k in ("search", "file", "files")) != 1:
        raise ConfigError("keys", "need exactly one key source: search, file, or files")
    key_search = None
    key_files = None
    if "search" in kdoc:
        s = read_field(kdoc, "search", "keys.search", OBJECT)
        if delta is None:
            raise ConfigError("delta", "key search needs a delta in (0,1)")
        modulus = instance.characteristic.modulus
        if "log2_n" in s and "N" in s:
            raise ConfigError("keys.search", "give log2_n or N, not both")
        if "log2_n" in s:
            modulus = 1 << _search_field(s, "log2_n", "keys.search.")
        elif "N" in s:
            modulus = read_field(s, "N", "keys.search.N", INT)
            if modulus >> MODULUS_BITS:
                raise ConfigError("keys.search.N", f"N must be below 2^{MODULUS_BITS}")
        if modulus < instance.characteristic.modulus:
            raise ConfigError(
                "keys.search",
                f"key modulus {modulus} smaller than polynomial modulus "
                f"{instance.characteristic.modulus}",
            )
        key_search = {
            "seed": _search_field(s, "seed", "keys.search.", 0),
            "modulus": modulus,
        }
        refuse_unread(s, "keys.search", ("log2_n", "N", "seed"))
    else:
        if "files" in kdoc:
            names = read_items(read_field(kdoc, "files", "keys.files", LIST), "keys.files", FILE)
        else:
            names = [read_field(kdoc, "file", "keys.file", FILE)]
        key_files = [base_dir / p for p in names]
        if len(key_files) not in (1, pairs):
            need = "1 key file" if pairs == 1 else f"1 or {pairs} key files"
            raise ConfigError("keys.files", f"need {need}, got {len(key_files)}")
    refuse_unread(kdoc, "keys", ("search", "file", "files"))

    topology = read_field(doc, "topology", "topology", STRING, "one-way")
    if topology not in ("one-way", "smp"):
        raise ConfigError("topology", f"unknown topology {show(topology)}")
    if topology == "smp" and forwarded:
        raise ConfigError(
            "split.forwarded", "forwarded variables have no receiver in the SMP topology"
        )
    mode = read_field(doc, "mode", "mode", STRING, "exact")
    if mode not in ("exact", "sampled"):
        raise ConfigError("mode", f"unknown mode {show(mode)}")

    input_bits = None
    idoc = read_field(doc, "input", "input", OBJECT, None)
    if idoc is not None:
        try:
            input_bits = tuple(
                parse_bits(read_field(idoc, p, f"input.{p}", STRING)) for p in ("alice", "bob")
            )
        except ValueError as e:
            raise ConfigError("input", f"input needs alice and bob bit strings ({e})")
        for party, bits, size in zip(("alice", "bob"), input_bits, (n1, arity - n1)):
            if len(bits) != size:
                raise ConfigError(
                    f"input.{party}", f"{party} input has {len(bits)} bits, split says {size}"
                )
        refuse_unread(idoc, "input", ("alice", "bob"))

    config = ExperimentConfig(
        raw=doc,
        instance=instance,
        n1=n1,
        forwarded=forwarded,
        topology=topology,
        mode=mode,
        delta=delta,
        key_search=key_search,
        key_files=key_files,
        trials=read_field(doc, "trials", "trials", INT, 1, lo=1, hi=(1 << 63) - 1),
        seed=read_field(doc, "seed", "seed", INT, 0, lo=0),
        input_bits=input_bits,
    )
    refuse_unread(doc, "", ("function", "split", "delta", "keys", "topology", "mode", "input",
                            "trials", "seed"))
    return config


def _resolve_key_sets(config: ExperimentConfig) -> list[KeySet]:
    pairs = len(config.instance.characteristic.polynomials)
    if config.key_files is not None:
        sets = [_load_key_set(p) for p in config.key_files]
        least = config.instance.characteristic.modulus
        for path, ks in zip(config.key_files, sets):
            if ks.modulus < least:
                raise ConfigError(str(path), f"key modulus {ks.modulus} smaller than polynomial "
                                  f"modulus {least}: differences would wrap")
        if len(sets) == 1:
            sets = sets * pairs
        return sets
    assert config.key_search is not None
    s = config.key_search
    children = np.random.SeedSequence(s["seed"]).spawn(pairs)
    return [search_key_set(s["modulus"], config.delta, seed=child) for child in children]


def _build_spec(config: ExperimentConfig) -> ProtocolSpec:
    """The spec of ``config``.  The key files are read on every call; the
    spec is built on a miss."""
    key_sets = tuple(_resolve_key_sets(config))
    return _spec(config.instance, key_sets, config.topology, config.n1, config.forwarded)


@functools.lru_cache(maxsize=16)
def _spec(instance, key_sets, topology, n1, forwarded) -> ProtocolSpec:
    """A process keeps the last 16 specs it built, keyed by what builds them
    (a spec is immutable; key sets are compared by value); a ValueError is
    raised anew each time."""
    return build_spec(instance, key_sets, topology=topology, n1=n1, forwarded=forwarded)


def _json_text(doc, pad: str = "") -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for a document of dicts
    with string keys, lists, tuples, strings, ints, floats, bools and None;
    ``json`` writes indented text with its pure-Python encoder, this with
    one join per container.  ``pad`` is the indent of the line ``doc``
    starts on."""
    if isinstance(doc, str):
        return _escape(doc)
    inner = pad + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [_escape(k) + ": " + _json_text(v, inner) for k, v in doc.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        if all(type(v) is str for v in doc):  # a key file's keys, in one join
            items = map(_escape, doc)
        else:
            items = [_json_text(v, inner) for v in doc]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, float):  # NaN and the infinities as json writes them
        return float.__repr__(doc) if math.isfinite(doc) else json.dumps(doc)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _write_or_print(text: str, out: str | None) -> None:
    """``text`` into the file ``out``, or as it is on stdout: the same bytes.

    Unlike ``profile``'s CSV, a key file or run report is truncated before
    it is written.  Written in place and cut short, new keys could sit in
    front of the old file's ``certification`` tail and the result would
    still parse: a forged certificate."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------ subcommands


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n  # CONJ splits its n total bits as n_a = n - n//2, n_b = n//2
    halves = {} if n is None else {"n_a": n - n // 2, "n_b": n // 2}
    sizes = halves if args.function.upper() == "CONJ" else {"n": n}
    fdoc = {"name": args.function, **sizes, "m": args.m}
    instance = _resolve_builtin({k: v for k, v in fdoc.items() if v is not None})
    char = instance.characteristic
    if args.poly:
        path = Path(args.poly)
        make = functools.partial(Characteristic, instance.function)
        char = _polynomial_set(make, _load_polys(path), str(path))
    report = verify_characteristic(char)
    name = instance.function.name
    if report.valid:
        print(
            f"valid: {name} characteristic over Z_{char.modulus} "
            f"({len(char)} polynomial(s), {report.checked} assignments)"
        )
        return 0
    print(f"counterexample: {name} input={format_bits(report.counterexample)} - {report.reason}")
    return 1


def cmd_search_keys(args: argparse.Namespace) -> int:
    flags = vars(args)
    log2_n, seed = (_search_field(flags, k, "") for k in ("log2_n", "seed"))
    key_set = search_key_set(
        1 << log2_n, read_field(flags, "delta", "delta", NUMBER, lo=0, hi=1), seed=seed
    )
    cert = key_set.certification
    _write_or_print(_json_text(key_set.to_json()) + "\n", args.out)
    # With the key set on stdout, the line goes to stderr: stdout stays one JSON document.
    print(
        f"certified: N=2^{log2_n} d={key_set.d} delta={key_set.delta} "
        f"max_bias={cert.max_bias:.6f} mode={cert.mode} -> {args.out or 'stdout'}",
        file=sys.stdout if args.out else sys.stderr,
    )
    return 0


def _load_run_config(args: argparse.Namespace) -> ExperimentConfig:
    path = Path(args.config)
    return parse_config(_read_json(path, "config"), path.parent)


def cmd_run(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    config = _load_run_config(args)
    if config.input_bits is None:
        raise ConfigError("input", "run needs an input")
    spec = _build_spec(config)
    sigma, gamma = config.input_bits
    if config.mode == "sampled":
        report = run_sampled(spec, sigma, gamma, seed=config.seed, trials=config.trials)
    else:
        report = run_exact(spec, sigma, gamma)
    envelope = {
        "tool": "qhc",
        "version": __version__,
        "config": config.raw,
        "result": report.to_json(),
        "wall_clock_s": round(time.perf_counter() - start, 6),
    }
    _write_or_print(_json_text(envelope) + "\n", args.out)
    if args.out:
        print(f"f={report.f_value} exact_accept={report.exact_accept!r} -> {args.out}")
    return 0


def _no_truncate(path: str, flags: int) -> int:
    """``open``'s own flags and file mode, less O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def cmd_profile(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    spec = _build_spec(config)
    profile = error_profile(spec)
    # The CSV is written over the old file, which is truncated only at the
    # end of what was written.  Truncating first drops a 45 MB profile's
    # cached pages and frees its blocks, and the new bytes then need fresh
    # ones: on ext4 mounted with discard that costs more than the write
    # (about 32 ms to open with O_TRUNC and 14 ms to write, against 9 ms to
    # write over the old pages).  On a regular file the header goes in last, over a placeholder
    # of its length, so a write cut short never leaves a valid header in
    # front of new rows and the old file's tail.
    with open(args.out, "w", opener=_no_truncate) as fh:
        blocks = profile.csv_blocks()
        header = next(blocks)
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        fh.write(" " * (len(header) - 1) + "\n" if regular else header)
        fh.writelines(blocks)
        if regular:
            fh.truncate()
            fh.seek(0)
            fh.write(header)
    total = 1 << (spec.n1 + spec.n2)
    print(f"profile: {spec.function.name} {total} inputs -> {args.out}")
    if profile.attaining is None:
        print("worst false accept: none (no 0-inputs)")
    else:
        sig, gam = profile.attaining
        print(f"worst false accept: {profile.worst_false_accept!r} at "
              f"{format_bits(sig)},{format_bits(gam)}")
    if spec.certified_delta is None:
        print("bounds unproven: key sets lack exact certification")
    else:
        print(f"certified bound: (1+delta^2)/2 = {spec.certified_bound!r} "
              f"(delta={spec.certified_delta})")
    return 0


# ------------------------------------------------------------------ main


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The qhc argument parser, built on the first call and then reused:
    building it takes about a millisecond, near a third of a ``run``."""
    parser = _Parser(prog="qhc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qhc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="brute-force check a characteristic")
    p.add_argument("--function", required=True, help="EQ | MOD | MODBIN | PALINDROME | PERM | CONJ")
    p.add_argument("--n", type=int, help="size parameter (per side for EQ)")
    p.add_argument("--m", type=int, help="modulus for MOD / MODBIN")
    p.add_argument("--poly", help="JSON polynomial (or list) to check instead of the builtin one")
    p.set_defaults(runner=cmd_verify)

    p = sub.add_parser("search-keys", help="find a certified collision-resistant key set")
    p.add_argument("--log2-n", type=int, required=True, dest="log2_n")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="key set JSON destination (default stdout)")
    p.set_defaults(runner=cmd_search_keys)

    p = sub.add_parser("run", help="execute one protocol input from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="report JSON destination (default stdout)")
    p.set_defaults(runner=cmd_run)

    p = sub.add_parser("profile", help="full-grid error profile to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV destination")
    p.set_defaults(runner=cmd_profile)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.runner(args)
    except GuardError as e:
        print(f"guard: {e}", file=sys.stderr)
        return 2
    except SearchError as e:
        print(f"search failed: {e}", file=sys.stderr)
        return 1
    except (CharacteristicError, BoundError) as e:
        print(f"counterexample: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
