import contextlib
import dataclasses
import errno
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import types
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc import (
    ConfigError, KeySet, LinearPolynomial, ResistanceReport, build_spec, builtin, run_exact,
    search_key_set,
)
import qhc
from qhc.cli import main, parse_config

from oracles import THREE_POLYS, poly_eval_direct, profile_csv_direct


def run_cli(*argv: str) -> int:
    return main(list(argv))


def fresh_cli(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """``python -m qhc.cli *argv`` in a fresh process, its environment this
    one's with ``env`` over it."""
    env = dict(os.environ, PYTHONPATH=str(Path(qhc.__file__).parent.parent), **env)
    return subprocess.run([sys.executable, "-m", "qhc.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


EQ2_EXACT = {
    "function": {"name": "EQ", "n": 2},
    "delta": 0.3,
    "keys": {"search": {"log2_n": 10, "seed": 7}},
    "mode": "exact",
    "input": {"alice": "10", "bob": "10"},
}

EQ2_POLY = builtin("EQ", 2).characteristic.polynomials[0].to_json()


# ----------------------------------------------------------------- verify


class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--function", "EQ", "--n", "3"),
            ("verify", "--function", "MOD", "--n", "5", "--m", "3"),
            ("verify", "--function", "PALINDROME", "--n", "5"),
            ("verify", "--function", "PERM", "--n", "2"),
            ("verify", "--function", "CONJ", "--n", "6"),
        ],
    )
    def test_builtins_are_valid(self, argv, capsys):
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.startswith("valid:")

    def test_corrupted_polynomial_exits_1(self, tmp_path, capsys):
        good = builtin("EQ", 2).characteristic.polynomials[0]
        doc = good.to_json()
        doc["constant"] = "1"
        poly = tmp_path / "bad.json"
        poly.write_text(json.dumps(doc))
        assert run_cli("verify", "--function", "EQ", "--n", "2", "--poly", str(poly)) == 1
        assert "counterexample" in capsys.readouterr().out

    def test_polynomial_vanishing_on_a_0_input_exits_1_on_an_ascii_stdout(self, tmp_path):
        """verify's stdout lines are ASCII, so a counterexample exits 1
        whatever encoding stdout has."""
        poly = tmp_path / "zero.json"
        poly.write_text(json.dumps({"modulus": "4", "coeffs": ["0"] * 4}))
        done = fresh_cli("verify", "--function", "EQ", "--n", "2", "--poly", str(poly),
                         PYTHONIOENCODING="ascii")
        assert done.returncode == 1, done.stderr
        assert done.stdout == (
            "counterexample: EQ_2 input=0001 - polynomial 0 vanishes on a 0-input\n")

    def test_enumeration_guard_exits_2(self, capsys):
        assert run_cli("verify", "--function", "EQ", "--n", "13") == 2
        assert "guard" in capsys.readouterr().err

    def test_builtin_size_guard_exits_2(self, capsys):
        # refused before EQ's coefficients are built, not by the enumeration guard
        assert run_cli("verify", "--function", "EQ", "--n", "20000") == 2
        assert capsys.readouterr().err == (
            "guard: EQ with n=20000 has 40000 variables; builtin guard is 8192\n")

    def test_unknown_function_exits_3(self, capsys):
        assert run_cli("verify", "--function", "XOR", "--n", "2") == 3
        assert "config error" in capsys.readouterr().err

    def test_mod_without_modulus_exits_3(self):
        assert run_cli("verify", "--function", "MOD", "--n", "4") == 3

    def test_bad_size_names_the_same_path_as_a_config(self, capsys):
        assert run_cli("verify", "--function", "EQ", "--n", "0") == 3
        assert "config error: function: EQ needs n >= 1" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="^function: EQ needs n >= 1"):
            parse_config({"function": {"name": "EQ", "n": 0}}, Path("."))

    def test_conj_refuses_m(self, capsys):
        """CONJ reads m_a and m_b, not m: --m is refused, as for EQ, not dropped."""
        assert run_cli("verify", "--function", "CONJ", "--n", "6", "--m", "5") == 3
        assert capsys.readouterr().err == (
            "config error: function.m: unknown field; function reads name, n_a, n_b, m_a, m_b\n")

    @pytest.mark.parametrize("name,n", [("EQ", 2), ("PALINDROME", 4), ("PERM", 2)])
    def test_fixed_modulus_builtins_refuse_m(self, tmp_path, capsys, name, n):
        """Only MOD and MODBIN read m; the other builtins refuse it at
        function.m, from the flag and from a config alike."""
        refused = "config error: function.m: unknown field; function reads name, n\n"
        assert run_cli("verify", "--function", name, "--n", str(n), "--m", "3") == 3
        assert capsys.readouterr().err == refused
        config = dict(EQ2_EXACT, function={"name": name, "n": n, "m": 3})
        assert run_cli("run", "--config", write_config(tmp_path, config)) == 3
        assert capsys.readouterr().err == refused

    def test_threads_flag_is_unknown(self, capsys):
        assert run_cli("verify", "--function", "EQ", "--n", "2", "--threads", "2") == 3
        assert "unrecognized arguments: --threads" in capsys.readouterr().err


# ------------------------------------------------------------ search-keys


class TestSearchKeys:
    def test_writes_certified_key_set(self, tmp_path, capsys):
        out = tmp_path / "keys.json"
        rc = run_cli(
            "search-keys", "--log2-n", "10", "--delta", "0.3", "--seed", "7",
            "--out", str(out),
        )
        assert rc == 0
        ks = KeySet.from_json(json.loads(out.read_text()))
        assert ks.d == 170
        assert ks.certified and ks.certification.max_bias < 0.3
        assert "certified:" in capsys.readouterr().out

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(
                "search-keys", "--log2-n", "8", "--delta", "0.4", "--seed", "3",
                "--out", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_mode(self, capsys):
        assert run_cli("search-keys", "--log2-n", "6", "--delta", "0.3", "--seed", "0") == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout is the key set alone, loadable as a key file
        assert doc["N"] == str(64)
        assert captured.err.startswith("certified: ") and "-> stdout" in captured.err

    def test_stdout_equals_the_out_file(self, tmp_path, capsys):
        """Without --out, stdout holds exactly the bytes --out writes."""
        argv = ("search-keys", "--log2-n", "6", "--delta", "0.5", "--seed", "7")
        assert run_cli(*argv) == 0
        stdout = capsys.readouterr().out
        assert run_cli(*argv, "--out", str(tmp_path / "k.json")) == 0
        assert stdout.encode() == (tmp_path / "k.json").read_bytes()
        assert stdout.endswith("}\n")

    def test_stdout_key_set_loads_in_run(self, tmp_path, capsys):
        """``search-keys ... > k.json`` writes a key file that ``run`` loads."""
        assert run_cli("search-keys", "--log2-n", "6", "--delta", "0.5", "--seed", "7") == 0
        (tmp_path / "k.json").write_text(capsys.readouterr().out)
        config = dict(EQ2_EXACT, keys={"file": "k.json"})
        assert run_cli("run", "--config", write_config(tmp_path, config)) == 0
        assert json.loads(capsys.readouterr().out)["result"]["f"] == 1

    def test_full_ring_certifies_at_any_delta(self, tmp_path, capsys):
        """A delta that asks for more keys than N gets the full ring, which
        certifies with max_bias 0.0."""
        out = tmp_path / "keys.json"
        assert run_cli("search-keys", "--log2-n", "6", "--delta", "1e-13", "--seed", "0",
                       "--out", str(out)) == 0
        ks = KeySet.from_json(json.loads(out.read_text()))
        assert ks.keys == tuple(range(64)) and ks.certified and ks.delta == 1e-13
        assert ks.certification.to_json() == {"mode": "exact", "max_bias": 0.0}
        assert capsys.readouterr().err == ""

    def test_bad_width_exits_3(self, capsys):
        assert run_cli("search-keys", "--log2-n", "0", "--delta", "0.3", "--seed", "0") == 3

    def test_bad_delta_exits_3(self):
        assert run_cli("search-keys", "--log2-n", "6", "--delta", "1.5", "--seed", "0") == 3

    def test_exhausted_draws_exit_1(self, tmp_path, capsys, monkeypatch):
        def always_refuted(key_set, delta, mode="exact", rng=None):
            return ResistanceReport(certified=False, max_bias=0.97, worst_difference=1,
                                    key_set=key_set, bound=0.97)

        monkeypatch.setattr(qhc.qhash, "verify_resistance", always_refuted)
        out = tmp_path / "keys.json"
        assert run_cli("search-keys", "--log2-n", "10", "--delta", "0.3", "--seed", "7",
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("search failed: ")
        assert "in 10 attempts (smallest bound 0.97, best max bias seen 0.97)" in captured.err

    def test_key_count_guard_exits_2(self, capsys):
        """d = required_keys(2^64, 0.001) is about 9e7 draws: refused before any."""
        assert run_cli("search-keys", "--log2-n", "64", "--delta", "0.001", "--seed", "0") == 2
        assert "guard: refusing to draw 90109134 keys" in capsys.readouterr().err


# -------------------------------------------------------------------- run


class TestRun:
    def test_exact_equal_inputs(self, tmp_path, capsys):
        config = write_config(tmp_path, EQ2_EXACT)
        assert run_cli("run", "--config", config) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["tool", "version", "config", "result", "wall_clock_s"]
        assert doc["tool"] == "qhc"
        result = doc["result"]
        assert result["f"] == 1 and result["exact_accept"] == 1.0
        assert result["bounds"]["certified"] is True
        assert result["qubits"]["alice_to_bob"] == 9  # d = 170 -> 9 qubits

    def test_stdout_equals_the_out_file(self, tmp_path, capsys):
        """Without --out, stdout holds exactly the bytes --out writes, but
        for the wall_clock_s line."""
        config = write_config(tmp_path, EQ2_EXACT)
        assert run_cli("run", "--config", config) == 0
        stdout = capsys.readouterr().out
        assert run_cli("run", "--config", config, "--out", str(tmp_path / "report.json")) == 0
        written = (tmp_path / "report.json").read_text()
        assert stdout.endswith("}\n") and written.endswith("}\n")
        clock = '  "wall_clock_s": '
        assert ([ln for ln in stdout.splitlines(True) if not ln.startswith(clock)]
                == [ln for ln in written.splitlines(True) if not ln.startswith(clock)])
        assert len(stdout.splitlines()) == len(written.splitlines())

    @pytest.mark.parametrize("function, err", [
        ({"name": "EQ", "n": 20000}, "EQ with n=20000 has 40000 variables"),
        ({"name": "CONJ", "n_a": 10000, "n_b": 10000},
         "CONJ with n_a=10000, n_b=10000 has 20000 variables"),
    ], ids=["EQ", "CONJ"])
    def test_builtin_size_guard_exits_2(self, tmp_path, capsys, function, err):
        """A config's builtin is refused before its coefficients are built,
        ahead of the 1-bit inputs that do not fit it."""
        doc = dict(EQ2_EXACT, function=function, input={"alice": "1", "bob": "0"})
        assert run_cli("run", "--config", write_config(tmp_path, doc)) == 2
        assert capsys.readouterr().err == f"guard: {err}; builtin guard is 8192\n"

    def test_huge_sampled_runs_in_a_fresh_process(self, tmp_path):
        """10^13 trials take one binomial draw, and 2^63 is refused as a
        config error, not by numpy's OverflowError: in a fresh process, so
        that an escaped exception would show as a traceback."""
        procs = {}
        for trials in (10**13, 2**63):
            config = write_config(tmp_path, dict(EQ2_EXACT, mode="sampled", trials=trials))
            procs[trials] = fresh_cli("run", "--config", config)
        ok, refused = procs[10**13], procs[2**63]
        assert ok.returncode == 0 and ok.stderr == "", ok.stderr
        sampled = json.loads(ok.stdout)["result"]["sampled"]
        assert sampled["trials"] == 10**13 and 0 <= sampled["accepts"] <= 10**13
        assert refused.returncode == 3 and refused.stdout == ""
        assert refused.stderr == ("config error: trials: trials out of 1..9223372036854775807: "
                                  "9223372036854775808\n")

    def test_smp_report_does_not_depend_on_blas_threads(self, tmp_path, capsys):
        """d = 6225 keys are past the size at which OpenBLAS would split a
        dot product over threads."""
        assert run_cli("search-keys", "--log2-n", "21", "--delta", "0.07", "--seed", "0",
                       "--out", str(tmp_path / "keys.json")) == 0
        assert "d=6225" in capsys.readouterr().out
        doc = {
            "function": {"name": "EQ", "n": 16},
            "keys": {"file": "keys.json"},
            "topology": "smp",
            "input": {"alice": "0110100110010110", "bob": "0110100110010111"},
        }
        config = write_config(tmp_path, doc)
        reports = []
        for threads in ("1", "2"):
            proc = fresh_cli("run", "--config", config, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            report.pop("wall_clock_s")
            reports.append(json.dumps(report, indent=2))
        assert reports[0] == reports[1]

    def test_repeat_runs_identical_up_to_wall_clock(self, tmp_path, capsys):
        doc = dict(EQ2_EXACT, mode="sampled", trials=40, seed=5,
                   input={"alice": "11", "bob": "00"})
        config = write_config(tmp_path, doc)
        envelopes = []
        for _ in range(2):
            assert run_cli("run", "--config", config) == 0
            env = json.loads(capsys.readouterr().out)
            env.pop("wall_clock_s")
            envelopes.append(env)
        assert envelopes[0] == envelopes[1]

    def test_smp_exact_and_sampled_modes_agree(self, tmp_path, capsys):
        """One SMP config gives the same fidelities and exact_accept in both
        modes, on 1-inputs and 0-inputs alike."""
        assert run_cli("search-keys", "--log2-n", "21", "--delta", "0.1", "--seed", "0",
                       "--out", str(tmp_path / "keys.json")) == 0
        capsys.readouterr()
        rng = np.random.default_rng(16)
        for i in range(12):
            alice = "".join(map(str, rng.integers(0, 2, size=16)))
            bob = alice if i % 3 == 0 else "".join(map(str, rng.integers(0, 2, size=16)))
            results = []
            for mode in ("exact", "sampled"):
                doc = {"function": {"name": "EQ", "n": 16}, "keys": {"file": "keys.json"},
                       "topology": "smp", "mode": mode, "input": {"alice": alice, "bob": bob}}
                assert run_cli("run", "--config", write_config(tmp_path, doc)) == 0
                results.append(json.loads(capsys.readouterr().out)["result"])
            exact, sampled = results
            assert sampled["fidelities"] == exact["fidelities"]
            assert sampled["exact_accept"] == exact["exact_accept"]
            assert exact["f"] == int(alice == bob)
            assert (exact["exact_accept"] == 1.0) == (alice == bob)

    def test_smp_topology_routes_to_referee(self, tmp_path, capsys):
        doc = dict(EQ2_EXACT, topology="smp")
        config = write_config(tmp_path, doc)
        assert run_cli("run", "--config", config) == 0
        qubits = json.loads(capsys.readouterr().out)["result"]["qubits"]
        assert qubits["alice_to_referee"] == qubits["bob_to_referee"] == 9

    def test_key_file_source(self, tmp_path, capsys):
        keys = tmp_path / "keys.json"
        assert run_cli(
            "search-keys", "--log2-n", "10", "--delta", "0.3", "--seed", "7",
            "--out", str(keys),
        ) == 0
        capsys.readouterr()
        doc = {
            "function": {"name": "EQ", "n": 2},
            "keys": {"file": "keys.json"},
            "input": {"alice": "01", "bob": "00"},
        }
        config = write_config(tmp_path, doc)
        assert run_cli("run", "--config", config) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["f"] == 0
        assert 0.5 <= result["exact_accept"] <= 0.545 + 1e-9

    def test_out_file_and_summary_line(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli("run", "--config", write_config(tmp_path, EQ2_EXACT),
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["result"]["f"] == 1
        assert capsys.readouterr().out == f"f=1 exact_accept=1.0 -> {out}\n"

    def test_older_key_file_loads_and_drops_trials_and_confidence(self, tmp_path, capsys):
        """A Monte Carlo key file as earlier versions wrote it, with trials
        and confidence, still runs; the two fields reach no output."""
        doc = search_key_set(1 << 64, 0.3, seed=0).to_json()
        (tmp_path / "new.json").write_text(json.dumps(doc))
        doc["certification"].update(trials=2000, confidence=1.0842021724855044e-16)
        (tmp_path / "old.json").write_text(json.dumps(doc))
        reports = []
        for name in ("old.json", "new.json"):
            config = dict(EQ2_EXACT, keys={"file": name})
            assert run_cli("run", "--config", write_config(tmp_path, config)) == 0
            report = json.loads(capsys.readouterr().out)
            del report["wall_clock_s"], report["config"]["keys"]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("alice,bob", [("1" * 15, "0" * 15), ("0" * 14 + "1", "0" * 15)])
    def test_poly_function_past_the_table_guard(self, tmp_path, capsys, alice, bob):
        poly = LinearPolynomial(modulus=7, coeffs=tuple(range(30)))
        doc = {
            "function": {"poly": poly.to_json()},
            "delta": 0.3,
            "keys": {"search": {"log2_n": 10, "seed": 7}},
            "input": {"alice": alice, "bob": bob},
        }
        assert run_cli("run", "--config", write_config(tmp_path, doc)) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        bits = [int(c) for c in alice + bob]
        f = int(poly_eval_direct(7, poly.coeffs, 0, bits) == 0)
        assert result["f"] == f
        assert (result["exact_accept"] == 1.0) == (f == 1)

    PALINDROME_4 = {
        "function": {"name": "PALINDROME", "n": 4},
        "delta": 0.3,
        "keys": {"search": {"log2_n": 8, "seed": 3}},
    }

    @pytest.mark.parametrize("n1", [0, 4])
    def test_empty_side_runs_as_profile_writes_it(self, tmp_path, capsys, n1):
        """At a cut that leaves one side no bits, that side's input is "",
        and each run's exact_accept equals its profile cell."""
        base = dict(self.PALINDROME_4, split={"n1": n1})
        out = tmp_path / "profile.csv"
        assert run_cli("profile", "--config", write_config(tmp_path, base), "--out", str(out)) == 0
        capsys.readouterr()
        cells = {}
        for line in out.read_text().splitlines()[1:]:
            sigma, gamma, f, accept = line.split(",")
            cells[sigma, gamma] = (int(f), accept)
        assert len(cells) == 16
        for bits in ("0110", "0111", "1000"):
            alice, bob = bits[:n1], bits[n1:]
            doc = dict(base, input={"alice": alice, "bob": bob})
            assert run_cli("run", "--config", write_config(tmp_path, doc)) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert (result["f"], repr(result["exact_accept"])) == cells[alice, bob]

    def test_empty_side_where_bits_are_needed_exits_3(self, tmp_path, capsys):
        doc = dict(self.PALINDROME_4, split={"n1": 3}, input={"alice": "", "bob": "0"})
        assert run_cli("run", "--config", write_config(tmp_path, doc)) == 3
        err = capsys.readouterr().err
        assert "input.alice: alice input has 0 bits, split says 3" in err

    def test_missing_input_exits_3(self, tmp_path, capsys):
        doc = {k: v for k, v in EQ2_EXACT.items() if k != "input"}
        assert run_cli("run", "--config", write_config(tmp_path, doc)) == 3
        assert "input" in capsys.readouterr().err

    def test_missing_config_file_exits_3(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 3

    def test_malformed_json_exits_3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("run", "--config", str(path)) == 3

    def test_missing_required_flag_exits_3(self, capsys):
        assert run_cli("run") == 3
        assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------- profile


class TestProfile:
    def profile_config(self, tmp_path: Path) -> str:
        doc = {
            "function": {"name": "EQ", "n": 2},
            "delta": 0.3,
            "keys": {"search": {"log2_n": 10, "seed": 7}},
        }
        return write_config(tmp_path, doc)

    def test_csv_grid(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        assert run_cli("profile", "--config", self.profile_config(tmp_path),
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sigma,gamma,f,exact_accept"
        assert len(lines) == 1 + 16
        assert lines[1] == "00,00,1,1.0"
        stdout = capsys.readouterr().out
        assert "worst false accept:" in stdout
        assert "certified bound:" in stdout

    def test_repeat_runs_byte_identical(self, tmp_path):
        config = self.profile_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("profile", "--config", config, "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_uncertified_keys_warn(self, tmp_path, capsys):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps(KeySet(modulus=16, keys=(1, 3, 7)).to_json()))
        doc = {
            "function": {"name": "EQ", "n": 2},
            "keys": {"file": "keys.json"},
        }
        out = tmp_path / "profile.csv"
        assert run_cli("profile", "--config", write_config(tmp_path, doc),
                       "--out", str(out)) == 0
        assert "bounds unproven" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "function,split",
        [
            ({"name": "EQ", "n": 3}, {}),
            ({"name": "CONJ", "n_a": 3, "n_b": 4}, {"n1": 3, "forwarded": [1]}),
            ({"name": "PALINDROME", "n": 4}, {"n1": 0}),
            ({"name": "PALINDROME", "n": 4}, {"n1": 4}),
            # f = 1 everywhere: no 0-inputs.
            ({"poly": {"modulus": "4", "coeffs": ["0", "0", "0"]}}, {"n1": 1}),
            # three pairs: the per-pair codes are compacted twice
            ({"poly_file": "polys.json"}, {}),
        ],
    )
    def test_csv_equals_row_by_row_oracle(self, tmp_path, function, split):
        ks = search_key_set(1 << 8, 0.3, seed=5)
        (tmp_path / "keys.json").write_text(json.dumps(ks.to_json()))
        (tmp_path / "polys.json").write_text(json.dumps(THREE_POLYS))
        doc = {"function": function, "split": split, "keys": {"file": "keys.json"}}
        out = tmp_path / "profile.csv"
        assert run_cli("profile", "--config", write_config(tmp_path, doc), "--out", str(out)) == 0

        config = parse_config(doc, tmp_path)
        spec = build_spec(config.instance, ks, n1=config.n1, forwarded=config.forwarded)
        reports = [
            [run_exact(spec, sigma, gamma) for gamma in product((0, 1), repeat=spec.n2)]
            for sigma in product((0, 1), repeat=spec.n1)
        ]
        f_grid = [[r.f_value for r in row] for row in reports]
        accept_grid = [[r.exact_accept for r in row] for row in reports]
        want = profile_csv_direct(spec.n1, spec.n2, f_grid, accept_grid)
        assert out.read_bytes() == want.encode()

    def test_polynomial_file_profiles_like_its_builtin(self, tmp_path):
        """EQ 5's polynomial read from a file is a function of its own, whose
        f and accept columns equal the builtin's cell for cell."""
        poly = builtin("EQ", 5).characteristic.polynomials[0]
        (tmp_path / "eq.json").write_text(json.dumps([poly.to_json()]))
        columns = []
        for function in ({"poly_file": "eq.json"}, {"name": "EQ", "n": 5}):
            doc = {"function": function, "delta": 0.3,
                   "keys": {"search": {"log2_n": 8, "seed": 3}}}
            out = tmp_path / "profile.csv"
            assert run_cli("profile", "--config", write_config(tmp_path, doc),
                           "--out", str(out)) == 0
            columns.append([line.split(",")[2:] for line in out.read_text().splitlines()])
        assert len(columns[0]) == 1 + (1 << 10) and columns[0] == columns[1]

    def test_key_file_past_2_31_profiles(self, tmp_path, capsys):
        keys = tmp_path / "keys.json"
        assert run_cli("search-keys", "--log2-n", "64", "--delta", "0.3", "--seed", "0",
                       "--out", str(keys)) == 0
        doc = {"function": {"name": "EQ", "n": 4}, "keys": {"file": "keys.json"}}
        out = tmp_path / "profile.csv"
        assert run_cli("profile", "--config", write_config(tmp_path, doc), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1 + 256
        assert "worst false accept:" in capsys.readouterr().out

    def test_enumeration_guard_exits_2(self, tmp_path, capsys):
        doc = {
            "function": {"name": "EQ", "n": 11},
            "delta": 0.3,
            "keys": {"search": {"log2_n": 11, "seed": 0}},
        }
        rc = run_cli("profile", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("guard: full profile enumerates 2^22 inputs") and "qhc run" in err


class TestOutputWriter:
    """Every ``--out`` file is written over an existing file and truncated
    at the end; on a regular file the first piece (a CSV's header, a JSON
    document's opening brace) is written last.  Whatever was there before,
    the bytes equal a write to a fresh path."""

    HEADER = b"sigma,gamma,f,exact_accept\n"

    @pytest.fixture(params=["search-keys", "run", "profile"])
    def argv(self, request, tmp_path, monkeypatch) -> list[str]:
        """A command without its --out.  run's clock is stopped, so its
        reports compare byte for byte."""
        monkeypatch.setattr(qhc.cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        if request.param == "search-keys":
            return ["search-keys", "--log2-n", "6", "--delta", "0.5", "--seed", "7"]
        return [request.param, "--config", write_config(tmp_path, EQ2_EXACT)]

    @pytest.fixture
    def fresh(self, tmp_path, argv) -> bytes:
        out = tmp_path / "fresh.out"
        assert run_cli(*argv, "--out", str(out)) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("old", [b"x" * (1 << 20), b"x", b"sigma,gamma\n00,00,1,1.0\n"],
                             ids=["longer", "shorter", "shorter-with-newlines"])
    def test_over_an_existing_file(self, tmp_path, argv, fresh, old):
        out = tmp_path / "old.out"
        out.write_bytes(old)
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == fresh

    def test_through_a_symlink(self, tmp_path, argv, fresh):
        target, link = tmp_path / "target.out", tmp_path / "link.out"
        target.write_bytes(b"x" * 4096)
        link.symlink_to(target)
        assert run_cli(*argv, "--out", str(link)) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh

    def test_through_a_hard_link(self, tmp_path, argv, fresh):
        first, second = tmp_path / "first.out", tmp_path / "second.out"
        first.write_bytes(b"x" * 4096)
        os.link(first, second)
        assert run_cli(*argv, "--out", str(first)) == 0
        assert second.read_bytes() == fresh

    def test_to_a_device_that_is_not_a_regular_file(self, argv, capsys):
        assert run_cli(*argv, "--out", os.devnull) == 0
        assert capsys.readouterr().err == ""

    def test_a_directory_exits_3_as_open_refuses_it(self, tmp_path, argv, capsys):
        with pytest.raises(OSError) as info:
            open(tmp_path, "w")
        assert run_cli(*argv, "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_new_file_mode_follows_the_umask_as_open_does(self, tmp_path, argv):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            assert run_cli(*argv, "--out", str(tmp_path / "new.out")) == 0
        finally:
            os.umask(old)
        mode = os.stat(tmp_path / "new.out").st_mode
        assert mode == os.stat(tmp_path / "plain.txt").st_mode == 0o100640

    def test_a_non_ascii_path_is_echoed_escaped_on_an_ascii_stdout(self, tmp_path, argv):
        """The summary line echoes --out; on a stdout that takes only ASCII
        the path is backslash-escaped, as stderr does, and the command
        exits 0."""
        out = tmp_path / "cl\u00e9.out"
        done = fresh_cli(*argv, "--out", str(out), PYTHONIOENCODING="ascii")
        assert done.returncode == 0, done.stderr
        assert out.stat().st_size > 0
        assert f"-> {tmp_path}/cl\\xe9.out\n" in done.stdout

    def test_a_write_cut_short_leaves_no_header(self, tmp_path, monkeypatch):
        argv = ("profile", "--config", TestProfile().profile_config(tmp_path))
        out = tmp_path / "profile.csv"
        assert run_cli(*argv, "--out", str(out)) == 0  # a complete profile from an earlier run
        fresh = out.read_bytes()
        csv_blocks = qhc.ErrorProfile.csv_blocks

        def two_blocks_then_disk_full(profile):
            blocks = csv_blocks(profile)
            yield next(blocks)
            yield next(blocks)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(qhc.ErrorProfile, "csv_blocks", two_blocks_then_disk_full)
        assert run_cli(*argv, "--out", str(out)) == 3
        first_line = out.read_bytes().partition(b"\n")[0] + b"\n"
        assert first_line != self.HEADER
        assert len(out.read_bytes()) == len(fresh)  # new rows over the old tail

    def test_a_json_write_cut_short_does_not_parse(self, tmp_path):
        """Rewriting a key file with its own text, cut short after the first
        piece past the brace, leaves the whole document but its first byte,
        and that does not parse."""
        out = tmp_path / "keys.json"
        assert run_cli("search-keys", "--log2-n", "10", "--delta", "0.3", "--seed", "7",
                       "--out", str(out)) == 0
        text = out.read_text()
        cut = text.index('"certification"')

        def brace_then_keys_then_disk_full():
            yield text[:1]
            yield text[1:cut]
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with pytest.raises(OSError):
            qhc.cli._write(str(out), brace_then_keys_then_disk_full())
        assert out.read_text() == " " + text[1:]
        with pytest.raises(json.JSONDecodeError):
            json.loads(out.read_text())


# ----------------------------------------------------------- config parse


class TestParseConfig:
    def parse(self, doc, base=Path(".")):
        return parse_config(doc, base)

    def error_path(self, doc) -> str:
        with pytest.raises(ConfigError) as info:
            self.parse(doc)
        return str(info.value)

    def test_parse_is_deterministic(self, tmp_path):
        assert self.parse(dict(EQ2_EXACT)) == self.parse(dict(EQ2_EXACT))

    def test_missing_function(self):
        assert self.error_path({}).startswith("function:")

    def test_unknown_name(self):
        assert self.error_path({"function": {"name": "NOPE"}}).startswith("function.name")

    def test_bad_cut(self):
        doc = dict(EQ2_EXACT, split={"n1": 9})
        assert self.error_path(doc).startswith("split.n1")

    def test_forwarded_out_of_range(self):
        doc = dict(EQ2_EXACT, split={"n1": 2, "forwarded": [3]})
        assert self.error_path(doc).startswith("split.forwarded")

    def test_forwarded_duplicates(self):
        doc = dict(EQ2_EXACT, split={"n1": 2, "forwarded": [1, 1]})
        assert self.error_path(doc).startswith("split.forwarded")

    def test_delta_domain(self):
        assert self.error_path(dict(EQ2_EXACT, delta=1.0)).startswith("delta")

    def test_two_key_sources(self):
        doc = dict(EQ2_EXACT, keys={"search": {"log2_n": 6}, "file": "k.json"})
        assert self.error_path(doc).startswith("keys:")

    def test_search_needs_delta(self):
        doc = {k: v for k, v in EQ2_EXACT.items() if k != "delta"}
        assert self.error_path(doc).startswith("delta")

    def test_search_modulus_must_cover_polynomial(self):
        doc = dict(EQ2_EXACT, keys={"search": {"log2_n": 1, "seed": 0}})
        assert self.error_path(doc).startswith("keys.search")

    def test_bad_topology(self):
        assert self.error_path(dict(EQ2_EXACT, topology="mesh")).startswith("topology")

    def test_bad_mode(self):
        assert self.error_path(dict(EQ2_EXACT, mode="fast")).startswith("mode")

    def test_profile_is_not_a_mode(self):
        assert self.error_path(dict(EQ2_EXACT, mode="profile")) == "mode: unknown mode 'profile'"

    def test_input_needs_both_parties(self):
        assert self.error_path(dict(EQ2_EXACT, input={"alice": "01"})).startswith("input")

    def test_input_rejects_non_bits(self):
        doc = dict(EQ2_EXACT, input={"alice": "01", "bob": "2x"})
        assert self.error_path(doc).startswith("input")

    def test_file_count_must_match_pairs(self):
        doc = {
            "function": {"name": "CONJ", "n_a": 2, "n_b": 2},
            "keys": {"files": ["a.json", "b.json", "c.json"]},
        }
        assert self.error_path(doc).startswith("keys.files")


# --------------------------------------------------------- malformed input


class TestMalformedInputExits3:
    """Malformed files and fields exit 3 naming their file or JSON path,
    never with a traceback or the counterexample code 1."""

    def assert_exit_3(self, capsys, argv, where):
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and where in err
        assert "Traceback" not in err

    def test_key_file_holding_a_list(self, tmp_path, capsys):
        keys = tmp_path / "keys.json"
        keys.write_text("[1, 2]")
        config = dict(EQ2_EXACT, keys={"file": "keys.json"})
        argv = ("run", "--config", write_config(tmp_path, config))
        self.assert_exit_3(capsys, argv, f"{keys}: key file must be a JSON object")

    @pytest.mark.parametrize("role", ["config", "key file", "polynomial file"])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys, role):
        """Every JSON input is decoded as UTF-8, whatever the locale; bytes
        that do not decode are refused naming their file."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        if role == "config":
            argv = ("run", "--config", str(bad))
        elif role == "key file":
            config = dict(EQ2_EXACT, keys={"file": "bad.json"})
            argv = ("run", "--config", write_config(tmp_path, config))
        else:
            argv = ("verify", "--function", "EQ", "--n", "2", "--poly", str(bad))
        assert run_cli(*argv) == 3
        assert capsys.readouterr().err == (
            f"config error: {bad}: not UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n")

    def test_byte_order_mark_is_refused(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps(EQ2_EXACT).encode())
        assert run_cli("run", "--config", str(config)) == 3
        assert capsys.readouterr().err.startswith(
            f"config error: {config}: not valid JSON: Unexpected UTF-8 BOM")

    def test_file_name_the_file_system_cannot_encode_is_named(self, tmp_path):
        """Under the C locale the file system encoding is ASCII: a key file
        named in UTF-8 by the config cannot be opened, and is refused by
        name; the same config runs where the name encodes."""
        name = "cl\u00e9.json"
        (tmp_path / name).write_text(json.dumps(search_key_set(16, 0.5, seed=0).to_json()))
        config = tmp_path / "config.json"
        config.write_bytes(json.dumps(dict(EQ2_EXACT, keys={"file": name}),
                                      ensure_ascii=False).encode())
        c_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        done = fresh_cli("run", "--config", str(config), **c_locale)
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr.startswith(  # stderr escapes what ASCII cannot show
            f"config error: {tmp_path}/cl\\xe9.json: cannot read key file: "
            "'ascii' codec can't encode character '\\xe9'"), done.stderr
        assert fresh_cli("run", "--config", str(config), PYTHONUTF8="1").returncode == 0

    def test_empty_polynomial_file(self, tmp_path, capsys):
        poly = tmp_path / "polys.json"
        poly.write_text("[]")
        assert run_cli("verify", "--function", "EQ", "--n", "2", "--poly", str(poly)) == 3
        assert capsys.readouterr().err == f"config error: {poly}: empty polynomial file\n"

    def test_search_attempts_in_config_is_unknown(self, tmp_path, capsys):
        """A key search is N, delta and a seed; its draw budget is no field."""
        config = dict(EQ2_EXACT, out=str(tmp_path / "report.json"),
                      keys={"search": {"log2_n": 10, "seed": 7, "attempts": 2}})
        argv = ("run", "--config", write_config(tmp_path, config))
        self.assert_exit_3(
            capsys, argv, "keys.search.attempts: unknown field; keys.search reads log2_n, N, seed")
        assert not (tmp_path / "report.json").exists()

    def test_search_attempts_flag_is_unknown(self, tmp_path, capsys):
        out = tmp_path / "keys.json"
        argv = ("search-keys", "--log2-n", "10", "--delta", "0.3", "--seed", "7",
                "--attempts", "2", "--out", str(out))
        self.assert_exit_3(capsys, argv, "argv: unrecognized arguments: --attempts 2")
        assert not out.exists()

    def test_key_file_keys_as_a_string(self, tmp_path, capsys):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({"N": "16", "keys": "123"}))
        config = dict(EQ2_EXACT, keys={"file": "keys.json"})
        argv = ("run", "--config", write_config(tmp_path, config))
        self.assert_exit_3(capsys, argv, f"{keys}: bad key set: keys must be a JSON list")

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_key_file_modulus_below_the_polynomial_modulus(self, tmp_path, capsys, command):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({"N": "16", "keys": ["1", "3"]}))
        config = {"function": {"name": "EQ", "n": 5}, "keys": {"file": "keys.json"},
                  "input": {"alice": "10110", "bob": "10111"}}
        argv = (command, "--config", write_config(tmp_path, config))
        if command == "profile":
            argv += ("--out", str(tmp_path / "profile.csv"))
        self.assert_exit_3(capsys, argv, f"{keys}: key modulus 16 smaller than polynomial "
                                         "modulus 32: differences would wrap")

    @pytest.mark.parametrize(
        "doc,where",
        [
            ({"N": "16", "keys": [1.5, 3.9]}, "keys[0] must be an integer"),
            ({"N": 16.7, "keys": [1, 3]}, "N must be an integer"),
            ({"N": 16, "keys": [True, 3]}, "keys[0] must be an integer"),
            ({"N": "16", "keys": ["1", "3.0"]}, "keys[1] must be an integer"),
            ({"N": "16", "keys": ["1", "-3"]}, "keys[1] must be an integer"),
            ({"N": "1_6", "keys": [1, 3]}, "N must be an integer"),
            ({"N": "16", "keys": [1, 3], "delta": "0.3"}, "delta must be a JSON number"),
            ({"N": "16", "keys": [1, 3], "delta": 1.5}, "delta out of (0,1): 1.5"),
        ],
    )
    def test_key_file_integers_are_strict(self, tmp_path, capsys, doc, where):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps(doc))
        config = dict(EQ2_EXACT, keys={"file": "keys.json"})
        argv = ("run", "--config", write_config(tmp_path, config))
        self.assert_exit_3(capsys, argv, f"{keys}: bad key set: {where}")

    @pytest.mark.parametrize(
        "field,value,where",
        [
            ("mode", ["exact"], "certification.mode must be a JSON string"),
            ("mode", "bogus", "unknown certification mode 'bogus'"),
            ("max_bias", "oops", "certification.max_bias must be a JSON number or null"),
            ("trials", [1], "certification.trials must be a JSON integer >= 1 or null"),
            ("trials", 0, "certification.trials must be a JSON integer >= 1 or null"),
            ("trials", 2.0, "certification.trials must be a JSON integer >= 1 or null"),
            ("confidence", {"a": 1}, "certification.confidence must be a JSON number or null"),
            ("confidence", "x", "certification.confidence must be a JSON number or null"),
            # json reads these tokens, which are not JSON; a report would echo them.
            ("max_bias", float("nan"),
             "certification.max_bias must be a JSON number or null, got NaN"),
            ("max_bias", float("-inf"),
             "certification.max_bias must be a JSON number or null, got -Infinity"),
            ("confidence", float("inf"),
             "certification.confidence must be a JSON number or null, got Infinity"),
        ],
    )
    def test_certification_fields_are_typed(self, tmp_path, capsys, field, value, where):
        cert = {"mode": "monte-carlo", "max_bias": 0.1, "trials": 10, "confidence": 0.5}
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({"N": "16", "keys": ["1", "3"], "certification": cert}))
        config = dict(EQ2_EXACT, keys={"file": "keys.json"})
        argv = ("run", "--config", write_config(tmp_path, config))
        assert run_cli(*argv) == 0  # the well-typed certificate loads
        capsys.readouterr()
        keys.write_text(json.dumps({"N": "16", "keys": ["1", "3"],
                                    "certification": dict(cert, **{field: value})}))
        self.assert_exit_3(capsys, argv, f"{keys}: bad key set: {where}")

    @pytest.mark.parametrize("n", ["16", str(1 << 64)])
    @pytest.mark.parametrize("bad", [-3, 1 << 64, 1 << 70])
    def test_key_out_of_range_exits_3(self, tmp_path, capsys, n, bad):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({"N": n, "keys": [1, bad, 3]}))
        config = dict(EQ2_EXACT, keys={"file": "keys.json"})
        argv = ("run", "--config", write_config(tmp_path, config))
        self.assert_exit_3(capsys, argv, f"{keys}: bad key set: key {bad} outside [0, {n})")

    @pytest.mark.parametrize("n", ["16", str(1 << 64)])
    @pytest.mark.parametrize("bad", [str(1 << 64), str(1 << 70), "0" * 25 + str(1 << 64)])
    def test_digit_string_key_out_of_range_exits_3(self, tmp_path, capsys, n, bad):
        """All-digit-string keys are parsed in one pass, which reads a value of
        2^64 or more as 2^64 - 1; the key is still refused and named."""
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({"N": n, "keys": ["1", bad, "3"]}))
        config = dict(EQ2_EXACT, keys={"file": "keys.json"})
        argv = ("run", "--config", write_config(tmp_path, config))
        self.assert_exit_3(capsys, argv, f"{keys}: bad key set: key {int(bad)} outside [0, {n})")

    def test_largest_digit_string_key_loads(self, tmp_path, capsys):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({"N": str(1 << 64), "keys": ["1", str((1 << 64) - 1), "3"]}))
        config = dict(EQ2_EXACT, keys={"file": "keys.json"})
        assert run_cli("run", "--config", write_config(tmp_path, config)) == 0
        assert json.loads(capsys.readouterr().out)["result"]["spec"]["key_sets"][0]["d"] == 3

    @pytest.mark.parametrize("n", ["16", str(1 << 64)])
    @pytest.mark.parametrize("bad", ["", " 3", "+3", "-3", "1_6"])
    def test_malformed_digit_string_key_exits_3(self, tmp_path, capsys, n, bad):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({"N": n, "keys": ["1", bad, "3"]}))
        config = dict(EQ2_EXACT, keys={"file": "keys.json"})
        argv = ("run", "--config", write_config(tmp_path, config))
        where = f"keys[1] must be an integer or a string of decimal digits, got {bad!r}"
        self.assert_exit_3(capsys, argv, f"{keys}: bad key set: {where}")

    def test_key_file_mixed_integer_forms_load(self, tmp_path, capsys):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({"N": 16, "keys": [1, "3"], "delta": None}))
        config = dict(EQ2_EXACT, keys={"file": "keys.json"})
        assert run_cli("run", "--config", write_config(tmp_path, config)) == 0
        assert json.loads(capsys.readouterr().out)["result"]["spec"]["key_sets"][0]["d"] == 2

    @pytest.mark.parametrize(
        "poly,where",
        [
            ({"modulus": 7.0, "coeffs": ["1", "2"]}, "modulus must be an integer"),
            ({"modulus": "-7", "coeffs": ["1", "2"]}, "modulus must be an integer"),
            ({"modulus": "7", "coeffs": ["1", 2.5]}, "coeffs[1] must be an integer"),
            ({"modulus": "7", "coeffs": [False, "2"]}, "coeffs[0] must be an integer"),
            ({"modulus": "7", "coeffs": ["1", "2"], "constant": "--1"}, "constant must be an integer"),
            ({"modulus": "7", "coeffs": ["1", "2"], "constant": 0.5}, "constant must be an integer"),
        ],
    )
    def test_polynomial_integers_are_strict(self, tmp_path, capsys, poly, where):
        config = dict(EQ2_EXACT, function={"poly": poly})
        argv = ("run", "--config", write_config(tmp_path, config))
        self.assert_exit_3(capsys, argv, f"function.poly: bad polynomial: {where}")

    def test_polynomial_file_integers_are_strict(self, tmp_path, capsys):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"modulus": "4", "coeffs": ["1", "1.5"], "constant": "0"}))
        argv = ("verify", "--function", "EQ", "--n", "2", "--poly", str(poly))
        self.assert_exit_3(capsys, argv, f"{poly}: bad polynomial: coeffs[1] must be an integer")

    @pytest.mark.parametrize(
        "command,polys,why",
        [
            (command, [{"modulus": "7", "coeffs": ["1", "0", "-1", "0"]}, other], why)
            for other, why in [
                ({"modulus": "5", "coeffs": ["0", "1", "0", "-1"]},
                 "characteristic polynomials must share one modulus"),
                ({"modulus": "7", "coeffs": ["0", "1", "-1"]},
                 "polynomial arity 3 != function arity 4"),
            ]
            for command in ("run", "verify")
        ] + [
            # verify checks a file's polynomials against the builtin's arity.
            ("verify", [{"modulus": "7", "coeffs": ["1", "0", "-1"]}],
             "polynomial arity 3 != function arity 4"),
        ],
    )
    def test_mismatched_polynomials_name_their_file(self, tmp_path, capsys, command, polys, why):
        poly = tmp_path / "polys.json"
        poly.write_text(json.dumps(polys))
        if command == "run":
            config = dict(EQ2_EXACT, function={"poly_file": "polys.json"})
            argv = ("run", "--config", write_config(tmp_path, config))
        else:
            argv = ("verify", "--function", "EQ", "--n", "2", "--poly", str(poly))
        self.assert_exit_3(capsys, argv, f"{poly}: bad polynomial set: {why}")

    def test_polynomial_signed_strings_load(self):
        doc = {"modulus": "7", "coeffs": ["-1", 2, "3"], "constant": "-10"}
        assert LinearPolynomial.from_json(doc) == LinearPolynomial(7, (-1, 2, 3), -10)

    def test_no_monte_carlo_trials_flag(self, capsys):
        # The Monte Carlo sample size is fixed; search-keys has no flag for it.
        argv = ("search-keys", "--log2-n", "64", "--delta", "0.3", "--seed", "0",
                "--trials", "5")
        self.assert_exit_3(capsys, argv, "argv: unrecognized arguments: --trials 5")

    @pytest.mark.parametrize(
        "flag,value,where",
        [
            ("--seed", "-1", "seed: seed must be >= 0, got -1"),
            ("--delta", "1.5", "delta: delta out of (0,1): 1.5"),
            ("--delta", "nan", "delta: delta out of (0,1): NaN"),
            ("--delta", "0", "delta: delta out of (0,1): 0.0"),
        ],
    )
    def test_search_keys_flags_name_their_field(self, capsys, flag, value, where):
        flags = {"--log2-n": "6", "--delta": "0.3", "--seed": "0", flag: value}
        argv = ["search-keys"] + [arg for pair in flags.items() for arg in pair]
        self.assert_exit_3(capsys, argv, where)

    def test_config_out_is_unknown(self, tmp_path, capsys):
        # A config says what to run; where the report goes is run's --out flag.
        config = write_config(tmp_path, dict(EQ2_EXACT, out="report.json"))
        self.assert_exit_3(capsys, ("run", "--config", config),
                           "out: unknown field; the top level reads function, split, delta, "
                           "keys, topology, mode, input, trials, seed\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_run_seed_flag_is_unknown(self, tmp_path, capsys):
        # A sampled run's seed is the config's seed field alone.
        argv = ("run", "--config", write_config(tmp_path, EQ2_EXACT), "--seed", "9",
                "--out", str(tmp_path / "report.json"))
        self.assert_exit_3(capsys, argv, "argv: unrecognized arguments: --seed 9\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "extra,where",
        [
            # a field no object reads is refused before its value is looked at
            ({"note": float("nan")}, "note: unknown field; the top level reads function, split, "),
            ({"meta": {"x": [1.5, float("-inf")], "y": float("nan")}}, "meta: unknown field; "),
            # a field that is read keeps its own message
            ({"delta": float("inf"), "note": float("nan")}, "delta: delta must be"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_nonfinite_numbers_anywhere_exit_3(self, tmp_path, capsys, command, extra, where):
        argv = (command, "--config", write_config(tmp_path, dict(EQ2_EXACT, **extra)),
                "--out", str(tmp_path / "out"))
        self.assert_exit_3(capsys, argv, where)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change,where",
        [
            ({"keys": {"search": 5}}, "keys.search: search must be a JSON object"),
            ({"keys": {"search": {"log2_n": 64, "trials": 10}}},
             "keys.search.trials: unknown field; keys.search reads log2_n, N, seed"),
            ({"keys": {"search": {"log2_n": -1}}}, "keys.search.log2_n: log2_n out of 1..256"),
            ({"keys": {"search": {"log2_n": 300}}}, "keys.search.log2_n: log2_n out of 1..256"),
            ({"keys": {"search": {"log2_n": 10.0}}},
             "keys.search.log2_n: log2_n must be a JSON integer"),
            ({"keys": {"search": {"N": "1024"}}}, "keys.search.N: N must be a JSON integer"),
            ({"keys": {"search": {"log2_n": 10, "seed": True}}},
             "keys.search.seed: seed must be a JSON integer"),
            ({"split": {"n1": 2.7}}, "split.n1: n1 must be a JSON integer, got 2.7"),
            ({"trials": "5"}, "trials: trials must be a JSON integer"),
            ({"seed": None}, "seed: seed must be a JSON integer, got null"),
            ({"function": {"name": "EQ", "n": 2.0}}, "function.n: n must be a JSON integer"),
            ({"delta": [0.3]}, "delta: delta must be a JSON number"),
            ({"input": {"alice": 10, "bob": "10"}}, "input: input needs alice and bob"),
            ({"function": {"poly": "x"}}, "function.poly: a polynomial must be a JSON object"),
            ({"function": {"poly": {"modulus": "7", "coeffs": "12"}}},
             "function.poly: bad polynomial: coeffs must be a JSON list"),
            ({"mode": "sampled", "trials": 0},
             "trials: trials out of 1..9223372036854775807: 0"),
            ({"trials": 0}, "trials: trials out of 1..9223372036854775807: 0"),
            ({"seed": -1}, "seed: seed must be >= 0, got -1"),
            ({"keys": {"search": {"log2_n": 10, "seed": -1}}},
             "keys.search.seed: seed must be >= 0, got -1"),
            ({"input": {"alice": "1", "bob": "10"}},
             "input.alice: alice input has 1 bits, split says 2"),
            ({"input": {"alice": "10", "bob": "101"}},
             "input.bob: bob input has 3 bits, split says 2"),
            ({"topology": "smp", "split": {"n1": 2, "forwarded": [1]}},
             "split.forwarded: forwarded variables have no receiver in the SMP topology"),
            ({"keys": {"files": []}}, "keys.files: need 1 key file, got 0"),
            ({"function": {"name": "CONJ", "n_a": 1, "n_b": 1}, "keys": {"files": []}},
             "keys.files: need 1 or 2 key files, got 0"),
            ({"keys": {"files": "keys.json"}}, "keys.files: files must be a JSON list"),
            ({"keys": {"files": [5]}}, "keys.files[0]: files[0] must be a file name, got 5"),
            ({"keys": {"files": ["keys.json", None]}},
             "keys.files[1]: files[1] must be a file name, got null"),
            ({"keys": {"file": ["keys.json"]}}, "keys.file: file must be a file name"),
            ({"function": {"name": "CONJ", "n_a": 0, "n_b": 2}},
             "function: both blocks need at least one variable"),
            ({"function": {"name": "PALINDROME", "n": 1}}, "function: PALINDROME needs n >= 2"),
            ({"function": {"name": "MOD", "n": 0, "m": 3}}, "function: MOD needs n >= 1"),
            ({"function": {"name": "MODBIN", "n": 0, "m": 3}}, "function: MODBIN needs n >= 1"),
            ({"function": {"name": "PERM", "n": 0}},
             "function: PERM needs matrix dimension n >= 1"),
        ],
    )
    def test_config_field_types(self, tmp_path, capsys, change, where):
        argv = ("run", "--config", write_config(tmp_path, dict(EQ2_EXACT, **change)))
        self.assert_exit_3(capsys, argv, where)

    @pytest.mark.parametrize(
        "change,files,where",
        [
            ({"split": {"n1": 2, "fowarded": [1]}}, {}, "split.fowarded"),
            ({"keys": {"search": {"log2_n": 10}, "seed": 7}}, {}, "keys.seed"),
            ({"keys": {"search": {"log2_n": 10, "sead": 7}}}, {}, "keys.search.sead"),
            ({"input": {"alice": "10", "bob": "10", "carol": "1"}}, {}, "input.carol"),
            ({"topolgy": "smp"}, {}, "topolgy"),
            ({"function": {"name": "EQ", "n": 2, "nn": 3}}, {}, "function.nn"),
            ({"function": {"name": "CONJ", "n_a": 2, "n_b": 2, "m_A": 5}}, {}, "function.m_A"),
            ({"function": {"poly": dict(EQ2_POLY, constnat="1")}}, {},
             "function.poly: bad polynomial: constnat"),
            ({"function": {"poly_file": "polys.json", "n": 2}}, {"polys.json": [EQ2_POLY]},
             "function.n"),
            ({"keys": {"file": "keys.json"}},
             {"keys.json": dict(KeySet(16, (1, 3, 5)).to_json(), delt=0.3)},
             "{tmp}/keys.json: bad key set: delt"),
            ({"keys": {"file": "keys.json"}},
             {"keys.json": {"N": "16", "keys": ["1"], "certification": {"max_bais": 0.1}}},
             "{tmp}/keys.json: bad key set: certification.max_bais"),
        ],
        ids=["split", "keys", "keys.search", "input", "top", "builtin", "CONJ", "poly",
             "poly_file", "key-file", "certification"],
    )
    def test_unknown_fields_are_refused(self, tmp_path, capsys, change, files, where):
        """A field its object does not read is refused, not dropped."""
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))
        argv = ("run", "--config", write_config(tmp_path, dict(EQ2_EXACT, **change)))
        where = where.format(tmp=tmp_path)
        self.assert_exit_3(capsys, argv, f"config error: {where}: unknown field; ")

    def test_search_with_log2_n_and_n(self, tmp_path, capsys):
        """Two key widths are refused; neither is silently dropped."""
        config = dict(EQ2_EXACT, keys={"search": {"log2_n": 4, "N": 1000}})
        argv = ("run", "--config", write_config(tmp_path, config))
        self.assert_exit_3(capsys, argv, "keys.search: give log2_n or N, not both")

    @pytest.mark.parametrize(
        "change,where",
        [
            ({"keys": {"file": "missing.json", "files": ["keys.json"]}},
             "keys: need exactly one key source"),
            ({"function": {"poly": EQ2_POLY, "poly_file": "missing.json"}},
             "function: give only one of poly, poly_file and name"),
            ({"function": {"name": "EQ", "n": 2, "poly_file": "polys.json"}},
             "function: give only one of poly, poly_file and name"),
            ({"function": {"name": "EQ", "n": 2, "poly": EQ2_POLY}},
             "function: give only one of poly, poly_file and name"),
        ],
        ids=["file+files", "poly+poly_file", "name+poly_file", "name+poly"],
    )
    def test_two_sources_for_one_field(self, tmp_path, capsys, change, where):
        """Two sources for the keys or the function are refused; neither is
        silently dropped, even when the one that would be read exists."""
        (tmp_path / "keys.json").write_text(json.dumps(KeySet(16, (1, 3, 5)).to_json()))
        (tmp_path / "polys.json").write_text(json.dumps([EQ2_POLY]))
        argv = ("run", "--config", write_config(tmp_path, dict(EQ2_EXACT, **change)))
        self.assert_exit_3(capsys, argv, where)

    def test_forwarded_as_a_string(self, tmp_path, capsys):
        config = dict(EQ2_EXACT, split={"n1": 2, "forwarded": "12"})
        argv = ("run", "--config", write_config(tmp_path, config))
        self.assert_exit_3(capsys, argv, "split.forwarded: forwarded must be a JSON list")


def _without_wall_clock(stdout: str) -> str:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    doc.pop("wall_clock_s", None)
    return json.dumps(doc)


def _in_process_and_fresh(argv: list[str]) -> tuple:
    """(exit code, stdout without the wall clock, stderr) of ``main(argv)``
    in this process, then of a fresh ``python -m qhc.cli`` process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    fresh = fresh_cli(*argv)
    return ((code, _without_wall_clock(out.getvalue()), err.getvalue()),
            (fresh.returncode, _without_wall_clock(fresh.stdout), fresh.stderr))


def test_interleaved_calls_match_fresh_processes(tmp_path):
    """main builds its parser once per process; no call may see another's
    flags.  Each call gives the exit code and output of a fresh process."""
    config = write_config(tmp_path, dict(EQ2_EXACT, mode="sampled", trials=1000, seed=13,
                                         input={"alice": "10", "bob": "11"}))
    out = tmp_path / "report.json"
    calls = [
        ["run", "--config", config, "--out", str(out)],
        ["run", "--config", config],
        ["verify", "--function", "EQ", "--n", "2"],
        ["search-keys", "--log2-n", "6", "--delta", "0.3", "--seed", "0"],
        ["run", "--config", config, "--no-such-flag"],
    ]
    seen = []
    for argv in calls:
        got, fresh = _in_process_and_fresh(argv)
        assert got == fresh
        seen.append(got)
    assert [c for c, _, _ in seen] == [0, 0, 0, 0, 3]
    assert seen[0][1].endswith(f"-> {out}\n") and out.is_file()
    assert json.loads(seen[1][1])["result"]  # the --out flag took effect, then lapsed


class TestKeySetCache:
    """A process keeps the key sets it has loaded, keyed on each file's
    whole text: an unchanged file is not parsed again, a rewritten one is."""

    def run_key_file(self, tmp_path, keys_doc: str | None = None) -> list[str]:
        if keys_doc is not None:
            (tmp_path / "keys.json").write_text(keys_doc)
        config = dict(EQ2_EXACT, keys={"file": "keys.json"})
        return ["run", "--config", write_config(tmp_path, config)]

    def test_unchanged_file_gives_the_same_key_set(self, tmp_path, capsys, monkeypatch):
        loaded = []
        resolve = qhc.cli._resolve_key_sets

        def recording_resolve(config):
            loaded.append(resolve(config))
            return loaded[-1]

        monkeypatch.setattr(qhc.cli, "_resolve_key_sets", recording_resolve)
        argv = self.run_key_file(tmp_path, json.dumps(KeySet(16, (1, 3, 5)).to_json()))
        assert run_cli(*argv) == 0 and run_cli(*argv) == 0
        assert loaded[0][0] is loaded[1][0]

    def test_rewritten_file_is_read_again(self, tmp_path):
        """Same path, same byte length, same modification time: only the
        content tells the two key sets apart."""
        def keys_doc(keys, max_bias):
            cert = {"mode": "monte-carlo", "max_bias": max_bias}
            return json.dumps({"N": "16", "keys": keys, "certification": cert})

        first, second = keys_doc(["1", "3", "5"], 0.5), keys_doc(["7", "9"], 0.25)
        second += " " * (len(first) - len(second))
        assert len(first) == len(second)
        argv = self.run_key_file(tmp_path)
        path = tmp_path / "keys.json"
        reports = []
        for doc in (first, second):
            path.write_text(doc)
            os.utime(path, ns=(10**18, 10**18))
            got, fresh = _in_process_and_fresh(argv)
            assert got == fresh and got[0] == 0
            reports.append(json.loads(got[1])["result"]["spec"]["key_sets"][0])
        assert [(r["d"], r["certification"]["max_bias"]) for r in reports] == [(3, 0.5), (2, 0.25)]

    def test_search_keys_then_run_match_fresh_processes(self, tmp_path):
        keys = str(tmp_path / "keys.json")
        argv = self.run_key_file(tmp_path)
        seen = []
        for seed in ("0", "1"):
            for call in (["search-keys", "--log2-n", "10", "--delta", "0.3", "--seed", seed,
                          "--out", keys], argv):
                got, fresh = _in_process_and_fresh(call)
                assert got == fresh and got[0] == 0
                seen.append(got)
        assert seen[1][1] != seen[3][1]  # the second search's keys reached the run

    @pytest.mark.parametrize("keys_doc", ['{"N": "16", "keys": "123"}', '{"N": "16", "keys": [1,'])
    def test_malformed_file_fails_alike_each_time(self, tmp_path, capsys, keys_doc):
        argv = self.run_key_file(tmp_path, keys_doc)
        errors = []
        for _ in range(2):
            assert run_cli(*argv) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith("config error: ")


    def test_evicted_file_is_parsed_again(self, tmp_path):
        """Nine distinct files through a cache of eight: the first is
        evicted and parsed anew, the last is still kept."""
        paths = []
        for i in range(qhc.cli._KEY_SET_CACHE_SIZE + 1):
            paths.append(tmp_path / f"keys{i}.json")
            paths[-1].write_text(json.dumps(KeySet(16, (1, 3, 5 + i)).to_json()))
        first = [qhc.cli._load_key_set(p) for p in paths]
        assert qhc.cli._load_key_set(paths[-1]) is first[-1]
        again = qhc.cli._load_key_set(paths[0])
        assert again is not first[0] and again == first[0]

    def test_crlf_rewrite_is_read_again(self, tmp_path):
        path = tmp_path / "keys.json"
        text = json.dumps(KeySet(16, (1, 3, 5)).to_json(), indent=2)
        path.write_bytes(text.encode())
        first = qhc.cli._load_key_set(path)
        path.write_bytes(text.replace("\n", "\r\n").encode())
        second = qhc.cli._load_key_set(path)
        assert second is not first and second == first
        assert qhc.cli._load_key_set(path) is second

    @pytest.mark.parametrize("replace", ["remove", "directory"])
    def test_unreadable_file_exits_3_after_a_load(self, tmp_path, capsys, replace):
        """A kept key set is never served for a file that cannot be read."""
        argv = self.run_key_file(tmp_path, json.dumps(KeySet(16, (1, 3, 5)).to_json()))
        assert run_cli(*argv) == 0
        path = tmp_path / "keys.json"
        path.unlink()
        if replace == "directory":
            path.mkdir()
        capsys.readouterr()
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: cannot read key file: ")
        assert str(path) in err.partition("cannot read key file: ")[2]


class TestBuiltinReuse:
    """A repeated builtin descriptor gives the instance built the first time;
    a bad one fails alike each time."""

    @staticmethod
    def instance(tmp_path, function: dict):
        doc = {"function": function, "keys": {"file": "keys.json"}}
        return parse_config(doc, tmp_path).instance

    def test_same_descriptor_shares_one_instance(self, tmp_path):
        first = self.instance(tmp_path, {"name": "EQ", "n": 16})
        assert self.instance(tmp_path, {"name": "eq", "n": 16}) is first
        assert self.instance(tmp_path, {"name": "EQ", "n": 3}) is not self.instance(
            tmp_path, {"name": "EQ", "n": 4}
        )
        conj = {"name": "CONJ", "n_a": 2, "n_b": 3}
        assert self.instance(tmp_path, conj) is self.instance(tmp_path, conj)

    def test_bad_descriptor_fails_alike_each_time(self, capsys):
        errors = []
        for _ in range(2):
            assert run_cli("verify", "--function", "MOD", "--n", "4", "--m", "1") == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "config error: function: MOD needs a modulus m >= 2\n"


class TestSpecReuse:
    """A process keeps the last specs it built; every run still reads its
    key files, and gives the output of a fresh process."""

    @staticmethod
    def write_keys(tmp_path, name: str, seed: int) -> None:
        ks = search_key_set(1 << 10, 0.3, seed=seed)
        (tmp_path / name).write_text(json.dumps(ks.to_json()))

    def test_mixed_runs_match_fresh_processes(self, tmp_path):
        self.write_keys(tmp_path, "a.json", 1)
        self.write_keys(tmp_path, "b.json", 2)
        eq = {"function": {"name": "EQ", "n": 3}, "input": {"alice": "101", "bob": "100"}}
        perm = {"function": {"name": "PERM", "n": 2}, "input": {"alice": "10", "bob": "01"}}
        sampled = {"mode": "sampled", "trials": 500, "seed": 9}

        def run(name, base, keys, **extra):
            doc = dict(base, keys={"file": keys}, **extra)
            return ["run", "--config", write_config(tmp_path, doc, name)]

        calls = [
            run("c0.json", eq, "a.json"),
            run("c1.json", perm, "b.json", topology="smp"),
            run("c2.json", eq, "b.json", **sampled),
            "rewrite b.json",
            run("c1.json", perm, "b.json", topology="smp"),
            run("c0.json", eq, "a.json"),
            run("c2.json", eq, "b.json", **sampled),
            run("c3.json", perm, "a.json"),
            run("c4.json", eq, "a.json", topology="smp"),
        ]
        hits = qhc.cli._spec.cache_info().hits
        seen = []
        for argv in calls:
            if argv == "rewrite b.json":
                self.write_keys(tmp_path, "b.json", 3)
                continue
            got, fresh = _in_process_and_fresh(argv)
            assert got == fresh and got[0] == 0
            seen.append(got)
        assert qhc.cli._spec.cache_info().hits > hits
        assert seen[1] != seen[3] and seen[2] != seen[5]  # the rewritten file reached the runs
        assert seen[0] == seen[4]

    def test_evicted_spec_is_built_again(self, tmp_path):
        """Seventeen distinct specs through a cache of sixteen: the first is
        evicted and built anew, equal to the first build; the last is kept."""
        configs = []
        for i in range(qhc.cli._spec.cache_info().maxsize + 1):
            (tmp_path / f"keys{i}.json").write_text(json.dumps(KeySet(64, (1, 3, 5 + i)).to_json()))
            doc = {"function": {"name": "EQ", "n": 2}, "keys": {"file": f"keys{i}.json"}}
            configs.append(parse_config(doc, tmp_path))
        first = [qhc.cli._build_spec(c) for c in configs]
        assert qhc.cli._build_spec(configs[-1]) is first[-1]
        again = qhc.cli._build_spec(configs[0])
        assert again is not first[0] and again == first[0]
        assert again.qubits() == first[0].qubits()

    def test_key_file_below_the_polynomial_modulus_after_a_kept_spec(self, tmp_path, capsys):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps(KeySet(64, (1, 3, 9)).to_json()))
        config = {"function": {"name": "EQ", "n": 5}, "keys": {"file": "keys.json"},
                  "input": {"alice": "10110", "bob": "10111"}}
        argv = ("run", "--config", write_config(tmp_path, config))
        assert run_cli(*argv) == 0 and run_cli(*argv) == 0
        keys.write_text(json.dumps(KeySet(16, (1, 3, 9)).to_json()))
        capsys.readouterr()
        assert run_cli(*argv) == 3
        assert capsys.readouterr().err == (f"config error: {keys}: key modulus 16 smaller than "
                                           "polynomial modulus 32: differences would wrap\n")


# ---------------------------------------------------------- JSON writer

_JSON_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, 0.1 + 0.2])
_JSON_INTS = st.integers() | st.integers(min_value=1 << 64) | st.integers(max_value=-(1 << 64))
_JSON_SCALARS = st.none() | st.booleans() | _JSON_INTS | _JSON_FLOATS | st.text()
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner) | st.lists(st.text()),
    max_leaves=40,
)


class TestJsonText:
    """The report and key-file writer gives json.dumps(doc, indent=2) byte
    for byte."""

    @settings(max_examples=120, deadline=None)
    @given(_JSON_DOCS)
    def test_equals_json_dumps(self, doc):
        assert qhc.cli._json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [{}, [], (), {"": [{}, [], ""]}, ["\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\"\\/"],
         {"\"q\"\n": [True, False, None, 1 << 64, -(1 << 70), 5e-324, -0.0, 1e308, 0.1 + 0.2]},
         [float("nan"), float("inf"), -float("inf")], (1, ("a", (2.5,)))],
    )
    def test_edge_documents(self, doc):
        assert qhc.cli._json_text(doc) == json.dumps(doc, indent=2)

    def test_numpy_float_is_written_as_a_float(self):
        doc = {"x": np.float64(0.1), "y": [np.float64(-0.0)]}
        assert qhc.cli._json_text(doc) == json.dumps(doc, indent=2)

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError):
            qhc.cli._json_text({"x": np.int64(1)})

    def test_search_keys_file(self, tmp_path):
        out = tmp_path / "keys.json"
        argv = ["search-keys", "--log2-n", "21", "--delta", "0.05", "--seed", "1"]
        assert run_cli(*argv, "--out", str(out)) == 0
        text = out.read_text()
        doc = json.loads(text)
        assert len(doc["keys"]) == 12200
        assert text == json.dumps(doc, indent=2) + "\n"

    def test_run_envelope(self, tmp_path, capsys):
        (tmp_path / "cl\u00e9s.json").write_text(json.dumps(KeySet(16, (1, 3, 5)).to_json()))
        config = write_config(tmp_path, dict(EQ2_EXACT, keys={"files": ["cl\u00e9s.json"]}))
        out = tmp_path / "report.json"
        assert run_cli("run", "--config", config, "--out", str(out)) == 0
        text = out.read_text()
        doc = json.loads(text)
        assert doc["result"]["fidelities"] and doc["config"]["keys"]["files"] == ["cl\u00e9s.json"]
        assert text == json.dumps(doc, indent=2) + "\n"


class TestForgedCertificate:
    """A key file's exact certificate is checked against every run: a false
    accept above (1+delta^2)/2 refutes it."""

    FORGED = {"N": "16", "keys": ["1"], "certification": {"mode": "exact"}, "delta": 0.3}

    def config(self, tmp_path) -> str:
        (tmp_path / "keys.json").write_text(json.dumps(self.FORGED))
        return write_config(tmp_path, dict(EQ2_EXACT, keys={"file": "keys.json"},
                                           input={"alice": "10", "bob": "00"}))

    def test_run_exits_1(self, tmp_path, capsys):
        assert run_cli("run", "--config", self.config(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("counterexample: accept probability 0.92")
        assert "0-input 10,00 exceeds the certified bound 0.545" in captured.err

    def test_profile_exits_1(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run_cli("profile", "--config", self.config(tmp_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("counterexample: ") and "0-input 01,10" in err
        assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("--version")
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("qhc ")


# ------------------------------------------------------------ type fuzzing

# One value of each JSON type; small, so a swap changes a field's type and
# never asks for a bigger computation.
JSON_SAMPLES = [None, True, False, 0, 1, -1, 2.5, 1.0, "", "1", "x", [], [1], ["1"], {}, {"a": 1}]


def json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return {int: "int", float: "float", str: "str", list: "list", dict: "dict"}.get(
        type(value), "null"
    )


def json_paths(value, path=()):
    """Every node of a JSON document, the root included, as a key path."""
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield from json_paths(child, path + (key,))


def swap_type(doc, path, data):
    """A copy of doc whose node at path holds a value of another JSON type."""
    old = doc
    for key in path:
        old = old[key]
    new = data.draw(st.sampled_from([v for v in JSON_SAMPLES if json_type(v) != json_type(old)]))
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


FUZZ_KEYS = KeySet(modulus=16, keys=tuple(range(16))).to_json()
FUZZ_CONFIG = {
    "function": {"name": "EQ", "n": 2},
    "split": {"n1": 2, "forwarded": []},
    "delta": 0.3,
    "keys": {"file": "keys.json"},
    "topology": "one-way",
    "mode": "sampled",
    "trials": 20,
    "seed": 4,
    "input": {"alice": "10", "bob": "11"},
}
FUZZ_VARIANTS = {
    "file": {},
    "search-log2_n": {"keys": {"search": {"log2_n": 4, "seed": 1}}},
    "search-N": {"keys": {"search": {"N": 16, "seed": 1}}},
    "poly": {"function": {"poly": builtin("EQ", 2).characteristic.polynomials[0].to_json()}},
}


def fuzz_docs(variant: str) -> dict:
    return {"config.json": dict(FUZZ_CONFIG, **FUZZ_VARIANTS[variant]), "keys.json": FUZZ_KEYS}


def run_fuzz(docs: dict) -> tuple[int, str]:
    """run_closed in a fresh directory, which hypothesis examples need."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_closed(Path(tmp), docs)


@pytest.mark.parametrize("variant", sorted(FUZZ_VARIANTS))
def test_fuzz_variants_run_unmutated(variant):
    """The fuzz below accepts exit 3, so a variant the reader refuses
    outright would pass it while fuzzing nothing past the refusal."""
    rc, message = run_fuzz(fuzz_docs(variant))
    assert rc == 0, message


@given(data=st.data(), variant=st.sampled_from(sorted(FUZZ_VARIANTS)))
@settings(max_examples=300, deadline=None)
def test_type_swapped_fields_exit_cleanly(data, variant):
    """Any JSON type in any field of a good config or key file ends in a
    contract exit code; 1 only for a counterexample or a failed search."""
    docs = fuzz_docs(variant)
    target = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(json_paths(docs[target]))))
    docs[target] = swap_type(docs[target], path, data)
    rc, message = run_fuzz(docs)
    assert rc in (0, 1, 2, 3), message
    if rc == 1:
        assert message.startswith(("counterexample:", "search failed:")), message
    assert "Traceback" not in message


# Good documents whose every object is read: a config, a key file with
# every certification field (an older file's trials and confidence among
# them) and a polynomial file; the builtin-search
# variant is a config alone, which reads a builtin and a key search.  Its
# run writes the report to report.json, given by run_closed's --out.
CLOSED_DOCS = {
    "config.json": {
        "function": {"poly_file": "poly.json"},
        "split": {"n1": 2, "forwarded": [1]},
        "delta": 0.3,
        "keys": {"file": "keys.json"},
        "topology": "one-way",
        "mode": "sampled",
        "input": {"alice": "10", "bob": "11"},
        "trials": 20,
        "seed": 4,
    },
    "keys.json": {"N": "16", "keys": ["1", "3", "5"], "delta": 0.3,
                  "certification": {"mode": "monte-carlo", "max_bias": 0.25,
                                    "trials": 2000, "confidence": 0.9}},
    "poly.json": [EQ2_POLY],
}
CLOSED_VARIANTS = ["files", "builtin-search"]


def closed_docs(variant: str) -> dict:
    docs = json.loads(json.dumps(CLOSED_DOCS))
    if variant == "builtin-search":
        return {"config.json": dict(
            docs["config.json"],
            function={"name": "CONJ", "n_a": 2, "n_b": 2, "m_a": 3, "m_b": 4},
            keys={"search": {"log2_n": 10, "seed": 1}},
        )}
    return docs


def json_path_text(path: tuple) -> str:
    """A key path as messages name it: "keys.search.seed", "coeffs[0]"."""
    text = ""
    for key in path:
        text += f"[{key}]" if type(key) is int else f".{key}" if text else key
    return text


def node(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def run_closed(tmp_path: Path, docs: dict) -> tuple[int, str]:
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run_cli("run", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "report.json"))
    return rc, err.getvalue()


@pytest.mark.parametrize("variant", CLOSED_VARIANTS)
def test_closed_documents_run(tmp_path, variant):
    assert run_closed(tmp_path, closed_docs(variant)) == (0, "")
    assert (tmp_path / "report.json").exists()


# Where a file's objects sit in its message: after the file and what it holds.
FILE_PREFIX = {"config.json": "", "keys.json": "{tmp}/keys.json: bad key set: ",
               "poly.json": "{tmp}/poly.json: bad polynomial: "}


@pytest.mark.parametrize("variant", CLOSED_VARIANTS)
def test_every_object_refuses_an_unknown_field(tmp_path, variant):
    """One field no object reads, added to each object of each document in
    turn, exits 3 naming its path; nothing is written."""
    objects = [(name, path) for name, doc in closed_docs(variant).items()
               for path in json_paths(doc) if isinstance(node(doc, path), dict)]
    assert len(objects) == (8 if variant == "files" else 6)
    for name, path in objects:
        docs = closed_docs(variant)
        node(docs[name], path)["typo"] = 1
        # A polynomial's path restarts at the file's list entry.
        where = json_path_text(path[1:] if name == "poly.json" else path)
        field = f"{where}.typo" if where else "typo"
        prefix = FILE_PREFIX[name].format(tmp=tmp_path)
        rc, err = run_closed(tmp_path, docs)
        assert (rc, err.partition("; ")[0]) == (3, f"config error: {prefix}{field}: unknown field")
        assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("variant", CLOSED_VARIANTS)
def test_every_path_refuses_nan_and_infinity(tmp_path, variant):
    """NaN or an infinity at any node of any document, the roots included,
    exits 3; nothing is written."""
    nodes = [(name, path) for name, doc in closed_docs(variant).items()
             for path in json_paths(doc)]
    for i, (name, path) in enumerate(nodes):
        docs = closed_docs(variant)
        value = (float("nan"), float("inf"), float("-inf"))[i % 3]
        if path:
            node(docs[name], path[:-1])[path[-1]] = value
        else:
            docs[name] = value
        rc, err = run_closed(tmp_path, docs)
        assert rc == 3 and err.startswith("config error: "), (name, path, err)
        assert not (tmp_path / "report.json").exists()


# ------------------------------------------------------------ extreme values


def nested(depth: int) -> str:
    """JSON text of ``depth`` nested lists."""
    return "[" * depth + "]" * depth


def config_text(**fields) -> str:
    return json.dumps(dict(EQ2_EXACT, **fields))


RUN = ("run", "--config", "{tmp}/config.json")
EXTREME_INPUTS = [
    *(pytest.param(("search-keys", "--log2-n", str(log2_n), "--delta", delta, "--seed", "0"),
                   {}, rc, prefix, id=f"delta-{delta}-N-2^{log2_n}")
      for delta in ("1e-160", "1e-200", "5e-324")
      for log2_n, rc, prefix in ((10, 0, f"certified: N=2^10 d=1024 delta={delta} max_bias=0.0"),
                                 (64, 2, "guard: "))),
    pytest.param(RUN, {"config.json": config_text(
        delta=1e-200, keys={"search": {"log2_n": 10}})},
        0, "", id="run-delta-1e-200"),
    pytest.param(RUN, {"config.json": config_text(keys={"file": "keys.json"}),
                       "keys.json": json.dumps({"N": str(2**1100), "keys": ["1"]})},
                 3, "config error: {tmp}/keys.json: bad key set: modulus must be below 2^1023",
                 id="key-file-N-2^1100"),
    pytest.param(RUN, {"config.json": config_text(keys={"search": {"N": 2**1100}})},
                 3, "config error: keys.search.N: N must be below 2^1023", id="search-N-2^1100"),
    pytest.param(RUN, {"config.json": nested(100_000)},
                 3, "config error: {tmp}/config.json: not readable JSON", id="config-depth-1e5"),
    pytest.param(RUN, {"config.json": config_text(keys={"file": "keys.json"}),
                       "keys.json": nested(100_000)},
                 3, "config error: {tmp}/keys.json: not readable JSON", id="key-file-depth-1e5"),
    pytest.param(("verify", "--function", "EQ", "--n", "2", "--poly", "{tmp}/poly.json"),
                 {"poly.json": nested(100_000)},
                 3, "config error: {tmp}/poly.json: not readable JSON", id="poly-file-depth-1e5"),
]


@pytest.mark.parametrize("argv,files,rc,prefix", EXTREME_INPUTS)
def test_extreme_values_exit_cleanly(tmp_path, capsys, argv, files, rc, prefix):
    """Same-type values at the far end of their range (a delta whose square
    underflows, a modulus with no float64, nesting past the parser's stack)
    end in their contract exit code.  At N = 2^10 such a delta asks for more
    keys than N, and the full ring that takes their place certifies."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run_cli(*(arg.format(tmp=tmp_path) for arg in argv)) == rc
    err = capsys.readouterr().err
    assert err.startswith(prefix.format(tmp=tmp_path)), err
    assert "Traceback" not in err


@pytest.mark.parametrize("fields,path", [
    ({"function": {"name": list(range(200_000)), "n": 2}}, "function.name"),
    ({"function": {"name": "X" * 200_000, "n": 2}}, "function.name"),
    ({"function": {"name": 10**4000, "n": 2}}, "function.name"),
    ({"topology": "X" * 200_000}, "topology"),
    ({"input": {"alice": "2" * 200_000, "bob": "10"}}, "input"),
], ids=["name-list", "name-string", "name-integer", "topology", "input-bits"])
def test_long_values_are_cut_in_messages(tmp_path, capsys, fields, path):
    """A message shows the first 80 characters of an offending value, then
    its JSON type and length; short values print whole."""
    assert run_cli("run", "--config", write_config(tmp_path, dict(EQ2_EXACT, **fields))) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and len(err.encode()) < 1024, err
    assert "characters)" in err and "Traceback" not in err
    short = dict(EQ2_EXACT, function={"name": [1], "n": 2})
    assert run_cli("run", "--config", write_config(tmp_path, short)) == 3
    assert capsys.readouterr().err.endswith("must be a JSON string, got [1]\n")



# ----------------------------------------------------------------- README


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    """README.md's CLI block runs in order, each command exiting 0, with its
    Config format JSON as experiment.json: one config serves run and
    profile, and the key set a search prints loads as a key file."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    config = re.search(r"### Config format\n.*?```json\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.json").write_text(config)
    commands = [shlex.split(line) for line in block.splitlines()
                if line and not line.startswith("#")]
    assert len(commands) == 5 and all(argv[0] == "qhc" for argv in commands)
    for argv in commands:
        argv, redirect = (argv[:-2], argv[-1]) if argv[-2] == ">" else (argv, None)
        rc = main(argv[1:])
        captured = capsys.readouterr()
        assert rc == 0, (argv, captured.err)
        if redirect:
            (tmp_path / redirect).write_text(captured.out)
    assert KeySet.from_json(json.loads((tmp_path / "keys.json").read_text())).certified
    assert (tmp_path / "profile.csv").is_file()


def test_parsed_config_is_frozen(tmp_path):
    """A parsed config is not changed after parsing: no flag overrides it."""
    config = parse_config(EQ2_EXACT, tmp_path)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 9


def test_readme_names_the_top_level_fields():
    """README.md's sentence "The top level reads …" lists, in order, the
    fields that a config's unknown top-level field is refused against."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"The top level reads (.*?), and nothing else", readme, re.S).group(1)
    with pytest.raises(ConfigError) as info:
        parse_config(dict(EQ2_EXACT, typo=1), Path("."))
    assert info.value.path == "typo"
    read = info.value.message.partition("; the top level reads ")[2]
    assert re.findall(r"`(\w+)`", sentence) == read.split(", ")
