import contextlib
import hashlib
import importlib
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twinsieve import __version__
from twinsieve import arith, cli
from twinsieve.arith import primes_between
from twinsieve.cli import main
from twinsieve.oracle import twin_ranks_up_to
from twinsieve.progressions import remnants_below

from conftest import CHILD_ENV, cli_commands
from reference_lists import C5, C7, REMNANTS_61_BELOW_748


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def loads_strict(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which strict parsers reject."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return loads_strict(out)


class TestEnvelope:
    def test_classify_envelope(self, capsys):
        env = run_json(capsys, "classify", "28")
        assert env["command"] == "classify"
        assert env["engine_version"] == __version__
        assert env["results"]["verdict"] == "non_rank"
        assert env["results"]["parent"] == "13"
        assert env["results"]["m"] == "28"

    def test_integers_are_decimal_strings(self, capsys):
        env = run_json(capsys, "counts", "--level", "89")
        # The period at level 89 exceeds 2**53; a float round-trip would corrupt it.
        assert isinstance(env["results"]["L"], str)
        assert int(env["results"]["L"]) % 89 == 0

    def test_rationals_are_fraction_strings(self, capsys):
        env = run_json(capsys, "counts", "--level", "7")
        assert env["results"]["Q"] == "4/7"
        assert env["results"]["q"] == "6/35"

    def test_integers_of_any_size_are_exact(self, capsys):
        code, out, _ = run_cli(capsys, "counts", "--level", "10007")
        assert code == 0
        # L has 4,301 digits, past the interpreter's default int-to-str limit.
        assert loads_strict(out)["results"]["L"] == str(math.prod(primes_between(4, 10007)))
        # The envelope bytes, frozen before counts_row gained its level guard.
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "14d399059219e50acc15dea8e555d7d6dcc18065164913829877a963d39fd35d"
        )

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "legendre", "--level", "7")
        _, second, _ = run_cli(capsys, "legendre", "--level", "7")
        assert first == second


class TestCommands:
    def test_classify_top_of_domain(self, capsys):
        env = run_json(capsys, "classify", "3074457345618258602")
        assert env["results"]["parent"] == "11"

    def test_twins(self, capsys):
        env = run_json(capsys, "twins", "--limit", "18")
        assert env["results"]["ranks"] == ["1", "2", "3", "5", "7", "10", "12", "17", "18"]

    def test_nonranks(self, capsys):
        env = run_json(capsys, "nonranks", "--prime", "5", "--limit", "21")
        values = [t["value"] for t in env["results"]["terms"]]
        assert values == ["4", "6", "9", "11", "14", "16", "19", "21"]

    def test_constants(self, capsys):
        env = run_json(capsys, "constants", "--level", "5")
        assert env["results"]["constants"] == [str(c) for c in C5]
        assert env["results"]["modulus"] == "5"

    def test_remnants_level_61(self, capsys):
        env = run_json(capsys, "remnants", "--level", "61", "--bound", "748")
        assert env["results"]["remnants"] == [str(m) for m in REMNANTS_61_BELOW_748]
        assert env["results"]["intruders"] == []

    def test_family_with_nested(self, capsys):
        env = run_json(capsys, "family", "--primes", "5,11", "--nested", "5")
        members = {m["signs"]: m for m in env["results"]["members"]}
        assert members["--"]["residue"] == "9"
        assert members["--"]["nested"] == "5*(11*n + 2) - 1"

    def test_legendre(self, capsys):
        env = run_json(capsys, "legendre", "--level", "7")
        r = env["results"]
        assert (r["R0"], r["ie_sum"], r["estimate"]) == ("15", "-4", "11")
        assert (r["oracle_pi2"], r["oracle_window"]) == ("7", "14")

    def test_mainterm(self, capsys):
        env = run_json(capsys, "mainterm", "--level", "7")
        r = env["results"]
        assert r["R_M_sum"] == "1425/143"
        assert r["R_M_product"] == "215/13"
        assert r["R_E"] == "148/143"

    def test_c2(self, capsys):
        env = run_json(capsys, "c2", "--tol", "1e-6")
        assert abs(env["results"]["c2"] - 0.660162) < 1e-6
        assert abs(env["results"]["hardy_littlewood"] - 1.320320) < 1e-5

    def test_verify(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--limit", "1000")
        env = loads_strict(out)
        assert env["results"]["mismatch_count"] == "0"
        assert "verify:" in err  # throughput goes to stderr, not the envelope


class TestCsv:
    def test_counts_row_matches_json(self, capsys):
        code, out, _ = run_cli(capsys, "--emit", "csv", "counts", "--level", "7")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "level,L,G,q,S,Q,R,x_frac"
        assert row == "7,35,6,6/35,20,4/7,15,3/7"

    def test_list_payload_one_row_per_element(self, capsys):
        code, out, _ = run_cli(capsys, "--emit", "csv", "constants", "--level", "5")
        lines = out.strip().split("\n")
        assert lines[0] == "constant"
        assert lines[1:] == ["0", "2", "3"]

    def test_remnants_kinds(self, capsys):
        code, out, _ = run_cli(capsys, "--emit", "csv", "remnants", "--level", "7", "--bound", "35")
        lines = out.strip().split("\n")
        assert lines[0] == "value,kind,parent"
        assert "28,intruder,13" in lines
        assert "1,front_twin_rank," in lines

    SCALAR_COMMANDS = [
        ("classify", "20"),  # both sides composite: a list cell
        ("classify", "5"),  # twin rank: empty cells
        ("counts", "--level", "7"),
        ("legendre", "--level", "13", "--ceiling", "1000"),
        ("mainterm", "--level", "7"),
        ("c2", "--tol", "1e-5"),
        ("verify", "--limit", "300"),
    ]

    @pytest.mark.parametrize("argv", SCALAR_COMMANDS, ids=" ".join)
    def test_scalar_row_is_the_json_results(self, capsys, argv):
        results = run_json(capsys, *argv)["results"]
        results.pop("mismatches", None)
        code, out, _ = run_cli(capsys, "--emit", "csv", *argv)
        assert code == 0
        header, row = out.rstrip("\n").split("\n")
        cells = dict(zip(header.split(","), row.split(","), strict=True))
        assert sorted(cells) == sorted(results)
        for key, value in results.items():
            want = "" if value is None else " ".join(value) if isinstance(value, list) else str(value)
            assert cells[key] == want, key


class TestErrorsAndOutput:
    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "28", "--frobnicate"])
        assert exc.value.code == 2

    def test_computation_error_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "nonranks", "--prime", "4", "--limit", "10")
        assert code == 1
        assert out == ""
        assert "prime" in err

    def test_capacity_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "--ceiling", "100", "twins", "--limit", "1000")
        assert code == 1
        assert "ceiling" in err

    def test_global_flags_accepted_after_subcommand(self, tmp_path, capsys):
        target = tmp_path / "env.json"
        code, out, _ = run_cli(capsys, "classify", "5", "--out", str(target))
        assert code == 0 and out == ""
        assert loads_strict(target.read_text())["results"]["verdict"] == "twin_rank"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "env.json"
        code, out, _ = run_cli(capsys, "--out", str(target), "classify", "5")
        assert code == 0 and out == ""
        env = loads_strict(target.read_text())
        assert env["results"]["verdict"] == "twin_rank"

    @pytest.mark.parametrize("emit", ["json", "csv"])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, emit):
        # 20,000 records: more than one written batch.
        argv = ["--emit", emit, "nonranks", "--prime", "5", "--limit", "50000"]
        _, printed, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "env"))
        assert (code, out) == (0, "")
        assert (tmp_path / "env").read_bytes() == printed.encode()

    def test_out_file_beside_a_tmp_directory(self, tmp_path, capsys):
        target = tmp_path / "env.json"
        (tmp_path / "env.json.tmp").mkdir()
        code, out, _ = run_cli(capsys, "--out", str(target), "classify", "5")
        assert code == 0 and out == ""
        assert loads_strict(target.read_text())["results"]["verdict"] == "twin_rank"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["env.json", "env.json.tmp"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "env.json").mkdir()
        with pytest.raises(IsADirectoryError):
            cli._write_atomic(tmp_path / "env.json", ["{}\n"])
        assert [p.name for p in tmp_path.iterdir()] == ["env.json"]

    def test_out_into_missing_directory_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "env.json"
        code, out, err = run_cli(capsys, "--out", str(target), "classify", "5")
        assert code == 1 and out == ""
        assert err == f"twinsieve classify: [Errno 2] No such file or directory: {str(target)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_that_is_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "cache").write_text("")
        code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path / "cache"), "constants", "--level", "7")
        assert code == 1 and out == ""
        assert err.startswith("twinsieve constants: [Errno ") and err.count("\n") == 1

    def test_closed_stdout_pipe_exits_1(self):
        # The envelope outgrows the pipe buffer, so the write fails even if the
        # child starts writing before the read end is closed.
        with subprocess.Popen(
            [sys.executable, "-m", "twinsieve.cli", "twins", "--limit", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
        ) as proc:
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait() == 1
        assert err == "twinsieve twins: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_1(self, capsys, workers):
        code, out, err = run_cli(capsys, "--workers", workers, "family", "--primes", "5,7")
        assert (code, out) == (1, "")
        assert err == f"twinsieve family: --workers must be >= 1, got {workers}\n"

    def test_ceiling_above_the_sieve_guard_exits_1(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "twins", "--limit", "10000000000", "--ceiling", "100000000000")
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (1, "")
        assert err == "twinsieve twins: 6*10000000000+1 exceeds the oracle's sieve guard 10000000000\n"

    def test_remnants_above_guard_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "remnants", "--level", "61", "--bound", "10000001")
        assert (code, out) == (1, "")
        assert err == "twinsieve remnants: remnants bound 10000001 exceeds 10000000\n"

    def test_nonranks_above_guard_exits_1(self, capsys, monkeypatch):
        class NoArrays:  # every term column is built through the module's numpy
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} was reached above the guard")

        monkeypatch.setattr(importlib.import_module("twinsieve.progressions"), "np", NoArrays())
        code, out, err = run_cli(capsys, "nonranks", "--prime", "5", "--limit", "1000000000000")
        assert (code, out) == (1, "")
        assert err == "twinsieve nonranks: 399999999999 non-ranks of 5 up to 1000000000000 exceed 1000000\n"

    @pytest.mark.parametrize(
        "command,level,message",
        [("legendre", "29", "legendre_pi2 level 29 exceeds 23"), ("mainterm", "23", "main_term level 23 exceeds 19")],
        ids=["legendre", "mainterm"],
    )
    def test_level_above_size_guard_exits_1(self, capsys, monkeypatch, command, level, message):
        def generated(tail_primes, x):
            raise AssertionError("squarefree terms were generated above the guard")

        monkeypatch.setattr(importlib.import_module("twinsieve.counting"), "squarefree_terms", generated)
        code, out, err = run_cli(capsys, command, "--level", level)
        assert (code, out) == (1, "")
        assert err == f"twinsieve {command}: {message}\n"

    @pytest.mark.parametrize("command,message", [
        ("legendre", "legendre_pi2 level 999983 exceeds 23"),
        ("mainterm", "main_term level 999983 exceeds 19"),
        ("constants", "C_999983 holds more than 100000000 residues above level 23; "
                      "use remnants_below for interval queries"),
    ], ids=["legendre", "mainterm", "constants"])
    def test_level_above_command_guard_is_refused_before_it_is_built(self, capsys, monkeypatch, command, message):
        def built(p_j):
            raise AssertionError(f"level {p_j} was built above the command's guard")

        for module in ("counting", "progressions", "cli"):
            monkeypatch.setattr(importlib.import_module(f"twinsieve.{module}"), "counts_row", built)
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--level", "999983")
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (1, "")
        assert err == f"twinsieve {command}: {message}\n" and len(err.encode()) < 200

    @pytest.mark.parametrize("argv", [
        ["counts"], ["constants"], ["legendre"], ["mainterm"], ["remnants", "--bound", "10"],
    ], ids=lambda argv: argv[0])
    def test_level_above_level_guard_exits_1_before_sieving(self, capsys, monkeypatch, argv):
        def sieved(lo, hi):
            raise AssertionError("the level's primes were sieved above the guard")

        monkeypatch.setattr(importlib.import_module("twinsieve.counting"), "prime_array", sieved)
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, argv[0], "--level", "1000003", *argv[1:])
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (1, "")
        assert err == f"twinsieve {argv[0]}: sieve level 1000003 exceeds 1000000\n"

    @pytest.mark.parametrize("tol,cutoff", [("1e-11", 66666666673), ("1e-12", 666666666673)])
    def test_c2_tolerance_above_guard_exits_1(self, capsys, monkeypatch, tol, cutoff):
        def sieved(cutoff):
            raise AssertionError("c2 primes were sieved above the guard")

        monkeypatch.setattr(importlib.import_module("twinsieve.counting"), "odd_prime_blocks", sieved)
        code, out, err = run_cli(capsys, "c2", "--tol", tol)
        assert (code, out) == (1, "")
        assert err == f"twinsieve c2: tolerance {tol} needs primes up to {cutoff}, above 6666666673\n"

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "1e-13"])
    def test_c2_tolerance_outside_domain_exits_1(self, capsys, tol):
        code, out, err = run_cli(capsys, "c2", f"--tol={tol}")
        assert (code, out) == (1, "")
        assert err == f"twinsieve c2: tolerance must be finite and >= 1e-12, got {float(tol)}\n"

    def test_strict_parse_refuses_infinity(self):
        with pytest.raises(ValueError, match="Infinity is not RFC 8259 JSON"):
            loads_strict('{"tol": Infinity}')

    @pytest.mark.parametrize("nested", ["7", "4"])
    def test_family_nested_outside_the_family_exits_1(self, capsys, nested):
        code, out, err = run_cli(capsys, "family", "--primes", "5,11", "--nested", nested)
        assert (code, out) == (1, "")
        assert err == f"twinsieve family: {nested} is not one of the family primes\n"

    def test_out_of_memory_exits_1(self, capsys, monkeypatch):
        def exhausted(level):
            raise MemoryError

        monkeypatch.setattr(cli, "counts_row", exhausted)
        code, out, err = run_cli(capsys, "counts", "--level", "7")
        assert (code, out, err) == (1, "", "twinsieve counts: MemoryError\n")

    LIST, COUNT = "is not a constants list", "does not hold the 15 level-7 constants"

    @pytest.mark.parametrize("text,kind", [
        pytest.param(text, kind, id=name) for name, kind, text in [
            ("empty", COUNT, ""),
            ("header-only", COUNT, "# level=7 modulus=35\n"),
            ("too-few", COUNT, "# level=7 modulus=35\n1\n2\n"),
            ("other-level", COUNT, "# level=5 modulus=35\n" + "".join(f"{c}\n" for c in C7)),
            ("wrong-modulus", COUNT, "# level=7 modulus=36\n" + "".join(f"{c}\n" for c in C7)),
            ("descending", COUNT, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in reversed(C7))),
            ("out-of-range", COUNT, "# level=7 modulus=35\n" + "".join(f"{c + 35}\n" for c in C7)),
            ("not-an-integer", LIST, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in C7[:-1]) + "x\n"),
            ("repeated", COUNT, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in C7[:-1]) + f"{C7[-2]}\n"),
            ("int64-overflow", LIST, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in C7[:-1]) + f"{2**63}\n"),
            ("int64-underflow", LIST, "# level=7 modulus=35\n" + f"{-(2**63) - 1}\n" + "".join(f"{c}\n" for c in C7[1:])),
            ("not-admissible", COUNT, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in range(15))),
            ("struck-class", COUNT, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in C7[:-1]) + "34\n"),  # 34 % 5 == 5 - N(5/6)
            ("too-many", COUNT, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in C7) + "".join(f"{c}\n" for c in C7)),
            ("blank-line", LIST, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in C7[:5]) + "\n"
             + "".join(f"{c}\n" for c in C7[5:])),
            ("blank-last-line", LIST, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in C7) + "\n"),  # where one more is read
            ("whitespace-line", LIST, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in C7[:5]) + " \t\n"
             + "".join(f"{c}\n" for c in C7[5:])),
            ("comment-line", LIST, "# level=7 modulus=35\n# a comment\n" + "".join(f"{c}\n" for c in C7)),
            ("not-text", LIST, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in C7[:-1]) + "\x00\n"),
            ("float", LIST, "# level=7 modulus=35\n" + "".join(f"{c}\n" for c in C7[:-1]) + f"{C7[-1]}.0\n"),
        ]
    ])
    def test_invalid_cache_file_exits_1(self, tmp_path, capsys, text, kind):
        # A line that cannot be read as an int64 refuses the file as a whole; readable values that are not C_7 name the count.
        (tmp_path / "constants-7.txt").write_text(text)
        code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), "constants", "--level", "7")
        assert code == 1 and out == ""
        assert err == f"twinsieve constants: cache file {tmp_path / 'constants-7.txt'} {kind}\n"

    def test_cache_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        first = run_json(capsys, "--cache-dir", cache, "constants", "--level", "7")
        path = tmp_path / "cache" / "constants-7.txt"
        assert path.is_file()
        head = path.read_text().splitlines()[0]
        assert head == "# level=7 modulus=35"
        second = run_json(capsys, "--cache-dir", cache, "constants", "--level", "7")
        assert first["results"] == second["results"]


def reference_encode(obj):
    """The slow reference for the envelope writer: ints to decimal strings, Fractions to 'num/den', a copy of the rest."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (list, tuple)):
        return [reference_encode(v) for v in obj]
    if isinstance(obj, dict):
        return {k: reference_encode(v) for k, v in obj.items()}
    return obj


def reference_dumps(obj) -> str:
    return json.dumps(reference_encode(obj), sort_keys=True, indent=2, separators=(",", ": "))


@contextlib.contextmanager
def str_digits_unlimited():
    """Lift the int-to-str digit limit, as main does."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@contextlib.contextmanager
def written_in_batches_of(size):
    """Lift the int-to-str digit limit and write lists size elements at a time."""
    with str_digits_unlimited(), mock.patch.object(cli, "_BATCH", size):
        yield


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.builds(lambda digits, sign: sign * (10**digits + 7), st.integers(4300, 4400), st.sampled_from([1, -1]))
    | st.fractions()
    | st.floats()
    | st.sampled_from([-0.0, 1e-07, math.inf, -math.inf, math.nan])
    | st.text()
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(st.text(), kids),
    max_leaves=25,
)
RECORDS = st.lists(st.text(), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.tuples(st.just(tuple(keys)), st.lists(st.tuples(*[SCALARS] * len(keys)), max_size=8))
)


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(PAYLOADS, st.integers(1, 4))
    def test_bytes_equal_json_dumps_of_the_reference(self, payload, batch):
        with written_in_batches_of(batch):
            assert "".join(cli._json_pieces(payload)) == reference_dumps(payload)

    @settings(max_examples=100, deadline=None)
    @given(RECORDS, st.integers(1, 4))
    def test_records_write_as_their_objects(self, records, batch):
        keys, rows = records
        columns = [[row[i] for row in rows] for i in range(len(keys))]
        with written_in_batches_of(batch):
            written = "".join(cli._json_pieces({"records": cli._Records(keys, columns)}))
            assert written == reference_dumps({"records": [dict(zip(keys, row)) for row in rows]})

    def test_uniform_lists_longer_than_a_batch(self):
        payload = {"ints": list(range(-40_000, 40_000)), "strings": [str(i) for i in range(40_000)],
                   "mixed": [1, "two", None, [3.5], {"k": Fraction(1, 3)}] * 5_000}
        with written_in_batches_of(cli._BATCH):
            assert "".join(cli._json_pieces(payload)) == reference_dumps(payload)

    def test_csv_cells(self):
        assert [cli._cell(v) for v in (None, 12, -3, Fraction(-4, 6), 0.5, True, "a b", ("minus", "plus"))] == [
            "", "12", "-3", "-2/3", "0.5", "True", "a b", "minus plus"
        ]


INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1])
COLUMN_RECORD = np.dtype([("value", np.int64), ("parent", np.uint16), ("sign", "U1")])


def integers_of(dtype):
    """Integers that dtype holds, its extremes and those around zero drawn often."""
    info = np.iinfo(dtype)
    return st.integers(int(info.min), int(info.max)) | st.sampled_from(sorted({int(info.min), int(info.max), 0, 1, 9, 10}))


def reference_csv(header, rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


class TestColumnWriter:
    """numpy columns and record arrays write the bytes of their lists, in JSON and in CSV."""

    def check(self, records: np.ndarray, rows: list[tuple]):
        keys = records.dtype.names
        values = [row[0] for row in rows]
        column = records[keys[0]]
        for i, key in enumerate(keys[:2]):  # an integer column's slices become int64 arrays; any other column Python ints
            kept = records[key].dtype.kind in "iu"
            batches = list(cli._batches(records[key]))
            assert all(batch.dtype == np.int64 if kept else isinstance(batch, list) for batch in batches)
            cells = [v for batch in batches for v in (batch.tolist() if kept else batch)]
            assert cells == [row[i] for row in rows] and all(type(v) is int for v in cells)
        assert "".join(cli._json_pieces({"c": column})) == reference_dumps({"c": values})
        written = "".join(cli._json_pieces({"r": cli._Records(keys, [records[k] for k in keys])}))
        assert written == reference_dumps({"r": [dict(zip(keys, row)) for row in rows]})
        assert "".join(cli._csv_pieces(["v"], [column])) == reference_csv(["v"], [[v] for v in values])
        assert "".join(cli._csv_pieces(list(keys), [records[k] for k in keys])) == reference_csv(keys, rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(INT64, st.integers(0, 2**16 - 1), st.sampled_from("+-")), max_size=12), st.integers(1, 4))
    def test_bytes_equal_those_of_the_lists(self, rows, batch):
        with written_in_batches_of(batch):
            self.check(np.array(rows, dtype=COLUMN_RECORD), rows)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]).flatmap(
        lambda dtype: st.tuples(st.just(dtype), st.lists(integers_of(dtype), max_size=12))), st.integers(1, 4))
    def test_integer_columns_of_every_width_write_their_lists(self, column, batch):
        # columns that int64 holds are cast a batch at a time for _int64_text; uint64 stays on the .tolist() path
        dtype, values = column
        array = np.array(values, dtype=dtype)
        records = np.zeros(len(values), dtype=[("a", dtype), ("pad", np.int64)])  # a strided column, as a record's field
        records["a"] = array
        with written_in_batches_of(batch):
            assert "".join(cli._json_pieces({"c": array})) == reference_dumps({"c": values})
            written = "".join(cli._json_pieces({"r": cli._Records(("a",), [records["a"]])}))
            assert written == reference_dumps({"r": [{"a": v} for v in values]})
            assert "".join(cli._csv_pieces(["v"], [array])) == reference_csv(["v"], [[v] for v in values])
            assert "".join(cli._csv_pieces(["a"], [records["a"]])) == reference_csv(["a"], [[v] for v in values])

    def test_empty(self):
        self.check(np.empty(0, dtype=COLUMN_RECORD), [])
        assert "".join(cli._json_pieces(np.empty(0, dtype=np.int64))) == "[]"

    def test_longer_than_a_batch_with_the_int64_extremes(self):
        size = 3 * cli._BATCH + 5
        rng = random.Random(17)
        values = [-(2**63), 2**63 - 1] + [rng.randrange(-(2**63), 2**63) for _ in range(size - 4)] + [2**63 - 1, -(2**63)]
        rows = [(v, i % 2**16, "+-"[i % 2]) for i, v in enumerate(values)]
        self.check(np.array(rows, dtype=COLUMN_RECORD), rows)

    def test_object_column_of_python_ints(self):
        # nonranks_of's value column when a value reaches 2**63
        rows = [(2**63 + 3 * i, i, "+-"[i % 2]) for i in range(cli._BATCH + 3)]
        dtype = np.dtype([("value", object), ("n", np.int64), ("sign", "U1")])
        records = np.empty(len(rows), dtype=dtype)
        records["value"] = np.array([r[0] for r in rows], dtype=object)
        records["n"], records["sign"] = [r[1] for r in rows], [r[2] for r in rows]
        self.check(records, rows)

    @pytest.mark.parametrize("width", [1, 100, cli._TEXT // 3, cli._TEXT, 2 * cli._TEXT])
    def test_made_columns_cut_batches_by_their_width(self, width):
        # A made column is made one batch at a time, each of at most _TEXT // width rows (and at least one).
        size = max(1, min(cli._BATCH, cli._TEXT // width))
        source = np.arange(3 * size + 5, dtype=np.int64)
        sizes = []

        def make(piece):
            sizes.append(len(piece))
            return [f"v{v}" for v in piece.tolist()]

        rows = [(f"v{v}", v) for v in source.tolist()]
        records = cli._Records(("a", "b"), [cli._Made(source, make, width), source])
        assert "".join(cli._json_pieces({"r": records})) == reference_dumps({"r": [{"a": a, "b": b} for a, b in rows]})
        assert "".join(cli._csv_pieces(["a", "b"], records.columns)) == reference_csv(["a", "b"], rows)
        assert sum(sizes) == 2 * len(source) and max(sizes) == size


INT64_EDGES = [0, 9, 10, 99, 100, 10**18 - 1, 10**18, 2**63 - 1, -(2**63 - 1), -(2**63), -1, -10, -100]


class TestInt64Text:
    """A 1-D int64 array's JSON text is made in numpy, with the bytes of the '"%d"' map over its list."""

    @staticmethod
    def reference(values, sep, quote='"'):
        return sep.join(f"{quote}{v}{quote}" for v in values)

    @pytest.mark.parametrize("sep", [",\n", ",\n      ", "\n"])
    def test_decimal_edges(self, sep):
        for values in (INT64_EDGES, INT64_EDGES[:7], INT64_EDGES[7:], [0], [-(2**63)], [99, 100], [-5, 5]):
            array = np.array(values, dtype=np.int64)
            assert cli._int64_text(array, sep) == self.reference(values, sep)
            assert cli._int64_text(array, sep, quote="") == self.reference(values, sep, quote="")

    def test_empty(self):
        assert cli._int64_text(np.empty(0, dtype=np.int64), ",\n  ") == ""
        assert "".join(cli._json_pieces({"a": np.empty(0, dtype=np.int64)})) == '{\n  "a": []\n}'

    @settings(max_examples=100, deadline=None)
    @given(st.lists(INT64, max_size=40), st.text(",\n ", max_size=8), st.sampled_from(['"', ""]))
    def test_drawn_values(self, values, sep, quote):
        assert cli._int64_text(np.array(values, dtype=np.int64), sep, quote) == self.reference(values, sep, quote)

    # several batches each, the last one a value short of full, full, or of one value
    @pytest.mark.parametrize("size", [4 * cli._BATCH - 1, 4 * cli._BATCH, 4 * cli._BATCH + 1, 8 * cli._BATCH + 1])
    def test_lists_around_a_batch(self, size):
        rng = np.random.default_rng(size)
        for values in (np.arange(size, dtype=np.int64) * 7919 - 10**6,  # ascending, across digit counts and zero
                       rng.integers(-(2**63), 2**63, size, dtype=np.int64)):
            payload = {"c": values}
            assert "".join(cli._json_pieces(payload)) == reference_dumps({"c": values.tolist()})

    def test_nested_indents(self):
        ranks = np.array(INT64_EDGES, dtype=np.int64)
        payload = {"a": ranks, "b": {"c": ranks[::-1], "d": {"e": ranks[:3], "f": ranks[:0]}}, "z": ranks[5:6]}
        expect = {"a": ranks.tolist(), "b": {"c": ranks[::-1].tolist(), "d": {"e": ranks[:3].tolist(), "f": []}},
                  "z": ranks[5:6].tolist()}
        with written_in_batches_of(4):
            assert "".join(cli._json_pieces(payload)) == reference_dumps(expect)

    @pytest.mark.parametrize("limit", [0, 18, 747, 100_000])
    def test_twins_envelope_and_csv_are_the_oracle_list(self, capsys, limit):
        ranks = twin_ranks_up_to(limit).ranks.tolist()
        code, out, _ = run_cli(capsys, "twins", "--limit", str(limit))
        assert code == 0
        assert out == reference_dumps({
            "command": "twins", "engine_version": __version__,
            "parameters": {"ceiling": 10**9, "limit": limit, "workers": 1},
            "results": {"count": len(ranks), "limit": limit, "ranks": ranks},
        }) + "\n"
        code, out, _ = run_cli(capsys, "twins", "--limit", str(limit), "--emit", "csv")
        assert code == 0
        assert out == reference_csv(["rank"], [[m] for m in ranks])

    @pytest.mark.parametrize("limit", [0, 1, 2] + [k * arith.TWIN_BLOCK + d for k in (1, 2) for d in (-1, 0, 1)])
    def test_twins_bytes_equal_the_writer_fed_the_int64_ranks(self, capsys, limit):
        # twins holds its ranks as uint32; the bytes are those of arith.twin_ranks' int64 array
        ranks = arith.twin_ranks(limit)
        envelope = {"command": "twins", "parameters": {"ceiling": 10**9, "limit": limit, "workers": 1},
                    "results": {"limit": limit, "ranks": ranks, "count": len(ranks)}, "engine_version": __version__}
        assert run_cli(capsys, "twins", "--limit", str(limit)) == (0, "".join(cli._json_pieces(envelope)) + "\n", "")
        csv = "".join(cli._csv_pieces(["rank"], [ranks]))
        assert run_cli(capsys, "twins", "--limit", str(limit), "--emit", "csv") == (0, csv, "")

    def test_twins_refusals_are_the_oracle_lines(self, capsys):
        for argv, line in [
            (("--ceiling", "100", "twins", "--limit", "1000"), "6*1000+1 exceeds the sieve ceiling 100"),
            (("twins", "--limit", "10000000000", "--ceiling", "100000000000"),
             "6*10000000000+1 exceeds the oracle's sieve guard 10000000000"),
        ]:
            assert run_cli(capsys, *argv) == (1, "", f"twinsieve twins: {line}\n")


# Columns of one kind each, so that some batches are all ints or all strings and take the column path;
# an int64 column is passed as a 1-D int64 array.
INT64_EDGES = [0, 2**63 - 1, -(2**63 - 1), -(2**63)]
CSV_COLUMNS = {
    "int": st.integers() | st.integers(2**64, 2**80) | st.builds(lambda d: -(10**d) - 7, st.integers(600, 700)),
    "int64": st.sampled_from(INT64_EDGES) | st.integers(-(2**63), 2**63 - 1) | st.integers(-9, 9),
    "str": st.text(),
    "bool": st.booleans(),
    "mixed": st.none() | st.booleans() | st.integers(2**64 - 2, 2**64 + 2) | st.fractions() | st.text()
    | st.lists(st.integers() | st.fractions(), max_size=3) | st.floats(),
}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(CSV_COLUMNS)), min_size=1, max_size=4).flatmap(
        lambda kinds: st.tuples(st.just(kinds), st.lists(st.tuples(*(CSV_COLUMNS[k] for k in kinds)), max_size=10))
    ),
    st.integers(1, 4),
)
@example((["int64"], [(v,) for v in INT64_EDGES]), 3)
@example((["int64", "str"], [(v, "x") for v in INT64_EDGES]), 4)
def test_csv_columns_equal_the_cell_by_cell_reference(table, batch):
    kinds, rows = table
    header = [f"c{i}" for i in range(len(kinds))]
    reference = "".join(",".join(map(cli._cell, row)) + "\n" for row in [header, *rows])
    columns = [[row[i] for row in rows] for i in range(len(kinds))]
    columns = [np.array(c, dtype=np.int64) if k == "int64" else c for k, c in zip(kinds, columns)]
    with written_in_batches_of(batch):
        assert "".join(cli._csv_pieces(header, columns)) == reference


def dict_remnant_rows(rep) -> list[list]:
    """remnants' CSV rows as they were made before the columns: parents from a dict of the intruders."""
    parent = dict(rep.intruders.tolist())
    return [[v, "front_twin_rank" if v < rep.front_bound else ("intruder" if v in parent else "twin_rank"), parent.get(v)]
            for v in rep.remnants.tolist()]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(primes_between(5, 200)), st.integers(1, 40_000), st.integers(1, 64))
def test_remnant_rows_equal_the_dict_rows(level, bound, batch):
    rep = remnants_below(level, bound)
    with mock.patch.object(cli, "_BATCH", batch):
        batches = zip(*map(cli._batches, cli._remnant_columns(rep)))
        assert [list(row) for columns in batches for row in zip(*columns)] == dict_remnant_rows(rep)


class TestNonRanksBeyondInt64:
    # Digests of stdout before the terms became records; the values pass 2**63.
    @pytest.mark.parametrize("argv,digest", [
        ("nonranks --prime 4611686018427387847 --limit 18446744073709551616",
         "2858ca92306ea85e97a54bb80fe2add456998fa135a72d616e8456f7c1336210"),
        ("nonranks --prime 4611686018427387847 --limit 18446744073709551616 --emit csv",
         "8f18202f9a7370a1553481fff2c1df8ee2e548fa1f37aa50df9f7e8a6f530c2d"),
        ("nonranks --prime 100000000000031 --limit 9300000000000000000",
         "c911b9fc28f50647e4c0e177a0a7c9a53bb4f811c90b913c213198ee951921ed"),
    ], ids=["json", "csv", "json-longer-than-a-batch"])
    def test_same_bytes(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_values_are_exact(self, capsys):
        terms = run_json(capsys, "nonranks", "--prime", "4611686018427387847", "--limit", str(2**64))["results"]["terms"]
        assert terms[-1] == {"value": "17678129737304986747", "n": "4", "sign": "-"}


class TestFamilyBytes:
    # Digests of stdout before the members became sign-bit records; the last two families hold Python ints.
    @pytest.mark.parametrize("argv,digest", [
        ("family --primes 5,7,11,13,17,19,23,29,31,37,41,43,47,53 --nested 53 --emit csv",
         "95d05af1b398b7f33604f7bd29609cc14147090966dd05d39869f68da9198d06"),
        ("family --primes 5,7,11,13,17,19,23,29,31,37,41,43,47,53",
         "0636255732f2b176175531d86168b78055bc7a3bf8eab3dfe318f1803b87e29b"),
        ("family --primes 5,7,11,13,17,19,23,29,31,37,41,43,47,53 --emit csv",
         "f156d2887c76e75daa79a462dbccb67efbbea6a8eab9f773c9629eb1d8cadbcd"),
        ("family --primes 18446744073709551557,5,7,11 --nested 5",
         "373ff2d19e8f543b40b720939f335b4e022f786dcd1d5a42b06623dcc57012c5"),
        ("family --primes 4294967291,4294967279,2147483647,5 --nested 5 --emit csv",
         "2f5995a81a6ad27b868918e5515f480ae2b9cdb40a49b8f3728c20b552b009ea"),
    ], ids=["nested-csv", "json", "csv", "object-json", "object-csv"])
    def test_same_bytes(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDecimalString:
    @settings(max_examples=40, deadline=None)
    @given(bits=st.integers(0, 332_193), seed=st.integers(0, 2**32), sign=st.sampled_from([1, -1]))  # up to 10^5 digits
    @example(bits=0, seed=0, sign=-1)
    @example(bits=cli._DIRECT_BITS + 1, seed=1, sign=-1)
    def test_equals_str(self, bits, seed, sign):
        n = sign * random.Random(seed).getrandbits(bits)
        with str_digits_unlimited():
            want = str(n)
        assert cli._decimal_string(n) == want

    @pytest.mark.parametrize("digits", [617, 618, 4301, 100_000])
    def test_powers_of_ten_and_their_neighbours(self, digits):
        # Each carries or drops a digit at the boundary: 10^k - 1 is all nines, 10^k one and zeros.
        for n in (10**digits - 1, 10**digits, -(10**digits), 2 ** (3 * digits)):
            with str_digits_unlimited():
                want = str(n)
            assert cli._decimal_string(n) == want


GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
GOLDEN_COMMANDS = [
    ["mainterm --level 13"],
    ["mainterm --level 17"],
    ["legendre --level 19"],
    ["legendre --level 17 --workers 2"],
    ["constants --level 19 --cache-dir {cache}"] * 2,  # cold, then warm from the cache
    ["remnants --level 61 --bound 300000 --emit csv"],
    ["family --primes 5,7,11,13,17,19,23,29,31,37,41,43,47,53 --nested 53"],
    ["c2 --tol 1e-7"],
    ["counts --level 23"],
]


def test_every_traced_name_exists(monkeypatch):
    # perfbench/traced.py wraps these names at run time; a renamed or deleted one
    # would otherwise surface only as a traceback inside a benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    traced = importlib.import_module("traced")
    missing = [
        f"twinsieve.{module}.{attr}"
        for module, attr in traced.SPANS
        if not hasattr(importlib.import_module(f"twinsieve.{module}"), attr)
    ]
    assert missing == []


def test_the_readme_cli_block_names_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert {line.split()[1] for line in block.splitlines() if line.startswith("twinsieve ")} == cli_commands()


@pytest.mark.parametrize("commands", GOLDEN_COMMANDS, ids=[c[0] for c in GOLDEN_COMMANDS])
def test_stdout_matches_benchmark_digest(tmp_path, capsys, commands):
    for command in commands:
        argv = command.replace("{cache}", str(tmp_path / "cache")).split()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command], command
