"""What a command loads, and what it prints when it starts in a fresh interpreter.

The package and the CLI import their array layers (arith's sieve, counting,
oracle, progressions and numpy) only when a command first calls into them.
In-process tests share whatever an earlier test loaded, so a name that a
command forgets to bind shows only in a fresh process: each command here runs
in a new interpreter and must print the bytes that in-process main prints.
"""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import twinsieve
from twinsieve import cli
from twinsieve.arith import primes_between
from twinsieve.cli import main
from twinsieve.primality import LEAST_CAP, TRIAL_BOUND, _small_primes

from conftest import cli_commands

SRC = Path(__file__).resolve().parents[1] / "src"
ENTRY = "import sys; from twinsieve.cli import main; sys.exit(main())"  # as the console script runs it


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """The CLI with argv in a new interpreter, stdout and stderr as bytes."""
    return subprocess.run([sys.executable, "-c", ENTRY, *argv], capture_output=True, env={"PYTHONPATH": str(SRC)})


def loaded(code: str) -> list[set[str]]:
    """Run code in a new interpreter; for each line `probe()` it holds, the numpy and twinsieve modules loaded there."""
    probe = (
        "import sys\n"
        "def probe():\n"
        "    names = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('twinsieve'))\n"
        "    print('loaded:', *names, file=sys.stderr)\n"
    )
    child = subprocess.run([sys.executable, "-c", probe + code], capture_output=True, text=True,
                           env={"PYTHONPATH": str(SRC)}, check=True)
    return [set(line.split()[1:]) for line in child.stderr.splitlines() if line.startswith("loaded:")]


ABOVE_CAP_M = 96752406  # both sides composite, from 2**22 up: the scalar path
assert ABOVE_CAP_M >= LEAST_CAP

FRESH_COMMANDS = [
    "classify 28",
    f"classify {ABOVE_CAP_M}",
    f"classify {LEAST_CAP + 3}",  # one prime side above the cap
    "classify 4194355",  # the first twin rank above the cap
    "twins --limit 20000",
    "twins --limit 3000 --emit csv",
    "nonranks --prime 101 --limit 5000",
    "constants --level 11",
    "remnants --level 13 --bound 5000",
    "remnants --level 13 --bound 3000 --emit csv",
    "family --primes 5,7,11 --nested 11",
    "counts --level 23",
    "counts --level 11 --emit csv",
    "legendre --level 11 --workers 2",
    "mainterm --level 7",
    "c2 --tol 1e-5",
    "verify --limit 3000",
]


def test_every_command_runs_in_a_fresh_process():
    assert {command.split()[0] for command in FRESH_COMMANDS} == cli_commands()


@pytest.mark.parametrize("command", FRESH_COMMANDS)
def test_a_fresh_process_prints_the_in_process_bytes(capsys, command):
    child = fresh(*command.split())
    assert child.returncode == 0, child.stderr.decode()
    assert main(command.split()) == 0
    assert child.stdout == capsys.readouterr().out.encode()


def test_cold_and_warm_constants_in_fresh_processes(tmp_path, capsys):
    for run in ("cold", "warm"):
        child = fresh("constants", "--level", "11", "--cache-dir", str(tmp_path / "fresh"))
        assert child.returncode == 0, (run, child.stderr.decode())
        assert main(["constants", "--level", "11", "--cache-dir", str(tmp_path / "here")]) == 0
        assert child.stdout == capsys.readouterr().out.encode(), run
    assert (tmp_path / "fresh" / "constants-11.txt").read_bytes() == (tmp_path / "here" / "constants-11.txt").read_bytes()


def test_out_in_a_fresh_process(tmp_path, capsys):
    child = fresh("--out", str(tmp_path / "fresh.json"), "remnants", "--level", "7", "--bound", "2000")
    assert (child.returncode, child.stdout) == (0, b"")
    assert main(["--out", str(tmp_path / "here.json"), "remnants", "--level", "7", "--bound", "2000"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "here.json").read_bytes()


def test_package_cli_and_classify_above_the_cap_load_no_numpy():
    after_package, after_cli, after_classify = loaded(
        "import twinsieve\nprobe()\n"
        "import twinsieve.cli\nprobe()\n"
        f"twinsieve.cli.main(['classify', '{ABOVE_CAP_M}'])\nprobe()\n"
    )
    assert after_package == {"twinsieve", "twinsieve.classify", "twinsieve.errors", "twinsieve.primality"}
    assert after_cli == after_package | {"twinsieve.cli"}
    assert after_classify == after_cli


# Modules a command must not load: each binds only its own layers.
NOT_LOADED = {
    "verify --limit 300": {"twinsieve.counting", "twinsieve.progressions"},
    "twins --limit 300": {"twinsieve.counting", "twinsieve.progressions"},
    "counts --level 11": {"twinsieve.progressions"},
    "c2 --tol 1e-3": {"twinsieve.progressions"},
    "classify 28": {"twinsieve.oracle", "twinsieve.counting", "twinsieve.progressions"},
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_each_command_loads_only_its_own_layers(command):
    (modules,) = loaded(f"from twinsieve.cli import main\nmain({command.split()!r})\nprobe()\n")
    assert not modules & NOT_LOADED[command], modules


def test_the_trial_table_is_the_engine_primes_below_the_bound():
    assert list(_small_primes()) == primes_between(1, TRIAL_BOUND)
    assert len(_small_primes()) == 6542


# Every name the package exported while its __init__ imported them all.
EXPORTED_BEFORE = {
    "is_prime", "nearest_int", "next_prime", "nsix", "primes_between", "smallest_prime_factor", "twin_ranks",
    "Classification", "classify", "nonranks_of", "rank_from_prime", "twin_index",
    "CountsRow", "LegendreReport", "MainTermReport", "asymptote_coefficient", "asymptotic_density", "counts_row",
    "hardy_littlewood_constant", "legendre_pi2", "m_bound", "main_term", "twin_prime_constant",
    "CapacityError", "DomainError",
    "TwinRankStream", "VerifyReport", "pi2_exact", "twin_ranks_up_to", "verify_classify",
    "ProgressionFamily", "RemnantReport", "ResidueSet", "boundary_twin_ranks", "crt_family", "gap_pattern",
    "inductive_step", "nested_form", "remnants_below", "residue_set",
}


class TestPackageApi:
    def test_all_holds_every_name_exported_before(self):
        assert EXPORTED_BEFORE <= set(twinsieve.__all__)
        assert len(twinsieve.__all__) == len(set(twinsieve.__all__))
        assert set(twinsieve.__all__) <= set(dir(twinsieve))

    @pytest.mark.parametrize("name", sorted(EXPORTED_BEFORE))
    def test_each_name_is_its_defining_modules_object(self, name):
        value = getattr(twinsieve, name)
        assert getattr(importlib.import_module(value.__module__), name) is value

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            twinsieve.no_such_name

    def test_from_import_gives_the_function_after_the_submodule_import(self):
        importlib.import_module("twinsieve.classify")
        from twinsieve import classify

        assert inspect.isfunction(classify) and classify.__module__ == "twinsieve.classify"
        (after,) = loaded("import importlib\nimportlib.import_module('twinsieve.classify')\n"
                          "from twinsieve import classify\nassert callable(classify), classify\nprobe()\n")
        assert "numpy" not in after

    def test_submodules_still_import_by_name(self):
        from twinsieve import arith, counting

        assert arith.__name__ == "twinsieve.arith" and counting.__name__ == "twinsieve.counting"

    def test_cli_resolves_every_layer_name_from_its_module(self):
        for name, module in twinsieve._LAZY.items():
            assert getattr(cli, name) is getattr(importlib.import_module(f"twinsieve.{module}"), name), name
        with pytest.raises(AttributeError):
            cli.no_such_name
