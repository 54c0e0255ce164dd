"""Peak memory of the list commands, of c2 --tol 1e-7, of legendre --level 23 (one and two workers) and of classify from 2**22 up, each against the start-up floor of counts --level 5.

The floor loads counting, oracle, arith and numpy, but not progressions: each
command imports only the layers it calls, so the list commands pay for
progressions within their allowances, and classify from 2**22 up, which
imports no numpy, peaks below the floor.

Every command runs as a CLI in a fresh interpreter, and its peak RSS is the
ru_maxrss that wait4 reports.  On Linux a child's ru_maxrss starts at the RSS
of the process that forked it, so each command is forked by a small launcher
interpreter, never by the test process itself.
"""

import json
import subprocess
import sys

import pytest

from conftest import CHILD_ENV

# Forks argv with stdout to /dev/null and prints [exit code, ru_maxrss in kB].
LAUNCHER = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "child.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(f'[{child.returncode}, {usage.ru_maxrss}]')\n"
)

# The list commands, each of which once held its whole payload as Python ints
# (the cold and the warm constants run share one cache directory).  With their
# writers' batches bounded, twins' 4-byte ranks and remnants' one mask, each
# sits at most about 5.2 MB over the floor (remnants --level 61 --bound
# 1000000); twins and remnants sat 7.5-8.9 MB over it while twins held int64
# ranks and remnants three masks.
LIST_COMMANDS = [
    "constants --level 19 --cache-dir {cache}",
    "constants --level 19 --cache-dir {cache}",
    "remnants --level 61 --bound 1000000",
    "remnants --level 61 --bound 300000 --emit csv",
    "twins --limit 20000000",
    "nonranks --prime 101 --limit 1000000",
]
ALLOWED_MB = 6.5
# The list commands at their guards, with allowances of their own: about 39.4 and
# 22.2 MB over the floor, 69 and 43 MB while remnants held three masks beside its
# least parents and nonranks built its columns from whole-length temporaries.
GUARD_COMMANDS = {"remnants --level 61 --bound 10000000": 45, "nonranks --prime 5 --limit 2500000": 27}
# family writes its members' texts a bounded batch at a time, so it has an allowance of its own
# (about 3.2 MB over the floor).
FAMILY_COMMAND = "family --primes 5,7,11,13,17,19,23,29,31,37,41,43,47,53 --nested 53"
FAMILY_ALLOWED_MB = 8
# c2 --tol 1e-7 sums its two prime blocks in-process, each block's terms made in
# its primes' own buffer: about 3.4-3.6 MB over the floor, 4.9-5.1 MB while each
# block's float column sat beside its primes.
C2_COMMAND = "c2 --tol 1e-7"
C2_ALLOWED_MB = 4.3
# legendre --level 23 holds the 2.2 million primes above its level (18 MB) and the
# 985,501 squarefree terms over those up to sqrt(x), 9 bytes each, so it has an
# allowance of its own, with two workers too, which are handed their terms pickled:
# about 37.6 and 44.1 MB over the floor, 72 and 149 MB while every term was built.
LEGENDRE_COMMANDS = ["legendre --level 23", "legendre --level 23 --workers 2"]
LEGENDRE_ALLOWED_MB = 60
# classify from 2**22 up (both sides composite) imports no numpy: about 13.4 MB
# under the floor, which imports it.
CLASSIFY_COMMAND = "classify 96752406"
CLASSIFY_BELOW_MB = 8


def peak_mb(argv: list[str]) -> float:
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "twinsieve.cli", *argv],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    ).stdout
    code, kb = json.loads(out)
    assert code == 0, argv
    return kb / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss semantics are Linux's")
def test_list_commands_stay_near_the_start_up_floor(tmp_path):
    peak_mb(["counts", "--level", "5"])  # once first, so that a run which compiles the sources sets no floor
    floor = peak_mb(["counts", "--level", "5"])
    peaks = {}
    for i, command in enumerate(LIST_COMMANDS):
        argv = command.replace("{cache}", str(tmp_path / "cache")).split()
        peaks[f"{i}: {command}"] = round(peak_mb(argv) - floor, 1)
    assert (tmp_path / "cache" / "constants-19.txt").is_file()  # the second run read the cache
    assert max(peaks.values()) <= ALLOWED_MB, peaks
    guards = {command: round(peak_mb(command.split()) - floor, 1) for command in GUARD_COMMANDS}
    assert all(guards[command] <= allowed for command, allowed in GUARD_COMMANDS.items()), guards
    family = round(peak_mb(FAMILY_COMMAND.split()) - floor, 1)
    assert family <= FAMILY_ALLOWED_MB, family
    c2 = round(peak_mb(C2_COMMAND.split()) - floor, 1)
    assert c2 <= C2_ALLOWED_MB, c2
    legendre = {command: round(peak_mb(command.split()) - floor, 1) for command in LEGENDRE_COMMANDS}
    assert max(legendre.values()) <= LEGENDRE_ALLOWED_MB, legendre
    classify = round(peak_mb(CLASSIFY_COMMAND.split()) - floor, 1)
    assert classify <= -CLASSIFY_BELOW_MB, classify
