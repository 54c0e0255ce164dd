"""The benchmark's workloads: which twinsieve commands a pass runs, and how each output is checked.

A workload is a list of units; a unit is one or more commands that run in
order (the cold and the warm `constants` run share a fresh cache directory).
The seed shuffles the units in every pass and draws the `classify` inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

FAMILY_PRIMES = "5,7,11,13,17,19,23,29,31,37,41,43,47,53"

# Fixed commands; "{cache}" is replaced by a fresh directory for each pass.
FIXED = {
    "enumerate": [
        ["twins --limit 20000000"],
        ["remnants --level 61 --bound 1000000"],
        ["remnants --level 61 --bound 300000 --emit csv"],
        ["constants --level 19 --cache-dir {cache}", "constants --level 19 --cache-dir {cache}"],
        [f"family --primes {FAMILY_PRIMES} --nested 53"],
        ["nonranks --prime 101 --limit 1000000"],
    ],
    "count": [
        ["legendre --level 19"],
        ["legendre --level 17 --workers 2"],
        ["mainterm --level 13"],
        ["mainterm --level 17"],
        ["c2 --tol 1e-7"],
        ["counts --level 23"],
    ],
    "classify": [
        ["verify --limit 300000"],
        ["verify --limit 300000 --workers 2"],
    ],
}

# The same shape at sizes that finish in well under a second each.
SMOKE = {
    "enumerate": [
        ["twins --limit 20000"],
        ["remnants --level 13 --bound 5000"],
        ["remnants --level 13 --bound 3000 --emit csv"],
        ["constants --level 11 --cache-dir {cache}", "constants --level 11 --cache-dir {cache}"],
        ["family --primes 5,7,11 --nested 11"],
        ["nonranks --prime 101 --limit 5000"],
    ],
    "count": [
        ["legendre --level 11"],
        ["legendre --level 11 --workers 2"],
        ["c2 --tol 1e-5"],
        ["counts --level 23"],
    ],
    "classify": [
        ["verify --limit 3000"],
        ["verify --limit 3000 --workers 2"],
    ],
}

# classify inputs: one m near each anchor 10^k, drawn log-uniformly from
# [10^(k-0.02), 10^k] and then stepped down to the nearest m of the wanted
# kind.  Bands this narrow keep the cost of every pass the same for every seed:
# a composite side below 6*10^16 makes classify build a prime table up to its
# square root (about 1.2 GB at 10^16).  Its list of primes is built once per
# composite side, unless the square root is itself prime, so the large anchors
# ask for the usual case ("both"): two composite sides whose square roots are
# composite.  In the other cases peak RSS and time drop by about 40%, which
# would split the runs into two groups by seed.  A twin rank at 10^6 exercises
# the check of both prime sides.  The cap at 10^16 bounds memory on a small
# host; the growth stays visible in peak_rss_mb.
CLASSIFY_ANCHORS = [(6, "twin"), (8, "any"), (10, "any"), (12, "both"), (14, "both"), (16, "both")]
SMOKE_ANCHORS = [(6, "twin"), (8, "any"), (10, "both")]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic below 3.3e24


def is_prime(n: int) -> bool:
    """Miller-Rabin, independent of twinsieve's own primality code."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_candidate(m: int, kind: str) -> int:
    """m if it is of the wanted kind, else a smaller m to try next."""
    minus, plus = is_prime(6 * m - 1), is_prime(6 * m + 1)
    if kind == "twin":
        return m if minus and plus else m - 1
    if kind == "both":
        if minus or plus:
            return m - 1
        root = math.isqrt(6 * m - 1)
        if is_prime(root) or is_prime(math.isqrt(6 * m + 1)):
            return (root * root - 2) // 6  # below root^2, so the roots change
    return m


def draw_classify_inputs(rng: random.Random, anchors) -> list[int]:
    out = []
    for k, kind in anchors:
        m = int(10 ** (k - 0.02 * rng.random()))
        while (nxt := _next_candidate(m, kind)) != m:
            m = nxt
        out.append(m)
    return out


@dataclass(frozen=True)
class Command:
    """One CLI invocation; key names it in golden.json and in reports."""

    key: str
    args: tuple[str, ...]


def units(workload: str, seed: int, smoke: bool) -> list[list[str]]:
    """The workload's units as argument templates, before any shuffling."""
    out = [list(u) for u in (SMOKE if smoke else FIXED)[workload]]
    if workload == "classify":
        rng = random.Random(f"classify-inputs:{seed}")
        out += [[f"classify {m}"] for m in draw_classify_inputs(rng, SMOKE_ANCHORS if smoke else CLASSIFY_ANCHORS)]
    return out


def pass_commands(unit_list: list[list[str]], rng: random.Random, cache_dir: str) -> list[Command]:
    """One pass: units in a seeded order, cache placeholders filled in."""
    order = list(unit_list)
    rng.shuffle(order)
    return [
        Command(key=template, args=tuple(template.format(cache=cache_dir).split()))
        for unit in order
        for template in unit
    ]


# ---- output checks -------------------------------------------------------

OK, FAILED, WRONG = "ok", "failed", "wrong"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _nsix(p: int) -> int:
    return (p + 1) // 6 if p % 6 == 5 else (p - 1) // 6


def check_classification(m: int, results: dict) -> str | None:
    """None if the envelope's verdict and witness hold for m, else the reason."""
    if results.get("m") != str(m):
        return f"envelope is for m={results.get('m')}"
    minus, plus = 6 * m - 1, 6 * m + 1
    minus_prime, plus_prime = is_prime(minus), is_prime(plus)
    if results.get("verdict") == "twin_rank":
        return None if minus_prime and plus_prime else "twin_rank verdict with a composite side"
    if results.get("verdict") != "non_rank":
        return f"unknown verdict {results.get('verdict')!r}"
    if minus_prime and plus_prime:
        return "non_rank verdict for a twin rank"
    want_sides = [name for name, prime in (("minus", minus_prime), ("plus", plus_prime)) if not prime]
    if results.get("composite_sides") != want_sides:
        return f"composite_sides {results.get('composite_sides')} != {want_sides}"
    p, kappa = int(results["parent"]), int(results["witness_kappa"])
    if p < 5 or not is_prime(p):
        return f"parent {p} is not a prime >= 5"
    sign = {"+": 1, "-": -1}.get(results.get("witness_sign"))
    if sign is None or m != kappa * p + sign * _nsix(p):
        return f"witness m = {kappa}*{p} {results.get('witness_sign')} N({p}/6) does not hold"
    named = [minus if s == "minus" else plus for s in want_sides]
    if not any(side % p == 0 and side != p for side in named):
        return f"parent {p} divides no named side"
    if any(side % q == 0 for side in named for q in range(5, min(p, 2000), 2) if is_prime(q)):
        return f"a prime below the parent {p} divides a named side"
    return None


def check(cmd: Command, returncode: int, stdout: Path, stderr: Path) -> tuple[str, str]:
    """(status, detail) for one finished command; status is OK, FAILED or WRONG."""
    if b"Traceback (most recent call last)" in stderr.read_bytes()[-200_000:]:
        return FAILED, "traceback on stderr"
    if returncode != 0:
        return FAILED, f"exit code {returncode}"
    if cmd.args[0] == "classify":
        results = json.loads(stdout.read_text())["results"]
        reason = check_classification(int(cmd.args[1]), results)
        return (WRONG, reason) if reason else (OK, "")
    want = GOLDEN.get(cmd.key)
    if want is None:
        return WRONG, "no golden digest for this command"
    if sha256_file(stdout) != want:
        return WRONG, "stdout digest differs from golden.json"
    if cmd.args[0] == "verify":
        count = json.loads(stdout.read_text())["results"]["mismatch_count"]
        if count != "0":
            return WRONG, f"verify reports {count} mismatches"
    return OK, ""
