import argparse
import math
import sys
from pathlib import Path

import numpy as np

from twinsieve.cli import build_parser

sys.path.insert(0, str(Path(__file__).parent))


def cli_commands() -> set[str]:
    """The subcommands of the CLI's parser."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


def simple_sieve(limit: int) -> list[bool]:
    """Independent reference sieve; deliberately shares no code with the package."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            step = len(range(i * i, limit + 1, i))
            flags[i * i :: i] = [False] * step
    return flags


def least_prime_factors(limit: int) -> np.ndarray:
    """The least prime factor of every n <= limit (n itself for a prime), by a numpy sieve that shares no code with arith."""
    lpf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if lpf[p] == 0:
            multiples = lpf[p * p :: p]
            multiples[multiples == 0] = p
    unset = np.flatnonzero(lpf == 0)
    lpf[unset] = unset
    return lpf
