"""The engine's prime sieve in rank space, its prime cache and the least-factor table."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .primality import LEAST_BLOCK

# The engine's prime sieve, in rank space: flag 2r + s of a block (less 2*r_lo)
# stands for 6r - 1 (s = 0) or 6r + 1 (s = 1).  The oracle keeps its own sieve.
SPAN = 1 << 22
RANK_PERIOD = 5 * 7 * 11 * 13 * 17
_WHEEL_PRIMES = np.array([5, 7, 11, 13, 17])  # the primes of the rank wheel, whose product is RANK_PERIOD


def _strike(out: np.ndarray, r_lo: int, q: np.ndarray, first, merged: bool = False) -> np.ndarray:
    """out, from rank r_lo, set to q on each prime q's non-rank classes +-N(q/6) (mod q) from rank first >= r_lo up (q >= 5).

    Interleaved, entry 2(r - r_lo) + s is the side 6r - 1 (s = 0) or 6r + 1 (s = 1); merged, entry r - r_lo is both.
    Each prime writes both its classes before the next, so a bool out gets True, and in any other dtype primes
    given in descending order leave each entry its least q.
    """
    n = (q + 1) // 6  # N(q/6), whether q is 6n - 1 or 6n + 1
    minus = np.where(q % 6 == 5, n, q - n)  # the class where q divides 6r - 1; q - minus, where it divides 6r + 1
    width = 1 if merged else 2  # entries per rank
    at = [width * ((c - first) % q + first - r_lo) + (width - 1) * s for s, c in enumerate((minus, q - minus))]
    for p, a, b in zip(q.tolist(), at[0].tolist(), at[1].tolist()):
        out[a :: width * p] = p
        out[b :: width * p] = p
    return out


@functools.cache
def _rank_wheel() -> np.ndarray:
    """One turn of the rank wheel, 2 * RANK_PERIOD interleaved flags: set where a prime 5..17 divides the side, rank 0 on."""
    return _strike(np.zeros(2 * RANK_PERIOD, dtype=bool), 0, _WHEEL_PRIMES, 0)


def _composite_flags(r_lo: int, size: int, base: np.ndarray) -> np.ndarray:
    """Interleaved flags over the size ranks from r_lo, set where the side 6r -+ 1 is composite; rank 0's -1 and 1 stay clear.

    A window of at least RANK_PERIOD ranks starts as one turn of the rank
    wheel, copied in two pieces from the phase r_lo % RANK_PERIOD and then
    doubled, so 5..17 and their multiples come set; 5..17 themselves are
    cleared in the window from rank 0.  A shorter window never builds the
    wheel: it starts clear and 5..17 strike it as the base primes do.  base
    holds ascending primes from 19 up to at least the root of the window's
    last side; those up to it strike from their first class member at least q*q.
    """
    q = base[: np.searchsorted(base, math.isqrt(6 * (r_lo + size) - 5), side="right")]
    if size < RANK_PERIOD:
        flags, q = np.zeros(2 * size, dtype=bool), np.concatenate([_WHEEL_PRIMES, q])
    else:
        flags, wheel, phase = np.empty(2 * size, dtype=bool), _rank_wheel(), 2 * (r_lo % RANK_PERIOD)
        flags[: wheel.size - phase] = wheel[phase:]
        flags[wheel.size - phase : wheel.size] = wheel[:phase]
        filled = wheel.size
        while filled < flags.size:
            flags[filled : 2 * filled] = flags[: flags.size - filled][:filled]
            filled *= 2
        if r_lo == 0:
            flags[2:7] = False  # 5..17 themselves
    return _strike(flags, r_lo, q, np.maximum((q * q - 1) // 6, r_lo))  # q*q = 6r + 1 at r = (q*q - 1)/6


def _sieving_primes(root: int) -> np.ndarray:
    """The primes 19..root ascending, from the engine's own stream, uncached."""
    base = np.concatenate(list(odd_prime_blocks(root))) if root >= 19 else np.empty(0, dtype=np.int64)
    return base[base >= 19]


def odd_prime_blocks(cutoff: int, start: int = 3):
    """Yield int64 arrays of the primes in [lo, hi), for lo = start + k*SPAN and hi <= cutoff + 1.

    start must be a block edge 3 + k*SPAN, so a stream started there yields
    exactly the tail of the stream from 3.  A block is the composite flags
    over the ranks (lo+1)//6 .. (hi+1)//6, the base primes from the stream
    itself, its clear flags turned into primes.  Block 0 puts 3 in front.
    The stream keeps nothing of a block past its yield; a consumer that keeps
    a block, or arrays made from it, past the next yield holds two blocks.
    """
    if start < 3 or (start - 3) % SPAN:
        raise DomainError(f"odd_prime_blocks starts at a block edge 3 + k*{SPAN}, got {start}")
    base = _sieving_primes(math.isqrt(cutoff))

    def block(lo: int, hi: int) -> np.ndarray:
        r_lo = (lo + 1) // 6
        flags = _composite_flags(r_lo, (hi + 1) // 6 - r_lo + 1, base)
        vals = np.flatnonzero(np.logical_not(flags, out=flags))  # the in-place steps that follow allocate nothing
        vals *= 3
        vals &= -2  # 3f less its low bit: 6i for flag 2i, 6i + 2 for flag 2i + 1
        vals += 6 * r_lo - 1
        if lo == 3:
            vals[1] = 3  # in place of 1; the trim drops -1
        return vals[np.searchsorted(vals, lo) : np.searchsorted(vals, hi)]

    for lo in range(start, cutoff + 1, SPAN):
        yield block(lo, min(lo + SPAN, cutoff + 1))  # nothing of a block but its primes outlives the yield


TWIN_BLOCK = SPAN // 6  # ranks per window of twin_ranks, about SPAN numbers


def twin_ranks(limit: int, dtype=np.int64) -> np.ndarray:
    """All twin ranks 1 <= m <= limit, ascending, as one array grown in place.

    Each window of TWIN_BLOCK ranks, from rank 0, is one _composite_flags
    strike; a rank is a twin rank where both its flags are clear, that is
    where the pair of flags read as one uint16 is 0.  dtype is int64, in which
    arithmetic such as 6*m + 1 cannot wrap, or any integer dtype that holds
    limit: the CLI asks for uint32, half the bytes, since the oracle's guard
    keeps its ranks below 2**32.
    """
    if limit < 0:
        raise DomainError(f"twin_ranks needs limit >= 0, got {limit}")
    if limit > np.iinfo(dtype).max:
        raise DomainError(f"twin_ranks up to {limit} does not fit {np.dtype(dtype).name}")
    base = _sieving_primes(math.isqrt(6 * limit + 1))
    ranks = np.empty(0, dtype=dtype)
    for r_lo in range(0, limit + 1, TWIN_BLOCK):
        flags = _composite_flags(r_lo, min(TWIN_BLOCK, limit + 1 - r_lo), base)
        if r_lo == 0:
            flags[:2] = True  # rank 0: -1 and 1 are no twin pair
        hits, count = np.flatnonzero(flags.view(np.uint16) == 0), ranks.size
        del flags  # before the next window is struck, so two windows are never held
        ranks.resize(count + hits.size, refcheck=False)  # realloc: grows by remapping, not by a second copy
        np.add(hits, r_lo, out=ranks[count:], casting="unsafe")  # every rank is at most limit, which dtype holds
    return ranks


_sieved: tuple[int, np.ndarray] = (1, np.empty(0, dtype=np.int64))


def _sieve_to(hi: int) -> tuple[int, np.ndarray]:
    """(limit, every prime <= limit ascending) with limit >= hi; the one cache, regrown geometrically."""
    global _sieved
    if _sieved[0] < hi:
        limit = max(hi, 1 << 16, 2 * _sieved[0])
        _sieved = (limit, np.concatenate([np.array([2], dtype=np.int64), *odd_prime_blocks(limit)]))
    return _sieved


def prime_array(lo: int, hi: int) -> np.ndarray:
    """All primes p with lo < p <= hi, ascending, as a read-only int64 slice of the engine sieve."""
    if hi < 2 or hi <= lo:
        return np.empty(0, dtype=np.int64)
    primes = _sieve_to(hi)[1]
    i, j = np.searchsorted(primes, [lo, hi], side="right")
    view = primes[i:j]
    view.flags.writeable = False  # a view of the one cache: a write would change every later caller's primes
    return view


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo < p <= hi, ascending; empty if the range holds none."""
    return prime_array(lo, hi).tolist()


# The least-factor table, in the rank layout of the prime flags: entry 2(r - r_lo) + s
# of a block holds the least prime factor of 6r - 1 (s = 0) or 6r + 1 (s = 1), 0 where
# that side is prime.  It serves ranks below LEAST_CAP, sides below 6*2**22 - 1 =
# 25,165,823, whose base primes run to 5,011, so the prime cache stays at 2**16.
# A block is 2**15 ranks of uint16, 128 KB, struck in 0.5-1.2 ms by the primes
# in descending order; two blocks, 256 KB, stay cached: verify_classify walks the ranks in
# order, a chunk of it spans at most two blocks, and one classify call needs one.
# primality.smallest_prime_factor reads it, and defines LEAST_BLOCK and LEAST_CAP.
def _least_factors(r_lo: int, size: int) -> np.ndarray:
    """The least-factor table over the size ranks from r_lo, as uint16 entries in the prime flags' layout."""
    base = prime_array(4, math.isqrt(6 * (r_lo + size) - 5))[::-1]  # to the last 6r + 1; descending
    first = np.maximum((base * base - 1) // 6, r_lo)  # from the rank r of q*q = 6r + 1: q itself stays 0
    return _strike(np.zeros(2 * size, dtype=np.uint16), r_lo, base, first)


@functools.lru_cache(maxsize=2)
def _least_block(k: int) -> memoryview:
    """Block k of the least-factor table, from rank k*LEAST_BLOCK: a read-only memoryview, whose items are Python ints."""
    return memoryview(_least_factors(k * LEAST_BLOCK, LEAST_BLOCK)).toreadonly()
