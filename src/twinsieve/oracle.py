"""Ground truth from a segmented Eratosthenes sieve.

Twin detection sieves plain primality over number ranges and scans for the
gap-2 pairs around multiples of 6.  The sieve shares no code with the
classifier it validates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .classify import NON_RANK, TWIN_RANK, classify
from .errors import CapacityError, DomainError
from .parallel import parallel_map
from .primality import DEFAULT_CEILING

# Largest number the oracle sieves up to, whatever the ceiling allows; checked
# before any sieving.  pi2_exact(10**10) counts 27,412,678 pairs in 85-106 s
# at 34 MB in-process (single runs on one core of a shared 2-vCPU host); level
# 29's period, 6L+1 = 6,469,693,231, stays within it.  At the guard
# twin_ranks_up_to would hold those ranks as 219 MB of int64 (once: the array
# grows in place), and verify_classify classifies every rank: 450,000-610,000
# a second per worker at m <= 3e5, where classify reads the least-factor table
# (the scalar path takes 6-7 us a call just above 2**22, on the same 2-vCPU host).
SIEVE_GUARD = 10**10
DEFAULT_SEGMENT = 1 << 20  # numbers per segment in pi2_exact and twin_ranks_up_to

# Ranks handled per chunk of verify_classify; they span 6 * 2**13 = 49,152
# numbers, 3/64 of DEFAULT_SEGMENT, and at most two blocks of the least-factor
# table.  Small chunks keep the workers' round-robin shares within one chunk of
# each other (37 chunks at limit 3e5).  The constant sets verify's chunk edges,
# which change no byte of the report.
_VERIFY_CHUNK_RANKS = 1 << 13

_base_flags = np.zeros(2, dtype=bool)


def _base_primes(limit: int) -> np.ndarray:
    """Primes <= limit via a plain sieve, cached and regrown geometrically."""
    global _base_flags
    if limit >= _base_flags.size:
        size = max(limit + 1, 2 * _base_flags.size, 1 << 12)
        flags = np.ones(size, dtype=bool)
        flags[:2] = False
        for p in range(2, int(size**0.5) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        _base_flags = flags
    return np.flatnonzero(_base_flags[: limit + 1])


def sieve_segment(lo: int, hi: int) -> np.ndarray:
    """Composite flags over the half-open range [lo, hi): flag i is clear when lo + i is prime."""
    if lo < 0 or hi < lo:
        raise DomainError(f"bad segment bounds [{lo}, {hi})")
    comp = np.zeros(hi - lo, dtype=bool)
    comp[: max(0, min(2 - lo, hi - lo))] = True  # 0 and 1 are not prime
    root = math.isqrt(max(hi - 1, 0))
    for p in _base_primes(root).tolist():
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            comp[start - lo :: p] = True
    return comp


def _twin_truth(m_lo: int, m_hi: int) -> np.ndarray:
    """Boolean array over ranks m_lo..m_hi: True where 6m-1 and 6m+1 are both prime."""
    comp = sieve_segment(6 * m_lo - 1, 6 * m_hi + 2)
    return ~comp[0::6] & ~comp[2::6]  # the 6m-1 and the 6m+1 side, as strided views


def _rank_chunks(m_lo: int, m_hi: int, ranks_per: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + ranks_per - 1, m_hi)) for lo in range(m_lo, m_hi + 1, ranks_per)]


def _check_extent(y: int, ceiling: int, what: str) -> None:
    """CapacityError, before any sieving, when the numbers up to y are past the ceiling or SIEVE_GUARD."""
    if y > ceiling:
        raise CapacityError(f"{what} exceeds the sieve ceiling {ceiling}")
    if y > SIEVE_GUARD:
        raise CapacityError(f"{what} exceeds the oracle's sieve guard {SIEVE_GUARD}")


def pi2_exact(y: int, *, ceiling: int = DEFAULT_CEILING, first_rank: int = 1) -> int:
    """Count of m >= first_rank with 6m-1 and 6m+1 both prime and 6m+1 <= y.

    The pair (3, 5) is not of the form 6m+-1 and is not counted.  Only the
    ranks from first_rank on are sieved.
    """
    if y < 0:
        raise DomainError(f"pi2_exact needs y >= 0, got {y}")
    if first_rank < 1:
        raise DomainError(f"pi2_exact needs first_rank >= 1, got {first_rank}")
    _check_extent(y, ceiling, f"y = {y}")
    count = 0
    for lo, hi in _rank_chunks(first_rank, (y - 1) // 6, DEFAULT_SEGMENT // 6):
        count += int(_twin_truth(lo, hi).sum())
    return count


@dataclass(frozen=True, eq=False)
class TwinRankStream:
    """Ascending twin ranks m <= limit."""

    limit: int
    ranks: np.ndarray  # int64


def twin_ranks_up_to(limit_rank: int, *, ceiling: int = DEFAULT_CEILING) -> TwinRankStream:
    """All twin ranks m <= limit_rank, ascending, as one int64 array."""
    if limit_rank < 0:
        raise DomainError(f"twin_ranks_up_to needs limit >= 0, got {limit_rank}")
    _check_extent(6 * limit_rank + 1, ceiling, f"6*{limit_rank}+1")
    ranks = np.empty(0, dtype=np.int64)
    for lo, hi in _rank_chunks(1, limit_rank, DEFAULT_SEGMENT // 6):
        hits, count = np.flatnonzero(_twin_truth(lo, hi)), ranks.size
        ranks.resize(count + hits.size, refcheck=False)  # realloc: grows by remapping, not by a second copy
        np.add(hits, lo, out=ranks[count:])
    return TwinRankStream(limit_rank, ranks)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of replaying classify against sieve truth over 1..limit."""

    limit: int
    mismatches: tuple[tuple[int, str, str], ...]  # (m, sieve verdict, classify verdict)
    twin_ranks: int
    non_ranks: int
    elapsed_s: float
    ranks_per_s: float


def _verify_chunk(bounds: tuple[int, int]) -> tuple[int, list[tuple[int, str, str]]]:
    m_lo, m_hi = bounds
    twins = 0
    mism: list[tuple[int, str, str]] = []
    for m, want in zip(range(m_lo, m_hi + 1), _twin_truth(m_lo, m_hi).tolist()):
        got = classify(m).verdict == TWIN_RANK
        twins += got
        if got != want:
            want_v = TWIN_RANK if want else NON_RANK
            got_v = TWIN_RANK if got else NON_RANK
            mism.append((m, want_v, got_v))
    return twins, mism


def verify_classify(
    limit: int, *, workers: int = 1, ceiling: int = DEFAULT_CEILING
) -> VerifyReport:
    """Compare classify(m) with sieve truth for every m <= limit.

    Chunk boundaries are fixed by the limit alone, so the merged report is
    identical for any worker count.
    """
    if limit < 1:
        raise DomainError(f"verify_classify needs limit >= 1, got {limit}")
    _check_extent(6 * limit + 1, ceiling, f"6*{limit}+1")
    chunks = _rank_chunks(1, limit, _VERIFY_CHUNK_RANKS)
    t0 = time.perf_counter()
    results = parallel_map(_verify_chunk, chunks, workers)
    elapsed = time.perf_counter() - t0
    twins = sum(t for t, _ in results)
    mismatches: list[tuple[int, str, str]] = []
    for _, mm in results:
        mismatches.extend(mm)
    return VerifyReport(
        limit=limit,
        mismatches=tuple(mismatches),
        twin_ranks=twins,
        non_ranks=limit - twins,
        elapsed_s=elapsed,
        ranks_per_s=limit / elapsed if elapsed > 0 else float("inf"),
    )

