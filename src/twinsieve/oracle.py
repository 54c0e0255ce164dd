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

DEFAULT_CEILING = 10**9
DEFAULT_SEGMENT = 1 << 20  # numbers per segment in pi2_exact and twin_ranks_up_to

# Ranks handled per chunk so one chunk's number span is about DEFAULT_SEGMENT.
_VERIFY_CHUNK_RANKS = 1 << 15

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
    idx = 6 * np.arange(m_hi - m_lo + 1, dtype=np.int64)
    return ~comp[idx] & ~comp[idx + 2]


def _rank_chunks(m_lo: int, m_hi: int, ranks_per: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + ranks_per - 1, m_hi)) for lo in range(m_lo, m_hi + 1, ranks_per)]


def pi2_exact(y: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Count of m >= 1 with 6m-1 and 6m+1 both prime and 6m+1 <= y.

    The pair (3, 5) is not of the form 6m+-1 and is not counted.
    """
    if y < 0:
        raise DomainError(f"pi2_exact needs y >= 0, got {y}")
    if y > ceiling:
        raise CapacityError(f"y = {y} exceeds the sieve ceiling {ceiling}")
    m_max = (y - 1) // 6
    if m_max < 1:
        return 0
    count = 0
    for lo, hi in _rank_chunks(1, m_max, DEFAULT_SEGMENT // 6):
        count += int(_twin_truth(lo, hi).sum())
    return count


@dataclass(frozen=True)
class TwinRankStream:
    """Ascending twin ranks m <= limit."""

    limit: int
    ranks: tuple[int, ...]


def twin_ranks_up_to(limit_rank: int, *, ceiling: int = DEFAULT_CEILING) -> TwinRankStream:
    """All twin ranks m <= limit_rank, ascending."""
    if limit_rank < 0:
        raise DomainError(f"twin_ranks_up_to needs limit >= 0, got {limit_rank}")
    if 6 * limit_rank + 1 > ceiling:
        raise CapacityError(f"6*{limit_rank}+1 exceeds the sieve ceiling {ceiling}")
    ranks: list[int] = []
    if limit_rank >= 1:
        for lo, hi in _rank_chunks(1, limit_rank, DEFAULT_SEGMENT // 6):
            hits = np.flatnonzero(_twin_truth(lo, hi))
            ranks.extend((hits + lo).tolist())
    return TwinRankStream(limit_rank, tuple(ranks))


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
        got = classify(m).is_twin_rank
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
    if 6 * limit + 1 > ceiling:
        raise CapacityError(f"6*{limit}+1 exceeds the sieve ceiling {ceiling}")
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

