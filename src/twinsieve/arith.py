"""Exact integer primitives: primality, factoring, the engine's prime sieve, N(p/6).

Everything here is exact: primality below 2**64 is deterministic, and the
nearest-integer function works on rationals so the half-integer ambiguity is
detectable instead of silently rounded.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError

# Witness tiers for strong-pseudoprime testing, deterministic for n < 2**64
# (each tuple: exclusive bound, witnesses sufficient below it).
_MR_TIERS = (
    (341_531, (9345883071009581737,)),
    (716_169_301, (336781006125, 9639812373923155)),
    (350_269_456_337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)

# The primes to 211 and their product: one gcd with it stands for 47 trial divisions.
_SMALL_PRIMES = frozenset(p for p in range(2, 212) if all(p % q for q in range(2, p)))
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

PRIMALITY_LIMIT = 1 << 64


def small_gcd(n: int) -> int:
    """gcd(n, the product of the primes to 211): the gcd is_prime and trial_factor start with, for a caller to take once and hand to both."""
    return math.gcd(n, _SMALL_PRODUCT)


def is_prime(n: int, g: int | None = None) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    One gcd settles n with a prime factor to 211 and n below 223**2; only the rest reach Miller-Rabin.
    g, when given, is small_gcd(n), taken by the caller, and stands for that gcd.
    """
    if n >= PRIMALITY_LIMIT:
        raise CapacityError(f"deterministic primality is limited to n < 2**64, got {n}")
    if (math.gcd(n, _SMALL_PRODUCT) if g is None else g) != 1:
        return n in _SMALL_PRIMES
    if n < 223 * 223:
        return n > 1
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    witnesses: tuple[int, ...] = _MR_TIERS[-1][1]
    for bound, tier in _MR_TIERS:
        if n < bound:
            witnesses = tier
            break
    for a in witnesses:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = max(n + 1, 2)
    while not is_prime(k):
        k += 1
    return k


def nearest_int(x: int | Fraction) -> int:
    """Integer nearest to the exact rational x.

    Half-integers are rejected rather than rounded: the callers' domain
    guarantees they cannot occur, so hitting one signals a bug.
    """
    if isinstance(x, float):
        raise TypeError("nearest_int requires exact input (int or Fraction), not float")
    x = Fraction(x)
    if x.denominator == 2:
        raise DomainError(f"{x} is a half-integer; the nearest integer is ambiguous")
    return math.floor(x + Fraction(1, 2))


def nsix(p: int) -> int:
    """Nearest integer to p/6 for a prime p >= 5: (p-1)/6 if p = 1 (mod 6), else (p+1)/6."""
    if p < 5 or not is_prime(p):
        raise DomainError(f"nsix needs a prime >= 5, got {p}")
    return (p + 1) // 6 if p % 6 == 5 else (p - 1) // 6


# Trial division covers the primes below this bound; larger factors come from
# Brent's rho, so the prime cache never grows past it on behalf of factoring.
TRIAL_BOUND = 1 << 16
_RHO_BATCH = 128  # rho steps per batched gcd


@functools.cache
def _small_primes() -> tuple[int, ...]:
    # A tuple: python-level iteration with early break beats a numpy array here.
    return tuple(primes_between(1, TRIAL_BOUND))


# The least-factor table, in the rank layout of the prime flags: entry 2(r - r_lo) + s
# of a block holds the least prime factor of 6r - 1 (s = 0) or 6r + 1 (s = 1), 0 where
# that side is prime.  It serves ranks below LEAST_CAP, sides below 6*2**22 - 1 =
# 25,165,823, whose base primes run to 5,011, so the prime cache stays at 2**16.
# A block is 2**15 ranks of uint16, 128 KB, struck in 0.5-1.2 ms by the primes
# in descending order; eight blocks, 1 MB, stay cached.
LEAST_BLOCK = 1 << 15
LEAST_CAP = 1 << 22
_LEAST_TOP = 6 * LEAST_CAP - 1  # every side 6r -+ 1 with r < LEAST_CAP is below it


def _least_factors(r_lo: int, size: int) -> np.ndarray:
    """The least-factor table over the size ranks from r_lo, as uint16 entries in the prime flags' layout."""
    base = prime_array(4, math.isqrt(6 * (r_lo + size) - 5))[::-1]  # to the last 6r + 1; descending
    first = np.maximum((base * base - 1) // 6, r_lo)  # from the rank r of q*q = 6r + 1: q itself stays 0
    return _strike(np.zeros(2 * size, dtype=np.uint16), r_lo, base, first)


@functools.lru_cache(maxsize=8)
def _least_block(k: int) -> memoryview:
    """Block k of the least-factor table, from rank k*LEAST_BLOCK: a read-only memoryview, whose items are Python ints."""
    return memoryview(_least_factors(k * LEAST_BLOCK, LEAST_BLOCK)).toreadonly()


def smallest_prime_factor(n: int, g: int | None = None) -> int:
    """Least prime dividing n >= 2 (returns n itself when n is prime).

    n = 6r -+ 1 with r < LEAST_CAP is one lookup in the least-factor table: 0.3-0.4 us
    near 10^6, against 2.7 us for the path that any other n takes.  That path is one gcd
    with the product of the primes to 211, trial division by the rest below TRIAL_BOUND,
    Miller-Rabin, then Brent's rho on what is left, so memory stays constant for every
    n < 2**64.  Raises CapacityError for n >= 2**64 without a prime factor below the bound.
    g, when given, is small_gcd(n), taken by the caller, and stands for that gcd.
    """
    if n < 2:
        raise DomainError(f"smallest_prime_factor needs n >= 2, got {n}")
    if n & 1 and n % 3 and n < _LEAST_TOP:
        k, i = divmod(n // 3 + 1, 2 * LEAST_BLOCK)  # n // 3 + 1 = 2r + s, for 6r - 1 (s = 0) and 6r + 1 (s = 1)
        return _least_block(k)[i] or n
    return trial_factor(n, TRIAL_BOUND, g) or rough_least_prime(n)


def trial_factor(n: int, below: int = TRIAL_BOUND, g: int | None = None) -> int:
    """Least prime p < min(below, TRIAL_BOUND) dividing n >= 2, or 0 when none does.

    Returns n itself once p passes isqrt(n) with no divisor found: n is prime.
    For n >= 223**2 and below > 223, one gcd names a factor to 211 or starts the scan at 223;
    g, when given, is small_gcd(n), taken by the caller, and stands for that gcd.
    """
    primes = _small_primes()
    if n >= 223 * 223 and below > 223:
        if g is None:
            g = math.gcd(n, _SMALL_PRODUCT)
        if g != 1:
            for p in primes:  # returns by 211: g is a product of primes to 211
                if g % p == 0:
                    return p
        primes = itertools.islice(primes, len(_SMALL_PRIMES), None)
    root = math.isqrt(n)
    for p in primes:
        if p >= below:
            return 0
        if p > root:
            return n
        if n % p == 0:
            return p
    return 0


def rough_least_prime(n: int) -> int:
    """Least prime factor of n > 1 whose prime factors all exceed TRIAL_BOUND: Miller-Rabin, then rho."""
    if is_prime(n, 1):  # no prime to 211 divides n
        return n
    root = math.isqrt(n)
    if root * root == n:
        return rough_least_prime(root)
    c = 1
    while (d := _brent_rho(n, c)) == n:
        c += 1
    return min(rough_least_prime(d), rough_least_prime(n // d))


def _brent_rho(n: int, c: int) -> int:
    """Brent's cycle-finding rho on y -> y^2 + c (mod n) from y = 2.

    Returns a divisor of n greater than 1; n itself means this c failed.
    Products of |x - y| are accumulated and one gcd is taken per batch; when
    a batch's gcd is n, its steps are replayed one gcd at a time.
    """
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(_RHO_BATCH, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += _RHO_BATCH
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g
