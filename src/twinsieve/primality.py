"""Scalar integer primitives, with no array layer: primality, least prime factors, N(p/6).

Everything here is exact: primality below 2**64 is deterministic, and the
nearest-integer function works on rationals so the half-integer ambiguity is
detectable instead of silently rounded.  Nothing here imports numpy, so the
package, the CLI's parser and classify from 2**22 up start without it; only
smallest_prime_factor's least-factor table, for sides below 6*LEAST_CAP, loads
arith's (and numpy) on its first lookup.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import CapacityError, DomainError

# The oracle's default sieve ceiling, here so that the CLI's --ceiling default needs no array layer.
DEFAULT_CEILING = 10**9

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
    """The 6,542 primes below TRIAL_BOUND, from a bytearray sieve over the odd numbers in about 1 ms.

    A tuple: python-level iteration with early break beats a numpy array here.
    """
    half = TRIAL_BOUND // 2
    flags = bytearray(b"\x01") * half  # flag i stands for 2i + 1
    flags[0] = 0
    for i in range(1, math.isqrt(TRIAL_BOUND - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, half, p)))
    return (2, *itertools.compress(range(1, TRIAL_BOUND, 2), flags))


# The least-factor table (arith._least_block) serves the sides 6r -+ 1 of the
# ranks r below LEAST_CAP, in blocks of LEAST_BLOCK ranks.
LEAST_BLOCK = 1 << 15
LEAST_CAP = 1 << 22
_LEAST_TOP = 6 * LEAST_CAP - 1  # every side 6r -+ 1 with r < LEAST_CAP is below it
# A block holds 2 * LEAST_BLOCK entries, a power of two: entry i of the table is
# entry i & _LEAST_MASK of block i >> _LEAST_SHIFT.
_LEAST_SHIFT = (2 * LEAST_BLOCK).bit_length() - 1
_LEAST_MASK = 2 * LEAST_BLOCK - 1


def _least_block(k: int):
    """Stand-in for arith._least_block until the first table lookup, which binds the table here in its place.

    So no lookup pays an import, and numpy loads only once a side below _LEAST_TOP asks for its least factor.
    """
    global _least_block
    from . import arith

    _least_block = arith._least_block
    return _least_block(k)


def smallest_prime_factor(n: int, g: int | None = None) -> int:
    """Least prime dividing n >= 2 (returns n itself when n is prime).

    n = 6r -+ 1 with r < LEAST_CAP is one lookup in the least-factor table: 0.26-0.5 us
    near 10^6, against 2.7 us for the path that any other n takes.  That path is one gcd
    with the product of the primes to 211, trial division by the rest below TRIAL_BOUND,
    Miller-Rabin, then Brent's rho on what is left, so memory stays constant for every
    n < 2**64.  Raises CapacityError for n >= 2**64 without a prime factor below the bound.
    g, when given, is small_gcd(n), taken by the caller, and stands for that gcd.
    """
    if n & 1 and n % 3 and 1 < n < _LEAST_TOP:
        i = n // 3 + 1  # 2r + s, for 6r - 1 (s = 0) and 6r + 1 (s = 1)
        return _least_block(i >> _LEAST_SHIFT)[i & _LEAST_MASK] or n
    if n < 2:
        raise DomainError(f"smallest_prime_factor needs n >= 2, got {n}")
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
