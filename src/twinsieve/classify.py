"""Twin-rank / non-rank classification.

A positive integer m is a twin rank when 6m-1 and 6m+1 are both prime, and a
non-rank otherwise.  Every non-rank can be written n*p +- N(p/6) for a prime
p >= 5 and n >= 0; classification recovers the least such parent prime from
the factorization of the composite side(s).  The non-rank generator,
nonranks_of, is an array layer and lives in progressions.

The parent is the least of the composite sides' least prime factors.  Below
LEAST_CAP = 2**22 both sides are read from arith's least-factor table, the
engine's rank-space strike with each base prime's value in place of a flag:
two smallest_prime_factor lookups, 3-4 us a call for m <= 300,000 against
7-8 us on the scalar path, with at most eight 128 KB blocks cached.
From the cap up, each side takes one gcd with the product of the primes to
211, which classify hands on: is_prime settles the side from it (then
deterministic Miller-Rabin), and a composite side's least factor comes from
the same gcd, trial division by the primes from 223 to 2**16, then Brent's
rho on what is left, so classification runs in constant memory for every m
with 6m + 1 < 2**64.  When both sides are composite, a trial factor a of 6m-1
leaves 6m+1 to trial division below a, and rho runs only when neither side
has a factor below 2**16.  This module imports no numpy: its primitives come
from primality, whose 2**16 trial primes come from a bytearray sieve, so
`twinsieve classify m` from 2**22 up starts without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, DomainError
from .primality import (
    LEAST_CAP,
    PRIMALITY_LIMIT,
    TRIAL_BOUND,
    is_prime,
    rough_least_prime,
    small_gcd,
    smallest_prime_factor,
    trial_factor,
)

TWIN_RANK = "twin_rank"
NON_RANK = "non_rank"
SIDE_MINUS = "minus"  # 6m - 1
SIDE_PLUS = "plus"    # 6m + 1

SIGN_PLUS = "+"
SIGN_MINUS = "-"


@dataclass(frozen=True, init=False)
class Classification:
    """Verdict for m, with parent prime and witness data when m is a non-rank.

    For a non-rank, m = witness_kappa * parent + (witness_sign) * N(parent/6),
    and composite_sides marks which of 6m-1, 6m+1 is composite.  The constructor
    fills the fields in one dict update, not six object.__setattr__ calls.
    """

    m: int
    verdict: str
    parent: int | None = None
    composite_sides: tuple[str, ...] = ()
    witness_sign: str | None = None
    witness_kappa: int | None = None

    def __init__(self, m, verdict, parent=None, composite_sides=(), witness_sign=None, witness_kappa=None):
        self.__dict__.update(m=m, verdict=verdict, parent=parent, composite_sides=composite_sides,
                             witness_sign=witness_sign, witness_kappa=witness_kappa)

    @property
    def is_twin_rank(self) -> bool:
        return self.verdict == TWIN_RANK


def classify(m: int) -> Classification:
    """Classify m as twin rank or non-rank with its parent prime.

    Refuses m whose sides leave the deterministic primality range rather than
    falling back to probabilistic answers.
    """
    if m < 1:
        raise DomainError(f"classification needs a positive integer, got {m}")
    if 6 * m + 1 >= PRIMALITY_LIMIT:
        raise CapacityError(f"6*{m}+1 exceeds the deterministic primality range")
    minus, plus = 6 * m - 1, 6 * m + 1
    if m < LEAST_CAP:  # both sides are in the least-factor table: one lookup each
        a, b = smallest_prime_factor(minus), smallest_prime_factor(plus)
        if a == minus:
            if b == plus:
                return Classification(m, TWIN_RANK)
            parent, composite_sides = b, (SIDE_PLUS,)
        elif b == plus:
            parent, composite_sides = a, (SIDE_MINUS,)
        else:
            parent, composite_sides = min(a, b), (SIDE_MINUS, SIDE_PLUS)
    else:  # one gcd against the primes to 211 per side, handed to is_prime and then to the factor search
        g_minus, g_plus = small_gcd(minus), small_gcd(plus)
        minus_prime = is_prime(minus, g_minus)
        plus_prime = is_prime(plus, g_plus)
        if minus_prime and plus_prime:
            return Classification(m, TWIN_RANK)
        if minus_prime or plus_prime:
            parent = smallest_prime_factor(plus, g_plus) if minus_prime else smallest_prime_factor(minus, g_minus)
            composite_sides = (SIDE_PLUS,) if minus_prime else (SIDE_MINUS,)
        else:
            composite_sides = (SIDE_MINUS, SIDE_PLUS)
            a = trial_factor(minus, TRIAL_BOUND, g_minus)  # composite, so never minus itself
            parent = trial_factor(plus, a or TRIAL_BOUND, g_plus) or a
            if not parent:
                parent = min(rough_least_prime(minus), rough_least_prime(plus))

    # N(parent/6), without nsix: its primality test would repeat on a proven prime
    off = (parent + 1) // 6 if parent % 6 == 5 else (parent - 1) // 6
    if m % parent == off % parent:
        sign, kappa = SIGN_PLUS, (m - off) // parent
    else:
        sign, kappa = SIGN_MINUS, (m + off) // parent
    return Classification(m, NON_RANK, parent, composite_sides, sign, kappa)


def twin_index(m: int) -> int:
    """6m, the midpoint of the prime pair, defined only for twin ranks."""
    c = classify(m)
    if not c.is_twin_rank:
        raise DomainError(f"{m} is not a twin rank (parent prime {c.parent})")
    return 6 * m


def rank_from_prime(p: int) -> int | None:
    """The twin rank N(p/6) contributed by prime p when its companion is prime.

    Returns (p-1)/6 when p = 1 (mod 6) and p-2 is prime, (p+1)/6 when
    p = -1 (mod 6) and p+2 is prime, None otherwise.
    """
    if p < 5 or not is_prime(p):
        raise DomainError(f"rank_from_prime needs a prime >= 5, got {p}")
    if p % 6 == 1 and is_prime(p - 2):
        return (p - 1) // 6
    if p % 6 == 5 and is_prime(p + 2):
        return (p + 1) // 6
    return None
