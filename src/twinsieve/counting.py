"""Exact period-count identities and the Legendre-type twin-rank estimate.

All identity work is big-integer / exact-rational; floating point appears only
in the truncated twin-prime-constant product and the asymptote evaluation.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import SPAN, _least_factors, odd_prime_blocks, prime_array, primes_between
from .errors import CapacityError, DomainError
from .oracle import pi2_exact
from .parallel import parallel_map, pool_size
from .primality import DEFAULT_CEILING, is_prime, next_prime

EULER_GAMMA = 0.5772156649015329
# Largest sieve level counts_row accepts, checked before any sieving.  On a
# 2-vCPU host counts --level 999983, the last level below it, takes 2.0 s at 41 MB,
# 0.4 s of it in counts_row (6.2 s with one gcd of R and L), most of the rest
# turning the envelope's ten integers of over a million bits into decimal; near
# 10^9 the rank-space least-factor table alone would be 0.67 GB.
LEVEL_GUARD = 10**6
# Largest levels legendre_pi2 and main_term accept, checked before the level is built.
# legendre --level 23 (x = 37,182,005) peaks at 68 MB in 1.0-1.7 s on 2 vCPUs, 74-78 MB with
# --workers 2 (103 and 181 MB while all 6,031,487 squarefree terms were built): 18 MB of
# tail primes and the 985,501 terms over those up to sqrt(x), 0.15 s for both, and the
# oracle counts, which sieve the period once.  Level 29 would need its 30,570,181
# small-prime terms streamed (0.5 GB with their keys) and its 0.44 GB of tail primes
# counted block by block.  main_term also sums one exact Fraction per squarefree term:
# mainterm --level 19 (x = 1,616,527) takes 26-30 s at 87 MB, 13.5 s of it in main_term
# (c2 aside), 13 s in the CLI's exact form_gap and 2.8 s in the decimal strings; level 23
# would carry denominators of tens of millions of bits.
LEGENDRE_GUARD = 23
MAINTERM_GUARD = 19
# Largest prime cutoff of the truncated c2 product, the one tolerance 1e-10
# needs: c2 --tol 1e-10 takes 10.1-19.3 s at 31-32 MB on a 2-core host (single
# runs on different days), its blocks split over both cores (17.0 s in one
# process when first measured), and each tenfold tightening costs more than
# tenfold (1e-12 would take hours).
C2_GUARD = 6_666_666_673


@dataclass(frozen=True)
class CountsRow:
    """Per-period counts at level p_j: all fields exact.

    L is the period, G the non-ranks per period owned by p_j, S the supergroup
    size, R the remnant-class count, q = G/L, Q = S/L, x_frac = R/L.  The
    properties give the rest of the level: its primes 5..p_j, the next prime,
    the front bound M = (p_next**2 - 1)/6 and x = L - M.
    """

    p_j: int
    L: int
    G: int
    q: Fraction
    S: int
    Q: Fraction
    R: int
    x_frac: Fraction

    @property
    def primes(self) -> list[int]:
        return primes_between(4, self.p_j)

    @property
    def p_next(self) -> int:
        return next_prime(self.p_j)

    @property
    def M(self) -> int:
        return m_bound(self.p_next)

    @property
    def x(self) -> int:
        return self.L - self.M


def check_level(p_j: int, name: str = "", least: int = 5, most: int = LEVEL_GUARD) -> None:
    """Refuse a level before any of its primes are sieved.

    DomainError unless p_j is a prime >= 5, CapacityError above LEVEL_GUARD;
    then, for the caller name, DomainError below least and CapacityError above most.
    """
    if p_j < 5 or not is_prime(p_j):
        raise DomainError(f"sieve level must be a prime >= 5, got {p_j}")
    if p_j > LEVEL_GUARD:
        raise CapacityError(f"sieve level {p_j} exceeds {LEVEL_GUARD}")
    if p_j < least:
        raise DomainError(f"{name} needs a level >= {least}, got {p_j}")
    if p_j > most:
        raise CapacityError(f"{name} level {p_j} exceeds {most}")


def counts_row(p_j: int) -> CountsRow:
    """The record of one sieve level; DomainError unless p_j is a prime >= 5, CapacityError above LEVEL_GUARD.

    L, R and x_frac = R/L in lowest terms come from _reduced_ratio over the level's primes;
    q = x_frac * 2/(p_j - 2) and Q = 1 - x_frac take their gcds against small operands only.
    """
    check_level(p_j)
    num, den, g = _reduced_ratio(prime_array(4, p_j))
    L, R = den * g, num * g
    x_frac = _coprime_fraction(num, den)
    return CountsRow(
        p_j=p_j,
        L=L,
        G=2 * R // (p_j - 2),
        q=x_frac * Fraction(2, p_j - 2),
        S=L - R,
        Q=1 - x_frac,
        R=R,
        x_frac=x_frac,
    )


def _reduced_ratio(primes: np.ndarray) -> tuple[int, int, int]:
    """(num, den, g) with prod (q - 2) = num * g, prod q = den * g and num/den in lowest terms, over one or more ascending primes >= 5.

    The primes are distinct, so g = gcd(prod (q - 2), prod q) is the product
    of the given primes that divide some q - 2; the least-prime-factor table
    names them.  num is a product tree over the factors of every q - 2 with
    one copy of each shared prime taken out, den a product tree over the
    primes that are not shared: no big gcd or division.
    """
    factors, copies = np.unique(_prime_factors(primes - 2), return_counts=True)
    at = np.searchsorted(primes, factors)  # inside the array: every factor is below the largest prime
    shared = primes[at] == factors
    copies[shared] -= 1
    g = _tree_sum(factors[shared].tolist() or [1], operator.mul)
    num = _tree_sum(np.repeat(factors, copies).tolist(), operator.mul)  # never empty: the least q - 2 shares nothing
    den = _tree_sum(np.delete(primes, at[shared]).tolist(), operator.mul)  # never empty: the largest prime divides no q - 2
    return num, den, g


# Fraction(n, d) divides out gcd(n, d), quadratic in the digits; for n and d
# known coprime the value is built as it stands.
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or functools.partial(Fraction, _normalize=False)


def _prime_factors(values: np.ndarray) -> np.ndarray:
    """Every prime factor of each odd value >= 1, with multiplicity: the 3s, then the rest, each a side 6r -+ 1, by least factors."""
    out, values = [], values.copy()
    threes = np.flatnonzero(values % 3 == 0)
    while threes.size:
        out.append(np.full(threes.size, 3))
        values[threes] //= 3
        threes = threes[values[threes] % 3 == 0]
    least = _least_factors(0, (int(values.max()) + 1) // 6 + 1)  # through the rank of the largest value
    while (values := values[values > 1]).size:
        p = least[values // 3 + 1]  # values // 3 + 1 = 2r + s, the entry of the side 6r -+ 1
        p = np.where(p == 0, values, p)  # 0: the value itself is prime
        out.append(p)
        values = values // p
    return np.concatenate(out)


def m_bound(p_next: int) -> int:
    """(p_next**2 - 1) / 6, the threshold below which remnants are twin ranks."""
    if p_next in (2, 3):
        raise DomainError(f"m_bound is undefined for p = {p_next}")
    if p_next < 5 or not is_prime(p_next):
        raise DomainError(f"m_bound needs a prime >= 5, got {p_next}")
    return (p_next * p_next - 1) // 6


# One squarefree term: n and nu, the number of prime factors of n, so mu(n) = (-1)**nu.
TERM = np.dtype([("n", np.int64), ("nu", np.int8)])
# Products squarefree_terms makes at a time.
TERMS_CHUNK = 1 << 13
# Records summed at a time, and (-2)**nu for every nu a key's four bits hold.
_RECORDS_SLICE = 1 << 16
_WEIGHTS = (-2) ** np.arange(16, dtype=np.int64)


def squarefree_terms(tail_primes: np.ndarray, x: int) -> np.ndarray:
    """Every squarefree product n <= x of the ascending distinct tail_primes (n = 1 excluded), as TERM records ascending by n.

    Built depth-first by _extend from n = 1, each chunk of at most TERMS_CHUNK
    products extended before the next.  Each product is kept as the int64 key
    n << 4 | nu; x < 2**59 keeps n << 4 in range and nu in four bits (a product
    of 15 distinct primes is at least 2*3*...*47 > 2**59).  The keys are sorted
    once in place and the records filled from them.  The largest builds are
    legendre_pi2's 985,501 records at level 23, over the tail primes up to
    sqrt(x), and main_term's 273,630 at level 19, over all of them.
    """
    primes = np.asarray(tail_primes, dtype=np.int64)
    chunks = _extend(primes, x, np.ones(1, np.int64), np.full(1, -1), 0)  # from n = 1, before every prime
    keys = np.concatenate([n << 4 | nu for n, nu in chunks] or [np.empty(0, np.int64)])
    keys.sort()  # the n are distinct, so every sort kind gives this one order
    terms = np.empty(keys.size, TERM)
    np.right_shift(keys, 4, out=terms["n"])
    np.bitwise_and(keys, 15, out=terms["nu"], casting="unsafe")
    return terms


def _extend(primes: np.ndarray, x: int, n: np.ndarray, last: np.ndarray, nu: int):
    """Every product n * q * ... <= x of the products n of nu primes by later primes, depth-first.

    primes[last] is each n's largest prime and x // n exceeds it (the walk
    starts from n = 1 with last = -1).  Yields (products, nu + 1) chunks of at
    most TERMS_CHUNK of the products n * q, each followed by its extensions.
    """
    counts = np.searchsorted(primes, x // n, side="right") - last - 1  # not negative: x // n > primes[last]
    ends = np.cumsum(counts)
    first = last + 1 - (ends - counts)  # the product at flat index i, of parent k, takes primes[first[k] + i]
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, TERMS_CHUNK):
        i = np.arange(lo, min(lo + TERMS_CHUNK, total))
        k = np.searchsorted(ends, i, side="right")
        child_last = np.add(i, first[k], out=i)
        q = primes[child_last]
        children = n[k] * q
        yield children, nu + 1
        more = children <= x // (q + 1)  # the products that a later prime still extends
        yield from _extend(primes, x, children[more], child_last[more], nu + 1)


def _ie_floor_sum(terms: np.ndarray, x: int, workers: int = 1) -> int:
    """Sum of mu(n) * 2^nu(n) * floor(x/n) over TERM records; integer-exact, so any partition merges equally."""
    k = pool_size(workers, len(terms))
    return sum(parallel_map(_ie_floor_chunk, [(x, terms[i::k]) for i in range(k)], k))


def _ie_floor_chunk(args: tuple[int, np.ndarray]) -> int:
    # One int64 sum per slice of records: each term (-2)**nu * (x // n) is at
    # most x in magnitude, since n >= 2**nu, so a slice's sum is below
    # _RECORDS_SLICE * x (2.4e12 at level 23, far below 2**63) and the slices
    # add as Python ints.
    x, terms = args
    total = 0
    for lo in range(0, terms.size, _RECORDS_SLICE):
        part = terms[lo : lo + _RECORDS_SLICE]
        floors = np.floor_divide(x, part["n"])
        total += int(np.multiply(floors, _WEIGHTS[part["nu"]], out=floors).sum())
    return total


def _ie_sum(tail_primes: np.ndarray, x: int, workers: int = 1) -> int:
    """Sum of mu(n) * 2^nu(n) * floor(x/n) over the squarefree products 1 < n <= x of the ascending distinct tail_primes.

    Split at t = isqrt(x) (Meissel-Lehmer): two primes above t multiply past x,
    so n is a product s of the primes up to t, or s * l with one prime l > t,
    and f(s * l) = -2 f(s) for f = (-2)**nu.  Only the terms s are built; the
    s * l add up to -2 * sum f(s) * F(x // s) over s = 1 and s <= x // (t + 1), with
    F(y) = sum_{t < l <= y} y // l = sum_{k <= y // (t+1)} k * (pi(y // k) - pi(max(y // (k+1), t)))
    and pi counting the given primes only.  Each |f(s) * F(x // s)| <= x (2**nu(s) <= s,
    and 1/l over the primes in (t, x] adds to under 1), so the int64 sum holds while x**1.5 < 2**63.
    """
    primes = np.asarray(tail_primes, dtype=np.int64)
    t = math.isqrt(x)
    terms = squarefree_terms(primes[: np.searchsorted(primes, t, side="right")], x)
    first = _ie_floor_sum(terms, x, workers)
    s = terms[terms["n"] <= x // (t + 1)]  # the s > 1 that a prime above t still extends
    y, f = np.append(x, x // s["n"]), np.append(1, _WEIGHTS[s["nu"]])
    ks = y // (t + 1)  # F(y) has y // (t + 1) steps k, none when y <= t
    at = np.repeat(np.arange(y.size), ks)
    k = np.arange(at.size) - np.repeat(np.cumsum(ks) - ks, ks) + 1  # 1..ks[i] for each y[i]
    yk, pi = y[at], functools.partial(np.searchsorted, primes, side="right")
    return first - 2 * int((f[at] * k * (pi(yk // k) - pi(np.maximum(yk // (k + 1), t)))).sum())


def _tree_sum(values: list, op):
    """op folded over a non-empty list pairwise: op(op(v0, v1), op(v2, v3)) and so on.

    Each step meets operands of like size, where a left-to-right fold would
    carry an ever larger denominator or product into every step.
    """
    while len(values) > 1:
        odd_one_out = values[len(values) & ~1 :]
        values = [op(a, b) for a, b in zip(values[::2], values[1::2])] + odd_one_out
    return values[0]


@dataclass(frozen=True)
class LegendreReport:
    """Inclusion-exclusion estimate at one level, with oracle truth when in range.

    estimate = R0 + ie_sum exactly; residuals are estimate minus each oracle
    count, or None when 6x+1 (resp. 6L+1) exceeds the sieve ceiling.
    """

    p_j: int
    p_next: int
    M: int
    x: int
    R0: int
    ie_sum: int
    estimate: int
    oracle_pi2: int | None
    oracle_window: int | None
    residual_pi2: int | None
    residual_window: int | None


def legendre_pi2(
    p_j: int, *, ceiling: int = DEFAULT_CEILING, workers: int = 1
) -> LegendreReport:
    """Evaluate the sieve estimate R0 + sum mu(n) 2^nu(n) floor(x/n) at x = L - M.

    The two oracle counts answer the two readings of what is estimated: twin
    ranks up to x (pi2 of 6x+1) and twin ranks in the whole period [1, L].
    The second is the first plus the M twin-rank candidates in (x, L], so
    only those are sieved again.
    """
    check_level(p_j, "legendre_pi2", 7, LEGENDRE_GUARD)
    row = counts_row(p_j)
    x = row.x
    ie_sum = _ie_sum(prime_array(p_j, x), x, workers)
    estimate = row.R + ie_sum

    oracle_pi2 = pi2_exact(6 * x + 1, ceiling=ceiling) if 6 * x + 1 <= ceiling else None
    oracle_window = None
    if oracle_pi2 is not None and 6 * row.L + 1 <= ceiling:
        oracle_window = oracle_pi2 + pi2_exact(6 * row.L + 1, ceiling=ceiling, first_rank=x + 1)
    return LegendreReport(
        p_j=p_j,
        p_next=row.p_next,
        M=row.M,
        x=x,
        R0=row.R,
        ie_sum=ie_sum,
        estimate=estimate,
        oracle_pi2=oracle_pi2,
        oracle_window=oracle_window,
        residual_pi2=None if oracle_pi2 is None else estimate - oracle_pi2,
        residual_window=None if oracle_window is None else estimate - oracle_window,
    )


@dataclass(frozen=True)
class MainTermReport:
    """Main/error split of the estimate, in two exact forms plus the asymptote.

    R_M_sum replaces floor(x/n) by x/n; R_M_product is the closed product form.
    The two are generally unequal at finite x, so their gap is reported, never
    asserted away.  R_E = estimate - R_M_sum.
    """

    p_j: int
    x: int
    R_M_sum: Fraction
    R_M_product: Fraction
    R_E: Fraction
    asymptote: float


def main_term(p_j: int) -> MainTermReport:
    """Exact-rational main term at level p_j, both forms, with the asymptote."""
    check_level(p_j, "main_term", 7, MAINTERM_GUARD)
    row = counts_row(p_j)
    R0, x = row.R, row.x
    tail_primes = prime_array(p_j, x)
    terms = squarefree_terms(tail_primes, x)
    pairs = zip(terms["n"].tolist(), terms["nu"].tolist())
    rm_sum = _tree_sum([Fraction(R0)] + [Fraction((-2) ** nu * x, n) for n, nu in pairs], operator.add)
    estimate = R0 + _ie_sum(tail_primes, x)

    # R0 * tail + M * (1 - tail), tail = prod_{p_j<q<=x} (q-2)/q, taken as M + (R0 - M) * tail.
    num, den, _ = _reduced_ratio(tail_primes)
    rm_product = row.M + (R0 - row.M) * _coprime_fraction(num, den)

    return MainTermReport(
        p_j=p_j,
        x=x,
        R_M_sum=rm_sum,
        R_M_product=rm_product,
        R_E=estimate - rm_sum,
        asymptote=asymptotic_density(x),
    )


def twin_prime_constant(tolerance: float = 1e-6) -> float:
    """Truncated product for c2 = prod_{p>2} (1 - 1/(p-1)^2), within tolerance.

    The cutoff P satisfies sum_{p>P} 2/p^2 < tolerance: each dropped log factor
    is below 2/p^2 in magnitude, and since every prime > 3 is +-1 (mod 6) the
    prime sum is below sum over n = 6k+-1 > P of 2/n^2 < 2/(3(P-6)).
    """
    if not 1e-12 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 1e-12, got {tolerance}")
    cutoff = int(2.0 / (3.0 * tolerance)) + 7
    if cutoff > C2_GUARD:
        raise CapacityError(f"tolerance {tolerance} needs primes up to {cutoff}, above {C2_GUARD}")
    return _c2_partial(cutoff)


# Blocks per pool item of the c2 product: about 6.7e7 numbers, 0.1 s of
# sieving, so c2 --tol 1e-7 (2 blocks) and 1e-8 (16) stay in-process, where a
# pool's start-up would cost more than it saves.
C2_CHUNK_BLOCKS = 16


@functools.lru_cache(maxsize=8)
def _c2_partial(cutoff: int) -> float:
    # The float sum is pinned by the block edges: one numpy pairwise sum per
    # block of primes in [3 + k*SPAN, 3 + (k+1)*SPAN), added in block order.
    # Other block edges or a single array would round differently and change c2
    # in its last bits, and with it every mainterm asymptote and
    # reports/density_ratios.csv.  How the blocks are split into contiguous runs
    # among processes does not change a bit.
    blocks = len(range(3, cutoff + 1, SPAN))
    k = pool_size(os.cpu_count() or 1, blocks // C2_CHUNK_BLOCKS)
    edges = [3 + blocks * i // k * SPAN for i in range(k + 1)]
    runs = [(min(hi - 1, cutoff), lo) for lo, hi in zip(edges, edges[1:])]
    log_sum = 0.0
    for run_sums in parallel_map(_c2_block_sums, runs, k):
        for block_sum in run_sums:
            log_sum += block_sum
    return math.exp(log_sum)


# Primes per slice of _c2_block_sums' cast of p - 1.0 into the primes' own
# buffer.  A cast whose output overlaps its input makes numpy copy the input
# first; a slice bounds that copy at 32 KB, where one whole-block cast copies the
# whole block, the very column this buffer saves (2.4 MB at block 0).
C2_CAST_SLICE = 4096


def _c2_block_sums(run: tuple[int, int]) -> list[float]:
    """One pairwise sum of log(1 - 1/(p-1)^2) per block of odd_prime_blocks(hi, lo), for run = (hi, lo).

    Each block's terms are made in its primes' own buffer: d views the int64
    primes as float64, p - 1.0 is cast into it C2_CAST_SLICE primes at a time
    (each slice is read before it is written), then squared, divided and
    log1p'd in place, the same IEEE operations in the same order as on a
    separate column, so every block sum keeps its bits.  The block is dropped
    before the stream sieves the next one, so a run holds at most one block's
    flags and primes.
    """
    hi, lo = run
    sums = []
    for block in odd_prime_blocks(hi, lo):
        d = block.view(np.float64)
        for i in range(0, d.size, C2_CAST_SLICE):
            np.subtract(block[i : i + C2_CAST_SLICE], 1.0, out=d[i : i + C2_CAST_SLICE], dtype=np.float64)
        sums.append(float(np.log1p(np.divide(-1.0, np.square(d, out=d), out=d), out=d).sum()))
        del block, d
    return sums


def hardy_littlewood_constant(tolerance: float = 1e-6) -> float:
    """2*c2, the pair-counting constant the asymptote is usually quoted against."""
    return 2.0 * twin_prime_constant(tolerance)


def asymptote_coefficient(tolerance: float = 1e-9) -> float:
    """Leading coefficient of the main term in the form coef * 6x / ln^2(6x+1).

    Equals 2*c2*e^(-2*gamma) (about 0.416214): the product over primes >= 5 of
    (1 - 2/p) behaves like 3 * 4*c2*e^(-2*gamma)/ln^2 x, and L/(6x) -> 1/6,
    leaving a factor 2 next to c2*e^(-2*gamma).
    """
    return 2.0 * twin_prime_constant(tolerance) * math.exp(-2.0 * EULER_GAMMA)


def asymptotic_density(x: int, *, tolerance: float = 1e-9) -> float:
    """Asymptotic main-term value coef * 6x / ln^2(6x+1) at integer x >= 2."""
    if x < 2:
        raise DomainError(f"asymptotic_density needs x >= 2, got {x}")
    return asymptote_coefficient(tolerance) * (6.0 * x) / math.log(6 * x + 1) ** 2
