"""Frozen reference lists used across the test suite, and slow reference functions.

All values were verified against independent brute-force computation before
being frozen here (see the adjacent tests, which re-derive each list).
"""

import math
from fractions import Fraction

import numpy as np

from twinsieve.arith import primes_between
from twinsieve.classify import (
    NON_RANK,
    SIDE_MINUS,
    SIDE_PLUS,
    SIGN_MINUS,
    SIGN_PLUS,
    TWIN_RANK,
    Classification,
    classify,
)
from twinsieve.errors import DomainError
from twinsieve.oracle import sieve_segment
from twinsieve.primality import is_prime, nsix, rough_least_prime, trial_factor


def slow_smallest_prime_factor(n: int) -> int:
    """Least prime factor of n >= 2 by trial division over 2 and every odd d."""
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def slow_prime_blocks(hi: int):
    """The primes in (2, hi] as int64 arrays over [3 + k*2**22, 3 + (k+1)*2**22), from full-flag oracle segments."""
    span = 1 << 22
    for seg_lo in range(3, hi + 1, span):
        yield np.flatnonzero(~sieve_segment(seg_lo, min(seg_lo + span, hi + 1))) + seg_lo


def slow_c2_partial(cutoff: int) -> float:
    """The truncated c2 product over slow_prime_blocks, summed the way counting sums it."""
    log_sum = 0.0
    for block in slow_prime_blocks(cutoff):
        ps = block.astype(np.float64)
        log_sum += float(np.log1p(-1.0 / ((ps - 1.0) ** 2)).sum())
    return math.exp(log_sum)


def three_mask_remnants(p: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """remnants_below's (remnants, intruders) by three masks over the least parents, each parent from classify.

    The parents' dtype is that of remnants_below: the least unsigned one that
    holds the largest prime up to max(p, sqrt(6*bound - 5)).
    """
    top = max(primes_between(4, max(p, math.isqrt(6 * (bound - 1) + 1))))
    lp = np.array([classify(v).parent or 0 for v in range(1, bound)], dtype=np.min_scalar_type(top))
    intruder = lp > p
    remnants = np.flatnonzero(intruder | (lp == 0)) + 1
    hits = np.flatnonzero(intruder)
    intruders = np.empty(hits.size, dtype=[("value", np.int64), ("parent", lp.dtype)])
    intruders["value"], intruders["parent"] = hits + 1, lp[hits]
    return remnants, intruders


def slow_counts_fields(p: int) -> tuple:
    """counts_row(p)'s (L, G, q, S, Q, R, x_frac), each product left to right and each fraction reduced from scratch."""
    levels = (np.flatnonzero(~sieve_segment(5, p + 1)) + 5).tolist()
    L = math.prod(levels)
    R = math.prod(q - 2 for q in levels)
    G = 2 * math.prod(q - 2 for q in levels[:-1])
    return L, G, Fraction(G, L), L - R, Fraction(L - R, L), R, Fraction(R, L)


def slow_squarefree_terms(tail_primes: list[int], x: int) -> list[tuple[int, int]]:
    """Every squarefree product n <= x of the ascending distinct tail_primes (n = 1 excluded), as ascending (n, nu) pairs, by recursion."""
    out: list[tuple[int, int]] = []

    def extend(start: int, n: int, nu: int) -> None:
        for i in range(start, len(tail_primes)):
            v = n * tail_primes[i]
            if v > x:
                break
            out.append((v, nu + 1))
            extend(i + 1, v, nu + 1)

    extend(0, 1, 0)
    out.sort()
    return out


def level_squarefree_terms(tail_primes, x: int) -> np.ndarray:
    """squarefree_terms' TERM records built level by level, as counting built them before it went depth-first.

    Level nu holds the products of nu primes and the index of each product's
    largest prime; level nu + 1 extends each product n by every later prime
    q <= x // n.  All levels, their index arrays and the argsort order are held
    at once.
    """
    from twinsieve.counting import TERM

    primes = np.asarray(tail_primes, dtype=np.int64)
    last = np.arange(np.searchsorted(primes, x, side="right"))
    n = primes[last]
    levels = []
    while n.size:
        levels.append(n)
        counts = np.maximum(np.searchsorted(primes, x // n, side="right") - last - 1, 0)
        starts = np.cumsum(counts) - counts
        last = np.arange(starts[-1] + counts[-1]) + np.repeat(last + 1 - starts, counts)
        n = np.repeat(n, counts) * primes[last]
    nu = np.repeat(np.arange(1, len(levels) + 1, dtype=np.int8), [level.size for level in levels])
    n = np.concatenate(levels or [n])
    order = np.argsort(n)
    terms = np.empty(n.size, dtype=TERM)
    terms["n"] = n[order]
    terms["nu"] = nu[order]
    return terms


def nu_floor_sum(terms: np.ndarray, x: int) -> int:
    """sum mu(n) 2^nu(n) floor(x/n) over TERM records, one masked int64 sum per nu, as counting summed it before its slices."""
    n, nu = terms["n"], terms["nu"]
    return sum((-2) ** v * int((x // n[nu == v]).sum()) for v in range(1, int(nu.max(initial=0)) + 1))


def slow_rm_sum(R0: int, x: int, terms: list[tuple[int, int]]) -> Fraction:
    """main_term's exact R_M_sum = R0 + sum mu(n) 2^nu(n) x/n over (n, nu) terms, added left to right."""
    return Fraction(R0) + sum((Fraction((-1) ** nu * 2**nu * x, n) for n, nu in terms), Fraction(0))


def slow_rm_product(R0: int, M: int, tail_primes: list[int]) -> Fraction:
    """main_term's exact R_M_product = R0 * tail + M * (1 - tail), tail = prod (q-2)/q multiplied left to right."""
    num_tail = den_tail = 1
    for q in tail_primes:
        num_tail *= q - 2
        den_tail *= q
    tail = Fraction(num_tail, den_tail)
    return R0 * tail + M * (1 - tail)


SIGN_VALUE = {"+": 1, "-": -1}


def member_pairs(family) -> list[tuple[str, int]]:
    """A family's members as the (signs, residue) pairs crt_family returned before its members became records."""
    return list(zip(family.sign_strings(family.members), family.members["residue"].tolist()))


def slow_nested_form(primes, signs, residue: int, outer_index: int = 0) -> str:
    """A residue's text with primes[outer_index] outermost, each sign and congruence checked first.

    The per-member form nested_form had before it wrote a whole family from one
    template: the coefficients are taken one prime at a time, and the text is
    nested one level at a time from the innermost radix outwards.
    """
    ps = list(primes)
    sg = list(signs)
    if len(ps) != len(sg) or len(ps) < 2:
        raise DomainError("nested form needs at least two primes with matching signs")
    if not 0 <= outer_index < len(ps):
        raise DomainError(f"outer_index {outer_index} out of range")
    for q, s in zip(ps, sg):
        if s not in SIGN_VALUE:
            raise DomainError(f"bad sign {s!r}")
        if residue % q != (SIGN_VALUE[s] * nsix(q)) % q:
            raise DomainError(f"residue {residue} is not {s}N({q}/6) (mod {q})")
    outer = ps[outer_index]
    offset = SIGN_VALUE[sg[outer_index]] * nsix(outer)
    body = (residue - offset) // outer
    rest = [q for i, q in enumerate(ps) if i != outer_index]
    inner: list[tuple[int, int]] = []
    for q in rest[:-1]:
        inner.append((q, body % q))
        body //= q
    inner.append((rest[-1], body))
    expr = "n"
    for q, r in reversed(inner):
        expr = f"{q}*({expr}) + {r}" if expr != "n" else f"{q}*n + {r}"
    return f"{outer}*({expr}) {sg[outer_index]} {abs(offset)}"


def slow_classify(m: int) -> Classification:
    """classify with every composite side factored in full: parent = min of their least prime factors.

    Each least factor comes from the scalar path, trial_factor then rough_least_prime, never
    from the least-factor table, so below its cap this checks the table rather than itself.
    """
    minus, plus = 6 * m - 1, 6 * m + 1
    minus_prime, plus_prime = is_prime(minus), is_prime(plus)
    if minus_prime and plus_prime:
        return Classification(m, TWIN_RANK)
    sides = []
    if not minus_prime:
        sides.append((trial_factor(minus) or rough_least_prime(minus), SIDE_MINUS))
    if not plus_prime:
        sides.append((trial_factor(plus) or rough_least_prime(plus), SIDE_PLUS))
    parent = min(spf for spf, _ in sides)
    off = nsix(parent)
    if m % parent == off % parent:
        sign, kappa = SIGN_PLUS, (m - off) // parent
    else:
        sign, kappa = SIGN_MINUS, (m + off) // parent
    return Classification(m, NON_RANK, parent, tuple(side for _, side in sides), sign, kappa)


# Twin ranks m <= 18 (6m-1, 6m+1 both prime), their indices 6m, and the
# complementary non-ranks up to 19.
TWIN_RANKS_TO_18 = [1, 2, 3, 5, 7, 10, 12, 17, 18]
TWIN_INDICES_TO_108 = [6, 12, 18, 30, 42, 60, 72, 102, 108]
NON_RANKS_TO_19 = [4, 6, 8, 9, 11, 13, 14, 15, 16, 19]

# Admissible residue classes mod 5 and mod 35.
C5 = [0, 2, 3]
C7 = [0, 2, 3, 5, 7, 10, 12, 17, 18, 23, 25, 28, 30, 32, 33]

# Level-11 constants as printed in the source list: the 135 residue classes
# mod 385 plus the boundary value 2 = N(11/6), which is a twin rank (11, 13)
# sitting inside 11's struck class (its n = 0 offset).
C11_REFERENCE = [
    0, 2, 3, 5, 7, 10, 12, 17, 18, 23, 25, 28, 30, 32, 33, 37, 38, 40,
    45, 47, 52, 58, 60, 63, 65, 67, 70, 72, 73, 77, 80, 82, 87, 88, 93, 95, 98, 100, 102, 103,
    105, 107, 110, 115, 117, 122, 128, 133, 135, 137, 138, 140, 142, 143, 147, 150, 157,
    158, 165, 168, 170, 172, 173, 175, 177, 180, 182, 187, 192, 193, 198, 203, 205, 208,
    210, 212, 213, 215, 217, 220, 227, 228, 235, 238, 242, 243, 245, 247, 248, 250, 252,
    257, 263, 268, 270, 275, 278, 280, 282, 283, 285, 287, 290, 292, 297, 298, 303, 305,
    308, 312, 313, 315, 318, 320, 322, 325, 327, 333, 338, 340, 345, 347, 348, 352, 353,
    355, 357, 360, 362, 367, 368, 373, 375, 378, 380, 382,
]

# The pure class-level list drops the boundary value 2.
C11_CLASSES = [c for c in C11_REFERENCE if c != 2]

# Intruders among the level-11 constants: non-ranks whose parent exceeds 11.
INTRUDERS_11 = {28: 13, 37: 13, 60: 19, 63: 13, 65: 17, 67: 13, 73: 19}

# Initial non-ranks with parent prime 7 (one period of 35).
A7_INITIAL = [8, 13, 15, 20, 22, 27]

# Remnants below 748 at sieve level 61: all of them twin ranks.
REMNANTS_61_BELOW_748 = [
    1, 2, 3, 5, 7, 10, 12, 17, 18, 23, 25, 30, 32, 33, 38, 40, 45, 47, 52, 58,
    70, 72, 77, 87, 95, 100, 103, 107, 110, 135, 137, 138, 143, 147, 170, 172, 175, 177,
    182, 192, 205, 213, 215, 217, 220, 238, 242, 247, 248, 268, 270, 278, 283, 287, 298,
    312, 313, 322, 325, 333, 338, 347, 348, 352, 355, 357, 373, 378, 385, 390, 397, 425,
    432, 443, 448, 452, 455, 465, 467, 495, 500, 520, 528, 542, 543, 550, 555, 560, 562,
    565, 577, 578, 588, 590, 593, 597, 612, 628, 637, 642, 653, 655, 667, 670, 675, 682,
    688, 693, 703, 705, 707, 710, 712, 723, 737, 747,
]

# The eight simultaneous non-rank residues of {5, 7, 11} mod 385, keyed by the
# signs s5 s7 s11; includes the worked member 64 = "-+-".
TRIPLE_FAMILY_5_7_11 = {
    "-+-": 64,
    "-++": 134,
    "++-": 141,
    "---": 174,
    "+++": 211,
    "--+": 244,
    "+--": 251,
    "+-+": 321,
}
