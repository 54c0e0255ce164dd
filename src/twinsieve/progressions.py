"""Admissible residue systems modulo primorials, one prime's non-ranks and multi-prime non-rank families.

Every non-rank is n*q +- N(q/6) with n >= 1, so the engine's one strike
kernel, arith._strike, sieves ranks directly in its merged layout, one entry
per rank, and with the primes in descending order tags each with its least
parent prime.  Both views of a sieve level p come from it and differ only in
the n = 0 offsets N(q/6): remnants_below, the value-level view, strikes from
n = 1 and so keeps them (1, 2, 3, 5, ... when they are twin ranks), as a true
interval sieve does; residue_set, the class-level view over one period L(p),
strikes from rank 0 and so drops them, leaving the prod (q-2) classes the
counting identities are about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arith import _strike, prime_array
from .classify import SIGN_MINUS, SIGN_PLUS, classify
from .counting import check_level, counts_row, m_bound
from .errors import CapacityError, DomainError
from .primality import is_prime, next_prime, nsix

MATERIALIZE_GUARD = 10**8
# Largest level residue_set materializes: C_23 holds 7,952,175 residues and
# C_29 214,708,725, above MATERIALIZE_GUARD.
RESIDUE_GUARD = 23
# Ranks per strike in residue_set: the constants are preallocated, so its peak
# is them and one chunk (a bool chunk and its survivors' int64 offsets).
RESIDUE_CHUNK = 1 << 18
# Largest bound remnants_below accepts: remnants --level 61 --bound 10^7 takes
# 1.8-2.1 s at 70 MB on a 2-vCPU host (72 MB with --emit csv), its 98.7 MB
# envelope written in batches from the report's int64 columns (100 MB while
# three masks sat beside the least parents, 4.3 s at 298 MB when the columns
# were tuples).
REMNANTS_GUARD = 10**7


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """Residues c in [0, L(p)) with c mod q not in {+-N(q/6)} for all 5 <= q <= p.

    constants is an ascending int64 array of size prod (q-2); the progressions
    6*(L(p)*n + c) +- 1 carry every twin pair beyond (3,5) and (5,7).
    """

    p: int
    modulus: int
    constants: np.ndarray

    def __len__(self) -> int:
        return int(self.constants.size)

    def __contains__(self, c: int) -> bool:
        i = int(np.searchsorted(self.constants, c))
        return i < len(self) and int(self.constants[i]) == c


def residue_set(p: int) -> ResidueSet:
    """The admissible residue classes at level p: one period's survivors, less the n = 0 offsets.

    The period is struck RESIDUE_CHUNK ranks at a time, each chunk's survivors
    written into the preallocated counts_row(p).R constants; a strike that
    leaves another count raises RuntimeError.
    """
    check_level(p)
    if p > RESIDUE_GUARD:
        raise CapacityError(f"C_{p} holds more than {MATERIALIZE_GUARD} residues above level {RESIDUE_GUARD}; "
                            "use remnants_below for interval queries")
    row, primes = counts_row(p), prime_array(4, p)
    constants, count = np.empty(row.R, dtype=np.int64), 0
    for r_lo in range(0, row.L, RESIDUE_CHUNK):  # from rank 0: the first chunk strikes n = 0 too
        struck = _strike(np.zeros(min(RESIDUE_CHUNK, row.L - r_lo), dtype=bool), r_lo, primes, r_lo, merged=True)
        hits = np.flatnonzero(np.logical_not(struck, out=struck))
        if count + hits.size <= row.R:
            np.add(hits, r_lo, out=constants[count : count + hits.size])
        count += hits.size
    if count != row.R:
        raise RuntimeError(f"the level-{p} strike leaves {count} residues, not R = {row.R}")
    return ResidueSet(p=p, modulus=row.L, constants=constants)


def inductive_step(current: ResidueSet, p_next: int) -> ResidueSet:
    """Lift the level-p classes through l = 0..p_next-1 and drop the two hit classes.

    Equals residue_set(p_next) elementwise; kept as an independent construction
    so the two can cross-check each other.
    """
    if counts_row(current.p).p_next != p_next:
        raise DomainError(f"{p_next} does not follow level {current.p}")
    if len(current) * (p_next - 2) > MATERIALIZE_GUARD:
        raise CapacityError(f"lift to level {p_next} exceeds {MATERIALIZE_GUARD} residues")
    lifts = (
        np.arange(p_next, dtype=np.int64)[:, None] * current.modulus + current.constants[None, :]
    ).ravel()
    off = nsix(p_next)
    r = lifts % p_next
    keep = (r != off) & (r != p_next - off)
    return ResidueSet(
        p=p_next, modulus=current.modulus * p_next, constants=np.sort(lifts[keep])
    )


def boundary_twin_ranks(p: int) -> list[int]:
    """Twin ranks equal to N(q/6) for primes 7 <= q <= p.

    These are the n = 0 offsets: each sits inside a struck residue class of its
    own q but is not an actual non-rank, so the value-level sieve keeps it.
    The rank 1 (pair 5, 7) is excluded: level 5 strikes its full classes, so 1
    never enters any constants list.
    """
    check_level(p)
    offsets = {nsix(q) for q in prime_array(6, p).tolist()}
    return sorted(v for v in offsets if v % 5 not in (1, 4) and classify(v).is_twin_rank)


@dataclass(frozen=True, eq=False)
class RemnantReport:
    """Integers in [1, bound) that no prime 5 <= q <= p strikes as a non-rank value.

    front_bound is (p_next**2 - 1)/6; remnants below it are necessarily twin
    ranks (the front), remnants at or above it are twin ranks or intruders
    (non-ranks whose parent exceeds p), the latter tagged with their parents.
    remnants and front_twin_ranks are ascending int64 arrays, intruders an
    array of (value, parent) records ascending by value.
    """

    p: int
    bound: int
    front_bound: int
    remnants: np.ndarray
    front_twin_ranks: np.ndarray
    intruders: np.ndarray


def remnants_below(p_sieve: int, bound: int) -> RemnantReport:
    """Value-level remnants in [1, bound), split at the front threshold.

    The kernel runs with the primes up to max(p, sqrt(6*bound - 5)), which
    covers the least prime factor of every composite side, so a rank's least
    parent is classify's parent: above p for an intruder, 0 for a twin rank.
    One mask over the least parents, less one in place, picks the remnants.
    """
    check_level(p_sieve)
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    if bound > REMNANTS_GUARD:
        raise CapacityError(f"remnants bound {bound} exceeds {REMNANTS_GUARD}")
    front_bound = m_bound(next_prime(p_sieve))  # the level's M, without building its period
    primes = prime_array(4, max(p_sieve, math.isqrt(6 * (bound - 1) + 1)))[::-1]  # descending: the least writes last
    lp = np.zeros(bound - 1, dtype=np.min_scalar_type(int(primes[0])))  # lp[v - 1]: the least parent of v, 0 if none
    _strike(lp, 1, primes, primes - (primes + 1) // 6, merged=True)  # from q - N(q/6), the least n = 1 value
    if bound > 1 and (classify(bound - 1).parent or 0) != lp[-1]:  # spot-check where the prime bound is tightest
        raise RuntimeError(f"least parent of {bound - 1} disagrees with classify")
    lp -= 1  # a twin rank's 0 wraps to the dtype's top, which is above p_sieve and no prime: 255, 2**16 - 1, 2**32 - 1
    remnants = np.flatnonzero(lp >= p_sieve)  # parent above p_sieve, or none
    parents, top = lp[remnants], np.iinfo(lp.dtype).max
    del lp  # the remnants' parents are all that is read of it
    remnants += 1
    intruder = parents != top
    intruders = np.empty(np.count_nonzero(intruder), dtype=[("value", np.int64), ("parent", parents.dtype)])
    intruders["value"], intruders["parent"] = remnants[intruder], parents[intruder] + 1
    return RemnantReport(
        p=p_sieve,
        bound=bound,
        front_bound=front_bound,
        remnants=remnants,
        front_twin_ranks=remnants[: np.searchsorted(remnants, front_bound)],
        intruders=intruders,
    )


# nonranks_of's records: the value, its n and the sign of N(p/6).
NONRANK = np.dtype([("value", np.int64), ("n", np.int64), ("sign", "U1")])
NONRANK_OBJECT = np.dtype([("value", object), ("n", np.int64), ("sign", "U1")])  # values of 2**63 and up

# Most terms nonranks_of generates: nonranks --prime 5 --limit 2500000, 10^6
# terms, takes 1.2-1.3 s at 53 MB on a 2-vCPU host (an 87 MB envelope; 74 MB
# while whole-length temporaries built the columns, 4.5 s at 259 MB with one
# dataclass per term).
NONRANKS_GUARD = 10**6


def nonranks_of(p: int, limit: int) -> np.ndarray:
    """All non-rank values n*p +- N(p/6) <= limit with n >= 1, ascending, as NONRANK records.

    N(p/6) < p/2, so the two progressions interleave: n*p - N(p/6) comes
    before n*p + N(p/6), which comes before (n+1)*p - N(p/6).  The value
    column is int64 unless a value could reach 2**63, and then holds Python
    ints.  The n = 0 offsets are twin ranks when the companion of p is prime,
    so they are not generated here (rank_from_prime covers them).  Raises
    CapacityError, before generating any, when there would be more than
    NONRANKS_GUARD terms.
    """
    off = nsix(p)  # validates p
    count = max(0, (limit + off) // p) + max(0, (limit - off) // p)
    if count > NONRANKS_GUARD:
        raise CapacityError(f"{count} non-ranks of {p} up to {limit} exceed {NONRANKS_GUARD}")
    exact = max(limit + off, p) < 2**63
    terms = np.empty(count, dtype=NONRANK if exact else NONRANK_OBJECT)
    n, value, sign = terms["n"], terms["value"], terms["sign"]  # views: every column is filled in place
    n[0::2] = np.arange(1, (count + 1) // 2 + 1)  # the minus terms; the plus term after each shares its n
    n[1::2] = n[0::2][: count // 2]
    np.multiply(n if exact else n.astype(object), p, out=value)
    value[0::2] -= off
    value[1::2] += off
    sign[0::2], sign[1::2] = SIGN_MINUS, SIGN_PLUS
    return terms


# ProgressionFamily.members: sign bits and residue, the residue as Python ints where int64 could overflow.
FAMILY = np.dtype([("signs", np.uint32), ("residue", np.int64)])
FAMILY_OBJECT = np.dtype([("signs", np.uint32), ("residue", object)])
_SIGN_CHARS = np.frombuffer(b"+-", dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class ProgressionFamily:
    """The 2^m simultaneous non-rank progressions of m distinct primes.

    members is a FAMILY record array sorted by residue, or FAMILY_OBJECT when
    modulus + max(primes)**2 reaches 2**63.  A member's sign bits, read from
    bit m-1 down to bit 0, spell its signs over the primes in ascending order,
    1 for "-" ("-+-" is 0b101): residue = s_i * N(p_i/6) (mod p_i).
    """

    primes: tuple[int, ...]
    modulus: int
    members: np.ndarray

    def sign_strings(self, members: np.ndarray) -> list[str]:
        """The signs of members (a slice of self.members) as strings, one "+" or "-" per prime ascending."""
        m = len(self.primes)
        bits = (members["signs"][:, None] >> np.arange(m - 1, -1, -1, dtype=np.uint32)) & 1
        return _SIGN_CHARS[bits].view(f"S{m}").ravel().astype(f"U{m}").tolist()


def crt_family(primes: Sequence[int]) -> ProgressionFamily:
    """Simultaneous congruences residue = +-N(p/6) (mod p) for every sign vector.

    Each of the 2^m sign vectors has a unique residue mod prod(primes); every
    positive member of such a class, past the n = 0 offsets, is a non-rank of
    every prime in the list.  The residues come from Garner's mixed-radix CRT
    over the whole family at once: each prime q, ascending, doubles the column,
    r + P*d with d = (+-N(q/6) - r mod q) * P^-1 mod q and P the product of the
    primes before q, + before -, so a member's index before the one sort by
    residue is its sign bits.  The column is int64 when modulus + max(primes)**2
    is below 2**63 and Python ints otherwise, under the same numpy expressions;
    Python ints are sorted by their 62-bit limbs.
    """
    ps = sorted(primes)
    m = len(ps)
    if not 1 <= m <= 20:
        raise DomainError(f"need between 1 and 20 primes, got {m}")
    if len(set(ps)) != m:
        raise DomainError(f"primes must be distinct, got {list(primes)}")
    for q in ps:
        if q < 5 or not is_prime(q):
            raise DomainError(f"{q} is not a prime >= 5")
    modulus = math.prod(ps)
    exact = modulus + ps[-1] ** 2 < 2**63  # bounds r + P*d, (+-N(q/6) - r mod q) * P^-1 and nested_form's residue +- N
    r, P = np.zeros(1, dtype=np.int64 if exact else object), 1
    for q in ps:
        off, inv, rm = nsix(q), pow(P, -1, q), r % q
        d = np.stack([(off - rm) * inv % q, (-off - rm) * inv % q], axis=1)
        r, P = np.add(r[:, None], np.multiply(d, P, out=d), out=d).ravel(), P * q  # in place: one new value per member
    order = np.lexsort([r] if exact else [_limb(r, s) for s in range(0, modulus.bit_length(), 62)])
    members = np.empty(r.size, dtype=FAMILY if exact else FAMILY_OBJECT)
    members["signs"], members["residue"] = order, r[order]
    return ProgressionFamily(primes=tuple(ps), modulus=modulus, members=members)


def _limb(r: np.ndarray, shift: int) -> np.ndarray:
    """Bits shift..shift+61 of a column of non-negative Python ints, as int64."""
    bits = r >> shift
    return np.bitwise_and(bits, 2**62 - 1, out=bits).astype(np.int64)


def nested_form(family: ProgressionFamily, outer: int) -> Callable[[np.ndarray], list[str]]:
    """The texts of family's members with the prime outer outermost, as a function of a slice of family.members.

    A member reads outer*(q1*(q2*(...*(qk*n + r_k)...) + r_2) + r_1) +- N(outer/6),
    the remaining primes ascending, its coefficients the mixed-radix digits of
    (residue -+ N(outer/6)) / outer, so n = 0 gives the residue; the innermost
    coefficient may equal its own radix when the residue sits at the top of the
    period.  The digits come a slice at a time from the residue column by //
    and % (on int64 or on Python ints, as the column is), and fill one template
    that all members share.  The family and outer are checked here, before any
    text is made.
    """
    ps = family.primes
    if len(ps) < 2:
        raise DomainError(f"nested form needs a family of at least two primes, got {len(ps)}")
    if outer not in ps:
        raise DomainError(f"{outer} is not one of the family primes")
    k = ps.index(outer)
    *rest, last = ps[:k] + ps[k + 1 :]
    off, shift = nsix(outer), len(ps) - 1 - k  # shift: the outer prime's sign bit
    template = (f"{outer}*(" + "".join(f"{q}*(" for q in rest) + f"{last}*n + %d"
                + ") + %d" * len(rest) + f") %s {off}")

    def texts(members: np.ndarray) -> list[str]:
        minus = (members["signs"] >> shift) & 1
        body = (members["residue"] + np.where(minus, off, -off)) // outer
        digits = []
        for q in rest:
            digits.append((body % q).tolist())
            body = body // q
        return list(map(template.__mod__, zip(body.tolist(), *reversed(digits), np.where(minus, "-", "+").tolist())))

    return texts


def gap_pattern(p: int) -> tuple[int, int]:
    """The two gaps that alternate between consecutive sorted non-ranks of p."""
    off = nsix(p)
    return 2 * off, p - 2 * off
