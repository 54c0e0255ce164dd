"""Admissible residue systems modulo primorials and multi-prime non-rank families.

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
from operator import itemgetter
from typing import Sequence

import numpy as np

from .arith import _strike, is_prime, next_prime, nsix, prime_array
from .classify import classify
from .counting import check_level, counts_row, m_bound
from .errors import CapacityError, DomainError

MATERIALIZE_GUARD = 10**8
# Largest level residue_set materializes: C_23 holds 7,952,175 residues and
# C_29 214,708,725, above MATERIALIZE_GUARD.
RESIDUE_GUARD = 23
# Ranks per strike in residue_set: the constants are preallocated, so its peak
# is them and one chunk (a bool chunk and its survivors' int64 offsets).
RESIDUE_CHUNK = 1 << 20
# Largest bound remnants_below accepts: remnants --level 61 --bound 10^7 takes
# 2.5-3.6 s at 99 MB on a 2-vCPU host, its 98.7 MB envelope written in batches
# from the report's int64 columns (4.3 s at 298 MB when they were tuples).
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
    intruder = lp > p_sieve
    remnants = np.flatnonzero(intruder | (lp == 0)) + 1
    hits = np.flatnonzero(intruder)
    intruders = np.empty(hits.size, dtype=[("value", np.int64), ("parent", lp.dtype)])
    intruders["value"], intruders["parent"] = hits + 1, lp[hits]
    return RemnantReport(
        p=p_sieve,
        bound=bound,
        front_bound=front_bound,
        remnants=remnants,
        front_twin_ranks=remnants[: np.searchsorted(remnants, front_bound)],
        intruders=intruders,
    )


@dataclass(frozen=True, eq=False)
class ProgressionFamily:
    """The 2^m simultaneous non-rank progressions of m distinct primes.

    members are (signs, residue) pairs sorted by residue, signs one "+" or "-"
    per prime in ascending order ("+-+"): residue = s_i * N(p_i/6) (mod p_i).
    """

    primes: tuple[int, ...]
    modulus: int
    members: tuple[tuple[str, int], ...]


def crt_family(primes: Sequence[int]) -> ProgressionFamily:
    """Simultaneous congruences residue = +-N(p/6) (mod p) for every sign vector.

    Each of the 2^m sign vectors has a unique residue mod prod(primes); every
    positive member of such a class, past the n = 0 offsets, is a non-rank of
    every prime in the list.  In Gauss's form of the CRT the residue is
    sum s_i * N(p_i/6) * e_i (mod P), e_i the idempotent of p_i, so the family
    is every signed sum of m fixed components.
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
    signs = [""]
    sums = [0]
    for q in ps:  # each prime doubles both lists, + before -
        rest = modulus // q
        c = nsix(q) * rest * pow(rest, -1, q)  # N(q/6) * e_q
        signs = [sg + s for sg in signs for s in "+-"]
        sums = [r + v for r in sums for v in (c, -c)]
    members = sorted(zip(signs, (r % modulus for r in sums)), key=itemgetter(1))
    return ProgressionFamily(primes=tuple(ps), modulus=modulus, members=tuple(members))


def nested_form(family: ProgressionFamily, outer: int) -> tuple[str, ...]:
    """Every member of family as text with the prime outer outermost, in member order.

    A member reads outer*(q1*(q2*(...*(qk*n + r_k)...) + r_2) + r_1) +- N(outer/6),
    the remaining primes ascending, its coefficients the mixed-radix digits of
    (residue -+ N(outer/6)) / outer, so n = 0 gives the residue; the innermost
    coefficient may equal its own radix when the residue sits at the top of the
    period.  Only the digits and the sign change from member to member, so one
    template serves the whole family.
    """
    ps = family.primes
    if len(ps) < 2:
        raise DomainError(f"nested form needs a family of at least two primes, got {len(ps)}")
    if outer not in ps:
        raise DomainError(f"{outer} is not one of the family primes")
    k = ps.index(outer)
    *rest, last = ps[:k] + ps[k + 1 :]
    off = nsix(outer)
    template = (f"{outer}*(" + "".join(f"{q}*(" for q in rest) + f"{last}*n + {{}}"
                + ") + {}" * len(rest) + f") {{}} {off}")
    texts = []
    for signs, residue in family.members:
        sign = signs[k]
        body = (residue - off if sign == "+" else residue + off) // outer
        digits = []
        for q in rest:
            body, digit = divmod(body, q)
            digits.append(digit)
        texts.append(template.format(body, *reversed(digits), sign))
    return tuple(texts)


def gap_pattern(p: int) -> tuple[int, int]:
    """The two gaps that alternate between consecutive sorted non-ranks of p."""
    off = nsix(p)
    return 2 * off, p - 2 * off
