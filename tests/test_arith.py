import math
import operator
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twinsieve.arith as arith
import twinsieve.primality as primality
from twinsieve.arith import primes_between
from twinsieve.classify import classify
from twinsieve.counting import counts_row, squarefree_terms
from twinsieve.errors import CapacityError, DomainError
from twinsieve.oracle import sieve_segment, twin_ranks_up_to
from twinsieve.primality import is_prime, nearest_int, next_prime, nsix, smallest_prime_factor, trial_factor

from conftest import least_prime_factors, simple_sieve
from reference_lists import slow_smallest_prime_factor

REF_FLAGS = simple_sieve(100_000)
REF_PRIMES = [p for p, ok in enumerate(REF_FLAGS) if ok]
PRIMES_PAST_TRIAL = [p for p in REF_PRIMES if p > primality.TRIAL_BOUND]
SRC = Path(__file__).resolve().parents[1] / "src"
COLD_CACHE = (1, np.empty(0, dtype=np.int64))  # the prime cache before anything is sieved


def oracle_primes(lo: int, hi: int) -> list[int]:
    """Primes p with lo < p <= hi, for lo >= 1, from the oracle's own sieve."""
    return (np.flatnonzero(~sieve_segment(lo + 1, hi + 1)) + lo + 1).tolist()


class TestIsPrime:
    def test_agrees_with_reference_sieve(self):
        for n in range(20_000):
            assert is_prime(n) == REF_FLAGS[n], n

    def test_large_known_values(self):
        assert is_prime(2_147_483_647)  # 2**31 - 1
        assert not is_prime(2_147_483_649)
        assert is_prime(67_280_421_310_721)
        assert not is_prime(67_280_421_310_723)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            is_prime(1 << 64)


# The trial primes and the loop trial_factor ran before its gcd against the
# product of the primes to 211, with is_prime's trial division by the primes
# to 59 and one strong-pseudoprime test with the seven bases that are
# deterministic below 2**64: references that share no code with arith.
TRIAL_PRIMES = [p for p in REF_PRIMES if p < primality.TRIAL_BOUND]
BASES_BELOW_2_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
GCD_BELOWS = [2, 3, 5, 6, 7, 60, 61, 62, 211, 212, 223, 224, 1 << 16]


def loop_trial_factor(n: int, below: int = primality.TRIAL_BOUND) -> int:
    root = math.isqrt(n)
    for p in TRIAL_PRIMES:
        if p >= below:
            return 0
        if p > root:
            return n
        if n % p == 0:
            return p
    return 0


def loop_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in TRIAL_PRIMES[:17]:  # 2..59
        if n % p == 0:
            return n == p
    if n < 61 * 61:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in BASES_BELOW_2_64:
        x = pow(a % n, d, n)
        if a % n == 0 or x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestGcdPath:
    """is_prime and trial_factor, which start with one gcd against the product of the primes to 211."""

    def test_is_prime_agrees_with_the_oracle_sieve_below_2e6(self):
        want = ~sieve_segment(0, 2 * 10**6)
        got = np.fromiter(map(is_prime, range(2 * 10**6)), dtype=bool, count=want.size)
        assert not np.flatnonzero(got != want).tolist()

    @pytest.mark.parametrize("p", [193, 197, 199, 211, 223, 227, 229])
    def test_products_of_two_primes_around_211_and_223(self, p):
        # 223**2 = 49,729 is the least composite with no factor to 211.
        for q in (193, 197, 199, 211, 223, 227, 229):
            assert not is_prime(p * q)
            assert trial_factor(p * q) == min(p, q) == loop_trial_factor(p * q)
        assert is_prime(p)

    def test_trial_factor_equals_the_loop_below_60000(self):
        for below in GCD_BELOWS:
            got = [trial_factor(n, below) for n in range(2, 60_000)]
            assert got == [loop_trial_factor(n, below) for n in range(2, 60_000)], below

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=2, max_value=(1 << 64) - 1),
            # Multiples of a prime near the gcd's last prime, and n just past 223**2.
            st.builds(operator.mul, st.sampled_from(REF_PRIMES[40:60]), st.integers(min_value=1, max_value=1 << 55)),
            st.integers(min_value=223 * 223 - 500, max_value=223 * 223 + 500),
        ),
        st.sampled_from(GCD_BELOWS),
    )
    def test_random_n_below_2_64_equal_the_loops(self, n, below):
        assert is_prime(n) == loop_is_prime(n)
        assert trial_factor(n, below) == loop_trial_factor(n, below)


class TestPrimesBetween:
    @pytest.mark.parametrize(
        "lo,hi,expect",
        [(7, 15, [11, 13]), (1, 1, []), (61, 67, [67]), (4, 7, [5, 7]), (13, 13, [])],
    )
    def test_examples(self, lo, hi, expect):
        assert primes_between(lo, hi) == expect

    def test_matches_reference(self):
        assert primes_between(0, 50_000) == [p for p in REF_PRIMES if p <= 50_000]

    def test_initial_listing(self):
        assert primes_between(0, 100)[:3] == [2, 3, 5]

    def test_membership_and_count(self):
        primes = primes_between(0, 10_000)
        assert len(primes) == len([p for p in REF_PRIMES if p <= 10_000])
        for n in (2, 3, 9973, 4, 9999, 1):
            assert (n in primes) == REF_FLAGS[n]

    def test_strictly_increasing(self):
        primes = primes_between(0, 1000)
        assert all(a < b for a, b in zip(primes, primes[1:]))


class TestPrimeCache:
    """primes_between against the oracle's sieve from a cold cache: block edges, the 2^16 floor, regrowth."""

    @pytest.fixture(autouse=True)
    def cold_cache(self, monkeypatch):
        monkeypatch.setattr(arith, "_sieved", COLD_CACHE)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("below,above", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 0), (0, 2), (1000, 1000)])
    def test_ranges_straddling_a_block_edge(self, k, below, above):
        edge = 3 + k * arith.SPAN
        lo, hi = edge - below, edge + above
        assert primes_between(lo, hi) == oracle_primes(lo, hi)  # the cache ends at hi, just past the edge
        assert arith._sieved[0] == hi
        primes_between(0, 4 * arith.SPAN)
        assert primes_between(lo, hi) == oracle_primes(lo, hi)  # the edge inside the cache

    def test_the_2_16_floor(self):
        assert primes_between(0, 10) == [2, 3, 5, 7]
        assert arith._sieved[0] == 1 << 16
        assert primes_between((1 << 16) - 2000, 1 << 16) == oracle_primes((1 << 16) - 2000, 1 << 16)
        assert arith._sieved[0] == 1 << 16
        lo, hi = (1 << 16) - 1000, (1 << 16) + 1000
        assert primes_between(lo, hi) == oracle_primes(lo, hi)
        assert arith._sieved[0] == 1 << 17

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_after_regrowth(self, descending):
        his = [10, 1 << 16, (1 << 16) + 1, (1 << 17) + 5, 10**6, 3 + 2 * arith.SPAN, 3 * arith.SPAN + 7]
        his.sort(reverse=descending)
        limit = 1
        for hi in his:
            if hi > limit:
                limit = max(hi, 1 << 16, 2 * limit)
            lo = max(hi - 20_000, 1)
            assert primes_between(lo, hi) == oracle_primes(lo, hi), hi
            assert arith._sieved[0] == limit
            assert len(primes_between(0, hi)) == int(np.count_nonzero(~sieve_segment(0, hi + 1)))


P = arith.RANK_PERIOD
WINDOW_SIZES = [P - 1, P, P + 1, 2 * P + 1, arith.SPAN // 6 + 1]
WINDOW_STARTS = [0, P - 1, P, P + 1]  # rank 0, and the phases P - 1, 0 and 1 of the wheel


class TestCompositeFlags:
    """_composite_flags against the oracle's sieve, either side of one turn of the rank wheel."""

    @pytest.fixture(scope="class")
    def composite(self):
        return sieve_segment(0, 6 * (max(WINDOW_STARTS) + max(WINDOW_SIZES)) + 2)

    @pytest.mark.parametrize("r_lo", WINDOW_STARTS)
    @pytest.mark.parametrize("size", WINDOW_SIZES)
    def test_window_equals_the_oracle(self, composite, r_lo, size):
        base = arith._sieving_primes(math.isqrt(6 * (r_lo + size) + 1))
        sides = (6 * np.arange(r_lo, r_lo + size)[:, None] + [-1, 1]).ravel()  # entry 2(r - r_lo) + s
        want = composite[np.maximum(sides, 0)]
        if r_lo == 0:
            want[:2] = False  # rank 0's -1 and 1 stay clear
        assert np.array_equal(arith._composite_flags(r_lo, size, base), want)

    def test_a_window_shorter_than_one_period_builds_no_wheel(self):
        arith._rank_wheel.cache_clear()
        arith._composite_flags(P, P - 1, arith._sieving_primes(math.isqrt(12 * P)))
        list(arith.odd_prime_blocks(1 << 16))  # the 2**16 prime cache
        assert arith._rank_wheel.cache_info().currsize == 0
        arith._composite_flags(P, P, arith._sieving_primes(math.isqrt(12 * P)))
        assert arith._rank_wheel.cache_info().currsize == 1
        assert arith._rank_wheel().size == 2 * P  # one turn


class TestNearestInt:
    @pytest.mark.parametrize(
        "x,expect",
        [
            (Fraction(5, 6), 1),
            (Fraction(7, 6), 1),
            (Fraction(13, 6), 2),
            (Fraction(-5, 6), -1),
            (7, 7),
            (Fraction(1, 3), 0),
        ],
    )
    def test_examples(self, x, expect):
        assert nearest_int(x) == expect

    def test_half_integer_rejected(self):
        for x in (Fraction(1, 2), Fraction(-3, 2), Fraction(7, 2)):
            with pytest.raises(DomainError):
                nearest_int(x)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            nearest_int(0.5)

    @given(st.fractions(min_value=-1000, max_value=1000))
    def test_minimizes_distance(self, x):
        if x.denominator == 2:
            with pytest.raises(DomainError):
                nearest_int(x)
        else:
            r = nearest_int(x)
            assert abs(x - r) < Fraction(1, 2)


class TestNsix:
    @pytest.mark.parametrize("p,expect", [(5, 1), (7, 1), (11, 2), (13, 2), (61, 10), (67, 11)])
    def test_examples(self, p, expect):
        assert nsix(p) == expect

    @pytest.mark.parametrize("p", [2, 3, 4, 9, 25])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            nsix(p)

    def test_equals_nearest_int_and_brackets(self):
        for p in REF_PRIMES:
            if p < 5 or p > 10_000:
                continue
            off = nsix(p)
            assert off == nearest_int(Fraction(p, 6))
            assert 6 * off in (p - 1, p + 1)


def test_nsix_equality_iff_twin_pair():
    # Exhaustive over primes to 1e5: same nearest-integer value forces p' = p + 2.
    groups: dict[int, list[int]] = {}
    for p in REF_PRIMES:
        if p >= 5:
            groups.setdefault(nsix(p), []).append(p)
    for ps in groups.values():
        assert len(ps) <= 2
        if len(ps) == 2:
            assert ps[1] == ps[0] + 2
    for p in REF_PRIMES:
        if p >= 5 and p + 2 <= 100_000 and REF_FLAGS[p + 2]:
            assert nsix(p + 2) == nsix(p)


class TestPrimorial:
    """The period L(p) = 5*7*...*p of a sieve level, read from counts_row(p).L."""

    @pytest.mark.parametrize("p,expect", [(5, 5), (7, 35), (11, 385), (13, 5005)])
    def test_examples(self, p, expect):
        assert counts_row(p).L == expect

    def test_multiplicative_over_consecutive_primes(self):
        prev = None
        for p in REF_PRIMES:
            if p < 5 or p > 200:
                continue
            if prev is not None:
                assert counts_row(p).L == counts_row(prev).L * p
            prev = p

    @pytest.mark.parametrize("p", [2, 3, 4, 6])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            counts_row(p)

    def test_exceeds_64_bits_without_loss(self):
        # The running product at level 89 is already wider than 64 bits.
        v = counts_row(89).L
        assert v > 1 << 64
        assert v % 89 == 0 and v % 5 == 0


HARD_FACTORS = [
    (4294967279, 4294967291),  # the two largest primes below 2^32
    (4294967291, 4294967291),  # the largest prime below 2^32, squared
    (2097143, 2097143, 2097143),  # the largest prime below 2^21, cubed
    (1048583, 2097169, 4194301),  # three primes of 21, 22 and 22 bits
    (65521, 140737488355213),  # the largest trial prime times a 47-bit prime
    (65537, 140737488355213),  # the least prime past the trial bound, likewise
]
# Carmichael numbers 561, 41041, 825265 and two of Chernick's (6k+1)(12k+1)(18k+1),
# at k = 10975 and at k = 238895, the largest below 2^64.
CARMICHAEL_FACTORS = [
    (3, 11, 17),
    (7, 11, 13, 41),
    (5, 7, 17, 19, 73),
    (65851, 131701, 197551),
    (1433371, 2866741, 4300111),
]


class TestSmallestPrimeFactor:
    @pytest.mark.parametrize("n,expect", [(209, 11), (169, 13), (7, 7), (2, 2), (35, 5), (10**12 + 39, 10**12 + 39)])
    def test_examples(self, n, expect):
        assert smallest_prime_factor(n) == expect

    @pytest.mark.parametrize("n", [0, 1, -5])
    def test_domain(self, n):
        with pytest.raises(DomainError):
            smallest_prime_factor(n)

    def test_no_table_past_the_trial_bound(self, monkeypatch):
        # Seed 1's 10^16 benchmark anchor and the top of classify's domain: both
        # sides of each are composite, with square roots far above 2^16.
        monkeypatch.setattr(arith, "_sieved", COLD_CACHE)
        for m in (9871324586500057, (2**64 - 2) // 6):
            classify(m)
        assert arith._sieved[0] <= 1 << 16

    @pytest.mark.parametrize("factors", HARD_FACTORS + CARMICHAEL_FACTORS, ids=lambda f: "*".join(map(str, f)))
    def test_hard_inputs(self, factors):
        n = math.prod(factors)
        assert n < 1 << 64 and all(is_prime(f) for f in factors)
        assert smallest_prime_factor(n) == min(factors)

    @pytest.mark.parametrize("factors", CARMICHAEL_FACTORS, ids=lambda f: "*".join(map(str, f)))
    def test_carmichael_inputs_pass_korselt(self, factors):
        # Squarefree, and p - 1 divides n - 1 for every prime p dividing n.
        n = math.prod(factors)
        assert len(set(factors)) == len(factors)
        assert all((n - 1) % (p - 1) == 0 for p in factors)

    def test_past_the_primality_range(self):
        assert smallest_prime_factor(1 << 64) == 2
        assert smallest_prime_factor(65521 * 4294967311**2) == 65521
        with pytest.raises(CapacityError):
            smallest_prime_factor(4294967311**2)  # no factor below 2^16 and n >= 2^64

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=2, max_value=10**10 - 1),
            # Semiprimes below 10^10 with both factors past the trial bound reach rho.
            st.builds(operator.mul, st.sampled_from(PRIMES_PAST_TRIAL), st.sampled_from(PRIMES_PAST_TRIAL)),
        )
    )
    def test_matches_slow_trial_division(self, n):
        assert smallest_prime_factor(n) == slow_smallest_prime_factor(n)

    def test_result_is_prime_divisor_and_minimal(self):
        for n in range(2, 3000):
            p = smallest_prime_factor(n)
            assert n % p == 0 and REF_FLAGS[p]
            assert all(n % q for q in REF_PRIMES if q < p)


def table_reads() -> int:
    info = arith._least_block.cache_info()
    return info.hits + info.misses


BLOCKS = primality.LEAST_CAP // primality.LEAST_BLOCK
BLOCK_BYTES = 2 * primality.LEAST_BLOCK * np.dtype(np.uint16).itemsize


class TestTwinRanks:
    """The engine's twin ranks against the oracle's."""

    EDGES = [k * arith.TWIN_BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    TOP = 3 * arith.TWIN_BLOCK + 1

    @pytest.fixture(scope="class")
    def oracle_ranks(self):
        return twin_ranks_up_to(self.TOP).ranks

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 18, 747])
    def test_small_limits(self, limit):
        ranks = arith.twin_ranks(limit)
        assert ranks.dtype == np.int64 and ranks.tolist() == twin_ranks_up_to(limit).ranks.tolist()

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, TOP) | st.sampled_from(EDGES))
    def test_drawn_limits(self, oracle_ranks, limit):
        self.check(oracle_ranks, limit)

    @pytest.mark.parametrize("limit", EDGES)
    def test_limits_within_one_of_a_window_edge(self, oracle_ranks, limit):
        self.check(oracle_ranks, limit)

    @staticmethod
    def check(oracle_ranks, limit):
        want = oracle_ranks[: np.searchsorted(oracle_ranks, limit, side="right")]
        assert np.array_equal(arith.twin_ranks(limit), want)

    def test_negative_limit(self):
        with pytest.raises(DomainError, match="twin_ranks needs limit >= 0, got -1"):
            arith.twin_ranks(-1)

    def test_twenty_million_held_once(self):
        # 517,359 ranks (4.1 MB of int64, 2.1 MB of uint32) from 29 windows, each of which
        # holds 1.4 MB of flags, their 0.7 MB compare mask and its hits while the array grows
        # in place, and frees them before the next window is struck.
        want = twin_ranks_up_to(20_000_000).ranks
        for dtype in (np.int64, np.uint32):
            tracemalloc.start()
            try:
                ranks = arith.twin_ranks(20_000_000, dtype)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ranks.size == 517_359 and ranks.dtype == dtype and ranks.flags.owndata
            assert peak < ranks.nbytes + 3 * arith.TWIN_BLOCK + (512 << 10), (dtype, peak, ranks.nbytes)
            assert np.array_equal(ranks, want)

    @pytest.mark.parametrize("limit", [0, 1, 2, *EDGES[:3]])
    def test_uint32_ranks_equal_the_int64_ranks(self, limit):
        ranks = arith.twin_ranks(limit, np.uint32)
        assert ranks.dtype == np.uint32 and np.array_equal(ranks, arith.twin_ranks(limit))

    def test_a_dtype_must_hold_the_limit(self):
        assert arith.twin_ranks(255, np.uint8).tolist() == arith.twin_ranks(255).tolist()
        with pytest.raises(DomainError, match="twin_ranks up to 256 does not fit uint8"):
            arith.twin_ranks(256, np.uint8)


class TestLeastFactorTable:
    """smallest_prime_factor reads a cached rank-space table for n = 6r -+ 1 with r < LEAST_CAP."""

    def test_every_n_below_2e6_equals_a_least_factor_sieve(self):
        want = least_prime_factors(2 * 10**6 - 1)[2:]
        got = np.fromiter(map(smallest_prime_factor, range(2, 2 * 10**6)), dtype=np.int64, count=want.size)
        assert not (np.flatnonzero(got != want) + 2).tolist()

    def test_entries_are_zero_exactly_at_primes(self):
        lpf = least_prime_factors(6 * primality.LEAST_BLOCK + 1)
        sides = 6 * np.arange(1, primality.LEAST_BLOCK)[:, None] + [-1, 1]  # entry 2r + s from rank 1
        entries = np.frombuffer(arith._least_block(0), dtype=np.uint16)[2:].reshape(-1, 2)
        assert (entries == np.where(lpf[sides] == sides, 0, lpf[sides])).all()

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            # Both sides of ranks at block edges, from block 0 to two blocks past the cap.
            st.builds(
                lambda k, d, side: 6 * (k * primality.LEAST_BLOCK + d) + side,
                st.integers(0, BLOCKS + 2), st.integers(-1, 1), st.sampled_from([-1, 1]),
            ),
            # Every residue mod 6 on both sides of the cap.
            st.integers(6 * primality.LEAST_CAP - 300, 6 * primality.LEAST_CAP + 300),
            # Multiples of 2 or 3 below the cap.
            st.builds(operator.mul, st.sampled_from([2, 3]), st.integers(1, 2 * primality.LEAST_CAP - 1)),
        ).filter(lambda n: n >= 2)
    )
    def test_edges_and_the_cap_equal_trial_division(self, n):
        in_table = n % 6 in (1, 5) and (n + 1) // 6 < primality.LEAST_CAP
        before = table_reads()
        assert smallest_prime_factor(n) == slow_smallest_prime_factor(n)
        assert table_reads() - before == in_table

    def test_blocks_stay_bounded(self):
        arith.prime_array(4, 1 << 16)  # the 2**16 prime cache, which the table shares
        arith._least_block.cache_clear()
        size = arith._least_block.cache_info().maxsize
        tracemalloc.start()
        try:
            for k in range(2 * size + 3):  # spread over more blocks than the cache keeps
                classify(k * primality.LEAST_BLOCK + 7)
                assert arith._least_block.cache_info().currsize <= size
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arith._least_block.cache_info().misses == 2 * size + 3
        assert peak < (size + 2) * BLOCK_BYTES  # the cached blocks, the one being built and the base primes

    def test_import_builds_no_block(self):
        probe = "import twinsieve.cli, twinsieve.arith as a; print(a._least_block.cache_info().misses)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": str(SRC)}).stdout
        assert out.strip() == "0"

    def test_no_block_above_the_cap(self):
        arith._least_block.cache_clear()
        for m in (primality.LEAST_CAP, primality.LEAST_CAP + 3, 10**12, (2**64 - 2) // 6):
            classify(m)
        assert arith._least_block.cache_info().misses == 0


class TestSquarefreeTerms:
    def test_example_small_cap(self):
        terms = squarefree_terms([11, 13], 15)
        assert [(n, (-1) ** nu, nu) for n, nu in terms.tolist()] == [(11, -1, 1), (13, -1, 1)]

    def test_example_includes_product(self):
        terms = squarefree_terms([11, 13], 200)
        assert (143, 1, 2) in [(n, (-1) ** nu, nu) for n, nu in terms.tolist()]

    def test_empty_generators(self):
        assert squarefree_terms([], 100).tolist() == []


def test_next_prime():
    assert next_prime(5) == 7
    assert next_prime(6) == 7
    assert next_prime(61) == 67
    assert next_prime(1) == 2
