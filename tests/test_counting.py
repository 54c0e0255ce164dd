import collections
import hashlib
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import twinsieve.arith as arith
import twinsieve.counting as counting
import twinsieve.oracle as oracle
import twinsieve.parallel as parallel
from twinsieve.arith import primes_between
from twinsieve.counting import (
    C2_GUARD,
    LEGENDRE_GUARD,
    MAINTERM_GUARD,
    asymptote_coefficient,
    asymptotic_density,
    counts_row,
    hardy_littlewood_constant,
    legendre_pi2,
    m_bound,
    main_term,
    twin_prime_constant,
)
from twinsieve.errors import CapacityError, DomainError
from twinsieve.oracle import pi2_exact, sieve_segment
from twinsieve.primality import is_prime, next_prime
from twinsieve.progressions import residue_set

from conftest import least_prime_factors
from reference_lists import (
    level_squarefree_terms,
    nu_floor_sum,
    slow_c2_partial,
    slow_counts_fields,
    slow_prime_blocks,
    slow_rm_product,
    slow_rm_sum,
    slow_squarefree_terms,
)

LEVELS_TO_113 = primes_between(4, 113)  # through the 30th prime
LEVELS_TO_229 = primes_between(4, 229)  # through the 50th prime
RANDOM_LEVELS = sorted(random.Random(14).sample(primes_between(4, 20_000), 8))


def spf(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def reference_mobius(n: int) -> int:
    """Independent Möbius via repeated division by the smallest factor."""
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def naive_terms(p_j: int, x: int):
    """Scan every integer n <= x, factor it, and keep the squarefree ones whose
    factors all exceed p_j; independent of the generator-based enumeration."""
    for n in range(2, x + 1):
        m, k, ok = n, 0, True
        while m > 1:
            p = spf(m)
            if p <= p_j:
                ok = False
                break
            m //= p
            if m % p == 0:
                ok = False
                break
            k += 1
        if ok:
            yield n, k


def naive_ie_sum(p_j: int, x: int) -> int:
    return sum((-1) ** k * (1 << k) * (x // n) for n, k in naive_terms(p_j, x))


def sign_inclusion_sum(p_j: int, x: int) -> int:
    """Explicit alternating loops: -2 sum[x/p] + 4 sum[x/pp'] - 8 sum[x/pp'p'']."""
    gens = [p for p in primes_between(p_j, x)]
    total = 0
    for i, p in enumerate(gens):
        total -= 2 * (x // p)
        for j in range(i + 1, len(gens)):
            pq = p * gens[j]
            if pq > x:
                break
            total += 4 * (x // pq)
            for k in range(j + 1, len(gens)):
                pqr = pq * gens[k]
                if pqr > x:
                    break
                total -= 8 * (x // pqr)
                # depth four never fits below x at these levels
                assert pqr * gens[k + 1] > x
    return total


class TestCountsRow:
    def test_level_5(self):
        row = counts_row(5)
        assert (row.L, row.G, row.R, row.S) == (5, 2, 3, 2)
        assert row.Q == Fraction(2, 5)

    def test_level_7(self):
        row = counts_row(7)
        assert (row.L, row.G, row.R, row.S) == (35, 6, 15, 20)
        assert row.Q == Fraction(4, 7)

    def test_level_11(self):
        row = counts_row(11)
        assert (row.L, row.G, row.R, row.S) == (385, 30, 135, 250)

    def test_identities_exact_to_30th_prime(self):
        prev_R = None
        for p in LEVELS_TO_113:
            row = counts_row(p)
            levels = primes_between(4, p)
            assert row.L == math.prod(levels)
            assert row.S == row.L - row.R
            assert row.Q + row.x_frac == 1
            assert row.q == row.Q - (0 if prev_R is None else Fraction(prev_R[1], prev_R[0]))
            # q(p) = (2/p) * prod_{5 <= q < p} (q-2)/q, evaluated independently
            q_direct = Fraction(2, p) * math.prod(
                [Fraction(q - 2, q) for q in levels[:-1]], start=Fraction(1)
            )
            assert row.q == q_direct
            assert row.Q == 1 - math.prod(
                [Fraction(q - 2, q) for q in levels], start=Fraction(1)
            )
            if prev_R is not None:
                assert row.G == 2 * prev_R[2]
            prev_R = (row.L, row.S, row.R)

    def test_telescoping_sum(self):
        total = Fraction(0)
        for p in LEVELS_TO_113:
            total += counts_row(p).q
            assert total == counts_row(p).Q

    def test_monotonicity_to_50th_prime(self):
        rows = [counts_row(p) for p in LEVELS_TO_229]
        for a, b in zip(rows, rows[1:]):
            assert b.Q > a.Q
            assert b.x_frac < a.x_frac
            assert b.q < a.q

    def test_level_members_to_30th_prime(self):
        for p in LEVELS_TO_113:
            row = counts_row(p)
            assert row.primes == primes_between(4, p)
            assert row.p_next == next_prime(p)
            assert row.M == m_bound(next_prime(p))
            assert row.x == row.L - row.M

    @pytest.mark.parametrize("p", [*RANDOM_LEVELS, 10007])
    def test_fields_equal_the_left_to_right_reference(self, p):
        row = counts_row(p)
        assert (row.L, row.G, row.q, row.S, row.Q, row.R, row.x_frac) == slow_counts_fields(p)

    def test_domain(self):
        with pytest.raises(DomainError, match="sieve level must be a prime >= 5, got 4"):
            counts_row(4)
        with pytest.raises(DomainError):
            counts_row(3)


def reference_factors(values: np.ndarray, lpf: np.ndarray) -> list[int]:
    """Every prime factor of each value, with multiplicity, sorted: repeated division by conftest's least prime factors."""
    out = []
    while (values := values[values > 1]).size:
        out += lpf[values].tolist()
        values = values // lpf[values]
    return sorted(out)


LPF_TO_A_MILLION = least_prime_factors(10**6)


class TestLevelFactors:
    """counts_row's factor step: the prime factors of each q - 2, 3s first, then from the rank-space least-factor table."""

    def test_every_level_to_a_million(self):
        values = arith.prime_array(4, 10**6) - 2  # the level 999983's, whose prefixes are every lower level's
        assert np.sort(counting._prime_factors(values)).tolist() == reference_factors(values, LPF_TO_A_MILLION)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(primes_between(4, 10**6)), min_size=1, max_size=5))
    @example([q for q in (3**k + 2 for k in range(1, 13)) if is_prime(q)])  # 3s to the twelfth power
    @example([13])  # 11 = 6*2 - 1: the table must reach the rank of its largest value's 6r - 1 side
    def test_any_level_primes(self, levels):
        values = np.array(levels, dtype=np.int64) - 2
        assert np.sort(counting._prime_factors(values)).tolist() == reference_factors(values, LPF_TO_A_MILLION)

    def test_peak_at_the_last_level(self):
        # The number-line table it replaces was 8 MB of int64 at this level, an 11.2 MB peak; 4.4 MB measured.
        values = arith.prime_array(4, 999983) - 2
        tracemalloc.start()
        try:
            counting._prime_factors(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 10**6


class TestReducedRatio:
    """_reduced_ratio over any ascending primes >= 5: prod (q - 2) = num * g, prod q = den * g, num/den in lowest terms."""

    @staticmethod
    def product(values: list[int]) -> int:
        """The product of values by halves: a left fold would carry an ever larger product into every step."""
        if len(values) <= 8:
            return math.prod(values)
        return TestReducedRatio.product(values[: len(values) // 2]) * TestReducedRatio.product(values[len(values) // 2 :])

    @classmethod
    def check(cls, primes: np.ndarray):
        num, den, g = counting._reduced_ratio(primes)
        values = primes.tolist()
        top, bottom = cls.product([q - 2 for q in values]), cls.product(values)
        assert num * g == top
        assert den * g == bottom
        reference = Fraction(top, bottom)
        assert (num, den) == (reference.numerator, reference.denominator)
        return num, den, g

    @settings(max_examples=150, deadline=None)
    @given(st.integers(4, 2 * 10**5), st.integers(1, 2 * 10**5))
    def test_any_prime_range(self, lo, width):
        primes = arith.prime_array(lo, min(lo + width, 2 * 10**5))
        assume(primes.size)
        self.check(primes)

    @pytest.mark.parametrize("q", [5, 7, 127, 199999])
    def test_one_prime_shares_nothing(self, q):
        assert self.check(np.array([q], dtype=np.int64)) == (q - 2, q, 1)

    def test_five_shares_its_three_with_no_prime(self):
        # 5 - 2 = 3 is no prime of the array, so only 7 - 2 = 5 is shared.
        assert self.check(arith.prime_array(4, 7)) == (3, 7, 5)

    def test_a_shared_prime_dividing_a_value_more_than_once(self):
        # 127 - 2 = 5**3: one 5 cancels against the prime 5 and two stay in num.
        assert self.check(np.array([5, 127], dtype=np.int64)) == (3 * 25, 127, 5)
        assert self.check(np.array([113, 127], dtype=np.int64)) == (111 * 125, 113 * 127, 1)  # no 5 to cancel
        for hi in (127, 130, 10007):
            self.check(arith.prime_array(4, hi))

    def test_no_big_gcd(self, monkeypatch):
        calls = []
        gcd = math.gcd

        def spy(*args):
            calls.append(min(map(abs, args), default=0))
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", spy)  # fractions looks math.gcd up at every call
        counts_row(10007)
        counting._reduced_ratio(arith.prime_array(17, 85025))
        assert calls and max(calls) < 2**64


class TestSupergroupSize:
    @pytest.mark.parametrize("p,expect", [(5, 2), (7, 20), (11, 250)])
    def test_examples(self, p, expect):
        assert counts_row(p).S == expect

    def test_product_form(self):
        for p in LEVELS_TO_113:
            L = math.prod(primes_between(4, p))
            prod = math.prod([Fraction(q - 2, q) for q in primes_between(4, p)], start=Fraction(1))
            assert counts_row(p).S == L * (1 - prod)


class TestMBound:
    @pytest.mark.parametrize("p,expect", [(67, 748), (11, 20), (13, 28), (5, 4), (17, 48)])
    def test_examples(self, p, expect):
        assert m_bound(p) == expect

    @pytest.mark.parametrize("p", [2, 3, 4, 9])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            m_bound(p)


class TestLegendre:
    def test_level_7_report(self):
        rep = legendre_pi2(7)
        assert rep.p_next == 11 and rep.M == 20 and rep.x == 15
        assert rep.R0 == 15
        assert rep.ie_sum == -4  # terms n = 11, 13 with mu 2^nu = -2 each
        assert rep.estimate == 11
        assert rep.oracle_pi2 == 7
        assert rep.oracle_window == 14
        assert rep.residual_pi2 == 4
        assert rep.residual_window == -3

    @pytest.mark.parametrize("level", [7, 11, 13])
    def test_ie_sum_against_naive_scan(self, level):
        rep = legendre_pi2(level)
        assert rep.ie_sum == naive_ie_sum(level, rep.x)
        assert rep.estimate == rep.R0 + rep.ie_sum

    @pytest.mark.parametrize("level", [7, 11, 13])
    def test_ie_sum_against_sign_inclusion_loops(self, level):
        rep = legendre_pi2(level)
        assert rep.ie_sum == sign_inclusion_sum(level, rep.x)

    @pytest.mark.parametrize("level", [7, 11, 13])
    def test_r0_equals_residue_class_count(self, level):
        assert legendre_pi2(level).R0 == len(residue_set(level))

    def test_oracle_residuals_consistent(self):
        for level in (11, 13):
            rep = legendre_pi2(level)
            assert rep.oracle_pi2 is not None and rep.oracle_window is not None
            assert rep.residual_pi2 == rep.estimate - rep.oracle_pi2
            assert rep.residual_window == rep.estimate - rep.oracle_window

    @pytest.mark.parametrize("level", [7, 11, 13, 17])
    def test_every_rank_of_the_period_is_sieved_once(self, monkeypatch, level):
        row = counts_row(level)
        want = (pi2_exact(6 * row.x + 1), pi2_exact(6 * row.L + 1))
        sieved, calls = [], []

        def recorded_segment(lo, hi):
            sieved.append((lo, hi))
            return sieve_segment(lo, hi)

        def recorded_pi2(*args, **kwargs):  # legendre_pi2 calls the oracle through this module's global
            calls.append(args)
            return pi2_exact(*args, **kwargs)

        monkeypatch.setattr(oracle, "sieve_segment", recorded_segment)
        monkeypatch.setattr(counting, "pi2_exact", recorded_pi2)
        rep = legendre_pi2(level)
        assert (rep.oracle_pi2, rep.oracle_window) == want
        assert calls == [(6 * rep.x + 1,), (6 * row.L + 1,)]
        runs = sorted(((lo + 1) // 6, (hi - 2) // 6) for lo, hi in sieved)  # a run of ranks a..b sieves [6a-1, 6b+2)
        assert [m for a, b in runs for m in range(a, b + 1)] == list(range(1, row.L + 1))

    def test_oracle_out_of_range_is_not_an_error(self):
        rep = legendre_pi2(11, ceiling=100)
        assert rep.oracle_pi2 is None and rep.residual_pi2 is None
        assert rep.oracle_window is None and rep.residual_window is None
        assert rep.estimate == rep.R0 + rep.ie_sum

    @pytest.mark.parametrize("level", [7, 11, 13])
    def test_floor_sum_against_naive_scan_at_every_worker_count(self, level):
        x = counts_row(level).x
        terms = counting.squarefree_terms(primes_between(level, x), x)
        want = naive_ie_sum(level, x)
        assert [counting._ie_floor_sum(terms, x, w) for w in (1, 2, 3, 4)] == [want] * 4

    def test_floor_sum_cuts_no_more_chunks_than_the_pool_runs(self, monkeypatch):
        calls = []

        def recorded(fn, items, workers):
            calls.append((items, workers))
            return [fn(item) for item in items]

        monkeypatch.setattr(counting, "parallel_map", recorded)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        x = counts_row(13).x
        terms = counting.squarefree_terms(primes_between(13, x), x)
        assert counting._ie_floor_sum(terms, x, 10**9) == naive_ie_sum(13, x)
        [(items, workers)] = calls
        assert len(items) == workers == 3
        assert sorted(t for _, chunk in items for t in chunk.tolist()) == terms.tolist()

    @pytest.mark.parametrize("level", [7, 11, 13, 17, 19, 23])
    def test_ie_sum_equals_the_floor_sum_over_every_term_at_every_worker_count(self, level):
        # The full-term floor sum that legendre_pi2 took before the split; the
        # oracle counts are left out (ceiling 0), since only ie_sum is compared.
        x = counts_row(level).x
        want = counting._ie_floor_sum(counting.squarefree_terms(arith.prime_array(level, x), x), x)
        assert [legendre_pi2(level, ceiling=0, workers=w).ie_sum for w in (1, 2, 3, 4)] == [want] * 4

    def test_workers_do_not_change_result(self):
        for level in (7, 11, 13):
            assert legendre_pi2(level, workers=4) == legendre_pi2(level)

    def test_domain(self):
        with pytest.raises(DomainError):
            legendre_pi2(5)
        with pytest.raises(DomainError):
            legendre_pi2(6)


class TestIeSum:
    """_ie_sum, split at isqrt(x), against the floor sum over every term of the recursive reference."""

    @settings(max_examples=100, deadline=None)
    @given(
        primes=st.sets(st.sampled_from(primes_between(1, 3000)), max_size=40).map(sorted),
        x=st.integers(0, 10**6),
    )
    @example(primes=[11, 13], x=15)  # level 7: isqrt(x) = 3 is below every prime
    @example(primes=[], x=10**6)
    @example(primes=[2, 3], x=0)
    @example(primes=[2, 3], x=6)  # x = 2 * 3: the one term over both primes
    @example(primes=[2, 3, 5, 7, 11, 13, 17], x=510_510)
    @example(primes=[5, 7], x=49)  # isqrt(x) = 7 is itself a tail prime
    @example(primes=[1999, 2003], x=1999 * 2003)  # isqrt(x) = 2000: a product of two primes on either side
    def test_split_equals_the_floor_sum_over_every_term(self, primes, x):
        want = sum((-2) ** nu * (x // n) for n, nu in slow_squarefree_terms(primes, x))
        assert counting._ie_sum(np.array(primes, dtype=np.int64), x) == want

    def test_only_the_terms_over_the_primes_to_isqrt_x_are_built(self, monkeypatch):
        built, build = [], counting.squarefree_terms

        def recorded(tail_primes, x):
            built.append(tail_primes.tolist())
            return build(tail_primes, x)

        monkeypatch.setattr(counting, "squarefree_terms", recorded)
        x = counts_row(13).x  # 4,957; isqrt(x) = 70
        assert counting._ie_sum(arith.prime_array(13, x), x) == naive_ie_sum(13, x)
        assert built == [primes_between(13, 70)]


class TestMainTerm:
    def test_level_7_exact_values(self):
        rep = main_term(7)
        assert rep.x == 15
        assert rep.R_M_sum == Fraction(1425, 143)  # 15 - 30/11 - 30/13
        assert rep.R_M_product == Fraction(215, 13)  # 35*(27/91) + 20*(4/13)
        assert rep.R_E == 11 - Fraction(1425, 143)
        assert rep.asymptote == pytest.approx(asymptote_coefficient() * 90 / math.log(91) ** 2)

    def test_sum_form_recomputed_from_naive_terms(self):
        for level in (7, 11):
            rep = main_term(level)
            total = sum(
                (Fraction((-1) ** k * (1 << k) * rep.x, n) for n, k in naive_terms(level, rep.x)),
                Fraction(0),
            )
            R0 = math.prod(q - 2 for q in primes_between(4, level))
            assert rep.R_M_sum == R0 + total

    @pytest.mark.parametrize("level", [7, 11, 13, 17])
    def test_tree_sum_equals_the_left_to_right_sum(self, level):
        rep = main_term(level)
        terms = counting.squarefree_terms(primes_between(level, rep.x), rep.x)
        row = counts_row(level)
        assert rep.R_M_sum == slow_rm_sum(row.R, rep.x, terms.tolist())
        assert rep.R_M_product == slow_rm_product(row.R, row.M, primes_between(level, rep.x))

    @pytest.mark.parametrize("size", range(1, 12))
    def test_tree_sum_adds_every_value_once(self, size):
        # Distinct powers of two: leaving any value out, or adding one twice, changes the sum.
        values = [Fraction(1, 2**k) for k in range(size)]
        assert counting._tree_sum(values, operator.add) == 2 - Fraction(1, 2 ** (size - 1))
        # Distinct primes: leaving any factor out, or taking one twice, changes the product.
        primes = primes_between(0, 40)[:size]
        assert counting._tree_sum(primes, operator.mul) == math.prod(primes)

    def test_forms_differ_and_gap_is_reported(self):
        # The sum and product forms disagree at finite x; both are exact.
        rep = main_term(7)
        assert rep.R_M_product != rep.R_M_sum
        assert rep.R_M_product - rep.R_M_sum == Fraction(215, 13) - Fraction(1425, 143)


class TestSizeGuards:
    """legendre_pi2 and main_term refuse a level above their guard before the level is built."""

    class Generated(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_terms(self, monkeypatch):
        def generated(tail_primes, x):
            raise self.Generated(x)

        monkeypatch.setattr(counting, "squarefree_terms", generated)

    @staticmethod
    def _unbuilt(monkeypatch):
        def built(p_j):
            raise AssertionError(f"level {p_j} was built above the guard")

        monkeypatch.setattr(counting, "counts_row", built)

    def test_legendre_refuses_level_29_and_passes_level_23(self, monkeypatch):
        assert (LEGENDRE_GUARD, next_prime(LEGENDRE_GUARD)) == (23, 29)
        with pytest.raises(self.Generated):
            legendre_pi2(23)
        self._unbuilt(monkeypatch)
        with pytest.raises(CapacityError, match=f"^legendre_pi2 level 29 exceeds {LEGENDRE_GUARD}$"):
            legendre_pi2(29)

    def test_main_term_refuses_level_23_and_passes_level_19(self, monkeypatch):
        assert (MAINTERM_GUARD, next_prime(MAINTERM_GUARD)) == (19, 23)
        with pytest.raises(self.Generated):
            main_term(19)
        self._unbuilt(monkeypatch)
        with pytest.raises(CapacityError, match=f"^main_term level 23 exceeds {MAINTERM_GUARD}$"):
            main_term(23)


class TestSquarefreeTerms:
    def test_terms_divide_generator_product_and_match_mobius(self):
        gens = [5, 7, 11, 13, 17, 19, 23, 29, 31]
        product = math.prod(gens)
        terms = counting.squarefree_terms(gens, 10_000).tolist()
        assert [n for n, _ in terms] == sorted(n for n, _ in terms)
        assert len({n for n, _ in terms}) == len(terms)
        for n, nu in terms:
            assert product % n == 0
            assert (-1) ** nu == reference_mobius(n)

    def test_exhaustive_against_scan(self):
        # Every squarefree n <= cap over the generators appears exactly once.
        gens = [5, 7, 11]
        cap = 400
        expect = []
        for n in range(2, cap + 1):
            m = n
            nu = 0
            for g in gens:
                if m % g == 0:
                    m //= g
                    if m % g == 0:
                        break
                    nu += 1
            else:
                if m == 1:
                    expect.append((n, (-1) ** nu, nu))
        assert [(n, (-1) ** nu, nu) for n, nu in counting.squarefree_terms(gens, cap).tolist()] == expect

    @settings(max_examples=60, deadline=None)
    @given(
        gens=st.sets(st.sampled_from(primes_between(1, 2000))).map(sorted),
        cap=st.integers(0, 10**6),
    )
    @example(gens=[], cap=10**6)
    @example(gens=[1999], cap=1998)
    @example(gens=[2, 3, 5, 7, 11, 13, 17], cap=510_510)
    @example(gens=[2, 3, 5, 7, 11, 13, 17, 19, 23], cap=223_092_870)  # nu up to 9, past three bits
    def test_records_equal_the_recursive_reference(self, gens, cap):
        terms = counting.squarefree_terms(np.array(gens, dtype=np.int64), cap)
        want = slow_squarefree_terms(gens, cap)
        assert terms.dtype == counting.TERM
        assert len(terms) == len(want)
        assert terms.tolist() == want

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(
        gens=st.sets(st.sampled_from(primes_between(1, 1000)), max_size=30).map(sorted),
        cap=st.integers(0, 30_000),
    )
    @example(gens=[], cap=100)
    @example(gens=[5, 7], cap=35)  # x = q * (q + 2): the product of the two primes is x itself
    @example(gens=[2, 3, 5, 7, 11, 13, 17], cap=510_510)
    @example(gens=[2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43], cap=10**6)
    def test_every_chunk_buffer_and_depth_edge(self, chunk, gens, cap):
        # Chunks of one to three products and summed slices of one record more:
        # every edge between chunks, slices and depths is crossed somewhere.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "TERMS_CHUNK", chunk)
            mp.setattr(counting, "_RECORDS_SLICE", chunk + 1)
            terms = counting.squarefree_terms(np.array(gens, dtype=np.int64), cap)
            ie_sum = counting._ie_floor_sum(terms, cap)
            split = counting._ie_sum(np.array(gens, dtype=np.int64), cap)
        want = slow_squarefree_terms(gens, cap)
        assert terms.dtype == counting.TERM
        assert terms.tolist() == want
        assert ie_sum == split == sum((-2) ** nu * (cap // n) for n, nu in want)

    # sha256 of squarefree_terms(prime_array(23, x), x).tobytes() at level 23, as
    # the level-by-level builder gave it.
    LEVEL_23_BYTES = "b6baad358ef12957c625ad7ed440fde188caacdfc40c0c149a7b55c9f07931fd"

    @pytest.mark.parametrize("level", [7, 11, 13, 17, 19, 23])
    def test_level_bytes_and_floor_sums_equal_the_level_by_level_references(self, level):
        x = counts_row(level).x
        primes = arith.prime_array(level, x)
        terms = counting.squarefree_terms(primes, x)
        if level < 23:
            assert terms.tobytes() == level_squarefree_terms(primes, x).tobytes()
        else:  # the level-by-level builder would peak near 250 MB here
            assert hashlib.sha256(terms.tobytes()).hexdigest() == self.LEVEL_23_BYTES
        want = nu_floor_sum(terms, x)
        assert [counting._ie_floor_sum(terms, x, w) for w in (1, 2, 3, 4)] == [want] * 4

    @pytest.mark.parametrize("level", [7, 11, 13, 17, 19])
    def test_level_terms_and_floor_sums_equal_the_reference(self, level):
        x = counts_row(level).x
        want = slow_squarefree_terms(primes_between(level, x), x)
        terms = counting.squarefree_terms(arith.prime_array(level, x), x)
        assert terms.tolist() == want
        ie_sum = counting._ie_floor_sum(terms, x)
        assert type(ie_sum) is int and ie_sum == sum((-2) ** nu * (x // n) for n, nu in want)


class TestConstants:
    def test_c2_value(self):
        assert abs(twin_prime_constant(1e-6) - 0.660162) < 1e-6

    def test_hardy_littlewood(self):
        assert abs(hardy_littlewood_constant(1e-6) - 1.320320) < 1e-5

    def test_asymptote_coefficient(self):
        assert abs(asymptote_coefficient(1e-6) - 0.416213) < 1e-5

    def test_convergence_consistency(self):
        assert abs(twin_prime_constant(1e-3) - twin_prime_constant(1e-6)) < 2e-3

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            twin_prime_constant(1e-13)

    @pytest.mark.parametrize("tol,cutoff", [(1e-11, 66_666_666_673), (1e-12, 666_666_666_673)])
    def test_cutoff_above_the_guard_is_refused_before_sieving(self, monkeypatch, tol, cutoff):
        def sieved(cutoff):
            raise AssertionError("c2 primes were sieved above the guard")

        monkeypatch.setattr(counting, "odd_prime_blocks", sieved)
        with pytest.raises(CapacityError, match=f"tolerance {tol} needs primes up to {cutoff}, above {C2_GUARD}"):
            twin_prime_constant(tol)

    def test_guard_admits_tolerance_1e_10(self, monkeypatch):
        monkeypatch.setattr(counting, "_c2_partial", lambda cutoff: cutoff)
        assert twin_prime_constant(1e-10) == C2_GUARD == 6_666_666_673

    def test_tightening_tolerance_moves_toward_limit(self):
        # Factors are all below 1, so the partial product decreases toward c2.
        assert twin_prime_constant(1e-4) >= twin_prime_constant(1e-6)


class TestC2PrimeStream:
    @pytest.mark.parametrize(
        "cutoff",
        [*range(2, 41), 360, 361, 529, 1000, 6_666_673, 2**22 + 1, 2**22 + 2, 2**22 + 3, 2**22 + 4, 2**23 + 3],
    )
    def test_blocks_equal_the_oracle_segments(self, cutoff):
        got, want = list(arith.odd_prime_blocks(cutoff)), list(slow_prime_blocks(cutoff))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert g.shape == w.shape and np.array_equal(g, w)

    @pytest.mark.parametrize("odd", [3 * arith.RANK_PERIOD - 1, 3 * arith.RANK_PERIOD, 3 * arith.RANK_PERIOD + 1])
    @pytest.mark.parametrize("lo", [3, 3 + arith.SPAN])
    def test_blocks_either_side_of_one_wheel_period(self, lo, odd):
        # One turn of the rank wheel is 6 * RANK_PERIOD numbers, 3 * RANK_PERIOD odd ones.  A last block of
        # fewer is struck by 5..17 without the wheel, one of more starts as its copy; together the cutoffs run
        # one rank either side.
        for cutoff in range(lo + 2 * odd - 4, lo + 2 * odd + 4):
            got, want = list(arith.odd_prime_blocks(cutoff)), list(slow_prime_blocks(cutoff))
            assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want)), cutoff

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3 * arith.SPAN), st.integers(0, 3))
    def test_blocks_from_a_block_edge_equal_the_reference_tail(self, cutoff, k):
        got = list(arith.odd_prime_blocks(cutoff, 3 + k * arith.SPAN))
        want = list(slow_prime_blocks(cutoff))[k:]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64 and np.array_equal(g, w)

    def test_no_block_outlives_its_yield(self):
        # At 3 * SPAN + 7 (four blocks) block 0 is the largest: 1,398,104 flags and 2,367,568 bytes of primes,
        # and the peak measured 3,776,508 bytes.  A second block's flags or primes alive at once, or a temporary
        # the size of the primes, would break the bound.
        cutoff = 3 * arith.SPAN + 7
        blocks = list(arith.odd_prime_blocks(cutoff))
        bound = 2 * ((3 + arith.SPAN + 1) // 6 + 1) + max(b.nbytes for b in blocks) + (1 << 16)
        del blocks
        tracemalloc.start()
        try:
            collections.deque(arith.odd_prime_blocks(cutoff), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_c2_sums_hold_one_block_at_a_time(self):
        # At the 1e-7 cutoff (two blocks, summed in-process) each block's terms are made in its primes' own
        # buffer, and the block is dropped before the next is sieved, so the peak is one block's flags and
        # primes; 128 KiB covers the cast's slice copy and small objects.  Measured: 3,770,864 bytes against a
        # bound of 3,896,744; with a float column beside the primes, 4,806,976, and with that column alive
        # while the next block is sieved, 6,841,481.
        cutoff = int(2.0 / (3.0 * 1e-7)) + 7
        arith._rank_wheel()  # cached for the life of the process, so it is built before tracing
        blocks = list(arith.odd_prime_blocks(cutoff))
        assert len(blocks) == 2
        edges = [3, 3 + arith.SPAN, cutoff + 1]
        flags = [2 * ((hi + 1) // 6 - (lo + 1) // 6 + 1) for lo, hi in zip(edges, edges[1:])]  # two per rank
        bound = max(f + b.nbytes for f, b in zip(flags, blocks)) + (1 << 17)
        del blocks
        tracemalloc.start()
        try:
            counting._c2_partial.__wrapped__(cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    @pytest.mark.parametrize("cast_slice", [1, 2, 7, counting.C2_CAST_SLICE])
    @pytest.mark.parametrize("cutoff,last", [(3 + arith.SPAN, 0), (3 + arith.SPAN + 12, 1), (3 + 2 * arith.SPAN + 12, 3)])
    def test_c2_block_sums_equal_a_separate_column_at_any_cast_slice(self, monkeypatch, cast_slice, cutoff, last):
        # The last block holds no prime (3 + SPAN is composite), one (3 + SPAN + 12) or three (3 + 2*SPAN + 6, 8
        # and 12), so the slice loop ends on a full slice, a part slice or no slice at all.
        monkeypatch.setattr(counting, "C2_CAST_SLICE", cast_slice)
        blocks = list(slow_prime_blocks(cutoff))
        assert blocks[-1].size == last
        want = [float(np.log1p(np.divide(-1.0, np.square(np.subtract(b, 1.0, dtype=np.float64)))).sum()) for b in blocks]
        got = counting._c2_block_sums((cutoff, 3))
        assert [s.hex() for s in got] == [s.hex() for s in want]

    @pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-6, 1e-7])
    def test_c2_bits_equal_the_reference(self, tol):
        cutoff = int(2.0 / (3.0 * tol)) + 7
        assert twin_prime_constant(tol).hex() == slow_c2_partial(cutoff).hex()

    def test_c2_bits_at_the_mainterm_tolerance(self):
        # slow_c2_partial(666_666_673) gives these bits too; it takes seconds.
        assert twin_prime_constant(1e-9).hex() == "0x1.5200bac2a90e4p-1"

    @pytest.mark.parametrize("cutoff", [2**23 + 3, 3 * 2**22 + 7])
    def test_stream_from_a_block_edge_is_the_tail_of_the_stream(self, cutoff):
        whole = list(arith.odd_prime_blocks(cutoff))
        for k, start in enumerate(range(3, cutoff + arith.SPAN + 1, arith.SPAN)):
            tail = list(arith.odd_prime_blocks(cutoff, start))
            assert len(tail) == len(whole) - min(k, len(whole))
            for g, w in zip(tail, whole[k:]):
                assert g.dtype == w.dtype == np.int64
                assert g.shape == w.shape and np.array_equal(g, w)

    @pytest.mark.parametrize("start", [-arith.SPAN + 3, 0, 1, 2, 4, 5, arith.SPAN + 2, arith.SPAN + 4, 2**23 + 5])
    def test_stream_start_off_the_block_edges_is_refused(self, start):
        with pytest.raises(DomainError, match=f"block edge 3 \\+ k\\*{arith.SPAN}, got {start}"):
            list(arith.odd_prime_blocks(2**23 + 3, start))

    @staticmethod
    def _recorded_runs(monkeypatch, cores, *, compute=True):
        calls = []

        def recorded(fn, items, workers):
            calls.append((items, workers))
            return [fn(item) if compute else [0.0] for item in items]

        monkeypatch.setattr(counting, "parallel_map", recorded)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cores)
        return calls

    @pytest.mark.parametrize("cutoff", [2 * arith.SPAN + 3, 4 * arith.SPAN + 2, 5 * arith.SPAN - 1])
    def test_c2_runs_split_the_blocks_without_changing_a_bit(self, monkeypatch, cutoff):
        want = slow_c2_partial(cutoff).hex()
        edges = list(range(3, cutoff + 1, arith.SPAN))
        assert 3 <= len(edges) <= 5
        monkeypatch.setattr(counting, "C2_CHUNK_BLOCKS", 1)
        for cores in (1, 2, 3, 4):
            calls = self._recorded_runs(monkeypatch, cores)
            assert counting._c2_partial.__wrapped__(cutoff).hex() == want
            [(runs, workers)] = calls
            assert len(runs) == workers == min(cores, len(edges))
            assert runs[0][1] == 3 and runs[-1][0] == cutoff
            assert all(lo <= hi for hi, lo in runs)
            assert all(nxt_lo == hi + 1 for (hi, _), (_, nxt_lo) in zip(runs, runs[1:]))
            assert [edge for hi, lo in runs for edge in range(lo, hi + 1, arith.SPAN)] == edges

    @pytest.mark.parametrize(
        "cutoff,cores,items",
        [(6_666_673, 4, 1), (66_666_673, 4, 1), (666_666_673, 1, 1), (666_666_673, 2, 2), (666_666_673, 64, 9)],
    )
    def test_c2_pool_items_are_runs_of_at_least_chunk_blocks(self, monkeypatch, cutoff, cores, items):
        # c2 --tol 1e-7 and 1e-8 (2 and 16 blocks) run in-process; 1e-9 (159 blocks) takes every core.
        calls = self._recorded_runs(monkeypatch, cores, compute=False)
        counting._c2_partial.__wrapped__(cutoff)
        [(runs, workers)] = calls
        assert len(runs) == workers == items

    def test_c2_bits_through_a_real_pool(self, monkeypatch):
        cutoff = 3 * arith.SPAN + 7
        monkeypatch.setattr(counting, "C2_CHUNK_BLOCKS", 1)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        assert counting._c2_partial.__wrapped__(cutoff).hex() == slow_c2_partial(cutoff).hex()


class TestAsymptoticDensity:
    def test_value_at_15(self):
        assert asymptotic_density(15, tolerance=1e-6) == pytest.approx(1.8409, abs=2e-3)

    def test_monotone_doubling(self):
        for x in (10, 100, 10_000, 10**6):
            assert asymptotic_density(2 * x, tolerance=1e-6) > asymptotic_density(x, tolerance=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_density(1)
