import collections
import dataclasses
import importlib
import inspect
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twinsieve.primality as primality
import twinsieve.progressions as progressions
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
    rank_from_prime,
    twin_index,
)
from twinsieve.errors import CapacityError, DomainError
from twinsieve.primality import LEAST_CAP, TRIAL_BOUND, is_prime, nsix
from twinsieve.progressions import nonranks_of

from conftest import least_prime_factors, simple_sieve
from reference_lists import NON_RANKS_TO_19, TWIN_INDICES_TO_108, TWIN_RANKS_TO_18, slow_classify

REF_FLAGS = simple_sieve(200_000)
TOP_M = (2**64 - 2) // 6  # the largest m with 6m + 1 < 2**64
BALANCED_PLUS_M = (4294967279 * 4294967291 - 1) // 6  # 6m + 1 is a product of two primes near 2^32
classify_module = importlib.import_module("twinsieve.classify")  # the package re-exports the function under this name
PRIMES_5_200 = [p for p, ok in enumerate(REF_FLAGS) if ok and 5 <= p <= 200]


class TestClassify:
    def test_initial_twin_ranks(self):
        for m in TWIN_RANKS_TO_18:
            c = classify(m)
            assert c.verdict == TWIN_RANK
            assert c.parent is None and c.composite_sides == ()

    def test_initial_non_ranks(self):
        for m in NON_RANKS_TO_19:
            assert classify(m).verdict == NON_RANK

    def test_parent_of_4(self):
        c = classify(4)
        assert c.parent == 5 and c.composite_sides == (SIDE_PLUS,)  # 25 = 5*5, 23 prime

    def test_parent_of_28(self):
        c = classify(28)
        assert c.parent == 13 and c.composite_sides == (SIDE_PLUS,)  # 169 = 13*13

    def test_parent_of_35(self):
        c = classify(35)
        assert c.parent == 11 and c.composite_sides == (SIDE_MINUS,)  # 209 = 11*19

    def test_both_sides_composite(self):
        c = classify(20)  # 119 = 7*17, 121 = 11*11
        assert c.composite_sides == (SIDE_MINUS, SIDE_PLUS)
        assert c.parent == 7

    def test_domain(self):
        with pytest.raises(DomainError):
            classify(0)
        with pytest.raises(DomainError):
            classify(-3)

    def test_refuses_beyond_deterministic_range(self):
        with pytest.raises(CapacityError):
            classify((1 << 64) // 6 + 1)

    @pytest.mark.parametrize(
        "m",
        [TOP_M, TOP_M - 1, TOP_M - 2, TOP_M - 3, BALANCED_PLUS_M],
        ids=["top", "top-1", "top-2", "top-3", "balanced-plus"],
    )
    def test_top_of_domain(self, m):
        start = time.perf_counter()
        c = classify(m)
        assert time.perf_counter() - start < 1.0
        sides = {SIDE_MINUS: 6 * m - 1, SIDE_PLUS: 6 * m + 1}
        assert c.composite_sides == tuple(s for s, v in sides.items() if not is_prime(v))
        assert c.verdict == NON_RANK and c.composite_sides
        s = 1 if c.witness_sign == "+" else -1
        assert c.witness_kappa * c.parent + s * nsix(c.parent) == m
        assert c.parent >= 5 and is_prime(c.parent)
        assert any(sides[side] % c.parent == 0 for side in c.composite_sides)
        for q in range(2, c.parent):
            assert all(sides[side] % q for side in c.composite_sides), q

    def test_small_factor_on_one_side_spares_the_other_rho(self, monkeypatch):
        # 6m-1 = 11 * ..., so 6m+1 = 4294967279 * 4294967291 needs trial division below 11 only.
        def rho(n):
            raise AssertionError(f"{n} reached Miller-Rabin and rho")

        for module in (primality, classify_module):
            monkeypatch.setattr(module, "rough_least_prime", rho)
        c = classify(BALANCED_PLUS_M)
        assert c.parent == 11 and c.composite_sides == (SIDE_MINUS, SIDE_PLUS)

    def test_witness_reconstructs_value(self):
        for m in range(1, 3000):
            c = classify(m)
            if c.verdict != NON_RANK:
                continue
            s = 1 if c.witness_sign == "+" else -1
            assert c.witness_kappa * c.parent + s * nsix(c.parent) == m
            assert c.witness_kappa >= 0

    def test_witness_side_divisibility(self):
        # The divisible side follows from (parent mod 6, sign): plus side for
        # (1, +) and (5, -), minus side otherwise.
        for m in range(1, 3000):
            c = classify(m)
            if c.verdict != NON_RANK or c.witness_kappa == 0:
                continue
            plus_side = (c.parent % 6 == 1) == (c.witness_sign == "+")
            side = 6 * m + 1 if plus_side else 6 * m - 1
            assert side % c.parent == 0

    def test_parent_is_least_value_level_witness(self):
        for m in range(1, 5000):
            c = classify(m)
            if c.verdict != NON_RANK:
                continue
            off = nsix(c.parent)
            assert m % c.parent in (off % c.parent, (-off) % c.parent)
            for q in PRIMES_5_200:
                if q >= c.parent:
                    break
                qoff = nsix(q)
                struck = m % q in (qoff % q, (-qoff) % q) and m != qoff
                assert not struck, (m, q, c.parent)

    def test_partition_against_sieve(self):
        for m in range(1, 20_000):
            want = REF_FLAGS[6 * m - 1] and REF_FLAGS[6 * m + 1]
            assert classify(m).is_twin_rank == want


class TestAgainstALeastFactorSieve:
    def test_every_field_to_2e5(self):
        top = 200_000
        m = np.arange(1, top + 1)
        lpf = least_prime_factors(6 * top + 1)
        a, b = lpf[6 * m - 1], lpf[6 * m + 1]
        minus_comp, plus_comp = a != 6 * m - 1, b != 6 * m + 1
        parent = np.where(minus_comp & plus_comp, np.minimum(a, b), np.where(minus_comp, a, b))
        off = np.where(parent % 6 == 5, (parent + 1) // 6, (parent - 1) // 6)
        plus_sign = m % parent == off % parent
        kappa = np.where(plus_sign, (m - off) // parent, (m + off) // parent)
        for k, c in enumerate(map(classify, range(1, top + 1))):
            if not (minus_comp[k] or plus_comp[k]):
                want = (k + 1, TWIN_RANK, None, (), None, None)
            else:
                sides = (SIDE_MINUS,) * bool(minus_comp[k]) + (SIDE_PLUS,) * bool(plus_comp[k])
                sign = SIGN_PLUS if plus_sign[k] else SIGN_MINUS
                want = (k + 1, NON_RANK, int(parent[k]), sides, sign, int(kappa[k]))
            got = (c.m, c.verdict, c.parent, c.composite_sides, c.witness_sign, c.witness_kappa)
            assert got == want

    def test_one_prime_side_calls_the_module_globals(self, monkeypatch):
        # The traced benchmark wraps these two names where classify looks them up.
        calls = []

        def spy(name):
            def call(n, *handed):  # above the cap classify also hands on each side's small gcd
                calls.append((name, n))
                return getattr(primality, name)(n, *handed)
            return call

        for name in ("is_prime", "smallest_prime_factor"):
            monkeypatch.setattr(classify_module, name, spy(name))
        assert classify(4).parent == 5  # 23 prime, 25 = 5 * 5: below LEAST_CAP, one table lookup per side
        assert calls == [("smallest_prime_factor", 23), ("smallest_prime_factor", 25)]
        calls.clear()
        m = LEAST_CAP + 3  # 6m - 1 = 23 * 1,094,167, 6m + 1 prime: above the cap, primality first
        assert classify(m).parent == 23
        assert calls == [("is_prime", 6 * m - 1), ("is_prime", 6 * m + 1), ("smallest_prime_factor", 6 * m - 1)]
        for m, first in ((LEAST_CAP - 1, "smallest_prime_factor"), (LEAST_CAP, "is_prime")):  # the split itself
            calls.clear()
            classify(m)
            assert calls[0] == (first, 6 * m - 1)


# m at the least-factor table's block edges, up to two blocks past the cap, and on both sides of the cap.
EDGE_M = st.builds(
    lambda k, d: max(1, k * primality.LEAST_BLOCK + d),
    st.integers(0, LEAST_CAP // primality.LEAST_BLOCK + 2),
    st.integers(-2, 2),
)
CAP_M = st.integers(LEAST_CAP - 200, LEAST_CAP + 200)


@settings(max_examples=400, deadline=None)
@given(st.one_of(EDGE_M, CAP_M, st.integers(1, 2 * LEAST_CAP)))
def test_classify_across_the_cap_and_block_edges(m):
    assert classify(m) == slow_classify(m)


class TestClassificationRecord:
    """The constructor fills a frozen dataclass without its generated __init__."""

    def test_constructor_takes_the_fields_with_their_defaults(self):
        params = inspect.signature(Classification).parameters.values()
        fields = dataclasses.fields(Classification)
        assert [p.name for p in params] == [f.name for f in fields]
        assert [p.default for p in params][1:] == [inspect.Parameter.empty] + [f.default for f in fields[2:]]
        assert dataclasses.astuple(Classification(5, TWIN_RANK)) == (5, TWIN_RANK, None, (), None, None)

    @pytest.mark.parametrize("m", [1, 4, 20, 28, 35, BALANCED_PLUS_M])
    def test_equality_and_hash(self, m):
        c = classify(m)
        by_name = Classification(**{f.name: getattr(c, f.name) for f in dataclasses.fields(c)})
        assert c == by_name and hash(c) == hash(by_name) == hash(dataclasses.astuple(c))
        assert c != dataclasses.replace(c, m=m + 1) and c != dataclasses.astuple(c)
        assert repr(c) == repr(by_name) and list(vars(c)) == [f.name for f in dataclasses.fields(c)]

    def test_assignment_raises(self):
        c = classify(4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.parent = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            del c.m
        assert c.parent == 5


class TestTwinIndex:
    @pytest.mark.parametrize("m,expect", [(1, 6), (10, 60), (17, 102)])
    def test_examples(self, m, expect):
        assert twin_index(m) == expect

    def test_all_initial(self):
        assert [twin_index(m) for m in TWIN_RANKS_TO_18] == TWIN_INDICES_TO_108

    def test_non_rank_rejected(self):
        with pytest.raises(DomainError):
            twin_index(4)


class TestRankFromPrime:
    @pytest.mark.parametrize("p,expect", [(7, 1), (29, 5), (5, 1), (11, 2), (13, 2), (61, 10)])
    def test_contributing_primes(self, p, expect):
        assert rank_from_prime(p) == expect

    @pytest.mark.parametrize("p", [23, 37, 47, 53, 67])
    def test_non_contributing_primes(self, p):
        assert rank_from_prime(p) is None

    def test_domain(self):
        with pytest.raises(DomainError):
            rank_from_prime(4)
        with pytest.raises(DomainError):
            rank_from_prime(3)

    def test_agrees_with_classify(self):
        for p in PRIMES_5_200:
            m = rank_from_prime(p)
            if m is not None:
                assert classify(m).is_twin_rank
                assert 6 * m in (p - 1, p + 1)


def slow_nonranks(p: int, limit: int) -> list[tuple[int, int, str]]:
    """The (value, n, sign) terms of p up to limit, one at a time, as nonranks_of once built them."""
    off = nsix(p)
    out = []
    n = 1
    while n * p - off <= limit:
        out.append((n * p - off, n, "-"))
        if n * p + off <= limit:
            out.append((n * p + off, n, "+"))
        n += 1
    return out


class TestNonRanksOf:
    def test_level_5(self):
        assert nonranks_of(5, 21)["value"].tolist() == [4, 6, 9, 11, 14, 16, 19, 21]

    def test_level_7(self):
        assert nonranks_of(7, 15)["value"].tolist() == [6, 8, 13, 15]

    def test_level_11_empty(self):
        assert nonranks_of(11, 8).tolist() == []

    def test_domain(self):
        with pytest.raises(DomainError):
            nonranks_of(4, 100)

    def test_guard_refuses_before_generating(self, monkeypatch):
        class NoArrays:  # every term column is built through the module's numpy
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} was reached above the guard")

        monkeypatch.setattr(progressions, "np", NoArrays())
        with pytest.raises(CapacityError, match="399999999999999999 non-ranks of 5 up to 10{18} exceed 1000000"):
            nonranks_of(5, 10**18)

    @pytest.mark.parametrize("p, limit", [(5, 21), (7, 15), (7, 16), (11, 8), (13, 400), (101, 5000)])
    def test_guard_counts_the_terms_exactly(self, monkeypatch, p, limit):
        size = len(nonranks_of(p, limit))
        monkeypatch.setattr(progressions, "NONRANKS_GUARD", size)
        assert len(nonranks_of(p, limit)) == size
        monkeypatch.setattr(progressions, "NONRANKS_GUARD", size - 1)
        with pytest.raises(CapacityError):
            nonranks_of(p, limit)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_records_equal_the_term_loop(self, data):
        p = data.draw(st.sampled_from([5, 7, 11, 13, 101, 100000000000000003, 4611686018427387847]))
        off = nsix(p)
        limits = st.integers(-10, 40 * p)
        if p > 2**56:  # few enough terms: also where the value column turns to Python ints
            limits |= st.integers(-3 * p, 3 * p).map(lambda d: 2**63 - off + d)
        limit = data.draw(limits)
        terms = nonranks_of(p, limit)
        assert terms.dtype.names == ("value", "n", "sign")
        assert terms.dtype["value"] == (np.int64 if max(limit + off, p) < 2**63 else object)
        assert terms.tolist() == slow_nonranks(p, limit)

    def test_term_structure(self):
        for p in (5, 7, 11, 13):
            off = nsix(p)
            terms = nonranks_of(p, 400).tolist()
            values = [value for value, _, _ in terms]
            assert values == sorted(values)
            for value, n, sign in terms:
                assert value == n * p + (1 if sign == "+" else -1) * off
                assert n >= 1 and value > 0

    def test_soundness_every_value_is_a_non_rank(self):
        # One of 6k-1, 6k+1 is divisible by p and composite, so classify agrees.
        for p in PRIMES_5_200:
            for value in nonranks_of(p, 2000)["value"].tolist():
                assert (6 * value - 1) % p == 0 or (6 * value + 1) % p == 0
                c = classify(value)
                assert c.verdict == NON_RANK
                assert c.parent <= p

    def test_sandwich_equations(self):
        # 6k = 6np +- (p -+ 1) according to the residue of p mod 6 and the sign.
        for p in PRIMES_5_200[:12]:
            for value, n, sign in nonranks_of(p, 50 * p).tolist():
                k6 = 6 * value
                if sign == "+":
                    assert k6 == 6 * n * p + (p - 1 if p % 6 == 1 else p + 1)
                else:
                    assert k6 == 6 * n * p - (p - 1 if p % 6 == 1 else p + 1)

    def test_completeness_against_generators(self):
        # Every non-rank m is hit by the generator of its parent prime.
        for m in range(1, 2000):
            c = classify(m)
            if c.verdict == NON_RANK:
                assert m in nonranks_of(c.parent, m)["value"].tolist()

    def test_parent_7_initials_repeat_with_period_35(self):
        # The six parent-7 non-ranks of the first period generate all others.
        initials = [v for v in nonranks_of(7, 35)["value"].tolist() if classify(v).parent == 7]
        assert initials == [8, 13, 15, 20, 22, 27]
        for k in range(1, 5):
            for v in initials:
                assert classify(v + 35 * k).parent == 7


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_classify_partition_property(m):
    c = classify(m)
    both_prime = is_prime(6 * m - 1) and is_prime(6 * m + 1)
    assert c.is_twin_rank == both_prime
    if not both_prime:
        assert c.parent is not None and c.parent >= 5
        assert c.composite_sides


# Products of the primes below 1000 and below 2**16: the first gcd is cheap and
# rejects most m before the second.
SIEVE_PRIMORIALS = [math.prod(primes_between(1, bound)) for bound in (1000, TRIAL_BOUND)]


def rough_semiprime_sides(m: int) -> int:
    """The least m' >= m whose sides are both semiprimes with both factors above 2**16."""
    while (
        any(math.gcd(36 * m * m - 1, primorial) != 1 for primorial in SIEVE_PRIMORIALS)
        or is_prime(6 * m - 1)
        or is_prime(6 * m + 1)
    ):
        m += 1
    assert 6 * m + 1 < TRIAL_BOUND**3  # so two factors above 2**16 is all there is room for
    return m


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=1, max_value=10**12 - 1),
        st.builds(rough_semiprime_sides, st.integers(min_value=10**12, max_value=4 * 10**13)),
    )
)
def test_classify_matches_two_full_factorisations(m):
    assert classify(m) == slow_classify(m)


@pytest.mark.parametrize("seed", range(4))
def test_each_side_takes_the_small_gcd_once_above_the_cap(monkeypatch, seed):
    # From LEAST_CAP up, classify takes each side's gcd with the product of the
    # primes to 211 once and hands it to is_prime and to the factor search.
    rng = random.Random(seed)
    ms = [LEAST_CAP, LEAST_CAP + 3, TOP_M, BALANCED_PLUS_M, rough_semiprime_sides(rng.randrange(10**12, 4 * 10**13))]
    ms += [int(2 ** rng.uniform(22, math.log2(TOP_M))) for _ in range(40)]
    both = [m for m in ms if not is_prime(6 * m - 1) and not is_prime(6 * m + 1)]
    assert len(both) >= 10
    gcd, taken = math.gcd, collections.Counter()

    def spy(*args):
        if primality._SMALL_PRODUCT in args:
            taken.update(a for a in args if a != primality._SMALL_PRODUCT)
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", spy)
    for m in ms:
        taken.clear()
        classify(m)
        assert taken == {6 * m - 1: 1, 6 * m + 1: 1}, m
