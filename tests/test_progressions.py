import bisect
import dataclasses
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twinsieve import arith, primality, progressions
from twinsieve.arith import _strike, primes_between
from twinsieve.classify import classify
from twinsieve.counting import counts_row, m_bound
from twinsieve.errors import CapacityError, DomainError
from twinsieve.oracle import _twin_truth
from twinsieve.primality import next_prime, nsix
from twinsieve.progressions import (
    FAMILY,
    FAMILY_OBJECT,
    REMNANTS_GUARD,
    boundary_twin_ranks,
    crt_family,
    gap_pattern,
    inductive_step,
    nested_form,
    remnants_below,
    residue_set,
)

from reference_lists import (
    C5,
    C7,
    C11_CLASSES,
    C11_REFERENCE,
    INTRUDERS_11,
    REMNANTS_61_BELOW_748,
    SIGN_VALUE,
    TRIPLE_FAMILY_5_7_11,
    TWIN_RANKS_TO_18,
    member_pairs,
    slow_nested_form,
    three_mask_remnants,
)


def brute_force_classes(levels: list[int], modulus: int) -> list[int]:
    """Independent filter: residues whose class avoids +-N(q/6) mod q for all q."""
    out = []
    for c in range(modulus):
        if all(c % q not in (nsix(q) % q, (-nsix(q)) % q) for q in levels):
            out.append(c)
    return out


def slow_remnants(p: int, bound: int):
    """The value-level strike loop plus one classify per remnant past the front, as a reference."""
    keep = np.ones(bound, dtype=bool)
    keep[0] = False
    for q in primes_between(4, p):
        off = nsix(q)
        keep[q + off :: q] = False
        keep[q - off :: q] = False
    remnants = np.flatnonzero(keep).tolist()
    front_bound = m_bound(next_prime(p))
    intruders = tuple((v, c.parent) for v in remnants if v >= front_bound and not (c := classify(v)).is_twin_rank)
    front = tuple(v for v in remnants if v < front_bound)
    return front_bound, tuple(remnants), front, intruders


def _crt_residue(primes, offsets, signs) -> int:
    """One m-step CRT for one sign vector: the per-member path crt_family had before its closed form."""
    x, mod = 0, 1
    for q, off, s in zip(primes, offsets, signs):
        r = (s * off) % q
        t = ((r - x) * pow(mod, -1, q)) % q
        x += mod * t
        mod *= q
    return x


def slow_family_members(primes) -> tuple[tuple[str, int], ...]:
    """Every sign string's residue by its own CRT, the first prime's sign most significant, sorted by residue."""
    ps = sorted(primes)
    m = len(ps)
    offsets = [nsix(q) for q in ps]
    members = []
    for mask in range(1 << m):
        signs = "".join("-" if mask & (1 << (m - 1 - i)) else "+" for i in range(m))
        members.append((signs, _crt_residue(ps, offsets, [SIGN_VALUE[s] for s in signs])))
    return tuple(sorted(members, key=lambda member: member[1]))


def least_parent(lo: int, hi: int, primes) -> np.ndarray:
    """The merged strike as remnants_below runs it, over ranks [lo, hi): each rank's least parent in primes, else 0."""
    q = np.array(sorted(primes, reverse=True), dtype=np.int64)
    return _strike(np.zeros(hi - lo, dtype=np.uint16), lo, q, np.maximum(q - (q + 1) // 6, lo), merged=True)


# Rank edges of the engine's blocks below 10**6: the least-factor table's, the rank wheel's period and a prime block's.
EDGES = [primality.LEAST_BLOCK, 3 * primality.LEAST_BLOCK, arith.RANK_PERIOD, 2 * arith.RANK_PERIOD, (arith.SPAN + 1) // 6]


class TestLeastParent:
    def check_window(self, lo: int, hi: int):
        lp = least_parent(lo, hi, primes_between(4, math.isqrt(6 * hi + 1)))
        start = max(lo, 1)  # rank 0 is no rank of a pair, and nothing strikes it
        assert lp[: start - lo].tolist() == [0] * (start - lo)
        assert np.array_equal(lp[start - lo :] == 0, _twin_truth(start, hi - 1))
        for v in np.flatnonzero(lp).tolist():
            assert lp[v] == classify(lo + v).parent, lo + v

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6 - 1), st.integers(min_value=1, max_value=1000))
    def test_window_matches_oracle_and_classify(self, lo, width):
        self.check_window(lo, min(lo + width, 10**6))

    @pytest.mark.parametrize("lo, hi", [(0, 2), (0, 3000)] + [
        window for edge in EDGES for window in ((edge - 500, edge), (edge, edge + 500), (edge - 1, edge + 1))
    ])
    def test_windows_from_rank_zero_and_at_block_edges(self, lo, hi):
        self.check_window(lo, hi)

    def test_no_primes_strike_nothing(self):
        assert least_parent(1, 10, []).tolist() == [0] * 9

    def test_least_parent_wins_where_primes_meet(self):
        # 34 = 5*7 - 1 = 7*5 - 1 is struck by both and tagged 5; 15 = 7*2 + 1 only by 7.
        lp = least_parent(10, 40, [5, 7])
        assert (lp[34 - 10], lp[15 - 10], lp[12 - 10]) == (5, 7, 0)


class TestResidueSet:
    def test_level_5(self):
        rs = residue_set(5)
        assert rs.modulus == 5
        assert rs.constants.tolist() == C5

    def test_level_7(self):
        rs = residue_set(7)
        assert rs.modulus == 35
        assert rs.constants.tolist() == C7

    def test_level_11(self):
        rs = residue_set(11)
        assert rs.modulus == 385
        assert len(rs) == 135
        assert rs.constants.tolist() == C11_CLASSES

    def test_zero_always_admissible(self):
        for p in (5, 7, 11, 13):
            assert 0 in residue_set(p)

    def test_cardinality_is_product(self):
        for p in (5, 7, 11, 13, 17):
            assert len(residue_set(p)) == counts_row(p).R
            assert counts_row(p).R == math.prod(q - 2 for q in primes_between(4, p))

    def test_matches_brute_force(self):
        for p in (5, 7, 11, 13):
            rs = residue_set(p)
            assert rs.constants.tolist() == brute_force_classes(primes_between(4, p), rs.modulus)

    def test_level_23_holds_the_constants_and_one_chunk(self):
        counts_row(23)  # the level record is cached; only the strike is measured
        tracemalloc.start()
        try:
            rs = residue_set(23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rs) == counts_row(23).R == 7_952_175 and rs.constants.dtype == np.int64
        assert np.all(rs.constants[1:] > rs.constants[:-1]) and rs.constants[-1] < rs.modulus
        # A chunk is 1 MB of flags and at most 8 MB of survivor offsets; the whole period was 37 MB.
        assert peak < rs.constants.nbytes + (10 << 20), (peak, rs.constants.nbytes)

    @pytest.mark.parametrize("chunk", [1, 7, 1000, 1 << 20])
    def test_chunk_edges_change_nothing(self, monkeypatch, chunk):
        want = residue_set(13).constants.tolist()
        monkeypatch.setattr(progressions, "RESIDUE_CHUNK", chunk)
        assert residue_set(13).constants.tolist() == want

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_a_count_other_than_r_raises(self, monkeypatch, delta):
        row = counts_row(11)
        monkeypatch.setattr(progressions, "counts_row", lambda p: dataclasses.replace(row, R=row.R + delta))
        with pytest.raises(RuntimeError, match=f"leaves 135 residues, not R = {135 + delta}"):
            residue_set(11)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match="remnants_below"):
            residue_set(29)

    def test_domain(self):
        with pytest.raises(DomainError):
            residue_set(4)
        with pytest.raises(DomainError):
            residue_set(3)


class TestInductiveStep:
    def test_reproduces_direct_construction(self):
        current = residue_set(5)
        for p_next in (7, 11, 13, 17):
            current = inductive_step(current, p_next)
            direct = residue_set(p_next)
            assert current.modulus == direct.modulus
            assert np.array_equal(current.constants, direct.constants)

    def test_drops_congruent_lift(self):
        # Lift 5*1 + 1 = 6 of c = 1? c = 1 is not in C_5; take c = 3: lift 3 + 5*l.
        # 6 = -1 (mod 7) is dropped whichever c produces it.
        stepped = inductive_step(residue_set(5), 7)
        assert 6 not in stepped.constants.tolist()

    def test_requires_successor_prime(self):
        with pytest.raises(DomainError):
            inductive_step(residue_set(5), 11)
        with pytest.raises(DomainError):
            inductive_step(residue_set(5), 6)


class TestBoundaryValues:
    def test_printed_level_11_list_is_classes_plus_boundary(self):
        merged = sorted(set(C11_CLASSES) | set(boundary_twin_ranks(11)))
        assert merged == C11_REFERENCE
        assert boundary_twin_ranks(11) == [2]
        assert nsix(11) == 2 and classify(2).is_twin_rank

    def test_rank_one_never_appears(self):
        # 1 = N(5/6) = N(7/6) is a twin rank but level 5 strikes its whole class.
        for p in (7, 11, 13, 17):
            assert 1 not in boundary_twin_ranks(p)
            assert 1 not in residue_set(p)

    def test_boundary_values_grow_with_level(self):
        assert boundary_twin_ranks(13) == [2]
        assert boundary_twin_ranks(17) == [2, 3]
        assert boundary_twin_ranks(31) == [2, 3, 5]

    @pytest.mark.parametrize("p", [7, 61, 10007])
    def test_no_level_products_are_built(self, monkeypatch, p):
        def built(p_j):
            raise AssertionError(f"counts_row({p_j}) built the level's products")

        monkeypatch.setattr(progressions, "counts_row", built)
        offsets = sorted({nsix(q) for q in primes_between(6, p)} - {1})  # level 5 strikes rank 1's classes
        twin = _twin_truth(1, p // 6 + 1)  # the oracle's flags of ranks 1..N(p/6) and one more
        assert boundary_twin_ranks(p) == [v for v in offsets if twin[v - 1]]

    def test_intruder_annotations(self):
        # The annotated intruders are exhaustive up to 73 (the list trails off
        # beyond that; 80 = 13*37-rank is the first unannotated one).  Every
        # non-rank constant must have a parent above the sieve level.
        last_annotated = max(INTRUDERS_11)
        for c in C11_REFERENCE:
            if c == 0:
                continue
            verdict = classify(c)
            if c in INTRUDERS_11:
                assert not verdict.is_twin_rank
                assert verdict.parent == INTRUDERS_11[c]
            elif c <= last_annotated:
                assert verdict.is_twin_rank, c
            if not verdict.is_twin_rank:
                assert verdict.parent > 11, c

    def test_constants_below_front_bound_are_twin_ranks(self):
        # Intruder property: a constant below (p_next^2 - 1)/6 is a twin rank;
        # any non-rank constant has a parent above the sieve level.
        from twinsieve.primality import next_prime
        from twinsieve.counting import counts_row, m_bound

        for p in (5, 7, 11, 13):
            front = m_bound(next_prime(p))
            for c in residue_set(p).constants.tolist():
                if c == 0:
                    continue
                verdict = classify(c)
                if c < front:
                    assert verdict.is_twin_rank, (p, c)
                if not verdict.is_twin_rank:
                    assert verdict.parent > p, (p, c)

    def test_inclusion_chain_and_first_failures(self):
        # Class-level: C_5 within C_7, first failure at 7 -> 11 through the
        # boundary value 2.  Value-level lists: first failure at 11 -> 13
        # through the intruder 28 (a non-rank of 13).
        c5, c7 = set(C5), set(C7)
        c11 = set(residue_set(11).constants.tolist())
        c13 = set(residue_set(13).constants.tolist())
        assert c5 < c7
        assert c7 - c11 == {2}
        v11 = set(C11_REFERENCE)
        v13 = c13 | set(boundary_twin_ranks(13))
        assert c7 < v11
        assert 28 in v11 and 28 not in v13
        assert 28 % 13 == nsix(13) and 28 != nsix(13)


class TestRemnants:
    def test_level_61_example(self):
        rep = remnants_below(61, 748)
        assert rep.remnants.tolist() == REMNANTS_61_BELOW_748
        assert rep.front_bound == 748
        assert rep.front_twin_ranks.tolist() == REMNANTS_61_BELOW_748
        assert rep.intruders.tolist() == []
        for m in rep.remnants.tolist():
            assert classify(m).is_twin_rank

    def test_level_7_below_20(self):
        rep = remnants_below(7, 20)
        assert rep.remnants.tolist() == [1, 2, 3, 5, 7, 10, 12, 17, 18]
        assert rep.front_bound == 20
        assert rep.front_twin_ranks.tolist() == rep.remnants.tolist()

    def test_level_5_below_5(self):
        assert remnants_below(5, 5).remnants.tolist() == [1, 2, 3]

    def test_level_7_full_period_finds_intruder(self):
        rep = remnants_below(7, 35)
        assert rep.remnants.tolist() == [1, 2, 3, 5, 7, 10, 12, 17, 18, 23, 25, 28, 30, 32, 33]
        assert rep.front_twin_ranks.tolist() == TWIN_RANKS_TO_18
        assert rep.intruders.tolist() == [(28, 13)]

    def test_intruder_parents_exceed_level(self):
        for level, bound in ((7, 200), (11, 500), (13, 900)):
            rep = remnants_below(level, bound)
            for value, parent in rep.intruders.tolist():
                assert parent > level
                assert not classify(value).is_twin_rank

    def test_front_remnants_are_twin_ranks(self):
        for level in (7, 11, 13):
            rep = remnants_below(level, 1000)
            for m in rep.front_twin_ranks.tolist():
                assert classify(m).is_twin_rank

    @pytest.mark.parametrize(
        "level, bound", [(5, 5), (7, 35), (13, 5000), (31, 20000), (61, 748), (61, 40000), (101, 20000), (257, 3000)]
    )
    def test_matches_strike_loop_and_classify(self, level, bound):
        rep = remnants_below(level, bound)
        columns = (rep.remnants, rep.front_twin_ranks, rep.intruders["value"])
        assert all(c.dtype == np.int64 for c in columns) and rep.intruders.dtype.names == ("value", "parent")
        got = (rep.front_bound, *(tuple(c.tolist()) for c in (rep.remnants, rep.front_twin_ranks, rep.intruders)))
        assert got == slow_remnants(level, bound)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(primes_between(4, 400)), st.integers(1, 6000))
    @example(5, 1)
    @example(5, 2)
    @example(251, 5000)
    @example(257, 2)
    def test_one_mask_equals_the_three_mask_reference(self, level, bound):
        self.check_three_mask(level, bound)

    @pytest.mark.parametrize("level", [5, 251, 257, 65521, 65537])  # parents of uint8, uint16 and (65537) uint32
    @pytest.mark.parametrize("bound", [1, 2, 3, 3000])
    def test_every_parent_dtype_at_the_smallest_bounds(self, level, bound):
        self.check_three_mask(level, bound)

    @staticmethod
    def check_three_mask(level, bound):
        rep = remnants_below(level, bound)
        remnants, intruders = three_mask_remnants(level, bound)
        assert rep.remnants.dtype == np.int64 and np.array_equal(rep.remnants, remnants)
        assert rep.intruders.dtype == intruders.dtype and np.array_equal(rep.intruders, intruders)
        assert np.array_equal(rep.front_twin_ranks, remnants[remnants < rep.front_bound])

    def test_parent_dtype_holds_the_largest_prime(self):
        # the primes run to max(level, sqrt(6*bound - 5)): here the level
        assert remnants_below(251, 10).intruders["parent"].dtype == np.uint8
        assert remnants_below(257, 10).intruders["parent"].dtype == np.uint16
        assert remnants_below(65537, 10).intruders["parent"].dtype == np.uint32

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match=str(REMNANTS_GUARD)):
            remnants_below(61, REMNANTS_GUARD + 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            remnants_below(4, 10)
        with pytest.raises(DomainError):
            remnants_below(7, 0)


# Primes whose families sit on either side of the int64 limit: near 2**32, near sqrt(2**63) (whose square alone
# decides the dtype), near 2**31 and just below 2**64.
LARGE_PRIMES = [4294967291, 4294967279, 3037000493, 3037000453, 2147483647, 2147483629, 18446744073709551557,
                18446744073709551533]
# Sets whose modulus or largest square falls just inside or just outside the int64 rule, with its side.
INT64_EDGE_SETS = [
    (primes_between(4, 53), True),  # the benchmark's 14 primes: modulus 5,431,526,412,865,007,455
    (primes_between(4, 59), False),
    ([3037000493], True),  # modulus + q^2 is 2^63 - 39,335,532,266
    ([5, 7, 3037000493], False),
    ([2147483647, 2147483629], True),  # modulus and q^2 both about 2^62
    ([3037000453, 3037000493], False),
    ([5, 4294967291], False),  # a modulus of 35 bits, but q^2 passes 2^63
    ([5, 7, 18446744073709551557], False),
]
MIXED_PRIMES = st.lists(st.sampled_from(primes_between(4, 97) + LARGE_PRIMES), min_size=1, max_size=10, unique=True)


def int64_rule(primes) -> bool:
    return math.prod(primes) + max(primes) ** 2 < 2**63


class TestCrtFamily:
    def test_pair_5_7(self):
        fam = crt_family([5, 7])
        by_signs = dict(member_pairs(fam))
        assert fam.modulus == 35
        assert by_signs["++"] == 1
        assert by_signs["--"] == 34

    def test_pair_examples(self):
        cases = {
            (5, 11): {"--": 9, "++": 46},
            (7, 11): {"--": 20},
            (5, 13): {"--": 24},
            (7, 13): {"++": 15, "--": 76},
        }
        for primes, expected in cases.items():
            by_signs = dict(member_pairs(crt_family(list(primes))))
            for signs, residue in expected.items():
                assert by_signs[signs] == residue

    def test_triple_5_7_11(self):
        fam = crt_family([5, 7, 11])
        assert dict(member_pairs(fam)) == TRIPLE_FAMILY_5_7_11

    def test_members_are_sign_bit_residue_records(self):
        fam = crt_family([11, 5, 7])
        assert fam.primes == (5, 7, 11)
        assert fam.members.dtype == FAMILY
        assert fam.members[0].tolist() == (0b101, 64)  # "-+-": bit 2 for 5, bit 1 for 7, bit 0 for 11
        assert fam.sign_strings(fam.members[:1]) == ["-+-"]
        for signs, residue in member_pairs(fam):
            assert type(signs) is str and type(residue) is int and len(signs) == 3
        assert sorted(fam.members["signs"].tolist()) == list(range(8))

    def test_sign_bits_spell_the_signs(self):
        fam = crt_family(primes_between(4, 31))
        m = len(fam.primes)
        for bits, signs in zip(fam.members["signs"].tolist(), fam.sign_strings(fam.members)):
            assert signs == format(bits, f"0{m}b").replace("0", "+").replace("1", "-")

    def test_member_congruences_and_sorting(self):
        fam = crt_family([5, 7, 11, 13])
        assert len(fam.members) == 16
        residues = fam.members["residue"].tolist()
        assert residues == sorted(residues)
        assert len(set(residues)) == 16
        for signs, residue in member_pairs(fam):
            for q, s in zip(fam.primes, signs):
                sign = 1 if s == "+" else -1
                assert residue % q == (sign * nsix(q)) % q

    def test_brute_force_period_scan(self):
        # A representative one period beyond the boundary values must be a
        # simultaneous non-rank of every chosen prime, and nothing else may be.
        for m in range(1, 5):
            for primes in combinations((5, 7, 11, 13), m):
                fam = crt_family(list(primes))
                hits = []
                for r in range(fam.modulus):
                    v = r + fam.modulus
                    if all(v % q in (nsix(q), q - nsix(q)) for q in primes):
                        hits.append(r)
                assert hits == fam.members["residue"].tolist()

    def test_members_classify_as_non_ranks(self):
        fam = crt_family([5, 7, 11])
        for residue in fam.members["residue"].tolist():
            for n in (1, 2, 3):
                c = classify(residue + n * fam.modulus)
                assert not c.is_twin_rank
                assert c.parent <= 11

    def test_domain(self):
        with pytest.raises(DomainError):
            crt_family([5, 5])
        with pytest.raises(DomainError):
            crt_family([4, 7])
        with pytest.raises(DomainError):
            crt_family([])
        with pytest.raises(DomainError):
            crt_family([3, 5])

    @pytest.mark.parametrize("primes,int64", INT64_EDGE_SETS, ids=[str(len(ps)) + ":" + str(max(ps)) for ps, _ in INT64_EDGE_SETS])
    def test_residue_dtype_at_the_int64_limit(self, primes, int64):
        assert int64_rule(primes) == int64
        fam = crt_family(primes)
        assert fam.members.dtype == (FAMILY if int64 else FAMILY_OBJECT)
        residues = fam.members["residue"].tolist()
        assert all(type(r) is int for r in residues) and all(a < b for a, b in zip(residues, residues[1:]))
        if len(primes) <= 10:
            assert member_pairs(fam) == list(slow_family_members(primes))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(primes_between(4, 97)), min_size=1, max_size=10, unique=True) | MIXED_PRIMES)
    @example(primes_between(4, 31))  # 10 primes, int64
    @example([5, 7, 11, 13, 17, 19, 23, 29, 18446744073709551557, 18446744073709551533])  # about 1,300 bits
    @example([4294967291, 4294967279, 5])
    @example([3037000493, 5, 7])
    def test_closed_form_equals_per_member_crt(self, primes):
        fam = crt_family(primes)
        assert fam.members.dtype == (FAMILY if int64_rule(primes) else FAMILY_OBJECT)
        assert member_pairs(fam) == list(slow_family_members(primes))

    def test_twenty_primes_against_per_member_crt(self):
        ps = primes_between(4, 79)
        fam = crt_family(ps)
        assert len(ps) == 20 and len(fam.members) == 1 << 20
        assert fam.members.dtype == FAMILY_OBJECT
        residues = fam.members["residue"].tolist()
        assert all(a < b for a, b in zip(residues, residues[1:]))
        offsets = [nsix(q) for q in ps]
        rng = random.Random(20)
        for _ in range(1000):
            signs = "".join(rng.choice("+-") for _ in ps)
            residue = _crt_residue(ps, offsets, [SIGN_VALUE[s] for s in signs])
            i = bisect.bisect_left(residues, residue)
            assert (fam.sign_strings(fam.members[i : i + 1])[0], residues[i]) == (signs, residue)


def _member_index(fam, signs: str) -> int:
    return fam.sign_strings(fam.members).index(signs)


def _member_text(fam, signs: str, outer: int) -> str:
    return nested_form(fam, outer)(fam.members)[_member_index(fam, signs)]


def _evaluate(text, n: int) -> int:
    """The printed form (text or its compiled code) read back as arithmetic, with n bound and nothing else in scope."""
    return eval(text, {"__builtins__": {}}, {"n": n})


FAMILY_PRIMES = st.lists(st.sampled_from(primes_between(4, 97)), min_size=2, max_size=9, unique=True)
MIXED_FAMILY_PRIMES = st.lists(st.sampled_from(primes_between(4, 97) + LARGE_PRIMES), min_size=2, max_size=7, unique=True)
# Primes Q whose N(Q/6) is +-1 mod 5 and mod 7, so the family of 5, 7 and Q has a member at the top of its
# period, residue = modulus - N(Q/6), whose innermost coefficient with Q outermost is 7, its own radix.
TOP_OF_PERIOD_PRIMES = [2147483137, 4294966657, 18446744073709551427]


class TestNestedForm:
    def test_example_5_outer(self):
        text = _member_text(crt_family([5, 11]), "--", 5)
        assert text == "5*(11*n + 2) - 1"
        assert _evaluate(text, 0) == 9

    def test_example_11_outer(self):
        text = _member_text(crt_family([5, 11]), "--", 11)
        assert text == "11*(5*n + 1) - 2"
        assert _evaluate(text, 0) == 9

    def test_plus_plus_zero_coefficient(self):
        text = _member_text(crt_family([5, 7]), "++", 5)
        assert text == "5*(7*n + 0) + 1"
        assert _evaluate(text, 2) == 1 + 2 * 35

    def test_top_of_period(self):
        text = _member_text(crt_family([5, 7]), "--", 5)
        assert text == "5*(7*n + 7) - 1"
        assert _evaluate(text, 0) == 34

    @pytest.mark.parametrize("q", TOP_OF_PERIOD_PRIMES)
    def test_top_of_period_on_both_dtypes(self, q):
        fam = crt_family([5, 7, q])
        assert fam.members.dtype == (FAMILY if int64_rule([5, 7, q]) else FAMILY_OBJECT)
        top = fam.modulus - nsix(q)
        i = fam.members["residue"].tolist().index(top)
        signs = fam.sign_strings(fam.members[i : i + 1])[0]
        text = nested_form(fam, q)(fam.members[i : i + 1])[0]
        assert text == f"{q}*(5*(7*n + 7) + 0) {signs[2]} {nsix(q)}"
        assert text == slow_nested_form(fam.primes, signs, top, 2)
        assert _evaluate(text, 0) == top and _evaluate(text, 1) == top + fam.modulus

    def test_triple_member(self):
        text = _member_text(crt_family([5, 7, 11]), "-+-", 5)
        assert text == "5*(7*(11*n + 1) + 6) - 1"
        assert _evaluate(text, 0) == 64
        assert _evaluate(text, 1) == 64 + 385

    @settings(max_examples=15, deadline=None)
    @given(FAMILY_PRIMES)
    def test_every_member_every_outer(self, primes):
        fam = crt_family(primes)
        for q in fam.primes:
            texts = nested_form(fam, q)(fam.members)
            assert len(texts) == len(fam.members)
            for text, residue in zip(texts, fam.members["residue"].tolist()):
                code = compile(text, "<nested form>", "eval")
                assert _evaluate(code, 0) == residue
                assert _evaluate(code, 3) == residue + 3 * fam.modulus

    @settings(max_examples=40, deadline=None)
    @given(FAMILY_PRIMES | MIXED_FAMILY_PRIMES)
    @example([5, 7, 11, 13, 17, 19, 23, 29, 31])  # int64
    @example([5, 7, 4294967291, 18446744073709551557])  # Python ints
    def test_equals_the_per_member_reference(self, primes):
        fam = crt_family(primes)
        for k, q in enumerate(fam.primes):
            expected = [slow_nested_form(fam.primes, signs, residue, k) for signs, residue in member_pairs(fam)]
            assert nested_form(fam, q)(fam.members) == expected

    @pytest.mark.parametrize("primes", [primes_between(4, 37), [5, 7, 11, 13, 18446744073709551557]])
    def test_slices_give_the_texts_of_the_whole(self, primes):
        fam = crt_family(primes)
        texts = nested_form(fam, fam.primes[1])
        whole = texts(fam.members)
        for size in (1, 7, 64):
            assert [t for lo in range(0, len(whole), size) for t in texts(fam.members[lo : lo + size])] == whole
        assert texts(fam.members[:0]) == []

    def test_reference_rejects_inconsistent_member(self):
        # The reference re-checks a free-standing member; a family's own members need no check.
        with pytest.raises(DomainError):
            slow_nested_form([5, 11], ["-", "-"], 10, 0)
        with pytest.raises(DomainError):
            slow_nested_form([5], ["-"], 4, 0)
        with pytest.raises(DomainError):
            slow_nested_form([5, 11], ["-", "-"], 9, 2)

    def test_family_of_one_prime_refused(self):
        with pytest.raises(DomainError, match="at least two primes"):
            nested_form(crt_family([5]), 5)

    @pytest.mark.parametrize("outer", [7, 3, 4, 0])
    def test_outer_not_a_family_prime_refused(self, outer):
        with pytest.raises(DomainError, match=f"^{outer} is not one of the family primes$"):
            nested_form(crt_family([5, 11]), outer)


class TestGapPattern:
    @pytest.mark.parametrize("p,expect", [(5, (2, 3)), (7, (2, 5)), (13, (4, 9))])
    def test_examples(self, p, expect):
        assert gap_pattern(p) == expect

    def test_gaps_alternate(self):
        from twinsieve.progressions import nonranks_of

        for p in [q for q in range(5, 101) if all(q % d for d in range(2, q))]:
            a, b = gap_pattern(p)
            values = nonranks_of(p, 50 * p + p)["value"].tolist()
            gaps = [v2 - v1 for v1, v2 in zip(values, values[1:])]
            assert set(gaps) <= {a, b}
            for g1, g2 in zip(gaps, gaps[1:]):
                assert g1 != g2
