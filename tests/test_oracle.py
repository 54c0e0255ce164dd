import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twinsieve.oracle as oracle
from twinsieve.counting import m_bound
from twinsieve.errors import CapacityError, DomainError
from twinsieve.oracle import (
    DEFAULT_CEILING,
    SIEVE_GUARD,
    pi2_exact,
    sieve_segment,
    twin_ranks_up_to,
    verify_classify,
)
from twinsieve.progressions import remnants_below

from conftest import simple_sieve
from reference_lists import NON_RANKS_TO_19, REMNANTS_61_BELOW_748, TWIN_RANKS_TO_18

REF_FLAGS = simple_sieve(200_000)


def _segments_sieved(monkeypatch, size: int) -> list[tuple[int, int]]:
    """Set the oracle's segment size; the returned list fills with the [lo, hi) of each segment sieved."""
    spans: list[tuple[int, int]] = []

    def recorded(lo, hi):
        spans.append((lo, hi))
        return sieve_segment(lo, hi)

    monkeypatch.setattr(oracle, "DEFAULT_SEGMENT", size)
    monkeypatch.setattr(oracle, "sieve_segment", recorded)
    return spans


def _expected_spans(m_max: int, size: int) -> list[tuple[int, int]]:
    """Segments over ranks 1..m_max in runs of size // 6 ranks, each run [6*lo - 1, 6*hi + 2)."""
    per = size // 6
    return [(6 * lo - 1, 6 * min(lo + per - 1, m_max) + 2) for lo in range(1, m_max + 1, per)]


class TestSieveSegment:
    def test_flags_match_reference(self):
        comp = sieve_segment(10, 110)
        assert comp.shape == (100,) and comp.dtype == bool
        for n in range(10, 110):
            assert (not comp[n - 10]) == REF_FLAGS[n]

    def test_small_values(self):
        assert [int(v) for v in ~sieve_segment(0, 10)] == [0, 0, 1, 1, 0, 1, 0, 1, 0, 0]

    def test_segment_boundaries_irrelevant(self):
        whole = sieve_segment(0, 50_000)
        pieces = []
        for lo in range(0, 50_000, 7919):
            pieces.extend(sieve_segment(lo, min(lo + 7919, 50_000)).tolist())
        assert whole.tolist() == pieces

    def test_domain(self):
        with pytest.raises(DomainError):
            sieve_segment(10, 5)


class TestPi2:
    @pytest.mark.parametrize("y,expect", [(91, 7), (13, 2), (6, 0), (7, 1), (0, 0)])
    def test_examples(self, y, expect):
        assert pi2_exact(y) == expect

    def test_against_reference_sieve(self):
        want = sum(
            1 for m in range(1, (100_000 - 1) // 6 + 1) if REF_FLAGS[6 * m - 1] and REF_FLAGS[6 * m + 1]
        )
        assert pi2_exact(100_000) == want

    def test_segment_size_independence(self, monkeypatch):
        counts = set()
        for size in (1 << 10, 1 << 16, 1 << 20):
            spans = _segments_sieved(monkeypatch, size)
            counts.add(pi2_exact(1_000_000))
            assert spans == _expected_spans((1_000_000 - 1) // 6, size)
        assert counts == {8_168}  # the 8,169 twin pairs below 10^6, less (3, 5)

    def test_ceiling(self):
        with pytest.raises(CapacityError):
            pi2_exact(101, ceiling=100)
        with pytest.raises(DomainError):
            pi2_exact(-1)


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 200_000), st.integers(1, 40_000))
    def test_first_rank(self, y, first_rank):
        want = sum(1 for m in range(first_rank, (y - 1) // 6 + 1) if REF_FLAGS[6 * m - 1] and REF_FLAGS[6 * m + 1])
        assert pi2_exact(y, first_rank=first_rank) == want

    def test_first_rank_domain(self):
        with pytest.raises(DomainError):
            pi2_exact(100, first_rank=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30_000), st.integers(0, 3_000))
def test_twin_truth_equals_the_gathered_sides(m_lo, width):
    m_hi = m_lo + width
    comp = sieve_segment(6 * m_lo - 1, 6 * m_hi + 2)
    idx = 6 * np.arange(width + 1)
    truth = oracle._twin_truth(m_lo, m_hi)
    assert truth.dtype == bool and np.array_equal(truth, ~comp[idx] & ~comp[idx + 2])


class TestSieveGuard:
    """Whatever the ceiling, the oracle sieves no number above SIEVE_GUARD, and refuses before sieving any."""

    @pytest.fixture(autouse=True)
    def no_sieving(self, monkeypatch):
        def sieved(lo, hi):
            raise AssertionError(f"[{lo}, {hi}) was sieved")

        monkeypatch.setattr(oracle, "sieve_segment", sieved)

    def test_refusals(self):
        over = SIEVE_GUARD + 1
        with pytest.raises(CapacityError, match=f"y = {over} exceeds the oracle's sieve guard {SIEVE_GUARD}"):
            pi2_exact(over, ceiling=10 * SIEVE_GUARD)
        limit = SIEVE_GUARD // 6 + 1  # 6*limit+1 just above the guard
        with pytest.raises(CapacityError, match="sieve guard"):
            twin_ranks_up_to(limit, ceiling=10 * SIEVE_GUARD)
        with pytest.raises(CapacityError, match="sieve guard"):
            verify_classify(limit, ceiling=10 * SIEVE_GUARD)

    def test_the_ceiling_is_checked_first(self):
        with pytest.raises(CapacityError, match="exceeds the sieve ceiling 100$"):
            pi2_exact(SIEVE_GUARD + 1, ceiling=100)

    @pytest.mark.parametrize("y, ceiling", [(DEFAULT_CEILING, DEFAULT_CEILING), (6 * 1_078_282_205 + 1, 7 * 10**9),
                                            (SIEVE_GUARD, 10 * SIEVE_GUARD)],
                             ids=["default-ceiling", "level-29-period", "at-the-guard"])
    def test_accepted(self, monkeypatch, y, ceiling):
        monkeypatch.setattr(oracle, "_rank_chunks", lambda *args: [])  # accept, then sieve nothing
        assert pi2_exact(y, ceiling=ceiling) == 0


class TestTwinRankStream:
    def test_example_1(self):
        assert twin_ranks_up_to(18).ranks.tolist() == TWIN_RANKS_TO_18

    def test_example_7(self):
        assert twin_ranks_up_to(747).ranks.tolist() == REMNANTS_61_BELOW_748

    def test_empty(self):
        assert twin_ranks_up_to(0).ranks.tolist() == []

    def test_ascending_and_duplicate_free(self):
        ranks = twin_ranks_up_to(50_000).ranks.tolist()
        assert all(a < b for a, b in zip(ranks, ranks[1:]))

    def test_segment_size_independence(self, monkeypatch):
        streams = []
        for size in (1 << 10, 1 << 16, 1 << 20):
            spans = _segments_sieved(monkeypatch, size)
            stream = twin_ranks_up_to(40_000)
            streams.append((stream.limit, stream.ranks.dtype, stream.ranks.tolist()))
            assert spans == _expected_spans(40_000, size)
        assert streams[0] == streams[1] == streams[2]

    def test_ceiling(self):
        with pytest.raises(CapacityError):
            twin_ranks_up_to(20, ceiling=100)

    def test_ranks_are_held_once(self):
        # 517,359 ranks (4.1 MB) from 115 segments, which also leave up to
        # 1.6 MB of one segment's flags: hits joined at the end peak 4.2 MB over
        # the array, since every segment's hits and the joined copy coexist.
        tracemalloc.start()
        try:
            ranks = twin_ranks_up_to(20_000_000).ranks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ranks.size == 517_359 and ranks.flags.owndata
        assert peak < ranks.nbytes + (3 << 20), (peak, ranks.nbytes)


class TestVerifyClassify:
    def test_example_1_window(self):
        rep = verify_classify(19)
        assert rep.mismatches == ()
        assert rep.twin_ranks == len(TWIN_RANKS_TO_18)
        assert rep.non_ranks == len(NON_RANKS_TO_19)
        found_non_ranks = sorted(set(range(1, 20)) - set(twin_ranks_up_to(19).ranks.tolist()))
        assert found_non_ranks == NON_RANKS_TO_19

    def test_clean_at_fifty_thousand(self):
        rep = verify_classify(50_000)
        assert rep.mismatches == ()
        assert rep.twin_ranks + rep.non_ranks == rep.limit
        assert rep.elapsed_s > 0 and rep.ranks_per_s > 0

    def test_single_rank(self):
        rep = verify_classify(1)
        assert rep.mismatches == () and rep.twin_ranks == 1

    def test_workers_agree(self):
        lone = verify_classify(30_000)
        pooled = verify_classify(30_000, workers=2)
        assert lone.mismatches == pooled.mismatches == ()
        assert lone.twin_ranks == pooled.twin_ranks
        assert lone.non_ranks == pooled.non_ranks

    def test_domain_and_ceiling(self):
        with pytest.raises(DomainError):
            verify_classify(0)
        with pytest.raises(CapacityError):
            verify_classify(100, ceiling=500)


class TestCrossModule:
    @pytest.mark.parametrize("level", [7, 11, 13, 61])
    def test_remnants_equal_front_twin_ranks(self, level):
        from twinsieve.primality import next_prime

        bound = m_bound(next_prime(level))
        rep = remnants_below(level, bound)
        stream = twin_ranks_up_to(bound - 1)
        assert rep.remnants.tolist() == stream.ranks.tolist()
        assert rep.intruders.tolist() == []

    def test_partition_of_initial_segment(self):
        limit = 100_000
        twins = set(twin_ranks_up_to(limit).ranks.tolist())
        rep = verify_classify(limit)
        assert rep.twin_ranks == len(twins)
        assert rep.non_ranks == limit - len(twins)
