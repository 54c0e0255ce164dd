import pytest

import twinsieve.oracle as oracle
from twinsieve.counting import m_bound
from twinsieve.errors import CapacityError, DomainError
from twinsieve.oracle import (
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


class TestTwinRankStream:
    def test_example_1(self):
        assert list(twin_ranks_up_to(18).ranks) == TWIN_RANKS_TO_18

    def test_example_7(self):
        assert list(twin_ranks_up_to(747).ranks) == REMNANTS_61_BELOW_748

    def test_empty(self):
        assert twin_ranks_up_to(0).ranks == ()

    def test_ascending_and_duplicate_free(self):
        ranks = twin_ranks_up_to(50_000).ranks
        assert all(a < b for a, b in zip(ranks, ranks[1:]))

    def test_segment_size_independence(self, monkeypatch):
        streams = []
        for size in (1 << 10, 1 << 16, 1 << 20):
            spans = _segments_sieved(monkeypatch, size)
            streams.append(twin_ranks_up_to(40_000))
            assert spans == _expected_spans(40_000, size)
        assert streams[0] == streams[1] == streams[2]

    def test_ceiling(self):
        with pytest.raises(CapacityError):
            twin_ranks_up_to(20, ceiling=100)


class TestVerifyClassify:
    def test_example_1_window(self):
        rep = verify_classify(19)
        assert rep.mismatches == ()
        assert rep.twin_ranks == len(TWIN_RANKS_TO_18)
        assert rep.non_ranks == len(NON_RANKS_TO_19)
        found_non_ranks = sorted(set(range(1, 20)) - set(twin_ranks_up_to(19).ranks))
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
        from twinsieve.arith import next_prime

        bound = m_bound(next_prime(level))
        rep = remnants_below(level, bound)
        stream = twin_ranks_up_to(bound - 1)
        assert list(rep.remnants) == list(stream.ranks)
        assert rep.intruders == ()

    def test_partition_of_initial_segment(self):
        limit = 100_000
        twins = set(twin_ranks_up_to(limit).ranks)
        rep = verify_classify(limit)
        assert rep.twin_ranks == len(twins)
        assert rep.non_ranks == limit - len(twins)
