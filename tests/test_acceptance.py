"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 6 and 8 rebuild the
two reproduction tables kept under reports/, legendre_residuals.csv and
density_ratios.csv, in pytest's tmp_path and require them byte-equal to the
committed files; on a mismatch the rebuilt table is left in tmp_path.
"""

import csv
import json
import math
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from twinsieve.arith import primes_between
from twinsieve.classify import classify, twin_index
from twinsieve.cli import main
from twinsieve.counting import (
    asymptote_coefficient,
    asymptotic_density,
    counts_row,
    hardy_littlewood_constant,
    legendre_pi2,
    main_term,
    twin_prime_constant,
)
from twinsieve.oracle import pi2_exact, twin_ranks_up_to, verify_classify
from twinsieve.progressions import (
    boundary_twin_ranks,
    crt_family,
    remnants_below,
    residue_set,
)
from twinsieve.primality import nsix

from reference_lists import (
    A7_INITIAL,
    C5,
    C7,
    C11_CLASSES,
    C11_REFERENCE,
    NON_RANKS_TO_19,
    REMNANTS_61_BELOW_748,
    TRIPLE_FAMILY_5_7_11,
    TWIN_INDICES_TO_108,
    TWIN_RANKS_TO_18,
    member_pairs,
)

REPORTS = Path(__file__).resolve().parents[1] / "reports"
VERIFY_LIMIT = 1_000_000


@pytest.fixture(scope="module")
def verify_one_worker():
    return verify_classify(VERIFY_LIMIT)


def test_criterion_1_classification_soundness(verify_one_worker):
    rep = verify_one_worker
    assert rep.mismatches == ()
    assert rep.twin_ranks + rep.non_ranks == VERIFY_LIMIT
    assert rep.elapsed_s < 60.0
    print(
        f"criterion 1 PASS: verify limit={VERIFY_LIMIT} mismatches=0 "
        f"twin_ranks={rep.twin_ranks} elapsed={rep.elapsed_s:.1f}s"
    )


def test_criterion_2_reference_lists_exact():
    assert residue_set(5).constants.tolist() == C5
    assert residue_set(7).constants.tolist() == C7
    rs11 = residue_set(11)
    assert rs11.constants.tolist() == C11_CLASSES and len(rs11) == 135
    # The printed level-11 list carries one extra value: the boundary twin
    # rank 2 = N(11/6); classes plus boundary reproduce it verbatim.
    assert sorted(set(C11_CLASSES) | set(boundary_twin_ranks(11))) == C11_REFERENCE

    from twinsieve.progressions import nonranks_of

    a7 = [v for v in nonranks_of(7, 35)["value"].tolist() if classify(v).parent == 7]
    assert a7 == A7_INITIAL

    assert twin_ranks_up_to(18).ranks.tolist() == TWIN_RANKS_TO_18
    assert [twin_index(m) for m in TWIN_RANKS_TO_18] == TWIN_INDICES_TO_108
    non_ranks = sorted(set(range(1, 20)) - set(twin_ranks_up_to(19).ranks.tolist()))
    assert non_ranks == NON_RANKS_TO_19

    rep = remnants_below(61, 748)
    assert rep.remnants.tolist() == REMNANTS_61_BELOW_748
    assert rep.intruders.tolist() == []
    print(
        "criterion 2 PASS: C5/C7/C11, parent-7 initials, twin-rank/index/non-rank "
        "lists, and the 116 level-61 remnants are byte-exact"
    )


def test_criterion_3_counting_identities_exact():
    levels = primes_between(4, 113)  # p_30 = 113
    assert len(levels) == 28  # 30 primes minus 2 and 3
    prev = None
    for p in levels:
        row = counts_row(p)
        assert row.L == math.prod(primes_between(4, p))
        assert row.S == row.L - row.R
        assert row.Q + row.x_frac == 1
        assert row.q == Fraction(row.G, row.L)
        assert row.Q == 1 - math.prod(
            [Fraction(q - 2, q) for q in primes_between(4, p)], start=Fraction(1)
        )
        assert row.x_frac == math.prod(
            [Fraction(q - 2, q) for q in primes_between(4, p)], start=Fraction(1)
        )
        assert row.S == row.L * row.Q
        if prev is not None:
            assert row.G == 2 * prev.R
            assert row.Q > prev.Q
            assert row.x_frac < prev.x_frac
        prev = row
    for p in (5, 7, 11, 13):
        assert len(residue_set(p)) == counts_row(p).R
    print("criterion 3 PASS: L,G,q,S,Q,R,x identities exact through level 113; |C_p| = R(p) for p <= 13")


def test_criterion_4_nsix_equality_iff_twin_pair():
    t0 = time.perf_counter()
    primes = primes_between(4, 100_000)
    groups: dict[int, list[int]] = {}
    for p in primes:
        groups.setdefault(nsix(p), []).append(p)
    for ps in groups.values():
        assert len(ps) <= 2
        if len(ps) == 2:
            assert ps[1] == ps[0] + 2
    prime_set = set(primes)
    for p in primes:
        if p + 2 in prime_set:
            assert nsix(p) == nsix(p + 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 4 PASS: nsix equality iff twin pair over {len(primes)} primes in {elapsed:.2f}s")


def test_criterion_5_progression_families():
    for m in range(1, 5):
        for primes in combinations((5, 7, 11, 13), m):
            fam = crt_family(list(primes))
            assert len(fam.members) == 2**m
            hits = []
            for r in range(fam.modulus):
                v = r + fam.modulus  # representative past every n = 0 offset
                if all(v % q in (nsix(q), q - nsix(q)) for q in primes):
                    hits.append(r)
            assert hits == fam.members["residue"].tolist()
    pair = dict(member_pairs(crt_family([5, 11])))
    assert pair["--"] == 9
    triple = dict(member_pairs(crt_family([5, 7, 11])))
    assert triple["-+-"] == 64
    assert triple == TRIPLE_FAMILY_5_7_11
    print("criterion 5 PASS: 2^m families match brute-force period scans for all subsets of {5,7,11,13}")


def test_criterion_6_legendre_reports_with_residual_table(tmp_path):
    rep7 = legendre_pi2(7)
    assert (rep7.R0, rep7.ie_sum, rep7.estimate) == (15, -4, 11)
    assert (rep7.oracle_pi2, rep7.oracle_window) == (7, 14)
    assert (rep7.residual_pi2, rep7.residual_window) == (4, -3)

    rows = []
    for level in (7, 11, 13):
        rep = legendre_pi2(level)
        assert rep.oracle_pi2 is not None and rep.oracle_window is not None
        assert rep.estimate == rep.R0 + rep.ie_sum
        assert rep.residual_pi2 == rep.estimate - rep.oracle_pi2
        assert rep.residual_window == rep.estimate - rep.oracle_window
        rows.append(rep)

    table = tmp_path / "legendre_residuals.csv"
    with open(table, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            ["level", "p_next", "M", "x", "R0", "ie_sum", "estimate",
             "oracle_pi2", "oracle_window", "residual_pi2", "residual_window"]
        )
        for r in rows:
            w.writerow(
                [r.p_j, r.p_next, r.M, r.x, r.R0, r.ie_sum, r.estimate,
                 r.oracle_pi2, r.oracle_window, r.residual_pi2, r.residual_window]
            )
    assert table.read_bytes() == (REPORTS / table.name).read_bytes()
    print(
        "criterion 6 PASS: level-7 report exact; levels 11/13 residuals "
        f"{[(r.p_j, r.residual_pi2, r.residual_window) for r in rows[1:]]} match reports/legendre_residuals.csv"
    )


def test_criterion_7_constants():
    c2 = twin_prime_constant(1e-6)
    assert abs(c2 - 0.660162) < 1e-6
    assert abs(hardy_littlewood_constant(1e-6) - 1.320320) < 1e-5
    # The quoted 0.416213 is the main-term coefficient, i.e. 2*c2*e^(-2*gamma).
    assert abs(asymptote_coefficient(1e-6) - 0.416213) < 1e-5
    assert abs(twin_prime_constant(1e-3) - c2) < 2e-3
    print(
        f"criterion 7 PASS: c2={c2:.6f}, 2c2={2 * c2:.6f} (1.320320 +- 1e-5), "
        f"coefficient={asymptote_coefficient(1e-6):.6f} (0.416213 +- 1e-5)"
    )


def test_criterion_8_main_terms_and_density_table(tmp_path):
    gaps = []
    for level in (7, 11, 13):
        rep = main_term(level)
        assert isinstance(rep.R_M_sum, Fraction) and isinstance(rep.R_M_product, Fraction)
        assert rep.asymptote > 0
        gaps.append((level, float(rep.R_M_product - rep.R_M_sum)))
    assert main_term(7).R_M_sum == Fraction(1425, 143)
    assert main_term(7).R_M_product == Fraction(215, 13)

    table = tmp_path / "density_ratios.csv"
    with open(table, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x", "density", "pi2_6x_plus_1", "ratio"])
        for exp in (3, 4, 5, 6):
            x = 10**exp
            density = asymptotic_density(x)
            pi2 = pi2_exact(6 * x + 1)
            ratio = density / pi2
            assert math.isfinite(ratio) and ratio > 0
            w.writerow([x, repr(density), pi2, repr(ratio)])
    assert table.read_bytes() == (REPORTS / table.name).read_bytes()
    print(
        f"criterion 8 PASS: exact main terms at 7/11/13 (form gaps {gaps}); "
        "density ratio table matches reports/density_ratios.csv"
    )


def test_criterion_9_determinism_under_parallelism(verify_one_worker, capsys):
    base = verify_one_worker
    for workers in (4, 16):
        rep = verify_classify(VERIFY_LIMIT, workers=workers)
        assert rep.mismatches == base.mismatches == ()
        assert rep.twin_ranks == base.twin_ranks
        assert rep.non_ranks == base.non_ranks

    # The JSON envelope echoes --workers in its parameters, so the byte-for-byte
    # comparison is on the CSV table; the JSON results must agree as well.
    family = {}
    for workers in ("1", "4", "16"):
        for emit in ("csv", "json"):
            assert main(["--workers", workers, "--emit", emit, "family", "--primes", "5,7,11,13"]) == 0
            family[workers, emit] = capsys.readouterr().out
    for workers in ("4", "16"):
        assert family[workers, "csv"] == family["1", "csv"]
        assert json.loads(family[workers, "json"])["results"] == json.loads(family["1", "json"])["results"]

    for level in (7, 11, 13):
        lone = legendre_pi2(level)
        for workers in (4, 16):
            assert legendre_pi2(level, workers=workers) == lone
    print("criterion 9 PASS: verify, families, and legendre identical at worker counts 1, 4, 16")
