"""Tests of the benchmark itself: metric names and units, output checks, RSS self-check, smoke runs."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _spec_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _smoke(workload: str, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_names_and_units_match_benchmark_json():
    assert run.END_TO_END_UNITS == _spec_units("end_to_end")
    empty_pass = {"traces": [], "wall_s": 1.0, "output_bytes": 0}
    per_layer = {name: unit for name, (_, unit) in run.layer_metrics(empty_pass, 1.0).items()}
    assert per_layer == _spec_units("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.FIXED)


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _classify_envelope(m: int) -> dict:
    """What `twinsieve classify m` reports, computed here by trial division."""
    sides = {"minus": 6 * m - 1, "plus": 6 * m + 1}
    composite = [s for s, n in sides.items() if not workloads.is_prime(n)]
    if not composite:
        return {"m": str(m), "verdict": "twin_rank", "parent": None, "composite_sides": [],
                "witness_sign": None, "witness_kappa": None}
    p = min(next(q for q in range(5, math.isqrt(sides[s]) + 1) if sides[s] % q == 0) for s in composite)
    off = (p + 1) // 6 if p % 6 == 5 else (p - 1) // 6
    sign = "+" if (m - off) % p == 0 else "-"
    kappa = (m - off) // p if sign == "+" else (m + off) // p
    return {"m": str(m), "verdict": "non_rank", "parent": str(p), "composite_sides": composite,
            "witness_sign": sign, "witness_kappa": str(kappa)}


@pytest.mark.parametrize("m", [1, 2, 4, 20, 24, 103, 9_999_991, 123_456_789])
def test_classification_check_accepts_true_witnesses(m):
    assert workloads.check_classification(m, _classify_envelope(m)) is None


def test_classification_check_rejects_false_witnesses():
    good = _classify_envelope(20)  # 119 = 7*17, 121 = 11^2: parent 7
    assert good["parent"] == "7"
    bad = [
        dict(good, witness_kappa=str(int(good["witness_kappa"]) + 1)),
        dict(good, witness_sign="+" if good["witness_sign"] == "-" else "-"),
        dict(good, parent="11"),  # a factor, but not the least one
        dict(good, composite_sides=["minus"]),
        dict(good, verdict="twin_rank"),
        dict(_classify_envelope(2), verdict="non_rank", parent="5", composite_sides=["minus"],
             witness_sign="+", witness_kappa="0"),
    ]
    for envelope in bad:
        assert workloads.check_classification(int(envelope["m"]), envelope) is not None, envelope


def test_check_classifies_failures_and_digest_mismatches(tmp_path):
    out, err = tmp_path / "out", tmp_path / "err"
    cmd = workloads.Command("counts --level 23", ("counts", "--level", "23"))
    out.write_text("not the envelope\n")
    err.write_text("")
    assert workloads.check(cmd, 0, out, err)[0] == workloads.WRONG
    assert workloads.check(cmd, 1, out, err)[0] == workloads.FAILED
    err.write_text("Traceback (most recent call last):\n  ...\nValueError: x\n")
    assert workloads.check(cmd, 0, out, err)[0] == workloads.FAILED


def test_classify_inputs_follow_the_seed_and_the_anchor_kinds():
    draw = lambda seed: workloads.draw_classify_inputs(  # noqa: E731
        workloads.random.Random(seed), workloads.CLASSIFY_ANCHORS)
    assert draw(5) == draw(5) != draw(6)
    for m, (k, kind) in zip(draw(5), workloads.CLASSIFY_ANCHORS):
        assert 10 ** (k - 0.03) < m <= 10**k
        sides = [workloads.is_prime(6 * m - 1), workloads.is_prime(6 * m + 1)]
        if kind == "twin":
            assert all(sides)
        if kind == "both":
            assert not any(sides)


def test_layer_self_time_excludes_other_layers(monkeypatch, tmp_path):
    clock = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    tr = spans.Tracer(str(tmp_path))
    leaf = tr.wrap(lambda: None, "classify.classify", "classify")
    inner = tr.wrap(lambda: leaf(), "oracle.sieve_segment", "oracle")
    outer = tr.wrap(lambda: (inner(), leaf()), "oracle.pi2_exact", "oracle")
    outer()
    # clock: outer 0..7, inner 1..4 holding leaf 2..3, leaf 5..6 directly under outer.
    assert tr.spans[("", "oracle.pi2_exact")] == [1, 7.0, 3.0]
    assert tr.spans[("oracle.pi2_exact", "oracle.sieve_segment")] == [1, 3.0, 2.0]
    assert tr.layer_self == {"classify.classify": 2.0, "oracle.pi2_exact": 5.0}


def test_rss_self_check_catches_a_large_harness(tmp_path):
    h = run.Harness(tmp_path, time.perf_counter() + 60)
    ballast = bytearray(256 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    with pytest.raises(RuntimeError, match="RSS self-check"):
        run.probe_environment(h)
    del ballast


@pytest.mark.parametrize("workload, trace", [("enumerate", 1), ("count", 1), ("classify", 1), ("classify", 0)])
def test_smoke_run_prints_every_metric_and_checks_outputs(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    want = _spec_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    busy = {
        "enumerate": ["progressions.remnants.classify_calls", "progressions.residues", "cli.cache_read_s"],
        "count": ["counting.ie_terms", "counting.legendre.pool_overhead_s", "counting.c2.calls"],
        "classify": ["oracle.verify.pool_speedup", "classify.calls", "classify.spf_s"],
    }[workload] if trace else ["wall_s", "peak_rss_mb", "setup_s", "ok_ops"]
    assert all(values[k] > 0 for k in busy), values


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _smoke("count", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
