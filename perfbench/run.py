"""End-to-end benchmark of the twinsieve CLI, with a traced run for per-layer metrics.

    python3 perfbench/run.py --workload {enumerate,count,classify} --seed N \
        --seconds S --trace {0,1} [--smoke]

Each workload is a list of CLI commands.  A pass runs them one after another,
each in a fresh interpreter (a closed loop with one client), the way users pay
for them: no prime table or `c2` cache survives between commands.  Passes
repeat until the next one would end after S seconds (at least one runs).
Every command's output is checked.  Set-up time is sampled before the passes
and after each one.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones, where every command runs through traced.py in its own
interpreter, and prints the per-layer metrics plus the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import proc
import workloads
from spans import Aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENTRY = ["python3", "-c", "import sys; from twinsieve.cli import main; sys.exit(main())"]
SETUP_ARGS = ["counts", "--level", "5"]
SETUP_RUNS = 3  # at the start, after one untimed warm-up; then one after every pass
RUN_DEADLINE_S = 170.0
RSS_SELF_CHECK_KB = 8 * 1024

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ops": "share"}


class Harness:
    """Runs commands for one benchmark run, inside its own work directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self._n = 0

    def _paths(self) -> tuple[Path, Path]:
        self._n += 1
        return self.work / f"{self._n}.out", self.work / f"{self._n}.err"

    def spawn(self, argv: list[str]) -> tuple[proc.Outcome, Path, Path]:
        out, err = self._paths()
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("run deadline passed")
        outcome = proc.run(argv, stdout_path=out, stderr_path=err, env=self.env, cwd=ROOT, timeout_s=timeout)
        return outcome, out, err

    def command(self, cmd: workloads.Command, prefix: list[str]) -> tuple[proc.Outcome, int]:
        """Run and check one workload command; returns its outcome and stdout size."""
        outcome, out, err = self.spawn(prefix + list(cmd.args))
        status, detail = workloads.check(cmd, outcome.returncode, out, err)
        if outcome.timed_out:
            status, detail = workloads.FAILED, "timed out"
        self.attempted += 1
        if status != workloads.OK:
            self.failed += 1
            print(f"# {status}: {' '.join(cmd.args)}: {detail}", file=sys.stderr)
        if status == workloads.WRONG:
            self.wrong.append(cmd.key)
        size = out.stat().st_size
        out.unlink()
        err.unlink()
        return outcome, size


def measure_setup(h: Harness) -> float:
    """Wall time of a command whose compute takes microseconds."""
    outcome, out, err = h.spawn(ENTRY + SETUP_ARGS)
    if outcome.returncode != 0:
        raise RuntimeError(f"set-up command failed: {err.read_text()[-2000:]}")
    return outcome.wall_s


def probe_environment(h: Harness) -> dict:
    """Versions, and the check that a child's peak RSS is its own, not the harness's."""
    outcome, out, err = h.spawn(["python3", str(HERE / "probe.py")] + SETUP_ARGS)
    if outcome.returncode != 0:
        raise RuntimeError(f"probe failed: {err.read_text()[-2000:]}")
    info = json.loads(err.read_text().splitlines()[-1])
    gap_kb = outcome.peak_rss_kb - info.pop("vmhwm_kb")
    if abs(gap_kb) > RSS_SELF_CHECK_KB:
        raise RuntimeError(
            f"RSS self-check: wait4 reports {outcome.peak_rss_kb} kB for a child whose own peak "
            f"differs by {gap_kb} kB; the harness's memory leaks into children"
        )
    info["rss_self_check_gap_kb"] = gap_kb
    return info


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "unknown"
    m = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    return m.group(1).strip() if m else "unknown"


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "twinsieve").glob("*.py")))


def run_pass(h: Harness, unit_list, rng: random.Random, index: int, traced: bool) -> dict:
    cache = h.work / f"cache-{index}"
    commands = workloads.pass_commands(unit_list, rng, str(cache))
    trace_json, workers = h.work / "trace.json", h.work / "workers"
    if traced:
        workers.mkdir(exist_ok=True)
        prefix = ["python3", str(HERE / "traced.py"), str(trace_json), str(workers), "--"]
    else:
        prefix = ENTRY
    wall, peak_kb, out_bytes, traces = 0.0, 0, 0, []
    for cmd in commands:
        outcome, size = h.command(cmd, prefix)
        print(f"#   {outcome.wall_s:8.3f} s {outcome.peak_rss_kb / 1024:8.1f} MB  {' '.join(cmd.args)}", file=sys.stderr)
        wall += outcome.wall_s
        peak_kb = max(peak_kb, outcome.peak_rss_kb)
        out_bytes += size
        if traced and trace_json.exists():
            traces.append(json.loads(trace_json.read_text()))
            trace_json.unlink()
    shutil.rmtree(cache, ignore_errors=True)
    return {"wall_s": wall, "peak_rss_kb": peak_kb, "output_bytes": out_bytes, "traces": traces}


def layer_metrics(p: dict, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass; times are busy seconds summed over the pass."""
    a = Aggregate()
    for t in p["traces"]:
        a.merge(t)

    def ratio(num, den):
        return num / den if den else 0.0

    numbers = a.counts.get("oracle.numbers_sieved", 0)
    classify_calls = a.calls("classify.classify")
    classify_s = a.total("classify.classify")
    remnant_calls = a.calls("classify.classify", parent="progressions.remnants_below")
    return {
        "oracle.sieve_s": (sum(a.layer_self.get(n, 0.0) for n in (
            "oracle.pi2_exact", "oracle.twin_ranks_up_to", "oracle.verify_classify", "oracle._verify_chunk")), "s"),
        "oracle.numbers_sieved": (numbers, "count"),
        "oracle.numbers_per_s": (ratio(numbers, a.total("oracle.sieve_segment")), "1/s"),
        "oracle.verify.pool_speedup": (ratio(
            a.counts.get("oracle.verify_s.workers1", 0.0), a.counts.get("oracle.verify_s.workers2", 0.0)), "x"),
        "classify.calls": (classify_calls, "count"),
        "classify.s": (classify_s, "s"),
        "classify.us_per_call": (1e6 * ratio(classify_s, classify_calls), "us"),
        "classify.is_prime_s": (a.total("classify.is_prime"), "s"),
        "classify.spf_s": (a.total("classify.smallest_prime_factor"), "s"),
        "classify.nonranks_of_s": (a.total("classify.nonranks_of"), "s"),
        "progressions.remnants.strike_s": (a.self_time("progressions.remnants_below"), "s"),
        "progressions.remnants.classify_calls": (remnant_calls, "count"),
        "progressions.remnants.intruder_share": (ratio(
            a.counts.get("progressions.remnants.intruders", 0), remnant_calls), "share"),
        "progressions.residue_set_s": (a.total("progressions.residue_set"), "s"),
        "progressions.residues": (a.counts.get("progressions.residues", 0), "count"),
        "progressions.crt_family_s": (a.total("progressions.crt_family"), "s"),
        "progressions.family_members": (a.counts.get("progressions.family_members", 0), "count"),
        "progressions.nested_form_s": (a.total("progressions.nested_form"), "s"),
        "counting.ie_terms": (a.counts.get("counting.ie_terms", 0), "count"),
        "counting.ie_terms_s": (a.total("counting.squarefree_terms"), "s"),
        "counting.floor_sum_s": (a.self_time("counting._ie_floor_sum") + a.self_time("counting._ie_floor_chunk"), "s"),
        "counting.main_term.sum_s": (a.self_time("counting.main_term"), "s"),
        "counting.main_term.den_digits": (a.maxima.get("counting.main_term.den_digits", 0), "digits"),
        "counting.c2_s": (a.total("counting._c2_partial"), "s"),
        "counting.c2.calls": (a.calls("counting.twin_prime_constant"), "count"),
        "counting.c2.cutoff": (a.maxima.get("counting.c2.cutoff", 0), "count"),
        "counting.legendre.pool_overhead_s": (a.pool_overhead.get("counting._ie_floor_sum", 0.0), "s"),
        "cli.import_s": (sum(t["import_s"] for t in p["traces"]), "s"),
        "cli.emit_s": (a.layer_self.get("cli.main", 0.0), "s"),
        "cli.output_bytes": (p["output_bytes"], "bytes"),
        "cli.cache_write_s": (a.total("cli.cache_write"), "s"),
        "cli.cache_read_s": (a.total("cli.cache_read"), "s"),
        "trace.wall_s": (p["wall_s"], "s"),
        "trace.overhead_s": (p["wall_s"] - untraced_wall, "s"),
    }


def median_metrics(per_pass: list[dict[str, tuple[float, str]]]) -> dict[str, dict]:
    return {
        name: {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
        for name, (_, unit) in per_pass[0].items()
    }


def benchmark(args, h: Harness) -> dict:
    env = probe_environment(h)
    env.update(
        cores=os.cpu_count(), cpu=cpu_model(), git_sha=git_sha(), seed=args.seed,
        workload=args.workload, source_lines=source_lines(), smoke=args.smoke,
    )
    print("env " + json.dumps(env, sort_keys=True))
    # The host's speed drifts over seconds, so set-up samples are spread over the run.
    setup = [measure_setup(h) for _ in range(1 + SETUP_RUNS)][1:]

    unit_list = workloads.units(args.workload, args.seed, args.smoke)
    rng = random.Random(f"pass-order:{args.seed}")
    untraced, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(h, unit_list, rng, len(untraced) + len(traced), traced=False))
        if args.trace:
            traced.append(run_pass(h, unit_list, rng, len(untraced) + len(traced), traced=True))
        setup.append(measure_setup(h))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > args.seconds:
            break

    walls = [p["wall_s"] for p in untraced]
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; set-up samples {len(setup)}; "
          f"commands {h.attempted}, failed_ops {h.failed / h.attempted:.4f} share ({h.failed} of {h.attempted})")
    # With fewer than 11 passes no percentile has ten samples above it, so the
    # slowest pass is printed for reading but is not a gated metric.
    print(f"wall_max_s {max(walls)!r} s")
    if args.trace:
        metrics = median_metrics([layer_metrics(p, statistics.median(walls)) for p in traced])
    else:
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in untraced) / 1024,
            "setup_s": statistics.median(setup),
            "ok_ops": (h.attempted - h.failed) / h.attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    return {"correct": not h.wrong, "attempted": h.attempted, "failed": h.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FIXED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs of the same command shapes")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "twinsieve" / "cli.py").is_file():
        print(f"perfbench: no twinsieve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    base = ROOT / ".perfbench_tmp"
    work = base / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = benchmark(args, Harness(work, deadline))
    except (RuntimeError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
