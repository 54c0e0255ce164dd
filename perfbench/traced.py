"""Run one twinsieve CLI command in-process with spans around each layer's calls.

    python3 perfbench/traced.py TRACE_JSON WORKER_DIR -- ARGV...

Like `twinsieve ARGV...`, the envelope goes to stdout and the exit code is
the command's (an uncaught exception prints its traceback and exits 1).  The
spans and counters go to TRACE_JSON.  Spans wrap the module-level names that
each layer calls through, from outside the package: `twinsieve` itself is not
modified, so its stdout stays byte-identical to an untraced run.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
import traceback

from spans import Tracer

# (module, attribute) -> (span name, layer).  A module's calls to a name go
# through the module's own global, so each call site is wrapped where it looks
# the name up.
SPANS = {
    ("cli", "classify"): ("classify.classify", "classify"),
    ("cli", "nonranks_of"): ("classify.nonranks_of", "classify"),
    ("cli", "twin_ranks_up_to"): ("oracle.twin_ranks_up_to", "oracle"),
    ("cli", "verify_classify"): ("oracle.verify_classify", "oracle"),
    ("cli", "pi2_exact"): ("oracle.pi2_exact", "oracle"),
    ("cli", "residue_set"): ("progressions.residue_set", "progressions"),
    ("cli", "remnants_below"): ("progressions.remnants_below", "progressions"),
    ("cli", "crt_family"): ("progressions.crt_family", "progressions"),
    ("cli", "nested_form"): ("progressions.nested_form", "progressions"),
    ("cli", "counts_row"): ("counting.counts_row", "counting"),
    ("cli", "legendre_pi2"): ("counting.legendre_pi2", "counting"),
    ("cli", "main_term"): ("counting.main_term", "counting"),
    ("cli", "twin_prime_constant"): ("counting.twin_prime_constant", "counting"),
    ("cli", "hardy_littlewood_constant"): ("counting.hardy_littlewood_constant", "counting"),
    ("cli", "asymptote_coefficient"): ("counting.asymptote_coefficient", "counting"),
    ("cli", "_load_cached_constants"): ("cli.cache_read", "cli"),
    ("cli", "_store_cached_constants"): ("cli.cache_write", "cli"),
    ("oracle", "classify"): ("classify.classify", "classify"),
    ("oracle", "sieve_segment"): ("oracle.sieve_segment", "oracle"),
    ("oracle", "_verify_chunk"): ("oracle._verify_chunk", "oracle"),
    ("progressions", "classify"): ("classify.classify", "classify"),
    ("classify", "is_prime"): ("classify.is_prime", "classify"),
    ("classify", "smallest_prime_factor"): ("classify.smallest_prime_factor", "classify"),
    ("counting", "squarefree_terms"): ("counting.squarefree_terms", "counting"),
    ("counting", "_ie_floor_sum"): ("counting._ie_floor_sum", "counting"),
    ("counting", "_ie_floor_chunk"): ("counting._ie_floor_chunk", "counting"),
    ("counting", "pi2_exact"): ("oracle.pi2_exact", "oracle"),
    ("counting", "_c2_partial"): ("counting._c2_partial", "counting"),
    ("counting", "twin_prime_constant"): ("counting.twin_prime_constant", "counting"),
    ("counting", "asymptote_coefficient"): ("counting.asymptote_coefficient", "counting"),
}

# Spans whose function may hand chunks to a process pool, and the chunk functions.
POOLS = {("cli", "verify_classify"), ("counting", "_ie_floor_sum")}
CHUNKS = {("oracle", "_verify_chunk"), ("counting", "_ie_floor_chunk")}


def decimal_digits(n: int) -> int:
    """Digits of n > 0 without str(n), which the interpreter caps at 4300 digits."""
    k = int((n.bit_length() - 1) * math.log10(2))
    while n >= 10 ** (k + 1):
        k += 1
    return k + 1


def _verify_hook(tr, args, kwargs, result, seconds):
    tr.count(f"oracle.verify_s.workers{kwargs.get('workers', 1)}", seconds)


HOOKS = {
    ("oracle", "sieve_segment"): lambda tr, a, kw, r, s: tr.count("oracle.numbers_sieved", a[1] - a[0]),
    ("cli", "verify_classify"): _verify_hook,
    ("cli", "remnants_below"): lambda tr, a, kw, r, s: tr.count("progressions.remnants.intruders", len(r.intruders)),
    ("cli", "residue_set"): lambda tr, a, kw, r, s: tr.count("progressions.residues", len(r)),
    ("cli", "crt_family"): lambda tr, a, kw, r, s: tr.count("progressions.family_members", len(r.members)),
    ("counting", "squarefree_terms"): lambda tr, a, kw, r, s: tr.count("counting.ie_terms", len(r)),
    ("cli", "main_term"): lambda tr, a, kw, r, s: tr.maximum(
        "counting.main_term.den_digits", decimal_digits(r.R_M_sum.denominator)
    ),
    ("counting", "_c2_partial"): lambda tr, a, kw, r, s: tr.maximum("counting.c2.cutoff", a[0]),
}


def install(tracer: Tracer) -> None:
    for (module, attr), (name, layer) in SPANS.items():
        mod = importlib.import_module(f"twinsieve.{module}")
        key = (module, attr)
        setattr(mod, attr, tracer.wrap(
            getattr(mod, attr), name, layer,
            hook=HOOKS.get(key), pool=key in POOLS, chunk=key in CHUNKS,
        ))


def main() -> int:
    trace_path, worker_dir, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py TRACE_JSON WORKER_DIR -- ARGV...")
    t0 = time.perf_counter()
    import twinsieve.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(worker_dir)
    install(tracer)
    try:
        rc = tracer.wrap(cli.main, "cli.main", "cli")(argv)
    except SystemExit as exc:  # argparse
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    with open(trace_path, "w") as fh:
        json.dump(dict(tracer.snapshot(), import_s=import_s), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
