"""Command-line frontend emitting machine-readable envelopes.

Every run prints one envelope: {command, parameters, results, engine_version}.
Each handler builds its results dict from the library's report record, and
--emit csv renders the same values through the same scalar rules (_exact): a
scalar report is one row under the results keys, a list payload one row per
element, header mandatory.  Integers of any size are decimal strings
(primorials overflow doubles immediately), exact rationals "num/den" strings,
floats shortest round-trip decimals; a CSV cell space-joins a list and leaves
None empty.  The JSON writer gives the bytes the json module writes with
sorted keys and indent=2, without building the envelope first: a list goes
out a batch at a time, each batch one join, and a list of flat records
(_Records, given by its columns) fills one template per object.  A list
payload may be a numpy column or record array: a batch of a 1-D integer
column that int64 holds becomes its text in numpy (_int64_text), a batch of
any other one Python values.  A column may also be made a batch at a time
(_Made: family's signs and nested forms), and a batch of rows then holds no
more than _TEXT characters of made text.  A batch is at most _BATCH rows, so
its transient texts stay small beside the payload.  The pieces go
to stdout as they are made, or to a temp file that replaces --out only once
it is complete.
Identical argv produces byte-identical output; verify prints its throughput
to stderr to keep the envelope deterministic.  Domain, capacity, memory and
OS errors (an invalid cache file, --workers below 1, an unwritable --out or
--cache-dir, a closed stdout pipe) exit 1 with one line on stderr.
Importing cli loads no array layer: main binds the layers the command table
names (their names in twinsieve._LAZY_MODULES, by _bind) before the handler
runs, the writer imports numpy only for an array it was handed, and so
`classify m` from 2**22 up runs without numpy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import _LAZY, _LAZY_MODULES, __version__
from .classify import classify
from .errors import CapacityError, DomainError
from .primality import DEFAULT_CEILING, nsix


def _bind(*modules: str) -> None:
    """Bind the package's lazy names of these modules that are not bound yet, importing the modules.

    A name already bound (a traced wrap, a test's monkeypatch) is never rebound.
    """
    bound = globals()
    for module in modules:
        for name in _LAZY_MODULES[module]:
            if name not in bound:
                bound[name] = getattr(importlib.import_module(f".{module}", __package__), name)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAZY[name])
    return globals()[name]


def _is_array(v) -> bool:
    """isinstance(v, numpy.ndarray), without importing numpy: while it is not loaded, no array exists."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(v, np.ndarray)


def _exact(v):
    """A scalar as the envelope carries it: an int its decimal string, a Fraction "num/den", others as they are."""
    if isinstance(v, int) and not isinstance(v, bool):
        return _decimal_string(v)
    if isinstance(v, Fraction):
        return f"{_decimal_string(v.numerator)}/{_decimal_string(v.denominator)}"
    return v


# Integers of up to this many bits are converted directly; str(int) takes
# time quadratic in the digits, so a larger one is cut in halves by bits.
_DIRECT_BITS = 2048


def _decimal_string(n: int) -> str:
    """str(n) in sub-quadratic time: the halves of n's bits are converted to Decimal and joined exactly.

    hi * 2**w + lo is one fused multiply-add in a context that holds every
    digit (Inexact is trapped, so a rounding would raise), and the powers of
    two are built once per call, each from smaller ones.  At 1.3 million bits
    it takes 0.21 s where str(n) takes 2.9 s (one core of a 2-vCPU host).
    """
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    import decimal  # lazy: only commands with big integers pay its import

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
    powers = {}

    def power(w: int):
        if w not in powers:
            powers[w] = decimal.Decimal(1 << w) if w <= _DIRECT_BITS else ctx.multiply(power(w // 2), power(w - w // 2))
        return powers[w]

    def convert(m: int, bits: int):
        if bits <= _DIRECT_BITS:
            return decimal.Decimal(m)
        w = bits // 2
        return ctx.fma(convert(m >> w, bits - w), power(w), convert(m & ((1 << w) - 1), w))

    digits = format(convert(abs(n), n.bit_length()), "f")
    return "-" + digits if n < 0 else digits


def _scalar(v) -> str:
    """The JSON text of one scalar: the json module's text of _exact(v)."""
    return json.dumps(_exact(v))


def _cell(v) -> str:
    """One CSV cell: a list space-joined, None empty."""
    if v is None:
        return ""
    if isinstance(v, (list, tuple)):
        return " ".join(str(_exact(x)) for x in v)
    return str(_exact(v))


@dataclass(frozen=True)
class _Records:
    """A list of flat JSON objects that share keys, given as one column per key, in key order.

    A column is anything _batches cuts: a numpy array, a list or a _Made column.
    """

    keys: tuple[str, ...]
    columns: Sequence


@dataclass(frozen=True)
class _Made:
    """A column whose values are made a batch at a time: make(source[lo:hi]) is the list of values lo..hi-1.

    width bounds the characters of one value's text.
    """

    source: np.ndarray
    make: Callable[[np.ndarray], list]
    width: int


_BATCH = 1 << 12  # list elements per written piece
_TEXT = 1 << 18  # characters of made values per written piece, at most


def _slices(array: np.ndarray, size: int):
    """The array's slices of up to size elements."""
    return (array[lo : lo + size] for lo in range(0, len(array), size))


def _batches(items: Iterable, size: int | None = None):
    """Batches of up to size (default _BATCH) items: a _Made column's values, made a slice at a time; a 1-D integer array's slices as int64, for _int64_text, when int64 holds its dtype; any other numpy array's slices as Python values, a slice at a time; lists otherwise."""
    size = size or _BATCH
    if isinstance(items, _Made):
        yield from map(items.make, _slices(items.source, size))
    elif _is_array(items):
        import numpy as np

        ints = items.ndim == 1 and items.dtype.kind in "iu" and np.can_cast(items.dtype, np.int64)
        yield from (piece.astype(np.int64, copy=False) if ints else piece.tolist() for piece in _slices(items, size))
    else:
        it = iter(items)
        while batch := list(islice(it, size)):
            yield batch


def _rows(columns: Sequence):
    """Batches of equal-length columns in step, each a tuple of the columns' batches: up to _BATCH rows, and
    as many as keep the made values' text within _TEXT characters."""
    width = sum(c.width for c in columns if isinstance(c, _Made))
    size = max(1, min(_BATCH, _TEXT // width)) if width else _BATCH
    return zip(*(_batches(c, size) for c in columns))


def _int64_text(values: np.ndarray, sep: str, quote: str = '"') -> str:
    """sep.join(quote + "%d" % v + quote for v in values) for a 1-D int64 array, made in numpy.

    Each value is one row of a uint8 matrix: the separator, the opening quote,
    a sign slot if any value is negative, as many digit slots as the largest
    magnitude has digits (repeated division by 10 of the uint64 magnitudes, so
    -2**63 is exact) and the closing quote.  Where some row leaves a sign or a
    leading-zero slot unused, one boolean compaction drops those slots;
    otherwise the rows are the text.  On sorted batches of _BATCH values it is
    several times faster than "%d" mapped over .tolist().
    """
    import numpy as np

    mag = values.astype(np.uint64)
    neg = values < 0
    np.negative(mag, out=mag, where=neg)  # modulo 2**64: |v| for every int64 v, -2**63 included
    signed, digits = bool(neg.any()), len(str(int(mag.max(initial=0))))
    start = len(sep) + len(quote) + signed  # the first digit slot
    row = np.frombuffer(f"{sep}{quote}{'-' * signed}{'0' * digits}{quote}".encode(), dtype=np.uint8)
    text = np.tile(row, (values.size, 1))
    keep = None
    if len(str(int(mag.min(initial=0)))) < digits or signed and not neg.all():
        keep = np.ones(text.shape, dtype=bool)
        if signed:
            keep[:, start - 1] = neg
    for col in range(start + digits - 1, start - 1, -1):
        if keep is not None and col < start + digits - 1:
            keep[:, col] = mag != 0  # a leading zero where nothing is left; the units digit always stays
        rest = mag // 10
        text[:, col] = mag - 10 * rest + ord("0")
        mag = rest
    if keep is None:
        return text.ravel()[len(sep) :].tobytes().decode("ascii")
    keep[:1, : len(sep)] = False  # the caller writes the lead in front of the first value
    return text[keep].tobytes().decode("ascii")


def _texts(values):
    """JSON texts of a batch of scalars: a slice of a 1-D int64 array through _int64_text, a C-level map if all
    are ints or all strings; None if one is a container."""
    if _is_array(values):
        return _int64_text(values, "\n").split("\n")
    kinds = set(map(type, values))
    if kinds == {int}:
        return map('"%d"'.__mod__, values)
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    if any(issubclass(k, (dict, list, tuple, _Records)) for k in kinds):
        return None
    return map(_scalar, values)


def _record_texts(keys: tuple[str, ...], indent: str):
    """A function from a batch of columns, in key order, to their JSON objects at indent: one template, filled column by column."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    lines = (f"{indent}  {encode_basestring_ascii(keys[i]).replace('%', '%%')}: %s" for i in order)
    template = "{\n" + ",\n".join(lines) + "\n" + indent + "}"
    return lambda columns: map(template.__mod__, zip(*(_texts(columns[i]) for i in order)))


def _json_pieces(obj, indent: str = ""):
    """Yield the text the json module writes for obj with sort_keys, indent=2 and separators (",", ": ").

    Every scalar goes through _exact first.  A list, a tuple, a 1-D numpy
    array or the columns of _Records (in step, by _rows) go out a batch at a
    time, each batch one join: a slice of a 1-D int64 array is one _int64_text, a batch of ints or
    of strings is a C-level map, records fill one template per object, and
    only a batch holding containers recurses element by element.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        lead = "{\n" + inner
        for key in sorted(obj):
            yield lead + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(obj[key], inner)
            lead = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(obj, (list, tuple, _Records)) or _is_array(obj):
        lead, sep = "[\n" + inner, ",\n" + inner
        records = isinstance(obj, _Records)
        texts_of = _record_texts(obj.keys, inner) if records else _texts
        for batch in _rows(obj.columns) if records else _batches(obj):
            texts = [_int64_text(batch, sep)] if _is_array(batch) else texts_of(batch)
            if texts is None:
                for item in batch:
                    yield lead
                    yield from _json_pieces(item, inner)
                    lead = sep
            else:
                yield lead + sep.join(texts)
                lead = sep
        yield "[]" if lead[0] == "[" else "\n" + indent + "]"  # lead is still "[" when no element was written
    else:
        yield _scalar(obj)


def _csv_cells(column):
    """The CSV cells of one column of a batch: a slice of a 1-D int64 array is one _int64_text, split; a C-level map if all are ints of at most _DIRECT_BITS, or all strings."""
    if _is_array(column):
        return _int64_text(column, "\n", quote="").split("\n")
    if (kinds := set(map(type, column))) == {int} and max(map(int.bit_length, column)) <= _DIRECT_BITS:
        return map("%d".__mod__, column)
    return column if kinds == {str} else map(_cell, column)


def _csv_pieces(header: list[str], columns: Sequence):
    """The CSV text of the header and the equal-length columns, a batch of lines per piece; the columns are batched in step by _rows."""
    yield ",".join(map(_cell, header)) + "\n"
    for batch in _rows(columns):
        yield "\n".join(map(",".join, zip(*map(_csv_cells, batch)))) + "\n"


def _record(report) -> dict:
    """A report's fields in declaration order, with p_j named level."""
    return {"level" if f.name == "p_j" else f.name: getattr(report, f.name) for f in fields(report)}


def _one_row(results: dict, *omit: str):
    """Handler output for a scalar report: one CSV row under the results keys, less omit."""
    header = [k for k in results if k not in omit]
    return results, lambda: (header, [[results[k]] for k in header])


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"cannot parse prime list {text!r}") from None


def _write_atomic(path: Path, pieces: Iterable[str]) -> None:
    """Replace path with the pieces' text through a unique temp file beside it; an OSError names path."""
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fd, 0o666 & ~umask)  # the mode a plain open() would give, not mkstemp's 0600
                fh.writelines(pieces)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # the temp file is an implementation detail; report the target
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _cache_path(cache_dir: str, level: int) -> Path:
    return Path(cache_dir) / f"constants-{level}.txt"


def _load_cached_constants(cache_dir: str, level: int):
    """(modulus, constants) from the cache, or None; DomainError unless the file holds exactly C_level."""
    import numpy as np

    path = _cache_path(cache_dir, level)
    if not path.is_file():
        return None
    row = counts_row(level)
    modulus, count = row.L, row.R
    try:
        with path.open() as fh, warnings.catch_warnings():
            # loadtxt skips a blank line with this warning, and warns of a list with no values, which is refused below
            warnings.filterwarnings("error", "Input line", UserWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            head = fh.readline()
            # one line past count is enough to refuse the file
            constants = np.loadtxt(fh, dtype=np.int64, comments=None, max_rows=count + 1, ndmin=1)
    except (ValueError, UserWarning):  # a line that is blank, not an integer or not an int64, or not text at all
        raise DomainError(f"cache file {path} is not a constants list") from None
    if (head != f"# level={level} modulus={modulus}\n" or constants.size != count  # count is at least 3
            or constants[0] < 0 or constants[-1] >= modulus or not np.all(constants[1:] > constants[:-1])
            or _struck(constants, row.primes)):
        raise DomainError(f"cache file {path} does not hold the {count} level-{level} constants")
    return modulus, constants


def _struck(constants, primes: list[int]) -> bool:
    """Whether some prime q strikes some constant c, c % q being N(q/6) or q - N(q/6); _BATCH constants at a time."""
    classes = [(q, nsix(q)) for q in primes]
    for piece in _slices(constants, _BATCH):
        for q, n in classes:
            rest = piece % q
            if ((rest == n) | (rest == q - n)).any():
                return True
    return False


def _store_cached_constants(cache_dir: str, level: int, modulus: int, constants) -> None:
    path = _cache_path(cache_dir, level)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = (_int64_text(piece, "\n", quote="") + "\n" for piece in _slices(constants, _BATCH))
    _write_atomic(path, chain([f"# level={level} modulus={modulus}\n"], lines))


# Each handler returns (results_dict, table), table a function, called only by
# --emit csv, that gives the CSV header and columns from the values in results.

def _cmd_classify(args):
    return _one_row(_record(classify(args.m)))


def _cmd_twins(args):
    from .oracle import _check_extent

    _check_extent(6 * args.limit + 1, args.ceiling, f"6*{args.limit}+1")  # the oracle's bounds, kept
    ranks = twin_ranks(args.limit, "uint32")  # the oracle's guard keeps 6*limit + 1 within 10**10
    results = {"limit": args.limit, "ranks": ranks, "count": len(ranks)}
    return results, lambda: (["rank"], [ranks])


def _cmd_nonranks(args):
    terms = nonranks_of(args.prime, args.limit)
    records = _Records(terms.dtype.names, [terms[k] for k in terms.dtype.names])
    results = {"prime": args.prime, "limit": args.limit, "count": len(terms), "terms": records}
    return results, lambda: (list(records.keys), records.columns)


def _cmd_constants(args):
    cached = _load_cached_constants(args.cache_dir, args.level) if args.cache_dir else None
    if cached is not None:
        modulus, constants = cached
    else:
        rs = residue_set(args.level)
        modulus, constants = rs.modulus, rs.constants
        if args.cache_dir:
            _store_cached_constants(args.cache_dir, args.level, modulus, constants)
    results = {"level": args.level, "modulus": modulus, "count": len(constants), "constants": constants}
    return results, lambda: (["constant"], [constants])


def _cmd_remnants(args):
    rep = remnants_below(args.level, args.bound)
    results = {
        "level": rep.p,
        "bound": rep.bound,
        "front_bound": rep.front_bound,
        "count": len(rep.remnants),
        "remnants": rep.remnants,
        "front_twin_ranks": rep.front_twin_ranks,
        "intruders": _Records(("value", "parent"), [rep.intruders["value"], rep.intruders["parent"]]),
    }
    return results, lambda: (["value", "kind", "parent"], _remnant_columns(rep))


_KINDS = ("twin_rank", "intruder", "front_twin_rank")


def _remnant_columns(rep) -> list:
    """The value, kind and parent columns; intruders are remnants, so a searchsorted puts each parent in place.

    kind and parent are made a batch at a time from an int8 and an unsigned column, 0 for no parent:
    as columns of objects they would be 22 MB at bound 10^7.
    """
    import numpy as np

    texts = np.array(_KINDS, dtype=object)
    parent = np.zeros(len(rep.remnants), dtype=rep.intruders["parent"].dtype)
    parent[np.searchsorted(rep.remnants, rep.intruders["value"])] = rep.intruders["parent"]
    kind = (parent != 0).astype(np.int8)
    kind[: len(rep.front_twin_ranks)] = 2  # the front holds twin ranks only
    kinds = _Made(kind, lambda k: texts[k].tolist(), max(map(len, _KINDS)))
    parents = _Made(parent, lambda p: [v or None for v in p.tolist()], len(str(int(parent.max(initial=0)))))
    return [rep.remnants, kinds, parents]


def _cmd_family(args):
    fam = crt_family(_parse_primes(args.primes))
    keys, columns = ("signs", "residue"), [_Made(fam.members, fam.sign_strings, len(fam.primes)), fam.members["residue"]]
    if args.nested is not None:
        # Each prime writes "q*(", a coefficient of at most q and ") + ", or the outer prime "q*(" and ") - N".
        width = sum(2 * len(str(q)) + 7 for q in fam.primes)
        keys, columns = keys + ("nested",), columns + [_Made(fam.members, nested_form(fam, args.nested), width)]
    members = _Records(keys, columns)
    results = {"primes": fam.primes, "modulus": fam.modulus, "members": members}
    return results, lambda: (list(keys), columns)


def _cmd_counts(args):
    return _one_row(_record(counts_row(args.level)))


def _cmd_legendre(args):
    return _one_row(_record(legendre_pi2(args.level, ceiling=args.ceiling, workers=args.workers)))


def _cmd_mainterm(args):
    rep = main_term(args.level)
    return _one_row({
        "level": rep.p_j,
        "x": rep.x,
        "R_M_sum": rep.R_M_sum,
        "R_M_sum_float": float(rep.R_M_sum),
        "R_M_product": rep.R_M_product,
        "R_M_product_float": float(rep.R_M_product),
        "form_gap": rep.R_M_product - rep.R_M_sum,
        "R_E": rep.R_E,
        "asymptote": rep.asymptote,
    })


def _cmd_c2(args):
    return _one_row({
        "tolerance": args.tol,
        "c2": twin_prime_constant(args.tol),
        "hardy_littlewood": hardy_littlewood_constant(args.tol),
        "asymptote_coefficient": asymptote_coefficient(args.tol),
    })


def _cmd_verify(args):
    rep = verify_classify(args.limit, workers=args.workers, ceiling=args.ceiling)
    print(
        f"verify: {rep.limit} ranks in {rep.elapsed_s:.2f}s ({rep.ranks_per_s:.0f}/s)",
        file=sys.stderr,
    )
    return _one_row({
        "limit": rep.limit,
        "mismatch_count": len(rep.mismatches),
        "mismatches": rep.mismatches,
        "twin_ranks": rep.twin_ranks,
        "non_ranks": rep.non_ranks,
    }, "mismatches")


def _add_global_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    # On the root parser the flags carry real defaults; on subparsers they
    # default to SUPPRESS so a flag given before the subcommand survives.
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--emit", choices=("json", "csv"), default=dflt("json"))
    parser.add_argument("--out", default=dflt(None), help="write the envelope to this path")
    parser.add_argument("--ceiling", type=int, default=dflt(DEFAULT_CEILING),
                        help="oracle sieve ceiling; twins also refuses a 6*limit+1 above it")
    parser.add_argument("--cache-dir", default=dflt(None), help="memoize residue sets under this directory")
    parser.add_argument("--workers", type=int, default=dflt(1),
                        help="worker processes for legendre's floor sum and for verify; other commands echo it "
                             "and ignore it (c2 and mainterm size their pool from the core count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinsieve", description="Twin-rank sieve engine with machine-readable output."
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, handler, *layers: str) -> argparse.ArgumentParser:
        """A subcommand whose handler calls into the named layers, the modules of twinsieve._LAZY_MODULES."""
        p = sub.add_parser(name, help=help_text)
        _add_global_flags(p, suppress=True)
        p.set_defaults(handler=handler, layers=layers)
        return p

    p = command("classify", "twin rank or non-rank with parent prime", _cmd_classify)
    p.add_argument("m", type=int)
    p = command("twins", "twin ranks up to a limit", _cmd_twins, "arith")
    p.add_argument("--limit", type=int, required=True)
    p = command("nonranks", "non-rank values of one prime", _cmd_nonranks, "progressions")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    # a cached level is checked against counts_row
    p = command("constants", "admissible residue classes at a level", _cmd_constants, "counting", "progressions")
    p.add_argument("--level", type=int, required=True)
    p = command("remnants", "value-level remnants below a bound", _cmd_remnants, "progressions")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p = command("family", "simultaneous non-rank progressions of several primes", _cmd_family, "progressions")
    p.add_argument("--primes", required=True, help="comma-separated, e.g. 5,7,11")
    p.add_argument("--nested", type=int, default=None, help="also emit nested forms with this prime outermost")
    p = command("counts", "exact per-period counts at a level", _cmd_counts, "counting")
    p.add_argument("--level", type=int, required=True)
    p = command("legendre", "inclusion-exclusion estimate with oracle residuals", _cmd_legendre, "counting")
    p.add_argument("--level", type=int, required=True)
    p = command("mainterm", "exact main-term forms and the asymptote", _cmd_mainterm, "counting")
    p.add_argument("--level", type=int, required=True)
    p = command("c2", "twin prime constant from the truncated product", _cmd_c2, "counting")
    p.add_argument("--tol", type=float, default=1e-6)
    p = command("verify", "replay classify against the sieve oracle", _cmd_verify, "oracle")
    p.add_argument("--limit", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7, which has no digit limit
        sys.set_int_max_str_digits(0)  # integers are exact decimal strings at any size
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise DomainError(f"--workers must be >= 1, got {args.workers}")
        _bind(*args.layers)
        results, table = args.handler(args)
        if args.emit == "csv":
            pieces = _csv_pieces(*table())
        else:
            parameters = {
                k: v
                for k, v in vars(args).items()
                if k not in ("command", "handler", "layers", "emit", "out", "cache_dir") and v is not None
            }
            envelope = {
                "command": args.command,
                "parameters": parameters,
                "results": results,
                "engine_version": __version__,
            }
            pieces = chain(_json_pieces(envelope), ["\n"])
        if args.out is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            _write_atomic(Path(args.out), pieces)
    except (DomainError, CapacityError, MemoryError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # the reader left: the flush at exit goes to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        print(f"twinsieve {args.command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
