"""Command-line front door.

Three subcommands:

  analyze <a> <m>   classify every prime dividing m or a, build the
                    filtrations, conductors and discriminant data, and
                    report them (text, or canonical JSON with one
                    conductor row per character);
  verify            run the brute-force oracle suites and the named
                    self-checks over a parameter range;
  chartab <p> <r> <s>  dump one exact character table.

Exit codes: 0 success; 1 malformed command line; 2 the input violates
the hypotheses (odd m, non-power a, valuation condition) — the report
lists each violation; 3 an internal cross-check failed, meaning the
library disagrees with itself and the output cannot be trusted; 4 a
resource limit was hit (a radicand or exponent whose factorization needs
more than arith.FACTOR_BUDGET Pollard-Brent steps).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter, mul

from .arith import DEFAULT_MAX_ORDER, ResourceLimitError, Rows, ensure, is_prime, resolve_max_order
from .chartab import census, census_mismatch, character_json, class_exponents, coefficient_row
from .chartab import exponent_row, table_rows, twist_order
from .conductor import conductor_checks, conductor_json
from .holomorph import GroupDesc, all_classes, class_count
from .ramfil import (
    EISENSTEIN,
    UNIT,
    HypothesisError,
    filtration_json,
    global_ram,
    ramification_checks,
    wild_context,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_INCONSISTENT = 3
EXIT_RESOURCE = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract reserves
    2 for hypothesis violations, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# canonical JSON

BLOCK_CHARS = 1 << 16  # about 64 kB per write
BATCH = 512  # list items rendered by one template
BATCH_CELLS = 1 << 14  # values (leaves and containers) in one batch
WIDE = 64  # lists this long whose elements share one shape render by element
_INDENT = "  "
_INF = float("inf")


def _float_str(o):
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _key_str(k):
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float_str(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


# the exact leaf types a template takes, each with its placeholder and
# its encoder (None: %d formats the int itself); None is a literal
_LEAF = {
    int: ("%d", None),
    str: ("%s", _quote),
    float: ("%s", _float_str),
    bool: ("%s", {True: "true", False: "false"}.__getitem__),
}


def _template(col, level, columns):
    """One %-format template for the values in `col` (one position across
    the items of a batch) at indent `level`, or None when they do not
    share one shape: exact int/str/float/bool/None leaves, lists or
    tuples of one length, dicts with one set of str keys.  Each leaf
    position is appended to `columns` as a lazily encoded column."""
    types = set(map(type, col))
    if len(types) != 1:
        return None
    t = types.pop()
    if t is type(None):
        return "null"
    if t in _LEAF:
        placeholder, encode = _LEAF[t]
        columns.append(col if encode is None else map(encode, col))
        return placeholder
    if t is dict:
        keys = list(col[0])
        if any(type(k) is not str for k in keys):
            return None
        keys.sort()
        labels = [_quote(k).replace("%", "%%") + ": " for k in keys]
        opening, closing = "{", "}"
    elif t is list or t is tuple:
        keys = range(len(col[0]))
        labels = [""] * len(keys)
        opening, closing = "[", "]"
    else:
        return None
    if set(map(len, col)) != {len(keys)}:
        return None
    if not keys:
        return opening + closing
    inner = "\n" + _INDENT * (level + 1)
    if opening == "[" and len(keys) >= WIDE:
        wide = _wide_column(col, level, inner)
        if wide is not None:
            columns.append(wide)
            return "%s"
    parts = []
    for key, label in zip(keys, labels):
        try:
            part = _template(list(map(itemgetter(key), col)), level + 1, columns)
        except KeyError:  # same number of keys, not the same keys
            return None
        if part is None:
            return None
        parts.append(label + part)
    return opening + inner + ("," + inner).join(parts) + "\n" + _INDENT * level + closing


def _wide_column(col, level, inner):
    """The lists in `col`, of one length n, each rendered whole, when all
    their elements share one shape: n copies of the elements' one
    template make the lists' template, so a batch costs no Python work
    per position.  None otherwise."""
    n = len(col[0])
    flat = list(chain.from_iterable(col))
    columns = []
    part = _template(flat, level + 1, columns)
    if part is None:
        return None
    template = "[" + inner + ("," + inner).join([part] * n) + "\n" + _INDENT * level + "]"
    args = chain.from_iterable(zip(*columns))  # each element's leaves, in order
    return (template % tuple(islice(args, n * len(columns))) for _ in col)


def _size(o):
    """The number of values in o: its leaves and its containers."""
    if isinstance(o, dict):
        return 1 + sum(map(_size, o.values()))
    if isinstance(o, (list, tuple)):
        return 1 + sum(map(_size, o))
    return 1


def _next_batch(items):
    """The next items of a list iterator to render together: at most
    BATCH of them, and about BATCH_CELLS values in all, by the size of
    the first."""
    for first in items:
        n = min(BATCH, max(1, BATCH_CELLS // _size(first)))
        return [first, *islice(items, n - 1)]
    return []


def write_canonical(obj, write):
    """Pass to `write` what json.dumps gives for obj with sort_keys=True,
    indent=2 and default=str, plus a newline, in blocks of about
    BLOCK_CHARS characters.  A Rows is written as the list of its items,
    which are generated one batch at a time, so it is never held whole.

    The walk is the stdlib encoder's, except that a list is taken one
    batch at a time (_next_batch), and a batch whose items share one
    shape is rendered with one template whose leaf columns are encoded
    at C speed."""
    buf = []
    append = buf.append
    counted = size = 0

    def spill():
        nonlocal counted, size
        size += sum(map(len, buf[counted:]))
        counted = len(buf)
        if size >= BLOCK_CHARS:
            write("".join(buf))
            buf.clear()
            counted = size = 0

    def encode(o, level):
        if isinstance(o, str):
            append(_quote(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, float):
            append(_float_str(o))
        elif isinstance(o, (list, tuple, Rows)):
            items = iter(o)
            batch = _next_batch(items)
            if not batch:
                append("[]")
                return
            inner = "\n" + _INDENT * (level + 1)
            sep, comma = "[" + inner, "," + inner
            while batch:
                columns = []
                template = _template(batch, level + 1, columns)
                if template is None:
                    for item in batch:
                        append(sep)
                        sep = comma
                        encode(item, level + 1)
                else:
                    rows = map(template.__mod__, zip(*columns)) if columns else [template % ()] * len(batch)
                    append(sep + comma.join(rows))
                    sep = comma
                spill()
                batch = _next_batch(items)
            append("\n" + _INDENT * level + "]")
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = "\n" + _INDENT * (level + 1)
            sep, comma = "{" + inner, "," + inner
            for key, value in sorted(o.items()):
                append(sep + _quote(_key_str(key)) + ": ")
                sep = comma
                encode(value, level + 1)
            append("\n" + _INDENT * level + "}")
        else:
            encode(str(o), level)

    encode(obj, 0)
    append("\n")
    write("".join(buf))


def canonical_json(obj):
    """Write obj's canonical JSON to the current sys.stdout."""
    write_canonical(obj, sys.stdout.write)


# ---------------------------------------------------------------------------
# analyze


def _count_by_summary(G):
    return [{"level": k, "prim_degree": t, "count": n} for (k, t), n in census(G).items()]


def prime_block(gpd, characters):
    """One per-prime report block; the wild cases carry the filtrations,
    the character census and the conductor/discriminant data, with the
    per-character conductor rows (a Rows stream) only if `characters` is
    set."""
    ctx = gpd.context
    block = {
        "p": ctx.p,
        "case": ctx.case,
        "context": dataclasses.asdict(ctx),
        "e_global": gpd.e_global,
        "filtration": {
            "upper": filtration_json(ctx.upper),
            "lower": filtration_json(ctx.lower),
        },
    }
    if ctx.case in (UNIT, EISENSTEIN):
        G = ctx.group()
        block["characters"] = {
            "class_count": class_count(G),
            "count_by": _count_by_summary(G),
        }
        block["conductors"] = conductor_json(ctx, characters)
    return block


def build_report(a, m, characters, prime=None):
    """The full analyze report: one prime_block per prime, in prime
    order.  Per-character rows go in when `characters` is set (text
    output needs none), and then only in `prime`'s block if it is given:
    --prime prints that block alone."""
    return {
        "input": {"a": a, "m": m},
        "validation": {"ok": True, "violations": []},
        "primes": [prime_block(gpd, characters and prime in (None, gpd.context.p))
                   for gpd in global_ram(m, a)],
    }


def _fmt_steps(fj):
    if not fj["steps"]:
        return "(trivial)"
    parts = []
    for srow in fj["steps"]:
        if srow["x"] is None:
            parts.append(f"{srow['break']}: cyclic of order {srow['order']}")
        else:
            parts.append(
                f"{srow['break']}: (x={srow['x']}, y={srow['y']}, order {srow['order']})"
            )
    return "; ".join(parts)


def _print_block(block, out):
    ctx = block["context"]
    out.write(
        f"prime {block['p']}: {block['case']}  "
        f"(r={ctx['r']}, v_p(a)={ctx['vp_a']}, s={ctx['s']}, g={ctx['g']}, "
        f"f_res={ctx['f_res']})\n"
    )
    out.write(f"  e_local = {ctx['e']}, e_global = {block['e_global']}\n")
    out.write(f"  upper filtration: {_fmt_steps(block['filtration']['upper'])}\n")
    out.write(f"  lower filtration: {_fmt_steps(block['filtration']['lower'])}\n")
    if "characters" in block:
        census = ", ".join(
            f"(k={row['level']}, pr={row['prim_degree']}): {row['count']}"
            for row in block["characters"]["count_by"]
        )
        out.write(
            f"  characters: {block['characters']['class_count']} classes; {census}\n"
        )
        d = block["conductors"]["v_p_disc"]
        out.write(
            f"  v_{block['p']}(disc): sum={d['sum']}, closed={d['closed']}, "
            f"different={d['different']}, agree={str(d['agree']).lower()}\n"
        )


def cmd_analyze(args):
    try:
        report = build_report(args.a, args.m, args.json, args.prime)
    except HypothesisError as exc:
        if args.json:
            canonical_json({
                "input": {"a": args.a, "m": args.m},
                "validation": {"ok": False, "violations": exc.violations},
                "primes": [],
            })
        else:
            for v in exc.violations:
                sys.stdout.write(f"violation: {v}\n")
        return EXIT_VIOLATION

    if args.prime is not None:
        blocks = [b for b in report["primes"] if b["p"] == args.prime]
        if not blocks:
            relevant = ", ".join(str(b["p"]) for b in report["primes"])
            sys.stderr.write(
                f"prime {args.prime} does not divide m or a (relevant: {relevant})\n"
            )
            return EXIT_USAGE
        payload = blocks[0]
    else:
        payload = report

    if args.json:
        canonical_json(payload)
    else:
        sys.stdout.write(f"x^{args.m} - ({args.a})\nvalidation: ok\n")
        blocks = [payload] if args.prime is not None else report["primes"]
        for block in blocks:
            _print_block(block, sys.stdout)

    bad = [
        b["p"]
        for b in report["primes"]
        if "conductors" in b and not b["conductors"]["v_p_disc"]["agree"]
    ]
    ensure(not bad, "disagreement at p in {}", bad)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _context_check_rows(ctx):
    return ramification_checks(ctx) + conductor_checks(ctx)


def verify_sweep(ps, rs, s_filter, max_order):
    """Oracle reports plus named self-checks for every group in range."""
    from .oracle import verification_report  # numpy is needed by verify only

    results = []
    for p in ps:
        for r in rs:
            for s in range(r + 1) if s_filter is None else [s_filter]:
                if s > r:
                    continue
                G = GroupDesc(p, r, s)
                group = {"p": p, "r": r, "s": s, "order": G.order}
                if G.order > max_order:
                    skipped = f"order {G.order} exceeds bound {max_order}"
                    results.append({"group": group, "skipped": skipped})
                    continue
                entry = {
                    "group": group,
                    "oracle": verification_report(G, max_order),
                    "unit_checks": _context_check_rows(wild_context(p, r, s, UNIT, 0)),
                }
                if s == r:
                    entry["eisenstein_checks"] = _context_check_rows(
                        wild_context(p, r, r, EISENSTEIN, 1)
                    )
                results.append(entry)
    return results


def _iter_check_rows(entry):
    if "oracle" in entry:
        yield from entry["oracle"]["checks"]
    for key in ("unit_checks", "eisenstein_checks"):
        yield from entry.get(key, ())


def cmd_verify(args, parser):
    if args.p is not None and (args.p % 2 == 0 or not is_prime(args.p)):
        parser.error(f"--p must be an odd prime (got {args.p})")
    if args.r is not None and args.r < 1:
        parser.error("--r must be at least 1")
    if args.s is not None and args.s < 0:
        parser.error("--s must be non-negative")
    if args.s is not None and args.r is not None and args.s > args.r:
        parser.error(f"--s {args.s} exceeds --r {args.r}")

    try:
        max_order = resolve_max_order(args.max_order)
    except ValueError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return EXIT_USAGE
    ps = [args.p] if args.p is not None else [3, 5, 7]
    rs = [args.r] if args.r is not None else [1, 2, 3]
    results = verify_sweep(ps, rs, args.s, max_order)

    n_pass = n_fail = n_skip = 0
    for entry in results:
        g = entry["group"]
        tag = f"p={g['p']} r={g['r']} s={g['s']} (order {g['order']})"
        if "skipped" in entry:
            n_skip += 1
            if not args.json:
                sys.stdout.write(f"SKIP  {tag}: {entry['skipped']}\n")
            continue
        for row in _iter_check_rows(entry):
            status = row["status"]
            if status == "fail":
                n_fail += 1
            elif status == "pass":
                n_pass += 1
            if not args.json and status != "pass":
                detail = row.get("detail")
                extra = f": {detail}" if detail else ""
                sys.stdout.write(f"{status.upper():5s} {tag} {row['name']}{extra}\n")
        if not args.json:
            names = sum(1 for _ in _iter_check_rows(entry))
            sys.stdout.write(f"ok    {tag}: {names} checks\n")

    ok = n_fail == 0
    if args.json:
        canonical_json({"max_order": max_order, "groups": results, "ok": ok})
    else:
        sys.stdout.write(
            f"{n_pass} checks passed, {n_fail} failed, {n_skip} groups skipped\n"
        )
    return EXIT_OK if ok else EXIT_INCONSISTENT


# ---------------------------------------------------------------------------
# chartab


def chartab_values(G):
    """(classes, n, value_row) for G's table of n characters, once its
    census is checked.  value_row(row) is one table_rows row's values, a
    (coefficient, exponent) pair per class, the exponent 0 where the
    coefficient is: from its level's coefficient list, kept per level, and
    its twist's exponent list, made for the row."""
    mismatch = census_mismatch(G, table_rows(G))
    ensure(mismatch is None, "character table against census: {}", mismatch)
    classes = all_classes(G)
    ea, eb = class_exponents(G, classes)
    m0 = twist_order(G)
    coeffs = [coefficient_row(k, classes, G.p) for k in range(G.s + 1)]
    nonzero = [[1 if c else 0 for c in row] for row in coeffs]

    def value_row(row):
        level = row[3]
        return list(zip(coeffs[level], map(mul, exponent_row(row[1], ea, eb, m0), nonzero[level])))

    return classes, sum(census(G).values()), value_row


def chartab_payload(G):
    """chartab's JSON report.  Its characters and values are Rows, made
    from table_rows one row at a time while they are written."""
    classes, n, value_row = chartab_values(G)
    return {
        "group": {"p": G.p, "r": G.r, "s": G.s, "order": G.order},
        "root_of_unity_order": twist_order(G),
        "classes": [
            {"u": c.representative.u, "beta": c.beta, "alpha": c.alpha, "size": c.size}
            for c in classes
        ],
        "characters": Rows(n, lambda: map(character_json, table_rows(G))),
        "values": Rows(n, lambda: map(value_row, table_rows(G))),
    }


def _fmt_value(coe, exp):
    if coe == 0:
        return "0"
    if exp == 0:
        return str(coe)
    if coe == 1:
        return f"z^{exp}"
    return f"{coe}*z^{exp}"


def cmd_chartab(args, parser):
    if args.p % 2 == 0 or not is_prime(args.p):
        parser.error(f"p must be an odd prime (got {args.p})")
    if args.r < 1:
        parser.error("r must be at least 1")
    if not 0 <= args.s <= args.r:
        parser.error(f"s must lie in 0..r (got s={args.s}, r={args.r})")

    G = GroupDesc(args.p, args.r, args.s)
    if args.json:
        canonical_json(chartab_payload(G))
        return EXIT_OK

    classes, n, value_row = chartab_values(G)
    sys.stdout.write(
        f"character table of C({G.p}^{G.s}) x| G({G.p}^{G.r}), "
        f"order {G.order}; z = root of unity of order {twist_order(G)}\n"
    )
    sys.stdout.write(
        "classes (u, beta, size): "
        + "  ".join(f"({c.representative.u},{c.beta},{c.size})" for c in classes)
        + "\n"
    )
    for row in Rows(n, lambda: table_rows(G)):
        kind, twist, degree, level, _ = row
        cells = "  ".join(_fmt_value(coe, exp) for coe, exp in value_row(row))
        sys.stdout.write(f"{kind:7s} twist={twist} deg={degree} level={level}: {cells}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def make_parser():
    parser = _Parser(
        prog="radical-ram",
        description="Exact ramification data of x^m - a and its splitting field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full per-prime report for x^m - a")
    pa.add_argument("a", type=int, help="radicand")
    pa.add_argument("m", type=int, help="odd exponent")
    pa.add_argument("--prime", type=int, default=None, help="emit one prime's block")
    pa.add_argument("--json", action="store_true", help="canonical JSON output")
    pa.set_defaults(_sub=pa)

    pv = sub.add_parser("verify", help="run the oracle suites and self-checks")
    pv.add_argument("--p", type=int, default=None, help="restrict to one prime")
    pv.add_argument("--r", type=int, default=None, help="restrict to one exponent r")
    pv.add_argument("--s", type=int, default=None, help="restrict to one depth s")
    pv.add_argument(
        "--max-order",
        type=int,
        default=None,
        help=f"largest group order to enumerate (default env RADICAL_RAM_MAX_ORDER or {DEFAULT_MAX_ORDER})",
    )
    pv.add_argument("--json", action="store_true", help="canonical JSON output")
    pv.set_defaults(_sub=pv)

    pc = sub.add_parser("chartab", help="dump one character table")
    pc.add_argument("p", type=int)
    pc.add_argument("r", type=int)
    pc.add_argument("s", type=int)
    pc.add_argument("--json", action="store_true", help="canonical JSON output")
    pc.set_defaults(_sub=pc)

    return parser


def main(argv=None):
    """Run one subcommand; a resource limit or an internal inconsistency
    raised by any of them is exit 4 or 3, with one line on stderr."""
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "verify":
            return cmd_verify(args, args._sub)
        return cmd_chartab(args, args._sub)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except AssertionError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
