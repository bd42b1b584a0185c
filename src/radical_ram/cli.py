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
more than arith.FACTOR_BUDGET Pollard-Brent steps); 141 stdout was closed
by its reader (as by `| head`), the shell's code for a SIGPIPE death.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from itertools import compress, islice
from json.encoder import encode_basestring_ascii as _quote

from .arith import DEFAULT_MAX_ORDER, HOLE, ResourceLimitError, Rows, Stamp, ensure, is_prime
from .arith import resolve_max_order
from .chartab import bucket_stamps, census, census_mismatch, character_samples, class_exponents
from .chartab import coefficient_row, exponent_row, table_rows, twist_order
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
EXIT_PIPE = 141


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract reserves
    2 for hypothesis violations, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# canonical JSON

BLOCK_CHARS = 1 << 16  # about 64 kB per write
_INDENT = "  "
_HOLE_MARK = "\0"  # a HOLE in a sample's text: JSON text has no raw NUL


def _stamp_template(sample, level):
    """The %-template of a Stamp's sample at indent `level`: the sample's
    canonical text, written by write_canonical itself, with each literal
    % doubled and %d at each HOLE."""
    parts = []
    write_canonical(sample, parts.append)
    text = "".join(parts)[:-1].replace("%", "%%").replace("\n", "\n" + _INDENT * level)
    return text.replace(_HOLE_MARK, "%d")


def write_canonical(obj, write):
    """Pass to `write` what json.dumps gives for obj with sort_keys=True,
    indent=2 and default=str, plus a newline, in blocks of about
    BLOCK_CHARS characters.  A Rows is written as the list of its items,
    generated while they are written, so it is never held whole.  A
    Stamp is written as its sample with its ints in the holes.  A float
    or a dict key that is not a str fails ensure: canonical JSON holds
    neither.

    The walk is the stdlib encoder's, except that a Stamp is rendered
    from its sample's template, built once per sample and indent, and a
    list takes a run of Stamps one block at a time: the first Stamp and
    the next BLOCK_CHARS // len(template) items, rendered together when
    all are Stamps.  Every other item is walked, and the buffer spills
    after each."""
    buf = []
    append = buf.append
    counted = size = 0
    shapes = {}  # (id(sample), level): (template, sample); holding the sample keeps its id

    def shape(stamp, level):
        key = id(stamp.sample), level
        known = shapes.get(key)
        if known is None:
            known = shapes[key] = _stamp_template(stamp.sample, level), stamp.sample
        return known

    def spill():
        nonlocal counted, size
        size += sum(map(len, buf[counted:]))
        counted = len(buf)
        if size >= BLOCK_CHARS:
            write("".join(buf))
            buf.clear()
            counted = size = 0

    def encode(o, level):
        if type(o) is Stamp:
            append(shape(o, level)[0] % o.ints)
        elif isinstance(o, str):
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
            ensure(False, "float {!r} in canonical JSON", o)
        elif isinstance(o, (list, tuple, Rows)):
            items = iter(o)
            inner = "\n" + _INDENT * (level + 1)
            opening = sep = "[" + inner
            comma = "," + inner
            known = shapes.get
            for item in items:
                block = [item]
                if type(item) is Stamp:
                    block += islice(items, BLOCK_CHARS // len(shape(item, level + 1)[0]))
                    if set(map(type, block)) == {Stamp}:
                        append(sep + comma.join([
                            (known((id(x.sample), level + 1)) or shape(x, level + 1))[0] % x.ints
                            for x in block]))
                        sep = comma
                        spill()
                        continue
                for x in block:
                    append(sep)
                    sep = comma
                    encode(x, level + 1)
                    spill()
            append("[]" if sep is opening else "\n" + _INDENT * level + "]")
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            bad = [k for k in o if not isinstance(k, str)]
            ensure(not bad, "dict key {!r} in canonical JSON is not a str", *bad[:1])
            inner = "\n" + _INDENT * (level + 1)
            sep, comma = "{" + inner, "," + inner
            for key, value in sorted(o.items()):
                append(sep + _quote(key) + ": ")
                sep = comma
                encode(value, level + 1)
            append("\n" + _INDENT * level + "}")
        elif o is HOLE:
            append(_HOLE_MARK)
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
    rs = [args.r] if args.r is not None else [1, 2, 3]
    if args.s is not None and args.s > max(rs):
        # no group of the sweep has s > r: it would check nothing
        parser.error(f"--s {args.s} exceeds the sweep's largest r, {max(rs)}")

    try:
        max_order = resolve_max_order(args.max_order)
    except ValueError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return EXIT_USAGE
    ps = [args.p] if args.p is not None else [3, 5, 7]
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
    """(classes, n, coeffs, exponents) for G's table of n characters, once
    its census is checked.  coeffs[k] is the level-k coefficient on every
    class.  exponents(row) is a table_rows row's twist exponents (mod m0)
    on the classes where its level's coefficient is nonzero, in class
    order: the value there is coeff * z^exp, and 0 elsewhere.  Only the
    exponents are made per row."""
    mismatch = census_mismatch(G, table_rows(G))
    ensure(mismatch is None, "character table against census: {}", mismatch)
    classes = all_classes(G)
    ea, eb = class_exponents(G, classes)
    m0 = twist_order(G)
    coeffs = [coefficient_row(k, classes, G.p) for k in range(G.s + 1)]
    support = [(list(compress(ea, row)), list(compress(eb, row))) for row in coeffs]

    def exponents(row):
        return tuple(exponent_row(row[1], *support[row[3]], m0))

    return classes, sum(census(G).values()), coeffs, exponents


def chartab_payload(G):
    """chartab's JSON report, every row a Stamp.  A class fills one
    sample with its four ints.  The characters and values are Rows, made
    from table_rows one row at a time while they are written: a
    character fills its bucket's sample with its twist, and a value row
    fills its level's, which holds the level's coefficients, [0, 0] at
    each zero and a HOLE for each other exponent."""
    classes, n, coeffs, exponents = chartab_values(G)
    characters = character_samples(G)
    levels = [[[c, HOLE] if c else [0, 0] for c in row] for row in coeffs]
    class_sample = dict.fromkeys(("alpha", "beta", "size", "u"), HOLE)
    return {
        "group": {"p": G.p, "r": G.r, "s": G.s, "order": G.order},
        "root_of_unity_order": twist_order(G),
        "classes": [Stamp(class_sample, (c.alpha, c.beta, c.size, c.representative.u)) for c in classes],
        "characters": Rows(n, lambda: bucket_stamps(table_rows(G), characters)),
        "values": Rows(n, lambda: (Stamp(levels[row[3]], exponents(row)) for row in table_rows(G))),
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

    classes, n, coeffs, exponents = chartab_values(G)
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
        exps = iter(exponents(row))
        cells = "  ".join(_fmt_value(coe, next(exps) if coe else 0) for coe in coeffs[level])
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
    raised by any of them is exit 4 or 3, with one line on stderr.  A
    stdout closed by its reader is exit 141, with nothing on stderr."""
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            code = cmd_analyze(args)
        elif args.command == "verify":
            code = cmd_verify(args, args._sub)
        else:
            code = cmd_chartab(args, args._sub)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit: into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except AssertionError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
