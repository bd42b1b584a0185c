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
more than arith.FACTOR_BUDGET Pollard-Brent steps, or the process ran
out of memory); 141 stdout was closed by its reader (as by `| head`),
the shell's code for a SIGPIPE death.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import compress, islice
from json.encoder import encode_basestring_ascii as _quote

from .arith import DEFAULT_MAX_ORDER, HOLE, ResourceLimitError, Rows, Stamp, ensure, is_prime
from .chartab import bucket_stamps, census, character_samples, exponent_rows
from .chartab import table_rows, twist_order, value_table
from .conductor import conductor_checks, conductor_json
from .holomorph import GroupDesc, class_count
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
    """(template, holes): the %-template of a Stamp's sample at indent
    `level`, the sample's canonical text, written by write_canonical
    itself, with each literal % doubled and %d at each HOLE, and the
    number of HOLEs."""
    parts = []
    write_canonical(sample, parts.append)
    text = "".join(parts)[:-1].replace("%", "%%").replace("\n", "\n" + _INDENT * level)
    return text.replace(_HOLE_MARK, "%d"), text.count(_HOLE_MARK)


def write_canonical(obj, write):
    """Pass to `write` what json.dumps gives for obj with sort_keys=True,
    indent=2 and default=str, plus a newline, in blocks of about
    BLOCK_CHARS characters.  A Rows is written as the list of its items,
    generated while they are written, so it is never held whole.  A
    Stamp is written as its sample with its ints in the holes.  A float
    or a dict key that is not a str fails ensure: canonical JSON holds
    neither.  So does a Stamp whose ints are not all of type int (a float
    or a bool), or are more or fewer than its sample's holes.  The Stamp
    a sample's template is built from is checked in full; a later Stamp
    of the same sample only when % refuses its ints (a wrong count, or an
    item %d cannot format), so a float or a bool there is written as %d
    writes it.

    The walk is the stdlib encoder's, except that a Stamp is rendered
    from its sample's template, built once per sample and indent, and a
    list takes a run of Stamps one block at a time: the first Stamp and
    the next BLOCK_CHARS // len(template) items, rendered together when
    all are Stamps.  Every other item is walked, and the buffer spills
    after each."""
    buf = []
    append = buf.append
    counted = size = 0
    shapes = {}  # (id(sample), level): (template, holes, sample); holding the sample keeps its id
    known = shapes.get

    def check(stamp, holes):
        ensure(len(stamp.ints) == holes, "Stamp with {} ints for a sample with {} holes",
               len(stamp.ints), holes)
        bad = [i for i in stamp.ints if type(i) is not int]
        ensure(not bad, "Stamp value {!r} in canonical JSON is not an int", *bad[:1])

    def shape(stamp, level):
        found = known((id(stamp.sample), level))
        if found is None:
            template, holes = _stamp_template(stamp.sample, level)
            check(stamp, holes)
            found = shapes[id(stamp.sample), level] = template, holes, stamp.sample
        return found

    def fill(stamps, level):
        """Each Stamp's template % its ints.  Only a Stamp that does not
        fit its template makes % raise TypeError, and then every Stamp of
        the block is checked, so the misfit fails ensure."""
        try:
            return [(known((id(x.sample), level)) or shape(x, level))[0] % x.ints for x in stamps]
        except TypeError:
            for x in stamps:
                check(x, shape(x, level)[1])
            raise

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
            append(fill([o], level)[0])
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
            for item in items:
                block = [item]
                if type(item) is Stamp:
                    block += islice(items, BLOCK_CHARS // len(shape(item, level + 1)[0]))
                    if set(map(type, block)) == {Stamp}:
                        append(sep + comma.join(fill(block, level + 1)))
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


def prime_block(gpd, characters):
    """One per-prime report block; the wild cases carry the filtrations,
    the character census and the conductor/discriminant data, with the
    per-character conductor rows (a Rows stream) only if `characters` is
    set."""
    ctx = gpd.context
    block = {
        "p": ctx.p,
        "case": ctx.case,
        "context": ctx._asdict(),
        "e_global": gpd.e_global,
        "filtration": {
            "upper": filtration_json(ctx.upper),
            "lower": filtration_json(ctx.lower),
        },
    }
    if ctx.case in (UNIT, EISENSTEIN):
        G = ctx.group()
        counts = census(G)
        block["characters"] = {
            "class_count": class_count(G),
            "count_by": [{"level": k, "prim_degree": t, "count": n} for (k, t), n in counts.items()],
        }
        block["conductors"] = conductor_json(ctx, characters, counts)
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
    """Oracle reports plus named self-checks for every group in range; a
    group the oracle refuses is a skip entry with the refusal's reason."""
    from .oracle import verification_report  # numpy is needed by verify only

    results = []
    for p in ps:
        for r in rs:
            for s in range(r + 1) if s_filter is None else [s_filter]:
                if s > r:
                    continue
                G = GroupDesc(p, r, s)
                group = {"p": p, "r": r, "s": s, "order": G.order}
                try:
                    report = verification_report(G, max_order)
                except ResourceLimitError as exc:
                    results.append({"group": group, "skipped": str(exc)})
                    continue
                entry = {
                    "group": group,
                    "oracle": report,
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

    from .oracle import within_bound

    ps = [args.p] if args.p is not None else [3, 5, 7]
    smallest = GroupDesc(min(ps), min(rs), 0)
    if not within_bound(smallest, args.max_order):
        # every group of the sweep would be skipped, so it would check
        # nothing; the order is not printed, as a huge r makes it too long
        sys.stderr.write(f"{parser.prog}: error: --max-order {args.max_order} is below the order of the "
                         f"smallest group, p={smallest.p} r={smallest.r} s=0\n")
        return EXIT_USAGE
    results = verify_sweep(ps, rs, args.s, args.max_order)

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
        canonical_json({"max_order": args.max_order, "groups": results, "ok": ok})
    else:
        sys.stdout.write(
            f"{n_pass} checks passed, {n_fail} failed, {n_skip} groups skipped\n"
        )
    return EXIT_OK if ok else EXIT_INCONSISTENT


# ---------------------------------------------------------------------------
# chartab


def chartab_values(G):
    """(classes, n, coeffs, rows) for G's table of n characters, from
    value_table.  rows() is a fresh exponent_rows stream on each level's
    support, the classes where the level's coefficient is nonzero, in
    class order: a row's value there is coeff * z^exp, and 0 elsewhere.
    Only the exponents are made per row, each by one packed step from
    the previous row of its run."""
    classes, coeffs, ea, eb = value_table(G)
    support = [(list(compress(ea, row)), list(compress(eb, row))) for row in coeffs]
    return classes, sum(census(G).values()), coeffs, lambda: exponent_rows(G, support)


def chartab_payload(G):
    """chartab's JSON report, every row a Stamp.  A class fills one
    sample with its four ints.  The characters and values are Rows, made
    from table_rows one row at a time while they are written: a
    character fills its bucket's sample with its twist, and a value row
    fills its level's, which holds the level's coefficients, [0, 0] at
    each zero and a HOLE for each other exponent."""
    classes, n, coeffs, rows = chartab_values(G)
    characters = character_samples(G, census(G))
    levels = [[[c, HOLE] if c else [0, 0] for c in row] for row in coeffs]
    class_sample = dict.fromkeys(("alpha", "beta", "size", "u"), HOLE)
    return {
        "group": {"p": G.p, "r": G.r, "s": G.s, "order": G.order},
        "root_of_unity_order": twist_order(G),
        "classes": [Stamp(class_sample, (c.alpha, c.beta, c.size, c.representative.u)) for c in classes],
        "characters": Rows(n, lambda: bucket_stamps(table_rows(G), characters)),
        "values": Rows(n, lambda: (Stamp(levels[row[3]], exps) for row, exps in rows())),
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

    classes, n, coeffs, rows = chartab_values(G)
    sys.stdout.write(
        f"character table of C({G.p}^{G.s}) x| G({G.p}^{G.r}), "
        f"order {G.order}; z = root of unity of order {twist_order(G)}\n"
    )
    sys.stdout.write(
        "classes (u, beta, size): "
        + "  ".join(f"({c.representative.u},{c.beta},{c.size})" for c in classes)
        + "\n"
    )
    for (kind, twist, degree, level, _), exps in Rows(n, rows):
        exps = iter(exps)
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
        default=DEFAULT_MAX_ORDER,
        help=f"largest group order the brute-force oracle enumerates (default {DEFAULT_MAX_ORDER}); "
        "a larger group is skipped, and a bound below every group of the sweep is a usage error",
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
    """Run one subcommand; a resource limit, running out of memory
    included, or an internal inconsistency raised by any of them is exit
    4 or 3, with one line on stderr.  A stdout closed by its reader is
    exit 141, with nothing on stderr."""
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
    except (ResourceLimitError, MemoryError) as exc:
        sys.stderr.write(f"resource limit: {str(exc) or 'out of memory'}\n")
        return EXIT_RESOURCE
    except AssertionError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
