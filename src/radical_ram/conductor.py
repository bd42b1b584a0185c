"""Artin conductor exponents and discriminant valuations, each computed
along independent routes that must agree.

For a character chi of the local Galois group C(p^s) x| G(p^r) the
conductor exponent c(chi) is

  - computed definitionally as the largest upper-numbering break whose
    ramification group is NOT contained in the null subgroup of chi
    (so this route exercises the whole filtration machinery), and
  - computed in closed form from (level, primitive degree), and
  - folded into f(chi) = deg(chi) * (1 + c(chi)), which must land on a
    non-negative integer even though c has denominator p - 1, and must
    match a third, directly printed integer form.

Since c(chi) depends on (level, primitive degree) alone, the checked
value is computed once per (level, primitive degree) bucket of the
closed census chartab.census (bucket_conductor), and conductor_buckets
is the one conductor table: a character's (c, f) is its bucket's.
The null subgroup of bucket (k, t), C(p^(s-k)) x| G(p^r)^t, is the
intersection of C(p^(s-k)) x| G(p^r) and C(p^s) x| G(p^r)^t, and a
group escapes an intersection exactly when it escapes one of the two.
So the definitional exponent is the larger of two one-coordinate
tables (escape_breaks), filled in one pass over the filtration's steps:
the route reads each step once, however many buckets there are.
analyze's JSON streams one row per chartab.table_rows tuple, a Stamp of
its bucket's row, (c, f) included, filled with its twist, and builds no
Character.  verify builds the same buckets and checks the table rows'
census against them.

The p-valuation of the local discriminant is then obtained three ways:
the conductor-discriminant sum (over the buckets, weighted by the
census), a closed polynomial in (p, r, s), and the different-sum of the
lower filtration.  A fourth route decomposes the sum by (level,
primitive degree) classes into named partial sums with their own closed
forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .arith import Rows, ensure, run_checks
from .chartab import bucket_stamps, census, census_mismatch, character_samples
from .chartab import count_by, level_degree, subgroup_normal_form, table_rows
from .ramfil import (
    EISENSTEIN,
    UNIT,
    UPPER,
    classify_prime,
    different_sum,
    frac_str,
)


def escape_breaks(G, filt):
    """The definitional route's two tables, (A, B), from one pass over the
    steps of filt, the upper filtration of G:

      A[k] (0 <= k <= s), the largest break whose group is not inside
           C(p^(s-k)) x| G(p^r);
      B[t] (0 <= t <= r), the largest break whose group is not inside
           C(p^s) x| G(p^r)^t;

    each -1 where no break qualifies.  Containment is componentwise on
    normal forms (SubgroupDesc), so a step (x, y) escapes the first group
    iff x > s - k and the second iff y < t: it is recorded at the least
    such k and t, a later step (a larger break) overwriting an earlier
    one, and a running maximum carries it to every larger k and t."""
    ensure(filt.numbering == UPPER and filt.group == G)
    s, r = G.s, G.r
    A = [Fraction(-1)] * (s + 1)
    B = [Fraction(-1)] * (r + 1)
    for b, h in filt.steps:
        x, y = subgroup_normal_form(h, G)
        if x > 0:
            A[s + 1 - x] = b
        if y < r:
            B[y + 1] = b
    for table in A, B:
        for i in range(1, len(table)):
            table[i] = max(table[i], table[i - 1])
    return A, B


def _c_definitional(tables, lev, pr):
    """Largest break whose group is not inside the null subgroup
    C(p^(s-lev)) x| G(p^r)^pr, read from escape_breaks' tables; -1 for
    the trivial character's bucket (0, 0)."""
    if (lev, pr) == (0, 0):
        return Fraction(-1)
    A, B = tables
    best = max(A[lev], B[pr])
    ensure(best >= 0, "a nontrivial character must be detected by some break")
    return best


def _c_closed(case, p, lev, pr):
    """Closed conductor exponent from (level, primitive degree).

    Unit case: pr-1, except pr-1 + 1/(p-1) on the diagonal 0 < lev = pr.
    Eisenstein case: pr-1 when pr >= lev+2, else lev + 1/(p-1) (the
    whole wild part survives one congruence level longer, so the
    fractional band is two classes wide)."""
    if lev == 0:
        return Fraction(pr - 1)
    ensure(1 <= lev <= pr)
    if case == UNIT:
        if lev < pr:
            return Fraction(pr - 1)
        return Fraction(pr - 1) + Fraction(1, p - 1)
    ensure(case == EISENSTEIN)
    if lev + 2 <= pr:
        return Fraction(pr - 1)
    return Fraction(lev) + Fraction(1, p - 1)


def _f_printed(case, p, lev, pr):
    """The directly printed integer form of f = deg * (1 + c)."""
    if lev == 0:
        return pr
    deg = level_degree(lev, p)
    if case == UNIT:
        return deg * pr + (p ** (lev - 1) if lev == pr else 0)
    if lev + 2 <= pr:
        return deg * pr
    return deg * (lev + 1) + p ** (lev - 1)


def bucket_conductor(ctx, lev, pr, tables):
    """(c, f) shared by every character of level lev and primitive degree
    pr, with the definitional exponent (read from `tables`,
    escape_breaks of ctx's upper filtration) and the closed exponent
    reconciled, and f checked integral and equal to its printed form.
    Disagreement is an internal inconsistency (it would falsify either
    the filtration canonicalization or the closed conductor data), hence
    an AssertionError."""
    c_def = _c_definitional(tables, lev, pr)
    c_clo = _c_closed(ctx.case, ctx.p, lev, pr)
    ensure(c_def == c_clo, "conductor mismatch at p={0.p} r={0.r} s={0.s} {0.case}: "
           "definitional {1} != closed {2} for lev={3}, pr={4}", ctx, c_def, c_clo, lev, pr)
    f = level_degree(lev, ctx.p) * (1 + c_clo)
    ensure(f.denominator == 1 and f >= 0, "Artin conductor {} must be a non-negative integer", f)
    f_val = int(f)
    printed = _f_printed(ctx.case, ctx.p, lev, pr)
    ensure(f_val == printed, "printed conductor mismatch at p={0.p} r={0.r} s={0.s} {0.case}: "
           "deg * (1 + c) = {1} != printed {2} for lev={3}, pr={4}", ctx, f_val, printed, lev, pr)
    return c_clo, f_val


def conductor_buckets(ctx, counts=None):
    """{(level, prim_degree): (c, f)} over the buckets of `counts`, the
    census of ctx's group (built here when not given), in (level,
    prim_degree) order."""
    ensure(ctx.case in (UNIT, EISENSTEIN))
    G = ctx.group()
    tables = escape_breaks(G, ctx.upper)
    return {(k, t): bucket_conductor(ctx, k, t, tables) for k, t in counts or census(G)}


# ---------------------------------------------------------------------------
# Discriminant valuations.


def disc_vp_local_sum(ctx, buckets, counts=None):
    """Conductor-discriminant formula: v_p(d) = sum of deg(chi) * f(chi)
    over the characters, taken over conductor_buckets(ctx) with each
    bucket weighted by its count in `counts`, the census of ctx's group
    (built here when not given)."""
    p = ctx.p
    counts = counts or census(ctx.group())
    return sum(n * level_degree(k, p) * buckets[k, t][1] for (k, t), n in counts.items())


def disc_vp_local_closed(ctx):
    """Closed local discriminant exponent.

    Unit case: p^s [r p^r - (r+1) p^(r-1)] + 2 (p^(2s)-1)/(p+1).
    Eisenstein case: r p^(2r-1)(p-1) + p (p^(2r)-1)/(p+1)
                     - p (p^(2r-3)+1)/(p+1), evaluated in exact
    rationals because p^(2r-3) is a negative power at r = 1; the result
    must still be an integer."""
    ensure(ctx.case in (UNIT, EISENSTEIN))
    p, r, s = ctx.p, ctx.r, ctx.s
    if ctx.case == UNIT:
        val = Fraction(p**s * (r * p**r - (r + 1) * p ** (r - 1))) + Fraction(
            2 * (p ** (2 * s) - 1), p + 1
        )
    else:
        val = (
            Fraction(r * p ** (2 * r - 1) * (p - 1))
            + Fraction(p) * Fraction(p ** (2 * r) - 1, p + 1)
            - Fraction(p) * (Fraction(p) ** (2 * r - 3) + 1) / (p + 1)
        )
    ensure(val.denominator == 1 and val >= 0, "closed discriminant {} must be an integer", val)
    return int(val)


def disc_subtotals(ctx):
    """The discriminant sum decomposed by (level, primitive degree)
    class, computed from the character counts:

      linear         sum of pr over level-0 characters;
      induced_main   sum of deg^2 * pr over positive-level characters;
      boundary       the fractional-band excess on lev = pr;
      near_boundary  the excess on lev = pr - 1 (Eisenstein only).

    Every character's deg * f splits exactly across these buckets."""
    ensure(ctx.case in (UNIT, EISENSTEIN))
    p, r, s = ctx.p, ctx.r, ctx.s
    G = ctx.group()
    linear = sum(count_by(0, t, G) * t for t in range(r + 1))
    induced_main = 0
    boundary = 0
    near_boundary = 0
    for k in range(1, s + 1):
        deg_sq = p ** (2 * (k - 1)) * (p - 1) ** 2
        for t in range(k, r + 1):
            induced_main += count_by(k, t, G) * deg_sq * t
        if ctx.case == UNIT:
            # excess deg^2 / (p-1) from c = pr - 1 + 1/(p-1) at t = k
            boundary += count_by(k, k, G) * p ** (2 * (k - 1)) * (p - 1)
        else:
            # excess deg^2 (1 + 1/(p-1)) at t = k ...
            boundary += count_by(k, k, G) * (deg_sq + p ** (2 * (k - 1)) * (p - 1))
            # ... and deg^2 / (p-1) at t = k + 1
            if k + 1 <= r:
                near_boundary += count_by(k, k + 1, G) * p ** (2 * (k - 1)) * (p - 1)
    return {
        "linear": linear,
        "induced_main": induced_main,
        "boundary": boundary,
        "near_boundary": near_boundary,
    }


def disc_subtotals_closed(ctx):
    """Closed forms of the four partial sums."""
    ensure(ctx.case in (UNIT, EISENSTEIN))
    p, r, s = ctx.p, ctx.r, ctx.s
    linear = r * p**r - (r + 1) * p ** (r - 1)
    main = Fraction((p**s - 1) * linear) + Fraction(p ** (2 * s) - 1, p + 1)
    if ctx.case == UNIT:
        boundary = Fraction(p ** (2 * s) - 1, p + 1)
        near = Fraction(0)
    else:
        boundary = Fraction(p) * Fraction(p ** (2 * s) - 1, p + 1)
        near = Fraction(p - 1) * Fraction(p ** (2 * s - 2) - 1, p + 1)
    out = {"linear": Fraction(linear), "induced_main": main, "boundary": boundary, "near_boundary": near}
    ensure(all(v.denominator == 1 for v in out.values()))
    return {k: int(v) for k, v in out.items()}


def disc_vp_global(m, a, p):
    """Global discriminant exponent at p for m = p^r.

    Unit case: p^(r-s) primes above p, each contributing the local
    exponent, and the product matches the closed global form
    p^r [r p^r - (r+1) p^(r-1)] + 2 (p^(r+s) - p^(r-s))/(p+1).
    Eisenstein case: totally ramified, global = local."""
    ctx = classify_prime(p, m, a)
    ensure(ctx.case in (UNIT, EISENSTEIN), "no wild data at p = {}", p)
    ensure(p**ctx.r == m, "the global closed form is stated for m = p^r")
    local = disc_vp_local_closed(ctx)
    if ctx.case == EISENSTEIN:
        return local
    r, s = ctx.r, ctx.s
    total = p ** (r - s) * local
    closed = Fraction(p**r * (r * p**r - (r + 1) * p ** (r - 1))) + Fraction(
        2 * (p ** (r + s) - p ** (r - s)), p + 1
    )
    ensure(closed.denominator == 1 and int(closed) == total,
           "global discriminant routes disagree at p={}, r={}, s={}: {} vs {}", p, r, s, total, closed)
    return total


# ---------------------------------------------------------------------------
# JSON shape and the named self-checks.


def conductor_json(ctx, characters=True, counts=None):
    """The discriminant cross-check, plus, when `characters` is set, the
    per-character conductor rows: a Rows stream of {character, c, f}, one
    per table_rows tuple in table order.  A row is a Stamp of its bucket's
    sample, which holds the bucket's (c, f), filled with its twist.
    The rows' census is checked here, before anything is written.
    `counts` is the census of ctx's group, built here when not given."""
    G = ctx.group()
    counts = counts or census(G)
    buckets = conductor_buckets(ctx, counts)
    sum_route = disc_vp_local_sum(ctx, buckets, counts)
    closed_route = disc_vp_local_closed(ctx)
    diff_route = different_sum(ctx.lower)
    out = {
        "v_p_disc": {
            "sum": sum_route,
            "closed": closed_route,
            "different": diff_route,
            "agree": sum_route == closed_route == diff_route,
        },
    }
    if characters:
        mismatch = census_mismatch(G, table_rows(G))
        ensure(mismatch is None, "character table against census at p={}: {}", ctx.p, mismatch)
        samples = {
            key: {"character": character, "c": frac_str(buckets[key][0]), "f": buckets[key][1]}
            for key, character in character_samples(G, counts).items()
        }
        out["characters"] = Rows(sum(counts.values()), lambda: bucket_stamps(table_rows(G), samples))
    return out


def conductor_checks(ctx):
    """Named self-checks for the verification report.

    The conductor buckets are built once for all three checks; the build
    reconciles the definitional and closed exponent of every bucket and
    checks f.  A build that raises is not cached, so each check that
    needs the buckets tries again and reports its own fail row.  The
    census is built once, for all three."""
    G = ctx.group()
    counts = census(G)
    buckets = cache(lambda: conductor_buckets(ctx, counts))

    def two_routes():
        buckets()  # definitional == closed, and f, in every bucket
        mismatch = census_mismatch(G, table_rows(G))
        if mismatch is not None:
            return False, f"character table against census: {mismatch}"
        return True, f"{sum(counts.values())} characters reconciled"

    def three_routes():
        a = disc_vp_local_sum(ctx, buckets(), counts)
        b = disc_vp_local_closed(ctx)
        c = different_sum(ctx.lower)
        return a == b == c, f"sum={a} closed={b} different={c}"

    def subtotals():
        got = disc_subtotals(ctx)
        want = disc_subtotals_closed(ctx)
        total_ok = sum(got.values()) == disc_vp_local_sum(ctx, buckets(), counts)
        return got == want and total_ok, f"{got}"

    return run_checks([
        ("conductor_two_routes", two_routes),
        ("discriminant_three_routes", three_routes),
        ("conductor_level_subtotals", subtotals),
    ])
