"""Shared brute-force machinery for the test suite.

The brute-force routes are deliberately dumb: exhaustive enumeration and
union-find, no closed forms, so they can serve as an independent oracle
for them.  unit_ctx/eis_ctx are the synthetic wild contexts the suites
sweep.
"""

from fractions import Fraction

import pytest

from radical_ram.arith import HOLE, Rows, Stamp, unit_decomp, vp
from radical_ram.holomorph import GroupDesc, HolomorphElement, element
from radical_ram.ramfil import EISENSTEIN, LOWER, TAME, UNIT, Filtration, _step_order, wild_context

from reference import conj, order_at


# Rings Z[zeta_n] of the shapes the package reduces in, p^r, phi(p^r) and
# p^r (p - 1) for odd p, between 300 and 3000: those past the every-n range
# of the reduction tests, each with its dense table small enough to build.
RADICAL_RINGS = sorted({n for p in (3, 5, 7, 11, 13) for r in range(1, 8)
                        for n in (p**r, p ** (r - 1) * (p - 1), p**r * (p - 1)) if 300 < n <= 3000})

# (p, r, s) that name no group: p not an odd prime, r < 1, or s outside [0, r]
BAD_GROUPS = [(9, 1, 0), (4, 1, 0), (2, 1, 0), (1, 1, 0), (15, 2, 1), (3, 0, 0), (3, 1, 2), (3, 2, -1)]

# (p, r, s, case, e) that name no wild context
BAD_WILD_CONTEXTS = [
    (3, 2, 1, EISENSTEIN, 1),  # Eisenstein needs s = r
    (3, 1, 1, TAME, 0),  # not a wild case
    (9, 1, 1, UNIT, 0),  # p not prime
    (3, 1, 2, UNIT, 0),  # s > r
]


def unit_ctx(p, r, s):
    return wild_context(p, r, s, UNIT, 0)


def eis_ctx(p, r):
    return wild_context(p, r, r, EISENSTEIN, 1)


def elements(G):
    return [HolomorphElement(i, u)
            for u in range(G.pr) if u % G.p
            for i in range(G.ps)]


def generators(G):
    d = unit_decomp(G.p, G.r)
    gens = [element(G, 1, 1), element(G, 0, d.torsion_gen)]
    if G.r > 1:
        gens.append(element(G, 0, d.principal_gen))
    return gens


def brute_orbits(G):
    """Conjugation orbits via union-find over generator conjugation."""
    els = elements(G)
    index = {g: k for k, g in enumerate(els)}
    parent = list(range(len(els)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in els:
        for h in generators(G):
            a, b = find(index[g]), find(index[conj(g, h, G)])
            if a != b:
                parent[a] = b
    orbits = {}
    for g in els:
        orbits.setdefault(find(index[g]), set()).add(g)
    return list(orbits.values())


def walk_herbrand(filt, x):
    """The filtration's Herbrand function at x, phi for LOWER and psi for
    UPPER, by walking its steps in rationals: the integral of |G_t| / |G_0|
    (phi) or |G^0| / |G^w| (psi), one slope per step and the trivial
    group's above the last break.  The reference for ramfil's table."""
    x = Fraction(x)
    base = order_at(filt, 0)
    if filt.numbering == LOWER:
        def rate(order):
            return Fraction(order, base)
    else:
        def rate(order):
            return Fraction(base, order)
    total, prev = Fraction(0), Fraction(0)
    for b, h in filt.steps:
        slope = rate(_step_order(h, filt.group))
        if x <= b:
            return total + (x - prev) * slope
        total += (b - prev) * slope
        prev = b
    return total + (x - prev) * rate(1)


def moved_break(filt, i, by=1):
    """filt with its i-th break moved by `by` and its groups unchanged."""
    steps = list(filt.steps)
    b, h = steps[i]
    steps[i] = (b + by, h)
    return Filtration(filt.group, filt.numbering, tuple(steps))


# s = r groups have every level, and so every level's zero cells
CELL_GRID = [(3, 1, 0), (3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 3), (5, 2, 0), (5, 2, 2), (7, 2, 2), (5, 3, 3)]


SMALL = [GroupDesc(3, 1, 1), GroupDesc(3, 2, 1), GroupDesc(3, 2, 2),
         GroupDesc(3, 3, 1), GroupDesc(3, 3, 3), GroupDesc(5, 1, 1),
         GroupDesc(5, 2, 2), GroupDesc(7, 1, 1), GroupDesc(3, 2, 0)]


def off_by_one_prim_degree(real):
    """`real` (chartab.prim_degree) made one too large where p | b != 0,
    that is r - v_p(b) off by one: the fault the checks that consume the
    primitive degree must catch."""
    def mutated(twist, G):
        t = real(twist, G)
        b = twist[1]
        return t + 1 if b and vp(b, G.p) >= 1 else t
    return mutated


# Faults in the rows of chartab.table_rows: (fault, on every call).  The
# trivial character moved to bucket (0, 1); one row more, just outside
# the census; the last row dropped, on every call after the first (the
# census check's), so that only the stream is short.
ROW_FAULTS = {
    "bucket-off": (lambda rows: [rows[0][:4] + (1,)] + rows[1:], True),
    "outside-census": (lambda rows: rows + [rows[-1][:4] + (rows[-1][4] + 1,)], True),
    "short-stream": (lambda rows: rows[:-1], False),
}


def faulty_table_rows(real, name):
    """`real` (chartab.table_rows) with the fault ROW_FAULTS[name]."""
    fault, every_call = ROW_FAULTS[name]
    calls = []

    def faulty(G):
        calls.append(G)
        rows = list(real(G))
        return iter(fault(rows) if every_call or len(calls) > 1 else rows)

    return faulty


def printed_value_fault(name, chartab):
    """(attribute of chartab, replacement) that puts a wrong value into
    the table chartab prints: "abs" makes every critical coefficient
    -p^(k-1) positive, "eb" moves the last class's eb exponent by 1, and
    "step" steps packed rows without their fieldwise reduction mod m0."""
    if name == "abs":
        real_row = chartab.coefficient_row
        return "coefficient_row", lambda k, classes, p: [abs(c) for c in real_row(k, classes, p)]
    if name == "step":
        real_packed = chartab.packed_rows

        def unreduced(m0, n):
            pack, _, unpack = real_packed(m0, n)
            return pack, lambda x, y: x + y, unpack

        return "packed_rows", unreduced
    real_exponents = chartab.class_exponents

    def shifted(G, classes):
        ea, eb = real_exponents(G, classes)
        return ea, eb[:-1] + [(eb[-1] + 1) % chartab.twist_order(G)]

    return "class_exponents", shifted


def materialised(obj):
    """obj as the plain object the canonical writer writes it as: every
    Rows replaced by the list of its items, and every Stamp by its sample
    with the holes filled from its ints, in the order they are written
    (dict keys sorted, list items in order).  A Stamp with more or fewer
    ints than holes fails."""
    if isinstance(obj, Stamp):
        ints = iter(obj.ints)
        plain = _filled(obj.sample, ints)
        assert next(ints, HOLE) is HOLE, "more ints than holes"
        return plain
    if isinstance(obj, (Rows, list)):
        return [materialised(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(materialised(x) for x in obj)
    if isinstance(obj, dict):
        return {k: materialised(v) for k, v in obj.items()}
    return obj


def _filled(sample, ints):
    if sample is HOLE:
        return next(ints)  # StopIteration: fewer ints than holes
    if isinstance(sample, dict):
        return {k: _filled(sample[k], ints) for k in sorted(sample)}
    if isinstance(sample, (list, tuple)):
        return type(sample)(_filled(x, ints) for x in sample)
    return sample


def assert_same_text(got, want, what="text"):
    """Fail unless got == want, exactly.  The failure gives both lengths
    and about 80 characters around the first differing offset, found by
    bisecting on prefixes, instead of a diff of two long texts, which
    can take pytest minutes to build."""
    if got == want:
        return
    lo, hi = 0, min(len(got), len(want))
    while lo < hi:  # the common prefix's length lies in [lo, hi]
        mid = (lo + hi + 1) // 2
        if got[:mid] == want[:mid]:
            lo = mid
        else:
            hi = mid - 1
    start = max(0, lo - 40)
    pytest.fail(f"{what}: lengths {len(got)} and {len(want)}, first difference at offset {lo}:\n"
                f"  got  {got[start:lo + 40]!r}\n  want {want[start:lo + 40]!r}", pytrace=False)


def perturbed_radical_rows(real, rad):
    """oracle._radical_rows with one entry of the rad(n) = rad table one too
    large: the first entry of its last row.  For p = 3, the table of 6 is
    the one the rings of characters reduce through, and the table of 3 the
    one the rings Z[zeta_(3^r)] of the Frobenius sums reduce through."""

    def perturbed(n):
        rows, q = real(n)
        if len(rows) == rad:
            rows = rows[:-1] + ((rows[-1][0] + 1,) + rows[-1][1:],)
        return rows, q

    return perturbed


def planted_lower_filtration(real):
    """ramfil.lower_filtration, for wild contexts, with the last break one
    too large (moved_break) and the groups unchanged."""
    return lambda ctx: moved_break(real(ctx), -1)
