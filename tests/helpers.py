"""Shared brute-force machinery for the test suite.

The brute-force routes are deliberately dumb: exhaustive enumeration and
union-find, no closed forms, so they can serve as an independent oracle
for them.  unit_ctx/eis_ctx are the synthetic wild contexts the suites
sweep.
"""

import pytest

from radical_ram.arith import HOLE, Rows, Stamp, unit_decomp, vp
from radical_ram.holomorph import GroupDesc, HolomorphElement, conj, element
from radical_ram.ramfil import EISENSTEIN, UNIT, wild_context


# (p, r, s) that name no group: p not an odd prime, r < 1, or s outside [0, r]
BAD_GROUPS = [(9, 1, 0), (4, 1, 0), (2, 1, 0), (1, 1, 0), (15, 2, 1), (3, 0, 0), (3, 1, 2), (3, 2, -1)]


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
