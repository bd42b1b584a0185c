"""Closed-form irreducible character table of C(p^s) x| G(p^r).

The table has two families:

  * p^{r-1}(p-1) linear characters, inflated from the abelianization
    G(p^r) and labeled by exponent pairs (a, b) on the two unit-group
    generators;
  * for each k = 1..s, p^{r-k} induced characters of degree p^{k-1}(p-1),
    labeled by a canonical coset representative ("twist") among the linear
    characters of G(p^r) — we fix representatives (0, b) with
    0 <= b < p^{r-k}, whose restrictions hit each character of
    G(p^r)^k exactly once (property verified by test, not assumed).

Every value is (integer coefficient) x (root of unity of order dividing
m0 = phi(p^r)); the induced coefficient at a class with depths (alpha,
beta) is 0 / -p^{k-1} / p^{k-1}(p-1) according to whether the class is too
shallow (alpha < k or beta < k-1), critical (beta = k-1), or deep
(beta >= k).  value_table gives the whole table in that form, as integers:
one coefficient row per level, and per class the two scaled discrete logs
ea[j], eb[j] of its unit part (class_exponents), so the level-k character
of twist (ta, tb) is coeffs[k][j] * zeta_{m0}^((ta * ea[j] + tb * eb[j])
% m0) on class j.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, namedtuple
from math import gcd

from .arith import HOLE, Stamp, discrete_log, ensure, unit_decomp, vp
from .holomorph import all_classes


class SubgroupDesc(namedtuple("SubgroupDesc", "x y")):
    """C(p^x) x| G(p^r)^y inside a fixed ambient group (y = 0 meaning the
    full unit part).  Containment is componentwise: larger cyclic piece,
    smaller congruence level."""

    __slots__ = ()


def subgroup_order(sd, G):
    y = min(sd.y, G.r)
    unit = G.p ** (G.r - y) if y >= 1 else G.p ** (G.r - 1) * (G.p - 1)
    return G.p**sd.x * unit


def subgroup_normal_form(sd, G):
    """Descriptors with y >= r all denote the same (trivial unit part)."""
    return SubgroupDesc(sd.x, min(sd.y, G.r))


def subgroup_eq(a, b, G):
    return subgroup_normal_form(a, G) == subgroup_normal_form(b, G)


def subgroup_intersect(a, b, G):
    return SubgroupDesc(min(a.x, b.x), min(max(a.y, b.y), G.r))


def trivial_subgroup(G):
    return SubgroupDesc(0, G.r)


class Character(namedtuple("Character", "group kind twist degree level prim_degree")):
    """A table row: kind 'linear' or 'induced', with its defining exponent
    pair, degree, level and primitive degree."""

    __slots__ = ()


def twist_order(G):
    """phi(p^r): the order of the root-of-unity group the twists live in."""
    return G.p ** (G.r - 1) * (G.p - 1)


def prim_degree(twist, G):
    """The least t with psi_twist trivial on G(p^r)^t.

    psi_(a, b) takes u = torsion_gen^x * principal_gen^y to
    zeta_{m0}^(a x p^(r-1) + b y (p-1)), m0 = phi(p^r) (class_exponents),
    so it is trivial on G(p^r)^t (t >= 1), generated by
    principal_gen^(p^(t-1)), iff p^(r-t) | b, and on the torsion
    generator iff a = 0.  So the answer is 0 for the trivial twist, 1 for
    b = 0, else r - v_p(b)."""
    a, b = twist
    if b == 0:
        return 0 if a == 0 else 1
    return G.r - vp(b, G.p)


def level_degree(k, p):
    """The degree of a level-k character: 1 for the linear ones (k = 0),
    p^(k-1)(p-1) for the induced ones."""
    return p ** (k - 1) * (p - 1) if k else 1


def table_rows(G):
    """The table in (level, twist) order, one (kind, twist, degree, level,
    prim_degree) tuple per character, from integers alone: a fresh
    generator on every call, so a whole table need never be held.

    prim_degree reads a twist (a, b) only through whether a and b are 0
    and through v_p(b), and for 0 < b < n = p^(r-1), p^(v_p(b)) is
    gcd(b, n).  So it is asked r + 1 times, however large the table: on
    (0, 0), on (1, 0) for every other b = 0, and on (1, gcd(b, n)) for
    every b != 0."""
    p, r, s = G.p, G.r, G.s
    n = p ** (r - 1)
    at_zero = (prim_degree((0, 0), G), prim_degree((1, 0), G))
    by_gcd = {p**v: prim_degree((1, p**v), G) for v in range(r - 1)}
    for a in range(p - 1):
        yield "linear", (a, 0), 1, 0, at_zero[a > 0]
        for b in range(1, n):
            yield "linear", (a, b), 1, 0, by_gcd[gcd(b, n)]
    for k in range(1, s + 1):
        deg = level_degree(k, p)
        yield "induced", (0, 0), deg, k, max(k, at_zero[0])
        for b in range(1, p ** (r - k)):
            yield "induced", (0, b), deg, k, max(k, by_gcd[gcd(b, n)])


def induced_coefficient(k, alpha, beta, p):
    """The integer factor of an induced level-k value at class (alpha, beta)."""
    if alpha < k or beta < k - 1:
        return 0
    if beta == k - 1:
        return -(p ** (k - 1))
    return p ** (k - 1) * (p - 1)


def null_subgroup(chi):
    """The largest congruence-shaped subgroup C(p^x) x| G(p^r)^y on which the
    underlying representation is trivial: (s - level, prim_degree).

    For induced rows this is the whole kernel; for linear rows the kernel
    may additionally contain torsion units, but ramification subgroups are
    congruence-shaped, so this descriptor is what conductor computations
    consume."""
    return SubgroupDesc(chi.group.s - chi.level, chi.prim_degree)


def count_by(k, t, G):
    """How many table characters have level k and primitive degree t."""
    p, r, s = G.p, G.r, G.s
    if not (0 <= k <= s) or not (0 <= t <= r):
        return 0
    if k == 0:
        if t == 0:
            return 1
        if t == 1:
            return p - 2
        return p ** (t - 2) * (p - 1) ** 2
    if t < k:
        return 0
    if t == k:
        return 1
    return (p - 1) * p ** (t - k - 1)


def census(G):
    """{(level, prim_degree): count_by} over the non-empty buckets, in
    (level, prim_degree) order: everything a conductor reads of the table."""
    return {(k, t): n for k in range(G.s + 1) for t in range(G.r + 1) if (n := count_by(k, t, G))}


def census_mismatch(G, rows):
    """None when the (level, prim_degree) histogram of `rows`, table_rows
    tuples, is the closed census count_by, else the first bucket that
    differs."""
    seen = Counter(row[3:] for row in rows)
    for k in range(G.s + 1):
        for t in range(G.r + 1):
            n, want = seen.pop((k, t), 0), count_by(k, t, G)
            if n != want:
                return f"(level {k}, prim_degree {t}): {n} characters, census {want}"
    if seen:
        return f"characters outside the census: {sorted(seen)}"
    return None


def class_exponents(G, classes):
    """(ea, eb): per class, the two discrete logs (x, y) of its unit part,
    taken once, scaled to x p^(r-1) and y (p-1) mod m0 = phi(p^r), so that
    psi_(ta, tb) is zeta_{m0}^((ta * ea[j] + tb * eb[j]) % m0) on class j."""
    d = unit_decomp(G.p, G.r)
    m0 = twist_order(G)
    logs = [discrete_log(c.representative.u, d) for c in classes]
    return [a * d.principal_order % m0 for a, _ in logs], [b * d.torsion_order % m0 for _, b in logs]


def exponent_row(twist, ea, eb, m0):
    """The twist's exponent (mod m0) on every class, from class_exponents."""
    ta, tb = twist
    return [(ta * x + tb * y) % m0 for x, y in zip(ea, eb)]


def packed_rows(m0, n):
    """(pack, step, unpack) for rows of n exponents mod m0, each held as
    one int with a field of w bits per exponent, in sys.byteorder.

    w is the itemsize of the smallest unsigned array typecode with
    m0 <= 2^(w-1), so the sum of two fields is below 2^w and never
    carries into the next.  step(x, y) is pack of the fieldwise
    (x + y) % m0: one add, then m0 subtracted from every field that
    reached it, which adding 2^(w-1) - m0 marks by its top bit.
    unpack(x) is the row as a tuple, read with memoryview.cast."""
    code = next((c for c in "BHILQ" if m0 <= 1 << 8 * array(c).itemsize - 1), None)
    ensure(code is not None, "root-of-unity order {} exceeds 64-bit fields", m0)
    size = array(code).itemsize
    top = 8 * size - 1
    order = sys.byteorder

    def pack(values):
        return int.from_bytes(array(code, values), order)

    bias, high = pack([(1 << top) - m0] * n), pack([1 << top] * n)

    def step(x, y):
        t = x + y
        return t - (((t + bias) & high) >> top) * m0

    def unpack(x):
        return tuple(memoryview(x.to_bytes(n * size, order)).cast(code))

    return pack, step, unpack


def exponent_rows(G, columns):
    """(row, exponents) for every table_rows row: its twist's exponents
    (mod m0), a tuple, on columns[level] = (ea, eb), a selection of
    class_exponents' columns.

    Within a level the rows run over twists (a, b), (a, b + 1), ..., and
    row(a, b + 1) = row(a, b) + eb mod m0: a row whose level is the
    previous row's and whose twist is the previous twist plus (0, 1) is
    the previous row stepped by eb as packed_rows ints.  The first row
    of every run is exponent_row's, the reference route.  Each row is
    paired with the twist it was built for."""
    m0 = twist_order(G)
    packings = []
    for _, eb in columns:
        pack, step, unpack = packed_rows(m0, len(eb))
        packings.append((pack, step, unpack, pack(eb)))
    prev = None
    for row in table_rows(G):
        level, (ta, tb) = row[3], row[1]
        pack, step, unpack, y = packings[level]
        if prev == (level, ta, tb - 1):
            x = step(x, y)
            exps = unpack(x)
        else:
            exps = tuple(exponent_row((ta, tb), *columns[level], m0))
            x = pack(exps)
        prev = level, ta, tb
        yield row, exps


def coefficient_row(k, classes, p):
    """The integer coefficient of every level-k character on every class."""
    if k == 0:
        return [1] * len(classes)
    return [induced_coefficient(k, c.alpha, c.beta, p) for c in classes]


def value_table(G):
    """(classes, coeffs, ea, eb): G's closed-form values, once its census
    is checked.  coeffs[k] is coefficient_row(k) and (ea, eb) are
    class_exponents, so the level-k character of twist (ta, tb) is
    coeffs[k][j] * zeta_{m0}^((ta * ea[j] + tb * eb[j]) % m0) on class j.
    chartab prints its values from here, and verify's table-wide checks
    test these same values; callers must treat the lists as read-only."""
    mismatch = census_mismatch(G, table_rows(G))
    ensure(mismatch is None, "character table against census: {}", mismatch)
    classes = all_classes(G)
    ea, eb = class_exponents(G, classes)
    return classes, [coefficient_row(k, classes, G.p) for k in range(G.s + 1)], ea, eb


def character_json(row):
    """The JSON object of one table_rows tuple (a Character's is chi[1:],
    its fields after the group)."""
    kind, twist, degree, level, prim = row
    return {
        "kind": kind,
        "k": level,
        "twist": list(twist),
        "degree": degree,
        "level": level,
        "prim_degree": prim,
    }


def character_samples(G, counts):
    """{(level, prim_degree): the character_json that every row of the
    bucket shares, with HOLE for the twist's two ints}, over `counts`,
    the census of G: a row's kind and degree are set by its level."""
    return {
        (k, t): character_json(("induced" if k else "linear", (HOLE, HOLE), level_degree(k, G.p), k, t))
        for k, t in counts
    }


def bucket_stamps(rows, samples):
    """A Stamp per table_rows row: the sample of its (level, prim_degree)
    bucket, filled with its twist.  A row whose bucket has no sample is
    outside the census and fails ensure."""
    for row in rows:
        sample = samples.get(row[3:])
        ensure(sample is not None, "character {} outside the census", row)
        yield Stamp(sample, row[1])
