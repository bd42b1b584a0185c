"""Independent brute-force verification of the closed-form data.

Nothing here consults the classified answers: orbits come from explicit
conjugation, the degree-phi(p^r) character comes from the Frobenius
induction sum, quotient rows come from honest pullback, and inner products
are exact integer bins over the powers of a root of unity, reduced in
Z[zeta_n] through the small table of rad(n) built here (_radical_rows,
_reduce_bins).  Every check reads the one table chartab prints,
value_table, as integer arrays.  The closed forms in holomorph/chartab
must match all of it.

Conjugation acts within a fixed unit coordinate:

    (k,t) (i,u) (k,t)^{-1} = (t*i + k*(1-u), u)

so the orbit kernels only need, per generator, the affine map on the
cyclic coordinate.  Element index convention: e = unit_index * p^s + i.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from ._kernels import orbit_roots
from .arith import (
    DEFAULT_MAX_ORDER,
    ResourceLimitError,
    ensure,
    factorint,
    run_checks,
    unit_decomp,
    vp,
)
from .chartab import (
    Character,
    character_json,
    exponent_rows,
    null_subgroup,
    table_rows,
    twist_order,
    value_table,
)
from .holomorph import GroupDesc, all_classes, class_count, conj_class_of, element

# ---------------------------------------------------------------- elements


def unit_list(G):
    return [u for u in range(G.pr) if u % G.p]


def element_grid(G):
    """Flat arrays (I, U) with element index e = unit_index * p^s + i."""
    units = np.array(unit_list(G), dtype=np.int64)
    I = np.tile(np.arange(G.ps, dtype=np.int64), len(units))
    U = np.repeat(units, G.ps)
    return I, U


def _vp_capped(upper, p, cap):
    """v_p of each i in [0, upper), clamped at cap (and v_p(0) := cap)."""
    out = np.zeros(upper, dtype=np.int64)
    step = p
    for v in range(1, cap + 1):
        out[::step] = v
        step *= p
    return out


def _conj_perms(G):
    I, U = element_grid(G)
    d = unit_decomp(G.p, G.r)
    gens = [(1, 1), (0, d.torsion_gen)]
    if G.r > 1:
        gens.append((0, d.principal_gen))
    base = np.arange(len(I), dtype=np.int64) - I  # start index of each unit block
    perms = np.empty((len(gens), len(I)), dtype=np.int64)
    for g, (k, t) in enumerate(gens):
        perms[g] = base + (t * I + k * (1 - U)) % G.ps
    return perms


def within_bound(G, max_order):
    """Whether |G| <= max_order: the one test of the order bound.  As
    |G| = (p - 1) p^(r + s - 1) >= 2^(r + s), a huge r is refused without
    building p^r."""
    return G.r + G.s <= max_order.bit_length() and G.order <= max_order


def admit(G, max_order):
    """Refuse G, before any pass over its elements, unless within_bound:
    raises ResourceLimitError "order |G| exceeds bound max_order"."""
    if not within_bound(G, max_order):
        raise ResourceLimitError(f"order {G.order} exceeds bound {max_order}")


@lru_cache(maxsize=1)
def _closed_class_index(G):
    """For every element, the index of its closed-form class, as a
    read-only int64 array; also returns the class list used.  Built once
    per group for the orbit partition and the null-subgroup scan; the
    next group evicts it."""
    classes = all_classes(G)
    units = unit_list(G)
    uidx = {u: j for j, u in enumerate(units)}
    lookup = np.full((len(units), G.s + 1), -1, dtype=np.int64)
    for n, c in enumerate(classes):
        lookup[uidx[c.representative.u], c.beta] = n
    I, _ = element_grid(G)
    # a class's beta is min(v_p(i), v_p(u - 1), s), with v_p(0) taken as s
    cap = [G.s if u == 1 else min(vp(u - 1, G.p), G.s) for u in units]
    beta = np.minimum(_vp_capped(G.ps, G.p, G.s)[I], np.repeat(cap, G.ps))
    cidx = lookup[np.repeat(np.arange(len(units)), G.ps), beta]
    ensure((cidx >= 0).all())
    cidx.flags.writeable = False
    return classes, cidx


def orbit_partition_check(G):
    """Brute orbits against the closed-form classes, in one pass over the
    orbit labels: as many orbits as classes, every element in its root's
    class, one root per class, and each orbit of exactly its class's size.
    A failure names the orbit of least root that breaks one of them."""
    roots = orbit_roots(_conj_perms(G))
    classes, cidx = _closed_class_index(G)
    heads = np.flatnonzero(roots == np.arange(len(roots)))
    if len(heads) != len(classes):
        return False, {"reason": "orbit count", "brute": len(heads), "closed": len(classes)}
    # an orbit with an element outside its root's class
    split = np.zeros(len(roots), dtype=bool)
    split[roots[cidx != cidx[roots]]] = True
    # a root whose class an earlier root already has
    shared = np.ones(len(heads), dtype=bool)
    shared[np.unique(cidx[heads], return_index=True)[1]] = False
    sizes = np.bincount(roots, minlength=len(roots))[heads]
    closed = np.array([c.size for c in classes], dtype=np.int64)[cidx[heads]]
    bad = split[heads] | shared | (sizes != closed)
    if bad.any():
        t = int(np.argmax(bad))
        e = int(heads[t])
        return False, {
            "reason": "orbit/class mismatch",
            "element": [e % G.ps, unit_list(G)[e // G.ps]],
            "orbit_size": int(sizes[t]),
        }
    return True, None


# ------------------------------------------------------ table-wide passes

# The table-wide checks below hold one (twists x classes) matrix per pass,
# cut into row chunks of at most this many cells, so their temporaries
# stay small however large the group: 64 kB of int64 each, which the
# allocator serves and reuses from the heap.  With 512 kB chunks the
# default verify grid peaked 2.5 MB higher, in the same time.
_CHUNK_CELLS = 1 << 13


@lru_cache(maxsize=None)
def _value_arrays(G):
    """value_table(G) as (classes, coeffs, ea, eb) with coeffs the
    (s + 1) x classes matrix of coefficient rows and every array int64
    and read-only: converted once per group for all the checks that read
    it."""
    classes, coeffs, ea, eb = value_table(G)
    arrays = [np.array(x, dtype=np.int64) for x in (coeffs, ea, eb)]
    for a in arrays:
        a.flags.writeable = False
    return classes, *arrays


def _row_chunks(n, width):
    """Consecutive slices of range(n), each of at most _CHUNK_CELLS // width
    rows (and at least one)."""
    step = max(1, _CHUNK_CELLS // max(width, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _exponent_matrix(ta, tb, ea, eb, m0):
    """(ta * ea + tb * eb) mod m0 for every twist (row) and class (column)."""
    return (np.outer(ta, ea) + np.outer(tb, eb)) % m0


def _canonical(coeff, exps, m0):
    """The canonical pairs of coeff * zeta_{m0}^exps, elementwise, exponents
    already reduced mod m0: the exponent moved into [0, m0/2) with the
    sign flipped when it moves (zeta_{m0}^(m0/2) = -1, m0 being even), and
    (0, 0) for a zero coefficient.  Two nonzero values c1 z^e1 = c2 z^e2
    force z^(e1 - e2) = c2 / c1, a rational root of unity, so +1 or -1:
    two values are equal exactly when these pairs are."""
    half = m0 // 2
    flip = exps >= half
    live = coeff != 0
    return np.where(flip, -coeff, coeff), np.where(flip, exps - half, exps) * live


def _twist_columns(rows):
    """The (ta, tb) twists of table_rows tuples as two int arrays."""
    return np.array([row[1] for row in rows], dtype=np.int64).reshape(-1, 2).T


# ----------------------------------------------------------------- lifting


def _pullback_index(G):
    """For each class of the s = r group, in all_classes order, the index
    in all_classes(G) of the class conj_class_of puts its reduced
    representative in: the oracle's own pullback, built once per group."""
    big = GroupDesc(G.p, G.r, G.r)
    index = {c.key: j for j, c in enumerate(all_classes(G))}
    keys = [conj_class_of(element(G, c.representative.i % G.ps, c.representative.u), G).key
            for c in all_classes(big)]
    ensure(all(key in index for key in keys), "a pulled-back class is not a class of {}", G)
    return np.array([index[key] for key in keys], dtype=np.int64)


def _rows_by_level(G):
    """G's table_rows as {level: [rows]}."""
    out = {}
    for row in table_rows(G):
        out.setdefault(row[3], []).append(row)
    return out


def _kernel_trivial_census(G):
    """Rows of the s = r table that are trivial on the kernel of the
    reduction onto C(p^s), checked on the classes conj_class_of puts the
    kernel elements in: per level, one boolean matrix (rows x those
    classes) of value_table's values against the row's degree, compared
    as canonical pairs."""
    big = GroupDesc(G.p, G.r, G.r)
    classes, coeffs, ea, eb = _value_arrays(big)
    index = {c.key: j for j, c in enumerate(classes)}
    kernel = np.unique([index[conj_class_of(element(big, j * G.ps % big.ps, 1), big).key]
                        for j in range(big.ps // G.ps)])
    ea, eb = ea[kernel], eb[kernel]
    m0 = twist_order(big)
    for k, rows in _rows_by_level(big).items():
        c, e = _canonical(coeffs[k][kernel], _exponent_matrix(*_twist_columns(rows), ea, eb, m0), m0)
        degree = np.array([row[2] for row in rows], dtype=np.int64)[:, None]
        trivial = ((c == degree) & (e == 0)).all(axis=1)
        expected = np.array([row[0] == "linear" or row[3] <= G.s for row in rows])
        bad = np.flatnonzero(trivial != expected)
        if len(bad):
            return False, {"character": character_json(rows[bad[0]]), "trivial_on_kernel": bool(trivial[bad[0]])}
    return True, None


def lift_check(G):
    """Every level-k row of G, 0 < k <= s, against the level-k row of the
    s = r group of the same twist, then _kernel_trivial_census.

    Per level, the twist sets must agree, and the values are compared as
    canonical pairs on every upstairs class for every twist: value_table's
    level-k coefficients and twist exponents upstairs, against G's pulled
    back through _pullback_index.  A failure names the first level, twist
    and upstairs class that differ."""
    if G.s == 0:
        return True, None
    big = GroupDesc(G.p, G.r, G.r)
    classes, coeffs, ea, eb = _value_arrays(big)
    down = _pullback_index(G)
    coeffs_down, ea_down, eb_down = (x[..., down] for x in _value_arrays(G)[1:])
    m0 = twist_order(G)
    levels, levels_small = _rows_by_level(big), _rows_by_level(G)
    for k in range(1, G.s + 1):
        rows = levels.get(k, [])
        if sorted(row[1] for row in rows) != sorted(row[1] for row in levels_small.get(k, [])):
            return False, {"k": k, "reason": "twist sets differ"}
        ta, tb = _twist_columns(rows)
        for chunk in _row_chunks(len(rows), len(classes)):
            tw = ta[chunk], tb[chunk]
            c_up, e_up = _canonical(coeffs[k], _exponent_matrix(*tw, ea, eb, m0), m0)
            c_down, e_down = _canonical(coeffs_down[k], _exponent_matrix(*tw, ea_down, eb_down, m0), m0)
            differ = (c_up != c_down) | (e_up != e_down)
            if differ.any():
                t, j = np.unravel_index(np.argmax(differ), differ.shape)
                return False, {"k": k, "twist": list(rows[chunk.start + int(t)][1]),
                               "class_key": list(map(int, classes[j].key))}
    return _kernel_trivial_census(G)


# ------------------------------------------------------ orthogonality batch

# Reduction in Z[zeta_n].  A sum over the powers of zeta_n is reduced
# modulo the n-th cyclotomic polynomial Phi_n.  As Phi_n(x) =
# Phi_rad(n)(x^q) with q = n / rad(n) (Washington, Introduction to
# Cyclotomic Fields, sec. 2), only the reduction table of the squarefree
# rad(n) is built.


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficient tuple (ascending) of the n-th cyclotomic polynomial,
    by exact division of x^n - 1 by the proper-divisor cyclotomics."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _polydiv_exact(num, den):
    """Exact quotient of integer polynomials (ascending coeffs); the
    divisor must be monic here, and the remainder must vanish."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd]
        if c:
            quot[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    ensure(all(c == 0 for c in num), "non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def _reduction_rows(n):
    """Row j = coefficients (length phi(n)) of zeta_n^j reduced mod the
    n-th cyclotomic polynomial, for j = 0..n-1."""
    phi = list(cyclotomic_poly(n))
    deg = len(phi) - 1
    row = [1] + [0] * (deg - 1)
    rows = [tuple(row)]
    for _ in range(1, n):
        lead = row[-1]
        row = [0] + row[:-1]
        if lead:
            # subtract lead * (Phi - x^deg), i.e. add lead * (x^deg mod Phi)
            for j in range(deg):
                row[j] -= lead * phi[j]
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _radical_rows(n):
    """(_reduction_rows(rad n), q = n // rad n): zeta_n^(a*q + b), 0 <= b < q,
    reduces to row a of that table placed at stride q and offset b."""
    rad = prod(factorint(n))
    return _reduction_rows(rad), n // rad


def _reduce_bins(bins, table, q):
    """Each row of bins, one sum over the powers of zeta_m0, reduced mod
    Phi_m0 to phi(m0) coefficients, for (table, q) = _radical_rows(m0):
    the bin of zeta^(a*q + b) goes through row a at stride q and offset b."""
    n = len(bins)
    return np.einsum("nab,ak->nkb", bins.reshape(n, len(table), q), table).reshape(n, -1)


def orthogonality_check(G):
    """The full unnormalized pair matrix of value_table, the values chartab
    prints, equals |G| * identity.

    Every table value is (integer) * zeta_{m0}^(exponent linear in the
    twist), so a product of a row with a conjugated row depends on the
    twists only through their difference.  One pass per (kind, level
    pair) bins the size-weighted powers of every difference twist into an
    exponent-binned integer matrix and reduces it through the rad(m0)
    table (_reduce_bins); the expected value is |G| exactly on the
    diagonal, which in difference terms means a trivial difference twist
    (for equal-level rows, a difference twist trivial on the inducing
    subgroup, which for canonical representatives forces equality).  A
    failure names the first difference that misses, in (difference,
    level) order.
    """
    p, r, s = G.p, G.r, G.s
    classes, coeffs, ea, eb = _value_arrays(G)
    m0 = twist_order(G)
    rows, q = _radical_rows(m0)
    table = np.array(rows, dtype=np.int64)
    max_r = int(np.abs(table).max())
    sizes = np.array([c.size for c in classes], dtype=np.int64)

    def misses(weights, da, db, target):
        """Per difference twist (da, db): whether the sum over the classes
        of weight * zeta_{m0}^((da * ea + db * eb) mod m0), binned by
        exponent and reduced, differs from target."""
        # bins stay far inside int64: sizes*degrees^2 over one group
        ensure(int(np.abs(weights).sum()) * max_r < 2**62)
        support = np.flatnonzero(weights)
        w, sa, sb = weights[support], ea[support], eb[support]
        # exact integer bins: one unweighted bincount per distinct weight
        groups = [(v, np.flatnonzero(w == v)) for v in np.unique(w).tolist()]
        missed = np.empty(len(da), dtype=bool)
        for chunk in _row_chunks(len(da), max(len(support), m0)):
            n = chunk.stop - chunk.start
            keys = _exponent_matrix(da[chunk], db[chunk], sa, sb, m0) + m0 * np.arange(n)[:, None]
            bins = np.zeros(n * m0, dtype=np.int64)
            for v, cols in groups:
                bins += v * np.bincount(keys[:, cols].ravel(), minlength=n * m0)
            red = _reduce_bins(bins.reshape(n, m0), table, q)
            red[:, 0] -= target[chunk]
            missed[chunk] = red.any(axis=1)
        return missed

    # the size-weighted product of a level-0 row with a conjugated level-k
    # row, over every difference (da, db) in the order da * p^(r-1) + db
    n = p ** (r - 1)
    delta = np.arange(m0, dtype=np.int64)
    da, db = delta // n, delta % n
    targets = [np.where(delta == 0, G.order, 0)] + [np.zeros(m0, dtype=np.int64)] * s
    missed = np.array([misses(sizes * coeffs[0] * coeffs[k], da, db, targets[k]) for k in range(s + 1)])
    if missed.any():
        d = int(np.flatnonzero(missed.any(axis=0))[0])
        k = int(np.argmax(missed[:, d]))
        pair = [int(da[d]), int(db[d])]
        if k == 0:
            return False, {"pair_kind": "linear-linear", "delta": pair}
        return False, {"pair_kind": "linear-induced", "k": k, "delta": pair}

    db = np.arange(n, dtype=np.int64)
    for k1 in range(1, s + 1):
        for k2 in range(k1, s + 1):
            # equal-level rows coincide precisely when the difference
            # twist dies on the inducing subgroup
            same = (db % p ** (r - k1) == 0) & (k1 == k2)
            target = np.where(same, G.order, 0)
            missed = misses(sizes * coeffs[k1] * coeffs[k2], np.zeros(n, dtype=np.int64), db, target)
            if missed.any():
                return False, {"pair_kind": "induced-induced", "k": [k1, k2], "delta_b": int(np.argmax(missed))}

    return True, None


# --------------------------------------------------------------- induction


def _induction_sums(G):
    """Per class of G, an s = r group, the Frobenius sum for the character
    induced from the faithful character of the cyclic part, reduced in
    Z[zeta_{p^r}]: its constant coefficients and whether every other
    coefficient is zero, as two arrays in class order.

    On a class (i, 1) of the cyclic part the sum is that of zeta_{p^r}^(i*t)
    over all units t: one pass bincounts i*t mod p^r and reduces the bins
    as orthogonality_check does, through the rad = p table (_reduce_bins).
    Off the cyclic part (u != 1) the sum is empty: 0."""
    classes = all_classes(G)
    rows, q = _radical_rows(G.pr)
    table = np.array(rows, dtype=np.int64)
    units = np.array(unit_list(G), dtype=np.int64)
    cyclic = np.flatnonzero([c.representative.u == 1 for c in classes])
    i = np.array([classes[j].representative.i for j in cyclic], dtype=np.int64)
    honest = np.zeros(len(classes), dtype=np.int64)
    integral = np.ones(len(classes), dtype=bool)
    for chunk in _row_chunks(len(cyclic), G.pr):
        n = chunk.stop - chunk.start
        keys = np.outer(i[chunk], units) % G.pr + G.pr * np.arange(n)[:, None]
        bins = np.bincount(keys.ravel(), minlength=n * G.pr).reshape(n, G.pr)
        red = _reduce_bins(bins, table, q)
        honest[cyclic[chunk]] = red[:, 0]
        integral[cyclic[chunk]] = ~red[:, 1:].any(axis=1)
    return honest, integral


@lru_cache(maxsize=None)
def frobenius_induction_check(p, r):
    """_induction_sums of the s = r group against the closed-form level-r
    coefficients value_table gives it (the level's one twist is (0, 0), of
    exponent 0 on every class): every sum must come out a plain integer,
    equal to the table's coefficient.  A failure names the first class, in
    class order, that misses.
    """
    big = GroupDesc(p, r, r)
    classes, coeffs, _, _ = _value_arrays(big)
    honest, integral = _induction_sums(big)
    bad = ~integral | (honest != coeffs[r])
    if not bad.any():
        return True, None
    j = int(np.argmax(bad))
    key = list(map(int, classes[j].key))
    if not integral[j]:
        return False, {"class_key": key, "reason": "non-integer sum"}
    return False, {"class_key": key, "honest": int(honest[j]), "closed": int(coeffs[r][j])}


# ---------------------------------------------------------- null subgroups


def _level_runs(pairs, limit):
    """exponent_rows' (row, exponents) pairs as (rows, exponent matrix)
    runs of consecutive rows of one level, at most limit rows each."""
    rows, exps = [], []
    for row, e in pairs:
        if rows and (row[3] != rows[0][3] or len(rows) == limit):
            yield rows, np.array(exps, dtype=np.int64)
            rows, exps = [], []
        rows.append(row)
        exps.append(e)
    if rows:
        yield rows, np.array(exps, dtype=np.int64)


def null_subgroup_scan_check(G):
    """Elementwise |G|-scan of {g : chi(g) = chi(1)} against the closed-form
    descriptor, for every table row.

    The raw null set is the kernel of the underlying representation.  For
    an induced row it is itself congruence-shaped and must equal the
    descriptor exactly.  For a linear row the kernel of the twist can mix
    torsion into the unit part (it contains, rather than equals, a
    congruence subgroup), so the comparison extracts the largest
    C(p^x) x| G(p^r)^y inside the scan result and matches that — which is
    the only shape the ramification filtration can probe anyway.

    The null set is a union of classes, so every element set the scan
    tests it against (the cyclic part by depth, the units at i = 0 by
    level, each congruence subgroup) is counted per class once, by
    bincount over its elements' classes, and the tests run on class
    indices for a run of rows of one level at once.  An element set can
    cover part of a class, so the induced "exactly the descriptor" test
    asks every null class to be fully hit and every other class unhit.

    The rows come from exponent_rows, stepped as chartab prints them,
    and a row whose exponents differ from the directly evaluated
    (ta * ea + tb * eb) mod m0 of its twist fails.  A failure names the
    first row in table order, with the first test it fails."""
    classes, coeffs, ea, eb = _value_arrays(G)
    _, cidx = _closed_class_index(G)
    I, U = element_grid(G)
    d = unit_decomp(G.p, G.r)
    m0 = twist_order(G)
    ncls = len(classes)

    def hits(mask):
        """How many elements of the set each class holds."""
        return np.bincount(cidx[mask], minlength=ncls)

    count = np.bincount(cidx, minlength=ncls)
    vp_i = _vp_capped(G.ps, G.p, G.s)[I]
    # the group's sets, built once: cyclic depth >= s - x, unit level >= y
    depth = [vp_i >= G.s - x for x in range(G.s + 1)]
    level = [(U - 1) % G.p**y == 0 for y in range(G.r + 1)]
    cyclic_at = [np.flatnonzero(hits((U == 1) & m)) for m in depth]
    units_at = [np.flatnonzero(hits((I == 0) & m)) for m in level]
    congruence = {}  # (x, y) -> hits of depth[x] & level[y], on first use

    columns = [(ea.tolist(), eb.tolist())] * (G.s + 1)
    for rows, stepped in _level_runs(exponent_rows(G, columns), max(1, _CHUNK_CELLS // ncls)):
        k = rows[0][3]
        ta, tb = _twist_columns(rows)
        want = _exponent_matrix(ta, tb, ea, eb, m0)
        wrong = stepped != want
        # chi(g) = chi(1) needs coefficient chi(1) = degree and exponent 0
        degree = np.array([row[2] for row in rows], dtype=np.int64)[:, None]
        null = (coeffs[k] == degree) & (want == 0)

        # largest cyclic depth fully inside the scan result: cyclic_at[x]
        # grows with x, so the first x that fails bounds it
        cyclic_ok = np.array([null[:, cls].all(axis=1) for cls in cyclic_at]).T
        x_max = np.where(cyclic_ok.all(axis=1), G.s, np.argmin(cyclic_ok, axis=1) - 1)
        # smallest congruence level whose units all pass the scan (-1: none)
        units_ok = np.array([null[:, cls].all(axis=1) for cls in units_at]).T
        y_min = np.where(units_ok.any(axis=1), np.argmax(units_ok, axis=1), -1)
        sds = [null_subgroup(Character(G, *row)) for row in rows]
        sx = np.array([sd.x for sd in sds], dtype=np.int64)
        sy = np.array([sd.y for sd in sds], dtype=np.int64)
        pair_ok = (x_max == sx) & (y_min == sy) & (y_min >= 0)

        # the descriptor's classes, on the rows whose pair matched it
        inside = np.ones(len(rows), dtype=bool)
        exact = np.ones(len(rows), dtype=bool)
        for x, y in set(zip(sx[pair_ok].tolist(), sy[pair_ok].tolist())):
            ensure(0 <= x <= G.s, "cyclic depth {} outside 0..{}", x, G.s)
            if (x, y) not in congruence:
                congruence[x, y] = hits(depth[x] & level[y])
            h = congruence[x, y]
            sel = pair_ok & (sx == x) & (sy == y)
            inside[sel] = null[sel][:, h > 0].all(axis=1)
            if k:
                exact[sel] = (null[sel] & (h == count) | ~null[sel] & (h == 0)).all(axis=1)
        if k == 0:
            # linear: the null set is C(p^s) x| ker(twist); its size is an
            # independent gcd computation on the twist exponents
            kernel = null.astype(np.int64) @ count
            g = np.gcd(np.gcd(ta * d.principal_order, tb * d.torsion_order), m0)
            last_ok = kernel == G.ps * g
        else:
            last_ok = exact

        fails = wrong.any(axis=1) | ~pair_ok | ~inside | ~last_ok
        if not fails.any():
            continue
        t = int(np.argmax(fails))
        if wrong[t].any():
            j = int(np.argmax(wrong[t]))
            reason = f"stepped exponent {stepped[t, j]} != {want[t, j]} at class {j}"
        elif not pair_ok[t]:
            y = None if y_min[t] < 0 else int(y_min[t])
            reason = f"largest congruence pair ({x_max[t]},{y}) != ({sds[t].x},{sds[t].y})"
        elif not inside[t]:
            reason = "descriptor subgroup not inside scan result"
        elif k:
            reason = "induced null set is not exactly the descriptor"
        else:
            reason = f"kernel size {kernel[t]} != {G.ps * g[t]}"
        return False, {"character": character_json(rows[t]), "reason": reason}
    return True, None


# ----------------------------------------------------------------- report


def verification_report(G, max_order=DEFAULT_MAX_ORDER):
    """Per-check pass/fail with a first counterexample on failure.  A
    group above max_order is refused by admit before any check runs."""
    admit(G, max_order)

    def class_count_check():
        enumerated = len(all_classes(G))
        closed = class_count(G)
        ok = enumerated == closed
        return ok, None if ok else {"enumerated": enumerated, "closed": closed}

    def degree_square_check():
        total = sum(row[2] ** 2 for row in table_rows(G))
        ok = total == G.order
        return ok, None if ok else {"sum": total, "order": G.order}

    checks = run_checks([
        ("orbit_partition", lambda: orbit_partition_check(G)),
        ("class_count_closed_form", class_count_check),
        ("degree_square_sum", degree_square_check),
        ("row_orthogonality", lambda: orthogonality_check(G)),
        ("frobenius_induction", lambda: frobenius_induction_check(G.p, G.r)),
        ("quotient_lift", lambda: lift_check(G)),
        ("null_subgroup_scan", lambda: null_subgroup_scan_check(G)),
    ])
    ok = all(c["status"] != "fail" for c in checks)
    return {
        "group": {"p": G.p, "r": G.r, "s": G.s, "order": G.order},
        "checks": checks,
        "ok": ok,
    }
