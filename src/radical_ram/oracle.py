"""Independent brute-force verification of the closed-form data.

Nothing here consults the classified answers: orbits come from explicit
conjugation, the degree-phi(p^r) character comes from the Frobenius
induction sum, quotient rows come from honest pullback, and inner products
are exact cyclotomic arithmetic with an exactness-checked division.  The
closed forms in holomorph/chartab must match all of it.

Conjugation acts within a fixed unit coordinate:

    (k,t) (i,u) (k,t)^{-1} = (t*i + k*(1-u), u)

so the orbit kernels only need, per generator, the affine map on the
cyclic coordinate.  Element index convention: e = unit_index * p^s + i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import orbit_roots
from .arith import (
    CycInt,
    ResourceLimitError,
    _reduction_rows,
    ensure,
    resolve_max_order,
    run_checks,
    unit_decomp,
    vp,
)
from .chartab import (
    Character,
    char_monomial,
    char_value,
    character_json,
    character_table,
    exponent_row,
    exponent_rows,
    null_subgroup,
    table_rows,
    twist_order,
    value_table,
    zeta_order,
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


def classes_bruteforce(G, max_order=None):
    """Conjugation orbits as arrays of element indices, minimal index first."""
    bound = resolve_max_order(max_order)
    if G.order > bound:
        raise ResourceLimitError(f"|G| = {G.order} exceeds the bound {bound}")
    roots = orbit_roots(_conj_perms(G))
    order = np.argsort(roots, kind="stable")
    sorted_roots = roots[order]
    cuts = np.flatnonzero(np.diff(sorted_roots)) + 1
    return [np.sort(seg) for seg in np.split(order, cuts)]


def _unit_alphas(G, units):
    """The congruence level min(v_p(u - 1), r) of each unit (r for u = 1)."""
    return np.array([min(vp(u - 1, G.p), G.r) if u != 1 else G.r for u in units])


def _induced_coeffs(k, alpha, beta, p):
    """The integer factor of a level-k induced character at depths
    (alpha, beta), elementwise: p^(k-1)(p-1) where both reach k, -p^(k-1)
    where alpha reaches k and beta is k-1, else 0.  Written out here, apart
    from chartab, because it is what the checks below test chartab against."""
    out = np.zeros(np.shape(beta), dtype=np.int64)
    out[(alpha >= k) & (beta >= k)] = p ** (k - 1) * (p - 1)
    out[(alpha >= k) & (beta == k - 1)] = -(p ** (k - 1))
    return out


def _closed_class_index(G):
    """For every element, the index of its closed-form class; also returns
    the class list used."""
    classes = all_classes(G)
    units = unit_list(G)
    uidx = {u: j for j, u in enumerate(units)}
    lookup = np.full((len(units), G.s + 1), -1, dtype=np.int64)
    for n, c in enumerate(classes):
        lookup[uidx[c.representative.u], c.beta] = n
    I, U = element_grid(G)
    cap = np.minimum(_unit_alphas(G, units), G.s)
    beta = np.minimum(_vp_capped(G.ps, G.p, G.s)[I], np.repeat(cap, G.ps))
    cidx = lookup[np.repeat(np.arange(len(units)), G.ps), beta]
    ensure((cidx >= 0).all())
    return classes, cidx


def orbit_partition_check(G, max_order=None):
    """Brute orbits against the closed-form classes: same count, and each
    orbit sits inside a single class of exactly its size."""
    orbits = classes_bruteforce(G, max_order)
    classes, cidx = _closed_class_index(G)
    if len(orbits) != len(classes):
        return False, {"reason": "orbit count", "brute": len(orbits), "closed": len(classes)}
    I, U = element_grid(G)
    for orbit in orbits:
        kinds = np.unique(cidx[orbit])
        if len(kinds) != 1 or classes[kinds[0]].size != len(orbit):
            e = int(orbit[0])
            return False, {
                "reason": "orbit/class mismatch",
                "element": [int(I[e]), int(U[e])],
                "orbit_size": len(orbit),
            }
    return True, None


# ------------------------------------------------------------- class funcs


@dataclass
class DenseClassFunction:
    """A class function stored on every class key of its group."""

    group: GroupDesc
    values: dict

    @staticmethod
    def from_character(chi, G):
        return DenseClassFunction(G, {c.key: char_value(chi, c, G) for c in all_classes(G)})

    def value(self, cls):
        return self.values[cls.key]


def induction_formula_at(G, i, u):
    """The Frobenius sum for the character induced from the faithful
    character of the cyclic part: zero off the cyclic part, else the sum of
    zeta_{p^s}^{i*t} over all units t."""
    n = zeta_order(G)
    if u % G.pr != 1:
        return CycInt.zero(n)
    step = n // G.ps
    return CycInt.from_pairs([(1, i * t % G.ps * step) for t in unit_list(G)], n)


def induce_from_cyclic(G):
    """Induction to the full group of the faithful cyclic character; only
    meaningful when the cyclic part has full length s = r."""
    ensure(G.s == G.r)
    values = {}
    for c in all_classes(G):
        rep = c.representative
        values[c.key] = induction_formula_at(G, rep.i, rep.u)
    return DenseClassFunction(G, values)


def inner_product(f, g):
    """(1/|G|) sum of size * f * conj(g); the division must come out exact."""
    if f.group != g.group:
        raise ValueError("inner product across different groups")
    G = f.group
    acc = CycInt.zero(zeta_order(G))
    for c in all_classes(G):
        acc = acc + c.size * (f.value(c) * g.value(c).conj())
    return acc.divide_exact(G.order)


def _induction_sum_small(G, i):
    """The same Frobenius sum in the small ring Z[zeta_{p^s}] where it
    natively lives, so reducing it is cheap even for p = 7."""
    return CycInt.from_pairs([(1, i * t % G.ps) for t in unit_list(G)], G.ps)


@lru_cache(maxsize=None)
def frobenius_induction_check(p, r):
    """induce_from_cyclic against the closed-form top-level row at s = r.

    The honest sum is an algebraic integer in Z[zeta_{p^r}]; after exact
    reduction it must be the plain integer the table's level-r coefficient
    row predicts (the level's one twist is (0, 0), of exponent 0 on every
    class).  On small rings the comparison is additionally repeated with
    full CycInt equality in the common big ring through the public entry
    point.
    """
    big = GroupDesc(p, r, r)
    classes, coeffs, _, _ = value_table(big)
    for c, closed in zip(classes, coeffs[r]):
        rep = c.representative
        if rep.u == 1:
            honest = _induction_sum_small(big, rep.i)
        else:
            honest = CycInt.zero(big.ps)
        try:
            got = honest.as_int()
        except ValueError:
            return False, {"class_key": list(map(int, c.key)), "reason": "non-integer sum"}
        if got != closed:
            return False, {"class_key": list(map(int, c.key)), "honest": got, "closed": closed}
    if zeta_order(big) <= 500:
        rows = [c for c in character_table(big) if c.kind == "induced" and c.level == r]
        ensure(len(rows) == 1 and rows[0].twist == (0, 0))
        f = induce_from_cyclic(big)
        g = DenseClassFunction.from_character(rows[0], big)
        for c in classes:
            if f.value(c) != g.value(c):
                return False, {"class_key": list(map(int, c.key)), "reason": "big-ring mismatch"}
    return True, None


# ----------------------------------------------------------------- lifting


@lru_cache(maxsize=None)
def _kernel_trivial_census(G):
    """Rows of the s = r table that are trivial on the kernel of the
    reduction onto C(p^s), checked by honest evaluation on every kernel
    element; values are compared as canonical pairs (char_monomial)."""
    big = GroupDesc(G.p, G.r, G.r)
    kernel = [element(big, j * G.ps % big.ps, 1) for j in range(big.ps // G.ps)]
    for chi in character_table(big):
        deg = (chi.degree, 0)
        trivial = all(char_monomial(chi, conj_class_of(g, big), big) == deg for g in kernel)
        expected = chi.kind == "linear" or chi.level <= G.s
        if trivial != expected:
            return False, {"character": character_json(chi.row), "trivial_on_kernel": trivial}
    return True, None


def lift_check(G, k):
    """The level-k rows of G against the pullback of the level-k rows of
    the s = r group, then _kernel_trivial_census."""
    ensure(1 <= k <= G.s)
    big = GroupDesc(G.p, G.r, G.r)

    # The twist-independent integer factor must agree elementwise between a
    # level-k row upstairs and the pullback of the level-k row downstairs.
    I, U = element_grid(big)
    alpha = np.repeat(_unit_alphas(big, unit_list(big)), big.ps)
    vp_big = _vp_capped(big.ps, G.p, big.s)[I]
    vp_small = _vp_capped(G.ps, G.p, G.s)[I % G.ps]
    beta_big = np.minimum(vp_big, np.minimum(alpha, big.s))
    beta_small = np.minimum(vp_small, np.minimum(alpha, G.s))

    coeff_big = _induced_coeffs(k, alpha, beta_big, G.p)
    mismatch = np.flatnonzero(coeff_big != _induced_coeffs(k, alpha, beta_small, G.p))
    if len(mismatch):
        e = int(mismatch[0])
        return False, {"k": k, "element": [int(I[e]), int(U[e])]}

    # Full cyclotomic values, compared as canonical pairs on every upstairs
    # class for every canonical twist at this level.
    small_rows = {c.twist: c for c in character_table(G) if c.level == k and c.kind == "induced"}
    big_rows = {c.twist: c for c in character_table(big) if c.level == k and c.kind == "induced"}
    if set(small_rows) != set(big_rows):
        return False, {"k": k, "reason": "twist sets differ"}
    # a class's pullback does not depend on the twist: take it once per class
    pulled = [(c, conj_class_of(element(G, c.representative.i % G.ps, c.representative.u), G))
              for c in all_classes(big)]
    for tw, chi_big in big_rows.items():
        chi_small = small_rows[tw]
        for c, down in pulled:
            if char_monomial(chi_big, c, big) != char_monomial(chi_small, down, G):
                return False, {"k": k, "twist": list(tw), "class_key": list(map(int, c.key))}

    return _kernel_trivial_census(G)


# ------------------------------------------------------ orthogonality batch


def _reduction_matrix(m0):
    R = np.array(_reduction_rows(m0), dtype=np.int64)
    return R, int(np.abs(R).max())


def orthogonality_check(G):
    """The full unnormalized pair matrix of value_table, the values chartab
    prints, equals |G| * identity.

    Every table value is (integer) * zeta_{m0}^(exponent linear in the
    twist), so a product of a row with a conjugated row depends on the
    twists only through their difference.  Summing size-weighted powers
    into an exponent-binned integer vector and reducing once per difference
    covers all pairs at once; the expected value is |G| exactly on the
    diagonal, which in difference terms means a trivial difference twist
    (for equal-level rows, a difference twist trivial on the inducing
    subgroup, which for canonical representatives forces equality).
    """
    p, r, s = G.p, G.r, G.s
    classes, coeffs, ea, eb = value_table(G)
    m0 = twist_order(G)
    R, max_r = _reduction_matrix(m0)
    ea, eb = np.array(ea, dtype=np.int64), np.array(eb, dtype=np.int64)
    sizes = np.array([c.size for c in classes], dtype=np.int64)
    coeff = [np.array(row, dtype=np.int64) for row in coeffs]

    def binned_ok(weights, da, db, target):
        exps = (da * ea + db * eb) % m0
        vec = np.zeros(m0, dtype=np.int64)
        np.add.at(vec, exps, weights)
        # weights stay far inside int64: sizes*degrees^2 over one group
        ensure(int(np.abs(vec).sum()) * max_r < 2**62)
        red = vec @ R
        return red[0] == target and not red[1:].any()

    # the size-weighted product of a level-0 row with a conjugated level-k row
    linear = [sizes * coeff[0] * coeff[k] for k in range(s + 1)]

    for da in range(p - 1):
        for db in range(p ** (r - 1)):
            target = G.order if (da, db) == (0, 0) else 0
            if not binned_ok(linear[0], da, db, target):
                return False, {"pair_kind": "linear-linear", "delta": [da, db]}
            for k in range(1, s + 1):
                if not binned_ok(linear[k], da, db, 0):
                    return False, {"pair_kind": "linear-induced", "k": k, "delta": [da, db]}

    for k1 in range(1, s + 1):
        for k2 in range(k1, s + 1):
            w = sizes * coeff[k1] * coeff[k2]
            for db in range(p ** (r - 1)):
                # equal-level rows coincide precisely when the difference
                # twist dies on the inducing subgroup
                same = k1 == k2 and db % p ** (r - k1) == 0
                if not binned_ok(w, 0, db, G.order if same else 0):
                    return False, {"pair_kind": "induced-induced", "k": [k1, k2], "delta_b": db}

    # on small tables, cross-check the batched engine against the naive
    # exact inner product, pair by pair
    if len(classes) <= 12:
        table = character_table(G)
        funcs = [DenseClassFunction.from_character(chi, G) for chi in table]
        n = zeta_order(G)
        for i, f in enumerate(funcs):
            for j, g in enumerate(funcs):
                expect = CycInt.integer(1 if i == j else 0, n)
                try:
                    got = inner_product(f, g)
                except ArithmeticError as exc:
                    return False, {"pair_kind": "naive-crosscheck", "pair": [i, j], "reason": str(exc)}
                if got != expect:
                    return False, {"pair_kind": "naive-crosscheck", "pair": [i, j]}
    return True, None


# ---------------------------------------------------------- null subgroups


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

    The rows come from exponent_rows, stepped as chartab prints them,
    and a row whose exponents are not exponent_row's on its twist
    fails."""
    import math

    _, coeffs, ea, eb = value_table(G)
    _, cidx = _closed_class_index(G)
    I, U = element_grid(G)
    d = unit_decomp(G.p, G.r)
    m0 = twist_order(G)
    vp_i = _vp_capped(G.ps, G.p, G.s)[I]
    # the group's masks, built once: cyclic depth >= s - x, unit level >= y
    depth = [vp_i >= G.s - x for x in range(G.s + 1)]
    level = [(U - 1) % G.p**y == 0 for y in range(G.r + 1)]
    cyclic_at = [np.flatnonzero((U == 1) & m) for m in depth]
    units_at = [np.flatnonzero((I == 0) & m) for m in level]
    congruence = {(x, y): depth[x] & level[y] for x in range(G.s + 1) for y in range(G.r + 1)}

    # chi(g) = chi(1) needs coefficient chi(1) = degree and exponent 0
    full_degree = {}
    for row, exps in exponent_rows(G, [(ea, eb)] * (G.s + 1)):
        chi = Character(G, *row)

        def fail(reason):
            return False, {"character": character_json(row), "reason": reason}

        want = exponent_row(chi.twist, ea, eb, m0)
        if list(exps) != want:
            first = next(j for j, (x, y) in enumerate(zip(exps, want)) if x != y)
            return fail(f"stepped exponent {exps[first]} != {want[first]} at class {first}")
        key = chi.level, chi.degree
        if key not in full_degree:
            full_degree[key] = np.array(coeffs[chi.level], dtype=np.int64) == chi.degree
        # per class, then spread to every element
        is_null = (full_degree[key] & (np.array(want, dtype=np.int64) == 0))[cidx]
        sd = null_subgroup(chi)

        # largest cyclic depth fully inside the scan result: cyclic_at[x]
        # grows with x, so the first x that fails bounds it
        x_max = next((x - 1 for x in range(G.s + 1) if not is_null[cyclic_at[x]].all()), G.s)
        # smallest congruence level whose units all pass the scan
        y_min = next((y for y in range(G.r + 1) if is_null[units_at[y]].all()), None)
        if (x_max, y_min) != (sd.x, sd.y):
            return fail(f"largest congruence pair ({x_max},{y_min}) != ({sd.x},{sd.y})")
        if not is_null[congruence[sd.x, sd.y]].all():
            return fail("descriptor subgroup not inside scan result")
        if chi.kind == "induced":
            if not np.array_equal(is_null, congruence[sd.x, sd.y]):
                return fail("induced null set is not exactly the descriptor")
        else:
            # linear: the null set is C(p^s) x| ker(twist); its size is an
            # independent gcd computation on the twist exponents
            a, b = chi.twist
            g = math.gcd(math.gcd(a * d.principal_order, b * d.torsion_order), m0)
            if int(is_null.sum()) != G.ps * g:
                return fail(f"kernel size {int(is_null.sum())} != {G.ps * g}")
    return True, None


# ----------------------------------------------------------------- report


def verification_report(G, max_order=None):
    """Per-check pass/fail with a first counterexample on failure."""

    def class_count_check():
        enumerated = len(all_classes(G))
        closed = class_count(G)
        ok = enumerated == closed
        return ok, None if ok else {"enumerated": enumerated, "closed": closed}

    def degree_square_check():
        total = sum(row[2] ** 2 for row in table_rows(G))
        ok = total == G.order
        return ok, None if ok else {"sum": total, "order": G.order}

    def quotient_lift_checks():
        for k in range(1, G.s + 1):
            ok, detail = lift_check(G, k)
            if not ok:
                return False, detail
        return True, None

    checks = run_checks([
        ("orbit_partition", lambda: orbit_partition_check(G, max_order)),
        ("class_count_closed_form", class_count_check),
        ("degree_square_sum", degree_square_check),
        ("row_orthogonality", lambda: orthogonality_check(G)),
        ("frobenius_induction", lambda: frobenius_induction_check(G.p, G.r)),
        ("quotient_lift", quotient_lift_checks),
        ("null_subgroup_scan", lambda: null_subgroup_scan_check(G)),
    ])
    ok = all(c["status"] != "fail" for c in checks)
    return {
        "group": {"p": G.p, "r": G.r, "s": G.s, "order": G.order},
        "checks": checks,
        "ok": ok,
    }
