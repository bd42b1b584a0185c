"""Oracle tests: the brute-force machinery against itself and against a
second, even dumber route (python-object union-find over literal
conjugation), plus the documented behavior of induction, lifting,
orthogonality and the null-subgroup scan, and a planted fault each
check must catch."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radical_ram import chartab, oracle
from radical_ram._kernels import orbit_roots
from radical_ram.arith import ResourceLimitError
from radical_ram.chartab import character_json
from radical_ram.holomorph import GroupDesc, HolomorphElement, all_classes, class_count, conj_class_of
from radical_ram.oracle import (
    element_grid,
    frobenius_induction_check,
    lift_check,
    null_subgroup_scan_check,
    orbit_partition_check,
    orthogonality_check,
    verification_report,
    within_bound,
)

import faults
from helpers import RADICAL_RINGS, SMALL, brute_orbits, elements, perturbed_radical_rows
from reference import CycInt, char_value, character_table, classes_bruteforce, mul, zeta_order

MEDIUM = SMALL + [GroupDesc(5, 2, 2), GroupDesc(7, 2, 2), GroupDesc(3, 3, 2)]


def kernel_orbits_as_sets(G):
    I, U = element_grid(G)
    out = []
    for orbit in classes_bruteforce(G):
        out.append({HolomorphElement(int(I[e]), int(U[e])) for e in orbit})
    return out


# ------------------------------------------------------------------ orbits


@pytest.mark.parametrize("G", SMALL)
def test_kernel_orbits_match_object_union_find(G):
    # Two fully independent brute routes: the affine-map kernel versus
    # literal conjugation of HolomorphElement records.
    got = {frozenset(o) for o in kernel_orbits_as_sets(G)}
    want = {frozenset(o) for o in brute_orbits(G)}
    assert got == want


def test_bruteforce_examples():
    sizes = sorted(len(o) for o in classes_bruteforce(GroupDesc(3, 1, 1)))
    assert sizes == [1, 2, 3]
    orbits = classes_bruteforce(GroupDesc(3, 2, 2))
    assert len(orbits) == 10 and sum(len(o) for o in orbits) == 54
    orbits = classes_bruteforce(GroupDesc(5, 1, 1))
    assert len(orbits) == 5 and sum(len(o) for o in orbits) == 20


def test_bruteforce_resource_limit():
    with pytest.raises(ResourceLimitError):
        classes_bruteforce(GroupDesc(3, 3, 3), max_order=100)


@pytest.mark.parametrize("G", [GroupDesc(3, 1, 0), GroupDesc(3, 3, 3), GroupDesc(7, 3, 2)])
def test_within_bound_is_exact_at_the_bound(G):
    assert [within_bound(G, G.order + d) for d in (-1, 0, 1)] == [False, True, True]


def test_within_bound_refuses_a_huge_r_without_building_its_order():
    """p^r for r = 10^12 could not be built at all: the group is refused
    from r alone."""
    assert not within_bound(GroupDesc(3, 10**12, 0), 200000)


def sweep_orbit_roots(perms):
    """Orbit labels (least member index) by moving each label one graph
    step per sweep, across every permutation and its inverse, until a
    sweep changes nothing: the reference for orbit_roots' doubling."""
    labels = np.arange(perms.shape[1], dtype=np.int64)
    directed = list(perms) + [np.argsort(q, kind="stable") for q in perms]
    changed = True
    while changed:
        changed = False
        for q in directed:
            pulled = np.minimum(labels, labels[q])
            if not np.array_equal(pulled, labels):
                labels, changed = pulled, True
    return labels


DEFAULT_GRID = [GroupDesc(p, r, s) for p in (3, 5, 7) for r in (1, 2, 3) for s in range(r + 1)]


@pytest.mark.parametrize("G", DEFAULT_GRID, ids=str)
def test_doubling_labels_equal_the_sweep_on_the_default_grid(G):
    perms = oracle._conj_perms(G)
    assert np.array_equal(orbit_roots(perms), sweep_orbit_roots(perms))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=4)))
def test_doubling_labels_equal_the_sweep_on_random_permutations(perms):
    perms = np.array(perms, dtype=np.int64)
    assert np.array_equal(orbit_roots(perms), sweep_orbit_roots(perms))


def test_doubling_takes_logarithmically_many_steps_on_a_long_cycle(monkeypatch):
    """One cycle of 2^14 elements, each sent to its predecessor, so that
    label 0 must travel the whole cycle: each step compares the labels
    once, and doubling settles them in about log2(2^14) steps a round,
    where one graph step per sweep would take 2^14 sweeps."""
    n = 1 << 14
    calls = []
    real = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: calls.append(1) or real(a, b))
    labels = orbit_roots(np.array([(np.arange(n) - 1) % n], dtype=np.int64))
    assert not labels.any()
    assert len(calls) <= 2 * (14 + 2)


def test_orbit_partition_fails_with_two_orbits_merged(monkeypatch):
    """The kernel's labels with the orbit of (0, 5) in (3,2,2) relabelled
    to the root of the orbit of (0, 8): one orbit too few."""
    G = GroupDesc(3, 2, 2)
    real = oracle.orbit_roots

    def merged(perms):
        roots = real(perms)
        five, eight = (oracle.unit_list(G).index(u) * G.ps for u in (5, 8))
        return np.where(roots == roots[five], roots[eight], roots)

    monkeypatch.setattr(oracle, "orbit_roots", merged)
    assert orbit_partition_check(G) == (False, {"reason": "orbit count", "brute": 9, "closed": 10})


@pytest.mark.parametrize("G", MEDIUM)
def test_orbit_partition_check(G):
    ok, detail = orbit_partition_check(G)
    assert ok, detail


def planted_classes(edit):
    """A plant of oracle._closed_class_index with edit(classes, cidx),
    which returns the pair to use, applied to fresh copies of each
    result."""
    def make(real):
        def closed_class_index(G):
            classes, cidx = real(G)
            return edit(list(classes), cidx.copy())
        return closed_class_index
    return faults.plant("oracle._closed_class_index", make)


@pytest.mark.parametrize("i", [6, 3])
def test_orbit_partition_names_the_orbit_that_leaves_its_class(i):
    """The element (i, 1) of (3,2,2), element index i, put in the
    identity's class: its orbit {(3, 1), (6, 1)} now meets two classes,
    and the check names the orbit by its least member, with the orbit's
    size (not the element moved, nor, for i = 3, the size of the class
    its root now has)."""
    G = GroupDesc(3, 2, 2)

    def moved(classes, cidx):
        cidx[i] = class_at(G, (1, 2))
        return classes, cidx

    with planted_classes(moved):
        assert orbit_partition_check(G) == (False, {"reason": "orbit/class mismatch", "element": [3, 1],
                                                    "orbit_size": 2})


def test_orbit_partition_gives_each_class_one_orbit():
    """The elements of unit 5 in (3,2,2) put in the class of unit 8, of
    the same size: every orbit still lies in one class of its size, but
    two orbits share a class, and the later root's orbit is named."""
    G = GroupDesc(3, 2, 2)
    with planted_classes(lambda classes, cidx: (
            classes, np.where(cidx == class_at(G, (5, 0)), class_at(G, (8, 0)), cidx))):
        assert orbit_partition_check(G) == (False, {"reason": "orbit/class mismatch", "element": [0, 8],
                                                    "orbit_size": 9})


def test_orbit_partition_counts_the_classes():
    """A closed class list one too long fails the orbit count first."""
    G = GroupDesc(3, 2, 2)
    with planted_classes(lambda classes, cidx: (classes + classes[-1:], cidx)):
        assert orbit_partition_check(G) == (False, {"reason": "orbit count", "brute": 10, "closed": 11})


# --------------------------------------------------------------- induction


def induction_sums(G):
    """oracle._induction_sums as {class key: sum}, every sum an integer."""
    honest, integral = oracle._induction_sums(G)
    assert integral.all()
    return {c.key: h for c, h in zip(all_classes(G), honest.tolist())}


def test_induction_formula_pointwise():
    """The sum of zeta_{p^r}^(i*t) over the units t on the cyclic classes
    (u, beta) = (1, v_p(i)), and 0 off the cyclic part."""
    assert induction_sums(GroupDesc(3, 1, 1)) == {(2, 0): 0, (1, 0): -1, (1, 1): 2}
    sums = induction_sums(GroupDesc(3, 2, 2))
    assert [sums[1, beta] for beta in range(3)] == [0, -3, 6]
    assert all(h == 0 for (u, _), h in sums.items() if u != 1)


@pytest.mark.parametrize("G", [GroupDesc(3, 1, 1), GroupDesc(3, 2, 2), GroupDesc(3, 3, 3),
                               GroupDesc(5, 1, 1), GroupDesc(5, 2, 2)])
def test_induce_from_cyclic_matches_table(G):
    """The reduced Frobenius sums against the level-r row evaluated cell
    by cell (char_value), in Z[zeta_(p^r (p - 1))]."""
    sums = induction_sums(G)
    top = [c for c in character_table(G) if c.kind == "induced" and c.level == G.r][0]
    n = zeta_order(G)
    for cls in all_classes(G):
        assert char_value(top, cls, G) == CycInt.integer(sums[cls.key], n)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_frobenius_induction_check(p, r):
    ok, detail = frobenius_induction_check(p, r)
    assert ok, detail


# ------------------------------------------------------------------- lifts


def test_frobenius_reads_the_table_level_r_row():
    """The check compares value_table's level-r coefficients, the ones
    chartab prints, with the honest sums: one off by one fails at its
    class, with both integers in the detail."""
    big = GroupDesc(3, 2, 2)

    def one_more(real):
        def coefficient_row(k, classes, p):
            row = real(k, classes, p)
            return [c + 1 for c in row] if k == big.r else row
        return coefficient_row

    with faults.plant("chartab.coefficient_row", one_more):
        ok, detail = frobenius_induction_check(3, 2)
    assert not ok
    # the first class lies off the cyclic part: honest sum 0, closed 0 + 1
    assert detail == {"class_key": list(all_classes(big)[0].key), "honest": 0, "closed": 1}


def planted(H, edit):
    """A plant of value_table with edit(classes, coeffs, ea, eb) applied
    to fresh copies of H's lists, and H's alone."""
    def make(real):
        def value_table(G):
            classes, coeffs, ea, eb = real(G)
            if G != H:
                return classes, coeffs, ea, eb
            coeffs, ea, eb = [list(row) for row in coeffs], list(ea), list(eb)
            edit(classes, coeffs, ea, eb)
            return classes, coeffs, ea, eb
        return value_table
    return faults.plant("chartab.value_table", make)


def class_at(G, key):
    return next(j for j, c in enumerate(all_classes(G)) if c.key == key)


# A planted fault must give the same first counterexample when a chunked
# pass runs one row per chunk.
CHUNKS = [pytest.param(oracle._CHUNK_CELLS, id="chunks"), pytest.param(1, id="one-row-chunks")]


@pytest.mark.parametrize("cells", CHUNKS)
def test_frobenius_names_the_first_class_that_misses(monkeypatch, cells):
    """One entry of the rad(9) = 3 reduction table one off: the sums on
    the cyclic classes (1, 0) and (1, 1) of (3,2,2) both come out wrong,
    and the first in class order is named, as a non-integer sum."""
    G = GroupDesc(3, 2, 2)
    monkeypatch.setattr(oracle, "_CHUNK_CELLS", cells)
    with faults.plant("oracle._radical_rows", partial(perturbed_radical_rows, rad=3)):
        honest, integral = oracle._induction_sums(G)
        cyclic = [class_at(G, (1, beta)) for beta in range(3)]
        assert honest[cyclic].tolist() == [0, 0, 6] and integral[cyclic].tolist() == [False, True, True]
        assert frobenius_induction_check(3, 2) == (False, {"class_key": [1, 0], "reason": "non-integer sum"})


def test_kernel_census_catches_a_row_trivial_on_the_kernel():
    """The level-2 row of (3,2,2) made trivial on the kernel of the
    reduction onto C(3), by its value_table coefficient set to the degree
    on the kernel's classes: the census for s = 1 must flag it."""
    G, big = GroupDesc(3, 2, 1), GroupDesc(3, 2, 2)

    def trivial_on_kernel(classes, coeffs, ea, eb):
        for j, c in enumerate(classes):
            if c.representative.u == 1 and c.beta >= G.s:
                coeffs[2][j] = chartab.level_degree(2, big.p)

    assert oracle._kernel_trivial_census(G) == (True, None)
    with planted(big, trivial_on_kernel):
        ok, detail = oracle._kernel_trivial_census(G)
    assert not ok
    top = [chi for chi in character_table(big) if chi.level == 2]
    assert detail == {"character": character_json(top[0][1:]), "trivial_on_kernel": True}


def test_kernel_census_catches_one_kernel_class():
    """The level-1 value of (3,2,2) negated on one kernel class, (u, beta)
    = (1, 1): the first level-1 row, which must be trivial on the kernel
    for s = 1, is not."""
    G, big = GroupDesc(3, 2, 1), GroupDesc(3, 2, 2)
    j = class_at(big, (1, 1))

    def negated(classes, coeffs, ea, eb):
        coeffs[1][j] = -coeffs[1][j]

    with planted(big, negated):
        ok, detail = oracle._kernel_trivial_census(G)
    assert not ok
    assert detail == {"character": character_json(("induced", (0, 0), 2, 1, 1)), "trivial_on_kernel": False}


@pytest.mark.parametrize("cells", CHUNKS)
def test_lift_check_catches_one_pulled_back_exponent(monkeypatch, cells):
    """The eb exponent of one class of (3,2,1), (u, beta) = (7, 1), one
    step off: the level-1 lift fails at the first twist that reads eb,
    (0, 1), on the first upstairs class that pulls back there."""
    G = GroupDesc(3, 2, 1)
    j = class_at(G, (7, 1))

    def shifted(classes, coeffs, ea, eb):
        eb[j] = (eb[j] + 1) % chartab.twist_order(G)

    monkeypatch.setattr(oracle, "_CHUNK_CELLS", cells)
    with planted(G, shifted):
        assert lift_check(G) == (False, {"k": 1, "twist": [0, 1], "class_key": [7, 1]})


def test_lift_check_catches_one_pulled_back_coefficient():
    """The level-1 coefficient of (3,2,1) on its class (1, 1) negated:
    the lift fails at the first twist, (0, 0), on the first upstairs
    class that pulls back there."""
    G = GroupDesc(3, 2, 1)
    j = class_at(G, (1, 1))

    def negated(classes, coeffs, ea, eb):
        coeffs[1][j] = -coeffs[1][j]

    with planted(G, negated):
        assert lift_check(G) == (False, {"k": 1, "twist": [0, 0], "class_key": [1, 1]})


@pytest.mark.parametrize("G", [GroupDesc(3, 2, 1), GroupDesc(3, 2, 2), GroupDesc(3, 3, 1), GroupDesc(3, 3, 2),
                               GroupDesc(5, 2, 1)])
def test_lift_check(G):
    ok, detail = lift_check(G)
    assert ok, detail


def test_lift_check_pulls_each_class_back_once():
    """The lift checks of a group pull every upstairs class down to G
    once, however many levels and twists they check."""
    G = GroupDesc(3, 3, 2)
    pulled = []

    def counting(real):
        def conj_class_of(g, H):
            if H == G:
                pulled.append(g)
            return real(g, H)
        return conj_class_of

    with faults.plant("oracle.conj_class_of", counting, only=True):
        assert lift_check(G)[0]
    assert len(pulled) == class_count(GroupDesc(3, 3, 3))


# ------------------------------------------------------------ batch engine


@pytest.mark.parametrize("G", MEDIUM)
def test_orthogonality_check(G):
    ok, detail = orthogonality_check(G)
    assert ok, detail


@pytest.mark.parametrize("cells", CHUNKS)
def test_orthogonality_names_the_first_difference_that_misses(monkeypatch, cells):
    """The ea exponent of the first class of (3,2,2) moved by 2: every
    difference twist (0, b) still meets its target, and (1, 0), the first
    with da != 0 in (da, db) order, is the one named."""
    G = GroupDesc(3, 2, 2)

    def shifted(classes, coeffs, ea, eb):
        ea[0] = (ea[0] + 2) % chartab.twist_order(G)

    monkeypatch.setattr(oracle, "_CHUNK_CELLS", cells)
    with planted(G, shifted):
        assert orthogonality_check(G) == (False, {"pair_kind": "linear-linear", "delta": [1, 0]})


# Both reductions in Z[zeta_n], the reference CycInt.reduce and the
# orthogonality bins, read the oracle's small table of rad(n) through
# Phi_n(x) = Phi_rad(n)(x^(n / rad n)).
# The dense table of n itself, built by _reduction_rows uncached, is the
# reference they must equal.


def _reduced_bins(bins, n):
    table, q = oracle._radical_rows(n)
    return oracle._reduce_bins(bins, np.array(table, dtype=np.int64), q)


def test_reductions_match_the_dense_table_up_to_300():
    """For every n <= 300: every root zeta_n^j through CycInt.reduce, and
    four seeded random rows of bins through the orthogonality reduction."""
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        rows = oracle._reduction_rows.__wrapped__(n)
        pad = (0,) * (n - len(rows[0]))
        assert all(CycInt.root(j, n).reduce().coeffs == row + pad for j, row in enumerate(rows)), n
        bins = rng.integers(-9, 10, size=(4, n))
        assert np.array_equal(_reduced_bins(bins, n), bins @ np.array(rows, dtype=np.int64)), n


@settings(deadline=None, max_examples=5)
@given(st.sampled_from(RADICAL_RINGS), st.integers(0, 2**32 - 1))
def test_reductions_match_the_dense_table_on_larger_rings(n, seed):
    """Rings of the package's shapes up to 3000: a random element of 8
    terms through CycInt.reduce, and three random rows of bins."""
    rng = np.random.default_rng(seed)
    dense = np.array(oracle._reduction_rows.__wrapped__(n), dtype=np.int64)
    x = CycInt.from_pairs(zip(rng.integers(-9, 10, 8).tolist(), rng.integers(0, n, 8).tolist()), n)
    want = (np.array(x.coeffs, dtype=np.int64) @ dense).tolist()
    assert x.reduce().coeffs == tuple(want) + (0,) * (n - len(want))
    bins = rng.integers(-9, 10, size=(3, n))
    assert np.array_equal(_reduced_bins(bins, n), bins @ dense)


# ------------------------------------------------------------- null scans


@pytest.mark.parametrize("G", MEDIUM)
def test_null_subgroup_scan(G):
    ok, detail = null_subgroup_scan_check(G)
    assert ok, detail


@pytest.mark.parametrize("cells", CHUNKS)
def test_null_scan_catches_a_class_hit_only_partly(monkeypatch, cells):
    """The element (3, 1) of (3,2,2) put in the identity's class: the
    level-2 row's descriptor, C(3^0) x| G(9)^2, is the identity alone, so
    it now covers that class only partly.  Every row before passes, and
    the level-2 row fails the exact test, not an earlier one."""
    G = GroupDesc(3, 2, 2)

    def moved(classes, cidx):
        cidx[3] = class_at(G, (1, 2))  # element index of (3, 1) is 0 * 9 + 3
        return classes, cidx

    monkeypatch.setattr(oracle, "_CHUNK_CELLS", cells)
    top = [chi for chi in character_table(G) if chi.level == 2]
    with planted_classes(moved):
        assert null_subgroup_scan_check(G) == (False, {"character": character_json(top[0][1:]),
                                                       "reason": "induced null set is not exactly the descriptor"})


def test_null_set_closed_under_multiplication():
    G = GroupDesc(3, 2, 2)
    n = zeta_order(G)
    for chi in character_table(G):
        deg = CycInt.integer(chi.degree, n)
        null = [g for g in elements(G) if char_value(chi, conj_class_of(g, G), G) == deg]
        null_set = set(null)
        assert HolomorphElement(0, 1) in null_set
        for a in null:
            for b in null:
                assert mul(a, b, G) in null_set


# ----------------------------------------------------------------- report


@pytest.mark.parametrize("G", [GroupDesc(3, 2, 2), GroupDesc(5, 2, 2)])
def test_verification_report_all_pass(G):
    report = verification_report(G)
    assert report["ok"]
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "orbit_partition",
        "class_count_closed_form",
        "degree_square_sum",
        "row_orthogonality",
        "frobenius_induction",
        "quotient_lift",
        "null_subgroup_scan",
    ]
    assert all(c["status"] == "pass" for c in report["checks"])
    assert report["group"]["order"] == G.order


def test_class_count_check_catches_a_closed_count_off_by_one(monkeypatch):
    """The closed class count one too large fails class_count_closed_form
    with both counts, and no other check."""
    real = oracle.class_count
    monkeypatch.setattr(oracle, "class_count", lambda G: real(G) + 1)
    report = verification_report(GroupDesc(3, 2, 2))
    failed = {c["name"]: c["detail"] for c in report["checks"] if c["status"] == "fail"}
    assert failed == {"class_count_closed_form": {"enumerated": 10, "closed": 11}}


def test_verification_report_skips_oversized_bruteforce():
    """A group one above the bound is refused whole, with the reason
    verify prints; at the bound every check runs and passes."""
    G = GroupDesc(3, 3, 3)
    with pytest.raises(ResourceLimitError) as info:
        verification_report(G, max_order=G.order - 1)
    assert str(info.value) == f"order {G.order} exceeds bound {G.order - 1}"
    report = verification_report(G, max_order=G.order)
    assert report["ok"] and {c["status"] for c in report["checks"]} == {"pass"}


@pytest.mark.parametrize("G,bound", [(GroupDesc(3, 3, 3), {"max_order": 100}), (GroupDesc(3, 6, 6), {})],
                         ids=["explicit-bound", "default-bound"])
def test_refused_group_runs_no_check(monkeypatch, G, bound):
    """The bound is decided before the first check: a refused group never
    reaches a pass over its elements or its table."""

    def untouchable(G):
        raise AssertionError(f"a check ran on {G}")

    monkeypatch.setattr(oracle, "element_grid", untouchable)
    monkeypatch.setattr(oracle, "value_table", untouchable)
    monkeypatch.setattr(oracle, "all_classes", untouchable)
    with pytest.raises(ResourceLimitError, match=f"order {G.order} exceeds bound"):
        verification_report(G, **bound)
