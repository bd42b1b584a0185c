"""Oracle tests: the brute-force machinery against itself and against a
second, even dumber route (python-object union-find over literal
conjugation), plus the documented behavior of induction, lifting and
exact inner products."""

import pytest

from radical_ram import oracle
from radical_ram.arith import CycInt
from radical_ram.chartab import char_value, character_json, character_table, zeta_order
from radical_ram.holomorph import GroupDesc, HolomorphElement, all_classes, class_count
from radical_ram.oracle import (
    DenseClassFunction,
    ResourceLimitError,
    classes_bruteforce,
    element_grid,
    frobenius_induction_check,
    induce_from_cyclic,
    induction_formula_at,
    inner_product,
    lift_check,
    null_subgroup_scan_check,
    orbit_partition_check,
    orthogonality_check,
    verification_report,
)

from helpers import SMALL, brute_orbits

MEDIUM = SMALL + [GroupDesc(5, 2, 2), GroupDesc(7, 2, 2), GroupDesc(3, 3, 2)]


def kernel_orbits_as_sets(G, max_order=None):
    I, U = element_grid(G)
    out = []
    for orbit in classes_bruteforce(G, max_order):
        out.append({HolomorphElement(int(I[e]), int(U[e])) for e in orbit})
    return out


# ------------------------------------------------------------------ orbits


@pytest.mark.parametrize("G", SMALL)
def test_kernel_orbits_match_object_union_find(G):
    # Two fully independent brute routes: the affine-map kernel versus
    # literal conjugation of dataclass elements.
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


@pytest.mark.parametrize("G", MEDIUM)
def test_orbit_partition_check(G):
    ok, detail = orbit_partition_check(G)
    assert ok, detail


# --------------------------------------------------------------- induction


def test_induction_formula_pointwise():
    G = GroupDesc(3, 1, 1)
    n = zeta_order(G)
    assert induction_formula_at(G, 0, 1).as_int() == 2
    assert induction_formula_at(G, 1, 1).as_int() == -1
    assert induction_formula_at(G, 1, 2) == CycInt.zero(n)

    G = GroupDesc(3, 2, 2)
    assert induction_formula_at(G, 0, 1).as_int() == 6
    assert induction_formula_at(G, 3, 1).as_int() == -3
    assert induction_formula_at(G, 1, 1).as_int() == 0


def test_induction_constant_on_brute_orbits():
    G = GroupDesc(3, 2, 2)
    for orbit in brute_orbits(G):
        vals = [induction_formula_at(G, g.i, g.u) for g in orbit]
        assert all(v == vals[0] for v in vals)


@pytest.mark.parametrize("G", [GroupDesc(3, 1, 1), GroupDesc(3, 2, 2), GroupDesc(3, 3, 3),
                               GroupDesc(5, 1, 1), GroupDesc(5, 2, 2)])
def test_induce_from_cyclic_matches_table(G):
    honest = induce_from_cyclic(G)
    top = [c for c in character_table(G) if c.kind == "induced" and c.level == G.r][0]
    for cls in all_classes(G):
        assert honest.value(cls) == char_value(top, cls, G)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_frobenius_induction_check(p, r):
    ok, detail = frobenius_induction_check(p, r)
    assert ok, detail


# ------------------------------------------------------------------- lifts


@pytest.fixture
def clear_oracle_caches():
    """A mutated run must neither read nor leave cached oracle results."""
    caches = (oracle._kernel_trivial_census, oracle.frobenius_induction_check)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


def test_frobenius_closed_side_must_be_an_integer(clear_oracle_caches, monkeypatch):
    big = GroupDesc(3, 2, 2)
    real = oracle.char_monomial

    def off_axis(chi, cls, G):
        c, e = real(chi, cls, G)
        if G == big and cls.representative.u == 1 and cls.beta == 0:
            return c, 1
        return c, e

    monkeypatch.setattr(oracle, "char_monomial", off_axis)
    ok, detail = frobenius_induction_check(3, 2)
    assert not ok
    assert detail["reason"] == "non-integer closed value"


def test_kernel_census_catches_a_row_trivial_on_the_kernel(clear_oracle_caches, monkeypatch):
    """The level-2 row of (3,2,2) made trivial on the kernel of the
    reduction onto C(3): the census for s = 1 must flag it."""
    G, big = GroupDesc(3, 2, 1), GroupDesc(3, 2, 2)
    real = oracle.char_monomial

    def trivial_on_kernel(chi, cls, H):
        if H == big and chi.level == 2 and cls.representative.u == 1 and cls.beta >= G.s:
            return chi.degree, 0
        return real(chi, cls, H)

    assert oracle._kernel_trivial_census(G) == (True, None)
    oracle._kernel_trivial_census.cache_clear()
    monkeypatch.setattr(oracle, "char_monomial", trivial_on_kernel)
    ok, detail = oracle._kernel_trivial_census(G)
    assert not ok
    top = [chi for chi in character_table(big) if chi.level == 2]
    assert detail == {"character": character_json(top[0].row), "trivial_on_kernel": True}


@pytest.mark.parametrize(
    "G,k",
    [
        (GroupDesc(3, 2, 1), 1),
        (GroupDesc(3, 2, 2), 2),
        (GroupDesc(3, 3, 1), 1),
        (GroupDesc(3, 3, 2), 2),
        (GroupDesc(5, 2, 1), 1),
    ],
)
def test_lift_check(G, k):
    assert lift_check(G, k)


def test_lift_check_pulls_each_class_back_once(monkeypatch):
    """Each level's lift check pulls every upstairs class down to G once,
    however many twists the level has."""
    G = GroupDesc(3, 3, 2)
    pulled = []
    real = oracle.conj_class_of

    def counting(g, H):
        if H == G:
            pulled.append(g)
        return real(g, H)

    monkeypatch.setattr(oracle, "conj_class_of", counting)
    for k in range(1, G.s + 1):
        assert lift_check(G, k)
    assert len(pulled) == G.s * class_count(GroupDesc(3, 3, 3))


# ---------------------------------------------------------- inner products


def test_inner_product_orthonormal_rows():
    G = GroupDesc(3, 2, 2)
    table = character_table(G)
    funcs = [DenseClassFunction.from_character(chi, G) for chi in table]
    n = zeta_order(G)
    one, zero = CycInt.integer(1, n), CycInt.zero(n)
    assert inner_product(funcs[0], funcs[0]) == one
    assert inner_product(funcs[-1], funcs[-1]) == one
    assert inner_product(funcs[0], funcs[-1]) == zero
    assert inner_product(funcs[2], funcs[7]) == zero


def test_inner_product_regular_character():
    # The regular character (sum of degree * row) contains the trivial
    # character exactly once.
    G = GroupDesc(3, 2, 1)
    table = character_table(G)
    n = zeta_order(G)
    values = {}
    for cls in all_classes(G):
        acc = CycInt.zero(n)
        for chi in table:
            acc = acc + chi.degree * char_value(chi, cls, G)
        values[cls.key] = acc
    regular = DenseClassFunction(G, values)
    trivial = DenseClassFunction.from_character(table[0], G)
    assert inner_product(regular, trivial) == CycInt.integer(1, n)


def test_inner_product_non_exact_division():
    G = GroupDesc(3, 2, 2)
    classes = all_classes(G)
    n = zeta_order(G)
    ident = [c for c in classes if c.size == 1][0]
    delta = DenseClassFunction(
        G, {c.key: CycInt.integer(1 if c is ident else 0, n) for c in classes}
    )
    trivial = DenseClassFunction.from_character(character_table(G)[0], G)
    with pytest.raises(ArithmeticError):
        inner_product(delta, trivial)


def test_inner_product_group_mismatch():
    f = DenseClassFunction.from_character(
        character_table(GroupDesc(3, 1, 1))[0], GroupDesc(3, 1, 1)
    )
    g = DenseClassFunction.from_character(
        character_table(GroupDesc(3, 2, 1))[0], GroupDesc(3, 2, 1)
    )
    with pytest.raises(ValueError):
        inner_product(f, g)


# ------------------------------------------------------------ batch engine


@pytest.mark.parametrize("G", MEDIUM)
def test_orthogonality_check(G):
    ok, detail = orthogonality_check(G)
    assert ok, detail


def test_batched_engine_agrees_with_naive_on_larger_group():
    # The batched difference-twist engine asserts the whole pair matrix at
    # once; independently confirm sampled pairs with the naive route.
    G = GroupDesc(3, 3, 3)
    table = character_table(G)
    n = zeta_order(G)
    picks = [0, 5, len(table) - 4, len(table) - 1]
    funcs = {i: DenseClassFunction.from_character(table[i], G) for i in picks}
    for i in picks:
        for j in picks:
            expect = CycInt.integer(1 if i == j else 0, n)
            assert inner_product(funcs[i], funcs[j]) == expect


# ------------------------------------------------------------- null scans


@pytest.mark.parametrize("G", MEDIUM)
def test_null_subgroup_scan(G):
    ok, detail = null_subgroup_scan_check(G)
    assert ok, detail


def test_null_set_closed_under_multiplication():
    from radical_ram.holomorph import conj_class_of, mul

    G = GroupDesc(3, 2, 2)
    n = zeta_order(G)
    from helpers import elements

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


def test_verification_report_skips_oversized_bruteforce():
    report = verification_report(GroupDesc(3, 3, 3), max_order=100)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["orbit_partition"]["status"] == "skipped"
    # everything that does not enumerate |G| elements still runs
    assert by_name["row_orthogonality"]["status"] == "pass"
    assert report["ok"]
