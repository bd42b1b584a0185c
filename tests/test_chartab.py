"""Character-table tests.

The closed-form table is checked against things it cannot have been built
from: the known table of the symmetric group on three letters, exact
unnormalized orthogonality in the cyclotomic ring, and a histogram of
(level, primitive degree) pairs recounted from the table itself.
"""

import random

import pytest

from radical_ram import chartab
from radical_ram.arith import CycInt, unit_decomp, vp
from radical_ram.chartab import (
    SubgroupDesc,
    canonical_monomial,
    char_monomial,
    char_value,
    census,
    character_json,
    character_table,
    count_by,
    induced_coefficient,
    level_degree,
    linear_exponent,
    null_subgroup,
    prim_degree,
    subgroup_contains,
    subgroup_eq,
    subgroup_intersect,
    subgroup_order,
    table_rows,
    trivial_subgroup,
    twist_order,
    value_profiles,
    whole_group,
    zeta_order,
)
from radical_ram.holomorph import GroupDesc, all_classes, class_count

from helpers import SMALL


def table_and_classes(G):
    return character_table(G), all_classes(G)


# ------------------------------------------------------------ table shape


def test_table_shape_small():
    t = character_table(GroupDesc(3, 1, 1))
    assert [c.degree for c in t] == [1, 1, 2]
    assert [c.kind for c in t] == ["linear", "linear", "induced"]

    t = character_table(GroupDesc(3, 2, 2))
    assert [c.degree for c in t] == [1] * 6 + [2] * 3 + [6]

    t = character_table(GroupDesc(3, 2, 1))
    assert [c.degree for c in t] == [1] * 6 + [2] * 3

    t = character_table(GroupDesc(5, 1, 1))
    assert [c.degree for c in t] == [1, 1, 1, 1, 4]

    t = character_table(GroupDesc(3, 2, 0))
    assert [c.degree for c in t] == [1] * 6


@pytest.mark.parametrize("G", SMALL)
def test_degree_square_sum_and_count(G):
    table = character_table(G)
    assert len(table) == class_count(G)
    assert sum(chi.degree**2 for chi in table) == G.order


def test_table_deterministic():
    G = GroupDesc(3, 2, 2)
    a, b = character_table(G), character_table(G)
    assert a == b
    assert a == sorted(a, key=lambda c: (c.level, c.twist))


# ----------------------------------------------------------------- values


def test_s3_table_exact():
    # C(3) x| G(3) is the symmetric group on three letters; its table is
    # textbook material and pins every value routine at once.
    G = GroupDesc(3, 1, 1)
    table, classes = table_and_classes(G)
    # classes sorted by (alpha, beta, u): order-2 class, order-3 class, identity
    assert [(c.alpha, c.beta, c.size) for c in classes] == [(0, 0, 3), (1, 0, 2), (1, 1, 1)]
    values = [[char_value(chi, c, G).as_int() for c in classes] for chi in table]
    assert values == [[1, 1, 1], [-1, 1, 1], [0, -1, 2]]


def test_char_value_examples():
    G = GroupDesc(3, 2, 2)
    table, classes = table_and_classes(G)
    ident = [c for c in classes if c.size == 1][0]
    for chi in table:
        assert char_value(chi, ident, G).as_int() == chi.degree

    # A linear character with pure torsion twist takes the value -1 on the
    # class of the torsion generator (an element of unit order 2).
    d = unit_decomp(3, 2)
    # u - 1 = 7 is a unit, so alpha = 0 and the torsion generator heads a
    # single class with beta = 0.
    matching = [c for c in classes if c.representative.u == d.torsion_gen]
    assert len(matching) == 1 and matching[0].beta == 0
    cls8 = matching[0]
    chi = [c for c in table if c.kind == "linear" and c.twist == (1, 0)][0]
    assert char_value(chi, cls8, G) == CycInt.integer(-1, zeta_order(G))


def test_induced_coefficient_cases():
    # Too shallow, critical, deep — the three coefficient regimes.
    assert induced_coefficient(1, 0, 0, 3) == 0
    assert induced_coefficient(1, 1, 0, 3) == -1
    assert induced_coefficient(1, 2, 1, 3) == 2
    assert induced_coefficient(2, 1, 2, 3) == 0
    assert induced_coefficient(2, 2, 1, 3) == -3
    assert induced_coefficient(2, 2, 2, 3) == 6


def test_char_value_group_mismatch():
    G, H = GroupDesc(3, 1, 1), GroupDesc(3, 2, 2)
    chi = character_table(G)[0]
    with pytest.raises(ValueError):
        char_value(chi, all_classes(H)[0], H)


def test_linear_exponent_is_homomorphism():
    G = GroupDesc(3, 2, 1)
    m0 = twist_order(G)
    units = [u for u in range(G.pr) if u % G.p]
    for tw in [(0, 1), (1, 0), (1, 2)]:
        for u in units:
            for v in units:
                lhs = linear_exponent(tw, u * v % G.pr, G)
                rhs = (linear_exponent(tw, u, G) + linear_exponent(tw, v, G)) % m0
                assert lhs == rhs


# ----------------------------------------------------------- orthogonality


def inner(chi1, chi2, table_classes, G):
    """Unnormalized Hermitian inner product: sums size * x1 * conj(x2)."""
    n = zeta_order(G)
    acc = CycInt.zero(n)
    for c in table_classes:
        acc = acc + c.size * (char_value(chi1, c, G) * char_value(chi2, c, G).conj())
    return acc


@pytest.mark.parametrize(
    "G", [GroupDesc(3, 1, 1), GroupDesc(3, 2, 1), GroupDesc(3, 2, 2), GroupDesc(5, 1, 1)]
)
def test_row_orthogonality_exact(G):
    table, classes = table_and_classes(G)
    n = zeta_order(G)
    for i, chi1 in enumerate(table):
        for j, chi2 in enumerate(table):
            expect = G.order if i == j else 0
            assert inner(chi1, chi2, classes, G) == CycInt.integer(expect, n)


@pytest.mark.parametrize("G", [GroupDesc(3, 1, 1), GroupDesc(3, 2, 2)])
def test_column_orthogonality_exact(G):
    table, classes = table_and_classes(G)
    n = zeta_order(G)
    for c1 in classes:
        for c2 in classes:
            acc = CycInt.zero(n)
            for chi in table:
                acc = acc + char_value(chi, c1, G) * char_value(chi, c2, G).conj()
            expect = G.order // c1.size if c1.key == c2.key else 0
            assert acc == CycInt.integer(expect, n)


# ------------------------------------------- twists restrict bijectively


@pytest.mark.parametrize("G", [g for g in SMALL if g.s >= 1])
def test_twist_restriction_bijective(G):
    # The canonical twists (0, b), 0 <= b < p^{r-k}, must restrict to
    # pairwise-distinct characters of G(p^r)^k and exhaust them.  On the
    # cyclic generator of that subgroup this means the achieved exponents
    # are exactly the multiples of m0 / p^{r-k}.
    d = unit_decomp(G.p, G.r)
    m0 = twist_order(G)
    for k in range(1, G.s + 1):
        count = G.p ** (G.r - k)
        if k >= G.r:
            assert count == 1
            continue
        gen = pow(d.principal_gen, G.p ** (k - 1), G.pr)
        achieved = {linear_exponent((0, b), gen, G) for b in range(count)}
        assert achieved == {j * (m0 // count) for j in range(count)}


# ------------------------------------------------- level / prim / counts


def test_level_and_prim_pinned():
    G = GroupDesc(3, 2, 2)
    table = character_table(G)
    by = {(c.kind, c.twist, c.level): c for c in table}

    triv = by[("linear", (0, 0), 0)]
    assert (triv.level, triv.prim_degree) == (0, 0)
    assert null_subgroup(triv) == SubgroupDesc(2, 0)

    tors = by[("linear", (1, 0), 0)]
    assert (tors.level, tors.prim_degree) == (0, 1)
    assert null_subgroup(tors) == SubgroupDesc(2, 1)

    ind1 = by[("induced", (0, 1), 1)]
    assert (ind1.level, ind1.prim_degree) == (1, 2)
    assert null_subgroup(ind1) == SubgroupDesc(1, 2)

    ind2 = by[("induced", (0, 0), 2)]
    assert (ind2.level, ind2.prim_degree) == (2, 2)
    assert null_subgroup(ind2) == SubgroupDesc(0, 2)


@pytest.mark.parametrize("G", SMALL)
def test_linear_prim_degree_closed_rule(G):
    # The table must follow the arithmetic rule: trivial twist -> 0,
    # pure torsion twist -> 1, otherwise r - v_p(principal exponent).
    for chi in character_table(G):
        if chi.kind != "linear":
            continue
        a, b = chi.twist
        if b != 0:
            assert chi.prim_degree == G.r - vp(b, G.p)
        elif a != 0:
            assert chi.prim_degree == 1
        else:
            assert chi.prim_degree == 0


@pytest.mark.parametrize("G", [GroupDesc(11, 3, 1), GroupDesc(3, 4, 2), GroupDesc(5, 1, 1), GroupDesc(7, 2, 2)])
def test_table_rows_asks_prim_degree_once_per_class(monkeypatch, G):
    """One table_rows pass goes through chartab.prim_degree at most
    p^(r-1) + 1 + sum_(k=1..s) p^(r-k) times, where one call per
    character made (p-1) p^(r-1) + sum_(k=1..s) p^(r-k), and yields what
    one call per character gives."""
    p, r, s = G.p, G.r, G.s
    real = chartab.prim_degree
    calls = []

    def counted(twist, G):
        calls.append(twist)
        return real(twist, G)

    monkeypatch.setattr(chartab, "prim_degree", counted)
    rows = list(table_rows(G))
    assert len(calls) <= p ** (r - 1) + 1 + sum(p ** (r - k) for k in range(1, s + 1))
    per_character = [("linear", (a, b), 1, 0, real((a, b), G)) for a in range(p - 1) for b in range(p ** (r - 1))]
    per_character += [("induced", (0, b), level_degree(k, p), k, max(k, real((0, b), G)))
                      for k in range(1, s + 1) for b in range(p ** (r - k))]
    assert rows == per_character


def prim_degree_scan(twist, G):
    """The least level t whose generators psi_twist maps to 1, found by
    discrete logs: G(p^r)^0 is generated by the torsion and principal
    generators, G(p^r)^t (1 <= t < r) by principal_gen^(p^(t-1)), and
    G(p^r)^r is trivial."""
    d = unit_decomp(G.p, G.r)
    for t in range(G.r):
        if t == 0:
            gens = [d.torsion_gen, d.principal_gen]
        else:
            gens = [pow(d.principal_gen, G.p ** (t - 1), G.pr)]
        if all(linear_exponent(twist, g, G) == 0 for g in gens):
            return t
    return G.r


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_prim_degree_closed_form_matches_scan(p, r):
    """Every linear twist, and every induced row of every level (s = r
    has them all), against the elementwise discrete-log scan."""
    G = GroupDesc(p, r, r)
    scans = {}
    for chi in character_table(G):
        if chi.twist not in scans:
            scans[chi.twist] = prim_degree_scan(chi.twist, G)
            assert prim_degree(chi.twist, G) == scans[chi.twist]
        assert chi.prim_degree == max(chi.level, scans[chi.twist])
    assert len(scans) == twist_order(G)


@pytest.mark.parametrize("G", SMALL)
def test_count_by_matches_histogram(G):
    table = character_table(G)
    hist = {}
    for chi in table:
        key = (chi.level, chi.prim_degree)
        hist[key] = hist.get(key, 0) + 1
    for k in range(G.s + 1):
        for t in range(G.r + 1):
            assert count_by(k, t, G) == hist.get((k, t), 0), (k, t)
    assert sum(hist.values()) == class_count(G)
    assert list(census(G).items()) == sorted(hist.items())


def test_count_by_examples():
    assert count_by(0, 0, GroupDesc(3, 2, 2)) == 1
    assert count_by(0, 1, GroupDesc(3, 2, 2)) == 1
    assert count_by(1, 2, GroupDesc(3, 2, 2)) == 2
    assert count_by(2, 2, GroupDesc(3, 2, 2)) == 1
    assert count_by(1, 0, GroupDesc(3, 2, 2)) == 0
    assert count_by(3, 1, GroupDesc(3, 2, 2)) == 0


# -------------------------------------------------------------- subgroups


def test_subgroup_orders():
    G = GroupDesc(3, 2, 2)
    assert subgroup_order(whole_group(G), G) == 54
    assert subgroup_order(trivial_subgroup(G), G) == 1
    assert subgroup_order(SubgroupDesc(2, 1), G) == 27
    assert subgroup_order(SubgroupDesc(0, 1), G) == 3
    assert subgroup_order(SubgroupDesc(1, 0), G) == 18
    # y beyond r denotes the same trivial unit part as y = r
    assert subgroup_order(SubgroupDesc(1, 5), G) == subgroup_order(SubgroupDesc(1, 2), G)
    assert subgroup_eq(SubgroupDesc(1, 5), SubgroupDesc(1, 2), G)


def test_subgroup_lattice():
    G = GroupDesc(3, 2, 2)
    assert subgroup_contains(whole_group(G), trivial_subgroup(G), G)
    assert subgroup_contains(SubgroupDesc(2, 1), SubgroupDesc(1, 1), G)
    assert subgroup_contains(SubgroupDesc(2, 1), SubgroupDesc(2, 2), G)
    assert not subgroup_contains(SubgroupDesc(1, 1), SubgroupDesc(2, 1), G)
    assert not subgroup_contains(SubgroupDesc(2, 1), SubgroupDesc(1, 0), G)
    got = subgroup_intersect(SubgroupDesc(2, 1), SubgroupDesc(1, 0), G)
    assert got == SubgroupDesc(1, 1)


# ---------------------------------------------------------- value profiles


@pytest.mark.parametrize("G", [GroupDesc(3, 2, 2), GroupDesc(5, 2, 2)])
def test_value_profiles_match_char_value(G):
    classes, table, profiles = value_profiles(G)
    n = zeta_order(G)
    step = n // twist_order(G)
    for chi, (coeffs, exps) in zip(table, profiles):
        for j, cls in enumerate(classes):
            direct = char_value(chi, cls, G)
            if coeffs[j] == 0:
                assert direct.is_zero()
            else:
                assert direct == CycInt.term(coeffs[j], exps[j] * step, n)


# ------------------------------------------------------ canonical monomials


@pytest.mark.parametrize("n", [6, 18, 42, 294])
def test_canonical_monomial_decides_term_equality(n):
    """Equal canonical pairs exactly when the dense terms are equal, on
    random pairs that include zero coefficients, whole turns, the sign
    flip at n/2 and the shift by n/2 without the flip (the negative)."""
    rng = random.Random(n)
    half = n // 2

    def random_term():
        return rng.choice([0, 1, -1, 2, -2, 6]), rng.randrange(-2 * n, 2 * n)

    outcomes = set()
    for _ in range(400):
        c, e = random_term()
        kind = rng.randrange(4)
        if kind == 0:
            other = (c, e + n * rng.randrange(-2, 3))
        elif kind == 1:
            other = (-c, e + half + n * rng.randrange(-2, 3))
        elif kind == 2:
            other = (c, e + half)
        else:
            other = random_term()
        pair = canonical_monomial(c, e, n)
        assert pair == (0, 0) if c == 0 else 0 <= pair[1] < half
        same_pair = pair == canonical_monomial(*other, n)
        same_term = CycInt.term(c, e, n) == CycInt.term(*other, n)
        assert same_pair == same_term, ((c, e), other)
        outcomes.add((kind, same_pair))
    assert {(0, True), (1, True), (2, False), (3, False)} <= outcomes


@pytest.mark.parametrize("G", [GroupDesc(3, 2, 2), GroupDesc(5, 2, 1)])
def test_char_monomial_partitions_values_like_dense_equality(G):
    """On a whole table, the canonical pairs and the reduced dense values
    (built from value_profiles, not from char_monomial) are in bijection."""
    classes, table, profiles = value_profiles(G)
    n = zeta_order(G)
    step = n // twist_order(G)
    by_pair, by_dense = {}, {}
    for chi, (coeffs, exps) in zip(table, profiles):
        for j, cls in enumerate(classes):
            pair = char_monomial(chi, cls, G)
            dense = CycInt.term(coeffs[j], exps[j] * step, n).reduce().coeffs
            by_pair.setdefault(pair, set()).add(dense)
            by_dense.setdefault(dense, set()).add(pair)
    assert all(len(v) == 1 for v in by_pair.values())
    assert all(len(v) == 1 for v in by_dense.values())
    assert len(by_pair) > 1


def test_character_json_shape():
    G = GroupDesc(3, 2, 2)
    chi = character_table(G)[-1]
    assert character_json(chi.row) == {
        "kind": "induced",
        "k": 2,
        "twist": [0, 0],
        "degree": 6,
        "level": 2,
        "prim_degree": 2,
    }
