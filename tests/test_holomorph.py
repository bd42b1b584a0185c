"""Group-law and conjugacy tests, against exhaustive brute force.

The closed-form class description is never trusted bare: an independent
union-find over generator conjugation re-derives the partition for every
group small enough, and the two must agree exactly.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from radical_ram.holomorph import (
    GroupDesc,
    HolomorphElement,
    all_classes,
    class_count,
    conj_class_of,
    element,
    identity,
    inv,
    mul,
)

from helpers import BAD_GROUPS, SMALL, brute_orbits, elements


# ------------------------------------------------------------- group law


def test_mul_examples():
    G = GroupDesc(3, 1, 1)
    h = element(G, 2, 2)
    assert mul(identity(G), h, G) == h
    assert mul(element(G, 1, 2), element(G, 1, 2), G) == element(G, 0, 1)
    G2 = GroupDesc(3, 2, 1)
    assert mul(element(G2, 1, 4), element(G2, 1, 4), G2) == element(G2, 2, 7)


def test_inv_examples():
    G = GroupDesc(3, 1, 1)
    assert inv(identity(G), G) == identity(G)
    assert inv(element(G, 1, 1), G) == element(G, 2, 1)
    assert inv(element(G, 1, 2), G) == element(G, 1, 2)


@pytest.mark.parametrize("G", [GroupDesc(3, 1, 1), GroupDesc(5, 1, 1), GroupDesc(3, 2, 2)])
def test_group_axioms_exhaustive(G):
    els = elements(G)
    assert len(els) == G.order
    e = identity(G)
    for g in els:
        assert mul(g, e, G) == mul(e, g, G) == g
        assert mul(g, inv(g, G), G) == e
    for a, b, c in itertools.product(els, els, els):
        assert mul(mul(a, b, G), c, G) == mul(a, mul(b, c, G), G)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([GroupDesc(7, 2, 2), GroupDesc(5, 3, 3), GroupDesc(3, 3, 2)]),
       st.data())
def test_group_axioms_random(G, data):
    units = [u for u in range(G.pr) if u % G.p]

    def draw_el(label):
        i = data.draw(st.integers(0, G.ps - 1), label=f"{label}.i")
        u = data.draw(st.sampled_from(units), label=f"{label}.u")
        return HolomorphElement(i, u)

    a, b, c = draw_el("a"), draw_el("b"), draw_el("c")
    assert mul(mul(a, b, G), c, G) == mul(a, mul(b, c, G), G)
    assert mul(a, inv(a, G), G) == identity(G)


@pytest.mark.parametrize("p,r,s", BAD_GROUPS)
def test_group_desc_rejects_bad_parameters(p, r, s):
    with pytest.raises(ValueError):
        GroupDesc(p, r, s)


def test_element_rejects_nonunit():
    with pytest.raises(ValueError):
        element(GroupDesc(3, 2, 1), 0, 3)


# -------------------------------------------------------------- conjugacy


def test_conj_class_examples():
    G = GroupDesc(3, 2, 2)
    c = conj_class_of(identity(G), G)
    assert (c.alpha, c.beta, c.size) == (2, 2, 1)
    c = conj_class_of(element(G, 1, 4), G)
    assert (c.alpha, c.beta, c.size) == (1, 0, 6)
    c = conj_class_of(element(G, 3, 4), G)
    assert (c.alpha, c.beta, c.size) == (1, 1, 3)
    # identity in a group with s < r
    G = GroupDesc(3, 2, 1)
    c = conj_class_of(identity(G), G)
    assert (c.alpha, c.beta, c.size) == (2, 1, 1)


def test_class_counts_pinned():
    assert class_count(GroupDesc(3, 1, 1)) == 3
    assert class_count(GroupDesc(3, 2, 2)) == 10
    assert class_count(GroupDesc(3, 2, 1)) == 9
    assert class_count(GroupDesc(5, 1, 1)) == 5


@pytest.mark.parametrize("G", SMALL)
def test_all_classes_partition_and_count(G):
    classes = all_classes(G)
    assert len(classes) == class_count(G)
    assert sum(c.size for c in classes) == G.order
    assert all(G.order % c.size == 0 for c in classes)
    keys = [c.key for c in classes]
    assert len(set(keys)) == len(keys)
    # classes sharing a sigma-part split it into min(alpha, s) + 1 pieces
    per_u = {}
    for c in classes:
        per_u.setdefault(c.representative.u, []).append(c)
    for u, cs in per_u.items():
        assert len(cs) == min(cs[0].alpha, G.s) + 1
        assert sum(c.size for c in cs) == G.ps


@pytest.mark.parametrize("G", SMALL)
def test_conjugacy_matches_brute_force(G):
    # The oracle: explicit conjugation orbits.  Each orbit must be exactly
    # one closed-form class — same elements, same size, constant key.
    orbits = brute_orbits(G)
    assert len(orbits) == class_count(G)
    for orbit in orbits:
        keys = {conj_class_of(g, G).key for g in orbit}
        assert len(keys) == 1
        c = conj_class_of(next(iter(orbit)), G)
        assert c.size == len(orbit)
        assert c.representative in orbit


def test_sigma_part_is_class_invariant():
    G = GroupDesc(3, 2, 2)
    for g in elements(G):
        c = conj_class_of(g, G)
        assert c.representative.u == g.u

