"""Tests for the exact-arithmetic primitives.

The expensive facts (unit-group structure, wild depth s) are checked
against exhaustive oracles over all residues at desk scale before any
closed formula downstream is trusted.
"""

import pytest
from hypothesis import given, settings, strategies as st

from radical_ram.arith import (
    CycInt,
    compute_s,
    cyclotomic_poly,
    discrete_log,
    reduction_degree,
    smallest_primitive_root,
    unit_decomp,
    vp,
)


# ---------------------------------------------------------------------- vp


def test_vp_values():
    assert vp(45, 3) == 2
    assert vp(7, 7) == 1
    assert vp(-18, 3) == 2
    assert vp(1, 3) == 0
    with pytest.raises(ValueError):
        vp(0, 5)


def test_vp_rejects_composite():
    with pytest.raises(ValueError):
        vp(10, 6)


@given(st.integers(-10**6, 10**6).filter(lambda n: n != 0),
       st.integers(-10**6, 10**6).filter(lambda n: n != 0),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_vp_multiplicative_and_ultrametric(n, m, p):
    assert vp(n * m, p) == vp(n, p) + vp(m, p)
    if n + m != 0:
        lo = min(vp(n, p), vp(m, p))
        assert vp(n + m, p) >= lo
        if vp(n, p) != vp(m, p):
            assert vp(n + m, p) == lo


# ------------------------------------------------------------ unit groups


def test_smallest_primitive_roots():
    assert smallest_primitive_root(3) == 2
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3


def test_unit_decomp_values():
    d = unit_decomp(3, 1)
    assert d.torsion_gen == 2 and d.principal_gen == 1
    d = unit_decomp(3, 2)
    assert d.torsion_gen == 8 and d.principal_gen == 4
    d = unit_decomp(5, 1)
    assert d.torsion_gen == 2


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                                 (5, 1), (5, 2), (7, 1), (7, 2)])
def test_unit_decomp_exhaustive_roundtrip(p, r):
    # Every unit mod p^r factors uniquely through the two generators; the
    # log table composed with re-exponentiation is the identity on all of
    # them.  Also pins the generator orders.
    d = unit_decomp(p, r)
    q = p**r
    assert pow(d.torsion_gen, p - 1, q) == 1
    for qq in {f for f in range(2, p) if (p - 1) % f == 0 and all(f % g for g in range(2, f))}:
        assert pow(d.torsion_gen, (p - 1) // qq, q) != 1
    seen = set()
    for u in range(1, q):
        if u % p == 0:
            continue
        a, b = discrete_log(u, d)
        assert 0 <= a < p - 1 and 0 <= b < p ** (r - 1)
        assert (pow(d.torsion_gen, a, q) * pow(d.principal_gen, b, q)) % q == u
        seen.add((a, b))
    assert len(seen) == (p - 1) * p ** (r - 1)


def test_discrete_log_values():
    d = unit_decomp(3, 2)
    assert discrete_log(1, d) == (0, 0)
    assert discrete_log(4, d) == (0, 1)
    assert discrete_log(8, d) == (1, 0)


def test_discrete_log_rejects_nonunit():
    with pytest.raises(ValueError):
        discrete_log(6, unit_decomp(3, 2))


def test_unit_decomp_rejects_two():
    with pytest.raises(ValueError):
        unit_decomp(2, 3)


# -------------------------------------------------------------- compute_s


def test_compute_s_values():
    assert compute_s(28, 3, 2) == 0   # 28^2 - 1 = 27 * 29
    assert compute_s(10, 3, 2) == 1   # v_3(99) = 2
    assert compute_s(2, 3, 1) == 1    # v_3(3) = 1
    assert compute_s(2, 3, 2) == 2
    assert compute_s(2, 5, 1) == 1
    assert compute_s(-5, 3, 2) == compute_s(-5 % 27, 3, 2)


def test_compute_s_rejects():
    with pytest.raises(ValueError):
        compute_s(6, 3, 2)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (3, 3)])
def test_compute_s_exhaustive_power_residue_oracle(p, r):
    # Independent oracle: s is characterized by a being a p^{r-s}-th power
    # residue mod p^{2r+1} (and, for s > 0, not a p^{r-s+1}-th one).
    big = p ** (2 * r + 1)
    residues = {}
    for k in (p**j for j in range(r + 2)):
        residues[k] = {pow(x, k, big) for x in range(big) if x % p}
    for a in range(2, 3**5):
        if a % p == 0:
            continue
        s = compute_s(a, p, r)
        assert a % big in residues[p ** (r - s)]
        if s > 0:
            assert a % big not in residues[p ** (r - s + 1)]


# ---------------------------------------------------------- cyclotomics


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert reduction_degree(294) == 84


def test_cycint_reduce_examples():
    x = CycInt(3, (0, 1, 1))             # zeta + zeta^2
    assert x.reduce().coeffs == (-1, 0, 0)
    y = CycInt.root(2, 4)                # zeta_4^2
    assert y.reduce().coeffs == (-1, 0, 0, 0)
    n = CycInt.integer(17, 6)
    assert n.reduce().coeffs == (17, 0, 0, 0, 0, 0)
    assert x.reduce().reduce().coeffs == x.reduce().coeffs


def test_cyc_equality_and_integer():
    # 1 + zeta_3 + zeta_3^2 = 0
    z = CycInt.from_pairs([(1, 0), (1, 1), (1, 2)], 3)
    assert z.is_zero()
    assert z == CycInt.zero(3)
    # sum of all primitive 9th roots = mu(9) = 0; of all 9th roots = 0
    all9 = CycInt.from_pairs([(1, j) for j in range(9)], 9)
    assert all9.is_zero()
    assert CycInt.integer(12, 9).as_int() == 12
    with pytest.raises(ValueError):
        (CycInt.root(1, 9) + CycInt.integer(1, 9)).as_int()


def test_cyc_divide_exact():
    x = CycInt.from_pairs([(6, 0), (9, 1)], 9)
    y = x.divide_exact(3)
    assert y == CycInt.from_pairs([(2, 0), (3, 1)], 9)
    with pytest.raises(ArithmeticError):
        x.divide_exact(4)


def test_cyc_conj():
    z = CycInt.root(1, 5)
    assert z.conj() == CycInt.root(4, 5)
    # conjugation is a ring morphism: conj(xy) = conj(x)conj(y)
    x = CycInt.from_pairs([(2, 1), (-1, 3)], 5)
    y = CycInt.from_pairs([(1, 2), (4, 0)], 5)
    assert (x * y).conj() == x.conj() * y.conj()


@st.composite
def small_cyc(draw, n):
    pairs = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(0, n - 1)),
                          max_size=5))
    return CycInt.from_pairs(pairs, n)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from([3, 4, 6, 9, 12]))
def test_cycint_reduce_ring_morphism(data, n):
    x = data.draw(small_cyc(n))
    y = data.draw(small_cyc(n))
    lhs = (x * y).reduce()
    rhs = (x.reduce() * y.reduce()).reduce()
    assert lhs.coeffs == rhs.coeffs
    assert (x + y).reduce().coeffs == (x.reduce() + y.reduce()).reduce().coeffs


def test_root_order_relation():
    # zeta_12^4 is a primitive cube root: 1 + z^4 + z^8 = 0 in Z[zeta_12]
    s = CycInt.from_pairs([(1, 0), (1, 4), (1, 8)], 12)
    assert s.is_zero()
