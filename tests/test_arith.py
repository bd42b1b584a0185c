"""Tests for the exact-arithmetic primitives.

The expensive facts (unit-group structure, wild depth s) are checked
against exhaustive oracles over all residues at desk scale before any
closed formula downstream is trusted.
"""

from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from radical_ram import arith, oracle
from radical_ram.arith import (
    FACTOR_BUDGET,
    MR_BOUND,
    TRIAL_LIMIT,
    ResourceLimitError,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    compute_s,
    discrete_log,
    factorint,
    integer_nthroot,
    is_prime,
    smallest_primitive_root,
    unit_decomp,
    vp,
)
from radical_ram.oracle import cyclotomic_poly
from radical_ram.ramfil import _perfect_power_root

from reference import CycInt


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


# ------------------------------------------------- primes, roots, factoring
#
# The references are deliberately naive: trial division by every
# integer, and roots by linear search.  is_prime.__wrapped__ is the
# uncached test, so a sweep does not fill the memo.


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    prime = is_prime.__wrapped__
    assert [n for n in range(10**5) if prime(n)] == [n for n in range(10**5) if trial_division_is_prime(n)]


SMALL_PRIMES = [n for n in range(10**5) if trial_division_is_prime(n)]


@settings(max_examples=300, deadline=None)
@given(st.integers(10**5, 10**10))
def test_is_prime_matches_trial_division_up_to_1e10(n):
    # every composite below 10^10 has a prime factor below 10^5
    expected = all(n % q for q in SMALL_PRIMES if q * q <= n)
    assert is_prime.__wrapped__(n) == expected


# (n, its prime factors, k): n is a strong pseudoprime to each of the
# first k prime bases
STRONG_PSEUDOPRIMES = [
    (2047, [23, 89], 1),
    (3215031751, [151, 751, 28351], 4),
    (3825123056546413051, [149491, 747451, 34233211], 9),
    (318665857834031151167461, [399165290221, 798330580441], 12),
    (3317044064679887385961981, [1287836182261, 2575672364521], 13),
]


@pytest.mark.parametrize("n,factors,k", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_are_composite(n, factors, k):
    assert prod(factors) == n
    assert all(_strong_probable_prime(n, b) for b in arith._MR_BASES[:k])
    assert not is_prime.__wrapped__(n)


def test_least_pseudoprime_to_all_13_bases_goes_through_baillie_psw(monkeypatch):
    """MR_BOUND itself fools Miller-Rabin on all 13 bases, so only the
    Baillie-PSW branch can reject it: the Lucas step must run, and say no."""
    n = MR_BOUND
    assert all(_strong_probable_prime(n, b) for b in arith._MR_BASES)
    verdicts = []

    def spy(m):
        verdicts.append(_strong_lucas_probable_prime(m))
        return verdicts[-1]

    monkeypatch.setattr(arith, "_strong_lucas_probable_prime", spy)
    assert not is_prime.__wrapped__(n)
    assert verdicts == [False]


@pytest.mark.parametrize("n", [561, 41041])
def test_carmichael_numbers(n):
    # Fermat's test passes for every base prime to n; the strong test fails
    assert all(pow(b, n - 1, n) == 1 for b in range(2, 200) if gcd(b, n) == 1)
    assert not _strong_probable_prime(n, 2)
    assert not is_prime.__wrapped__(n)


@pytest.mark.parametrize("n", [5459, 5777])
def test_strong_lucas_pseudoprimes(n):
    assert not trial_division_is_prime(n)
    assert _strong_lucas_probable_prime(n)
    assert not _strong_probable_prime(n, 2)
    assert not is_prime.__wrapped__(n)


def test_strong_lucas_step_passes_every_odd_prime():
    assert all(_strong_lucas_probable_prime(q) for q in SMALL_PRIMES[1:2000])
    # and is not vacuous: it rejects most odd composites
    composites = [n for n in range(9, 20000, 2) if not trial_division_is_prime(n) and isqrt(n) ** 2 != n]
    assert [n for n in composites if _strong_lucas_probable_prime(n)] == [5459, 5777, 10877, 16109, 18971]


@pytest.mark.parametrize("e", [89, 127, 521])
def test_mersenne_primes(e):
    assert is_prime.__wrapped__(2**e - 1)


def test_mersenne_composites():
    assert not is_prime.__wrapped__(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime.__wrapped__((2**89 - 1) * (2**127 - 1))
    assert not is_prime.__wrapped__((2**521 - 1) ** 2)


SMALL_KNOWN_PRIMES = [3, 5, 7, 997, 1009, 65537, 1000003, 1000033, 2**31 - 1]
LARGE_KNOWN_PRIMES = [10**12 + 39, 2**61 - 1, 2**89 - 1, 2**521 - 1]


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.sampled_from(SMALL_KNOWN_PRIMES), st.integers(1, 4), max_size=4),
       st.none() | st.sampled_from(LARGE_KNOWN_PRIMES))
def test_factorint_round_trips_products_of_known_primes(powers, large):
    """Products of small primes times at most one large one: rho has to
    find only factors below 2^31, well inside FACTOR_BUDGET."""
    if large is not None:
        powers[large] = 1
    n = prod(q**k for q, k in powers.items())
    assert factorint(n) == powers


def test_factorint_needs_rho():
    # no factor below TRIAL_LIMIT, and n is far above its square
    assert factorint(1000003 * 1000033**2 * 999983) == {999983: 1, 1000003: 1, 1000033: 2}
    assert factorint(1) == {}
    with pytest.raises(ValueError):
        factorint(0)


def test_factorint_budget_is_a_resource_limit():
    # a 45-digit semiprime with two 23-digit factors
    p, q = 10**22 + 9, 3 * 10**22 + 29
    assert is_prime(p) and is_prime(q) and len(str(p * q)) == 45
    n = p * q
    with pytest.raises(ResourceLimitError, match=f"budget of {FACTOR_BUDGET} steps"):
        factorint(n)


def test_factorint_checks_its_result(monkeypatch):
    """A splitting step that returns a non-divisor is caught by an
    explicit raise, so also under python -O."""
    monkeypatch.setattr(arith, "_rho_divisor", lambda c, budget: (1009, budget))
    with pytest.raises(AssertionError, match="does not divide"):
        factorint(1000003 * 1000033)


def brute_nthroot(y, n):
    x = 0
    while (x + 1) ** n <= y:
        x += 1
    return x, x**n == y


def test_integer_nthroot_against_linear_search():
    for n in range(1, 12):
        for y in range(0, 1500):
            assert integer_nthroot(y, n) == brute_nthroot(y, n), (y, n)
    with pytest.raises(ValueError):
        integer_nthroot(-8, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**30), st.integers(2, 40), st.integers(-1, 1))
def test_integer_nthroot_around_exact_powers(x, n, d):
    y = x**n + d
    root, exact = integer_nthroot(y, n)
    assert root**n <= y < (root + 1) ** n
    assert exact == (root**n == y)


def test_perfect_power_root_with_negative_radicands():
    for q in (3, 5, 7):
        powers = {b**q: b for b in range(-20, 21)}
        for a in range(-3000, 3001):
            assert _perfect_power_root(a, q) == powers.get(a), (a, q)
    assert _perfect_power_root(-(2**65), 5) == -(2**13)
    assert _perfect_power_root(-(2**65) - 1, 5) is None
    assert _perfect_power_root(-(10**40 + 1) ** 7, 7) == -(10**40 + 1)


def test_trial_limit_covers_the_miller_rabin_bases():
    assert arith._MR_BASES == tuple(SMALL_PRIMES[:13]) and TRIAL_LIMIT > arith._MR_BASES[-1]


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
# The oracle's cyclotomic polynomials and the reference CycInt of the tests.


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert len(cyclotomic_poly(294)) - 1 == 84


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


def test_radical_rows_builds_only_the_squarefree_table():
    """Z[zeta_(2 * 3^8)] reduces through the table of rad = 6, at stride
    3^7; tests/test_oracle.py checks the reduction against the dense
    table of the ring itself."""
    rows, q = oracle._radical_rows(2 * 3**8)
    assert (len(rows), q) == (6, 3**7)
    assert rows == oracle._reduction_rows(6)
