"""The tests' reference layer: per-cell routes the package does not use.

The package computes a character value by one route, chartab.value_table.
The routes here compute the same things one cell, one element or one
filtration index at a time, so that the tests can check the package
against them:

  * CycInt, an element of Z[zeta_N] as an integer vector on the powers of
    zeta_N, equal to another when their difference reduces to zero
    modulo the N-th cyclotomic polynomial;
  * the character table as Character records (character_table), and one
    value of it as a canonical monomial (char_monomial) or a CycInt
    (char_value), from the discrete log of the class's unit part;
  * the group law of C(p^s) x| G(p^r) on elements (identity, mul, inv,
    conj);
  * the conjugation orbits as arrays of element indices
    (classes_bruteforce);
  * the order of a filtration's group at an index (order_at);
  * a character's definitional conductor exponent, by one containment
    test (subgroup_contains) of every step of the upper filtration in
    its null subgroup (c_definitional_scan).

None of it reads the closed-form values it is the reference for:
value_table, class_exponents, exponent_row, exponent_rows, packed_rows
and the oracle's canonical pairs are not imported here (a test in
test_cli.py keeps it so).
"""

from fractions import Fraction
from itertools import compress
from operator import sub

import numpy as np

from radical_ram._kernels import orbit_roots
from radical_ram.arith import DEFAULT_MAX_ORDER, discrete_log, ensure, unit_decomp
from radical_ram.chartab import Character, induced_coefficient, subgroup_normal_form, table_rows, twist_order
from radical_ram.holomorph import HolomorphElement, class_count
from radical_ram.oracle import _conj_perms, _radical_rows, admit
from radical_ram.ramfil import _step_order, value_at


# ---------------------------------------------------------------------------
# Cyclotomic integers.


class CycInt:
    """An element of the group ring Z[mu_N]; order = N, coeffs indexed by
    the exponent of zeta_N.  Reduced through the small table of rad(N)
    (oracle._radical_rows, checked against the dense table of N)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        ensure(len(coeffs) == order)
        self.order = order
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n):
        return CycInt(n, (0,) * n)

    @staticmethod
    def integer(k, n):
        return CycInt(n, (k,) + (0,) * (n - 1))

    @staticmethod
    def root(e, n):
        return CycInt.from_pairs([(1, e)], n)

    @staticmethod
    def term(k, e, n):
        """k * zeta_n^e."""
        return CycInt.from_pairs([(k, e)], n)

    @staticmethod
    def from_pairs(pairs, n):
        c = [0] * n
        for k, e in pairs:
            c[e % n] += k
        return CycInt(n, tuple(c))

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.order != other.order:
            raise ValueError(f"CycInt order mismatch: {self.order} != {other.order}")

    def __add__(self, other):
        self._check(other)
        return CycInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return CycInt(self.order, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycInt(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.order, tuple(a * other for a in self.coeffs))
        self._check(other)
        n = self.order
        out = [0] * n
        nz = [(j, c) for j, c in enumerate(other.coeffs) if c]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nz:
                    out[(i + j) % n] += a * b
        return CycInt(n, tuple(out))

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation: zeta^e -> zeta^{-e}."""
        return CycInt.from_pairs(((a, -j) for j, a in enumerate(self.coeffs) if a), self.order)

    # -- canonical form -----------------------------------------------------

    def _terms(self):
        """(exponent, coefficient) of every nonzero coefficient."""
        c = self.coeffs
        return [(j, c[j]) for j in compress(range(self.order), c)]

    def _reduced(self, terms):
        """The canonical coefficients, as a list, of the sum of c * zeta_N^j
        over terms: zeta_N^(a*q + b) goes through row a of the rad(N) table
        (_radical_rows) at stride q and offset b."""
        n = self.order
        rows, q = _radical_rows(n)
        acc = [0] * n
        for j, c in terms:
            a, b = divmod(j, q)
            for k, x in enumerate(rows[a]):
                if x:
                    acc[k * q + b] += c * x
        return acc

    def reduce(self):
        """Canonical representative mod the N-th cyclotomic polynomial."""
        return CycInt(self.order, tuple(self._reduced(self._terms())))

    def __eq__(self, other):
        """Equal exactly when the difference reduces to zero: the terms of
        self and the negated terms of other go through one reduction, unless
        the two coefficient vectors are already the same."""
        if not isinstance(other, CycInt):
            if isinstance(other, int):
                other = CycInt.integer(other, self.order)
            else:
                return NotImplemented
        if self.order != other.order:
            return False
        if self.coeffs == other.coeffs:
            return True
        return not any(self._reduced(self._terms() + [(j, -c) for j, c in other._terms()]))

    __hash__ = None

    def is_zero(self):
        return not any(self._reduced(self._terms()))

    def as_int(self):
        """The rational integer this element equals; error if it is not one."""
        red = self.reduce().coeffs
        if any(red[1:]):
            raise ValueError(f"CycInt is not a rational integer: {red}")
        return red[0]

    def __repr__(self):
        terms = [f"{c}*z^{j}" for j, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"CycInt({self.order}: {body})"


# ---------------------------------------------------------------------------
# Characters, one cell at a time.


def character_table(G):
    """table_rows as Characters: the whole table, with its count and its
    degree squares checked."""
    out = [Character(G, *row) for row in table_rows(G)]
    ensure(len(out) == class_count(G), "{} characters for {} classes", len(out), class_count(G))
    total = sum(chi.degree**2 for chi in out)
    ensure(total == G.order, "degree squares sum to {}, not |G| = {}", total, G.order)
    return out


def zeta_order(G):
    """p^r(p-1): the common cyclotomic ring for values and induction sums."""
    return G.p**G.r * (G.p - 1)


def linear_exponent(twist, u, G):
    """Exponent e with psi_twist(u) = zeta_{m0}^e, m0 = phi(p^r)."""
    d = unit_decomp(G.p, G.r)
    a, b = discrete_log(u, d)
    m0 = twist_order(G)
    ta, tb = twist
    return (ta * a * d.principal_order + tb * b * d.torsion_order) % m0


def char_coefficient(chi, cls):
    if chi.kind == "linear":
        return 1
    return induced_coefficient(chi.level, cls.alpha, cls.beta, chi.group.p)


def canonical_monomial(c, e, n):
    """The canonical pair of c * zeta_n^e for even n: (0, 0) when c = 0,
    otherwise the exponent taken mod n and moved into [0, n/2), with the
    sign of c flipped when it moves (zeta_n^(n/2) = -1)."""
    if c == 0:
        return (0, 0)
    half = n // 2
    e %= n
    if e >= half:
        return (-c, e - half)
    return (c, e)


def char_monomial(chi, cls, G):
    """Exact value of chi on the class as the canonical pair (c, e) of
    c * zeta_N^e, N = p^r(p-1) (see canonical_monomial).

    N is even, and two values are equal exactly when their pairs are:
    both zero, or c1 z^e1 = c2 z^e2 with c1, c2 nonzero, which forces
    z^(e1-e2) = c2/c1, a rational root of unity, so +1 or -1.  Then
    (c1, e1) = (c2, e2) or (c1, e1) = (-c2, e2 + N/2), mod N, and both
    cases land on one canonical pair."""
    if chi.group != G:
        raise ValueError(f"character of {chi.group} evaluated in {G}")
    n = zeta_order(G)
    coeff = char_coefficient(chi, cls)
    if coeff == 0:
        return (0, 0)
    e = linear_exponent(chi.twist, cls.representative.u, G)
    return canonical_monomial(coeff, e * (n // twist_order(G)), n)


def char_value(chi, cls, G):
    """Exact value of chi on the class, as a CycInt of order p^r(p-1)."""
    return CycInt.term(*char_monomial(chi, cls, G), zeta_order(G))


# ---------------------------------------------------------------------------
# The group law and conjugation orbits.


def identity(G):
    return HolomorphElement(0, 1 % G.pr)


def mul(g, h, G):
    # sigma acts through reduction mod p^s
    return HolomorphElement((g.i + g.u * h.i) % G.ps, (g.u * h.u) % G.pr)


def inv(g, G):
    uinv = pow(g.u, -1, G.pr)
    return HolomorphElement((-uinv * g.i) % G.ps, uinv)


def conj(g, h, G):
    """h g h^{-1}."""
    return mul(mul(h, g, G), inv(h, G), G)


def classes_bruteforce(G, max_order=DEFAULT_MAX_ORDER):
    """Conjugation orbits as ascending arrays of element indices, in the
    order of their least members, for a G that oracle.admit lets through."""
    admit(G, max_order)
    roots = orbit_roots(_conj_perms(G))
    order = np.argsort(roots, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(roots[order])) + 1)


# ---------------------------------------------------------------------------
# Filtrations.


def order_at(filt, t):
    """The order of the filtration's group at index t."""
    h = value_at(filt, t)
    return 1 if h is None else _step_order(h, filt.group)


def subgroup_contains(big, small, G):
    """Whether `small` is a subgroup of `big` (as actual groups):
    componentwise on normal forms."""
    a, b = subgroup_normal_form(big, G), subgroup_normal_form(small, G)
    return a.x >= b.x and a.y <= b.y


def c_definitional_scan(gr, trivial, filt):
    """Largest break b of the upper filtration filt with G^b not inside
    gr, a character's null subgroup, one containment test per step; -1
    for the trivial character."""
    if trivial:
        return Fraction(-1)
    best = Fraction(-1)
    for b, h in filt.steps:
        if not subgroup_contains(gr, h, filt.group):
            best = max(best, b)
    ensure(best >= 0, "a nontrivial character must be detected by some break")
    return best
