"""Exact arithmetic primitives: p-adic valuations, unit group structure
mod p^r, and an integral cyclotomic ring with canonical reduction.

Everything here is arbitrary-precision and exact.  No floats ever touch a
root of unity: an element of Z[zeta_N] is carried as an integer vector on
the group ring of mu_N and compared after reduction modulo the N-th
cyclotomic polynomial.

It also holds the one runner that turns named self-checks into report
rows, because every checking module can import it from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from sympy import isprime


@lru_cache(maxsize=None)
def _is_prime(p):
    return isprime(p)


def vp(n, p):
    """Largest k with p^k | n; n = 0 has no finite valuation and is
    rejected, so callers handle 0 explicitly."""
    if not _is_prime(p):
        raise ValueError(f"vp: {p} is not prime")
    if n == 0:
        raise ValueError("vp: the valuation of 0 is infinite")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _factor_small(n):
    """Trial-division factorization; plenty for p - 1 with desk-scale p."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def smallest_primitive_root(p):
    """The smallest g in (1, p) generating (Z/p)^*."""
    qs = list(_factor_small(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ValueError(f"no primitive root found mod {p}")  # unreachable for prime p


class UnitGroupDecomp:
    """(Z/p^r)^* = <torsion_gen> + <1+p>, orders p-1 and p^{r-1}.

    torsion_gen = g^{p^{r-1}} mod p^r for g the smallest primitive root
    mod p, so labels are deterministic across runs.
    """

    def __init__(self, p, r):
        if p == 2:
            raise ValueError("unit_decomp: p = 2 unsupported")
        if not isprime(p) or r < 1:
            raise ValueError(f"unit_decomp: bad arguments p={p}, r={r}")
        self.p = p
        self.r = r
        self.modulus = p**r
        g = smallest_primitive_root(p)
        self.torsion_gen = pow(g, p ** (r - 1), self.modulus)
        self.principal_gen = (1 + p) % self.modulus
        self.torsion_order = p - 1
        self.principal_order = p ** (r - 1)
        self._logs = None

    def _log_table(self):
        # One pass over all p^{r-1}(p-1) units; desk scale tops out at 294.
        if self._logs is None:
            logs = {}
            t = 1
            for a in range(self.torsion_order):
                u = t
                for b in range(self.principal_order):
                    logs[u] = (a, b)
                    u = (u * self.principal_gen) % self.modulus
                t = (t * self.torsion_gen) % self.modulus
            assert len(logs) == self.torsion_order * self.principal_order
            self._logs = logs
        return self._logs

    def __repr__(self):
        return (f"UnitGroupDecomp(p={self.p}, r={self.r}, "
                f"torsion_gen={self.torsion_gen}, principal_gen={self.principal_gen})")


@lru_cache(maxsize=None)
def unit_decomp(p, r):
    return UnitGroupDecomp(p, r)


def discrete_log(u, d):
    """Exponents (a, b) with torsion_gen^a * principal_gen^b = u mod p^r."""
    u %= d.modulus
    if u % d.p == 0:
        raise ValueError(f"discrete_log: {u} is not a unit mod {d.p}^{d.r}")
    return d._log_table()[u]


def compute_s(a, p, r):
    """The wild depth s of a at p: 0 if p^{r+1} | a^{p-1} - 1, else
    r + 1 - v_p(a^{p-1} - 1).

    Fermat gives v_p(a^{p-1} - 1) >= 1, so s lands in [0, r].  Working
    mod p^{r+1} keeps a^{p-1} from blowing up for large a.
    """
    if r < 1 or not isprime(p) or p == 2:
        raise ValueError(f"compute_s: bad arguments p={p}, r={r}")
    if a % p == 0:
        raise ValueError(f"compute_s: p={p} divides a={a}")
    q = p ** (r + 1)
    t = (pow(a, p - 1, q) - 1) % q
    if t == 0:
        return 0
    v = vp(t, p)
    assert 1 <= v <= r
    return r + 1 - v


# ---------------------------------------------------------------------------
# Cyclotomic integers.
#
# An element of Z[zeta_N] is a length-N integer vector c with meaning
# sum_j c[j] * zeta_N^j.  The canonical form is the remainder modulo the
# N-th cyclotomic polynomial, zero-padded back to length N; equality and
# exact integer division are decided there.


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
    assert num[-1] == 1
    return tuple(num)


def _polydiv_exact(num, den):
    """Exact quotient of integer polynomials (ascending coeffs); the
    divisor must be monic here, and the remainder must vanish."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    assert den[-1] == 1
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd]
        if c:
            quot[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return quot


@lru_cache(maxsize=None)
def _reduction_rows(n):
    """Row j = coefficients (length phi(n)) of zeta_n^j reduced mod the
    n-th cyclotomic polynomial, for j = 0..n-1."""
    phi = list(cyclotomic_poly(n))
    deg = len(phi) - 1
    rows = []
    row = [0] * deg
    if deg > 0:
        row[0] = 1
    else:  # n = 1: Phi_1 = x - 1, every power of zeta_1 is 1... deg = 1 anyway
        row = [1]
    rows.append(tuple(row))
    for _ in range(1, n):
        lead = row[-1]
        row = [0] + row[:-1]
        if lead:
            # subtract lead * (Phi - x^deg), i.e. add lead * (x^deg mod Phi)
            for j in range(deg):
                row[j] -= lead * phi[j]
        rows.append(tuple(row))
    return tuple(rows)


def reduction_degree(n):
    """phi(n) = degree of the n-th cyclotomic polynomial."""
    return len(cyclotomic_poly(n)) - 1


@dataclass
class CycInt:
    """An element of the group ring Z[mu_N]; order = N, coeffs indexed by
    the exponent of zeta_N."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        assert len(self.coeffs) == self.order

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n):
        return CycInt(n, (0,) * n)

    @staticmethod
    def integer(k, n):
        return CycInt(n, (k,) + (0,) * (n - 1))

    @staticmethod
    def root(e, n):
        c = [0] * n
        c[e % n] = 1
        return CycInt(n, tuple(c))

    @staticmethod
    def term(k, e, n):
        """k * zeta_n^e."""
        c = [0] * n
        c[e % n] += k
        return CycInt(n, tuple(c))

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
        return CycInt(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

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
        n = self.order
        c = [0] * n
        for j, a in enumerate(self.coeffs):
            if a:
                c[(-j) % n] += a
        return CycInt(n, tuple(c))

    # -- canonical form -----------------------------------------------------

    def reduce(self):
        """Canonical representative mod the N-th cyclotomic polynomial."""
        n = self.order
        rows = _reduction_rows(n)
        deg = len(rows[0])
        acc = [0] * deg
        for j, c in enumerate(self.coeffs):
            if c:
                row = rows[j]
                for k in range(deg):
                    if row[k]:
                        acc[k] += c * row[k]
        return CycInt(n, tuple(acc) + (0,) * (n - deg))

    def __eq__(self, other):
        if not isinstance(other, CycInt):
            if isinstance(other, int):
                other = CycInt.integer(other, self.order)
            else:
                return NotImplemented
        if self.order != other.order:
            return False
        return self.reduce().coeffs == other.reduce().coeffs

    __hash__ = None

    def is_zero(self):
        return all(c == 0 for c in self.reduce().coeffs)

    def as_int(self):
        """The rational integer this element equals; error if it is not one."""
        red = self.reduce().coeffs
        if any(red[1:]):
            raise ValueError(f"CycInt is not a rational integer: {red}")
        return red[0]

    def divide_exact(self, k):
        """Exact division by a nonzero integer in the reduced representation;
        a non-exact division signals a broken computation upstream."""
        red = self.reduce().coeffs
        if any(c % k for c in red):
            raise ArithmeticError(f"non-exact division of {red} by {k}")
        return CycInt(self.order, tuple(c // k for c in red))

    def __repr__(self):
        terms = [f"{c}*z^{j}" for j, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"CycInt({self.order}: {body})"


# ---------------------------------------------------------------------------
# Named self-checks.


class ResourceLimitError(RuntimeError):
    """A brute-force pass was asked to enumerate more elements than allowed."""


def run_checks(checks):
    """Report rows {name, status, detail} for (name, check) pairs.

    Each check returns (ok, detail).  An AssertionError inside a check is
    a fail row whose detail is the assertion text; a ResourceLimitError
    is a skipped row; any other exception is a fail row whose detail is
    "<type>: <text>", so one check cannot abort the others."""
    rows = []
    for name, check in checks:
        try:
            ok, detail = check()
            status = "pass" if ok else "fail"
        except AssertionError as exc:
            status, detail = "fail", str(exc)
        except ResourceLimitError as exc:
            status, detail = "skipped", {"reason": str(exc)}
        except Exception as exc:
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        rows.append({"name": name, "status": status, "detail": detail})
    return rows
