"""Exact arithmetic primitives: p-adic valuations, unit group structure
mod p^r, and an integral cyclotomic ring with canonical reduction.

Everything here is arbitrary-precision and exact.  No floats ever touch a
root of unity: an element of Z[zeta_N] is carried as an integer vector on
the group ring of mu_N and compared after reduction modulo the N-th
cyclotomic polynomial.

It also holds ensure, the one way a cross-check fails, the one runner
that turns named self-checks into report rows, and Rows and Stamp, the
lazily generated list of per-character output and its rows, because
every checking module can import them from here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from math import gcd, isqrt, prod
from operator import sub


class ResourceLimitError(RuntimeError):
    """A computation was asked for more work than its documented bound:
    a group above the oracle's order bound, or a factorization that spent
    its Pollard-Brent budget."""


# verify's default --max-order, which admits its whole default grid
DEFAULT_MAX_ORDER = 200000


# ---------------------------------------------------------------------------
# Primes, integer roots and factoring, in exact integer arithmetic.


def _primes_below(n):
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for q in range(2, isqrt(n - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n, q)))
    return tuple(compress(range(n), sieve))


TRIAL_LIMIT = 1000
_TRIAL_PRIMES = _primes_below(TRIAL_LIMIT)
# The first 13 primes as Miller-Rabin bases decide primality below
# MR_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster 2015); from MR_BOUND on, is_prime runs Baillie-PSW.
_MR_BASES = _TRIAL_PRIMES[:13]
MR_BOUND = 3317044064679887385961981
# Pollard-Brent steps one factorint call may take in all.
FACTOR_BUDGET = 1 << 18


def _strong_probable_prime(n, b):
    """Miller-Rabin for odd n > b: is n a strong probable prime to base b?"""
    d = n - 1
    t = (d & -d).bit_length() - 1
    x = pow(b, d >> t, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(t - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """The strong Lucas test with Selfridge's parameters, for odd n > 1
    that is not a perfect square: D is the first of 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1, Q = (1 - D)/4, and n + 1 = d * 2^t with d
    odd.  n passes if U_d = 0 or V_(d 2^k) = 0 mod n for some k < t."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    t = (d & -d).bit_length() - 1
    # U_k, V_k, Q^k mod n by the binary ladder on the bits of d >> t (P = 1)
    U, V, Qk = 0, 2, 1
    for bit in bin(d >> t)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U & 1 else U) >> 1
            V = (V + n if V & 1 else V) >> 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(t - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


@lru_cache(maxsize=None)
def is_prime(n):
    """Primality by trial division by the primes below TRIAL_LIMIT, then
    Miller-Rabin on the first 13 prime bases below MR_BOUND, where that
    is a proof, and Baillie-PSW (a base-2 strong probable-prime test and
    a strong Lucas test, Baillie and Wagstaff 1980) from there on, which
    has no known counterexample."""
    if n < 2:
        return False
    for q in _TRIAL_PRIMES:
        if n % q == 0:
            return n == q
        if q * q > n:
            return True
    if n < MR_BOUND:
        return all(_strong_probable_prime(n, b) for b in _MR_BASES)
    return (_strong_probable_prime(n, 2) and isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


def integer_nthroot(y, n):
    """(x, exact): x = floor(y^(1/n)) for y >= 0 and n >= 1, exact when
    x^n == y.  Integer Newton iteration falls from 2^ceil(bits/n), which
    is at least the root, to the floor of the root."""
    if y < 0 or n < 1:
        raise ValueError(f"integer_nthroot: bad arguments y={y}, n={n}")
    if y < 2:
        return y, True
    if y.bit_length() <= n:  # y < 2^n, so the root lies in [1, 2)
        return 1, y == 1
    x = 1 << -(-y.bit_length() // n)
    while (t := ((n - 1) * x + y // x ** (n - 1)) // n) < x:
        x = t
    return x, x**n == y


def _rho_divisor(n, budget):
    """(d, budget left): a proper divisor d of the odd composite n by
    Pollard's rho with Brent's cycle search and batched gcds (Brent
    1980), trying c = 1, 2, ... until one splits n; each step of
    x -> x^2 + c costs one unit of budget, so the loop ends."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise ResourceLimitError(
                    f"factorint: Pollard-Brent budget of {FACTOR_BUDGET} steps spent "
                    f"on a {len(str(n))}-digit cofactor")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def factorint(n):
    """{prime: exponent} of n >= 1, checked: the product of the prime
    powers is n and each prime passes is_prime, else AssertionError.
    Raises ResourceLimitError once the factors left after trial division
    by the primes below TRIAL_LIMIT need more than FACTOR_BUDGET
    Pollard-Brent steps to split."""
    if n < 1:
        raise ValueError(f"factorint: n = {n} must be positive")
    out = {}
    m = n
    for q in _TRIAL_PRIMES:
        if q * q > m:
            break
        if m % q == 0:
            k = 0
            while m % q == 0:
                m //= q
                k += 1
            out[q] = k
    # Now m is 1, a prime, or free of primes below TRIAL_LIMIT, so a
    # divisor of m below TRIAL_LIMIT^2 is prime.  Split down to one prime
    # factor of m, strip all of its powers, repeat.
    budget = FACTOR_BUDGET
    while m > 1:
        c = m
        while c >= TRIAL_LIMIT * TRIAL_LIMIT and not is_prime(c):
            d, budget = _rho_divisor(c, budget)
            c = min(d, c // d)
        ensure(m % c == 0, "factorint({}): the split-off factor {} does not divide {}", n, c, m)
        k = 0
        while m % c == 0:
            m //= c
            k += 1
        out[c] = k
    ensure(prod(q**k for q, k in out.items()) == n and all(map(is_prime, out)),
           "factorint({}) gave {}, which is not its prime factorization", n, out)
    return out


def vp(n, p):
    """Largest k with p^k | n; n = 0 has no finite valuation and is
    rejected, so callers handle 0 explicitly."""
    if not is_prime(p):
        raise ValueError(f"vp: {p} is not prime")
    if n == 0:
        raise ValueError("vp: the valuation of 0 is infinite")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def smallest_primitive_root(p):
    """The smallest g in (1, p) generating (Z/p)^*."""
    qs = list(factorint(p - 1))
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
        if not is_prime(p) or r < 1:
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
            ensure(len(logs) == self.torsion_order * self.principal_order)
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
    if r < 1 or not is_prime(p) or p == 2:
        raise ValueError(f"compute_s: bad arguments p={p}, r={r}")
    if a % p == 0:
        raise ValueError(f"compute_s: p={p} divides a={a}")
    q = p ** (r + 1)
    t = (pow(a, p - 1, q) - 1) % q
    if t == 0:
        return 0
    v = vp(t, p)
    return r + 1 - v


# ---------------------------------------------------------------------------
# Cyclotomic integers.
#
# An element of Z[zeta_N] is a length-N integer vector c with meaning
# sum_j c[j] * zeta_N^j.  The canonical form is the remainder modulo the
# N-th cyclotomic polynomial, zero-padded back to length N; equality and
# exact integer division are decided there.  As Phi_N(x) = Phi_rad(N)(x^q)
# with q = N / rad(N) (Washington, Introduction to Cyclotomic Fields,
# sec. 2), only the reduction table of the squarefree rad(N) is built.


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


class CycInt:
    """An element of the group ring Z[mu_N]; order = N, coeffs indexed by
    the exponent of zeta_N."""

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


def ensure(ok, template="", *args):
    """Raise AssertionError(template.format(*args)) unless ok: the one
    way a cross-check fails, also under python -O.  The message is
    formatted only on failure."""
    if not ok:
        raise AssertionError(template.format(*args))


class Rows:
    """A list of output rows generated while it is read: `length` items,
    known before the first is made, from a fresh iterator `make()` on
    every pass.  A pass that ends after more or fewer items than
    `length` fails ensure once the iterator is spent, so a stream that
    disagrees with its stated size cannot end in a silent pass."""

    __slots__ = ("length", "make")

    def __init__(self, length, make):
        self.length = length
        self.make = make

    def __len__(self):
        return self.length

    def __iter__(self):
        n = 0
        for n, item in enumerate(self.make(), 1):
            yield item
        ensure(n == self.length, "streamed {} rows where {} were stated", n, self.length)


class _Hole:
    __slots__ = ()

    def __repr__(self):
        return "HOLE"


HOLE = _Hole()  # a leaf of a Stamp's sample that each row fills with an int


class Stamp:
    """One output row, given as its bucket's `sample` and its own `ints`.

    The sample is the JSON object every row of the bucket shares, with
    HOLE at each int leaf that varies from row to row; `ints`, a tuple of
    exact ints, fills the holes in the order they are written (dict keys
    sorted, list items in order).  A Stamp is the one kind of row the
    canonical writer renders from a template: its sample's text, built
    once per sample and indent, where a float or a non-str key fails
    ensure as anywhere else in a payload, and so does an item that is
    not of type int in the ints of the Stamp it is built from.  A run of
    Stamps in a list is rendered one block of about cli.BLOCK_CHARS
    characters at a time."""

    __slots__ = ("sample", "ints")

    def __init__(self, sample, ints):
        self.sample = sample
        self.ints = ints


def run_checks(checks):
    """Report rows {name, status, detail} for (name, check) pairs.

    Each check returns (ok, detail).  An AssertionError inside a check is
    a fail row whose detail is the assertion text, and any other
    exception a fail row whose detail is "<type>: <text>", so one check
    cannot abort the others.  A MemoryError is a resource limit, not a
    disagreement: it propagates."""
    rows = []
    for name, check in checks:
        try:
            ok, detail = check()
            status = "pass" if ok else "fail"
        except MemoryError:
            raise
        except AssertionError as exc:
            status, detail = "fail", str(exc)
        except Exception as exc:
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        rows.append({"name": name, "status": status, "detail": detail})
    return rows
