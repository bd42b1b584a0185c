"""Higher ramification data of radical extensions, one prime at a time.

For an odd squarefull-free setup Q(zeta_m, a^(1/m)) and a prime p, the
p-local picture falls into four cases:

  UNRAMIFIED   p divides neither m nor a; nothing happens at p.
  TAME         p | a but p does not divide m; inertia is cyclic of order
               m/gcd(m, v_p(a)) and the filtration dies above break 0.
  UNIT         p | m and (after stripping a p-power that is a perfect
               p^r-th power) p does not divide a; the local Galois group
               is C(p^s) x| G(p^r) with s the wild depth of a at p.
  EISENSTEIN   p | m and v_p(a) > 0 is coprime to p; a Bezout twist of a
               makes its valuation exactly 1, the extension is totally
               ramified of degree p^r * phi(p^r), and s = r.

The object of interest is the filtration of the local Galois group by
higher ramification subgroups.  In upper numbering every group that
occurs is congruence-shaped, C(p^x) x| G(p^r)^y, so a filtration is a
short list of (break, SubgroupDesc) steps read as a right-continuous
decreasing step function: the value AT a break is the group of that
step, the value just above the last break is trivial.

Upper numbering is the authoritative data (it behaves well under
quotients); lower numbering is always derived through the inverse
Herbrand transform, never written down independently.  Closed lower
indices for the standard families are asserted as membership checks
(the filtration's value at the claimed index equals the claimed group)
rather than used as a data source, because in degenerate corners the
printed pairs are satisfied only by the trivial group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import compute_s, ensure, factorint, integer_nthroot, is_prime, run_checks, vp
from .chartab import (
    SubgroupDesc,
    subgroup_eq,
    subgroup_intersect,
    subgroup_normal_form,
    subgroup_order,
    trivial_subgroup,
)
from .holomorph import GroupDesc

UNRAMIFIED = "UNRAMIFIED"
TAME = "TAME"
UNIT = "UNIT"
EISENSTEIN = "EISENSTEIN"

UPPER = "upper"
LOWER = "lower"


def frac_str(q):
    """Exact rational as "num/den" in lowest terms (denominator always
    printed, so integer breaks read "3/1")."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Input hypotheses.


def _perfect_power_root(a, q):
    """b with b**q == a, or None.  q is odd here, so the sign rides along."""
    root, exact = integer_nthroot(abs(a), q)
    if not exact:
        return None
    return root if a > 0 else -root


class HypothesisError(ValueError):
    """The input violates the standing hypotheses; .violations lists
    validate's strings."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = violations


def validate(m, a, factors_of_m=None):
    """Check the standing hypotheses; violations are data, not errors.

    Returns a list of human-readable violation strings (empty = ok):
      - m must be a positive odd integer, a must not be 0 or +-1;
      - for every prime q | m, a must not be a perfect q-th power;
      - for every prime p | m, either p does not divide v_p(a) or
        p^{v_p(m)} divides v_p(a) (so the p-part can be normalized away
        or twisted to valuation exactly one).

    A dict passed as factors_of_m receives factorint(m) once m is
    factored, so that a caller does not factor m again.
    """
    violations = []
    if m < 1:
        violations.append(f"m = {m} must be a positive integer")
    elif m % 2 == 0:
        violations.append(f"m = {m} must be odd (p = 2 is out of scope)")
    if a in (0, 1, -1):
        violations.append(f"a = {a} is degenerate (0 or a root of unity)")
    if violations:
        return violations

    factors = factorint(m)
    if factors_of_m is not None:
        factors_of_m.update(factors)
    primes = sorted(factors)
    for q in primes:
        root = _perfect_power_root(a, q)
        if root is not None:
            violations.append(
                f"a = {a} is a perfect {q}-th power (({root})^{q}) and {q} | m"
            )
    for p in primes:
        v = vp(a, p)
        r = vp(m, p)
        if v > 0 and v % p == 0 and v % p**r != 0:
            violations.append(
                f"v_{p}(a) = {v} is divisible by {p} but not by {p}^{r} = {p**r}"
            )
    return violations


# ---------------------------------------------------------------------------
# Per-prime case analysis.


@dataclass(frozen=True)
class PrimeLocalContext:
    """The local shape of Q(zeta_m, a^(1/m)) at one prime.

    vp_a is the valuation of a BEFORE normalization; s is the wild depth
    (meaningful for UNIT, and equal to r for EISENSTEIN).  g / f_res are
    None in the cases where the artifact does not track them.

    upper and lower are the context's filtrations, built on first use
    and kept as long as the context lives.  A build that raises is not
    kept, so the next read builds (and raises) again.
    """

    p: int
    r: int
    vp_a: int
    case: str
    s: int
    g: int | None
    e: int
    f_res: int | None

    def group(self):
        """Ambient holomorph descriptor, for the wildly ramified cases."""
        if self.case in (UNIT, EISENSTEIN):
            return GroupDesc(self.p, self.r, self.s)
        return None

    @cached_property
    def upper(self):
        return upper_filtration(self)

    @cached_property
    def lower(self):
        return lower_filtration(self)


def wild_context(p, r, s, case, vp_a):
    """The UNIT or EISENSTEIN context at p with wild depth s (s = r in
    the Eisenstein case): p^(r-s) primes above p, each with residue
    degree 1 and ramification index e = p^s * phi(p^r).  Raises
    ValueError unless GroupDesc(p, r, s) exists and the case is UNIT,
    or EISENSTEIN with s = r."""
    GroupDesc(p, r, s)
    if not (case == UNIT or (case == EISENSTEIN and s == r)):
        raise ValueError(f"wild_context: case {case} with s={s}, r={r}")
    g = p ** (r - s)
    e = p**s * p ** (r - 1) * (p - 1)
    return PrimeLocalContext(p, r, vp_a, case, s, g, e, 1)


def classify_prime(p, m, a):
    """Case analysis of the prime p for Q(zeta_m, a^(1/m)).

    Normalizes a at p: a p-power part whose exponent is divisible by
    p^r is stripped (it is a p^r-th power locally, leaving a unit); a
    p-power part with exponent coprime to p is twisted to exponent
    exactly 1 (Bezout), which forces the Eisenstein case with s = r.
    Any other p-power part violates the standing hypothesis.
    """
    if not is_prime(p):
        raise ValueError(f"classify_prime: p = {p} is not prime")
    if a in (0, 1, -1):
        raise ValueError(f"classify_prime: degenerate a = {a}")
    r = vp(m, p)
    v = vp(a, p)
    if r == 0:
        if v == 0:
            return PrimeLocalContext(p, 0, 0, UNRAMIFIED, 0, None, 1, None)
        e = m // math.gcd(m, v)
        return PrimeLocalContext(p, 0, v, TAME, 0, None, e, None)

    # p | m, so r >= 1 (p = 2 is rejected by GroupDesc and compute_s).
    if v > 0 and v % p != 0:
        # Bezout twist: some a^x * p^(y*p^r) has valuation exactly 1, and
        # it generates the same radical extension locally.
        return wild_context(p, r, r, EISENSTEIN, v)
    if v % p**r == 0:
        # Includes v = 0.  Strip the p-part; what remains is a unit at p.
        a_unit = a // p**v
        if a_unit in (1, -1):
            raise ValueError(
                f"classify_prime: a = {a} is a pure {p}-power, excluded by validate"
            )
        return wild_context(p, r, compute_s(a_unit, p, r), UNIT, v)
    raise ValueError(
        f"classify_prime: v_{p}(a) = {v} violates the hypothesis at p = {p}"
    )


# ---------------------------------------------------------------------------
# Filtrations.


@dataclass(frozen=True)
class CyclicInertia:
    """Degenerate step group for the TAME case: cyclic, order is all we
    track (it is not a subgroup of any C(p^s) x| G(p^r))."""

    order: int


@dataclass(frozen=True)
class Filtration:
    """Right-continuous decreasing step function on [0, oo).

    steps is a sorted tuple of (break, group); the group holds on the
    half-open interval (previous break, break], and the trivial group
    holds above the last break.  group is the AMBIENT GroupDesc the
    step descriptors refer to (None for TAME/UNRAMIFIED, whose steps
    carry CyclicInertia markers instead of SubgroupDesc).
    """

    group: GroupDesc | None
    numbering: str
    steps: tuple


def _step_order(h, G):
    if isinstance(h, CyclicInertia):
        return h.order
    return subgroup_order(h, G)


def canonicalize(G, numbering, entries):
    """Canonical form of a list of (break, SubgroupDesc) entries.

    Drops trivial groups (the trivial tail is implicit), sorts by break,
    merges runs of equal groups into the single LARGEST break of the run
    (the step function value at a break is that step's group, so the
    group survives through the last listed break of its run), and then
    asserts the filtration shape: strictly increasing breaks, strictly
    decreasing orders, integer breaks in lower numbering, break
    denominators dividing p - 1 in upper numbering.
    """
    ensure(numbering in (UPPER, LOWER))
    kept = []
    for b, h in entries:
        b = Fraction(b)
        ensure(b >= 0, "negative break {}", b)
        h = subgroup_normal_form(h, G)
        if subgroup_order(h, G) == 1:
            continue
        kept.append((b, h))
    kept.sort(key=lambda bh: bh[0])

    merged = []
    for b, h in kept:
        if merged and merged[-1][1] == h:
            merged[-1] = (b, h)  # equal group extends through the later break
            continue
        if merged:
            bp, hp = merged[-1]
            ensure(b > bp, "conflicting groups at break {}", b)
        merged.append((b, h))

    orders = [subgroup_order(h, G) for _, h in merged]
    ensure(all(o1 > o2 for o1, o2 in zip(orders, orders[1:])),
           "filtration orders must strictly decrease: {!r}", merged)
    for b, _ in merged:
        if numbering == LOWER:
            ensure(b.denominator == 1, "lower break {} is not an integer", b)
        else:
            ensure((G.p - 1) % b.denominator == 0, "upper break {} has denominator not dividing p-1", b)
    return Filtration(G, numbering, tuple(merged))


def value_at(filt, t):
    """Group of the filtration at index t (None encodes the trivial group
    above the last break)."""
    t = Fraction(t)
    ensure(t >= 0)
    for b, h in filt.steps:
        if t <= b:
            return h
    return None


def order_at(filt, t):
    h = value_at(filt, t)
    return 1 if h is None else _step_order(h, filt.group)


def last_break(filt):
    return filt.steps[-1][0] if filt.steps else Fraction(0)


# --- the closed-form upper families ---------------------------------------


def _unit_upper_entries(p, r, s):
    """Upper filtration of C(p^s) x| G(p^r) in the unit case.

    The whole group sits at break 0; then for 1 <= i <= s the group
    drops to C(p^{s-i+1}) x| G(p^r)^i at break (i-1) + 1/(p-1) and to
    C(p^{s-i}) x| G(p^r)^i at break i; finally the pure congruence tail
    G(p^r)^{s+j} sits at break s+j for 1 <= j <= r-1-s.  At s = 0 only
    the tail survives and this is the classical cyclotomic filtration.
    """
    entries = [(Fraction(0), SubgroupDesc(s, 0))]
    for i in range(1, s + 1):
        entries.append((Fraction(i - 1) + Fraction(1, p - 1), SubgroupDesc(s - i + 1, i)))
        entries.append((Fraction(i), SubgroupDesc(s - i, i)))
    for j in range(1, r - s):
        entries.append((Fraction(s + j), SubgroupDesc(0, s + j)))
    return entries


def _eisenstein_upper_entries(p, r):
    """Upper filtration in the Eisenstein case (s = r).

    Unlike the unit case the full wild part survives through break 1:
    the drop pattern is shifted by one congruence level, C(p^{r-i+1})
    x| G(p^r)^{i+1} at break i + 1/(p-1) and C(p^{r-i}) x| G(p^r)^{i+1}
    at break i + 1.
    """
    entries = [
        (Fraction(0), SubgroupDesc(r, 0)),
        (Fraction(1), SubgroupDesc(r, 1)),
    ]
    for i in range(1, r + 1):
        entries.append((Fraction(i) + Fraction(1, p - 1), SubgroupDesc(r - i + 1, i + 1)))
        entries.append((Fraction(i + 1), SubgroupDesc(r - i, i + 1)))
    return entries


def upper_filtration(ctx):
    """Canonical upper-numbering ramification filtration of the local
    Galois group at ctx.p."""
    if ctx.e == 1:  # unramified, or tame with m | v_p(a): trivial inertia
        return Filtration(None, UPPER, ())
    if ctx.case == TAME:
        return Filtration(None, UPPER, ((Fraction(0), CyclicInertia(ctx.e)),))
    G = ctx.group()
    if ctx.case == UNIT:
        entries = _unit_upper_entries(G.p, G.r, G.s)
    else:
        ensure(ctx.case == EISENSTEIN and ctx.s == ctx.r)
        entries = _eisenstein_upper_entries(G.p, G.r)
    filt = canonicalize(G, UPPER, entries)
    ensure(filt.steps and filt.steps[0][0] == 0)
    ensure(_step_order(filt.steps[0][1], G) == ctx.e, "break-0 group must be inertia")
    return filt


# --- Herbrand transforms ---------------------------------------------------


def _herbrand(filt, x, numbering, rate):
    """integral_0^x rate(|G_t|, |G_0|) dt along a filtration in
    `numbering`: piecewise linear with one slope per step (the trivial
    group's above the last break); exact in rationals."""
    ensure(filt.numbering == numbering)
    x = Fraction(x)
    ensure(x >= 0)
    base = order_at(filt, 0)
    total = Fraction(0)
    prev = Fraction(0)
    for b, h in filt.steps:
        slope = rate(_step_order(h, filt.group), base)
        if x <= b:
            return total + (x - prev) * slope
        total += (b - prev) * slope
        prev = b
    return total + (x - prev) * rate(1, base)


def herbrand_phi(filt, u):
    """phi(u) = integral_0^u dt / [G_0 : G_t] for a LOWER filtration:
    slope |G_t| / |G_0| on each step."""
    return _herbrand(filt, u, LOWER, lambda order, base: Fraction(order, base))


def herbrand_psi(filt, v):
    """psi(v) = integral_0^v [G^0 : G^w] dw for an UPPER filtration; the
    exact inverse of herbrand_phi on the matching lower filtration."""
    return _herbrand(filt, v, UPPER, lambda order, base: Fraction(base, order))


def _transform(filt, source, target, herbrand):
    """The `target` filtration with the breaks of `filt` sent through
    `herbrand` and the groups unchanged."""
    ensure(filt.numbering == source)
    entries = [(herbrand(filt, b), h) for b, h in filt.steps]
    if filt.group is None:
        return Filtration(None, target, tuple(entries))
    return canonicalize(filt.group, target, entries)


def psi_transform(filt):
    """UPPER filtration -> the matching LOWER one (breaks through psi)."""
    return _transform(filt, UPPER, LOWER, herbrand_psi)


def phi_transform(filt):
    """LOWER filtration -> the matching UPPER one (breaks through phi)."""
    return _transform(filt, LOWER, UPPER, herbrand_phi)


# --- printed lower-index membership checks ---------------------------------


def _claim(filt, index, sd):
    """The filtration's value at the (integer) index equals sd."""
    index = Fraction(index)
    ensure(index.denominator == 1, "claimed lower index {} not integral", index)
    got = value_at(filt, index)
    if got is None:
        got = trivial_subgroup(filt.group)
    ensure(subgroup_eq(got, sd, filt.group), "lower index {}: value {} != claimed {}", index, got, sd)


def _assert_lower_claims(ctx, low):
    """Closed lower indices of the standard families, as membership
    statements.  Two of the published constants are internally
    inconsistent with the break-gap data and are used here in the
    corrected form (see the j-row and the i+1-row below)."""
    p, r, s = ctx.p, ctx.r, ctx.s
    G = low.group
    if ctx.case == UNIT:
        for i in range(1, s + 1):
            _claim(low, Fraction(2 * p ** (2 * i - 1) - p + 1, p + 1), SubgroupDesc(s - i + 1, i))
            _claim(low, Fraction((p - 1) * (p ** (2 * i) - 1), p + 1), SubgroupDesc(s - i, i))
        for j in range(1, r - s):
            base = Fraction((p - 1) * (p ** (2 * s) - 1), p + 1)
            _claim(low, base + p ** (2 * s) * (p**j - 1), SubgroupDesc(0, s + j))
    else:
        _claim(low, p - 1, SubgroupDesc(r, 1))
        for i in range(1, r - 1):
            _claim(low, Fraction(2 * p ** (2 * i) + p - 1, p + 1), SubgroupDesc(r - i + 1, i + 1))
            # Corrected index: the published exponent 2i makes this row
            # collide with the previous one; the break gaps force 2i+1.
            _claim(low, Fraction((p - 1) * (p ** (2 * i + 1) + 1), p + 1), SubgroupDesc(r - i, i + 1))
        if r >= 2:
            _claim(low, Fraction(2 * p ** (2 * r - 2) + p - 1, p + 1), SubgroupDesc(2, r))
        _claim(low, Fraction(p ** (2 * r) + p ** (2 * r - 2) + p - 1, p + 1), SubgroupDesc(1, r))


def lower_filtration(ctx):
    """Lower-numbering filtration: the psi-image of ctx.upper.  All
    breaks must come out integral, and the closed lower-index pairs of
    the standard families must hold as membership statements; either
    failing is an internal inconsistency, not an input error."""
    up = ctx.upper
    if ctx.case in (UNRAMIFIED, TAME):
        return Filtration(None, LOWER, up.steps)
    low = psi_transform(up)
    _assert_lower_claims(ctx, low)
    return low


# --- tower steps and functoriality -----------------------------------------


def step_break(i, case, p):
    """The unique lower break of the i-th layer of the p^s-tower over
    Q_p(zeta_p): 1 + p(p^{i-1} - 1) in the unit case, p^i in the
    Eisenstein case."""
    ensure(i >= 1)
    if case == UNIT:
        return 1 + p * (p ** (i - 1) - 1)
    ensure(case == EISENSTEIN)
    return p**i


def subgroup_filtration(filt, H):
    """Lower filtration of a subgroup: lower numbering restricts, so the
    breaks stay put and each group is intersected with H."""
    ensure(filt.numbering == LOWER and filt.group is not None)
    G = filt.group
    entries = [(b, subgroup_intersect(h, H, G)) for b, h in filt.steps]
    return canonicalize(G, LOWER, entries)


def quotient_filtration(filt, N):
    """Upper filtration of a quotient: upper numbering passes to
    quotients with the SAME breaks and image groups (H * N) / N.

    N must be normal in the filtration's top group and have nontrivial
    unit-congruence shape (y >= 1), so the quotient is again of the
    C(p^x) x| units-mod-p^y shape; the returned filtration's ambient is
    GroupDesc(p, N.y, min(s - N.x, N.y)) and its descriptors are taken
    there.
    """
    ensure(filt.numbering == UPPER and filt.group is not None)
    G = filt.group
    N = subgroup_normal_form(N, G)
    ensure(N.y >= 1, "quotient by the full unit part is out of scope")
    if not filt.steps:
        return Filtration(GroupDesc(G.p, max(N.y, 1), 0), UPPER, ())
    top = filt.steps[0][1]
    # Normality of N in the top group: conjugating (j, t) in N by (i, u)
    # moves the cyclic coordinate by i(1 - t), and v_p(i(1-t)) >= s - x
    # needs x_top - N.x <= N.y.
    ensure(top.x - N.x <= N.y, "{} is not normal in the top group {}", N, top)
    newG = GroupDesc(G.p, N.y, min(G.s - N.x, N.y))
    n_order = subgroup_order(N, G)
    entries = []
    for b, h in filt.steps:
        image = SubgroupDesc(max(h.x, N.x) - N.x, h.y)
        product = SubgroupDesc(max(h.x, N.x), min(h.y, N.y))
        ensure(subgroup_order(product, G) % n_order == 0)
        ensure(subgroup_order(subgroup_normal_form(image, newG), newG)
               == subgroup_order(product, G) // n_order)
        entries.append((b, image))
    return canonicalize(newG, UPPER, entries)


def different_sum(filt):
    """Valuation of the different: sum over integers i >= 0 of
    (|G_i| - 1), taken along a LOWER filtration."""
    ensure(filt.numbering == LOWER)
    total = 0
    prev_floor = -1
    for b, h in filt.steps:
        count = math.floor(b) - prev_floor
        total += count * (_step_order(h, filt.group) - 1)
        prev_floor = math.floor(b)
    return total


def filtration_json(filt):
    """JSON-ready form: breaks as exact "num/den" strings, descriptors
    flattened (x/y are null for the degenerate tame step)."""
    steps = []
    for b, h in filt.steps:
        if isinstance(h, CyclicInertia):
            steps.append({"break": frac_str(b), "x": None, "y": None, "order": h.order})
        else:
            steps.append(
                {
                    "break": frac_str(b),
                    "x": h.x,
                    "y": h.y,
                    "order": subgroup_order(h, filt.group),
                }
            )
    return {"numbering": filt.numbering, "steps": steps}


# ---------------------------------------------------------------------------
# Global assembly.


@dataclass(frozen=True)
class GlobalPrimeData:
    context: PrimeLocalContext
    e_global: int


def global_ram(m, a):
    """Per-prime local contexts plus the global ramification index at
    each prime of interest (primes dividing m or a).

    For p | m with m = p^r * n the global index combines the tame part
    contributed by the n-th root with the local wild part:
    e(p) = lcm(n / gcd(n, v_p(a)), e_local).  For tame primes the local
    index is already global.
    """
    factors_of_m = {}
    violations = validate(m, a, factors_of_m)
    if violations:
        raise HypothesisError(violations)
    out = []
    primes = sorted(set(factors_of_m) | set(factorint(abs(a))))
    for p in primes:
        ctx = classify_prime(p, m, a)
        if ctx.case == UNRAMIFIED:
            e_global = 1
        elif ctx.case == TAME:
            e_global = ctx.e
        else:
            n = m // p**ctx.r
            tame_part = n // math.gcd(n, ctx.vp_a)
            e_global = math.lcm(tame_part, ctx.e)
        out.append(GlobalPrimeData(ctx, e_global))
    return tuple(out)


# ---------------------------------------------------------------------------
# Self-checks used by the verification CLI and the test suite.


def unit_corner_note(ctx):
    """The r = s = 1 unit corner: the closed lower pairs for the tail are
    satisfied only by the trivial group (the claimed index sits past the
    last break), so they are not tight.  The canonical filtration's last
    positive upper break is 1/(p-1).  Returns a note string, or None."""
    if ctx.case == UNIT and ctx.r == 1 and ctx.s == 1:
        return (
            f"r=s=1 corner at p={ctx.p}: closed tail pairs are non-tight "
            f"(trivial group); canonical last upper break {frac_str(last_break(ctx.upper))}"
        )
    return None


def _roundtrip_grid(low, up, p):
    """phi and psi are piecewise linear with breakpoints exactly at the
    filtration breaks, so agreement at every break, at a point inside
    every segment, and at two points past the last break proves the
    round-trip identity everywhere."""
    eps = Fraction(1, 2 * (p - 1))
    pts = {Fraction(0)}
    for b, _ in low.steps:
        pts.update((b, b + eps))
        if b > 0:
            pts.add(b - eps)
    horizon = last_break(low) + 2
    pts.update((horizon, horizon + Fraction(1, 3)))
    for k in range(1, 8):
        pts.add(horizon * Fraction(k, 8))
    return sorted(q for q in pts if q >= 0)


def herbrand_roundtrip_check(ctx):
    """psi and phi are mutually inverse, exactly: psi(phi(u)) = u on a
    grid that proves it everywhere (_roundtrip_grid), and both are
    increasing bijections of [0, oo), so phi(psi(v)) = v follows."""
    up, low = ctx.upper, ctx.lower
    if ctx.case in (UNRAMIFIED, TAME):
        return True
    for u in _roundtrip_grid(low, up, ctx.p):
        if herbrand_psi(up, herbrand_phi(low, u)) != u:
            return False
    # Breaks must correspond both ways.
    for b, h in up.steps:
        if value_at(low, herbrand_psi(up, b)) != h:
            return False
    return True


def tower_step_check(ctx):
    """Peeling the tower over Q_p(zeta_p) one C(p) layer at a time
    reproduces the closed per-layer breaks.

    Layer i has Galois group H_{i-1}/H_i with H_i = C(p^{s-i}) x| G^1;
    restricting the lower filtration to H_{i-1}, converting to upper
    numbering, and passing to the quotient must leave a single step
    whose break equals step_break(i)."""
    if ctx.case not in (UNIT, EISENSTEIN) or ctx.s == 0:
        return True
    low = ctx.lower
    p, s = ctx.p, ctx.s
    for i in range(1, s + 1):
        h_prev = SubgroupDesc(s - i + 1, 1)
        h_next = SubgroupDesc(s - i, 1)
        layer_low = subgroup_filtration(low, h_prev)
        layer_up = phi_transform(layer_low)
        q = quotient_filtration(layer_up, h_next)
        if len(q.steps) != 1:
            return False
        b, img = q.steps[0]
        if subgroup_order(img, q.group) != p or b != step_break(i, ctx.case, p):
            return False
    return True


def cyclotomic_quotient_check(ctx):
    """Killing the whole radical part C(p^s) must leave the classical
    cyclotomic filtration of Q_p(zeta_{p^r})."""
    if ctx.case not in (UNIT, EISENSTEIN):
        return True
    G = ctx.group()
    q = quotient_filtration(ctx.upper, SubgroupDesc(G.s, G.r))
    expected = wild_context(ctx.p, ctx.r, 0, UNIT, 0).upper
    if len(q.steps) != len(expected.steps):
        return False
    for (b1, h1), (b2, h2) in zip(q.steps, expected.steps):
        if b1 != b2:
            return False
        if subgroup_order(h1, q.group) != subgroup_order(h2, expected.group):
            return False
        if subgroup_normal_form(h1, q.group) != subgroup_normal_form(h2, expected.group):
            return False
    return True


def ramification_checks(ctx):
    """Named self-checks for the verification report."""

    def integral():
        low = ctx.lower  # asserts integrality + printed claims
        return all(b.denominator == 1 for b, _ in low.steps), ""

    checks = run_checks([
        ("lower_breaks_integral", integral),
        ("herbrand_roundtrip", lambda: (herbrand_roundtrip_check(ctx), "")),
        ("tower_step_breaks", lambda: (tower_step_check(ctx), "")),
        ("cyclotomic_quotient", lambda: (cyclotomic_quotient_check(ctx), "")),
    ])
    note = unit_corner_note(ctx)
    if note is not None:
        checks.append({"name": "unit_corner_note", "status": "info", "detail": note})
    return checks
