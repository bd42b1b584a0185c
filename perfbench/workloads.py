"""Seeded, stratified inputs for the three benchmark workloads.

Every workload is a fixed list of op templates.  A template fixes the
work an op does: the exponent m, the local case and wild depth s at each
prime dividing m, and how many tame primes the radicand carries.  The seed
only picks the concrete radicand realising the template and the order of
the ops, so total work is nearly the same for every seed.

Radicands are built from a chosen factorization,

    a = sign * (small tame primes) * (wild prime powers) * q,

where q is one prime found in an arithmetic progression that steers the
unit part of a into the residue class mod p^(r+1) giving the wanted depth
s at every wild prime p.  The program's factoring cost therefore stays
bounded (a few small primes plus one prime below ~10^12), and every input
satisfies the program's hypotheses, so no op is expected to fail.

This module does its own small-number arithmetic and does not import the
program, so the inputs of a seed do not change when the program does.
"""

from __future__ import annotations

import random

MAX_ORDER = 100000  # passed explicitly on every verify op

TAME_POOL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

# Character-count bands: sum over wild primes of p^(r-1)(p-1).
BAND_SMALL = "chars<1e3"
BAND_MID = "chars 1e3-2e4"


# ------------------------------------------------------------ arithmetic


def _vp(n, p):
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _is_prime(n):
    """Deterministic Miller-Rabin; these bases are exact below 3.4e14."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17):
        if n % q == 0:
            return n == q
    d, k = n - 1, 0
    while d % 2 == 0:
        d //= 2
        k += 1
    for b in (2, 3, 5, 7, 11, 13, 17):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def wild_depth(a, p, r):
    """The depth s of a unit a at p for exponent p^r: 0 when
    p^(r+1) | a^(p-1) - 1, else r + 1 - v_p(a^(p-1) - 1)."""
    q = p ** (r + 1)
    t = (pow(a, p - 1, q) - 1) % q
    return 0 if t == 0 else r + 1 - _vp(t, p)


def _unit_residue(rng, p, r, s):
    """A unit mod p^(r+1) of depth exactly s: a Teichmueller root of
    unity times 1 + p^(r+1-s) * y with y a unit mod p."""
    q = p ** (r + 1)
    teich = pow(rng.randrange(1, p), p**r, q)
    if s == 0:
        return teich
    return teich * (1 + p ** (r + 1 - s) * rng.randrange(1, p)) % q


# ------------------------------------------------------------- radicands


def make_radicand(rng, m_fact, spec, n_tame):
    """A radicand with the local shape `spec` at every prime of m.

    spec[p] is ("unit", s), ("eisenstein", v) with v coprime to p, or
    ("stripped", s): a p^r-th power block times a unit part of depth s."""
    pool = [q for q in TAME_POOL if q not in m_fact]
    sign = rng.choice((1, -1))
    fixed = sign
    for q in rng.sample(pool, n_tame):
        fixed *= q ** rng.randrange(1, 3)
    wild_power = {}
    for p, (case, arg) in spec.items():
        if case == "eisenstein":
            wild_power[p] = arg
        elif case == "stripped":
            wild_power[p] = p ** m_fact[p]
    # CRT target for q: at each steered prime the unit part a / p^v_p(a)
    # must land on a residue of the wanted depth.
    target, modulus = 0, 1
    for p, (case, arg) in spec.items():
        if case == "eisenstein":
            continue
        r = m_fact[p]
        pk = p ** (r + 1)
        rest = fixed
        for p2, v in wild_power.items():
            if p2 != p:
                rest *= p2**v
        want = _unit_residue(rng, p, r, arg) * pow(rest, -1, pk) % pk
        # combine x = target (mod modulus) with x = want (mod pk)
        t = (want - target) * pow(modulus, -1, pk) % pk
        target += modulus * t
        modulus *= pk
    q = target + modulus * rng.randrange(1, 1000)
    while q <= TAME_POOL[-1] or not _is_prime(q):
        q += modulus
    a = fixed * q
    for p, v in wild_power.items():
        a *= p**v
    _check_radicand(a, m_fact, spec)
    return a


def _check_radicand(a, m_fact, spec):
    """The built radicand really has the shape asked for (and so meets
    the program's hypotheses)."""
    for p, (case, arg) in spec.items():
        r = m_fact[p]
        v = _vp(a, p)
        if case == "eisenstein":
            ok = v == arg and v % p != 0
        else:
            unit = a // p**v
            ok = (v == 0 if case == "unit" else v == p**r) and wild_depth(unit, p, r) == arg
        if not ok:
            raise AssertionError(f"radicand {a} misses {case} {arg} at p={p}")


# ------------------------------------------------------------- templates


def _m(m_fact):
    out = 1
    for p, r in m_fact.items():
        out *= p**r
    return out


def _order(p, r, s):
    """|C(p^s) x| G(p^r)|."""
    return p**s * p ** (r - 1) * (p - 1)


def _groups(m_fact, spec):
    """Wild groups C(p^s) x| G(p^r) touched, as (p, r, s)."""
    return [(p, m_fact[p], m_fact[p] if case == "eisenstein" else arg)
            for p, (case, arg) in sorted(spec.items())]


def _family(band, p, r, depths, eisenstein=True, stripped=False, tame=True):
    """Several radicands for one m = p^r, like tabulating a family."""
    f = {p: r}
    label = {0: "unit s=0", r: "unit s=r"}
    out = [(band, label.get(s, "unit 0<s<r"), f, {p: ("unit", s)}, 1) for s in depths]
    if eisenstein:
        out.append((band, "eisenstein", f, {p: ("eisenstein", 1 if p > 3 else 2)}, 1))
    if stripped:
        out.append((band, "stripped", f, {p: ("stripped", r)}, 1))
    if tame:
        out.append((band, "tame", f, {p: ("unit", r)}, 4))
    return out


def _multi(band, *specs):
    """Radicands for one multi-prime m; each spec maps p to (r, local case)."""
    f = {p: r for p, (r, _) in specs[0].items()}
    return [(band, "multi-prime", f, {p: sp for p, (_, sp) in spec.items()}, 1) for spec in specs]


def analyze_families():
    """Op templates grouped by m.  No (p, r) occurs in two families, so an
    op can only reuse cached tables of ops of its own family."""
    fams = [_family(BAND_SMALL, p, r, range(r + 1), stripped=True)
            for p, r in [(3, 3), (5, 3), (7, 2), (11, 2), (3, 5), (7, 3)]]
    fams += [
        _multi(BAND_SMALL, {3: (1, ("unit", 1)), 5: (1, ("unit", 1)), 7: (1, ("unit", 1))},
               {3: (1, ("unit", 0)), 5: (1, ("unit", 1)), 7: (1, ("unit", 0))}),
        _multi(BAND_SMALL, {3: (2, ("eisenstein", 1)), 5: (2, ("unit", 2))},
               {3: (2, ("unit", 1)), 5: (2, ("unit", 0))}),
        _multi(BAND_SMALL, {3: (4, ("unit", 2)), 13: (1, ("unit", 1))}),
        _multi(BAND_SMALL, {17: (1, ("unit", 1)), 19: (1, ("unit", 0)), 23: (1, ("unit", 1))}),
        _family(BAND_MID, 3, 7, [0, 2, 5, 7], eisenstein=False),
        _family(BAND_MID, 11, 3, range(4)),
        _family(BAND_MID, 7, 4, [0, 1, 3, 4], tame=False),
        _family(BAND_MID, 5, 5, [0, 2, 5], tame=False),
        _family(BAND_MID, 11, 4, [4], eisenstein=False, tame=False),
        _multi(BAND_MID, {13: (3, ("unit", 3)), 3: (6, ("unit", 4))}),
        _multi(BAND_MID, {19: (3, ("unit", 2)), 5: (4, ("unit", 4))}),
        _multi(BAND_MID, {17: (3, ("unit", 3)), 29: (1, ("eisenstein", 1))}),
    ]
    return fams


def _analyze_ops(rng, templates, json_out):
    ops = []
    for band, case, m_fact, spec, n_tame in templates:
        a = make_radicand(rng, m_fact, spec, n_tame)
        argv = ["analyze", str(a), str(_m(m_fact))] + (["--json"] if json_out else [])
        ops.append({"kind": "analyze", "argv": argv, "stratum": f"{band} / {case}",
                    "groups": _groups(m_fact, spec)})
    return ops


def analyze_text(seed):
    """The families in a fixed order, small band first; the seed picks the
    radicands.  A fixed order keeps which op fills a family's caches, and
    the memory earlier ops hold at the batch's peak, the same for every
    seed."""
    rng = random.Random(f"analyze-text:{seed}")
    return [op for fam in analyze_families() for op in _analyze_ops(rng, fam, json_out=False)]


# One verify op takes 6-10 s on each of these groups, too long to be
# measured more than twice in a run on a noisy machine; see README.
VERIFY_LEFT_OUT = {(7, 3, 1), (7, 3, 2)}


def verify_sweep(seed):
    """The default grid, one op per group, less VERIFY_LEFT_OUT, in one
    fixed order: p, then r, then s ascending.  The seed changes nothing
    here.  An op's latency depends on the ops before it in the batch:
    groups of one p share cached tables, and the first ops grow the heap
    that later ops reuse.  With a seeded order, `(7,2,0)`, the op at the
    median, ran about 10% slower when the p = 7 groups came first, which
    made `op_p50_ms` spread with the seed."""
    return [{"kind": "verify",
             "argv": ["verify", "--p", str(p), "--r", str(r), "--s", str(s),
                      "--json", "--max-order", str(MAX_ORDER)],
             "stratum": f"p={p} r={r}", "groups": [(p, r, s)]}
            for p in (3, 5, 7) for r in (1, 2, 3) for s in range(r + 1)
            if (p, r, s) not in VERIFY_LEFT_OUT]


def dump_json(seed):
    """chartab --json on small groups and analyze --json on p^r families;
    every group occurs once, so no op reuses another's cached table.  Ops
    run in increasing group order (ties in seeded order), so the memory
    earlier ops leave behind at the largest op's peak is the same for
    every seed."""
    rng = random.Random(f"dump-json:{seed}")
    ops = []
    for p, rs in [(3, (1, 2, 3)), (5, (1, 2, 3)), (7, (1, 2, 3)), (11, (1, 2)), (13, (1, 2))]:
        for r in rs:
            for s in range(r + 1):
                ops.append({"kind": "chartab", "argv": ["chartab", str(p), str(r), str(s), "--json"],
                            "stratum": "chartab", "groups": [(p, r, s)]})
    templates = []
    for p, r in [(11, 3), (13, 3), (7, 4)]:
        templates += _family("json", p, r, range(r), eisenstein=False, tame=False)
        templates.append(("json", "eisenstein" if p == 13 else "unit s=r", {p: r},
                          {p: ("eisenstein", 1) if p == 13 else ("unit", r)}, 1))
    ops += _analyze_ops(rng, templates, json_out=True)
    rng.shuffle(ops)
    ops.sort(key=lambda op: _order(*op["groups"][0]))
    return ops


WORKLOADS = {
    "analyze-text": analyze_text,
    "verify-sweep": verify_sweep,
    "dump-json": dump_json,
}


def case_mix(ops):
    mix = {}
    for op in ops:
        mix[op["stratum"]] = mix.get(op["stratum"], 0) + 1
    return dict(sorted(mix.items()))


def repeat_share(ops):
    """Share of ops (in run order) touching a wild group an earlier op
    already touched, i.e. ops a per-group cache can serve."""
    seen = set()
    repeats = 0
    for op in ops:
        groups = {tuple(g) for g in op["groups"]}
        if groups & seen:
            repeats += 1
        seen |= groups
    return repeats / len(ops)
