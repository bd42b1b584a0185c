"""Acceptance gate: nine criteria, one test and one printed verdict line
per criterion.

The parameter range everywhere is p in {3, 5, 7}, r <= 3, s <= r, with
group order bounded by RADICAL_RAM_MAX_ORDER (default 200000), which
admits all 27 triples.
"""

import random
import time
from fractions import Fraction

from radical_ram.chartab import character_table
from radical_ram.cli import main as cli_main
from radical_ram.conductor import (
    c_exp_closed,
    c_exp_definitional,
    conductor_buckets,
    disc_vp_global,
    disc_vp_local_closed,
    disc_vp_local_sum,
)
from radical_ram.holomorph import GroupDesc, class_count
from radical_ram.oracle import (
    classes_bruteforce,
    frobenius_induction_check,
    lift_check,
    null_subgroup_scan_check,
    orthogonality_check,
    resolve_max_order,
)
from radical_ram.ramfil import (
    cyclotomic_quotient_check,
    different_sum,
    herbrand_phi,
    herbrand_psi,
    herbrand_roundtrip_check,
    lower_filtration,
    tower_step_check,
    upper_filtration,
)

from helpers import eis_ctx, unit_ctx

MAX_ORDER = resolve_max_order()

TRIPLES = [
    (p, r, s)
    for p in (3, 5, 7)
    for r in (1, 2, 3)
    for s in range(r + 1)
    if GroupDesc(p, r, s).order <= MAX_ORDER
]


def wild_contexts():
    out = [unit_ctx(p, r, s) for p, r, s in TRIPLES]
    out += [eis_ctx(p, r) for p, r, s in TRIPLES if s == r]
    return out


def verdict(n, ok, label):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {n} failed: {label}"


def test_criterion_1_class_counts():
    t0 = time.perf_counter()
    ok = True
    for p, r, s in TRIPLES:
        G = GroupDesc(p, r, s)
        enumerated = len(classes_bruteforce(G))
        closed = p ** (r - 1) * (p - 1) + p ** (r - s) * (p**s - 1) // (p - 1)
        ok = ok and enumerated == class_count(G) == closed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    verdict(1, ok, f"class counts on {len(TRIPLES)} triples in {elapsed:.1f}s")


def test_criterion_2_character_tables():
    ok = True
    for p, r, s in TRIPLES:
        G = GroupDesc(p, r, s)
        ok = ok and sum(chi.degree**2 for chi in character_table(G)) == G.order
        ok = ok and orthogonality_check(G)[0]
        for k in range(1, s + 1):
            ok = ok and lift_check(G, k)
    for p in (3, 5, 7):
        for r in (1, 2, 3):
            ok = ok and frobenius_induction_check(p, r)[0]
    verdict(2, ok, "degree sums, orthogonality, induction oracle, lifts")


def test_criterion_3_null_subgroups():
    ok = all(null_subgroup_scan_check(GroupDesc(p, r, s))[0] for p, r, s in TRIPLES)
    verdict(3, ok, "closed null subgroup == brute kernel scan, every character")


def test_criterion_4_conductor_two_routes():
    ok = True
    for ctx in wild_contexts():
        filt = upper_filtration(ctx)
        for chi in character_table(ctx.group()):
            c = c_exp_definitional(chi, filt)
            ok = ok and c == c_exp_closed(chi, ctx.case)
            f = chi.degree * (1 + c)
            ok = ok and f.denominator == 1 and f >= 0
    verdict(4, ok, "definitional == closed conductor exponent; f integral >= 0")


def test_criterion_5_discriminant_triple_agreement():
    ok = True
    for ctx in wild_contexts():
        a = disc_vp_local_sum(ctx, conductor_buckets(ctx))
        ok = ok and a == disc_vp_local_closed(ctx)
        ok = ok and a == different_sum(lower_filtration(ctx))
    anchors = [
        (unit_ctx(3, 1, 1), 7),
        (unit_ctx(3, 2, 2), 121),
        (unit_ctx(3, 2, 1), 31),
        (eis_ctx(3, 1), 11),
        (eis_ctx(3, 2), 165),
    ]
    for ctx, want in anchors:
        ok = ok and disc_vp_local_sum(ctx, conductor_buckets(ctx)) == want
    verdict(5, ok, "conductor sum == closed form == different sum; anchors frozen")


def test_criterion_6_cyclotomic_oracle():
    ok = True
    for p, r, s in TRIPLES:
        if s == 0:
            ok = ok and disc_vp_local_closed(unit_ctx(p, r, 0)) == r * p**r - (
                r + 1
            ) * p ** (r - 1)
    ok = ok and disc_vp_local_closed(unit_ctx(3, 2, 0)) == 9
    for ctx in wild_contexts():
        ok = ok and cyclotomic_quotient_check(ctx)
    verdict(6, ok, "s = 0 reproduces the classical cyclotomic exponent and filtration")


def test_criterion_7_functoriality():
    rng = random.Random(20260816)
    ok = True
    for ctx in wild_contexts():
        ok = ok and herbrand_roundtrip_check(ctx)
        up = upper_filtration(ctx)
        low = lower_filtration(ctx)
        for b, _ in up.steps:
            ok = ok and herbrand_phi(low, herbrand_psi(up, b)) == b
        for _ in range(100):
            v = Fraction(rng.randint(0, 4000), rng.randint(1, 48))
            ok = ok and herbrand_phi(low, herbrand_psi(up, v)) == v
        ok = ok and all(b.denominator == 1 for b, _ in low.steps)
        ok = ok and tower_step_check(ctx)
    verdict(7, ok, "phi o psi = id (breaks + random rationals); integral lower breaks; tower steps")


def test_criterion_8_global(capsys):
    code = cli_main(["analyze", "3", "15", "--prime", "3"])
    out = capsys.readouterr().out
    ok = code == 0 and "e_global = 30" in out
    code = cli_main(["analyze", "2", "9", "--prime", "3"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and "g=1" in out and "s=2" in out and "e_local = 54" in out
    for p, r, s in TRIPLES:
        local = disc_vp_local_closed(unit_ctx(p, r, s))
        closed_global = Fraction(
            p**r * (r * p**r - (r + 1) * p ** (r - 1))
        ) + Fraction(2 * (p ** (r + s) - p ** (r - s)), p + 1)
        ok = ok and p ** (r - s) * local == closed_global
    ok = ok and disc_vp_global(9, 10, 3) == 93
    with capsys.disabled():
        verdict(8, ok, "global indices via CLI; global discriminant = p^(r-s) copies of local")


def test_criterion_9_validation(capsys):
    shapes = [
        (["analyze", "2", "4"], "must be odd"),
        (["analyze", "8", "3"], "perfect 3-th power"),
        (["analyze", "54", "9"], "divisible by 3 but not by 3^2"),
    ]
    ok = True
    for argv, needle in shapes:
        code = cli_main(argv)
        out = capsys.readouterr().out
        ok = ok and code == 2 and needle in out
    with capsys.disabled():
        verdict(9, ok, "even m, perfect power, bad valuation all exit 2 with diagnostics")
