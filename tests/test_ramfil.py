"""Ramification filtrations: pinned anchors, Herbrand transforms,
functoriality, and the per-prime case analysis.

The pinned step lists below were derived independently (break gaps and
group orders hand-checked against the different/discriminant sums in
test_conductor.py); the module must reproduce them exactly.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radical_ram.chartab import SubgroupDesc, subgroup_order
from radical_ram.holomorph import GroupDesc
from radical_ram.ramfil import (
    EISENSTEIN,
    LOWER,
    TAME,
    UNIT,
    UNRAMIFIED,
    UPPER,
    CyclicInertia,
    _roundtrip_grid,
    canonicalize,
    classify_prime,
    cyclotomic_quotient_check,
    different_sum,
    filtration_json,
    frac_str,
    global_ram,
    herbrand_phi,
    herbrand_psi,
    herbrand_roundtrip_check,
    last_break,
    lower_filtration,
    phi_transform,
    psi_transform,
    quotient_filtration,
    ramification_checks,
    step_break,
    subgroup_filtration,
    tower_step_check,
    unit_corner_note,
    upper_filtration,
    validate,
    value_at,
    wild_context,
)

from helpers import BAD_GROUPS, BAD_WILD_CONTEXTS, eis_ctx, moved_break, unit_ctx, walk_herbrand
from reference import order_at


ALL_WILD = [unit_ctx(p, r, s) for p in (3, 5, 7) for r in (1, 2, 3) for s in range(r + 1)]
ALL_WILD += [eis_ctx(p, r) for p in (3, 5, 7) for r in (1, 2, 3)]


def flat(filt):
    """Steps as (break, (x, y), order) for painless comparison."""
    out = []
    for b, h in filt.steps:
        if isinstance(h, CyclicInertia):
            out.append((b, None, h.order))
        else:
            out.append((b, (h.x, h.y), subgroup_order(h, filt.group)))
    return out


# ---------------------------------------------------------------------------
# Hypothesis validation and prime classification.


def test_validate_examples():
    assert validate(9, 5) == []
    assert validate(15, 2) == []
    bad = validate(3, 8)
    assert len(bad) == 1 and "(2)^3" in bad[0]
    bad = validate(9, 54)
    assert len(bad) == 1 and "v_3" in bad[0]


def test_validate_degenerate_inputs():
    assert validate(4, 3)  # even m
    assert validate(0, 3)
    assert validate(9, 1)
    assert validate(9, -1)
    assert validate(9, 0)


def test_validate_pure_prime_power_is_perfect_power():
    # a = 3^9 with m = 9: caught by the perfect-cube rule.
    assert any("3-th power" in v for v in validate(9, 3**9))


def test_validate_negative_radicand_power():
    # (-2)^3 = -8 is a perfect cube; sign matters for odd exponents.
    assert any("(-2)^3" in v for v in validate(3, -8))
    assert validate(3, -9) == []


def test_classify_unit_case():
    ctx = classify_prime(3, 9, 2)
    assert ctx.case == UNIT
    assert (ctx.r, ctx.s, ctx.g, ctx.e, ctx.f_res) == (2, 2, 1, 54, 1)
    assert ctx.group() == GroupDesc(3, 2, 2)


def test_classify_unit_with_shallow_depth():
    # 10^2 - 1 = 99 has 3-adic valuation 2, so s = 2 + 1 - 2 = 1.
    ctx = classify_prime(3, 9, 10)
    assert ctx.case == UNIT and ctx.s == 1 and ctx.g == 3 and ctx.e == 18


def test_classify_eisenstein_case():
    ctx = classify_prime(3, 3, 3)
    assert ctx.case == EISENSTEIN
    assert (ctx.r, ctx.s, ctx.g, ctx.e) == (1, 1, 1, 6)
    ctx = classify_prime(3, 9, 15)
    assert ctx.case == EISENSTEIN and ctx.s == 2 and ctx.e == 9 * 6


def test_classify_tame_case():
    ctx = classify_prime(2, 5, 4)
    assert ctx.case == TAME and ctx.e == 5 and ctx.vp_a == 2
    assert ctx.g is None and ctx.f_res is None and ctx.group() is None


def test_classify_unramified_case():
    ctx = classify_prime(7, 9, 2)
    assert ctx.case == UNRAMIFIED and ctx.e == 1


def test_classify_strips_full_p_power():
    # v_3(a) = 9 is a multiple of 3^2, so the 3-part is a local 9th power
    # and the unit analysis applies to what is left.
    ctx = classify_prime(3, 9, 2 * 3**9)
    assert ctx.case == UNIT and ctx.vp_a == 9 and ctx.s == 2 and ctx.e == 54


@pytest.mark.parametrize("args", BAD_WILD_CONTEXTS)
def test_wild_context_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        wild_context(*args)


def test_preconditions_raise_under_O(under_O):
    """GroupDesc and wild_context check their arguments with explicit
    raises, so python -O does not let a bad group through."""
    raised = [exc[0] for exc in under_O["bad-preconditions"]]
    assert raised == ["ValueError"] * (len(BAD_GROUPS) + len(BAD_WILD_CONTEXTS))


def test_classify_rejects_bad_valuation():
    with pytest.raises(ValueError):
        classify_prime(3, 9, 2 * 3**3)  # 3 | 3 but 9 does not divide 3
    with pytest.raises(ValueError):
        classify_prime(3, 9, 3**9)  # pure power: stripping leaves 1
    with pytest.raises(ValueError):
        classify_prime(4, 9, 2)  # p must be prime
    with pytest.raises(ValueError):
        classify_prime(3, 9, 1)


# ---------------------------------------------------------------------------
# Pinned canonical filtrations.  Independently derived step data.


UPPER_ANCHORS = {
    (UNIT, 3, 1, 1): [(F(0), (1, 0), 6), (F(1, 2), (1, 1), 3)],
    (UNIT, 3, 2, 1): [(F(0), (1, 0), 18), (F(1, 2), (1, 1), 9), (F(1), (0, 1), 3)],
    (UNIT, 3, 2, 2): [
        (F(0), (2, 0), 54),
        (F(1, 2), (2, 1), 27),
        (F(1), (1, 1), 9),
        (F(3, 2), (1, 2), 3),
    ],
    (UNIT, 3, 3, 1): [
        (F(0), (1, 0), 54),
        (F(1, 2), (1, 1), 27),
        (F(1), (0, 1), 9),
        (F(2), (0, 2), 3),
    ],
    (UNIT, 3, 3, 3): [
        (F(0), (3, 0), 486),
        (F(1, 2), (3, 1), 243),
        (F(1), (2, 1), 81),
        (F(3, 2), (2, 2), 27),
        (F(2), (1, 2), 9),
        (F(5, 2), (1, 3), 3),
    ],
    (UNIT, 3, 2, 0): [(F(0), (0, 0), 6), (F(1), (0, 1), 3)],
    (EISENSTEIN, 3, 1, 1): [(F(0), (1, 0), 6), (F(3, 2), (1, 1), 3)],
    (EISENSTEIN, 3, 2, 2): [
        (F(0), (2, 0), 54),
        (F(1), (2, 1), 27),
        (F(3, 2), (2, 2), 9),
        (F(5, 2), (1, 2), 3),
    ],
    (EISENSTEIN, 3, 3, 3): [
        (F(0), (3, 0), 486),
        (F(1), (3, 1), 243),
        (F(3, 2), (3, 2), 81),
        (F(2), (2, 2), 27),
        (F(5, 2), (2, 3), 9),
        (F(7, 2), (1, 3), 3),
    ],
}

LOWER_ANCHORS = {
    (UNIT, 3, 1, 1): ([(F(0), (1, 0), 6), (F(1), (1, 1), 3)], 7),
    (UNIT, 3, 2, 1): ([(F(0), (1, 0), 18), (F(1), (1, 1), 9), (F(4), (0, 1), 3)], 31),
    (UNIT, 3, 2, 2): (
        [(F(0), (2, 0), 54), (F(1), (2, 1), 27), (F(4), (1, 1), 9), (F(13), (1, 2), 3)],
        121,
    ),
    (UNIT, 3, 3, 1): (
        [(F(0), (1, 0), 54), (F(1), (1, 1), 27), (F(4), (0, 1), 9), (F(22), (0, 2), 3)],
        139,
    ),
    (UNIT, 3, 3, 3): (
        [
            (F(0), (3, 0), 486),
            (F(1), (3, 1), 243),
            (F(4), (2, 1), 81),
            (F(13), (2, 2), 27),
            (F(40), (1, 2), 9),
            (F(121), (1, 3), 3),
        ],
        1579,
    ),
    (UNIT, 3, 2, 0): ([(F(0), (0, 0), 6), (F(2), (0, 1), 3)], 9),
    (EISENSTEIN, 3, 1, 1): ([(F(0), (1, 0), 6), (F(3), (1, 1), 3)], 11),
    (EISENSTEIN, 3, 2, 2): (
        [(F(0), (2, 0), 54), (F(2), (2, 1), 27), (F(5), (2, 2), 9), (F(23), (1, 2), 3)],
        165,
    ),
    (EISENSTEIN, 3, 3, 3): (
        [
            (F(0), (3, 0), 486),
            (F(2), (3, 1), 243),
            (F(5), (3, 2), 81),
            (F(14), (2, 2), 27),
            (F(41), (2, 3), 9),
            (F(203), (1, 3), 3),
        ],
        1983,
    ),
}


def _ctx_for(key):
    case, p, r, s = key
    return unit_ctx(p, r, s) if case == UNIT else eis_ctx(p, r)


@pytest.mark.parametrize("key", sorted(UPPER_ANCHORS, key=str))
def test_upper_filtration_anchor(key):
    assert flat(upper_filtration(_ctx_for(key))) == UPPER_ANCHORS[key]


@pytest.mark.parametrize("key", sorted(LOWER_ANCHORS, key=str))
def test_lower_filtration_anchor(key):
    steps, diff = LOWER_ANCHORS[key]
    low = lower_filtration(_ctx_for(key))
    assert flat(low) == steps
    assert different_sum(low) == diff


def test_break_five_group_is_the_big_cyclic_piece():
    # In the Eisenstein (3, r=2) lower filtration the order-9 group at
    # break 5 is C(9), not C(3) x| G^1: its descriptor has x = 2.
    low = lower_filtration(eis_ctx(3, 2))
    h = value_at(low, 5)
    assert (h.x, h.y) == (2, 2)


@pytest.mark.parametrize("ctx", ALL_WILD, ids=lambda c: f"{c.case[:4]}-{c.p}-{c.r}-{c.s}")
def test_filtration_shape_invariants(ctx):
    up = upper_filtration(ctx)
    low = lower_filtration(ctx)
    assert up.steps[0] == (0, SubgroupDesc(up.group.s, 0))
    assert order_at(up, 0) == ctx.e
    orders = [order_at(up, b) for b, _ in up.steps]
    assert orders == sorted(orders, reverse=True) and len(set(orders)) == len(orders)
    for b, _ in up.steps:
        assert (ctx.p - 1) % F(b).denominator == 0
    for b, _ in low.steps:
        assert F(b).denominator == 1
    # Same groups in the same order, only the breaks move.
    assert [h for _, h in up.steps] == [h for _, h in low.steps]


def test_unramified_and_tame_filtrations():
    un = upper_filtration(classify_prime(7, 9, 2))
    assert un.steps == () and different_sum(lower_filtration(classify_prime(7, 9, 2))) == 0
    tm_ctx = classify_prime(2, 5, 4)
    tm = upper_filtration(tm_ctx)
    assert flat(tm) == [(F(0), None, 5)]
    low = lower_filtration(tm_ctx)
    assert low.numbering == LOWER and different_sum(low) == 4  # classical tame e - 1


@pytest.mark.parametrize("p,m,a", [(2, 3, 40), (2, 1, 2)])
def test_tame_prime_with_trivial_inertia_has_no_step(p, m, a):
    """m | v_p(a) makes e = 1: the filtration is trivial, like an
    unramified prime's, not a step of order 1."""
    ctx = classify_prime(p, m, a)
    assert ctx.case == TAME and ctx.e == 1
    assert ctx.upper.steps == () and ctx.lower.steps == ()
    assert different_sum(ctx.lower) == 0


# ---------------------------------------------------------------------------
# Herbrand transforms.


def test_phi_examples():
    low = lower_filtration(unit_ctx(3, 1, 1))
    assert herbrand_phi(low, 0) == 0
    assert herbrand_phi(low, 1) == F(1, 2)
    up = upper_filtration(unit_ctx(3, 1, 1))
    assert herbrand_psi(up, F(1, 2)) == 1
    # Above the last break phi has slope 1/|G0| and psi slope |G0|.
    assert herbrand_phi(low, 7) == F(1, 2) + F(6, 6)
    assert herbrand_psi(up, F(3, 2)) == 1 + 6


@pytest.mark.parametrize("ctx", ALL_WILD, ids=lambda c: f"{c.case[:4]}-{c.p}-{c.r}-{c.s}")
def test_herbrand_roundtrip(ctx):
    assert herbrand_roundtrip_check(ctx)


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=3000),
    den=st.integers(min_value=1, max_value=24),
    idx=st.integers(min_value=0, max_value=len(ALL_WILD) - 1),
)
def test_roundtrip_random_points(num, den, idx):
    ctx = ALL_WILD[idx]
    u = F(num, den)
    low = lower_filtration(ctx)
    up = upper_filtration(ctx)
    assert herbrand_psi(up, herbrand_phi(low, u)) == u


def assert_table_is_the_walk(ctx, u):
    """phi of ctx.lower at u, and psi of ctx.upper at u and at phi(u),
    equal the step walk."""
    up, low = ctx.upper, ctx.lower
    v = walk_herbrand(low, u)
    assert herbrand_phi(low, u) == v
    assert herbrand_psi(up, u) == walk_herbrand(up, u)
    assert herbrand_psi(up, v) == walk_herbrand(up, v)


@pytest.mark.parametrize("ctx", ALL_WILD, ids=lambda c: f"{c.case[:4]}-{c.p}-{c.r}-{c.s}")
def test_herbrand_table_is_the_step_walk_on_the_roundtrip_grid(ctx):
    for u in _roundtrip_grid(ctx.lower, ctx.p):
        assert_table_is_the_walk(ctx, u)


@settings(max_examples=80, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=3000),
    den=st.integers(min_value=1, max_value=24),
    idx=st.integers(min_value=0, max_value=len(ALL_WILD) - 1),
)
def test_herbrand_table_is_the_step_walk_at_random_points(num, den, idx):
    assert_table_is_the_walk(ALL_WILD[idx], F(num, den))


def tower_layers(ctx):
    """The lower filtration of every layer H_{i-1} that tower_step_check
    restricts to."""
    return [subgroup_filtration(ctx.lower, SubgroupDesc(ctx.s - i + 1, 1)) for i in range(1, ctx.s + 1)]


@pytest.mark.parametrize("ctx", ALL_WILD + [classify_prime(7, 3, 10), classify_prime(5, 3, 5)],
                         ids=lambda c: f"{c.case[:4]}-{c.p}-{c.r}-{c.s}")
def test_transforms_send_each_break_through_the_step_walk(ctx):
    """psi_transform and phi_transform keep the groups and put each break
    where the step walk sends it, on the context's filtrations (an
    unramified and a tame one among them) and on the tower's layers."""
    for filt, transform in [(ctx.upper, psi_transform), (ctx.lower, phi_transform)] + [
            (layer, phi_transform) for layer in tower_layers(ctx)]:
        image = transform(filt)
        assert [h for _, h in image.steps] == [h for _, h in filt.steps]
        assert [b for b, _ in image.steps] == [walk_herbrand(filt, b) for b, _ in filt.steps]


@pytest.mark.parametrize("ctx", ALL_WILD, ids=lambda c: f"{c.case[:4]}-{c.p}-{c.r}-{c.s}")
def test_roundtrip_fails_with_a_lower_break_moved_by_one(ctx):
    """Every lower break moved by +1, and by -1 where it stays >= 0, one at
    a time: psi(phi(u)) = u fails on the grid."""
    low = ctx.lower
    for i, (b, _) in enumerate(low.steps):
        for by in (1, -1) if b >= 1 else (1,):
            planted = wild_context(ctx.p, ctx.r, ctx.s, ctx.case, ctx.vp_a)
            planted.__dict__["lower"] = moved_break(low, i, by)  # what ctx.lower then reads
            assert not herbrand_roundtrip_check(planted), (i, by)


def test_transforms_are_inverse_on_filtrations():
    for ctx in ALL_WILD:
        up = upper_filtration(ctx)
        low = lower_filtration(ctx)
        assert psi_transform(up) == low
        assert phi_transform(low) == up


# ---------------------------------------------------------------------------
# Tower steps, subgroups, quotients.


def test_step_break_values():
    assert step_break(1, UNIT, 3) == 1
    assert step_break(2, UNIT, 3) == 7
    assert step_break(3, UNIT, 3) == 1 + 3 * 8
    assert step_break(1, EISENSTEIN, 3) == 3
    assert step_break(2, EISENSTEIN, 3) == 9
    assert step_break(2, EISENSTEIN, 5) == 25


@pytest.mark.parametrize("ctx", ALL_WILD, ids=lambda c: f"{c.case[:4]}-{c.p}-{c.r}-{c.s}")
def test_tower_steps_reproduce_closed_breaks(ctx):
    assert tower_step_check(ctx)


def test_subgroup_filtration_whole_group_is_identity():
    low = lower_filtration(unit_ctx(3, 2, 2))
    assert subgroup_filtration(low, SubgroupDesc(low.group.s, 0)) == low


def test_subgroup_filtration_top_step_example():
    # Restricting to the last C(p) layer of the tower isolates its break.
    low = lower_filtration(unit_ctx(3, 1, 1))
    sub = subgroup_filtration(low, SubgroupDesc(1, 1))
    assert flat(sub) == [(F(1), (1, 1), 3)]
    assert last_break(sub) == step_break(1, UNIT, 3)


def test_unit_congruence_subgroup_rows():
    """Restricting to the principal-unit part H = G(p^r)^1 must produce
    the closed H-filtration: upper breaks (p-1)(p^i - 1) with group
    G^i for 1 <= i <= s, then (p-1)((j+1)p^s - 1) with group G^{s+j};
    lower breaks (p-1)(p^{2i}-1)/(p+1), then the shared tail indices of
    the ambient filtration.  Asserted as membership statements."""
    for (p, r, s) in [(3, 3, 1), (3, 3, 2), (3, 3, 3), (5, 2, 1), (7, 2, 2)]:
        ctx = unit_ctx(p, r, s)
        low = lower_filtration(ctx)
        hlow = subgroup_filtration(low, SubgroupDesc(0, 1))
        hup = phi_transform(hlow)

        def group_at(filt, t):
            h = value_at(filt, t)
            return (0, filt.group.r) if h is None else (h.x, min(h.y, filt.group.r))

        for i in range(1, s + 1):
            assert group_at(hup, (p - 1) * (p**i - 1)) == (0, min(i, r))
            lower_idx = F((p - 1) * (p ** (2 * i) - 1), p + 1)
            assert lower_idx.denominator == 1
            assert group_at(hlow, lower_idx) == (0, min(i, r))
        for j in range(1, r - s):
            assert group_at(hup, (p - 1) * ((j + 1) * p**s - 1)) == (0, s + j)
            lower_idx = F((p - 1) * (p ** (2 * s) - 1), p + 1) + p ** (2 * s) * (p**j - 1)
            assert group_at(hlow, lower_idx) == (0, s + j)


def test_pinned_unit_congruence_rows_3_3_1():
    low = lower_filtration(unit_ctx(3, 3, 1))
    hlow = subgroup_filtration(low, SubgroupDesc(0, 1))
    assert flat(hlow) == [(F(4), (0, 1), 9), (F(22), (0, 2), 3)]
    assert flat(phi_transform(hlow)) == [(F(4), (0, 1), 9), (F(10), (0, 2), 3)]


@pytest.mark.parametrize("ctx", ALL_WILD, ids=lambda c: f"{c.case[:4]}-{c.p}-{c.r}-{c.s}")
def test_cyclotomic_quotient(ctx):
    assert cyclotomic_quotient_check(ctx)


def test_cyclotomic_quotient_pinned():
    up = upper_filtration(unit_ctx(3, 2, 2))
    q = quotient_filtration(up, SubgroupDesc(2, 2))
    assert q.group == GroupDesc(3, 2, 0)
    assert flat(q) == [(F(0), (0, 0), 6), (F(1), (0, 1), 3)]


def test_quotient_by_trivial_subgroup_is_identity():
    up = upper_filtration(unit_ctx(3, 2, 2))
    q = quotient_filtration(up, SubgroupDesc(0, 2))
    assert q.group == up.group and q.steps == up.steps


def test_quotient_breaks_are_upper_breaks():
    # Upper numbering is the one that passes to quotients unchanged:
    # the cyclotomic quotient of every wild case keeps breaks {0, 1, ...}
    # rather than the lower breaks {0, 2, ...}.
    up = upper_filtration(unit_ctx(3, 2, 2))
    q = quotient_filtration(up, SubgroupDesc(2, 2))
    assert [b for b, _ in q.steps] == [0, 1]


def test_quotient_rejects_non_normal():
    up = upper_filtration(unit_ctx(3, 2, 2))
    with pytest.raises(AssertionError):
        quotient_filtration(up, SubgroupDesc(0, 1))  # s - 0 = 2 > y = 1


# ---------------------------------------------------------------------------
# Canonicalization mechanics.


def test_canonicalize_merges_to_largest_break():
    G = GroupDesc(3, 1, 1)
    filt = canonicalize(
        G,
        UPPER,
        [
            (F(0), SubgroupDesc(1, 0)),
            (F(1), SubgroupDesc(1, 1)),
            (F(3, 2), SubgroupDesc(1, 1)),
            (F(2), SubgroupDesc(0, 1)),  # trivial here: dropped
        ],
    )
    assert flat(filt) == [(F(0), (1, 0), 6), (F(3, 2), (1, 1), 3)]


def test_canonicalize_rejects_conflicting_groups_at_a_break():
    G = GroupDesc(3, 2, 2)
    with pytest.raises(AssertionError):
        canonicalize(G, UPPER, [(F(1), SubgroupDesc(2, 1)), (F(1), SubgroupDesc(1, 1))])


def test_canonicalize_rejects_increasing_orders():
    G = GroupDesc(3, 2, 2)
    with pytest.raises(AssertionError):
        canonicalize(G, UPPER, [(F(0), SubgroupDesc(1, 1)), (F(1), SubgroupDesc(2, 1))])


def test_canonicalize_rejects_fractional_lower_break():
    G = GroupDesc(3, 1, 1)
    with pytest.raises(AssertionError):
        canonicalize(G, LOWER, [(F(1, 2), SubgroupDesc(1, 1))])


TAME_CONTEXTS = [classify_prime(p, m, a) for p, m, a in ((2, 9, 2), (2, 5, 4), (7, 15, 7), (2, 27, 2))]


def _scanned_value(filt, t):
    """The group at index t by walking the steps: the first break >= t."""
    for b, h in filt.steps:
        if t <= b:
            return h
    return None


@pytest.mark.parametrize("ctx", ALL_WILD + TAME_CONTEXTS, ids=lambda c: f"{c.case[:4]}-{c.p}-{c.r}-{c.s}-{c.e}")
def test_value_at_equals_a_scan_of_the_steps(ctx):
    """value_at bisects the breaks; a linear walk gives the same group at
    0, at each break, between breaks and past the last break, in both
    numberings."""
    for filt in ctx.upper, ctx.lower:
        breaks = [b for b, _ in filt.steps]
        assert breaks
        points = {F(0), breaks[-1] + F(1, 7), breaks[-1] + 1, *breaks}
        points |= {(a + b) / 2 for a, b in zip(breaks, breaks[1:])}
        for t in sorted(points):
            assert value_at(filt, t) == _scanned_value(filt, t), (filt.numbering, t)


def test_value_at_step_semantics():
    up = upper_filtration(unit_ctx(3, 2, 2))
    assert (value_at(up, F(1, 2)).x, value_at(up, F(1, 2)).y) == (2, 1)
    assert (value_at(up, F(1, 3)).x, value_at(up, F(1, 3)).y) == (2, 1)
    assert (value_at(up, 1).x, value_at(up, 1).y) == (1, 1)
    assert value_at(up, 2) is None
    assert order_at(up, 2) == 1


# ---------------------------------------------------------------------------
# Global assembly and JSON shape.


def test_global_ram_eisenstein_times_tame():
    data = {g.context.p: g for g in global_ram(15, 3)}
    assert data[3].context.case == EISENSTEIN and data[3].e_global == 30
    assert data[5].context.case == UNIT and data[5].e_global == 20


def test_global_ram_unit_blocks():
    data = {g.context.p: g for g in global_ram(15, 2)}
    assert data[3].e_global == 6 and data[5].e_global == 20
    assert data[2].context.case == TAME and data[2].e_global == 15


def test_global_ram_prime_power_m():
    data = {g.context.p: g for g in global_ram(9, 2)}
    assert set(data) == {2, 3}
    assert data[3].context.s == 2 and data[3].e_global == 54
    assert data[2].context.case == TAME and data[2].e_global == 9


def test_global_ram_rejects_violations():
    with pytest.raises(ValueError) as exc:
        global_ram(3, 8)
    assert exc.value.violations == validate(3, 8)


def test_filtration_json_shape():
    up = upper_filtration(unit_ctx(3, 1, 1))
    assert filtration_json(up) == {
        "numbering": "upper",
        "steps": [
            {"break": "0/1", "x": 1, "y": 0, "order": 6},
            {"break": "1/2", "x": 1, "y": 1, "order": 3},
        ],
    }
    tame = upper_filtration(classify_prime(2, 5, 4))
    assert filtration_json(tame)["steps"] == [
        {"break": "0/1", "x": None, "y": None, "order": 5}
    ]


def test_frac_str_lowest_terms():
    assert frac_str(F(6, 4)) == "3/2"
    assert frac_str(3) == "3/1"
    assert frac_str(F(-1, 1)) == "-1/1"


# ---------------------------------------------------------------------------
# The check bundle used by the CLI.


@pytest.mark.parametrize("ctx", ALL_WILD, ids=lambda c: f"{c.case[:4]}-{c.p}-{c.r}-{c.s}")
def test_ramification_checks_pass(ctx):
    checks = ramification_checks(ctx)
    names = [c["name"] for c in checks]
    assert names[:4] == [
        "lower_breaks_integral",
        "herbrand_roundtrip",
        "tower_step_breaks",
        "cyclotomic_quotient",
    ]
    assert all(c["status"] in ("pass", "info") for c in checks), checks


def test_unit_corner_note_only_in_the_corner():
    assert unit_corner_note(unit_ctx(3, 1, 1)) is not None
    assert unit_corner_note(unit_ctx(3, 2, 1)) is None
    assert unit_corner_note(eis_ctx(3, 1)) is None
    names = [c["name"] for c in ramification_checks(unit_ctx(5, 1, 1))]
    assert "unit_corner_note" in names
