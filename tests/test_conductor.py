"""Conductor exponents and discriminant valuations.

The module under test already asserts route agreement internally; the
tests here re-compare the routes at test level (so a weakened internal
assert cannot hide a regression), pin hand-computed values for small
parameter sets, and sweep the dual/triple-route identities across every
wild context the rest of the suite uses.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from radical_ram import chartab, conductor, ramfil
from radical_ram.chartab import census_mismatch, character_json, character_table, count_by, table_rows
from radical_ram.conductor import (
    bucket_conductor,
    c_exp_closed,
    c_exp_definitional,
    conductor_buckets,
    conductor_checks,
    conductor_json,
    disc_subtotals,
    disc_subtotals_closed,
    disc_vp_global,
    disc_vp_local_closed,
    disc_vp_local_sum,
)
from radical_ram.ramfil import (
    UNIT,
    PrimeLocalContext,
    classify_prime,
    different_sum,
    frac_str,
    lower_filtration,
    ramification_checks,
    upper_filtration,
)

from helpers import eis_ctx, materialised, unit_ctx


ALL_WILD = [unit_ctx(p, r, s) for p in (3, 5, 7) for r in (1, 2, 3) for s in range(r + 1)]
ALL_WILD += [eis_ctx(p, r) for p in (3, 5, 7) for r in (1, 2, 3)]

WILD_IDS = lambda c: f"{c.case[:4]}-{c.p}-{c.r}-{c.s}"  # noqa: E731


def conductor_rows(ctx):
    """(row, c, f) per table_rows tuple, in table order, with (c, f) read
    from the row's (level, prim_degree) bucket."""
    buckets = conductor_buckets(ctx)
    return [(row, *buckets[row[3:]]) for row in table_rows(ctx.group())]


def by_invariants(ctx):
    """The (c, f) of every table row, keyed by (level, primitive degree,
    degree)."""
    out = {}
    for (_, _, degree, level, prim), c, f in conductor_rows(ctx):
        out.setdefault((level, prim, degree), []).append((c, f))
    return out


# ---------------------------------------------------------------------------
# Pinned conductor exponents for tiny parameter sets.


def test_trivial_character_conventions():
    ctx = unit_ctx(3, 1, 1)
    recs = [(c, f) for row, c, f in conductor_rows(ctx) if row[:2] == ("linear", (0, 0))]
    assert recs == [(Fraction(-1), 0)]


def test_unit_3_1_1_pinned():
    # Order-6 group: trivial, sign, one degree-2 induced character.
    recs = by_invariants(unit_ctx(3, 1, 1))
    assert recs[(0, 0, 1)][0][0] == -1
    assert recs[(0, 1, 1)] == [(0, 1)]
    assert recs[(1, 1, 2)] == [(Fraction(1, 2), 3)]


def test_eisenstein_3_1_pinned():
    recs = by_invariants(eis_ctx(3, 1))
    assert recs[(1, 1, 2)] == [(Fraction(3, 2), 5)]


def test_exponent_branches_unit_3_2_2():
    recs = by_invariants(unit_ctx(3, 2, 2))
    # level below primitive degree: integral exponent pr - 1
    assert {c for c, _ in recs[(1, 2, 2)]} == {1}
    assert {f for _, f in recs[(1, 2, 2)]} == {4}
    # diagonal level = primitive degree: extra 1/(p-1) on top of pr - 1
    assert recs[(1, 1, 2)][0] == (Fraction(1, 2), 3)
    assert recs[(2, 2, 6)][0] == (Fraction(3, 2), 15)


def test_exponent_branches_eisenstein():
    # At pr <= lev + 1 the exponent is lev + 1/(p-1), one congruence
    # level wider than the unit-case diagonal.
    recs = by_invariants(eis_ctx(3, 2))
    assert recs[(1, 1, 2)][0][0] == Fraction(3, 2)
    assert {c for c, _ in recs[(1, 2, 2)]} == {Fraction(3, 2)}
    assert recs[(2, 2, 6)][0][0] == Fraction(5, 2)
    # ... while lev + 2 <= pr falls back to the integral pr - 1.
    deep = by_invariants(eis_ctx(3, 3))
    assert {c for c, _ in deep[(1, 3, 2)]} == {2}
    assert {c for c, _ in deep[(1, 2, 2)]} == {Fraction(3, 2)}


def test_f_multiset_pinned():
    fs = sorted(f for _, _, f in conductor_rows(unit_ctx(3, 2, 2)))
    assert fs == [0, 1, 2, 2, 2, 2, 3, 4, 4, 15]
    fs = sorted(f for _, _, f in conductor_rows(eis_ctx(3, 2)))
    assert fs == [0, 1, 2, 2, 2, 2, 5, 5, 5, 21]


@pytest.mark.parametrize("ctx", ALL_WILD, ids=WILD_IDS)
def test_two_routes_explicit(ctx):
    """Definitional (filtration-escape) route == closed route, compared
    here rather than trusting the module's internal assert."""
    filt = upper_filtration(ctx)
    for chi in character_table(ctx.group()):
        assert c_exp_definitional(chi, filt) == c_exp_closed(chi, ctx.case)


@pytest.mark.parametrize("ctx", ALL_WILD, ids=WILD_IDS)
def test_f_integrality_and_record_shape(ctx):
    for row, c, f in conductor_rows(ctx):
        assert isinstance(c, Fraction)
        assert isinstance(f, int) and f >= 0
        assert row[2] * (1 + c) == f


# ---------------------------------------------------------------------------
# Discriminant valuations: three routes and the level decomposition.

DISC_ANCHORS = [
    (unit_ctx(3, 1, 0), 1),
    (unit_ctx(3, 1, 1), 7),
    (unit_ctx(3, 2, 0), 9),
    (unit_ctx(3, 2, 1), 31),
    (unit_ctx(3, 2, 2), 121),
    (unit_ctx(3, 3, 1), 139),
    (unit_ctx(3, 3, 3), 1579),
    (eis_ctx(3, 1), 11),
    (eis_ctx(3, 2), 165),
    (eis_ctx(3, 3), 1983),
]


@pytest.mark.parametrize(
    "ctx,want",
    DISC_ANCHORS,
    ids=lambda v: WILD_IDS(v) if isinstance(v, PrimeLocalContext) else None,
)
def test_disc_anchor_values(ctx, want):
    assert disc_vp_local_sum(ctx, conductor_buckets(ctx)) == want
    assert disc_vp_local_closed(ctx) == want
    assert different_sum(lower_filtration(ctx)) == want


@pytest.mark.parametrize("ctx", ALL_WILD, ids=WILD_IDS)
def test_disc_triple_agreement(ctx):
    a = disc_vp_local_sum(ctx, conductor_buckets(ctx))
    b = disc_vp_local_closed(ctx)
    c = different_sum(lower_filtration(ctx))
    assert a == b == c


def test_subtotals_pinned():
    assert disc_subtotals(unit_ctx(3, 1, 1)) == {
        "linear": 1, "induced_main": 4, "boundary": 2, "near_boundary": 0,
    }
    assert disc_subtotals(unit_ctx(3, 2, 2)) == {
        "linear": 9, "induced_main": 92, "boundary": 20, "near_boundary": 0,
    }
    assert disc_subtotals(eis_ctx(3, 2)) == {
        "linear": 9, "induced_main": 92, "boundary": 60, "near_boundary": 4,
    }
    assert disc_subtotals(eis_ctx(3, 3)) == {
        "linear": 45, "induced_main": 1352, "boundary": 546, "near_boundary": 40,
    }


@pytest.mark.parametrize("ctx", ALL_WILD, ids=WILD_IDS)
def test_subtotals_closed_and_complete(ctx):
    got = disc_subtotals(ctx)
    assert got == disc_subtotals_closed(ctx)
    assert sum(got.values()) == disc_vp_local_sum(ctx, conductor_buckets(ctx))
    if ctx.case == UNIT:
        assert got["near_boundary"] == 0


@pytest.mark.parametrize("ctx", ALL_WILD, ids=WILD_IDS)
def test_per_character_excess_bucketing(ctx):
    """deg * f minus the main deg^2 * pr share must equal exactly the
    bucketed excess predicted by (level, primitive degree)."""
    p = ctx.p
    for (_, _, degree, k, t), _, f in conductor_rows(ctx):
        if k == 0:
            assert degree * f == t
            continue
        excess = degree * f - degree**2 * t
        unit_excess = p ** (2 * (k - 1)) * (p - 1)
        if ctx.case == UNIT:
            assert excess == (unit_excess if t == k else 0)
        elif t == k:
            assert excess == degree**2 + unit_excess
        elif t == k + 1:
            assert excess == unit_excess
        else:
            assert excess == 0


# ---------------------------------------------------------------------------
# Global exponents, tame/unramified differents, reports.


def test_disc_vp_global_examples():
    assert disc_vp_global(9, 10, 3) == 93
    assert disc_vp_global(3, 2, 3) == 7
    assert disc_vp_global(3, 3, 3) == 11


def test_disc_vp_global_unit_is_g_copies_of_local():
    ctx = classify_prime(3, 9, 10)
    assert ctx.case == UNIT and ctx.s == 1 and ctx.g == 3
    assert disc_vp_global(9, 10, 3) == ctx.g * disc_vp_local_closed(ctx)


def test_disc_vp_global_preconditions():
    with pytest.raises(AssertionError):
        disc_vp_global(15, 2, 3)  # composite m outside the stated scope
    with pytest.raises(AssertionError):
        disc_vp_global(9, 2, 5)  # p = 5 is unramified here: no wild data


def test_disc_vp_global_routes_can_disagree(monkeypatch):
    """A local closed form shifted by one fails the check of the global
    product against the global closed form."""
    real = conductor.disc_vp_local_closed
    monkeypatch.setattr(conductor, "disc_vp_local_closed", lambda ctx: real(ctx) + 1)
    with pytest.raises(AssertionError) as exc:
        disc_vp_global(9, 10, 3)
    assert str(exc.value) == "global discriminant routes disagree at p=3, r=2, s=1: 96 vs 93"


# ---------------------------------------------------------------------------
# The bucket route analyze reads.


@pytest.mark.parametrize("ctx", ALL_WILD, ids=WILD_IDS)
def test_records_equal_their_buckets(ctx):
    """The buckets are the census's, in its order; every table row falls
    in one, and the census-weighted sum is the sum over the rows."""
    buckets = conductor_buckets(ctx)
    G = ctx.group()
    assert list(buckets) == [
        (k, t) for k in range(G.s + 1) for t in range(G.r + 1) if count_by(k, t, G)
    ]
    assert census_mismatch(G, table_rows(G)) is None
    assert disc_vp_local_sum(ctx, buckets) == sum(row[2] * f for row, _, f in conductor_rows(ctx))


def test_bucket_conductor_trivial_only_at_level_and_degree_zero():
    ctx = unit_ctx(3, 2, 1)
    filt = upper_filtration(ctx)
    assert bucket_conductor(ctx, 0, 0, filt) == (Fraction(-1), 0)
    assert bucket_conductor(ctx, 0, 1, filt) == (Fraction(0), 1)
    assert bucket_conductor(ctx, 1, 1, filt) == (Fraction(1, 2), 3)


def test_bucket_conductor_rejects_a_foreign_filtration():
    with pytest.raises(AssertionError):
        bucket_conductor(unit_ctx(3, 1, 1), 0, 1, upper_filtration(unit_ctx(3, 2, 1)))


def test_census_mismatch_names_the_bucket():
    G = unit_ctx(3, 2, 1).group()
    table = character_table(G)
    rows = [chi.row for chi in table]
    assert rows == list(table_rows(G))
    assert census_mismatch(G, rows) is None
    assert census_mismatch(G, rows[1:]) == "(level 0, prim_degree 0): 0 characters, census 1"
    stray = replace(table[0], prim_degree=5).row
    assert census_mismatch(G, [stray] + rows[1:]) == (
        "(level 0, prim_degree 0): 0 characters, census 1"
    )
    assert census_mismatch(G, rows + [stray]) == "characters outside the census: [(0, 5)]"


def test_conductor_json_text_mode_has_no_rows():
    ctx = unit_ctx(3, 2, 1)
    assert conductor_json(ctx, False) == {"v_p_disc": conductor_json(ctx)["v_p_disc"]}


def test_conductor_json_builds_no_character(monkeypatch):
    """The rows come from table_rows alone: no Character, no table."""

    def forbidden(*args, **kwargs):
        raise RuntimeError("conductor_json must not build per-character objects")

    ctx = unit_ctx(3, 2, 1)
    expected = [
        {"character": character_json(chi.row), "c": frac_str(c), "f": f}
        for chi, (_, c, f) in zip(character_table(ctx.group()), conductor_rows(ctx), strict=True)
    ]
    monkeypatch.setattr(chartab, "character_table", forbidden)
    monkeypatch.setattr(chartab, "Character", forbidden)
    rows = conductor_json(ctx)["characters"]
    assert len(rows) == len(expected)
    assert materialised(rows) == expected


def _faulty_rows(monkeypatch, fault):
    """conductor.table_rows with `fault(rows)` applied to the list of
    rows from every call after the first (the census check's)."""
    real = chartab.table_rows
    calls = []

    def faulty(G):
        calls.append(G)
        rows = list(real(G))
        return iter(rows if len(calls) == 1 else fault(rows))

    monkeypatch.setattr(conductor, "table_rows", faulty)


def test_conductor_json_rejects_a_character_outside_the_buckets(monkeypatch):
    ctx = unit_ctx(3, 2, 1)
    real = conductor.table_rows

    def with_stray(G):
        yield from real(G)
        yield ("induced", (0, 0), 2, 1, ctx.r + 1)

    monkeypatch.setattr(conductor, "table_rows", with_stray)
    with pytest.raises(AssertionError, match="outside the census"):
        conductor_json(ctx)


def test_conductor_json_rejects_a_bucket_count_off(monkeypatch):
    ctx = unit_ctx(3, 2, 1)
    real = conductor.table_rows
    monkeypatch.setattr(conductor, "table_rows", lambda G: (
        row[:4] + (1,) if row[4] == 2 and row[3] == 0 and row[1] == (0, 1) else row for row in real(G)))
    with pytest.raises(AssertionError, match=r"\(level 0, prim_degree 1\): 2 characters, census 1"):
        conductor_json(ctx)


def test_conductor_rows_check_their_stream(monkeypatch):
    """A stream that differs from the census-checked rows fails while it
    is read: a short one at its end, a row off the census at that row."""
    ctx = unit_ctx(3, 2, 1)
    _faulty_rows(monkeypatch, lambda rows: rows[:-1])
    rows = conductor_json(ctx)["characters"]
    with pytest.raises(AssertionError, match="streamed 8 rows where 9 were stated"):
        list(rows)
    _faulty_rows(monkeypatch, lambda rows: rows[:-1] + [rows[-1][:4] + (5,)])
    rows = conductor_json(ctx)["characters"]
    with pytest.raises(AssertionError, match=r"character \('induced', \(0, 2\), 2, 1, 5\) outside the census"):
        list(rows)


def test_two_routes_catches_a_record_off_its_bucket(monkeypatch):
    """Table rows moved from bucket (1, 2) to (1, 1) fail
    conductor_two_routes on the census, and only that check."""
    ctx = unit_ctx(3, 2, 1)
    real = conductor.table_rows
    monkeypatch.setattr(conductor, "table_rows", lambda G: (
        row[:4] + (1,) if row[3:] == (1, 2) else row for row in real(G)))
    rows = conductor_checks(ctx)
    assert [row["status"] for row in rows] == ["fail", "pass", "pass"]
    assert rows[0] == {
        "name": "conductor_two_routes",
        "status": "fail",
        "detail": "character table against census: (level 1, prim_degree 1): 3 characters, census 1",
    }


def test_tame_and_unramified_differents():
    tame = classify_prime(2, 5, 4)
    assert tame.case == "TAME" and tame.e == 5
    assert different_sum(lower_filtration(tame)) == tame.e - 1
    unram = classify_prime(7, 9, 2)
    assert unram.case == "UNRAMIFIED"
    assert different_sum(lower_filtration(unram)) == 0


def test_conductor_checks_report():
    for ctx in (unit_ctx(3, 2, 1), eis_ctx(3, 2)):
        rows = conductor_checks(ctx)
        assert [row["name"] for row in rows] == [
            "conductor_two_routes",
            "discriminant_three_routes",
            "conductor_level_subtotals",
        ]
        assert all(row["status"] == "pass" for row in rows)
        assert all(isinstance(row["detail"], str) for row in rows)


def test_conductor_checks_build_the_table_once(monkeypatch):
    calls = []
    real = conductor.conductor_buckets

    def counted(ctx):
        calls.append(ctx)
        return real(ctx)

    ctx = unit_ctx(3, 2, 1)
    clean = conductor_checks(ctx)
    monkeypatch.setattr(conductor, "conductor_buckets", counted)
    assert conductor_checks(ctx) == clean
    assert calls == [ctx]


def test_conductor_checks_table_failure_fails_every_row(monkeypatch):
    calls = []

    def broken(ctx):
        calls.append(ctx)
        raise AssertionError("conductor mismatch")

    monkeypatch.setattr(conductor, "conductor_buckets", broken)
    rows = conductor_checks(unit_ctx(3, 2, 1))
    assert [row["status"] for row in rows] == ["fail"] * 3
    assert all(row["detail"] == "conductor mismatch" for row in rows)
    assert len(calls) == 3


def test_failed_filtration_build_is_not_cached(monkeypatch):
    """A lower filtration whose printed claims fail is not kept on its
    context: every check that reads it builds it again and reports its
    own fail row."""

    def broken(filt, index, sd):
        raise AssertionError("claim broken")

    monkeypatch.setattr(ramfil, "_claim", broken)
    ctx = unit_ctx(3, 2, 1)
    rows = {row["name"]: row for row in ramification_checks(ctx) + conductor_checks(ctx)}
    for name in ("lower_breaks_integral", "herbrand_roundtrip", "tower_step_breaks",
                 "discriminant_three_routes"):
        assert rows[name]["status"] == "fail"
        assert "claim broken" in rows[name]["detail"]
    assert "lower" not in vars(ctx)


def test_conductor_json_shape():
    j = conductor_json(unit_ctx(3, 1, 1))
    assert set(j) == {"characters", "v_p_disc"}
    assert len(j["characters"]) == 3
    for row in materialised(j["characters"]):
        assert set(row) == {"character", "c", "f"}
        assert "/" in row["c"]
        assert isinstance(row["f"], int)
    d = j["v_p_disc"]
    assert d == {"sum": 7, "closed": 7, "different": 7, "agree": True}
