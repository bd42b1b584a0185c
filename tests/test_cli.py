"""Command-line interface: subcommands, exit codes, canonical JSON."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radical_ram
from radical_ram import arith, chartab, cli, conductor, oracle
from radical_ram.chartab import character_json
from radical_ram.cli import main
from radical_ram.holomorph import GroupDesc, all_classes

import faults
from faults import FAULT_ARGVS, PRIM_DEGREE_ARGVS
from helpers import CELL_GRID, ROW_FAULTS
from reference import char_coefficient, character_table, linear_exponent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    """Paths that go through argparse raise SystemExit instead of returning."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_basic(capsys):
    code, out, _ = run(capsys, "analyze", "2", "3")
    assert code == 0
    assert "prime 3: UNIT" in out
    assert "sum=7, closed=7, different=7, agree=true" in out


@pytest.mark.parametrize("a,m", [(40, 3), (2, 1)])
def test_analyze_tame_prime_with_trivial_inertia_prints_trivial(capsys, a, m):
    code, out, _ = run(capsys, "analyze", str(a), str(m))
    assert code == 0
    block = out.split("prime 2: TAME")[1].split("prime ")[0]
    assert "upper filtration: (trivial)" in block and "lower filtration: (trivial)" in block


def test_analyze_perfect_power_rejected(capsys):
    code, out, _ = run(capsys, "analyze", "8", "3")
    assert code == 2
    assert "perfect 3-th power ((2)^3)" in out


def test_analyze_even_m_rejected(capsys):
    code, out, _ = run(capsys, "analyze", "2", "4")
    assert code == 2
    assert "must be odd" in out


def test_analyze_valuation_condition_rejected(capsys):
    code, out, _ = run(capsys, "analyze", "54", "9")
    assert code == 2
    assert "divisible by 3 but not by 3^2" in out


def test_analyze_violation_json_report(capsys):
    code, out, _ = run(capsys, "analyze", "8", "3", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["validation"]["ok"] is False
    assert report["validation"]["violations"]
    assert report["primes"] == []


def test_analyze_json_byte_identical(capsys):
    _, out1, _ = run(capsys, "analyze", "2", "9", "--json")
    _, out2, _ = run(capsys, "analyze", "2", "9", "--json")
    assert out1 == out2
    assert out1.endswith("\n")
    report = json.loads(out1)
    assert set(report) == {"input", "validation", "primes"}
    assert report["input"] == {"a": 2, "m": 9}


def test_analyze_prime_flag_is_exact_block(capsys):
    _, full_out, _ = run(capsys, "analyze", "2", "3", "--json")
    code, block_out, _ = run(capsys, "analyze", "2", "3", "--prime", "3", "--json")
    assert code == 0
    full = json.loads(full_out)
    block = json.loads(block_out)
    assert block == next(b for b in full["primes"] if b["p"] == 3)


def test_analyze_prime_flag_streams_only_its_block(capsys, monkeypatch):
    """--prime 3 of x^15 - 2 generates the character rows of the prime-3
    block only: its census check and its stream, both read 3's table."""
    full = json.loads(run(capsys, "analyze", "2", "15", "--json")[1])
    real = conductor.table_rows
    groups = []

    def recorded(G):
        groups.append(G.p)
        return real(G)

    monkeypatch.setattr(conductor, "table_rows", recorded)
    code, out, _ = run(capsys, "analyze", "2", "15", "--prime", "3", "--json")
    assert code == 0 and groups == [3, 3]
    assert json.loads(out) == next(b for b in full["primes"] if b["p"] == 3)


def test_analyze_prime_flag_still_checks_every_prime(capsys, monkeypatch):
    """A discriminant disagreement at 5 exits 3 under --prime 3, after
    printing 3's block."""
    real = cli.conductor_json

    def corrupted(ctx, characters, counts):
        payload = real(ctx, characters, counts)
        if ctx.p == 5:
            payload["v_p_disc"]["agree"] = False
        return payload

    _, block, _ = run(capsys, "analyze", "2", "15", "--prime", "3", "--json")
    monkeypatch.setattr(cli, "conductor_json", corrupted)
    code, out, err = run(capsys, "analyze", "2", "15", "--prime", "3", "--json")
    assert (code, out) == (3, block)
    assert err == "internal inconsistency: disagreement at p in [5]\n"


def test_analyze_irrelevant_prime(capsys):
    code, _, err = run(capsys, "analyze", "2", "3", "--prime", "7")
    assert code == 1
    assert "does not divide" in err


def test_analyze_global_index_examples(capsys):
    _, out, _ = run(capsys, "analyze", "3", "15")
    assert "prime 3: EISENSTEIN" in out
    assert "e_local = 6, e_global = 30" in out
    _, out, _ = run(capsys, "analyze", "2", "9", "--prime", "3")
    assert "s=2, g=1" in out
    assert "e_local = 54" in out


def test_analyze_detects_internal_disagreement(planted):
    [(code, _, err)] = planted("analyze-disagreement")
    assert code == 3
    assert "internal inconsistency" in err


test_analyze_detects_internal_disagreement_under_O = test_analyze_detects_internal_disagreement


def test_analyze_derives_each_prime_once(capsys):
    """analyze 2 2401 has one tame prime (2) and one wild prime (7).  Each
    gets one upper and one lower filtration, the input is validated once,
    and factorint runs once on m, in validate, and once on |a|."""
    counts = {}

    def counted(name):
        def make(real):
            def count(*args):
                counts[name] = counts.get(name, 0) + 1
                return real(*args)
            return count
        return faults.plant(f"ramfil.{name}", make)

    with counted("upper_filtration"), counted("lower_filtration"), counted("validate"), counted("factorint"):
        for argv in (["analyze", "2", "2401"], ["analyze", "2", "2401", "--json"]):
            counts.clear()
            assert run(capsys, *argv)[0] == 0
            assert counts == {"upper_filtration": 2, "lower_filtration": 2, "validate": 1, "factorint": 2}


SEMIPRIME_45 = (10**22 + 9) * (3 * 10**22 + 29)  # two 23-digit prime factors


@pytest.mark.parametrize("a,m", [(2, SEMIPRIME_45), (SEMIPRIME_45, 3)], ids=["exponent", "radicand"])
def test_analyze_factoring_budget_exits_4(capsys, a, m):
    """A number rho cannot split within arith.FACTOR_BUDGET steps is a
    resource limit: exit 4, one line on stderr, nothing on stdout."""
    for argv in (["analyze", str(a), str(m)], ["analyze", str(a), str(m), "--json"]):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert err.startswith("resource limit: factorint: Pollard-Brent budget") and err.count("\n") == 1


RAISING_STAGES = [
    (["analyze", "2", "9"], "build_report"),
    (["verify", "--p", "3", "--r", "1"], "verify_sweep"),
    (["chartab", "3", "1", "1"], "chartab_values"),
    (["chartab", "3", "1", "1", "--json"], "chartab_values"),
]


@pytest.mark.parametrize("argv,stage", RAISING_STAGES, ids=["analyze", "verify", "chartab", "chartab-json"])
@pytest.mark.parametrize(
    "exc,code,err",
    [
        (AssertionError("x"), 3, "internal inconsistency: x\n"),
        (arith.ResourceLimitError("y"), 4, "resource limit: y\n"),
    ],
    ids=["inconsistent", "resource"],
)
def test_every_subcommand_maps_exceptions_to_exit_codes(capsys, monkeypatch, argv, stage, exc, code, err):
    """cli.main maps an internal inconsistency to exit 3 and a resource
    limit to exit 4, for every subcommand, with one line on stderr."""

    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, stage, raising)
    assert run(capsys, *argv) == (code, "", err)


def test_analyze_wrong_factorization_exits_3(planted):
    """A split that does not divide is an internal inconsistency."""
    [(code, out, err)] = planted("wrong-factorization")
    assert (code, out) == (3, "")
    assert err.startswith("internal inconsistency: factorint(")


test_analyze_wrong_factorization_exits_3_under_O = test_analyze_wrong_factorization_exits_3


def test_text_analyze_builds_no_character_table(capsys, monkeypatch):
    """Text output reads the conductor buckets only: it must not need the
    character table.  JSON output streams its rows from chartab.table_rows
    and builds no Character either."""
    golden = (Path(__file__).parent / "golden" / "analyze-2-2401.out").read_text()
    json_out = run(capsys, "analyze", "2", "2401", "--json")[1]

    def forbidden(*args, **kwargs):
        raise RuntimeError("analyze must not build per-character data")

    monkeypatch.setattr(chartab, "Character", forbidden)
    assert run(capsys, "analyze", "2", "2401") == (0, golden, "")
    assert run(capsys, "analyze", "2", "2401", "--json") == (0, json_out, "")


def test_analyze_detects_a_census_moved_between_buckets(planted):
    """analyze 10 9, in text and JSON, with a character of (3,2,1) moved
    between buckets of its census (3 is UNIT with s = 1)."""
    *clean, (code, _, err), (json_code, _, json_err) = planted("census-moved analyze")
    assert [run[0] for run in clean] == [0, 0]
    assert code == 3 and "internal inconsistency" in err
    assert json_code == 3 and "internal inconsistency" in json_err


test_analyze_detects_a_census_moved_between_buckets_under_O = test_analyze_detects_a_census_moved_between_buckets


def _run_quiet(*argv):
    """run() without capsys, which hypothesis cannot reset between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


@st.composite
def radical_inputs(draw):
    """(a, m) with every prime of m odd and at most 13, each to a power
    r <= 3; a is a signed product of small prime powers, so some draws
    violate the hypotheses (a = +-1, a perfect power, v_p(a) % p = 0)."""
    odd = st.sampled_from((3, 5, 7, 11, 13))
    m_part = draw(st.dictionaries(odd, st.integers(1, 3), min_size=1, max_size=2))
    a_part = draw(st.dictionaries(st.sampled_from((2, 3, 5, 7, 11, 13)), st.integers(1, 4), max_size=3))
    sign = draw(st.sampled_from((1, -1)))
    m = math.prod(q**r for q, r in m_part.items())
    a = sign * math.prod(q**e for q, e in a_part.items())
    return a, m


DISC_LINE = re.compile(r"^  v_(\d+)\(disc\): sum=(\d+), closed=(\d+), different=(\d+), agree=(true|false)$", re.M)


@settings(max_examples=50, deadline=None, database=None)
@given(radical_inputs(), st.data())
def test_analyze_text_json_and_prime_blocks_agree(am, data):
    a, m = am
    code, text = _run_quiet("analyze", str(a), str(m))
    assert code in (0, 2)
    json_code, out = _run_quiet("analyze", str(a), str(m), "--json")
    assert json_code == code
    if code == 2:
        return
    report = json.loads(out)
    from_json = {
        b["p"]: tuple(b["conductors"]["v_p_disc"][key] for key in ("sum", "closed", "different", "agree"))
        for b in report["primes"]
        if "conductors" in b
    }
    from_text = {
        int(p): (int(x), int(y), int(z), agree == "true")
        for p, x, y, z, agree in DISC_LINE.findall(text)
    }
    assert from_text == from_json
    p = data.draw(st.sampled_from([b["p"] for b in report["primes"]]))
    code, out = _run_quiet("analyze", str(a), str(m), "--prime", str(p), "--json")
    assert code == 0
    assert json.loads(out) == next(b for b in report["primes"] if b["p"] == p)


# ---------------------------------------------------------------------------
# verify


def test_verify_single_group(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--r", "2", "--s", "2")
    assert code == 0
    assert "0 failed" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--r", "2", "--s", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    (entry,) = report["groups"]
    assert entry["group"] == {"p": 3, "r": 2, "s": 2, "order": 54}
    assert entry["oracle"]["ok"] is True
    names = {row["name"] for row in entry["unit_checks"]}
    assert {"herbrand_roundtrip", "conductor_two_routes"} <= names
    assert "eisenstein_checks" in entry  # s == r


def test_verify_respects_max_order(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "7", "--r", "3", "--s", "3", "--max-order", "1000"
    )
    assert code == 0
    assert "SKIP" in out and "exceeds bound 1000" in out


def below_the_bound(bound, p, r):
    return f"radical-ram verify: error: --max-order {bound} is below the order of the smallest group, p={p} r={r} s=0\n"


@pytest.mark.parametrize("flag", ["0", "-3"])
def test_verify_nonpositive_bound_is_a_usage_error(capsys, flag):
    """A bound below 1 would skip every group and pass vacuously."""
    code, out, err = run(capsys, "verify", "--p", "3", "--max-order", flag)
    assert (code, out, err) == (1, "", below_the_bound(flag, 3, 1))


@pytest.mark.parametrize("argv,p,r", [
    (["--p", "3", "--r", "9000"], 3, 9000),
    (["--r", "4000", "--json"], 3, 4000),
    (["--p", "3", "--r", "12"], 3, 12),
    (["--p", "7", "--r", "3", "--max-order", "293"], 7, 3),
    (["--p", "200003"], 200003, 1),
    (["--max-order", "1"], 3, 1),
], ids=["huge-r", "huge-r-json", "r-past-bound", "p-r-past-bound", "huge-p", "default-sweep"])
def test_verify_sweep_past_the_bound_is_a_usage_error(capsys, argv, p, r):
    """A sweep whose smallest group, the s = 0 group of its least p and r,
    is above the bound would only print skip entries: a usage error
    instead, one line on stderr, with no order written out."""
    code, out, err = run(capsys, "verify", *argv)
    bound = argv[-1] if "--max-order" in argv else "200000"
    assert (code, out, err) == (1, "", below_the_bound(bound, p, r))


def test_verify_admits_a_sweep_whose_smallest_group_is_at_the_bound(capsys):
    """(7,3,0) has order 294: it is checked, and the rest of the sweep is
    skipped."""
    code, out, _ = run(capsys, "verify", "--p", "7", "--r", "3", "--max-order", "294")
    assert code == 0
    assert out.splitlines()[-1] == "14 checks passed, 0 failed, 3 groups skipped"


def test_verify_resource_limit_past_the_oracle_is_exit_4(capsys, monkeypatch):
    """Only the oracle's refusal is a skip entry: a resource limit from
    the self-checks' context, as factorint's budget, is exit 4."""

    def over_budget(*args):
        raise arith.ResourceLimitError("factorint: Pollard-Brent budget spent")

    monkeypatch.setattr(cli, "wild_context", over_budget)
    for flags in ([], ["--json"]):
        code, out, err = run(capsys, "verify", "--p", "3", "--r", "1", *flags)
        assert (code, out, err) == (4, "", "resource limit: factorint: Pollard-Brent budget spent\n")


def _allocate_4_eib(G):
    """numpy's own MemoryError: no allocator can serve 4 EiB."""
    import numpy as np

    np.empty(1 << 62, dtype=np.uint8)


def _raise_memory_error(G):
    raise MemoryError


@pytest.mark.parametrize("check,err", [(_raise_memory_error, "resource limit: out of memory\n"),
                                       (_allocate_4_eib, "resource limit: Unable to allocate 4.00 EiB")],
                         ids=["MemoryError", "numpy"])
def test_verify_out_of_memory_in_a_check_is_exit_4(capsys, monkeypatch, check, err):
    """Running out of memory inside an oracle check is a resource limit:
    exit 4 with one stderr line and nothing on stdout, neither a failed
    check (exit 3) nor a skipped group."""
    monkeypatch.setattr(oracle, "orthogonality_check", check)
    for flags in ([], ["--json"]):
        code, out, got = run(capsys, "verify", "--p", "3", "--r", "1", *flags)
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert got.startswith(err) and got.count("\n") == 1


def _verify_rows(out):
    """(section, check) -> row over every check row of a verify --json report."""
    rows = {}
    for entry in json.loads(out)["groups"]:
        for section in ("unit_checks", "eisenstein_checks"):
            for row in entry.get(section, ()):
                rows[(section, row["name"])] = row
        for row in entry["oracle"]["checks"]:
            rows[("oracle", row["name"])] = row
    return rows


def test_verify_assertion_in_oracle_check_is_a_fail_row(capsys, monkeypatch):
    argv = ("verify", "--p", "3", "--r", "1", "--s", "1", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    clean = _verify_rows(out)

    def boom(G):
        raise AssertionError("boom")

    monkeypatch.setattr(oracle, "orthogonality_check", boom)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    rows = _verify_rows(out)
    failed = rows[("oracle", "row_orthogonality")]
    assert failed["status"] == "fail" and "boom" in failed["detail"]
    assert rows.keys() == clean.keys()
    others = [key for key in rows if key != ("oracle", "row_orthogonality")]
    assert all(rows[key] == clean[key] for key in others)


def test_verify_catches_one_negated_value(planted):
    """The values of the small group on its u = 7 classes turned into
    their negatives at twist (0, 1), by moving value_table's eb exponent
    there half a turn without flipping the sign, must fail the quotient
    lift at that twist.  The batched orthogonality engine reads the same
    table and fails too; every other check passes."""
    (clean_code, clean_out, _), (code, out, _) = planted("negated-value")
    assert (clean_code, code) == (0, 3)
    clean, rows = _verify_rows(clean_out), _verify_rows(out)
    assert rows.keys() == clean.keys()
    failed = rows[("oracle", "quotient_lift")]
    assert failed["status"] == "fail"
    assert failed["detail"] == {"k": 1, "twist": [0, 1], "class_key": [7, 0]}
    batched = rows[("oracle", "row_orthogonality")]
    assert batched["status"] == "fail" and batched["detail"] == {"pair_kind": "linear-linear", "delta": [0, 1]}
    hit = {("oracle", "quotient_lift"), ("oracle", "row_orthogonality")}
    assert all(rows[key] == clean[key] for key in rows if key not in hit)


test_verify_catches_one_negated_value_under_O = test_verify_catches_one_negated_value


def test_verify_catches_a_census_moved_between_buckets(planted):
    [(code, out, _)] = planted("census-moved verify")
    assert code == 3
    row = _verify_rows(out)[("unit_checks", "conductor_two_routes")]
    assert row["status"] == "fail"
    assert "(level 0, prim_degree 1): 1 characters, census 2" in row["detail"]


test_verify_catches_a_census_moved_between_buckets_under_O = test_verify_catches_a_census_moved_between_buckets


def test_degree_square_sum_shows_sum_and_order(planted):
    """A level-1 degree one too large fails degree_square_sum with the
    sum and the order as its detail."""
    [(code, out, _)] = planted("degree-square-sum")
    assert code == 3
    checks = {entry["group"]["s"]: {row["name"]: row for row in entry["oracle"]["checks"]}
              for entry in json.loads(out)["groups"]}
    assert checks[0]["degree_square_sum"]["status"] == "pass"
    assert checks[1]["degree_square_sum"] == {"name": "degree_square_sum", "status": "fail",
                                              "detail": {"sum": 11, "order": 6}}


test_degree_square_sum_shows_sum_and_order_under_O = test_degree_square_sum_shows_sum_and_order


# The oracle checks each fault fails, in a group of depth s; every other
# check passes.  "abs" reaches row_orthogonality through the induced
# levels only, and frobenius_induction through the coefficients.  "eb"
# reaches quotient_lift wherever it runs (s >= 1): the small group's last
# class is the pullback of more upstairs classes than the big group's,
# and at s = r the kernel census sees the identity.  "step" reaches no
# check that reads value_table itself: only the null-subgroup scan
# compares the stepped rows chartab prints with the directly evaluated
# exponents.
PRINTED_VALUE_REACH = {
    "abs": lambda s: {"frobenius_induction"} | ({"row_orthogonality"} if s >= 1 else set()),
    "eb": lambda s: {"row_orthogonality", "null_subgroup_scan"} | ({"quotient_lift"} if s >= 1 else set()),
    "step": lambda s: {"null_subgroup_scan"},
}
PRINTED_VALUE_FAULTS = list(PRINTED_VALUE_REACH)


def _assert_printed_value_caught(name, runs):
    """A wrong value in the table chartab prints changes what chartab
    prints, and verify, which checks that same table, exits 3 and fails
    exactly the checks the fault reaches, in every group."""
    clean, clean_verify, faulty, (code, out, _) = runs
    assert (clean[0], clean_verify[0], faulty[0]) == (0, 0, 0) and faulty[1] != clean[1]
    assert code == 3, name
    for entry in json.loads(out)["groups"]:
        failed = {row["name"] for row in entry["oracle"]["checks"] if row["status"] == "fail"}
        assert failed == PRINTED_VALUE_REACH[name](entry["group"]["s"]), (name, entry["group"])


@pytest.mark.parametrize("name", PRINTED_VALUE_FAULTS)
def test_verify_catches_a_wrong_printed_value(name):
    _assert_printed_value_caught(name, faults.run(f"printed-value {name}"))


def test_verify_catches_a_wrong_printed_value_under_O(under_O):
    for name in PRINTED_VALUE_FAULTS:
        _assert_printed_value_caught(name, under_O[f"printed-value {name}"])


# Per rad(n) table planted with one wrong entry, the one check that fails
# in every group of p = 3, r = 2, with its detail: row orthogonality
# reduces its bins in Z[zeta_6] through the table of 6, and the Frobenius
# check its sums in Z[zeta_9] through the table of 3.
RADICAL_FAULTS = {
    6: {"row_orthogonality": {"pair_kind": "linear-linear", "delta": [1, 1]}},
    3: {"frobenius_induction": {"class_key": [1, 0], "reason": "non-integer sum"}},
}


def _assert_radical_fault_caught(rad, runs):
    """verify exits 3 and exactly the check that reduces through the
    planted table fails, in every group."""
    [(code, out, _)] = runs
    assert code == 3
    for entry in json.loads(out)["groups"]:
        failed = {row["name"]: row["detail"] for row in cli._iter_check_rows(entry) if row["status"] == "fail"}
        assert failed == RADICAL_FAULTS[rad], (rad, entry["group"])


def test_verify_catches_one_wrong_entry_of_the_radical_table():
    """One entry of the small rad(n) = 6 reduction table one off fails
    row orthogonality: the reduction through the radical is not a vacuous
    pass."""
    _assert_radical_fault_caught(6, faults.run("radical 6"))


def test_verify_catches_one_wrong_entry_of_the_frobenius_radical_table():
    """One entry of the rad(p^r) = p table one off fails the Frobenius
    check, whose sums live in Z[zeta_(p^r)]."""
    _assert_radical_fault_caught(3, faults.run("radical 3"))


def test_verify_catches_one_wrong_entry_of_the_radical_table_under_O(under_O):
    for rad in RADICAL_FAULTS:
        _assert_radical_fault_caught(rad, under_O[f"radical {rad}"])


def _assert_prim_degree_caught(argv, runs):
    """verify's elementwise null-subgroup scan and the census checks of
    analyze --json and chartab each catch a closed-form primitive degree
    that is off by one where p | b."""
    [(code, out, _)] = runs
    assert code == 3
    if argv[0] == "verify":
        assert _verify_rows(out)[("oracle", "null_subgroup_scan")]["status"] == "fail"
    else:
        assert out == ""


@pytest.mark.parametrize("argv", PRIM_DEGREE_ARGVS)
def test_wrong_prim_degree_is_caught(argv):
    _assert_prim_degree_caught(argv, faults.run("prim-degree " + " ".join(argv)))


def test_wrong_prim_degree_is_caught_under_O(under_O):
    for argv in PRIM_DEGREE_ARGVS:
        _assert_prim_degree_caught(argv, under_O["prim-degree " + " ".join(argv)])


def test_cross_checks_fail(planted):
    """Preconditions raise, and a broken definitional conductor route
    ends in exit 3.  The route reads each step's normal form once and
    takes a step (x, y) to escape C(p^s) x| G(p^r)^t iff y < t; reading y
    one lower makes that y <= t, the containment test that compares y
    strictly."""
    assert [exc[0] for exc in planted("preconditions")] == ["AssertionError"] * 3
    (verify_code, _, _), (analyze_code, _, analyze_err) = planted("strict-y")
    assert (verify_code, analyze_code) == (3, 3)
    assert analyze_err.startswith("internal inconsistency: conductor mismatch")


test_cross_checks_fail_under_O = test_cross_checks_fail


def test_verify_catches_a_lower_break_moved_by_one(planted):
    """With every lower filtration's last break one too large, verify
    exits 3 and the herbrand_roundtrip row of every wild context fails:
    unit s = 0, 1, 2 and Eisenstein s = 2."""
    [(code, out, _)] = planted("moved-break")
    assert code == 3
    rows = [row for entry in json.loads(out)["groups"] for row in cli._iter_check_rows(entry)
            if row["name"] == "herbrand_roundtrip"]
    assert [row["status"] for row in rows] == ["fail"] * 4


test_verify_catches_a_lower_break_moved_by_one_under_O = test_verify_catches_a_lower_break_moved_by_one


def _assert_printed_f_caught(runs):
    """With the printed form of f off by one, verify fails every
    conductor_two_routes row and exits 3, and analyze exits 3 with an
    empty stdout and one inconsistency line."""
    (verify_code, verify_out, _), (analyze_code, analyze_out, analyze_err) = runs
    assert verify_code == 3
    rows = [row for entry in json.loads(verify_out)["groups"] for row in cli._iter_check_rows(entry)
            if row["name"] == "conductor_two_routes"]
    assert len(rows) == 4  # unit s = 0, 1, 2 and Eisenstein s = 2
    for row in rows:
        assert row["status"] == "fail"
        assert row["detail"].startswith("printed conductor mismatch at p=3 r=2 ")
    assert (analyze_code, analyze_out) == (3, "")
    assert analyze_err == ("internal inconsistency: printed conductor mismatch at p=3 r=2 s=2 UNIT: "
                           "deg * (1 + c) = 0 != printed 1 for lev=0, pr=0\n")


def test_printed_conductor_off_by_one_is_caught():
    _assert_printed_f_caught(faults.run("printed-f"))


def test_conductor_mutations_are_caught_under_O(under_O):
    """A shifted local closed form fails disc_vp_global's two global
    routes, and a printed f off by one fails verify and analyze."""
    message = "global discriminant routes disagree at p=3, r=2, s=1: 96 vs 93"
    assert under_O["closed-shifted"] == [["AssertionError", message]]
    _assert_printed_f_caught(under_O["printed-f"])


def test_verify_other_exception_in_a_check_is_a_fail_row(planted):
    """A non-assertion exception inside a check is that check's fail row,
    named by its type; the report is still printed."""
    (clean_code, clean_out, _), (code, out, _) = planted("other-exception")
    assert (clean_code, code) == (0, 3)

    def all_rows(out):
        return [row for entry in json.loads(out)["groups"] for row in cli._iter_check_rows(entry)]

    clean, rows = all_rows(clean_out), all_rows(out)
    assert len(rows) == len(clean)
    hit = 0
    for row, before in zip(rows, clean):
        if row["name"] == "conductor_level_subtotals":
            hit += 1
            assert row == {
                "name": "conductor_level_subtotals",
                "status": "fail",
                "detail": "ValueError: no closed subtotals",
            }
        else:
            assert row == before
    assert hit == 3  # unit checks of (3,1,0) and (3,1,1), Eisenstein of (3,1,1)


test_verify_other_exception_in_a_check_is_a_fail_row_under_O = test_verify_other_exception_in_a_check_is_a_fail_row


def test_verify_usage_errors(capsys):
    code, _, err = run_usage_error(capsys, "verify", "--p", "4")
    assert code == 1 and "odd prime" in err
    code, _, err = run_usage_error(capsys, "verify", "--r", "2", "--s", "3")
    assert code == 1 and "exceeds" in err


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_verify_s_above_every_r_is_a_usage_error(capsys, flags):
    """An --s above every r of the sweep names no group, so it would
    check nothing: a usage error with empty stdout, not an empty pass."""
    for argv in (["--s", "4"], ["--p", "3", "--s", "4"], ["--r", "1", "--s", "2"]):
        code, out, err = run_usage_error(capsys, "verify", *argv, *flags)
        errors = [line for line in err.splitlines() if "error:" in line]
        assert (code, out) == (1, ""), argv
        assert len(errors) == 1 and f"--s {argv[-1]} exceeds" in errors[0], err


# ---------------------------------------------------------------------------
# chartab


def test_chartab_text(capsys):
    code, out, _ = run(capsys, "chartab", "3", "1", "1")
    assert code == 0
    assert "order 6" in out
    assert "induced" in out and "0  -1  2" in out


def test_chartab_json_values(capsys):
    code, out, _ = run(capsys, "chartab", "3", "1", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == {"p": 3, "r": 1, "s": 1, "order": 6}
    assert payload["root_of_unity_order"] == 2
    assert [c["degree"] for c in payload["characters"]] == [1, 1, 2]
    # induced row: 0 off the torsion depth, -1 on the shallow classes,
    # p - 1 = 2 on the deep ones
    assert payload["values"][2] == [[0, 0], [-1, 0], [2, 0]]


def test_chartab_json_byte_identical(capsys):
    _, out1, _ = run(capsys, "chartab", "3", "2", "1", "--json")
    _, out2, _ = run(capsys, "chartab", "3", "2", "1", "--json")
    assert out1 == out2


# sha256 of chartab outputs with longer runs of stepped rows than any
# golden case (6 linear runs of 49 rows at (7, 3, 3), 12 of 13 at
# (13, 2, 2)), as printed when every row was computed cell by cell
LONG_RUN_DIGESTS = {
    ("7", "3", "3", "--json"): "185876dedd3de2fcfac0d8eecf78e7d4c496b2c3e6e215441d9d7944925464bd",
    ("13", "2", "2", "--json"): "70c88bcaf5cd9dd4be7a10bc84f8a8d6d76254038717c3d8f88d1899c3524fbb",
    ("7", "3", "3"): "e714181c5088e22e3e2aeda1c7e883f66d4205cb47b250abb7dec861bbbdc347",
}


@pytest.mark.parametrize("argv", LONG_RUN_DIGESTS, ids=" ".join)
def test_chartab_long_runs_keep_their_digest(capsys, argv):
    code, out, _ = run(capsys, "chartab", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_RUN_DIGESTS[argv]


@pytest.mark.parametrize("p,r,s", CELL_GRID)
def test_chartab_json_cells_match_the_characters(capsys, p, r, s):
    """chartab --json, read back from its text, against its table computed
    cell by cell from the tests' reference (character_table,
    char_coefficient, linear_exponent) and all_classes: values[i][j] is
    [char_coefficient, linear_exponent, or 0 where the coefficient is].
    The route shares no row template and no class_exponents with the
    writer's, so it catches a wrong value baked into a template, which
    a test that parses the rendered rows back cannot."""
    G = GroupDesc(p, r, s)
    code, out, _ = run(capsys, "chartab", str(p), str(r), str(s), "--json")
    assert code == 0
    payload = json.loads(out)
    table, classes = character_table(G), all_classes(G)
    assert payload["classes"] == [
        {"u": cls.representative.u, "beta": cls.beta, "alpha": cls.alpha, "size": cls.size} for cls in classes
    ]
    assert payload["characters"] == [character_json(chi[1:]) for chi in table]
    assert len(payload["values"]) == len(table)
    for chi, row in zip(table, payload["values"]):
        want = []
        for cls in classes:
            coeff = char_coefficient(chi, cls)
            want.append([coeff, linear_exponent(chi.twist, cls.representative.u, G) if coeff else 0])
        assert row == want, chi


def test_chartab_characters_outside_the_census_exit_3(planted):
    """A streamed row whose bucket has no template fails as outside the
    census: the census pass sees the clean table, the stream one row
    more, in a bucket the census does not have."""
    [(code, _, err)] = planted("stray-row")
    assert code == 3
    assert err == "internal inconsistency: character ('induced', (0, 0), 2, 1, 3) outside the census\n"


test_chartab_characters_outside_the_census_exit_3_under_O = test_chartab_characters_outside_the_census_exit_3


def readme_blocks():
    """(info string, body) of every fenced code block in README."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return re.findall(r"^```([^\n]*)\n(.*?)^```", text, re.M | re.S)


def readme_examples():
    """(argv, stdout) of every README code block that opens with a
    `$ radical-ram ...` line: the command, then its exact output."""
    examples = []
    for _, block in readme_blocks():
        first, _, rest = block.partition("\n")
        if first.startswith("$ radical-ram "):
            examples.append((shlex.split(first)[2:], rest))
    return examples


def test_readme_examples(capsys):
    """Each README example prints exactly what README shows."""
    examples = readme_examples()
    assert examples
    for argv, shown in examples:
        assert run(capsys, *argv)[1] == shown, argv


def test_readme_python_blocks_run(capsys):
    """Each README `python` block runs as written and prints something."""
    blocks = [body for info, body in readme_blocks() if info.strip() == "python"]
    assert blocks
    for body in blocks:
        exec(compile(body, "README.md", "exec"), {})
        assert capsys.readouterr().out


def _assert_row_fault_caught(name, argv, runs):
    """A character moved to another bucket, a row outside the census,
    and a short stream each exit 3 in every command that streams table
    rows; the first two before anything is written."""
    (clean_code, _, _), (code, out, err) = runs
    assert (clean_code, code) == (0, 3), (name, argv)
    if name == "short-stream":
        assert err.startswith("internal inconsistency: streamed")
        assert "were stated" in err
    else:
        assert out == "", (name, argv)
        assert "against census" in err


@pytest.mark.parametrize("name", ROW_FAULTS)
@pytest.mark.parametrize("argv", FAULT_ARGVS, ids=" ".join)
def test_row_faults_exit_3(name, argv):
    _assert_row_fault_caught(name, argv, faults.run(f"rows {name} " + " ".join(argv)))


def test_row_faults_exit_3_under_O(under_O):
    for name in ROW_FAULTS:
        for argv in FAULT_ARGVS:
            _assert_row_fault_caught(name, argv, under_O[f"rows {name} " + " ".join(argv)])


def test_chartab_checks_its_census(planted):
    """A table whose (level, prim_degree) histogram is not the census
    exits 3 and prints nothing; the census of (3,2,2) is untouched."""
    *moved, (other_code, _, _) = planted("census-moved chartab")
    for code, out, err in moved:
        assert code == 3 and out == ""
        assert "internal inconsistency: character table against census" in err
    assert other_code == 0


test_chartab_checks_its_census_under_O = test_chartab_checks_its_census


def test_chartab_usage_errors(capsys):
    code, _, err = run_usage_error(capsys, "chartab", "4", "1", "1")
    assert code == 1 and "odd prime" in err
    code, _, err = run_usage_error(capsys, "chartab", "3", "2", "5")
    assert code == 1 and "0..r" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_usage_error(capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# import path


def _run_python(code, *args, flags=()):
    src = Path(radical_ram.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


IMPORTS_AFTER_ANALYZE = """
import contextlib, io, json, sys
unwanted = {"sympy", "numpy", "dataclasses", "inspect"}
import radical_ram.cli
loaded = [sorted(unwanted & set(sys.modules))]
with contextlib.redirect_stdout(io.StringIO()):
    code = radical_ram.cli.main(["analyze", "2", "2401"])
loaded.append(sorted(unwanted & set(sys.modules)))
sys.stdout.write(json.dumps([code, loaded]))
"""


def test_cli_imports_no_sympy_numpy_dataclasses_or_inspect():
    """numpy is imported by verify only, and sympy not at all.  The
    records are named tuples, so the CLI's start-up pays for neither
    dataclasses nor the inspect module it imports.  The child runs with
    -S, so that no site hook can import a module or hide one."""
    assert json.loads(_run_python(IMPORTS_AFTER_ANALYZE, flags=["-S"])) == [0, [[], []]]


def test_src_modules_use_every_name_they_import():
    """Every name a module imports is read somewhere in it.  __init__.py
    imports names to re-export them and is exempt."""
    unused = []
    for path in sorted(Path(radical_ram.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_src_has_no_assert_statement():
    """Every check fails through arith.ensure, which python -O keeps, and
    ensure is the one raise of AssertionError; an assert statement would
    vanish under -O.  Nor does the package read __debug__ or sys.flags,
    the other ways -O could change what it does: so the planted faults
    of tests/faults.py meet the same program with and without -O."""
    asserts, raises, reads = [], [], []
    for path in sorted(Path(radical_ram.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                asserts.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Raise) and "AssertionError" in ast.unparse(node):
                raises.append(path.name)
            elif (isinstance(node, ast.Name) and node.id == "__debug__"
                  or isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.flags"
                  or isinstance(node, ast.ImportFrom) and node.module == "sys"
                  and "flags" in [alias.name for alias in node.names]):
                reads.append(f"{path.name}:{node.lineno}")
    assert asserts == []
    assert raises == ["arith.py"]
    assert reads == []


def test_helper_modules_with_asserts_are_rewritten():
    """Every module of tests/ that is not a test module and holds an
    assert statement is registered in conftest.py for pytest's assert
    rewriting, without which its asserts vanish under python -O."""
    tests = Path(__file__).parent
    conftest = ast.parse((tests / "conftest.py").read_text())
    registered = {arg.value for node in ast.walk(conftest)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.register_assert_rewrite"
                  for arg in node.args}
    with_asserts = {path.stem for path in tests.glob("*.py")
                    if not path.name.startswith("test_") and path.name != "conftest.py"
                    and any(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(path.read_text())))}
    assert with_asserts and with_asserts <= registered


@pytest.mark.parametrize("target", ["chartab.no_such_function", "no_such_module.table_rows", "table_rows"])
def test_plant_raises_on_a_missing_target(target):
    """A plant whose target does not exist raises, so that a renamed
    function cannot turn a planted fault into a clean run."""
    with pytest.raises(LookupError, match="does not exist"), faults.plant(target, lambda real: real):
        pass


def _code_names(tree):
    """Every name a module's code defines, imports or reads: function and
    class names, each dotted part of an imported name and its alias, and
    every name and attribute read or bound.  Docstrings and comments are
    not code."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
                names.add(alias.asname)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# The tests' per-cell reference, which only tests/reference.py may hold.
REFERENCE_ONLY = {"CycInt", "char_value", "char_monomial", "character_table", "classes_bruteforce", "order_at"}


def test_src_holds_one_route_to_a_character_value():
    """The package computes a character value through value_table alone:
    no module of src/ defines, imports or reads the per-cell reference of
    the tests, and radical_ram exports none of it."""
    found = {}
    for path in sorted(Path(radical_ram.__file__).parent.glob("*.py")):
        if hits := REFERENCE_ONLY & _code_names(ast.parse(path.read_text())):
            found[path.name] = sorted(hits)
    assert found == {}
    assert REFERENCE_ONLY.isdisjoint(radical_ram.__all__)
    assert [name for name in sorted(REFERENCE_ONLY) if hasattr(radical_ram, name)] == []


def test_reference_reads_no_closed_form_it_checks():
    """tests/reference.py neither imports nor reads the closed-form values
    it is the reference for, nor the oracle's canonical pairs."""
    closed = {"value_table", "class_exponents", "exponent_row", "exponent_rows", "packed_rows", "_canonical",
              "escape_breaks", "conductor_buckets"}
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    assert sorted(closed & _code_names(tree)) == []


GOLDEN_WITHOUT_SYMPY = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # any import of sympy now fails
from radical_ram.cli import main
outs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        outs.append([main(argv), buf.getvalue()])
sys.stdout.write(json.dumps(outs))
"""


def test_golden_cases_run_without_sympy():
    golden = Path(__file__).parent / "golden"
    cases = json.loads((golden / "cases.json").read_text())
    names = ["analyze-2-27-json", "chartab-3-2-1-json", "verify-p3-r2-json"]
    outs = json.loads(_run_python(GOLDEN_WITHOUT_SYMPY, json.dumps([cases[n]["argv"] for n in names])))
    for name, (code, out) in zip(names, outs):
        assert code == cases[name]["exit"], name
        assert out.encode() == (golden / f"{name}.out").read_bytes(), name


PEAK_RSS = """
import sys
from radical_ram.cli import main

class Discard:
    def write(self, s):
        return len(s)

    def flush(self):
        pass

out, sys.stdout = sys.stdout, Discard()
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
out.write(f"{code} {peak_kb}\\n")
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
@pytest.mark.parametrize("argv,limit_mb", [
    (["chartab", "11", "3", "3", "--json"], 100),  # 1,343 classes: 1.8 M values, 72 MB written
    (["analyze", "2", "161051", "--json"], 60),  # 162,515 conductor rows, 54 MB written
], ids=["chartab-11-3-3", "analyze-2-11^5"])
def test_json_output_memory_does_not_grow_with_the_table(argv, limit_mb):
    """Peak RSS of one process running the command, read by the process
    itself as its VmHWM.  Not ru_maxrss: Linux carries into it the peak of
    the image that exec replaced, here a fork of the test runner.  The
    rows are streamed, so the peak stays far below the output size."""
    code, kb = map(int, _run_python(PEAK_RSS, *argv).split())
    assert code == 0
    assert kb / 1024 < limit_mb


# ---------------------------------------------------------------------------
# module entry point


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "radical_ram", "analyze", "2", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "agree=true" in proc.stdout


@pytest.mark.parametrize("argv,read", [
    (["chartab", "7", "3", "3", "--json"], 100),  # 4.9 MB, far beyond a pipe's buffer
    (["analyze", "2", "2401"], 0),  # a few lines, all written when the run flushes
], ids=["chartab-json-after-100-bytes", "text-analyze-before-its-first-byte"])
def test_closed_stdout_exits_141_quietly(argv, read):
    """A reader that closes stdout early, as `| head -c 100` does, ends
    the run with exit 141 and nothing on stderr: no BrokenPipeError
    traceback, and no second error when the interpreter flushes at exit."""
    env = {**os.environ, "PYTHONPATH": str(Path(radical_ram.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "radical_ram", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (cli.EXIT_PIPE, b"")
