"""Command-line interface: subcommands, exit codes, canonical JSON."""

import ast
import contextlib
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
from radical_ram import arith, chartab, cli, conductor, oracle, ramfil
from radical_ram.chartab import char_coefficient, character_json, character_table, linear_exponent
from radical_ram.cli import main
from radical_ram.holomorph import GroupDesc, all_classes

from helpers import ROW_FAULTS, faulty_table_rows, off_by_one_prim_degree


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

    def corrupted(ctx, characters):
        payload = real(ctx, characters)
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


def test_analyze_detects_internal_disagreement(capsys, monkeypatch):
    real = cli.conductor_json

    def corrupted(ctx, characters):
        payload = real(ctx, characters)
        payload["v_p_disc"]["agree"] = False
        return payload

    monkeypatch.setattr(cli, "conductor_json", corrupted)
    code, _, err = run(capsys, "analyze", "2", "3")
    assert code == 3
    assert "internal inconsistency" in err


def test_analyze_derives_each_prime_once(capsys, monkeypatch):
    """analyze 2 2401 has one tame prime (2) and one wild prime (7).  Each
    gets one upper and one lower filtration, the input is validated once,
    and factorint runs once on m, in validate, and once on |a|."""
    counts = {}
    for name in ("upper_filtration", "lower_filtration", "validate", "factorint"):
        real = getattr(ramfil, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)

        for module in (ramfil, cli, conductor):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
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


def test_analyze_wrong_factorization_exits_3(capsys, monkeypatch):
    """A split that does not divide is an internal inconsistency."""
    monkeypatch.setattr(arith, "_rho_divisor", lambda c, budget: (1009, budget))
    code, out, err = run(capsys, "analyze", "2", str(1000003 * 1000033))
    assert (code, out) == (3, "")
    assert err.startswith("internal inconsistency: factorint(")


def test_text_analyze_builds_no_character_table(capsys, monkeypatch):
    """Text output reads the conductor buckets only: it must not need the
    character table.  JSON output streams
    its rows from chartab.table_rows and builds neither either."""
    golden = (Path(__file__).parent / "golden" / "analyze-2-2401.out").read_text()
    json_out = run(capsys, "analyze", "2", "2401", "--json")[1]

    def forbidden(*args, **kwargs):
        raise RuntimeError("analyze must not build per-character data")

    monkeypatch.setattr(chartab, "character_table", forbidden)
    monkeypatch.setattr(chartab, "Character", forbidden)
    assert run(capsys, "analyze", "2", "2401") == (0, golden, "")
    assert run(capsys, "analyze", "2", "2401", "--json") == (0, json_out, "")


def _census_moved(monkeypatch):
    """count_by of (3,2,1) with one character moved from bucket (0, 2)
    to bucket (0, 1), in chartab, the census's one home."""
    real = chartab.count_by
    small = GroupDesc(3, 2, 1)

    def moved(k, t, G):
        n = real(k, t, G)
        if G == small and (k, t) == (0, 2):
            return n - 1
        if G == small and (k, t) == (0, 1):
            return n + 1
        return n

    monkeypatch.setattr(chartab, "count_by", moved)


def test_analyze_detects_a_census_moved_between_buckets(capsys, monkeypatch):
    assert run(capsys, "analyze", "10", "9")[0] == 0  # 3 is UNIT with s = 1
    _census_moved(monkeypatch)
    code, _, err = run(capsys, "analyze", "10", "9")
    assert code == 3 and "internal inconsistency" in err
    code, _, err = run(capsys, "analyze", "10", "9", "--json")
    assert code == 3 and "internal inconsistency" in err


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


def test_verify_bad_env_bound_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RADICAL_RAM_MAX_ORDER", "abc")
    code, out, err = run(capsys, "verify", "--p", "3", "--r", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "RADICAL_RAM_MAX_ORDER" in err


@pytest.mark.parametrize("env,flag", [(None, "0"), (None, "-3"), ("-5", None), ("0", None)])
def test_verify_nonpositive_bound_is_a_usage_error(capsys, monkeypatch, env, flag):
    """A bound below 1 would skip every group and pass vacuously."""
    monkeypatch.delenv("RADICAL_RAM_MAX_ORDER", raising=False)
    if env is not None:
        monkeypatch.setenv("RADICAL_RAM_MAX_ORDER", env)
    argv = ["verify", "--p", "3"] + (["--max-order", flag] if flag is not None else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert ("--max-order" if flag is not None else "RADICAL_RAM_MAX_ORDER") in err


def test_verify_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("RADICAL_RAM_MAX_ORDER", "50")
    code, out, _ = run(capsys, "verify", "--p", "3", "--r", "2", "--s", "2")
    assert code == 0
    assert "exceeds bound 50" in out


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


def test_verify_catches_one_negated_value(capsys, monkeypatch):
    """One value of the small group turned into its negative, by moving
    its exponent half a turn without flipping the sign, must fail the
    quotient lift.  The naive inner products of row_orthogonality see the
    same value and must fail too (a non-exact division, not a crash); the
    batched orthogonality engine and every other check do not read it."""
    argv = ("verify", "--p", "3", "--r", "2", "--s", "1", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    clean = _verify_rows(out)

    small = GroupDesc(3, 2, 1)
    real = chartab.linear_exponent

    def negated(twist, u, G):
        e = real(twist, u, G)
        if G == small and twist == (0, 1) and u == 7:
            m0 = chartab.twist_order(G)
            e = (e + m0 // 2) % m0
        return e

    monkeypatch.setattr(chartab, "linear_exponent", negated)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    rows = _verify_rows(out)
    failed = rows[("oracle", "quotient_lift")]
    assert failed["status"] == "fail"
    assert failed["detail"]["k"] == 1 and failed["detail"]["twist"] == [0, 1]
    naive = rows[("oracle", "row_orthogonality")]
    assert naive["status"] == "fail" and naive["detail"]["pair_kind"] == "naive-crosscheck"
    assert rows.keys() == clean.keys()
    hit = {("oracle", "quotient_lift"), ("oracle", "row_orthogonality")}
    assert all(rows[key] == clean[key] for key in rows if key not in hit)


def test_verify_catches_a_census_moved_between_buckets(capsys, monkeypatch):
    _census_moved(monkeypatch)
    code, out, _ = run(capsys, "verify", "--p", "3", "--r", "2", "--s", "1", "--json")
    assert code == 3
    row = _verify_rows(out)[("unit_checks", "conductor_two_routes")]
    assert row["status"] == "fail"
    assert "(level 0, prim_degree 1): 1 characters, census 2" in row["detail"]


@pytest.fixture
def prim_degree_off_by_one(monkeypatch):
    """chartab.prim_degree off by one where p | b, with no table or oracle
    result cached from before or after the mutation."""
    caches = (chartab.character_table, oracle._kernel_trivial_census, oracle.frobenius_induction_check)
    for fn in caches:
        fn.cache_clear()
    monkeypatch.setattr(chartab, "prim_degree", off_by_one_prim_degree(chartab.prim_degree))
    yield
    for fn in caches:
        fn.cache_clear()


PRIM_DEGREE_ARGVS = [
    ["verify", "--p", "3", "--r", "3", "--s", "1", "--json"],
    ["analyze", "2", "27", "--json"],
    ["chartab", "3", "3", "1", "--json"],
]


def _assert_prim_degree_caught(argv, code, out):
    assert code == 3
    if argv[0] == "verify":
        assert _verify_rows(out)[("oracle", "null_subgroup_scan")]["status"] == "fail"
    else:
        assert out == ""


@pytest.mark.parametrize("argv", PRIM_DEGREE_ARGVS)
def test_wrong_prim_degree_is_caught(capsys, prim_degree_off_by_one, argv):
    """verify's elementwise null-subgroup scan and the census checks of
    analyze --json and chartab each catch a closed-form primitive degree
    that is off by one."""
    code, out, _ = run(capsys, *argv)
    _assert_prim_degree_caught(argv, code, out)


MUTATED_RUNS = """
import contextlib, io, json, sys
if __debug__:
    sys.exit("expected python -O")
from radical_ram import chartab
from radical_ram.cli import main
from helpers import off_by_one_prim_degree
chartab.prim_degree = off_by_one_prim_degree(chartab.prim_degree)
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        runs.append([main(argv), out.getvalue()])
sys.stdout.write(json.dumps(runs))
"""


def test_wrong_prim_degree_is_caught_under_O():
    """The same mutation under `python -O`, in one process for all three
    runs, which share one start-up and one warm-up of the caches."""
    src = Path(radical_ram.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
    proc = subprocess.run([sys.executable, "-O", "-c", MUTATED_RUNS, json.dumps(PRIM_DEGREE_ARGVS)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert len(runs) == len(PRIM_DEGREE_ARGVS)
    for argv, (code, out) in zip(PRIM_DEGREE_ARGVS, runs):
        _assert_prim_degree_caught(argv, code, out)


CHECKS_UNDER_O = """
import contextlib, io, json, sys
from fractions import Fraction
if __debug__:
    sys.exit("expected python -O")
from radical_ram import conductor
from radical_ram.chartab import SubgroupDesc, subgroup_normal_form
from radical_ram.cli import main
from radical_ram.holomorph import GroupDesc
from radical_ram.ramfil import LOWER, UNIT, canonicalize, quotient_filtration, wild_context

def raises(fn, *args):
    try:
        fn(*args)
    except AssertionError:
        return True
    return False

raised = [
    raises(conductor.disc_vp_global, 15, 2, 3),
    raises(canonicalize, GroupDesc(3, 1, 1), LOWER, [(Fraction(1, 2), SubgroupDesc(1, 1))]),
    raises(quotient_filtration, wild_context(3, 2, 2, UNIT, 0).upper, SubgroupDesc(0, 1)),
]

def subgroup_contains(big, small, G):  # y compared strictly: a broken containment test
    a, b = subgroup_normal_form(big, G), subgroup_normal_form(small, G)
    return a.x >= b.x and a.y < b.y

conductor.subgroup_contains = subgroup_contains
runs = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        runs.append([main(argv), err.getvalue()])
sys.stdout.write(json.dumps([raised, runs]))
"""


def test_cross_checks_fail_under_O():
    """Under python -O, preconditions still raise, and a broken
    definitional conductor route still ends in exit 3."""
    src = Path(radical_ram.__file__).parents[1]
    argvs = [["verify", "--p", "3", "--r", "2"], ["analyze", "2", "9"]]
    proc = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_O, json.dumps(argvs)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    raised, ((verify_code, _), (analyze_code, analyze_err)) = json.loads(proc.stdout)
    assert raised == [True, True, True]
    assert (verify_code, analyze_code) == (3, 3)
    assert analyze_err.startswith("internal inconsistency: conductor mismatch")


PRINTED_F_ARGVS = [["verify", "--p", "3", "--r", "2", "--json"], ["analyze", "2", "9"]]


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


def test_printed_conductor_off_by_one_is_caught(capsys, monkeypatch):
    real = conductor._f_printed
    monkeypatch.setattr(conductor, "_f_printed", lambda *args: real(*args) + 1)
    _assert_printed_f_caught([run(capsys, *argv) for argv in PRINTED_F_ARGVS])


CONDUCTOR_MUTATIONS_UNDER_O = """
import contextlib, io, json, sys
if __debug__:
    sys.exit("expected python -O")
from radical_ram import conductor
from radical_ram.cli import main

closed, printed = conductor.disc_vp_local_closed, conductor._f_printed
conductor.disc_vp_local_closed = lambda ctx: closed(ctx) + 1
try:
    conductor.disc_vp_global(9, 10, 3)
    message = None
except AssertionError as exc:
    message = str(exc)
conductor.disc_vp_local_closed = closed
conductor._f_printed = lambda *args: printed(*args) + 1
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append([main(argv), out.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps([message, runs]))
"""


def test_conductor_mutations_are_caught_under_O():
    """Under python -O, a shifted local closed form still fails
    disc_vp_global's two global routes, and a printed f off by one still
    fails verify and analyze."""
    src = Path(radical_ram.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", CONDUCTOR_MUTATIONS_UNDER_O, json.dumps(PRINTED_F_ARGVS)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    message, runs = json.loads(proc.stdout)
    assert message == "global discriminant routes disagree at p=3, r=2, s=1: 96 vs 93"
    _assert_printed_f_caught(runs)


def test_verify_other_exception_in_a_check_is_a_fail_row(capsys, monkeypatch):
    """A non-assertion exception inside a check is that check's fail row,
    named by its type; the report is still printed."""
    argv = ("verify", "--p", "3", "--r", "1", "--json")

    def all_rows(out):
        return [row for entry in json.loads(out)["groups"] for row in cli._iter_check_rows(entry)]

    code, out, _ = run(capsys, *argv)
    assert code == 0
    clean = all_rows(out)

    def broken(ctx):
        raise ValueError("no closed subtotals")

    monkeypatch.setattr(conductor, "disc_subtotals_closed", broken)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    rows = all_rows(out)
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


# s = r groups have every level, and so every level's zero cells
CELL_GRID = [(3, 1, 0), (3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 3), (5, 2, 0), (5, 2, 2), (7, 2, 2), (5, 3, 3)]


@pytest.mark.parametrize("p,r,s", CELL_GRID)
def test_chartab_json_cells_match_the_characters(capsys, p, r, s):
    """chartab --json, read back from its text, against its table computed
    cell by cell from character_table and all_classes: values[i][j] is
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
    assert payload["characters"] == [character_json(chi.row) for chi in table]
    assert len(payload["values"]) == len(table)
    for chi, row in zip(table, payload["values"]):
        want = []
        for cls in classes:
            coeff = char_coefficient(chi, cls)
            want.append([coeff, linear_exponent(chi.twist, cls.representative.u, G) if coeff else 0])
        assert row == want, chi


def test_chartab_characters_outside_the_census_exit_3(capsys, monkeypatch):
    """A streamed row whose bucket has no template fails as outside the
    census: the census pass sees the clean table, the stream one row
    more, in a bucket the census does not have."""
    real = chartab.table_rows
    calls = []

    def with_stray(G):
        calls.append(G)
        yield from real(G)
        if len(calls) > 1:
            yield ("induced", (0, 0), 2, 1, G.r + 1)

    monkeypatch.setattr(cli, "table_rows", with_stray)
    code, _, err = run(capsys, "chartab", "3", "2", "1", "--json")
    assert code == 3
    assert err == "internal inconsistency: character ('induced', (0, 0), 2, 1, 3) outside the census\n"


def readme_examples():
    """(argv, stdout) of every README code block that opens with a
    `$ radical-ram ...` line: the command, then its exact output."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
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


FAULT_ARGVS = [["chartab", "3", "2", "1", "--json"], ["chartab", "3", "2", "1"], ["analyze", "10", "9", "--json"]]


def _assert_row_fault_caught(name, argv, code, out, err):
    assert code == 3, (name, argv)
    if name == "short-stream":
        assert err.startswith("internal inconsistency: streamed")
        assert "were stated" in err
    else:
        assert out == "", (name, argv)
        assert "against census" in err


@pytest.mark.parametrize("name", ROW_FAULTS)
@pytest.mark.parametrize("argv", FAULT_ARGVS, ids=" ".join)
def test_row_faults_exit_3(capsys, monkeypatch, name, argv):
    """A character moved to another bucket, a row outside the census,
    and a short stream each exit 3 in every command that streams table
    rows; the first two before anything is written."""
    assert run(capsys, *argv)[0] == 0
    faulty = faulty_table_rows(chartab.table_rows, name)
    monkeypatch.setattr(cli, "table_rows", faulty)
    monkeypatch.setattr(conductor, "table_rows", faulty)
    _assert_row_fault_caught(name, argv, *run(capsys, *argv))


ROW_FAULT_RUNS = """
import contextlib, io, json, sys
if __debug__:
    sys.exit("expected python -O")
from radical_ram import chartab, cli, conductor
from helpers import faulty_table_rows
real = chartab.table_rows
runs = []
for name, argv in json.loads(sys.argv[1]):
    cli.table_rows = conductor.table_rows = faulty_table_rows(real, name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append([cli.main(argv), out.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(runs))
"""


def test_row_faults_exit_3_under_O():
    """The same faults under python -O, in one process."""
    cases = [[name, argv] for name in ROW_FAULTS for argv in FAULT_ARGVS]
    src = Path(radical_ram.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
    proc = subprocess.run([sys.executable, "-O", "-c", ROW_FAULT_RUNS, json.dumps(cases)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert len(runs) == len(cases)
    for (name, argv), result in zip(cases, runs):
        _assert_row_fault_caught(name, argv, *result)


def test_chartab_checks_its_census(capsys, monkeypatch):
    """A table whose (level, prim_degree) histogram is not the census
    exits 3 and prints nothing."""
    _census_moved(monkeypatch)
    for argv in (("chartab", "3", "2", "1", "--json"), ("chartab", "3", "2", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "internal inconsistency: character table against census" in err
    assert run(capsys, "chartab", "3", "2", "2", "--json")[0] == 0


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


def _run_python(code, *args):
    src = Path(radical_ram.__file__).parents[1]
    env = {k: v for k, v in os.environ.items() if k != "RADICAL_RAM_MAX_ORDER"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


IMPORTS_AFTER_ANALYZE = """
import contextlib, io, json, sys
import radical_ram.cli
loaded = [sorted({"sympy", "numpy"} & set(sys.modules))]
with contextlib.redirect_stdout(io.StringIO()):
    code = radical_ram.cli.main(["analyze", "2", "2401"])
loaded.append(sorted({"sympy", "numpy"} & set(sys.modules)))
sys.stdout.write(json.dumps([code, loaded]))
"""


def test_cli_imports_neither_sympy_nor_numpy():
    """numpy is imported by verify only, and sympy not at all."""
    assert json.loads(_run_python(IMPORTS_AFTER_ANALYZE)) == [0, [[], []]]


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
    vanish under -O."""
    asserts, raises = [], []
    for path in sorted(Path(radical_ram.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                asserts.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Raise) and "AssertionError" in ast.unparse(node):
                raises.append(path.name)
    assert asserts == []
    assert raises == ["arith.py"]


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
