"""Command-line interface: subcommands, exit codes, canonical JSON."""

import json
import subprocess
import sys

import pytest

from radical_ram import chartab, cli, oracle
from radical_ram.cli import main
from radical_ram.holomorph import GroupDesc


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

    def corrupted(ctx):
        payload = real(ctx)
        payload["v_p_disc"]["agree"] = False
        return payload

    monkeypatch.setattr(cli, "conductor_json", corrupted)
    code, _, err = run(capsys, "analyze", "2", "3")
    assert code == 3
    assert "internal inconsistency" in err


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


def test_verify_usage_errors(capsys):
    code, _, err = run_usage_error(capsys, "verify", "--p", "4")
    assert code == 1 and "odd prime" in err
    code, _, err = run_usage_error(capsys, "verify", "--r", "2", "--s", "3")
    assert code == 1 and "exceeds" in err


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


def test_chartab_usage_errors(capsys):
    code, _, err = run_usage_error(capsys, "chartab", "4", "1", "1")
    assert code == 1 and "odd prime" in err
    code, _, err = run_usage_error(capsys, "chartab", "3", "2", "5")
    assert code == 1 and "0..r" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_usage_error(capsys)
    assert code == 1


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
