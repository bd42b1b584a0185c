"""Golden corpus: the CLI's stdout and exit code on a fixed set of
invocations, compared byte for byte.

tests/golden/cases.json maps each case name to its argv and exit code;
tests/golden/<name>.out holds its stdout.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py

only for an intended output change, and record which output changed and
why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from radical_ram.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"


def load_cases():
    return json.loads((GOLDEN / "cases.json").read_text())


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return buf.getvalue().encode(), code


@pytest.mark.parametrize("name", sorted(load_cases()))
def test_golden(name):
    case = load_cases()[name]
    out, code = run_cli(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def regenerate():
    cases = load_cases()
    for name, case in cases.items():
        out, case["exit"] = run_cli(case["argv"])
        (GOLDEN / f"{name}.out").write_bytes(out)
    lines = [f"  {json.dumps(name)}: {json.dumps(case)}" for name, case in cases.items()]
    (GOLDEN / "cases.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(regenerate())
