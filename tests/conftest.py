# Keeps the tests directory importable so suites can share helpers.py.
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# pytest rewrites the asserts of test modules only; the helper modules'
# asserts would vanish under python -O without this.
pytest.register_assert_rewrite("helpers", "reference", "faults")

import faults  # noqa: E402
import radical_ram  # noqa: E402


@pytest.fixture(scope="session")
def under_O():
    """{scenario: result} of every planted fault in faults.SCENARIOS, run
    by one python -O child."""
    env = {**os.environ, "PYTHONPATH": str(Path(radical_ram.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", str(Path(__file__).parent / "faults.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def planted(request):
    """name -> the outcomes of faults.SCENARIOS[name], run in process; in
    a test collected under a name that ends in _under_O, as the python -O
    child gave them.  A test checks both with one alias line,
    test_x_under_O = test_x."""
    if request.node.originalname.endswith("_under_O"):
        return request.getfixturevalue("under_O").__getitem__
    return faults.run
