# Keeps the tests directory importable so suites can share helpers.py.
import pytest

# pytest rewrites the asserts of test modules only; the helper modules'
# asserts would vanish under python -O without this.
pytest.register_assert_rewrite("helpers", "reference")
