"""pyproject.toml's pytest settings: a failing test reports as a failure."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_GIVEN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_given_test_exits_1_not_with_an_internal_error(tmp_path):
    # filterwarnings = error must not turn a warning raised while hypothesis
    # reports the failure into a pytest INTERNALERROR (exit 3)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN_TEST)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "test_fails.py"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True,
                            timeout=300)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
