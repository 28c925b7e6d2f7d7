"""The suite's own settings: a failing test is reported, not fatal."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# a failing property test, then a passing test that must still run
_PROBE = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    """Under the suite's settings (every warning an error) a failing @given
    test is reported as one failure and the tests after it still run: its
    failure report loads modules that warn on import, and those warnings
    must not turn into an INTERNALERROR that ends the session. The probe
    runs in a temporary directory, so nothing is written into the checkout."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(_PROBE)
    run = subprocess.run(
        [
            sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe),
        ],
        cwd=tmp_path, capture_output=True, text=True,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in run.stdout, out
    assert run.returncode == 1, out

