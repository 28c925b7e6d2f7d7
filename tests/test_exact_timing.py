"""tools/exact_timing.py compares two trees in one process."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "exact_timing.py"

# loads the script, runs one round per (mode, d) against the tree named on
# the command line, and checks that the other tree's package was loaded
# beside this one, not in its place
_DRIVER = """
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("exact_timing", sys.argv[1])
timing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(timing)
timing.ROUNDS = 1
code = timing.main([sys.argv[2]])
assert sys.modules["other_pauli_volumes.volume"] is not sys.modules["pauli_volumes.volume"]
sys.exit(code)
"""


def _compare(other_src: Path) -> tuple[int, dict]:
    run = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(SCRIPT), str(other_src)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.stderr == ""
    return run.returncode, json.loads(run.stdout)


def test_comparison_of_the_checkout_with_itself():
    code, record = _compare(ROOT / "src")
    assert code == 0
    assert record["all_match"] is True and record["same_numbers"] is True
    assert record["rounds"] == 1
    dims = [str(d) for d in range(8, 13)]
    for mode in ("max", "3"):
        for side in ("this", "other"):
            times = record["median_seconds"][side][mode]
            assert list(times) == dims and all(t > 0 for t in times.values())
        assert list(record["ratio"][mode]) == dims
        assert all(r > 0 for r in record["ratio"][mode].values())


def test_comparison_fails_when_the_trees_compute_different_numbers(tmp_path):
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "pauli_volumes", other / "pauli_volumes",
                    ignore=shutil.ignore_patterns("__pycache__"))
    volume = other / "pauli_volumes" / "volume.py"
    text = volume.read_text()
    old = "* chambers.symmetry_factor\n"
    assert text.count(old) == 1
    volume.write_text(text.replace(old, "* chambers.symmetry_factor * 2\n"))
    code, record = _compare(other)
    assert code == 1
    assert record["same_numbers"] is False and record["all_match"] is False
