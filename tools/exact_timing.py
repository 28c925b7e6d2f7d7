"""Time the exact route at the dimensions the command line reaches.

Prints one JSON line: the best of 5 calls of ``check_conjectures([d], mode)``
at d = 8..12 in the "max" and "3" modes, in seconds, and whether every
ratio matched its closed form. Each call builds and integrates from
scratch, since no table outlives a call. It uses the standard library
only, reads no environment and imports the package from the ``src/``
directory next to this one, so it runs from a source checkout:

    python3 tools/exact_timing.py

It exits 1 if a ratio did not match, and 0 otherwise; it checks no time.
"""

import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pauli_volumes.volume import check_conjectures  # noqa: E402

DIMENSIONS = range(8, 13)
MODES = ("max", "3")
REPEATS = 5


def best_of(d: int, mode: str) -> tuple[float, bool]:
    """The fastest of REPEATS calls at (d, mode), and whether all matched."""
    best, matched = float("inf"), True
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = check_conjectures([d], mode)
        best = min(best, time.perf_counter() - start)
        matched = matched and report.all_match
    return best, matched


def main() -> int:
    seconds: dict[str, dict[str, float]] = {}
    all_match = True
    for mode in MODES:
        seconds[mode] = {}
        for d in DIMENSIONS:
            best, matched = best_of(d, mode)
            seconds[mode][str(d)] = round(best, 6)
            all_match = all_match and matched
    print(json.dumps({
        "python": platform.python_version(),
        "best_of": REPEATS,
        "all_match": all_match,
        "seconds": seconds,
    }))
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
