"""Time the exact route at the dimensions the command line reaches.

Prints one JSON line: the best of 5 calls of ``check_conjectures([d], mode)``
at d = 8..12 in the "max" and "3" modes, in seconds, and whether every
ratio matched its closed form. Each call builds and integrates from
scratch, since no table outlives a call. It uses the standard library
only, reads no environment and imports the package from the ``src/``
directory next to this one, so it runs from a source checkout:

    python3 tools/exact_timing.py

Given the ``src/`` directory of a second checkout, it compares the two
trees in one process instead, since times taken minutes apart move with
the host's state:

    python3 tools/exact_timing.py /path/to/other/checkout/src

It loads the other tree's package under another name and runs ROUNDS
rounds; each round calls both trees once at every (mode, d), each tree
going first in every other round. Its JSON line holds each tree's median
seconds, the median over rounds of the ratio of the two calls of one round
(this tree over the other, so below 1 means this tree is faster),
``all_match`` (every ratio of both trees matched its closed form) and
``same_numbers`` (both trees computed the same ratios).

It exits 1 if a ratio did not match, or if the two trees differ, and 0
otherwise; it checks no time.
"""

import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pauli_volumes.volume import check_conjectures  # noqa: E402

DIMENSIONS = range(8, 13)
MODES = ("max", "3")
REPEATS = 5
ROUNDS = 31


def best_of(d: int, mode: str) -> tuple[float, bool]:
    """The fastest of REPEATS calls at (d, mode), and whether all matched."""
    best, matched = float("inf"), True
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = check_conjectures([d], mode)
        best = min(best, time.perf_counter() - start)
        matched = matched and report.all_match
    return best, matched


def load_other(src: Path):
    """The ``check_conjectures`` of the package under ``src``, imported as
    ``other_pauli_volumes`` so that it sits beside this tree's package."""
    init = src / "pauli_volumes" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no pauli_volumes package under {src}")
    spec = importlib.util.spec_from_file_location(
        "other_pauli_volumes", init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{spec.name}.volume").check_conjectures


def _numbers(report) -> list[tuple]:
    return [(e.d, e.N, e.name, e.computed.coeff, e.computed.radicand) for e in report.entries]


def compare(other_src: Path) -> dict:
    """The JSON record of ROUNDS rounds that alternate this tree's and the
    other tree's calls at each (mode, d)."""
    trees = (check_conjectures, load_other(other_src))
    cells = [(mode, d) for mode in MODES for d in DIMENSIONS]
    times = {cell: ([], []) for cell in cells}
    all_match = same_numbers = True
    # every round visits every cell, so a slow spell of the host is spread
    # over the cells rather than falling on one
    for r in range(ROUNDS):
        for mode, d in cells:
            numbers = []
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                start = time.perf_counter()
                report = trees[i]([d], mode)
                times[mode, d][i].append(time.perf_counter() - start)
                all_match = all_match and report.all_match
                numbers.append(_numbers(report))
            same_numbers = same_numbers and numbers[0] == numbers[1]
    medians: dict[str, dict[str, dict[str, float]]] = {"this": {}, "other": {}}
    ratio: dict[str, dict[str, float]] = {}
    for (mode, d), (this_times, other_times) in times.items():
        this, other = statistics.median(this_times), statistics.median(other_times)
        medians["this"].setdefault(mode, {})[str(d)] = round(this, 6)
        medians["other"].setdefault(mode, {})[str(d)] = round(other, 6)
        # the calls of one round ran back to back, in one state of the host
        paired = statistics.median(t / o for t, o in zip(this_times, other_times))
        ratio.setdefault(mode, {})[str(d)] = round(paired, 4)
    return {
        "python": platform.python_version(),
        "rounds": ROUNDS,
        "other": str(other_src),
        "all_match": all_match,
        "same_numbers": same_numbers,
        "median_seconds": medians,
        "ratio": ratio,
    }


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        raise SystemExit("usage: exact_timing.py [OTHER_SRC]")
    if args:
        record = compare(Path(args[0]).resolve())
        print(json.dumps(record))
        return 0 if record["all_match"] and record["same_numbers"] else 1
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
