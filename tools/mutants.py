"""Check that the test suite kills a list of named one-line mutants.

Each mutant replaces one text, which must occur exactly once, in one file
of a fresh copy of the checkout, made in a temporary directory outside it,
and runs the suite there:

    python -m pytest -x -q -p no:cacheprovider

A mutant is killed when the suite fails, or runs past TIMEOUT_S, and
survives when it passes. A mutant marked equivalent changes no result, so
the suite cannot kill it; it stays listed, with the reason, and does not
count in the kill rate. The script uses the standard library only:

    python3 tools/mutants.py

It prints one JSON line: per mutant its outcome, seconds and first failing
test, then the kill rate over the mutants not marked equivalent. It exits 1
if an old text does not occur exactly once in its file (a stale list, found
before any suite runs), if the suite fails on an unmutated copy, or if a
mutant not marked equivalent survives, and 0 otherwise.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
_SKIPPED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-out", "*.egg-info"
)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    # why no result can change, for a mutant the suite cannot kill
    equivalent: str = ""


_VOLUME = "src/pauli_volumes/volume.py"
_REGIONS = "src/pauli_volumes/regions.py"
_GEOMETRY = "src/pauli_volumes/geometry.py"
_CLI = "src/pauli_volumes/cli.py"

MUTANTS = (
    # the Monte Carlo oracle and its gate
    Mutant("mc-stderr-doubled", _VOLUME,
           "stderr = scale * sqrt(", "stderr = 2 * scale * sqrt("),
    Mutant("mc-gate-at-30-sigma", _CLI, "ok = sigma <= 3.0", "ok = sigma <= 30.0"),
    Mutant("mc-eb-mask-widened", _VOLUME,
           "return (low >= 0.0) & (s <= 1.0)\n", "return (low >= 0.0) & (s <= 1.01)\n"),
    Mutant("mc-cp-mask-open-facet", _VOLUME,
           "return (s >= -1.0 / (d - 1))", "return (s > -1.0 / (d - 1))"),
    Mutant("mc-p-counts-eb", _VOLUME,
           'hits = samples if class_tag == "p"', 'hits = samples if class_tag == "eb"'),
    Mutant("mc-share-dropped", _VOLUME,
           "counts[w] = count(blocks[w::workers])", "counts[w] = count(blocks[w::workers][1:])"),
    Mutant("mc-share-exception-swallowed", _VOLUME,
           "errors.append(exc)", "counts[w] = 0"),
    Mutant("mc-interrupt-caught", _VOLUME,
           "except Exception as exc:", "except BaseException as exc:"),
    Mutant("mc-threads-not-joined", _VOLUME, "t.join()", "t.is_alive()"),
    Mutant("mc-threads-not-daemons", _VOLUME, "daemon=True", "daemon=False"),
    Mutant("mc-worker-cap-dropped", _VOLUME,
           "min(_usable_cpus(), _MC_MAX_WORKERS, len(blocks))", "min(_usable_cpus(), len(blocks))"),
    Mutant("mc-cpu-count-fallback", _VOLUME,
           "return os.cpu_count() or 1", "return os.cpu_count() or 2"),
    Mutant("mc-chunk-halved", _VOLUME, "_MC_CHUNK = 1 << 14", "_MC_CHUNK = 1 << 13",
           equivalent="each block is one Philox stream drawn chunk by chunk, so the chunk "
                      "size changes no row and no hit, only the speed"),
    # the exact integrator
    Mutant("table-keyed-without-node", _VOLUME,
           "key = (node, lo, hi, carry)", "key = (0, lo, hi, carry)"),
    Mutant("carry-sum-one-level-late", _VOLUME, "int(k >= 3))", "int(k >= 4))"),
    Mutant("level-scale-extra-q", _VOLUME,
           "q ** (top_b - b) for b", "q ** (top_b - b + 1) for b"),
    Mutant("outer-integral-drops-q0-power", _VOLUME,
           "v = by_a[a] * (ladder // a) * q0_pow", "v = by_a[a] * (ladder // a)"),
    Mutant("outer-integral-drops-1-over-a", _VOLUME,
           "v = by_a[a] * (ladder // a) * q0_pow", "v = by_a[a] * ladder * q0_pow"),
    Mutant("symmetry-factor-off-by-one", _VOLUME,
           "* chambers.symmetry_factor\n", "* (chambers.symmetry_factor + 1)\n"),
    Mutant("eb-sufficiency-always-exact", _VOLUME,
           'if class_tag == "p" or (class_tag == "eb" and not eb_criterion_exact(d, N)):',
           'if class_tag == "p":'),
    # the chambers and their stored ends
    Mutant("eb-budget-denominator-off-by-one", _REGIONS,
           "upper.append(LevelBound(1, x0, t, last, den))",
           "upper.append(LevelBound(1, x0, t, last, den + 1))"),
    Mutant("left-out-weight-on-wrong-slot", _REGIONS,
           "w_out if j == slot else 1", "w_out if j == slot + 1 else 1"),
    Mutant("level-bound-not-reduced", _REGIONS, "if g != 1:", "if g < 0:"),
    Mutant("level-bound-takes-q-zero", _REGIONS, "if q <= 0:", "if q < 0:"),
    Mutant("chain-keeps-given-lists", _REGIONS,
           "levels = tuple(map(tuple, bounds))", "levels = tuple(bounds)"),
    Mutant("one-weight-rule-at-n-plus-one", _GEOMETRY, "    m = min(N, d)\n", "    m = N\n"),
    Mutant("metric-drops-d-minus-1", _GEOMETRY,
           "Fraction((d - 1) * w, d * d)", "Fraction(d * w, d * d)"),
    # the region dump
    Mutant("renderer-drops-u-weights", _CLI,
           "[end.t * w for w in u[: k - 2]]", "[end.t for w in u[: k - 2]]"),
    Mutant("renderer-keeps-all-coeffs", _CLI,
           "coeffs = [end.x0, *mid, end.last][:k]", "coeffs = [end.x0, *mid, end.last]"),
    Mutant("renderer-drops-q-on-const", _CLI,
           "rational_str(Fraction(end.const, q))", "rational_str(Fraction(end.const))"),
)


def stale() -> list[str]:
    """The names of the mutants whose old text does not occur exactly once in its file."""
    return [m.name for m in MUTANTS if (ROOT / m.path).read_text().count(m.old) != 1]


def _first_failure(output: str) -> str | None:
    """The first test that pytest's short summary reports as failed or errored."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.M)
    return found[1] if found else None


def run_suite(mutant: Mutant | None) -> tuple[bool, str | None, float]:
    """Run the suite on a fresh copy of the checkout with ``mutant`` applied,
    or none: whether it failed, its first failing test, and its seconds."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_SKIPPED)
        if mutant:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ)
        paths = [str(copy / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
            failed, first = proc.returncode != 0, _first_failure(proc.stdout)
        except subprocess.TimeoutExpired:
            failed, first = True, f"timed out after {TIMEOUT_S} s"
        return failed, first, time.perf_counter() - start


def run_mutant(mutant: Mutant) -> dict:
    killed, first, seconds = run_suite(mutant)
    return {
        "name": mutant.name,
        "file": mutant.path,
        "outcome": "killed" if killed else "survived",
        "seconds": round(seconds, 1),
        "first_failure": first,
        "equivalent": mutant.equivalent or None,
    }


def main() -> int:
    out_of_date = stale()
    if out_of_date:
        print(json.dumps({"stale": out_of_date}))
        return 1
    # a copy that fails unmutated would count every mutant as killed
    failed, first, _ = run_suite(None)
    if failed:
        print(json.dumps({"unmutated_copy_fails": first}))
        return 1
    results = [run_mutant(m) for m in MUTANTS]
    gated = [r for r in results if not r["equivalent"]]
    survivors = [r["name"] for r in gated if r["outcome"] == "survived"]
    print(json.dumps({
        "mutants": results,
        "killed": len(gated) - len(survivors),
        "gated": len(gated),
        "kill_rate": round((len(gated) - len(survivors)) / len(gated), 4),
        "survivors": survivors,
    }))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
