"""One fresh process of the benchmark: builds a round's inputs, then runs it.

    python perfbench/worker.py exact-cold  SEED ROUND TRACE
    python perfbench/worker.py mc-oracle   SEED ROUND TRACE
    python perfbench/worker.py cli-oneshot SEED ROUND 0
    python perfbench/worker.py cli-call    SPANS_FILE ARGV...

The first three import pauli_volumes, build the round's inputs from the seed,
print ``READY`` (the parent's setup time ends there) and then print one JSON
line: the operations' raw outputs and times, or for ``cli-oneshot`` the
round's command lines. ``cli-call`` runs one CLI command under the tracer and
writes its spans to SPANS_FILE. Outputs are checked by the parent.

Before the first operation and after each one, the worker times a fixed
calibration kernel that does not use the package: Fraction polynomial
products for ``exact-cold``, a Philox draw and a mask for ``mc-oracle``.
Each operation carries the mean of the two kernel times around it, so the
parent can take out the host's speed at that moment.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from time import perf_counter

import reference as ref
from tracer import Tracer

EXACT_OPS = (
    [(d, "max") for d in range(2, 9)]
    + [(d, "d") for d in range(3, 9)]
    + [(d, "3") for d in range(4, 9)]
)
MC_COMBOS = [(d, N, cls) for d in range(3, 7) for N in ref.supported(d) for cls in ("cp", "g", "eb")]
# A whole number of the package's 65,536-row blocks.
MC_SAMPLES = 1 << 18
CLI_CLASSIFY_CALLS = 7


def _rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


def exact_inputs(seed: int, rnd: int) -> list[tuple[int, str]]:
    ops = list(EXACT_OPS)
    _rng("exact-cold", seed, rnd).shuffle(ops)
    return ops


def mc_inputs(seed: int, rnd: int) -> list[tuple[int, int, str, int]]:
    rng = _rng("mc-oracle", seed, rnd)
    calls = [(d, N, cls, rng.getrandbits(63)) for d, N, cls in MC_COMBOS]
    rng.shuffle(calls)
    return calls


def _modes(d: int) -> list[str]:
    return ["max"] if d == 2 else (["max", "d"] if d == 3 else list(ref.MODES))


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _classify_call(rng: random.Random, inside: bool) -> dict:
    d = rng.randint(3, 7)
    mode = rng.choice(_modes(d))
    N = ref.n_for_mode(d, mode)
    n, _ = ref.shape(d, N)
    if inside:
        verts = ref.cp_vertices(d, N)
        weights = [rng.randint(1, 9) for _ in verts]
        total = sum(weights)
        point = [sum(Fraction(w, total) * v[i] for w, v in zip(weights, verts)) for i in range(n)]
    else:
        # around the box [-1/(d-1), 1], with its edges among the values drawn
        point = [Fraction(rng.randint(-12, 6 * (d - 1)), 6 * (d - 1)) for _ in range(n)]
    return {"kind": "classify", "d": d, "N": N, "lambdas": [_frac(x) for x in point],
            "argv": ["classify", "--d", str(d), "--n-mode", mode,
                     "--lambdas=" + ",".join(_frac(x) for x in point)]}


def _range_call(rng: random.Random, kind: str) -> dict:
    mode = rng.choice(ref.MODES)
    lo = rng.randint(2 if mode == "max" else 3, 5)
    hi = rng.randint(lo, 5)
    return {"kind": kind, "d_values": list(range(lo, hi + 1)), "mode": mode,
            "argv": [kind, "--d", f"{lo}..{hi}", "--n-mode", mode]}


def cli_inputs(seed: int, rnd: int) -> list[dict]:
    """One round of CLI calls: seven classify calls, alternately inside cp by
    construction and drawn around the positivity box, then one call of each
    other kind."""
    rng = _rng("cli-oneshot", seed, rnd)
    calls = [_classify_call(rng, i % 2 == 0) for i in range(CLI_CLASSIFY_CALLS)]
    d = rng.randint(2, 5)
    mode = rng.choice(_modes(d))
    cls = rng.choice(ref.CLASSES)
    calls.append({"kind": "volume", "d": d, "N": ref.n_for_mode(d, mode), "class": cls,
                  "argv": ["volume", "--d", str(d), "--n-mode", mode, "--class", cls]})
    calls.append(_range_call(rng, "ratios"))
    calls.append(_range_call(rng, "check-conjectures"))
    d = rng.randint(3, 5)
    mode = rng.choice(_modes(d))
    cls = rng.choice(("cp", "g", "eb"))
    calls.append({"kind": "mc", "d": d, "N": ref.n_for_mode(d, mode), "class": cls,
                  "argv": ["mc", "--d", str(d), "--n-mode", mode, "--class", cls,
                           "--samples", "100000", "--seed", str(rng.getrandbits(32))]})
    d = rng.choice((5, 7))
    calls.append({"kind": "mub-verify", "d": d, "argv": ["mub-verify", "--d", str(d)]})
    rng.shuffle(calls)
    return calls


def _surd(v) -> list:
    return [_frac(v.coeff), v.radicand]


def _exact_outputs(pv, d: int, mode: str, report) -> dict:
    """The report's entries and each class's chain breakdown, as plain data."""
    N = ref.n_for_mode(d, mode)
    classes = {}
    for cls in ref.CLASSES:
        v = pv.class_volume(d, N, cls)
        classes[cls] = {
            "lambda": _frac(v.lambda_volume),
            "chains": [_frac(c) for c in v.chain_volumes],
            "symmetry_factor": v.symmetry_factor,
        }
    return {
        "all_match": report.all_match,
        "entries": [[e.d, e.N, e.name, _surd(e.computed), e.match] for e in report.entries],
        "classes": classes,
    }


_LINEAR = {(0, 0, 0): Fraction(1, 13), (1, 0, 0): Fraction(1, 3),
           (0, 1, 0): Fraction(-2, 7), (0, 0, 1): Fraction(5, 11)}


def exact_kernel() -> float:
    """Seconds for the 9th power of a linear form in three variables, as
    dict-of-Fraction polynomials: the kind of work the exact engine does."""
    t0 = perf_counter()
    poly = {(0, 0, 0): Fraction(1)}
    for _ in range(9):
        out: dict = {}
        for e1, c1 in poly.items():
            for e2, c2 in _LINEAR.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        poly = out
    return perf_counter() - t0


def mc_kernel() -> float:
    """Seconds for 32,768 Philox rows of six coordinates and a cp-like mask:
    the kind of work the Monte Carlo sampler does."""
    import numpy as np  # already loaded with the package

    t0 = perf_counter()
    rng = np.random.Generator(np.random.Philox(key=np.array([12345, 0], dtype=np.uint64)))
    pts = -0.25 + 1.25 * rng.random((1 << 15, 6))
    s = pts.sum(axis=1)
    np.count_nonzero((s >= -0.25) & (s <= 1.0 + 4.0 * pts.min(axis=1)))
    return perf_counter() - t0


def run_exact(pv, ops, tracer) -> list[dict]:
    out = []
    before = exact_kernel()
    for i, (d, mode) in enumerate(ops):
        rec = {"d": d, "mode": mode}
        if tracer:
            tracer.begin_op(i)
        try:
            t0 = perf_counter()
            report = pv.check_conjectures([d], mode)
            rec["seconds"] = perf_counter() - t0
        except Exception as exc:  # an operation that raises counts as failed
            rec["error"] = repr(exc)
        if tracer:
            tracer.end_op()
            tracer.enabled = False
        after = exact_kernel()
        rec["calib_s"], before = (before + after) / 2, after
        if "error" not in rec:
            try:
                rec.update(_exact_outputs(pv, d, mode, report))
            except Exception as exc:
                rec["bad_output"] = repr(exc)
        if tracer:
            tracer.enabled = True
        out.append(rec)
    return out


def run_mc(pv, calls, tracer) -> list[dict]:
    out = []
    before = mc_kernel()
    for i, (d, N, cls, seed) in enumerate(calls):
        rec = {"d": d, "N": N, "class": cls, "seed": seed}
        if tracer:
            tracer.begin_op(i)
        try:
            t0 = perf_counter()
            est = pv.mc_volume(d, N, cls, MC_SAMPLES, seed)
            rec["seconds"] = perf_counter() - t0
            rec.update(estimate=est.estimate, stderr=est.stderr, hits=est.hits, samples=est.samples)
        except Exception as exc:
            rec["error"] = repr(exc)
        finally:
            if tracer:
                tracer.end_op()
        after = mc_kernel()
        rec["calib_s"], before = (before + after) / 2, after
        out.append(rec)
    return out


def _import_package(with_cli: bool = False):
    t0 = perf_counter()
    import pauli_volumes

    if with_cli:
        import pauli_volumes.cli  # noqa: F401  (what `python -m pauli_volumes` loads)
    return pauli_volumes, perf_counter() - t0


def cli_call(spans_file: str, argv: list[str]) -> int:
    pv, import_s = _import_package(with_cli=True)
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    code = pv.cli.main(argv)
    tracer.end_op()
    sys.stdout.flush()
    with open(spans_file, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "absent": tracer.absent}, fh)
    return code


def main(argv: list[str]) -> int:
    workload = argv[0]
    if workload == "cli-call":
        return cli_call(argv[1], argv[2:])
    seed, rnd, trace = int(argv[1]), int(argv[2]), argv[3] == "1"
    pv, import_s = _import_package()
    inputs = {"exact-cold": exact_inputs, "mc-oracle": mc_inputs, "cli-oneshot": cli_inputs}[workload](seed, rnd)
    print("READY", flush=True)
    result = {"import_s": import_s}
    if workload == "cli-oneshot":
        result["calls"] = inputs
    else:
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
        run = run_exact if workload == "exact-cold" else run_mc
        result["ops"] = run(pv, inputs, tracer)
        if tracer:
            result["spans"] = tracer.spans
            result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
