"""Benchmark of pauli-volumes: cold exact queries, Monte Carlo time to 1%
error and one-shot CLI calls, each checked against independent references.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout (the directory holding ``src/``).
The run repeats whole rounds of its workload until ``--seconds`` have passed;
every round starts one fresh worker process. Every time in the end-to-end
metrics is taken next to a calibration that does not use the package and is
reported in reference-host seconds: measured seconds x the calibration's
reference seconds / its measured seconds. Human-readable lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
traced run traces every other round, so it can report its own overhead, and
writes its spans to ``.perfbench-out/``. See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
from fractions import Fraction
from math import sqrt
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS, LayerStats  # noqa: E402

WORKLOADS = ("exact-cold", "mc-oracle", "cli-oneshot")
# A run ends within this many seconds even if a child hangs: a child that
# outlives its share is killed and its operations count as failed.
RUN_LIMIT_S = 170.0

# The host's speed drifts by 20-60% over minutes, and every time moves with
# it. So each time is measured next to a calibration and scaled by its
# reference seconds / the calibration's seconds. The calibrations do not use
# the package: a fresh interpreter importing numpy and the standard modules
# the CLI uses (for set-up and for CLI calls), and the worker's exact_kernel
# and mc_kernel. The references are their medians on the reference machine
# (Python 3.11.7, numpy 2.4.6, 2 cores) with the host quiet.
SPAWN_CALIBRATION = ["-c", "import numpy, json, argparse, fractions, decimal, csv"]
SPAWN_REFERENCE_S = 0.15
OP_REFERENCE_S = {"exact-cold": 0.014, "mc-oracle": 0.007, "cli-oneshot": SPAWN_REFERENCE_S}
ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"


def read_cpu_times() -> list[int] | None:
    """The aggregate cpu line of /proc/stat, or None where it cannot be read."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:9]]


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


class Run:
    def __init__(self, workload: str, seed: int, env: dict, stop_at: float):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.stop_at = stop_at
        self.setups: list[float] = []  # reference-host seconds
        self.setups_raw: list[float] = []
        self.import_s: list[float] = []
        self.ops: list[dict] = []  # completed operations, with "seconds" and "traced"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # wrong outputs of completed operations
        self.failures: list[str] = []  # operations that did not complete
        self.spans: list[list[list]] = []  # one span list per traced process
        self.absent: set[str] = set()
        self.stdout_bytes = 0
        self.layer_stats = LayerStats()

    # -- processes ---------------------------------------------------------

    def _spawn_calibration(self) -> float:
        """Wall seconds of a fresh interpreter importing what the CLI imports
        from outside the package."""
        t0 = perf_counter()
        subprocess.run([sys.executable, *SPAWN_CALIBRATION], env=self.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=max(self.stop_at - t0, 0.1))
        return perf_counter() - t0

    def _worker(self, rnd: int, traced: bool, calibration: float) -> dict | None:
        """Start one worker; return its JSON result, or None if it died.
        ``calibration`` is a spawn calibration timed just before."""
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload,
               str(self.seed), str(rnd), "1" if traced else "0"]
        err_path = OUT / "worker.stderr"
        t0 = perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env)
            try:
                data, ready_at = self._drain(proc, self.stop_at)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        try:
            if ready_at is None or proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}")
            result = json.loads(data.decode().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            self.failures.append(f"worker round {rnd}: {exc}: "
                                 f"{err_path.read_text(errors='replace')[-400:]}")
            return None
        self.setups_raw.append(ready_at - t0)
        self.setups.append((ready_at - t0) * SPAWN_REFERENCE_S / calibration)
        self.import_s.append(result["import_s"])
        return result

    @staticmethod
    def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, float | None]:
        """Read the worker's stdout to its end; note when READY arrived."""
        fd = proc.stdout.fileno()
        buf = bytearray()
        ready_at = None
        while True:
            left = deadline - perf_counter()
            if left <= 0:
                return bytes(buf), None
            readable, _, _ = select.select([fd], [], [], left)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return bytes(buf), ready_at
            buf += chunk
            if ready_at is None and b"READY\n" in buf:
                ready_at = perf_counter()

    def _cli(self, argv: list[str], traced: bool) -> tuple[float, int, str, str, dict | None]:
        spans_file = OUT / "cli-call.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "worker.py"), "cli-call", str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "pauli_volumes", *argv]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env)
        try:
            out, err = proc.communicate(timeout=max(self.stop_at - t0, 0.1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return perf_counter() - t0, -1, "", "killed at the run's time limit", None
        seconds = perf_counter() - t0
        trace = None
        if traced and spans_file.exists():
            trace = json.loads(spans_file.read_text())
            spans_file.unlink()
        return seconds, proc.returncode, out.decode(errors="replace"), err.decode(errors="replace"), trace

    # -- rounds ------------------------------------------------------------

    def round(self, rnd: int, traced: bool) -> None:
        if self.workload == "cli-oneshot":
            self._cli_round(rnd, traced)
            return
        expected = (worker.exact_inputs if self.workload == "exact-cold" else worker.mc_inputs)(self.seed, rnd)
        self.attempted += len(expected)
        result = self._worker(rnd, traced, self._spawn_calibration())
        if result is None:
            self.failed += len(expected)
            return
        if traced:
            self.spans.append(result.get("spans", []))
            self.absent.update(result.get("absent", []))
        check = check_exact if self.workload == "exact-cold" else check_mc_call
        for rec in result["ops"]:
            if "error" in rec:
                self.failed += 1
                self.failures.append(f"{rec}")
                continue
            problem = check(rec)
            if problem:
                self.errors.append(problem)
            rec["traced"] = traced
            rec["norm_s"] = rec["seconds"] * OP_REFERENCE_S[self.workload] / rec["calib_s"]
            self.ops.append(rec)
        if len(result["ops"]) != len(expected):
            self.errors.append(f"round {rnd}: {len(result['ops'])} results for {len(expected)} operations")

    def _cli_round(self, rnd: int, traced: bool) -> None:
        before = self._spawn_calibration()
        result = self._worker(rnd, False, before)
        if result is None:
            n_calls = len(worker.cli_inputs(self.seed, rnd))
            self.attempted += n_calls
            self.failed += n_calls
            return
        for call in result["calls"]:
            self.attempted += 1
            seconds, code, out, err, trace = self._cli(call["argv"], traced)
            after = self._spawn_calibration()
            calibration, before = (before + after) / 2, after
            if code not in (0, 1) or "Traceback" in err:
                self.failed += 1
                self.failures.append(f"{call['argv']}: exit {code}: {err[-400:]}")
                continue
            self.stdout_bytes += len(out.encode()) if traced else 0
            if trace is not None:
                self.spans.append(trace["spans"])
                self.absent.update(trace["absent"])
                self.import_s.append(trace["import_s"])
            problem = check_cli(call, code, out)
            if problem:
                self.errors.append(problem)
            self.ops.append({"seconds": seconds, "calib_s": calibration, "traced": traced, "kind": call["kind"],
                             "norm_s": seconds * OP_REFERENCE_S[self.workload] / calibration})

    # -- metrics -----------------------------------------------------------

    def op_p50(self, ops: list[dict], key: str = "norm_s") -> float:
        if not ops:
            return 0.0
        if self.workload == "mc-oracle":
            return statistics.median(mc_time_to_1pct(ops, key).values())
        return statistics.median(op[key] for op in ops)

    def end_to_end(self, key: str = "norm_s") -> dict[str, tuple[float, str]]:
        """The end-to-end metrics, in reference-host seconds; with
        key="seconds", as measured."""
        ops = self.ops
        busy = sum(op[key] for op in ops)
        setups = self.setups if key == "norm_s" else self.setups_raw
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "ops_per_s": (len(ops) / busy if busy else 0.0, "1/s"),
            "op_p50_s": (self.op_p50(ops, key), "s"),
        }

    def host_speed(self) -> float:
        """Median calibration time over its reference: above 1 is a slow host."""
        ratios = [op["calib_s"] / OP_REFERENCE_S[self.workload] for op in self.ops]
        return statistics.median(ratios) if ratios else 0.0

    def per_layer(self) -> dict[str, tuple[float, str]]:
        stats = self.layer_stats
        for spans in self.spans:
            stats.add(spans)
        traced = [op for op in self.ops if op["traced"]]
        untraced = [op for op in self.ops if not op["traced"]]
        out = stats.metrics(len(traced))
        out["cli.import_s"] = (statistics.median(self.import_s) if self.import_s else 0.0, "s")
        out["cli.stdout_bytes"] = (self.stdout_bytes / max(len(traced), 1), "bytes")
        overhead = self.op_p50(traced) - self.op_p50(untraced) if traced and untraced else 0.0
        out["trace.overhead_s"] = (overhead, "s")
        return out

    def write_trace(self, path: Path) -> None:
        stats = self.layer_stats
        path.write_text(json.dumps({
            "workload": self.workload,
            "seed": self.seed,
            "span_fields": ["name", "layer", "start", "end", "parent", "op", "detail"],
            "processes": self.spans,
            "layers": {layer: {"self_s": stats.self_s[layer], "calls": stats.calls[layer]}
                       for layer in LAYERS},
            "absent": sorted(self.absent),
        }))


# -- output checks -----------------------------------------------------------


def check_exact(rec: dict) -> str | None:
    """check_conjectures([d], mode): ratios and the box volume against the
    closed forms, chain volumes times the symmetry factor against the total."""
    if "bad_output" in rec:
        return f"exact {rec['d']} {rec['mode']}: {rec['bad_output']}"
    d, mode = rec["d"], rec["mode"]
    N = ref.n_for_mode(d, mode)
    where = f"check_conjectures([{d}], {mode!r})"
    names = []
    for ed, eN, name, (coeff, radicand), _match in rec["entries"]:
        names.append(name)
        if (ed, eN) != (d, N):
            return f"{where}: entry for d={ed}, N={eN}"
        if name == "p":
            ok = ref.is_metric_volume(Fraction(coeff), radicand, d, N, "p")
        else:
            ok = radicand == 1 and Fraction(coeff) == ref.ratio(d, N, name)
        if not ok:
            return f"{where}: {name} = {coeff}*sqrt({radicand})"
    want = (["p"] if mode == "3" else []) + [r[0] for r in ref.RATIOS]
    if sorted(names) != sorted(want) or not rec["all_match"]:
        return f"{where}: entries {names}, all_match {rec['all_match']}"
    for cls, got in rec["classes"].items():
        lam = Fraction(got["lambda"])
        if lam != ref.lambda_volume(d, N, cls):
            return f"{where}: {cls} volume {lam}"
        if sum(map(Fraction, got["chains"]), Fraction(0)) * got["symmetry_factor"] != lam:
            return f"{where}: {cls} chains do not sum to the volume"
    return None


def check_mc_call(rec: dict) -> str | None:
    """One mc_volume call: its estimate and stderr follow from its hit count
    and the box's metric volume. The hit counts are checked pooled."""
    d, N, cls = rec["d"], rec["N"], rec["class"]
    box = ref.metric_volume_float(d, N, "p")
    n, hits = rec["samples"], rec["hits"]
    p_hat = hits / n
    est = p_hat * box
    se = box * sqrt(p_hat * (1.0 - p_hat) / n)
    if n != worker.MC_SAMPLES or abs(rec["estimate"] - est) > 1e-9 * box or abs(rec["stderr"] - se) > 1e-9 * box:
        return f"mc_volume({d}, {N}, {cls!r}): estimate {rec['estimate']} stderr {rec['stderr']} hits {hits}/{n}"
    return None


def check_mc_pooled(ops: list[dict]) -> list[str]:
    """Pooled hits of each (d, N, class) within the Chernoff window of the
    exact box share: a correct sampler leaves it with probability < 1e-6."""
    problems = []
    for (d, N, cls), (n, hits) in _pool(ops).items():
        lo, hi = ref.hits_window(n, float(ref.box_hit_probability(d, N, cls)))
        if not lo <= hits <= hi:
            problems.append(f"mc ({d}, {N}, {cls}): {hits} hits in {n} samples, outside [{lo:.1f}, {hi:.1f}]")
    return problems


def _pool(ops: list[dict]) -> dict[tuple, tuple[int, int]]:
    pooled: dict[tuple, tuple[int, int]] = {}
    for op in ops:
        key = (op["d"], op["N"], op["class"])
        n, h = pooled.get(key, (0, 0))
        pooled[key] = (n + op["samples"], h + op["hits"])
    return pooled


def mc_time_to_1pct(ops: list[dict], time_key: str) -> dict[tuple, float]:
    """Seconds each (d, N, class) needs for a 1% relative standard error:
    its pooled sampling seconds times (relative stderr / 0.01)^2."""
    seconds: dict[tuple, float] = {}
    for op in ops:
        key = (op["d"], op["N"], op["class"])
        seconds[key] = seconds.get(key, 0.0) + op[time_key]
    out = {}
    for key, (n, hits) in _pool(ops).items():
        rel2 = (1.0 - hits / n) / hits if hits else float("inf")
        out[key] = seconds[key] * rel2 / 1e-4
    return out


def check_cli(call: dict, code: int, out: str) -> str | None:
    argv = " ".join(call["argv"])
    try:
        data = json.loads(out)
        problem = _CLI_CHECKS[call["kind"]](call, code, data)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        problem = f"unreadable output ({exc!r})"
    return f"{argv}: {problem}" if problem else None


def _check_classify(call: dict, code: int, data: dict) -> str | None:
    d, N = call["d"], call["N"]
    lams = [Fraction(x) for x in call["lambdas"]]
    if len(lams) == N:
        lams.append(Fraction(0))
    want = ref.classify(d, N, lams)
    if code != 0 or (data["d"], data["N"]) != (d, N) or [Fraction(x) for x in data["lambdas"]] != lams:
        return f"exit {code}, echo {data['d']}, {data['N']}, {data['lambdas']}"
    for flag, value in want.items():
        got = Fraction(data[flag]) if flag == "eigenvalue_sum" else data[flag]
        if got != value:
            return f"{flag} = {got}, the inequalities give {value}"
    if (Fraction(data["min_output_overlap"]) >= 0) != want["positive_necessary"]:
        return f"min_output_overlap {data['min_output_overlap']} disagrees with positivity"
    return None


def _check_volume(call: dict, code: int, data: dict) -> str | None:
    d, N, cls = call["d"], call["N"], call["class"]
    lam = Fraction(data["lambda_volume"])
    hs = data["hs_volume"]
    chains = sum((Fraction(c["volume"]) for c in data["chains"]), Fraction(0))
    if code != 0 or (data["d"], data["N"], data["class"]) != (d, N, cls):
        return f"exit {code} for d={data['d']}, N={data['N']}, class={data['class']}"
    if lam != ref.lambda_volume(d, N, cls) or chains * data["symmetry_factor"] != lam:
        return f"lambda_volume {lam}, chains sum {chains} x {data['symmetry_factor']}"
    if not ref.is_metric_volume(Fraction(hs["coeff"]), hs["radicand"], d, N, cls):
        return f"hs_volume {hs}"
    return None


def _check_ratios(call: dict, code: int, data: dict) -> str | None:
    want = {(d, ref.n_for_mode(d, call["mode"]), name): ref.ratio(d, ref.n_for_mode(d, call["mode"]), name)
            for d in call["d_values"] for name, _, _ in ref.RATIOS}
    got = {(r["d"], r["N"], r["ratio"]): Fraction(r["value"]) for r in data["rows"]}
    if code != 0 or got != want or len(data["rows"]) != len(want):
        return f"exit {code}, rows {data['rows']}"
    return None


def _check_conjectures(call: dict, code: int, data: dict) -> str | None:
    mode = call["mode"]
    seen = 0
    for e in data["entries"]:
        d, N, name = e["d"], e["N"], e["ratio"]
        coeff, radicand = Fraction(e["computed"]["coeff"]), e["computed"]["radicand"]
        if N != ref.n_for_mode(d, mode) or d not in call["d_values"]:
            return f"entry for d={d}, N={N}"
        if name == "p":
            ok = ref.is_metric_volume(coeff, radicand, d, N, "p")
        else:
            ok = radicand == 1 and coeff == ref.ratio(d, N, name)
        if not ok or not e["match"]:
            return f"{name} at d={d}: {e['computed']}, match {e['match']}"
        seen += 1
    per_d = len(ref.RATIOS) + (1 if mode == "3" else 0)
    if code != 0 or not data["all_match"] or seen != per_d * len(call["d_values"]):
        return f"exit {code}, all_match {data['all_match']}, {seen} entries"
    return None


def _check_mc(call: dict, code: int, data: dict) -> str | None:
    exact = ref.metric_volume_float(call["d"], call["N"], call["class"])
    sigma = abs(data["estimate"] - exact) / data["stderr"]
    if abs(sigma - 3.0) < 1e-9:
        return None  # too close to the threshold to call either way
    want = 1 if sigma > 3.0 else 0
    if code != want or data["within_3_sigma"] != (want == 0):
        return f"exit {code} at {sigma:.3f} sigma from the exact volume"
    return None


def _check_mub(call: dict, code: int, data: dict) -> str | None:
    if code != 0 or data["n_bases"] != call["d"] + 1 or data["passed"] is not True:
        return f"exit {code}, {data['n_bases']} bases, passed {data['passed']}"
    return None


_CLI_CHECKS = {
    "classify": _check_classify,
    "volume": _check_volume,
    "ratios": _check_ratios,
    "check-conjectures": _check_conjectures,
    "mc": _check_mc,
    "mub-verify": _check_mub,
}


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pauli_volumes" / "__init__.py").is_file():
        print(f"error: no pauli_volumes package under {src}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    cpu_before = read_cpu_times()
    start = perf_counter()
    run = Run(args.workload, args.seed, env, stop_at=start + RUN_LIMIT_S)
    rounds = 0
    while True:
        run.round(rounds, traced=bool(args.trace) and rounds % 2 == 0)
        rounds += 1
        if perf_counter() - start >= min(args.seconds, RUN_LIMIT_S):
            break
    wall = perf_counter() - start
    steal = steal_share(cpu_before, read_cpu_times())
    if args.workload == "mc-oracle":
        run.errors.extend(check_mc_pooled(run.ops))

    metrics = run.per_layer() if args.trace else run.end_to_end()
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "setups": run.setups, "setups_raw": run.setups_raw, "ops": run.ops,
                    "steal": steal, "errors": run.errors, "failures": run.failures}))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{rounds} rounds in {wall:.1f} s")
    print(f"operations attempted {run.attempted}, failed {run.failed}, "
          f"output errors {len(run.errors)}")
    for problem in run.failures[:5]:
        print(f"  failed: {problem}")
    for problem in run.errors[:10]:
        print(f"  wrong output: {problem}")
    print("host steal during run: " + (f"{100 * steal:.2f}%" if steal is not None else "unavailable"))
    print(f"host slowness (calibration time / reference): {run.host_speed():.3f}")
    if not args.trace:
        raw = run.end_to_end("seconds")
        print("as measured: " + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit) in raw.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        run.write_trace(trace_path)
        for layer in LAYERS:
            print(f"  layer {layer}: self {run.layer_stats.self_s[layer]:.6f} s "
                  f"in {run.layer_stats.calls[layer]} calls")
        if run.absent:
            print(f"  absent from the package: {', '.join(sorted(run.absent))}")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
