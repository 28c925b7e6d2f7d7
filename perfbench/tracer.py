"""Span tracing around the pauli_volumes public functions, from outside the package.

``Tracer.install`` replaces each function named in ``PLAN`` by a wrapper in
every loaded ``pauli_volumes`` module that holds it, so calls made through
``from .x import f`` bindings are caught too. A wrapper records one span per
call: name, layer, start, end, parent span and the operation it belongs to.
Spans stay in memory until the caller collects them. A name that a loaded
module no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, public function, layer). The exact and the Monte Carlo routes of
# volume.py are separate layers.
PLAN = (
    ("volume", "region_for", "regions"),
    ("regions", "p_box", "regions"),
    ("regions", "chambers_n3", "regions"),
    ("regions", "cp_chambers_max_n", "regions"),
    ("regions", "g_chambers_max_n", "regions"),
    ("regions", "eb_chambers_max_n", "regions"),
    ("volume", "check_conjectures", "volume"),
    ("volume", "ratio_table", "volume"),
    ("volume", "volume_ratio", "volume"),
    ("volume", "class_volume", "volume"),
    ("volume", "integrate_chain", "volume"),
    ("volume", "closed_form_ratios", "volume"),
    ("volume", "p_closed_form", "volume"),
    ("volume", "mc_volume", "mc"),
    ("geometry", "volume_prefactor", "geometry"),
    ("geometry", "vp_volume", "geometry"),
    ("geometry", "metric", "geometry"),
    ("rationals", "decimal_str", "rationals"),
    ("rationals", "surd_decimal_str", "rationals"),
    ("rationals", "rational_str", "rationals"),
    ("rationals", "parse_rational", "rationals"),
    ("channel", "is_cp", "channel"),
    ("channel", "is_positive_necessary", "channel"),
    ("channel", "is_generator_achievable", "channel"),
    ("channel", "is_eb_necessary", "channel"),
    ("channel", "min_output_overlap", "channel"),
    ("mub", "build_weyl_mubs", "mub"),
    ("mub", "unitaries_from_bases", "mub"),
    ("mub", "verify_unbiased", "mub"),
    ("cli", "main", "cli"),
)

LAYERS = ("regions", "volume", "mc", "geometry", "rationals", "channel", "mub", "cli")

# span fields: name, layer, start, end, parent index, op, detail
NAME, LAYER, START, END, PARENT, OP, DETAIL = range(7)


def _detail(name: str, args: tuple, out) -> dict | None:
    """Counts taken at the layer boundary from arguments and results."""
    if name in ("p_box", "chambers_n3", "cp_chambers_max_n", "g_chambers_max_n", "eb_chambers_max_n"):
        chains = getattr(out, "chains", ())
        return {"chains": len(chains), "bounds": sum(len(ch.bounds) for ch in chains)}
    if name == "mc_volume":
        return {"class": args[2] if len(args) > 2 else None,
                "samples": getattr(out, "samples", 0), "hits": getattr(out, "hits", 0)}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.enabled = True
        self.absent: list[str] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            out = None
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                rec[END] = perf_counter()
                stack.pop()
                rec[DETAIL] = _detail(name, args, out)

        return traced

    def install(self) -> None:
        """Wrap the PLAN functions of the pauli_volumes modules already imported."""
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == "pauli_volumes" or key.startswith("pauli_volumes."))]
        for mod_name, name, layer in PLAN:
            mod = sys.modules.get(f"pauli_volumes.{mod_name}")
            if mod is None:
                continue
            fn = getattr(mod, name, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{name}")
                continue
            wrapped = self._wrap(name, layer, fn)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.clear()

    def end_op(self) -> None:
        self.op = None


class LayerStats:
    """Self time and counts per layer, accumulated over the span lists of
    many processes. A span's self time is its duration minus the durations of
    its direct children."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.name_self_s: dict[str, float] = {}
        self.name_calls: dict[str, int] = {}
        self.chains_built = 0
        self.bounds_built = 0
        self.chain_seconds: list[float] = []
        self.memo_hits = 0
        self.mc_samples: dict[str, int] = {}
        self.mc_hits = 0
        self.mc_self_s: dict[str, float] = {}

    def add(self, spans: list[list]) -> None:
        child_s = [0.0] * len(spans)
        has_region_child = [False] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[END] - rec[START]
                if rec[NAME] == "region_for":
                    has_region_child[rec[PARENT]] = True
        for i, rec in enumerate(spans):
            name, layer, detail = rec[NAME], rec[LAYER], rec[DETAIL]
            own = rec[END] - rec[START] - child_s[i]
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.name_self_s[name] = self.name_self_s.get(name, 0.0) + own
            self.name_calls[name] = self.name_calls.get(name, 0) + 1
            if layer == "regions" and detail:
                self.chains_built += detail["chains"]
                self.bounds_built += detail["bounds"]
            elif name == "integrate_chain":
                self.chain_seconds.append(rec[END] - rec[START])
            elif name == "class_volume" and not has_region_child[i]:
                self.memo_hits += 1
            elif name == "mc_volume" and detail:
                cls = detail["class"]
                self.mc_samples[cls] = self.mc_samples.get(cls, 0) + detail["samples"]
                self.mc_self_s[cls] = self.mc_self_s.get(cls, 0.0) + own
                self.mc_hits += detail["hits"]

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; times and counts are per traced operation."""
        per = 1.0 / max(n_ops, 1)

        def s(*names: str) -> float:
            return sum(self.name_self_s.get(n, 0.0) for n in names) * per

        def c(*names: str) -> float:
            return sum(self.name_calls.get(n, 0) for n in names) * per

        cv_calls = self.name_calls.get("class_volume", 0)
        samples = sum(self.mc_samples.values())
        mc_s = sum(self.mc_self_s.values())
        chains = sorted(self.chain_seconds)
        out = {
            "regions.build_s": (self.self_s["regions"] * per, "s"),
            "regions.chains_built": (self.chains_built * per, "count"),
            "regions.bounds_built": (self.bounds_built * per, "count"),
            "volume.self_s": (self.self_s["volume"] * per, "s"),
            "volume.integrate_s": (s("integrate_chain"), "s"),
            "volume.integrate_chain_p50_s": (chains[len(chains) // 2] if chains else 0.0, "s"),
            "volume.integrate_chain_max_s": (chains[-1] if chains else 0.0, "s"),
            "volume.chains_integrated": (c("integrate_chain"), "count"),
            "volume.class_volume_calls": (c("class_volume"), "count"),
            "volume.memo_hit_ratio": (self.memo_hits / cv_calls if cv_calls else 0.0, "ratio"),
            "volume.closed_form_s": (s("closed_form_ratios", "p_closed_form"), "s"),
            "geometry.prefactor_s": (self.self_s["geometry"] * per, "s"),
            "geometry.prefactor_calls": (c("volume_prefactor"), "count"),
            "rationals.format_s": (s("decimal_str", "surd_decimal_str", "rational_str"), "s"),
            "rationals.parse_s": (s("parse_rational"), "s"),
            "channel.predicate_s": (self.self_s["channel"] * per, "s"),
            "channel.predicate_calls": (self.calls["channel"] * per, "count"),
            "mub.build_s": (s("build_weyl_mubs", "unitaries_from_bases"), "s"),
            "mub.verify_s": (s("verify_unbiased"), "s"),
            "mc.self_s": (mc_s * per, "s"),
            "mc.samples_per_s": (samples / mc_s if mc_s else 0.0, "1/s"),
            "mc.hit_ratio": (self.mc_hits / samples if samples else 0.0, "ratio"),
        }
        for cls in ("cp", "g", "eb"):
            n = self.mc_samples.get(cls, 0)
            out[f"mc.ns_per_sample.{cls}"] = (self.mc_self_s.get(cls, 0.0) * 1e9 / n if n else 0.0, "ns")
        out["cli.main_s"] = (self.self_s["cli"] * per, "s")
        return out
