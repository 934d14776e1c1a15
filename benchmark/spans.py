"""Spans around calls into the layers of opengame, and their reduction.

A traced run replaces chosen public functions in every ``opengame`` module
namespace that holds them with a wrapper that records a span: name, start,
end, parent span and item.  Calls the program makes between its own
modules are caught too, because ``from .x import f`` copies are replaced
along with ``x.f``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

LAYERS = ("tree", "solver", "criteria", "codes", "covering", "freegroup", "files", "suite")

# (module, attribute): the calls a span is recorded around
TRACED = (
    ("tree", "normalize_even"),
    ("solver", "GameInstance"),
    ("solver", "solve"),
    ("solver", "extract_minimal_size"),
    ("criteria", "kraft_sum"),
    ("criteria", "moran_dimension"),
    ("codes", "is_prefix_code"),
    ("codes", "is_maximal"),
    ("covering", "measure_criterion"),
    ("covering", "monte_carlo_hit"),
    ("covering", "exact_hit_probability"),
    ("covering", "identity_sum"),
    ("covering", "weighted_identity"),
    ("covering", "lifted_measure_sum"),
    ("covering", "strategy_consistent_lifts"),
    ("freegroup", "hat_index"),
    ("freegroup", "subgroup_index"),
    ("freegroup", "membership"),
    ("freegroup", "fold"),
    ("files", "load_game"),
    ("files", "dumps_canonical"),
    ("suite", "enumerate_even_antichains_depth4"),
)

SETUP_ITEM = "setup"


class Tracer:
    """Records spans and work counts at the layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.item: str = SETUP_ITEM
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("opengame")]
        for layer, attr in TRACED:
            original = getattr(sys.modules[f"opengame.{layer}"], attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (name, start, end, parent, self.item)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines: id, name, start, end, parent, item."""
        with gzip.open(path, "wt") as out:
            for sid, (name, start, end, parent, item) in enumerate(self.spans):
                out.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")


def _fold_counts(args, graph) -> dict[str, int]:
    return {
        "freegroup.letters": sum(len(w) for w in args[0]),
        "freegroup.core_vertices": graph.vertex_count,
    }


COUNTERS = {
    "solver.solve": lambda args, report: {"solver.even_nodes": len(report.winning_action_counts)},
    "freegroup.fold": _fold_counts,
    "covering.monte_carlo_hit": lambda args, report: {"covering.trials": report.trials},
    "covering.strategy_consistent_lifts": lambda args, lifts: {"covering.lifts": len(lifts)},
}


def reduce_spans(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics: figures per round of timed items, ``suite`` per run.

    A layer's busy time counts the outermost spans of that layer, so a call
    nested in another call of the same layer is not counted twice; its
    self time is busy time minus the time of child spans in other layers.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _item in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    per_call: dict[str, float] = defaultdict(float)
    per_call_count: dict[str, int] = defaultdict(int)
    for sid, (name, start, end, parent, item) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if item == SETUP_ITEM and layer != "suite":
            continue
        duration = end - start
        calls[layer] += 1
        own[layer] += duration - child_time[sid]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            busy[layer] += duration
        per_call[name] += duration
        per_call_count[name] += 1

    def per_round(layer: str, value: float) -> float:
        return value if layer == "suite" else value / rounds

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = per_round(layer, calls[layer])
        out[f"{layer}.busy_s"] = per_round(layer, busy[layer])
        out[f"{layer}.self_s"] = per_round(layer, own[layer])
    named = {
        "solver.instance_s": "solver.GameInstance",
        "solver.solve_s": "solver.solve",
        "solver.extract_s": "solver.extract_minimal_size",
        "criteria.kraft_s": "criteria.kraft_sum",
        "criteria.moran_s": "criteria.moran_dimension",
        "covering.measure_criterion_s": "covering.measure_criterion",
        "freegroup.hat_index_s": "freegroup.hat_index",
        "freegroup.fold_s": "freegroup.fold",
        "freegroup.membership_s": "freegroup.membership",
        "files.load_s": "files.load_game",
        "files.emit_s": "files.dumps_canonical",
        "covering.mc_s": "covering.monte_carlo_hit",
        "covering.exact_s": "covering.exact_hit_probability",
        "covering.lifted_s": "covering.lifted_measure_sum",
        "codes.maximal_s": "codes.is_maximal",
    }
    for metric, span in named.items():
        out[metric] = per_call[span] / rounds
    out["solver.solve_calls"] = per_call_count["solver.solve"] / rounds
    counts = tracer.counts
    for key in ("solver.even_nodes", "freegroup.letters", "freegroup.core_vertices",
                "covering.trials", "covering.lifts"):
        out[key] = counts[key] / rounds
    out["solver.budget_rejections"] = counts["solver.solve:BudgetExceededError"] / rounds
    mc_seconds = per_call["covering.monte_carlo_hit"]
    out["covering.trials_per_s"] = counts["covering.trials"] / mc_seconds if mc_seconds else 0.0
    return out
