"""Spans around calls into biphoton's public layer functions.

The tracer wraps each function in ``LAYERS`` wherever a biphoton module
holds a reference to it, so the real ``cli.main`` runs unchanged and every
call, also one nested inside another layer's function, gets its own span
with the span that called it as parent.  Nothing under ``src/`` is edited:
``Tracer.installed`` puts the original functions back when it exits.

A layer is a module.  Each layer metric is named ``<module>.<function>_s``
(time inside the call, nested calls included) or ``<module>.<count>``
(work the call did), and ``target`` records which end-to-end metric on which
workload the metric is expected to move.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# Modules whose namespaces may hold a reference to a layer function.
MODULES = ("cli", "coincidence", "correlation", "csvio", "fiber", "jones", "state")

ROOT_SPAN = "cli.main"


def _one_call(args, kwargs, result):
    return (1,)


def _csv_counts(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    columns = kwargs["columns"] if "columns" in kwargs else args[1]
    return len(next(iter(columns.values()))), os.path.getsize(path)


@dataclass(frozen=True)
class Layer:
    module: str
    function: str
    target: str
    # Names of the work counts of one call, and how to read them from
    # (args, kwargs, result).
    count_names: tuple[str, ...] = ()
    counts: Callable[[tuple, dict, object], tuple] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


_STATE = "scenario_ref_p50 and peak_rss_mib on bell-fine-grid; negligible on histogram-heavy"

LAYERS = (
    Layer("state", "pdc_state", _STATE, ("grid_points",), lambda a, k, r: (r.grid.n,)),
    Layer("state", "apply_local", _STATE),
    Layer("fiber", "drift_walk", "scenario_ref_p50 and throughput on drift-long; zero elsewhere",
          ("drift_steps",), lambda a, k, r: (len(r) - 1,)),
    Layer("jones", "round_trip", "scenario_ref_p50 on drift-long",
          ("round_trip_calls",), _one_call),
    Layer("correlation", "g2_analytic", "scenario_ref_p50 and peak_rss_mib on surface-csv",
          ("g2_analytic_calls",), _one_call),
    Layer("correlation", "postselect", "scenario_ref_p50 on bell-fine-grid"),
    Layer("correlation", "g2_numeric", "histogram-heavy only, at n = 512"),
    Layer("coincidence", "simulate_histogram", "scenario_ref_p50 on histogram-heavy",
          ("pairs",), lambda a, k, r: (r.n_pairs,)),
    Layer("coincidence", "estimate_visibility", "scenario_ref_p50 on histogram-heavy"),
    Layer("coincidence", "drift_timeseries", "scenario_ref_p50 on drift-long",
          ("drift_samples",), lambda a, k, r: (len(r),)),
    Layer("csvio", "write_csv",
          "scenario_ref_p50 on surface-csv; small on drift-long, about zero on bell-fine-grid",
          ("rows", "bytes"), _csv_counts),
)

# Every per-layer metric, with the end-to-end metric and workload it targets.
TARGETS = {
    "cli.self_s": "scenario_ref_p50 on surface-csv (plate loop and concatenation)",
    "trace.overhead_s": "none: traced scenario time minus the untraced median",
}
for _layer in LAYERS:
    TARGETS[f"{_layer.name}_s"] = _layer.target
    for _count in _layer.count_names:
        TARGETS[f"{_layer.module}.{_count}"] = _layer.target


def missing_layers() -> list[str]:
    """LAYERS functions that are gone from their modules.

    Their metrics would read 0, which looks like a gain, so a traced run
    refuses to start until a change that removes one retargets its metrics.
    """
    return [layer.name for layer in LAYERS
            if not hasattr(importlib.import_module(f"biphoton.{layer.module}"), layer.function)]


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, float] = {}


class Tracer:
    """Keeps the spans of the current traced request in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, name: str, fn, count_names: tuple[str, ...] = (), counts=None):
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                self.spans.append(span)
            if counts is not None:
                span.counts = dict(zip(count_names, counts(args, kwargs, result)))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every layer call through a span while the block runs."""
        modules = [importlib.import_module(f"biphoton.{m}") for m in MODULES]
        patched = []
        try:
            for layer in LAYERS:
                original = getattr(importlib.import_module(f"biphoton.{layer.module}"),
                                   layer.function)
                traced = self.wrap(layer.name, original, layer.count_names, layer.counts)
                for module in modules:
                    if getattr(module, layer.function, None) is original:
                        setattr(module, layer.function, traced)
                        patched.append((module, layer.function, original))
            yield
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name of the request just traced: calls, inclusive and
        self seconds, summed counts.  Clears the spans for the next request."""
        spans, self.spans = self.spans, []
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = s.end - s.start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(id(s), 0.0)
            for key, value in s.counts.items():
                entry[key] = entry.get(key, 0) + value
        return out


def layer_metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metric values of one traced request (0 where a layer exists
    but the scenario never calls it)."""
    metrics = {"cli.self_s": summary[ROOT_SPAN]["self_s"]}
    for layer in LAYERS:
        entry = summary.get(layer.name, {})
        metrics[f"{layer.name}_s"] = entry.get("total_s", 0.0)
        for count in layer.count_names:
            metrics[f"{layer.module}.{count}"] = entry.get(count, 0)
    return metrics


def module_shares(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Share of the scenario's time spent in each module's own code."""
    root = summary[ROOT_SPAN]["total_s"]
    shares: dict[str, float] = {}
    for name, entry in summary.items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + entry["self_s"] / root
    return shares


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
