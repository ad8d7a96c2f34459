"""Spans and counts at the boundaries of gnar's layers, recorded from outside.

The tracer wraps public functions of each ``gnar`` module.  A module that
imported a function by name holds its own reference to it, so each wrapper
replaces the name in every ``gnar`` module that holds the original
function.  Spans (layer, name, parent, start, end) are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover; spans nest strictly on one thread, so that
is the duration minus the sum of the children's durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: (module, attribute, layer) for every wrapped function.  ``design``,
#: ``solve`` and ``fit`` are the three parts of the estimate layer.
TARGETS = (
    ("network", "bfs_distances", "network"),
    ("network", "max_stage", "network"),
    ("network", "stage_adjacency", "network"),
    ("network", "default_weights", "network"),
    ("network", "mask_weights", "network"),
    ("network", "read_edge_list", "network"),
    ("autocorr", "corbit_grid", "autocorr"),
    ("autocorr", "nacf", "autocorr"),
    ("autocorr", "pnacf", "autocorr"),
    ("autocorr", "CorbitGrid.to_csv_text", "autocorr"),
    ("estimate", "build_design", "estimate.design"),
    ("estimate", "build_community_design", "estimate.design"),
    ("estimate", "solve_least_squares", "estimate.solve"),
    ("estimate", "fit_ols", "estimate.fit"),
    ("estimate", "fit_gls", "estimate.fit"),
    ("estimate", "fit_per_community", "estimate.fit"),
    ("estimate", "coefficient_table", "estimate.fit"),
    ("model", "to_var", "model"),
    ("model", "to_local_alpha", "model"),
    ("model", "stationarity_margin", "model"),
    ("model", "theta_index", "model"),
    ("model", "parse_order", "model"),
    ("model", "format_model", "model"),
    ("model", "read_model", "model"),
    ("simulate", "simulate", "simulate"),
    ("forecast", "forecast", "forecast"),
    ("forecast", "naive_forecast", "forecast"),
    ("forecast", "rmspe", "forecast"),
    ("forecast", "compare", "forecast"),
    ("forecast", "load_external_forecast", "forecast"),
    ("corbit_svg", "render_corbit", "corbit_svg"),
    ("corbit_svg", "render_rcorbit", "corbit_svg"),
    ("panel", "format_panel", "panel"),
    ("panel", "read_panel", "panel"),
    ("panel", "write_panel", "panel"),
    ("partition", "read_partition", "partition"),
    ("partition", "format_partition", "partition"),
    ("elections", "load_returns", "elections"),
    ("elections", "classify", "elections"),
    ("elections", "standardize", "elections"),
    ("elections", "difference", "elections"),
    ("elections", "us_border_network", "elections"),
    ("cli", "main", "cli"),
    ("cli", "write_text_atomic", "cli"),
)

#: Per-layer metrics, in the order they are reported, with their units.
#: ``*_s`` metrics are the summed self time of the named layer's spans.
METRICS = (
    ("network.all_pairs_calls", "count"), ("network.self_s", "s"),
    ("autocorr.cells", "count"), ("autocorr.degenerate_cells", "count"),
    ("autocorr.self_s", "s"),
    ("estimate.design_calls", "count"), ("estimate.design_cells", "count"),
    ("estimate.design_s", "s"),
    ("estimate.solve_calls", "count"), ("estimate.solve_s", "s"),
    ("estimate.fit_s", "s"),
    ("model.to_var_calls", "count"), ("model.self_s", "s"),
    ("simulate.steps", "count"), ("simulate.self_s", "s"),
    ("forecast.fits", "count"), ("forecast.self_s", "s"),
    ("corbit_svg.bytes", "bytes"), ("corbit_svg.self_s", "s"),
    ("panel.bytes", "bytes"), ("panel.self_s", "s"),
    ("partition.self_s", "s"), ("elections.self_s", "s"),
    ("cli.files_written", "count"), ("cli.self_s", "s"),
    ("traced.pass_s", "s"),
)

_SELF_TIME = {"estimate.design": "estimate.design_s", "estimate.solve": "estimate.solve_s",
              "estimate.fit": "estimate.fit_s"}


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them again."""

    def __init__(self):
        self.spans: list[list] = []   # [layer, name, parent index, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------
    def install(self) -> None:
        import gnar  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items()
                   if name == "gnar" or name.startswith("gnar.")]
        for module_name, attr, layer in TARGETS:
            module = sys.modules[f"gnar.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                self._replace(cls, meth, self._wrap(layer, f"{module_name}.{attr}", original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, f"{module_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def _replace(self, owner, key: str, new) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    # -- recording -----------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        count = getattr(self, "_count_" + name.split(".")[-1], None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [layer, name, parent, time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(index)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    parent_name = self.spans[parent][1] if parent >= 0 else ""
                    count(bound.arguments, result, error, parent_name)

        return wrapper

    def _count_bfs_distances(self, args, result, error, parent):
        self.counts["network.all_pairs_calls"] += 1

    def _count_cell(self, args, result, error, parent):
        if parent in ("autocorr.nacf", "autocorr.pnacf"):
            return  # pnacf at lag 1 delegates to nacf: still one cell
        self.counts["autocorr.cells"] += 1
        if error is not None or (result is not None and result.degenerate):
            self.counts["autocorr.degenerate_cells"] += 1

    _count_nacf = _count_pnacf = _count_cell

    def _count_design(self, args, result, error, parent):
        self.counts["estimate.design_calls"] += 1
        if result is not None:
            self.counts["estimate.design_cells"] += result.n * result.q

    _count_build_design = _count_build_community_design = _count_design

    def _count_solve_least_squares(self, args, result, error, parent):
        self.counts["estimate.solve_calls"] += 1

    def _count_to_var(self, args, result, error, parent):
        self.counts["model.to_var_calls"] += 1

    def _count_simulate(self, args, result, error, parent):
        self.counts["simulate.steps"] += args["T"] + args["burn_in"]

    def _count_fit_ols(self, args, result, error, parent):
        if parent == "forecast.compare":
            self.counts["forecast.fits"] += 1

    def _count_render(self, args, result, error, parent):
        if result is not None:
            self.counts["corbit_svg.bytes"] += len(result.encode())

    _count_render_corbit = _count_render_rcorbit = _count_render

    def _count_format_panel(self, args, result, error, parent):
        if result is not None:
            self.counts["panel.bytes"] += len(result.encode())

    def _count_read_panel(self, args, result, error, parent):
        self.counts["panel.bytes"] += os.path.getsize(args["path"])

    def _count_write_text_atomic(self, args, result, error, parent):
        self.counts["cli.files_written"] += 1

    # -- summaries -----------------------------------------------------------
    def mark(self) -> tuple[int, Counter]:
        """Position to summarise from: the spans and counts recorded so far."""
        return len(self.spans), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics over the spans and counts recorded after ``since``."""
        first, counts_before = since
        child_time = defaultdict(float)
        for layer, name, parent, start, end in self.spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        out = {name: 0.0 if unit == "s" else 0 for name, unit in METRICS}
        for index in range(first, len(self.spans)):
            layer, name, parent, start, end = self.spans[index]
            key = _SELF_TIME.get(layer, f"{layer}.self_s")
            out[key] += (end - start) - child_time[index]
        for key, value in self.counts.items():
            out[key] = value - counts_before.get(key, 0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("layer", "name", "parent", "start", "end")
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n")
