"""Multivariate time-series panels and the shared panel file format.

A panel holds a d x T matrix of observations, one row per node.  On disk a
panel is a plain comma-separated table with one row per time step: first
column the time label, remaining columns the node values, preceded by
optional ``# key: value`` metadata comments (simulation provenance such as
the RNG identity and seed lives there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, GnarError
from .textfile import check_cell, read_rows, write_text_atomic


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """d x T observation matrix with node and time labels."""

    values: np.ndarray
    node_labels: tuple[str, ...]
    time_labels: tuple[str, ...]
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise GnarError(f"panel values must be 2-d, got shape {values.shape}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "node_labels", tuple(str(x) for x in self.node_labels))
        object.__setattr__(self, "time_labels", tuple(str(x) for x in self.time_labels))
        d, T = values.shape
        if T < 1:
            raise GnarError("panel must contain at least one time step")
        if len(self.node_labels) != d:
            raise GnarError(f"{len(self.node_labels)} node labels for {d} rows")
        if len(self.time_labels) != T:
            raise GnarError(f"{len(self.time_labels)} time labels for {T} columns")
        if not np.all(np.isfinite(values)):
            raise GnarError("panel contains non-finite values")

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def T(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray, time_labels=None) -> "TimeSeriesPanel":
        """Same labels/metadata, new observation matrix."""
        return TimeSeriesPanel(
            values=values,
            node_labels=self.node_labels,
            time_labels=self.time_labels if time_labels is None else time_labels,
            meta=dict(self.meta),
        )


def default_node_labels(d: int) -> tuple[str, ...]:
    return tuple(f"n{i}" for i in range(1, d + 1))


def format_panel(panel: TimeSeriesPanel) -> str:
    """The shared panel format; floats use repr for exact round-trips.

    A label or metadata entry that would not read back as written raises
    GnarError: an empty label, a line break, a comma or surrounding
    whitespace, a time label starting with ``#``, a metadata key with ``:``,
    a node label that names a second column.
    """
    for key, value in panel.meta.items():
        check_cell("metadata key", str(key), ":")
        check_cell("metadata value", str(value), "")
    for kind, labels in (("node label", panel.node_labels), ("time label", panel.time_labels)):
        for label in labels:
            check_cell(kind, label)
    if len(set(panel.node_labels)) < panel.d:
        label = next(x for x in panel.node_labels if panel.node_labels.count(x) > 1)
        raise GnarError(f"node label {label!r} is repeated, so a gnar file cannot hold it")
    lines = [f"# {k}: {v}" for k, v in panel.meta.items()]
    lines.append(",".join(("time",) + panel.node_labels))
    for label, row in zip(panel.time_labels, panel.values.T.tolist()):
        lines.append(",".join([label, *map(repr, row)]))
    return "\n".join(lines) + "\n"


def write_panel(panel: TimeSeriesPanel, path: str | Path) -> None:
    write_text_atomic(path, format_panel(panel))


def read_panel(path: str | Path) -> TimeSeriesPanel:
    comments, lines = read_rows(path)
    meta: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for ln, text in (c for c in comments if ":" in c[1]):
        key, value = map(str.strip, text.split(":", 1))
        if key in set_on:
            raise DataError(f"{path}:{ln}: metadata {key!r} was already set on line {set_on[key]}")
        meta[key], set_on[key] = value, ln
    ln, cells = next(lines, (0, None))
    if cells is None:
        raise DataError(f"{path}: no panel data found")
    if cells[0].strip().lower() != "time":
        raise DataError(f"{path}:{ln}: first header column must be 'time'")
    header = [c.strip() for c in cells[1:]]
    if not header:
        raise DataError(f"{path}:{ln}: no node columns")
    if "" in header:
        raise DataError(f"{path}:{ln}: node column {header.index('') + 1} has no label")
    if len(set(header)) < len(header):
        j = next(j for j, label in enumerate(header) if label in header[:j])
        raise DataError(f"{path}:{ln}: node column {j + 1} repeats the label {header[j]!r} "
                        f"of node column {header.index(header[j]) + 1}")
    times: list[str] = []
    rows: list[np.ndarray] = []
    row_lines: list[int] = []
    for ln, cells in lines:
        if len(cells) != len(header) + 1:
            raise DataError(f"{path}:{ln}: expected {len(header) + 1} cells, got {len(cells)}")
        times.append(cells[0].strip())
        if not times[-1]:
            raise DataError(f"{path}:{ln}: empty time label")
        try:  # numpy converts each str cell through float(), so syntax and message match it
            rows.append(np.array(cells[1:], dtype=float))
        except ValueError as exc:
            raise DataError(f"{path}:{ln}: non-numeric cell ({exc})") from None
        row_lines.append(ln)
    if not rows:
        raise DataError(f"{path}: no panel data found")
    values = np.stack(rows).T  # (T, d) in C order seen as d x T: BLAS results follow layout
    if not np.isfinite(values).all():
        t, node = np.argwhere(~np.isfinite(values.T))[0]
        raise DataError(f"{path}:{row_lines[t]}: node {header[node]!r} is {values[node, t]}, "
                        "not a finite number")
    return TimeSeriesPanel(values=values, node_labels=tuple(header),
                           time_labels=tuple(times), meta=meta)
