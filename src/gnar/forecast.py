"""Iterated forecasts, prediction scoring and the model-comparison harness.

Forecasts iterate the fitted VAR form one step at a time, feeding
predictions back for longer horizons.  Accuracy is scored with the root
mean squared prediction error across nodes, both on the raw scale and on
per-node mean-centred data, where the centring means come from the
training range only.  Baselines fitted by external tools join the
comparison through forecast files in the shared panel format.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, GnarError, check_size
from .estimate import build_design, fit_ols
from .model import GnarCoefficients, GnarOrder, to_var
from .network import Network
from .panel import TimeSeriesPanel, read_panel
from .partition import CommunityPartition
from .simulate import var_recursion
from .textfile import check_cell


def forecast(coeffs: GnarCoefficients, net: Network, W: np.ndarray,
             panel: TimeSeriesPanel, horizon: int,
             part: CommunityPartition | None = None) -> np.ndarray:
    """Iterated one-step predictions; returns an array of shape (horizon, d)."""
    if horizon < 1:
        raise GnarError(f"horizon must be >= 1, got {horizon}")
    check_size("panel", panel.d, "network", net.d)
    phi = to_var(coeffs, net, W, part)
    p = phi.shape[0]
    if panel.T < p:
        raise GnarError(f"panel has {panel.T} steps; forecasting needs at "
                        f"least the maximum lag {p}")
    X = np.zeros((panel.d, panel.T + horizon))
    X[:, :panel.T] = panel.values
    return var_recursion(phi, X, panel.T)[:, panel.T:].T.copy()


def naive_forecast(panel: TimeSeriesPanel, horizon: int = 1) -> np.ndarray:
    """Previous-observation baseline: every step repeats the last value."""
    if horizon < 1:
        raise GnarError(f"horizon must be >= 1, got {horizon}")
    return np.tile(panel.values[:, -1], (horizon, 1))


def rmspe(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Root mean squared prediction error across nodes."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise GnarError(f"dimension mismatch: actual {actual.shape}, "
                        f"predicted {predicted.shape}")
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


@dataclass(frozen=True)
class ModelSpec:
    """A named in-scope model to fit inside a comparison."""

    name: str
    order: GnarOrder

    def __post_init__(self):
        check_cell("model label", self.name)


@dataclass(frozen=True, eq=False)
class ExternalForecast:
    """Held-out predictions imported from an external tool.

    ``raw`` scores against the raw panel; ``centred`` (optional) against
    the mean-centred panel.  Parameter counts are unknown here.
    """

    name: str
    raw: np.ndarray
    centred: np.ndarray | None = None

    def __post_init__(self):
        check_cell("external forecast label", self.name)


def load_external_forecast(name: str, path: str | Path, d: int) -> ExternalForecast:
    """Read an external forecast file (panel format, rows 'raw' and optionally 'centred')."""
    panel = read_panel(path)
    check_size(f"{path}: forecast", panel.d, "panel", d)
    rows: dict[str, np.ndarray] = {}
    for t, label in enumerate(panel.time_labels):
        if label not in ("raw", "centred"):
            raise DataError(f"{path}: row {label!r} is neither 'raw' nor 'centred'")
        if label in rows:
            raise DataError(f"{path}: row {label!r} appears twice")
        rows[label] = panel.values[:, t]
    if "raw" not in rows:
        raise DataError(f"{path}: no row labelled 'raw'")
    return ExternalForecast(name=name, raw=rows["raw"], centred=rows.get("centred"))


@dataclass(frozen=True, eq=False)
class ComparisonEntry:
    name: str
    prediction: np.ndarray
    rmspe: float
    rmspe_centred: float | None
    n_params: int | None


@dataclass(frozen=True, eq=False)
class ForecastReport:
    """Per-model hold-out scores; the text export puts models in columns."""

    holdout_label: str
    entries: tuple[ComparisonEntry, ...]

    def entry(self, name: str) -> ComparisonEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_csv_text(self) -> str:
        names = [e.name for e in self.entries]
        lines = ["metric," + ",".join(names)]
        lines.append("rmspe," + ",".join(f"{e.rmspe:.6f}" for e in self.entries))
        lines.append("rmspe_centred," + ",".join(
            "NA" if e.rmspe_centred is None else f"{e.rmspe_centred:.6f}"
            for e in self.entries))
        lines.append("n_params," + ",".join(
            "NA" if e.n_params is None else str(e.n_params) for e in self.entries))
        return "\n".join(lines) + "\n"


def _fit_and_predict(panel: TimeSeriesPanel, order: GnarOrder, net: Network,
                     W: np.ndarray, part: CommunityPartition | None) -> np.ndarray:
    coeffs = fit_ols(build_design(panel, order, net, W, part)).to_coefficients()
    return forecast(coeffs, net, W, panel, 1, part)[0]


def compare(panel: TimeSeriesPanel, net: Network, W: np.ndarray,
            specs: list[ModelSpec], part: CommunityPartition | None = None,
            holdout: int = -1,
            external: list[ExternalForecast] | None = None) -> ForecastReport:
    """Fit each spec before the hold-out step and score its one-step forecast.

    Every report includes the previous-observation baseline.  Raw-scale
    fits give the rmspe column; refits on per-node mean-centred training
    data give the centred column (training means only, so the held-out
    value leaks into neither).  Model names are distinct and none is ``naive``.
    External forecasts are checked against the panel's size before any fit.
    """
    names = ["naive"] + [s.name for s in specs] + [e.name for e in external or []]
    for i, name in enumerate(names[1:], start=1):
        if name in names[:i]:
            raise GnarError(f"model name {name!r} is taken; names are distinct and not 'naive'")
    for ext in external or []:
        for suffix, values in (("", ext.raw), (" centred row", ext.centred)):
            if values is not None:
                check_size(f"external forecast {ext.name!r}{suffix}", np.size(values),
                           "panel", panel.d)
    idx = holdout if holdout >= 0 else panel.T + holdout
    if not (0 < idx < panel.T):
        raise GnarError(f"hold-out index {holdout} outside the panel")
    train = TimeSeriesPanel(values=panel.values[:, :idx],
                            node_labels=panel.node_labels,
                            time_labels=panel.time_labels[:idx])
    means = train.values.mean(axis=1)
    train_c = train.with_values(train.values - means[:, None])
    actual = panel.values[:, idx]
    actual_c = actual - means
    # (name, prediction, centred prediction or None, parameter count or None)
    rows = [(spec.name, _fit_and_predict(train, spec.order, net, W, part),
             _fit_and_predict(train_c, spec.order, net, W, part),
             spec.order.param_count(panel.d)) for spec in specs]
    naive = naive_forecast(train, 1)[0]
    rows.append(("naive", naive, naive - means, None))
    rows += [(ext.name, ext.raw, ext.centred, None) for ext in external or []]
    entries = tuple(
        ComparisonEntry(name, pred, rmspe(actual, pred),
                        None if pred_c is None else rmspe(actual_c, pred_c), n_params)
        for name, pred, pred_c, n_params in rows)
    return ForecastReport(holdout_label=panel.time_labels[idx], entries=entries)
