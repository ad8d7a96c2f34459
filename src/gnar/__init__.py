"""Community-aware generalised network autoregressive modelling."""

from .autocorr import AcfCell, CorbitGrid, corbit_grid, nacf, pnacf
from .corbit_svg import RenderOptions, render_corbit, render_rcorbit
from .errors import (CovarianceError, DataError, DesignError, GnarError,
                     NetworkError, OrderError, RankDeficiencyError, SizeError)
from .estimate import (DesignSystem, FitResult, KroneckerCovariance,
                       build_community_design, build_design, coefficient_table,
                       fit_gls, fit_ols, fit_per_community)
from .forecast import (ExternalForecast, ForecastReport, ModelSpec, compare,
                       forecast, naive_forecast, rmspe)
from .model import (GnarCoefficients, GnarOrder, NodewiseCoefficients,
                    StationarityReport, format_order, parse_order, read_model,
                    stationarity_margin, theta_index, to_local_alpha, to_var,
                    write_model)
from .network import (Network, UNREACHABLE, bfs_distances, build_network,
                      default_weights, mask_weights, max_stage, read_edge_list,
                      stage_adjacency, stage_weights, write_edge_list)
from .panel import TimeSeriesPanel, read_panel, write_panel
from .partition import CommunityPartition, read_partition, single_community, write_partition
from .simulate import simulate

__version__ = "0.1.0"

__all__ = [
    "AcfCell", "CommunityPartition", "CorbitGrid", "CovarianceError",
    "DataError", "DesignError", "DesignSystem", "ExternalForecast",
    "FitResult", "ForecastReport", "GnarCoefficients", "GnarError",
    "GnarOrder", "KroneckerCovariance", "ModelSpec", "Network",
    "NetworkError", "NodewiseCoefficients", "OrderError",
    "RankDeficiencyError", "RenderOptions", "SizeError", "StationarityReport",
    "TimeSeriesPanel", "UNREACHABLE", "bfs_distances",
    "build_community_design", "build_design", "build_network",
    "coefficient_table", "compare", "corbit_grid", "default_weights",
    "fit_gls", "fit_ols", "fit_per_community", "forecast", "format_order",
    "mask_weights", "max_stage", "nacf", "naive_forecast", "parse_order",
    "pnacf", "read_edge_list", "read_model", "read_panel", "read_partition",
    "render_corbit", "render_rcorbit", "rmspe", "simulate",
    "single_community", "stage_adjacency", "stage_weights", "stationarity_margin",
    "theta_index", "to_local_alpha", "to_var", "write_edge_list",
    "write_model", "write_panel", "write_partition",
]
