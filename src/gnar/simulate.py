"""Seeded simulation of network autoregressive processes.

The process iterates the VAR form X_t = sum_k Phi_k X_{t-k} + u_t from zero
initial conditions, discards a burn-in prefix and returns the last T steps.
Innovations are i.i.d. Gaussian with covariance sigma^2 I.  All randomness
flows through numpy's default PCG64 generator; its identity, the seed and
the burn-in are recorded in the returned panel's metadata so a run can be
reproduced exactly from the panel file alone.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import GnarError, OrderError
from .model import (GnarCoefficients, GnarOrder, format_order, stationarity_margin, to_var,
                    unmet_stationarity)
from .network import Network
from .panel import TimeSeriesPanel, default_node_labels
from .partition import CommunityPartition

RNG_NAME = "numpy-pcg64"


def var_recursion(phi: np.ndarray, X: np.ndarray, start: int) -> np.ndarray:
    """Run the VAR recursion in place on the d x time buffer X and return it.

    Each column t >= start, preloaded with its innovation (or zero), gains
    Phi_k X[:, t-k] for k = 1..p in lag order.
    """
    for t in range(start, X.shape[1]):
        for k in range(1, phi.shape[0] + 1):
            X[:, t] += phi[k - 1] @ X[:, t - k]
    return X


def simulate(coeffs: GnarCoefficients, order: GnarOrder, net: Network,
             W: np.ndarray, T: int, *, part: CommunityPartition | None = None,
             burn_in: int = 200, seed: int = 0,
             allow_nonstationary: bool = False) -> TimeSeriesPanel:
    """Generate one realisation of length T of the coefficients' model, whose order
    must be ``order``.

    Coefficient sets that do not meet the sufficient stationarity condition
    (every group's absolute sum below 1) are rejected unless
    ``allow_nonstationary`` is set, in which case a warning is issued and
    the run proceeds (trajectories may diverge).
    """
    if T < 1:
        raise GnarError(f"simulation length must be >= 1, got {T}")
    if burn_in < 0:
        raise GnarError(f"burn-in must be >= 0, got {burn_in}")
    if seed < 0:
        raise GnarError(f"seed must be >= 0, got {seed}")
    if order != coeffs.order:
        raise OrderError(f"coefficients are {format_order(coeffs.order)}, "
                         f"not {format_order(order)}")
    report = stationarity_margin(coeffs)
    if not report.stationary:
        if not allow_nonstationary:
            raise GnarError(unmet_stationarity("coefficients do not meet", report.sums, 4)
                            + "; pass allow_nonstationary=True to simulate anyway")
        warnings.warn(unmet_stationarity("simulating a model whose coefficients do not meet"),
                      stacklevel=2)
    phi = to_var(coeffs, net, W, part)
    p, d = phi.shape[0], net.d
    rng = np.random.default_rng(seed)
    steps = burn_in + T
    X = np.zeros((d, p + steps))
    X[:, p:] = rng.normal(0.0, coeffs.noise_sd, size=(steps, d)).T
    values = var_recursion(phi, X, p)[:, p + burn_in:]
    meta = {
        "rng": RNG_NAME,
        "seed": str(seed),
        "burn_in": str(burn_in),
        "noise_sd": repr(float(coeffs.noise_sd)),
    }
    return TimeSeriesPanel(values=values,
                           node_labels=default_node_labels(d),
                           time_labels=tuple(str(t) for t in range(1, T + 1)),
                           meta=meta)
