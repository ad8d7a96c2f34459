"""The one coefficient layout: shape checks, parameter counts and stationarity
sums all follow ``theta_index``.

A hypothesis property draws orders of all three variants (a random node
count for local ones) and checks that all-zero coefficients carry the order
and node count they were built with, that changing one array's length gives
refused shapes or another order or node count, that a network of another
node count or node-wise alphas of another rank are refused, and that the
parameter count is the closed-form count.  The stationarity sums agree with the per-array
oracle to within 2 ulps, and a per-community fit's sum is, bit for bit, its
group's sum in ``stationarity_margin``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnar.errors import OrderError, SizeError
from gnar.estimate import fit_per_community
from gnar.model import (GnarCoefficients, GnarOrder, abs_sums, stationarity_margin,
                        theta_index, to_var)
from gnar.network import bfs_distances, build_network, default_weights
from gnar.simulate import simulate

from oracles import loop_abs_sums

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)


@st.composite
def orders_and_d(draw):
    """An order of any variant, with a node count for local orders (None otherwise)."""
    variant = draw(st.sampled_from(("global", "community", "local")))
    groups = draw(st.integers(1, 4)) if variant == "community" else 1
    lags = [draw(st.integers(1, 3)) for _ in range(groups)]
    stages = tuple(tuple(draw(st.integers(0, 3)) for _ in range(p)) for p in lags)
    d = draw(st.integers(1, 12)) if variant == "local" else None
    return GnarOrder(variant, tuple(lags), stages), d


def closed_form_count(order: GnarOrder, d: int | None) -> int:
    if order.variant == "local":
        return d * order.lags[0] + sum(order.stages[0])
    return sum(order.lags) + sum(sum(s) for s in order.stages)


def with_array(coeffs: GnarCoefficients, path: tuple, new) -> GnarCoefficients:
    """A copy of coeffs with the array at ``path`` replaced by ``new``."""
    alpha, beta, nodes = coeffs.alpha, coeffs.beta, coeffs.alpha_nodes
    if path[0] == "alpha":
        alpha = alpha[:path[1]] + (new,) + alpha[path[1] + 1:]
    elif path[0] == "beta":
        g, k = path[1:]
        group = beta[g][:k] + (new,) + beta[g][k + 1:]
        beta = beta[:g] + (group,) + beta[g + 1:]
    else:
        nodes = new
    return GnarCoefficients(coeffs.variant, alpha, beta, coeffs.noise_sd, nodes)


@PROPERTY
@given(orders_and_d(), st.data())
def test_zeros_pass_and_any_one_shape_change_is_refused(order_d, data):
    order, d = order_d
    coeffs = GnarCoefficients.from_theta(np.zeros(order.param_count(d)), order, 1.0, d)
    assert (coeffs.order, coeffs.d) == (order, d)
    assert order.param_count(d) == len(theta_index(order, d)) == closed_form_count(order, d)
    assert len(coeffs.theta) == order.param_count(d)

    paths = [("alpha", g) for g in range(len(coeffs.alpha))]
    paths += [("beta", g, k) for g, group in enumerate(coeffs.beta) for k in range(len(group))]
    if coeffs.alpha_nodes is not None:
        paths.append(("alpha_nodes",))
    path = data.draw(st.sampled_from(paths))
    old = (coeffs.alpha_nodes if path[0] == "alpha_nodes" else
           coeffs.alpha[path[1]] if path[0] == "alpha" else coeffs.beta[path[1]][path[2]])
    grow = data.draw(st.booleans()) or len(old) == 0
    changed = np.zeros((len(old) + 1 if grow else len(old) - 1,) + old.shape[1:])
    try:  # the shapes are refused, or they are those of another order or node count
        other = with_array(coeffs, path, changed)
    except OrderError:
        pass
    else:
        assert (other.order, other.d) != (order, d)

    if order.variant == "local":
        net = build_network(d + 1, [(i, i + 1) for i in range(1, d + 1)])
        with pytest.raises(SizeError, match=f"coefficients has {d} nodes, network has {d + 1}"):
            to_var(coeffs, net, default_weights(bfs_distances(net)))
        for reshaped in (coeffs.alpha_nodes.ravel(), coeffs.alpha_nodes[..., None]):
            with pytest.raises(OrderError):
                with_array(coeffs, ("alpha_nodes",), reshaped)
        with pytest.raises(OrderError):  # local coefficients carry no group alphas
            GnarCoefficients("local", (np.zeros(order.lags[0]),), coeffs.beta, 1.0,
                             coeffs.alpha_nodes)
    else:
        with pytest.raises(OrderError):  # only local coefficients carry node-wise alphas
            with_array(coeffs, ("alpha_nodes",), np.zeros((3, order.lags[0])))


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


@PROPERTY
@given(orders_and_d(), st.integers(0, 2**32 - 1), st.sampled_from((1e-3, 0.3, 1.0, 1e3)))
def test_stationarity_sums_match_per_array_oracle(order_d, seed, scale):
    order, d = order_d
    theta = np.random.default_rng(seed).uniform(-scale, scale, order.param_count(d))
    coeffs = GnarCoefficients.from_theta(theta, order, d=d)
    report = stationarity_margin(coeffs)
    sums, labels = loop_abs_sums(coeffs, order)
    assert report.labels == labels
    assert np.all(ulps_apart(report.sums, sums) <= 2)
    assert report.stationary == bool(np.all(sums < 1.0))


def test_per_community_fit_sum_is_its_groups_margin_sum(fivenet, fivenet_weights,
                                                        fivenet_partition, table1_model):
    coeffs, order = table1_model
    panel = simulate(coeffs, order, fivenet, fivenet_weights, 300,
                     part=fivenet_partition, seed=5)
    fits = fit_per_community(panel, order, fivenet, fivenet_weights, fivenet_partition)
    theta = np.concatenate([fit.theta for fit in fits])  # groups ascending: theta_index
    report = stationarity_margin(GnarCoefficients.from_theta(theta, order))
    for c, fit in enumerate(fits, start=1):
        assert fit.stationarity_sums.shape == (1,)
        assert fit.stationarity_sums[0] == report.sums[c - 1]
        assert fit.stationary == (report.sums[c - 1] < 1.0)
        assert abs_sums(fit.columns, fit.theta).labels == (str(c),)
