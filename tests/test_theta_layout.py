"""The one coefficient layout: shape checks, parameter counts and stationarity
sums all follow ``theta_index``.

A hypothesis property draws orders of all three variants (a random node
count for local ones) and checks that all-zero coefficients carry the order
and node count they were built with, that a theta one slot longer or shorter,
or of another rank, is refused, that a local model on a network of another
node count is refused, and that the parameter count is the closed-form count.
The stationarity sums agree with the per-array oracle to within 2 ulps, and a
per-community fit's sum is, bit for bit, its group's sum in
``stationarity_margin``.
"""

import re

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


@PROPERTY
@given(orders_and_d(), st.booleans())
def test_zeros_pass_and_any_one_shape_change_is_refused(order_d, grow):
    order, d = order_d
    coeffs = GnarCoefficients.from_theta(np.zeros(order.param_count(d)), order, 1.0, d)
    assert (coeffs.order, coeffs.d) == (order, d)
    assert order.param_count(d) == len(theta_index(order, d)) == closed_form_count(order, d)
    assert len(coeffs.theta) == order.param_count(d)

    size = order.param_count(d)
    for shape in ((size + 1 if grow else size - 1,), (1, size)):
        with pytest.raises(OrderError, match=f"^{re.escape(f'theta length {shape}')} "
                                             f"does not match {size}$"):
            GnarCoefficients.from_theta(np.zeros(shape), order, 1.0, d)

    if order.variant == "local":
        net = build_network(d + 1, [(i, i + 1) for i in range(1, d + 1)])
        with pytest.raises(SizeError, match=f"coefficients has {d} nodes, network has {d + 1}"):
            to_var(coeffs, net, default_weights(bfs_distances(net)))


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
        assert fit.stationarity.sums.shape == (1,)
        assert fit.stationarity.sums[0] == report.sums[c - 1]
        assert fit.stationarity.stationary == (report.sums[c - 1] < 1.0)
        assert abs_sums(fit.columns, fit.theta).labels == (str(c),)
