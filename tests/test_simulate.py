import re

import numpy as np
import pytest

from gnar.errors import GnarError, OrderError
from gnar.model import GnarCoefficients, GnarOrder, parse_order, to_var
from gnar.simulate import simulate

from oracles import companion_spectral_radius


def zero_model(p=1, s=1):
    order = GnarOrder("global", (p,), ((s,) * p,))
    return GnarCoefficients.from_theta(np.zeros(order.param_count()), order), order


def test_zero_model_is_pure_noise(fivenet, fivenet_weights):
    coeffs, order = zero_model()
    panel = simulate(coeffs, order, fivenet, fivenet_weights, 100, seed=5)
    x = panel.values.ravel()
    assert x.size == 500
    # pooled mean ~ N(0, 1/500), variance se ~ sqrt(2/499)
    assert abs(x.mean()) < 5 / np.sqrt(500)
    assert abs(x.var(ddof=1) - 1.0) < 5 * np.sqrt(2 / 499)


def test_same_seed_bit_identical(fivenet, fivenet_weights, fivenet_partition,
                                 table1_model):
    coeffs, order = table1_model
    a = simulate(coeffs, order, fivenet, fivenet_weights, 50,
                 part=fivenet_partition, seed=123)
    b = simulate(coeffs, order, fivenet, fivenet_weights, 50,
                 part=fivenet_partition, seed=123)
    assert np.array_equal(a.values, b.values)
    assert a.meta == b.meta


def test_different_seeds_differ(fivenet, fivenet_weights, fivenet_partition,
                                table1_model):
    coeffs, order = table1_model
    a = simulate(coeffs, order, fivenet, fivenet_weights, 50,
                 part=fivenet_partition, seed=1)
    b = simulate(coeffs, order, fivenet, fivenet_weights, 50,
                 part=fivenet_partition, seed=2)
    assert not np.array_equal(a.values, b.values)


def test_metadata_records_rng(fivenet, fivenet_weights, fivenet_partition,
                              table1_model):
    coeffs, order = table1_model
    panel = simulate(coeffs, order, fivenet, fivenet_weights, 10,
                     part=fivenet_partition, seed=77, burn_in=33)
    assert panel.meta["rng"] == "numpy-pcg64"
    assert panel.meta["seed"] == "77"
    assert panel.meta["burn_in"] == "33"


def test_rejects_bad_arguments(fivenet, fivenet_weights):
    coeffs, order = zero_model()
    with pytest.raises(GnarError):
        simulate(coeffs, order, fivenet, fivenet_weights, 0, seed=0)


def test_refuses_an_order_other_than_the_coefficients_own(fivenet, fivenet_weights):
    coeffs, _ = zero_model()
    with pytest.raises(OrderError,
                       match=r"^coefficients are global:1;\[1\], not global:2;\[1,1\]$"):
        simulate(coeffs, zero_model(p=2)[1], fivenet, fivenet_weights, 10)


def test_nonstationary_needs_flag(fivenet, fivenet_weights):
    order = parse_order("global:1;[0]")
    coeffs = GnarCoefficients.from_theta([1.2], order)  # alpha.1
    with pytest.raises(GnarError, match="stationarity"):
        simulate(coeffs, order, fivenet, fivenet_weights, 10, seed=0)
    with pytest.warns(UserWarning):
        panel = simulate(coeffs, order, fivenet, fivenet_weights, 10, seed=0,
                         burn_in=0, allow_nonstationary=True)
    assert panel.T == 10


def test_nonstationary_refusal_names_the_condition_and_the_largest_sum(fivenet,
                                                                       fivenet_weights):
    coeffs = GnarCoefficients.from_theta([1.2], parse_order("global:1;[0]"))  # alpha.1
    message = ("coefficients do not meet the sufficient stationarity condition (every "
               "group's absolute sum below 1; largest sum 1.2000); "
               "pass allow_nonstationary=True to simulate anyway")
    with pytest.raises(GnarError, match=f"^{re.escape(message)}$"):
        simulate(coeffs, coeffs.order, fivenet, fivenet_weights, 10)


def test_stationary_run_stays_bounded(fivenet, fivenet_weights,
                                      fivenet_partition, table1_model):
    coeffs, order = table1_model
    phi = to_var(coeffs, fivenet, fivenet_weights, fivenet_partition)
    radius = companion_spectral_radius(phi)
    assert radius < 1.0  # the VAR form itself certifies stationarity
    panel = simulate(coeffs, order, fivenet, fivenet_weights, 10_000,
                     part=fivenet_partition, seed=9)
    peak = np.abs(panel.values).max()
    assert np.isfinite(peak)
    # stationary scale: no drift between the first and last quarter
    first = np.abs(panel.values[:, :2500]).max()
    last = np.abs(panel.values[:, -2500:]).max()
    assert last < 3 * first
    assert peak < 50 * coeffs.noise_sd


def test_burn_in_discards_prefix(fivenet, fivenet_weights, fivenet_partition,
                                 table1_model):
    coeffs, order = table1_model
    a = simulate(coeffs, order, fivenet, fivenet_weights, 20,
                 part=fivenet_partition, seed=4, burn_in=0)
    b = simulate(coeffs, order, fivenet, fivenet_weights, 20,
                 part=fivenet_partition, seed=4, burn_in=50)
    assert not np.array_equal(a.values, b.values)
    assert a.T == b.T == 20
