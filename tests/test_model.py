import inspect
import re
import tracemalloc

import numpy as np
import pytest

import gnar
from gnar.errors import DataError, OrderError
from gnar.model import (GnarCoefficients, GnarOrder, format_model, format_order,
                        parse_order, read_model, stationarity_margin,
                        theta_index, to_local_alpha, to_var, write_model)
from gnar.network import MAX_NODES, bfs_distances, build_network, default_weights
from gnar.partition import CommunityPartition, single_community

from oracles import structural_prediction


def random_community_coeffs(rng, order, scale=0.3):
    return GnarCoefficients.from_theta(rng.uniform(-scale, scale, order.param_count()), order)


# ---------------------------------------------------------------------------
# orders and the grammar
# ---------------------------------------------------------------------------

def test_order_validation():
    with pytest.raises(OrderError):
        GnarOrder("global", (0,), ((),))
    with pytest.raises(OrderError):
        GnarOrder("global", (2,), ((1,),))  # stage list length mismatch
    with pytest.raises(OrderError):
        GnarOrder("global", (1,), ((-1,),))
    order = GnarOrder("community", (1, 2), ((1,), (1, 1)))
    assert order.p_max == 2 and order.r_star == 1
    assert order.param_count() == 6


@pytest.mark.parametrize("variant, lags, stages, message", [
    ("vector", (1,), ((1,),), "unknown variant 'vector'"),
    ("global", (1, 1), ((1,), (1,)), "global orders have a single group"),
    ("local", (2, 1), ((1, 0), (1,)), "local orders have a single group"),
])
def test_order_refuses_an_unknown_variant_and_a_second_group(variant, lags, stages, message):
    with pytest.raises(OrderError) as err:
        GnarOrder(variant, lags, stages)
    assert str(err.value) == message


def test_zero_stage_orders_are_legal():
    order = parse_order("community:[2,2,2];{[1,0],[1,0],[1,0]}")
    assert order.param_count() == 9
    assert parse_order("global:2;[1,0]").param_count() == 3


def test_local_param_count_needs_d():
    order = parse_order("local:2;[1,0]")
    with pytest.raises(OrderError):
        order.param_count()
    assert order.param_count(51) == 51 * 2 + 1


@pytest.mark.parametrize("text", [
    "global:2;[1,0]",
    "local:2;[1,0]",
    "community:[1,2];{[1],[1,1]}",
    "community:[2,2,2];{[1,0],[1,0],[1,0]}",
])
def test_order_grammar_round_trip(text):
    assert format_order(parse_order(text)) == text


def test_order_grammar_allows_whitespace_between_tokens():
    assert parse_order(" community : [ 1 , 2 ] ;\t{ [1] , [ 1,1 ] } ") == \
        parse_order("community:[1,2];{[1],[1,1]}")
    assert parse_order(" local : 2 ; [ 1 , 0 ]\n") == parse_order("local:2;[1,0]")


@pytest.mark.parametrize("text", [
    "nonsense:1;[1]", "global:2", "community:[1,2];{[1]}", "global:x;[1]",
    "community:[1];[1]", "",
    "community:[1,2];{[1]x[1,1]}", "community:[1,2];{[1] [1,1]}",
    "community:[1,2];{[1],[1,1],}", "community:[1,2];{,,[1]junk,[1,1]}",
    "community:[1,2];{[1],[1,1]}}",
])
def test_order_grammar_rejects(text):
    with pytest.raises(OrderError):
        parse_order(text)


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------

def test_stationarity_table1_sums(table1_model):
    coeffs, _ = table1_model
    report = stationarity_margin(coeffs)
    assert report.sums[0] == pytest.approx(0.45, abs=1e-12)
    assert report.sums[1] == pytest.approx(0.87, abs=1e-12)
    assert report.stationary
    assert report.margin == pytest.approx(1 - 0.87, abs=1e-12)


def test_stationarity_swing_estimates_violate():
    # the three swing-state estimates of the election fit sum past one
    coeffs = GnarCoefficients.from_theta([0.905, -0.747, -0.591],  # alpha.1, beta.1.1, alpha.2
                                         parse_order("global:2;[1,0]"))
    report = stationarity_margin(coeffs)
    assert report.sums[0] == pytest.approx(2.243, abs=1e-12)
    assert not report.stationary


def test_stationarity_zero_coefficients():
    coeffs = GnarCoefficients.from_theta(np.zeros(2), parse_order("global:1;[1]"))
    report = stationarity_margin(coeffs)
    assert report.sums[0] == 0.0 and report.margin == 1.0 and report.stationary


def test_stationarity_ignores_noise_scale(table1_model):
    coeffs, _ = table1_model
    scaled = GnarCoefficients.from_theta(coeffs.theta, coeffs.order, noise_sd=17.0)
    a = stationarity_margin(coeffs)
    b = stationarity_margin(scaled)
    assert a.stationary == b.stationary and np.array_equal(a.sums, b.sums)


# ---------------------------------------------------------------------------
# VAR mapping
# ---------------------------------------------------------------------------

def test_to_var_diagonal_when_no_network_terms(fivenet, fivenet_weights, fivenet_partition):
    coeffs = GnarCoefficients.from_theta([0.3, 0.5],  # alpha.1.1, alpha.1.2
                                         parse_order("community:[1,1];{[0],[0]}"))
    phi = to_var(coeffs, fivenet, fivenet_weights, fivenet_partition)
    expected = np.diag([0.5, 0.3, 0.3, 0.3, 0.5])  # node 1,5 in community 2
    assert np.allclose(phi[0], expected)
    assert np.count_nonzero(phi[0] - np.diag(np.diag(phi[0]))) == 0


def test_to_var_single_community_equals_global(fivenet, fivenet_weights):
    part = single_community(5)
    theta = [0.2, 0.15, 0.1, 0.05]  # global names: alpha.1, beta.1.1, alpha.2, beta.2.1
    cc = GnarCoefficients.from_theta(theta, parse_order("community:[2];{[1,1]}"))
    cg = GnarCoefficients.from_theta(theta, parse_order("global:2;[1,1]"))
    phi_c = to_var(cc, fivenet, fivenet_weights, part)
    phi_g = to_var(cg, fivenet, fivenet_weights)
    assert np.allclose(phi_c, phi_g)


def test_to_var_linear_in_coefficients(fivenet, fivenet_weights, fivenet_partition,
                                       table1_model):
    coeffs, _ = table1_model
    doubled = GnarCoefficients.from_theta(2 * coeffs.theta, coeffs.order)
    phi = to_var(coeffs, fivenet, fivenet_weights, fivenet_partition)
    phi2 = to_var(doubled, fivenet, fivenet_weights, fivenet_partition)
    assert np.allclose(phi2, 2 * phi)


def test_to_var_cross_community_entries_zero(fivenet, fivenet_weights,
                                             fivenet_partition, table1_model):
    coeffs, order = table1_model
    phi = to_var(coeffs, fivenet, fivenet_weights, fivenet_partition)
    dist = bfs_distances(fivenet)
    for k in range(phi.shape[0]):
        for i in range(5):
            ci = fivenet_partition.community_of(i + 1)
            s_k = order.stages[ci - 1][k] if k < order.lags[ci - 1] else 0
            for j in range(5):
                if i == j:
                    continue
                same = fivenet_partition.community_of(j + 1) == ci
                if not same:
                    assert phi[k, i, j] == 0.0
                elif phi[k, i, j] != 0.0:
                    # support sits inside the community's stage-depth ball
                    assert 1 <= dist[i, j] <= s_k


def test_to_var_ignores_noise_scale(fivenet, fivenet_weights, fivenet_partition,
                                    table1_model):
    coeffs, _ = table1_model
    rescaled = GnarCoefficients.from_theta(coeffs.theta, coeffs.order, noise_sd=123.0)
    a = to_var(coeffs, fivenet, fivenet_weights, fivenet_partition)
    b = to_var(rescaled, fivenet, fivenet_weights, fivenet_partition)
    assert np.array_equal(a, b)


def test_to_var_matches_structural_oracle(fivenet, fivenet_weights,
                                          fivenet_partition, table1_model):
    coeffs, order = table1_model
    phi = to_var(coeffs, fivenet, fivenet_weights, fivenet_partition)
    rng = np.random.default_rng(42)
    for _ in range(25):
        hist = rng.normal(size=(5, order.p_max))
        var_pred = sum(phi[k - 1] @ hist[:, -k] for k in range(1, order.p_max + 1))
        oracle = structural_prediction(coeffs, order, fivenet, fivenet_weights,
                                       fivenet_partition, hist)
        assert np.max(np.abs(var_pred - oracle)) < 1e-12


def test_to_var_rejects_excess_stage(fivenet, fivenet_weights, fivenet_partition):
    # alpha.1.1, beta.1.1.1 to beta.1.4.1, alpha.1.2, beta.1.1.2: stage 4 at lag 1,
    # but r_max is 3
    coeffs = GnarCoefficients.from_theta(np.full(7, 0.1),
                                         parse_order("community:[1,1];{[4],[1]}"))
    with pytest.raises(OrderError, match="stage"):
        to_var(coeffs, fivenet, fivenet_weights, fivenet_partition)


def test_to_var_local_variant(fivenet, fivenet_weights):
    alpha_nodes = [0.1, 0.2, 0.3, 0.4, 0.5]  # alpha.node1.1 to alpha.node5.1
    coeffs = GnarCoefficients.from_theta(alpha_nodes + [0.2],  # and beta.1.1
                                         parse_order("local:1;[1]"), d=5)
    phi = to_var(coeffs, fivenet, fivenet_weights)
    assert np.allclose(np.diag(phi[0]), alpha_nodes)


# ---------------------------------------------------------------------------
# node-wise expansion of community models
# ---------------------------------------------------------------------------

def test_to_local_alpha_values(table1_model, fivenet_partition):
    coeffs, _ = table1_model
    nodewise = to_local_alpha(coeffs, fivenet_partition)
    # node 2 is in community 1 (p=1): lag-1 alpha matches, lag-2 padded to 0
    assert nodewise.alpha[1, 0] == coeffs.alpha[0][0]
    assert nodewise.alpha[1, 1] == 0.0
    # node 1 is in community 2 (p=2)
    assert nodewise.alpha[0, 0] == coeffs.alpha[1][0]
    assert nodewise.alpha[0, 1] == coeffs.alpha[1][1]
    assert nodewise.beta[0, 1, 0] == coeffs.beta[1][1][0]


def test_to_local_alpha_stationarity_equivalence(fivenet_partition):
    order = parse_order("community:[1,2];{[1],[1,1]}")
    rng = np.random.default_rng(99)
    group = np.asarray(fivenet_partition.assignment)
    for _ in range(100):
        coeffs = random_community_coeffs(rng, order, scale=0.45)
        nodewise = to_local_alpha(coeffs, fivenet_partition)
        node_sums = (np.sum(np.abs(nodewise.alpha), axis=1)
                     + np.sum(np.abs(nodewise.beta), axis=(1, 2)))
        assert np.allclose(node_sums, stationarity_margin(coeffs).sums[group - 1])


def test_to_local_alpha_requires_community_variant():
    coeffs = GnarCoefficients.from_theta([0.1, 0.1],  # alpha.1, beta.1.1
                                         parse_order("global:1;[1]"))
    with pytest.raises(OrderError):
        to_local_alpha(coeffs, single_community(3))


# ---------------------------------------------------------------------------
# theta packing and model files
# ---------------------------------------------------------------------------

def test_theta_round_trip(table1_model):
    coeffs, order = table1_model
    theta = coeffs.theta
    assert theta.shape == (6,)
    back = GnarCoefficients.from_theta(theta, order, noise_sd=coeffs.noise_sd)
    assert back.order == order and np.array_equal(back.theta, theta)


def test_theta_index_matches_table_order(table1_model):
    _, order = table1_model
    names = [e.name("community") for e in theta_index(order)]
    assert names == ["alpha.1.1", "beta.1.1.1", "alpha.1.2", "beta.1.1.2",
                     "alpha.2.2", "beta.2.1.2"]


def test_model_file_round_trip_bit_exact(tmp_path, table1_model):
    coeffs, order = table1_model
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_model(coeffs, a)
    again, order2 = read_model(a)
    write_model(again, b)
    assert a.read_bytes() == b.read_bytes()
    assert order2 == order and np.array_equal(again.theta, coeffs.theta)


def test_model_file_local_variant_round_trip(tmp_path):
    order = parse_order("local:2;[1,0]")
    rng = np.random.default_rng(1)
    # alpha.node1.1 to alpha.node4.1, beta.1.1, alpha.node1.2 to alpha.node4.2
    coeffs = GnarCoefficients.from_theta(rng.normal(size=9), order, noise_sd=0.5, d=4)
    path = tmp_path / "m.txt"
    write_model(coeffs, path)
    again, order2 = read_model(path)
    assert order2 == order
    assert np.array_equal(again.alpha_nodes, coeffs.alpha_nodes)
    assert np.array_equal(again.beta[0][0], coeffs.beta[0][0])


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(DataError):
        read_model(path)


GLOBAL_HEADER = "gnar-model v1\nvariant global\nsigma 1.0\n"


@pytest.mark.parametrize("body, line, what", [
    ("p 2\ns 1 0\nalpha 0 0.1\n", 6, "sets no coefficient"),
    ("p 1\ns 1\nalpha 1 0.1\nbeta 1 1 0.2\nalpha 1 0.3\n", 8, "already set on line 6"),
    ("p 1\ns 1\nalpha 3 0.1\n", 6, "sets no coefficient"),
    ("p 2\ns 1 0\nalpha 01 0.1\n", 6, "sets no coefficient"),
    ("p 2\ns 1 0\nalpha +1 0.1\n", 6, "sets no coefficient"),
    ("p 2\ns 1 0\nbeta 1 0 0.1\n", 6, "sets no coefficient"),
    ("p 2\ns 1 0\nalpha 1 1 0.1\n", 6, "sets no coefficient"),
], ids=["lag-zero", "repeated", "lag-beyond-order", "leading-zero", "plus-sign",
        "stage-zero", "extra-id"])
def test_model_file_rejects_bad_coefficient_lines(tmp_path, body, line, what):
    path = tmp_path / "bad.txt"
    path.write_text(GLOBAL_HEADER + body)
    with pytest.raises(DataError, match=f"{re.escape(str(path))}:{line}: .*{what}"):
        read_model(path)


COMMUNITY_HEADER = "gnar-model v1\nvariant community\nC 2\np 1 1\nsigma 1.0\n"


@pytest.mark.parametrize("header, key", [
    ("variant local\nd 5\np 2\ns 1 0\n", "alpha 6 1"),
    ("variant local\nd 5\np 2\ns 1 0\n", "alpha 1 3"),
    ("variant local\nd 5\np 2\ns 1 0\n", "alpha"),
    ("variant community\nC 2\np 1 1\ns 1 1\ns 2 1\n", "alpha 1 3"),
    ("variant community\nC 2\np 1 1\ns 1 1\ns 2 1\n", "beta 1 1 3"),
], ids=["local-node-beyond-d", "local-lag-beyond-order", "local-bare-name",
        "community-beyond-C", "community-beta-beyond-C"])
def test_model_file_rejects_near_miss_keys(tmp_path, header, key):
    """Keys next to real slots of local and community orders set nothing."""
    path = tmp_path / "bad.txt"
    text = f"gnar-model v1\n{header}sigma 1.0\n{key} 0.1\n"
    path.write_text(text)
    line = text.count("\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: .*sets no coefficient"):
        read_model(path)


def test_read_model_memory_follows_theta_not_a_slot_map(tmp_path):
    """A 133-byte local file of d 10000 and p 40 with no coefficient lines: the read holds
    at most two copies of theta (d p floats) and 1 MiB besides."""
    path = tmp_path / "local.txt"
    path.write_text("gnar-model v1\nvariant local\nd 10000\np 40\ns" + " 0" * 40
                    + "\nsigma 1.0\n")
    assert path.stat().st_size == 133
    tracemalloc.start()
    try:
        coeffs, order = read_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order.param_count(10_000) == coeffs.theta.size == 400_000
    assert peak <= 2 * 10_000 * 40 * 8 + 2**20, peak


@pytest.mark.parametrize("text, line, key, owner, variant", [
    ("gnar-model v1\nvariant global\nd 7\nC 3\nsigma 1.0\np 1\ns 1\n", 4, "C", "community",
     "global"),
    ("gnar-model v1\nvariant local\nC 2\nd 3\nsigma 1.0\np 1\ns 1\n", 3, "C", "community",
     "local"),
    (COMMUNITY_HEADER + "d 9\ns 1 1\ns 2 0\n", 6, "d", "local", "community"),
], ids=["global-d-and-C", "local-C", "community-d"])
def test_model_file_rejects_header_keys_of_another_variant(tmp_path, text, line, key, owner,
                                                           variant):
    """``format_model`` writes ``C`` only for community models and ``d`` only for local
    ones, so ``read_model`` refuses them anywhere else (the ``C`` line first)."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: '{key}' belongs to "
                                        f"{owner} models, not {variant} ones$"):
        read_model(path)


@pytest.mark.parametrize("body, line, what", [
    ("s 0 0\ns 1 1\n", 6, "community 0 outside 1..2"),
    ("s 1 1\ns 3 0\n", 7, "community 3 outside 1..2"),
    ("s 1 1\ns 2 0\ns 2 1\n", 8, "community 2 were already set on line 7"),
    ("s 30000000 1 1\n", 6, "community 30000000 outside 1..2"),
], ids=["community-zero", "community-beyond-C", "repeated", "community-beyond-stage-bound"])
def test_model_file_rejects_bad_stage_lines(tmp_path, body, line, what):
    path = tmp_path / "bad.txt"
    path.write_text(COMMUNITY_HEADER + body)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: .*{what}"):
        read_model(path)


@pytest.mark.parametrize("text, line, key, first", [
    (GLOBAL_HEADER + "variant local\np 1\ns 1\n", 4, "variant", 2),
    (GLOBAL_HEADER + "sigma 2.0\np 1\ns 1\n", 4, "sigma", 3),
    (GLOBAL_HEADER + "p 1\np 2\ns 1\n", 5, "p", 4),
    (GLOBAL_HEADER + "p 1\ns 1\ns 0\n", 6, "s", 5),
    ("gnar-model v1\nvariant local\nsigma 1.0\np 1\ns 1\nd 3\nd 4\n", 7, "d", 6),
    (COMMUNITY_HEADER + "C 3\ns 1 1\ns 2 0\n", 6, "C", 3),
    ("gnar-model v1\nvariant\nsigma x\np 1\ns 1\nalpha 1 0.1\nalpha 1 0.2\n", 7, "alpha 1", 6),
], ids=["variant", "sigma", "p", "global-s", "d", "C", "before-header-values"])
def test_model_file_rejects_repeated_header_lines(tmp_path, text, line, key, first):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: '{key}' "
                                        f"was already set on line {first}$"):
        read_model(path)


@pytest.mark.parametrize("text, message", [
    ("gnar-model v1\nvariant global\nsigma\np 1\ns 1\n", ":3: 'sigma' needs a value"),
    ("gnar-model v1\nvariant global\nsigma x\np 1\ns 1\n",
     ":3: 'sigma' needs a number, got 'x'"),
    (GLOBAL_HEADER + "p two\ns 1\n", ":4: 'p' needs an integer, got 'two'"),
    (GLOBAL_HEADER + "p 1\ns one\n", ":5: 's' needs an integer, got 'one'"),
    ("gnar-model v1\nvariant community\nC 3.5\np 1 1\nsigma 1.0\ns 1 1\ns 2 0\n",
     ":3: 'C' needs an integer, got '3.5'"),
    ("gnar-model v1\nvariant\nsigma 1.0\np 1\ns 1\n", ":2: 'variant' needs a value"),
    ("gnar-model v1\nvariant global\np 1\ns 1\n", ": malformed model file (no 'sigma' line)"),
    ("gnar-model v1\nvariant local\nsigma 1.0\np 1\ns 1\n",
     ": malformed model file (no 'd' line)"),
    ("gnar-model v1\nvariant global junk\nsigma 1.0\np 1\ns 1\n",
     ":2: 'variant' takes one value, got 'global junk'"),
    (GLOBAL_HEADER + "p 1 7\ns 1\n", ":4: 'p' takes one value, got '1 7'"),
    ("gnar-model v1\nvariant local\nsigma 1.0\nd 3\np 1 7\ns 1\n",
     ":5: 'p' takes one value, got '1 7'"),
    ("gnar-model v1\nvariant community\nC 2 5\np 1 1\nsigma 1.0\ns 1 1\ns 2 0\n",
     ":3: 'C' takes one value, got '2 5'"),
    ("gnar-model v1\nvariant local\nsigma 1.0\nd 3 9\np 1\ns 1\n",
     ":4: 'd' takes one value, got '3 9'"),
    ("gnar-model v1\nvariant global\nsigma 1.0 2.0\np 1\ns 1\n",
     ":3: 'sigma' takes one value, got '1.0 2.0'"),
    (COMMUNITY_HEADER, ": no 's' line for community 1"),
    (COMMUNITY_HEADER + "s 1 1\n", ": no 's' line for community 2"),
    ("gnar-model v1\nvariant local\nsigma 1.0\nd -1\np 1\ns 1\n",
     ":4: local orders need a node count d >= 1, got -1"),
    ("gnar-model v1\nvariant local\nsigma 1.0\nd 0\np 1\ns 1\n",
     ":4: local orders need a node count d >= 1, got 0"),
    (GLOBAL_HEADER + "p 2\ns 1\n", ":5: group 1: 1 stage orders for 2 lags"),
    (GLOBAL_HEADER + "p 0\ns 1\n", ":4: group 1: maximum lag must be >= 1, got 0"),
    ("gnar-model v1\nvariant community\nC 2\np 1 -1\nsigma 1.0\ns 1 1\ns 2 0\n",
     ":4: group 2: maximum lag must be >= 1, got -1"),
    (GLOBAL_HEADER + "p 1\ns -1\n", ":5: group 1: stage orders must be nonnegative integers"),
    ("gnar-model v1\nvariant global\nsigma -1\np 1\ns 1\n",
     ":3: noise sd -1.0 is not positive and finite"),
    ("gnar-model v1\nvariant foo\nsigma 1.0\np 1\ns 1\n", ":2: unknown variant 'foo'"),
], ids=["sigma-empty", "sigma-word", "p-word", "s-word", "C-fraction", "variant-empty",
        "no-sigma", "no-d", "variant-extra", "global-p-extra", "local-p-extra", "C-extra",
        "d-extra", "sigma-extra", "community-no-s", "community-one-s-of-two", "d-negative",
        "d-zero", "s-shorter-than-p", "p-zero", "community-p-negative", "s-negative",
        "sigma-negative", "variant-unknown"])
def test_model_file_rejects_bad_header_values(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path) + message)}$"):
        read_model(path)


def test_coefficients_reject_bad_shapes():
    order = parse_order("global:1;[1]")
    with pytest.raises(OrderError, match=r"^theta length \(1, 2\) does not match 2$"):
        GnarCoefficients.from_theta(np.zeros((1, 2)), order)
    with pytest.raises(OrderError, match="positive"):
        GnarCoefficients.from_theta([0.1, 0.1], order, noise_sd=0.0)


LOCAL = parse_order("local:1;[1]")


@pytest.mark.parametrize("make, at, message", [
    (lambda: GnarOrder("foo", (1,), ((1,),)), ("variant",), "unknown variant 'foo'"),
    (lambda: GnarOrder("community", (1, 0), ((1,), ())), ("lags", 1),
     "group 2: maximum lag must be >= 1, got 0"),
    (lambda: GnarOrder("global", (2,), ((1,),)), ("stages", 0),
     "group 1: 1 stage orders for 2 lags"),
    (lambda: GnarOrder("community", (1, 1), ((1,), (-1,))), ("stages", 1),
     "group 2: stage orders must be nonnegative integers"),
    (lambda: GnarCoefficients.from_theta(np.zeros(1), LOCAL, d=0), ("d",),
     "local orders need a node count d >= 1, got 0"),
    (lambda: GnarCoefficients.from_theta(np.zeros(0), LOCAL, d=-1), ("d",),
     "local orders need a node count d >= 1, got -1"),
    (lambda: GnarCoefficients.from_theta([0.1, np.nan], parse_order("global:1;[1]")),
     ("theta", 1), "coefficient beta.1.1 is nan, not a finite number"),
    (lambda: GnarCoefficients.from_theta([0.1, np.inf, 0.2], LOCAL, d=2), ("theta", 1),
     "coefficient alpha.node2.1 is inf, not a finite number"),
    (lambda: GnarCoefficients.from_theta([0.1, 0.1], parse_order("global:1;[1]"),
                                         noise_sd=np.inf), ("noise_sd",),
     "noise sd inf is not positive and finite"),
], ids=["variant", "lags", "stage-count", "stage-negative", "local-d-zero", "local-d-negative",
        "theta-nan", "theta-inf", "noise-sd-inf"])
def test_each_model_value_rule_raises_in_its_record_with_at(make, at, message):
    """``read_model`` turns ``at`` into the line holding the value (see the file tables)."""
    with pytest.raises(OrderError, match=f"^{re.escape(message)}$") as got:
        make()
    assert got.value.at == at


def test_from_theta_refuses_a_theta_of_the_wrong_length():
    with pytest.raises(OrderError, match=r"^theta length \(3,\) does not match 2$"):
        GnarCoefficients.from_theta(np.zeros(3), parse_order("global:1;[1]"))


def test_model_file_community_count_must_match_lags(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("gnar-model v1\nvariant community\nC 3\np 1 1\nsigma 1.0\ns 1 1\ns 2 0\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: 'C' is 3 but 'p' has 2$"):
        read_model(path)


@pytest.mark.parametrize("text, message", [
    (GLOBAL_HEADER + "p 1\ns 30000000\n",
     f":5: 's' value 30000000 exceeds {MAX_NODES - 1} (networks have at most {MAX_NODES} nodes)"),
    ("gnar-model v1\nvariant local\nsigma 1.0\nd 100000\np 1\ns 1\n",
     f":4: 'd' value 100000 exceeds {MAX_NODES} (networks have at most {MAX_NODES} nodes)"),
    ("gnar-model v1\nvariant community\nC 2\np 1 1\nsigma 1.0\ns 1 1\ns 2 30000000\n",
     f":7: 's' value 30000000 exceeds {MAX_NODES - 1} (networks have at most {MAX_NODES} nodes)"),
], ids=["global-s", "local-d", "community-s"])
def test_model_file_bounds_sizes_before_allocating(tmp_path, text, message):
    path = tmp_path / "big.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path) + message)}$"):
        read_model(path)


@pytest.mark.parametrize("text, message", [
    ("gnar-model v1\nvariant global\nsigma nan\np 1\ns 1\n",
     ":3: noise sd nan is not positive and finite"),
    ("gnar-model v1\nvariant global\nsigma inf\np 1\ns 1\n",
     ":3: noise sd inf is not positive and finite"),
    (GLOBAL_HEADER + "p 1\ns 1\nalpha 1 inf\n",
     ":6: coefficient alpha.1 is inf, not a finite number"),
    (GLOBAL_HEADER + "p 1\ns 1\nbeta 1 1 -inf\n",
     ":6: coefficient beta.1.1 is -inf, not a finite number"),
    ("gnar-model v1\nvariant community\nC 1\np 1\nsigma 1.0\ns 1 1\nalpha 1 1 nan\n",
     ":7: coefficient alpha.1.1 is nan, not a finite number"),
], ids=["sigma-nan", "sigma-inf", "alpha-inf", "beta-inf", "community-alpha-nan"])
def test_model_file_rejects_non_finite_values(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path) + message)}$"):
        read_model(path)


def test_coefficients_reject_nan_noise_sd():
    with pytest.raises(OrderError, match="positive"):
        GnarCoefficients.from_theta([0.1, 0.1], parse_order("global:1;[1]"),
                                    noise_sd=float("nan"))


def test_only_simulate_takes_coefficients_and_a_second_order():
    """Coefficients carry their order, so no public function asks for it again, except
    ``simulate``, which checks the copy it is given; the methods that took one are gone."""
    both = [name for name in gnar.__all__ if inspect.isfunction(obj := getattr(gnar, name))
            and {"coeffs", "order"} <= set(inspect.signature(obj).parameters)]
    assert both == ["simulate"]
    assert not hasattr(GnarCoefficients, "to_theta")
    assert not hasattr(GnarCoefficients, "validate_against")


def test_coefficients_and_orders_have_one_constructor_each():
    """``from_theta`` makes coefficients and ``GnarOrder(...)`` or ``parse_order`` make
    orders: the keyword constructor and the three order classmethods are gone."""
    with pytest.raises(TypeError):
        GnarCoefficients(variant="global", alpha=(np.array([0.1]),),
                         beta=((np.array([0.1]),),), noise_sd=1.0)
    with pytest.raises(TypeError, match="from_theta"):
        GnarCoefficients()
    for name in ("global_order", "community_order", "local_order"):
        assert not hasattr(GnarOrder, name)
    params = inspect.signature(GnarCoefficients.from_theta).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("theta", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("order", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("noise_sd", inspect.Parameter.POSITIONAL_OR_KEYWORD, 1.0),
        ("d", inspect.Parameter.POSITIONAL_OR_KEYWORD, None)]
