import re
import sys

import numpy as np
import pytest

from gnar.autocorr import KINDS, corbit_grid
from gnar.errors import DataError, GnarError, NetworkError, OrderError
from gnar.estimate import build_design, fit_ols, fit_per_community
from gnar.forecast import ModelSpec, compare, forecast
from gnar.model import parse_order, to_local_alpha, to_var
from gnar.network import (MAX_NODES, UNREACHABLE, Network, bfs_distances, build_network,
                          default_weights, load_weight_overrides, mask_weights,
                          max_stage, read_edge_list, stage_adjacency,
                          stage_weights, write_edge_list)
from gnar.partition import CommunityPartition, single_community
from gnar.simulate import simulate

from conftest import DATA_DIR
from oracles import adjacency_matrix, floyd_warshall, random_graph


def test_fivenet_fixture_loads(fivenet):
    assert fivenet.d == 5
    assert fivenet.n_edges == 5
    # both communities of the simulation study are internally connected
    assert (2, 3) in fivenet.edges or (2, 4) in fivenet.edges
    assert (1, 5) in fivenet.edges
    assert max_stage(bfs_distances(fivenet)) == 3


def test_single_node_network():
    net = build_network(1, [])
    dist = bfs_distances(net)
    assert dist.shape == (1, 1) and dist[0, 0] == 0
    assert stage_adjacency(dist) == []


def test_build_network_rejects_self_loop():
    with pytest.raises(NetworkError, match="self-loop"):
        build_network(3, [(1, 1)])


def test_build_network_rejects_duplicates():
    with pytest.raises(NetworkError, match="duplicate"):
        build_network(3, [(1, 2), (2, 1)])
    with pytest.raises(NetworkError, match="duplicate"):
        build_network(3, [(1, 2), (1, 2)])


def test_build_network_rejects_out_of_range():
    with pytest.raises(NetworkError, match="out of range"):
        build_network(3, [(1, 4)])
    with pytest.raises(NetworkError):
        build_network(0, [])


def test_network_takes_pairs_in_either_orientation_and_names_the_first_bad_one():
    assert Network(3, frozenset({(2, 1)})).edges == frozenset({(1, 2)})
    assert build_network(3, [(3, 2), (1, 2)]) == Network(3, frozenset({(1, 2), (2, 3)}))
    with pytest.raises(NetworkError, match=r"^duplicate edge \(2,1\)$"):
        Network(3, [(1, 2), (2, 1)])
    with pytest.raises(NetworkError, match="^self-loop at node 1$"):
        build_network(3, [(1, 1), (1, 2), (1, 2)])


def test_bfs_path_graph():
    net = build_network(3, [(1, 2), (2, 3)])
    dist = bfs_distances(net)
    assert dist[0, 2] == 2 and dist[0, 1] == 1
    assert np.all(np.diag(dist) == 0)


def test_bfs_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 13))
        edges = random_graph(rng, d)
        net = build_network(d, edges)
        assert np.array_equal(bfs_distances(net), floyd_warshall(d, edges))


def test_bfs_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 13))
        dist = bfs_distances(build_network(d, random_graph(rng, d)))
        assert np.array_equal(dist, dist.T)


def test_stage_adjacency_path_graph():
    net = build_network(3, [(1, 2), (2, 3)])
    S = stage_adjacency(bfs_distances(net))
    assert len(S) == 2
    expected = np.zeros((3, 3))
    expected[0, 2] = expected[2, 0] = 1
    assert np.array_equal(S[1], expected)


def test_stage_one_is_adjacency(fivenet):
    S = stage_adjacency(bfs_distances(fivenet))
    assert np.array_equal(S[0], adjacency_matrix(fivenet))


def test_stage_partition_of_pairs():
    # on a connected graph, I + sum_r S_r covers every pair exactly once
    rng = np.random.default_rng(3)
    count = 0
    while count < 20:
        d = int(rng.integers(2, 13))
        edges = random_graph(rng, d, p_edge=0.5)
        net = build_network(d, edges)
        dist = bfs_distances(net)
        if np.any(dist == UNREACHABLE):
            continue
        count += 1
        S = stage_adjacency(dist)
        total = np.eye(d) + sum(S)
        assert np.array_equal(total, np.ones((d, d)))


def test_stage_matrices_symmetric_disjoint(fivenet):
    S = stage_adjacency(bfs_distances(fivenet))
    support = np.zeros((5, 5))
    for Sr in S:
        assert np.array_equal(Sr, Sr.T)
        assert np.all(np.diag(Sr) == 0)
        assert np.all(support * Sr == 0)  # supports pairwise disjoint
        support += Sr


def test_default_weights_star_centre():
    net = build_network(4, [(1, 2), (1, 3), (1, 4)])
    W = default_weights(bfs_distances(net))
    assert np.allclose(W[0, 1:], 1 / 3)


def test_default_weights_star_leaf_vs_bfs_oracle():
    net = build_network(4, [(1, 2), (1, 3), (1, 4)])
    dist = bfs_distances(net)
    W = default_weights(dist)
    assert W[1, 0] == 1.0
    assert W[1, 2] == 0.5 and W[1, 3] == 0.5
    # independent neighbour-count recomputation
    for i in range(4):
        for j in range(4):
            if i == j or dist[i, j] == UNREACHABLE:
                assert W[i, j] == 0.0
            else:
                n_r = int(np.sum(dist[i] == dist[i, j]))
                assert W[i, j] == pytest.approx(1.0 / n_r)


def test_default_weights_rows_normalised():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 13))
        dist = bfs_distances(build_network(d, random_graph(rng, d)))
        W = default_weights(dist)
        S = stage_adjacency(dist)
        assert np.all(W >= 0) and np.all(W <= 1)
        for Sr in S:
            sums = (W * Sr).sum(axis=1)
            nonempty = Sr.sum(axis=1) > 0
            assert np.all(np.abs(sums[nonempty] - 1.0) <= 1e-12)
            assert np.all(sums[~nonempty] == 0.0)


def test_default_weights_isolated_node_zero_row():
    net = build_network(3, [(1, 2)])
    W = default_weights(bfs_distances(net))
    assert np.all(W[2] == 0)


def test_mask_weights_full_community_identity(fivenet_weights):
    part = single_community(5)
    assert np.array_equal(mask_weights(fivenet_weights, part, 1), fivenet_weights)


def test_mask_weights_fivenet_k2(fivenet_weights, fivenet_partition):
    Wc = mask_weights(fivenet_weights, fivenet_partition, 2)
    inside = {0, 4}
    for i in range(5):
        for j in range(5):
            if i in inside and j in inside:
                assert Wc[i, j] == fivenet_weights[i, j]
            else:
                assert Wc[i, j] == 0.0


def test_mask_weights_singleton_zero():
    part = CommunityPartition(assignment=(1, 2, 2), n_communities=2)
    W = default_weights(bfs_distances(build_network(3, [(1, 2), (2, 3)])))
    assert np.all(mask_weights(W, part, 1) == 0)


def test_mask_weights_unknown_community(fivenet_weights, fivenet_partition):
    with pytest.raises(GnarError, match="unknown community"):
        mask_weights(fivenet_weights, fivenet_partition, 3)


def test_mask_weights_idempotent_and_commutes(fivenet, fivenet_weights, fivenet_partition):
    Wc = mask_weights(fivenet_weights, fivenet_partition, 1)
    assert np.array_equal(mask_weights(Wc, fivenet_partition, 1), Wc)
    S = stage_adjacency(bfs_distances(fivenet))
    for Sr in S:
        a = mask_weights(fivenet_weights * Sr, fivenet_partition, 1)
        b = mask_weights(fivenet_weights, fivenet_partition, 1) * Sr
        assert np.array_equal(a, b)


def test_edge_list_round_trip(tmp_path, fivenet):
    path = tmp_path / "edges.csv"
    write_edge_list(fivenet, path)
    again = read_edge_list(path)
    assert again == fivenet


def test_edge_list_requires_node_count(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to\n1,2\n")
    with pytest.raises(DataError, match="node count"):
        read_edge_list(path)
    assert read_edge_list(path, d=3).d == 3


def test_weight_overrides(tmp_path, fivenet_weights):
    path = tmp_path / "w.csv"
    path.write_text("from,to,w\n1,4,0.25\n")
    W = load_weight_overrides(path, fivenet_weights)
    assert W[0, 3] == 0.25
    assert W[3, 0] == fivenet_weights[3, 0]  # unlisted pairs keep defaults


def test_weight_overrides_rejects_bad_rows(tmp_path, fivenet_weights):
    for body, msg in [("1,1,0.5", "self-pair"), ("1,9,0.5", "out of range"),
                      ("1,2,1.5", "outside"), ("1,x,0.5", "w.csv:2: .*numeric"),
                      ("1,2,heavy", "w.csv:2: .*numeric"),
                      ("1,2,0.3\n1,2,0.7", r"^\S*w.csv:3: pair \(1,2\) was already set on line 2$")]:
        path = tmp_path / "w.csv"
        path.write_text(f"from,to,w\n{body}\n")
        with pytest.raises(DataError, match=msg):
            load_weight_overrides(path, fivenet_weights)


def test_edge_list_rejects_non_numeric_cells(tmp_path):
    path = tmp_path / "edges.csv"
    for body, ln, msg in [("# d: x\nfrom,to\n1,2\n", 1, "node count"),
                          ("# d: 3\nfrom,to\n1,x\n", 3, "expected"),
                          ("# d: 3\nfrom,to\n1,2\n4,5\n", 4, r"edge \(4,5\) out of range 1\.\.3$"),
                          ("# d: 3\nfrom,to\n2,2\n", 3, "self-loop at node 2$"),
                          ("# d: 3\n1,2\n2,3\n\n2,1\n", 5, r"duplicate edge \(2,1\)$"),
                          ("# d: 3\n# d: 5\nfrom,to\n1,2\n", 2,
                           "'d' was already set on line 1$")]:
        path.write_text(body)
        with pytest.raises(DataError, match=f"edges.csv:{ln}: {msg}"):
            read_edge_list(path)


def test_geometry_is_derived_once_and_read_only(fivenet, monkeypatch):
    import gnar.network

    calls = []
    monkeypatch.setattr(gnar.network, "bfs_distances",
                        lambda net: calls.append(net) or bfs_distances(net))
    net = build_network(fivenet.d, sorted(fivenet.edges))
    assert net.distances is net.distances
    assert net.r_max == 3
    assert len(calls) == 1
    assert np.array_equal(net.distances, bfs_distances(fivenet))
    with pytest.raises(ValueError):
        net.distances[0, 0] = 7


def test_stage_weights(fivenet, fivenet_weights):
    S = stage_adjacency(bfs_distances(fivenet))
    Bs = stage_weights(fivenet, fivenet_weights, 3)
    assert len(Bs) == 3
    for B, S_r in zip(Bs, S):
        assert np.array_equal(B, fivenet_weights * S_r)
    assert stage_weights(fivenet, fivenet_weights, 0) == []
    for r in (-1, 4):
        with pytest.raises(OrderError, match="stage"):
            stage_weights(fivenet, fivenet_weights, r)
    with pytest.raises(NetworkError, match="5 nodes"):
        stage_weights(fivenet, np.zeros((4, 4)), 1)


def test_mask_weights_rejects_partition_of_another_size(fivenet_weights):
    for n in (4, 6):
        with pytest.raises(NetworkError, match=f"^partition has {n} nodes, weight matrix has 5$"):
            mask_weights(fivenet_weights, single_community(n), 1)


def test_node_count_is_capped_before_any_matrix(tmp_path):
    with pytest.raises(NetworkError, match="^node count d = 100000 is too large"):
        build_network(100_000, [(1, 2)])
    with pytest.raises(NetworkError, match=f"^node count d = {MAX_NODES + 1} is too large"):
        Network(d=MAX_NODES + 1, edges=frozenset())
    path = tmp_path / "edges.csv"
    path.write_text("# d: 100000\nfrom,to\n1,2\n")
    with pytest.raises(DataError,
                       match=f"^{re.escape(str(path))}: node count d = 100000 is too large"):
        read_edge_list(path)


def test_library_paths_build_no_stage_matrices(table1_model, fivenet_partition):
    net = read_edge_list(DATA_DIR / "fivenet_edges.csv")
    W = default_weights(net.distances)
    coeffs, order = table1_model
    panel = simulate(coeffs, order, net, W, 60, part=fivenet_partition, seed=1)
    for text in ("community:[1,2];{[1],[1,1]}", "global:2;[3,1]", "local:1;[2]"):
        fitted = parse_order(text)
        fit = fit_ols(build_design(panel, fitted, net, W, fivenet_partition))
        to_var(fit.to_coefficients(), net, W, fivenet_partition)
    for kind in KINDS:
        corbit_grid(panel, net, W, 2, 3, kind, fivenet_partition)
    assert "stages" not in vars(net)


def test_library_paths_mask_stage_weights_once(monkeypatch, table1_model, fivenet_partition):
    def refuse(*args):
        raise AssertionError("a library path masked weights per community")

    for name, module in list(sys.modules.items()):  # every gnar module holding it
        if name.split(".")[0] == "gnar" and getattr(module, "mask_weights", None) is mask_weights:
            monkeypatch.setattr(module, "mask_weights", refuse)
    net = read_edge_list(DATA_DIR / "fivenet_edges.csv")
    W = default_weights(net.distances)
    coeffs, order = table1_model
    part = fivenet_partition
    panel = simulate(coeffs, order, net, W, 60, part=part, seed=1)
    fit = fit_ols(build_design(panel, order, net, W, part))
    fit_per_community(panel, order, net, W, part)
    forecast(fit.to_coefficients(), net, W, panel, 2, part)
    to_local_alpha(coeffs, part)
    compare(panel, net, W, [ModelSpec("community", order)], part)
    for kind in KINDS:
        corbit_grid(panel, net, W, 2, 3, kind, part)
