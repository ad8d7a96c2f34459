import numpy as np
import pytest

from gnar.autocorr import AcfCell, corbit_grid, nacf, pnacf
from gnar.corbit_svg import render_rcorbit
from gnar.errors import GnarError
from gnar.network import bfs_distances, build_network, default_weights
from gnar.panel import TimeSeriesPanel, default_node_labels
from gnar.partition import CommunityPartition, single_community
from gnar.simulate import simulate

from oracles import lstsq_pnacf, pooled_acf


def make_panel(values):
    values = np.asarray(values, dtype=float)
    return TimeSeriesPanel(values, default_node_labels(values.shape[0]),
                           [str(t) for t in range(values.shape[1])])


def noise_panel(rng, d=5, T=40):
    return make_panel(rng.normal(size=(d, T)))


def test_stage_zero_is_pooled_acf(fivenet, fivenet_weights):
    rng = np.random.default_rng(0)
    panel = noise_panel(rng)
    for h in (1, 2, 3):
        cell = nacf(panel, fivenet, fivenet_weights, h, 0)
        assert cell.value == pytest.approx(pooled_acf(panel.values, h), abs=1e-14)
        assert not cell.degenerate


def test_zero_weights_reduce_to_pooled_acf(fivenet):
    # an all-zero mask makes the stage term vanish from the formula
    rng = np.random.default_rng(1)
    panel = noise_panel(rng)
    W0 = np.zeros((5, 5))
    cell = nacf(panel, fivenet, W0, 1, 1)
    assert cell.value == pytest.approx(pooled_acf(panel.values, 1), abs=1e-14)


def test_constant_panel_degenerate(fivenet, fivenet_weights):
    panel = make_panel(np.ones((5, 20)))
    cell = nacf(panel, fivenet, fivenet_weights, 1, 1)
    assert cell.degenerate and cell.value == 0.0


def test_nacf_bounded_on_random_panels(fivenet, fivenet_weights):
    rng = np.random.default_rng(2)
    for _ in range(200):
        panel = noise_panel(rng, T=int(rng.integers(10, 50)))
        for h in (1, 2):
            for r in (0, 1, 2, 3):
                cell = nacf(panel, fivenet, fivenet_weights, h, r)
                assert abs(cell.value) <= 1 + 1e-12


def test_nacf_null_monte_carlo_bound(fivenet, fivenet_weights):
    rng = np.random.default_rng(12345)
    d, T = 5, 40
    bound = 4 / np.sqrt(d * T)
    hits = 0
    for _ in range(200):
        panel = noise_panel(rng, d=d, T=T)
        if abs(nacf(panel, fivenet, fivenet_weights, 1, 1).value) < bound:
            hits += 1
    assert hits >= 190


def test_pnacf_lag_one_equals_nacf(fivenet, fivenet_weights, fivenet_partition):
    rng = np.random.default_rng(3)
    panel = noise_panel(rng)
    for r in (0, 1, 2):
        assert pnacf(panel, fivenet, fivenet_weights, 1, r) == \
            nacf(panel, fivenet, fivenet_weights, 1, r)
    members = fivenet_partition.members(1)
    assert pnacf(panel, fivenet, fivenet_weights, 1, 1, nodes=members) == \
        nacf(panel, fivenet, fivenet_weights, 1, 1, nodes=members)


def test_pnacf_null_monte_carlo_bound(fivenet, fivenet_weights):
    rng = np.random.default_rng(999)
    d, T = 5, 40
    bound = 4 / np.sqrt(d * T)
    hits = 0
    for _ in range(200):
        panel = noise_panel(rng, d=d, T=T)
        ok = all(abs(pnacf(panel, fivenet, fivenet_weights, h, r).value) < bound
                 for h in (1, 2, 3) for r in (0, 1, 2))
        hits += ok
    assert hits >= 190


def test_pnacf_exact_auxiliary_fit_is_degenerate(fivenet, fivenet_weights):
    # a centred period-3 series obeys e_t = -e_{t-1} - e_{t-2}: the lag-2
    # auxiliary fits are exact and well conditioned, so their residuals are
    # rounding noise and the cells are flagged instead of reported
    panel = make_panel(np.tile(np.random.default_rng(13).normal(size=(5, 3)), 10))
    for r in (0, 1, 2, 3):
        assert pnacf(panel, fivenet, fivenet_weights, 3, r) == \
            AcfCell(0.0, True, "zero residual variance")
        assert lstsq_pnacf(panel, fivenet, fivenet_weights, 3, r)[1] > 1e-2


def test_pnacf_rank_rule_and_values_near_collinearity(fivenet, fivenet_weights):
    # every node copies node 1 up to noise delta; rows of the stage-r weights
    # sum to one, so B_r E approaches E and sigma_min/sigma_max scales with
    # delta.  Cells are flagged exactly below (max(n, q) eps)^(1/4), and the
    # others match the lstsq oracle however ill-conditioned their fits are.
    T = 8
    base = np.random.default_rng(15).normal(size=(5, T))
    for delta in np.logspace(-5, -1, 33):
        values = base.copy()
        values[1:] = values[0] + delta * base[1:]
        panel = make_panel(values)
        for h in (2, 3, 4):
            for r in (1, 2, 3):
                cell = pnacf(panel, fivenet, fivenet_weights, h, r)
                oracle, ratio = lstsq_pnacf(panel, fivenet, fivenet_weights, h, r)
                bound = (5 * (T - h + 1) * np.finfo(float).eps) ** 0.25
                if abs(ratio / bound - 1) > 0.01:
                    assert cell.degenerate == (ratio < bound)
                if not cell.degenerate:
                    assert abs(cell.value - oracle.value) <= 1e-10


def test_pnacf_cutoff_pattern(fivenet, fivenet_weights, fivenet_partition,
                              table1_model):
    coeffs, order = table1_model
    p_by_community = {1: 1, 2: 2}
    successes = 0
    for seed in range(10):
        panel = simulate(coeffs, order, fivenet, fivenet_weights, 100,
                         part=fivenet_partition, seed=seed)
        grid = corbit_grid(panel, fivenet, fivenet_weights, 8, 3, "pnacf",
                           fivenet_partition)
        ok = True
        for ci, c in enumerate((1, 2)):
            target = abs(grid.values[ci, p_by_community[c] - 1, 0])
            for h in range(p_by_community[c] + 1, 9):
                for r in range(1, 4):
                    if abs(grid.values[ci, h - 1, r - 1]) >= target:
                        ok = False
        successes += ok
    assert successes >= 8


def test_singleton_partition_consistency(fivenet):
    # with all weights zero, r > 0 cells of singleton communities degenerate
    # and the stage-0 cell is the node's own autocorrelation
    rng = np.random.default_rng(4)
    panel = noise_panel(rng)
    W0 = np.zeros((5, 5))
    for node in range(1, 6):
        cell = nacf(panel, fivenet, W0, 1, 1, nodes=[node])
        assert cell.degenerate and cell.value == 0.0
        own = nacf(panel, fivenet, W0, 1, 0, nodes=[node])
        assert own.value == pytest.approx(
            pooled_acf(panel.values[node - 1:node], 1), abs=1e-14)


def test_community_subset_no_stage_pairs_degenerate(fivenet, fivenet_weights,
                                                    fivenet_partition):
    rng = np.random.default_rng(5)
    panel = noise_panel(rng)
    # community 2 = {1, 5} is an adjacent pair: stages 2 and 3 have no
    # within-community pairs and must flag degenerate
    members = fivenet_partition.members(2)
    assert not nacf(panel, fivenet, fivenet_weights, 1, 1, nodes=members).degenerate
    for r in (2, 3):
        cell = nacf(panel, fivenet, fivenet_weights, 1, r, nodes=members)
        assert cell.degenerate
        cell = pnacf(panel, fivenet, fivenet_weights, 2, r, nodes=members)
        assert cell.degenerate


@pytest.mark.parametrize("fn", (nacf, pnacf))
@pytest.mark.parametrize("nodes, why", [
    ([], "node subset is empty"), ([2, 2], "node subset contains duplicates"),
    ([0, 1], "node 0 outside 1..5"), ([1, 6], "node 6 outside 1..5"),
], ids=["empty", "repeated", "zero", "beyond"])
def test_node_subset_must_name_distinct_nodes_of_the_panel(fivenet, fivenet_weights, fn,
                                                           nodes, why):
    panel = noise_panel(np.random.default_rng(8), T=10)
    with pytest.raises(GnarError, match=f"^{why}$"):
        fn(panel, fivenet, fivenet_weights, 1, 1, nodes=nodes)


def test_lag_and_stage_validation(fivenet, fivenet_weights):
    rng = np.random.default_rng(6)
    panel = noise_panel(rng, T=10)
    with pytest.raises(GnarError):
        nacf(panel, fivenet, fivenet_weights, 10, 1)
    with pytest.raises(GnarError):
        nacf(panel, fivenet, fivenet_weights, 0, 1)
    with pytest.raises(GnarError, match="stage"):
        nacf(panel, fivenet, fivenet_weights, 1, 4)
    with pytest.raises(GnarError):
        pnacf(panel, fivenet, fivenet_weights, 10, 1)


def test_grid_matches_individual_calls(fivenet, fivenet_weights, fivenet_partition):
    rng = np.random.default_rng(7)
    panel = noise_panel(rng, T=30)
    for kind, fn in (("nacf", nacf), ("pnacf", pnacf)):
        grid = corbit_grid(panel, fivenet, fivenet_weights, 4, 3, kind,
                           fivenet_partition)
        for ci in range(2):
            members = fivenet_partition.members(ci + 1)
            for h in range(1, 5):
                for r in range(1, 4):
                    cell = fn(panel, fivenet, fivenet_weights, h, r, nodes=members)
                    assert grid.values[ci, h - 1, r - 1] == cell.value
                    assert grid.degenerate[ci, h - 1, r - 1] == cell.degenerate


def test_grid_step_mixes_singular_regular_and_pairless_communities():
    # On the 8-cycle every node has two neighbours, so a stage-1 neighbour sum is
    # half the neighbour's value.  At lag 3, stage 1 one step must carry:
    # K1 = {1, 2}, copied series, where B_1E = E/2 makes both Grams singular;
    # K2 = {3, 4, 5}, regular; K3 = {6}, with no within-community pairs; and
    # K4 = {7, 8}, series that are 0 after t = 0, so only the backward Gram is
    # singular.  No layer's singular Gram may stop another layer's inverse.
    net = build_network(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
                            (1, 8)])
    W = default_weights(bfs_distances(net))
    values = np.random.default_rng(4).normal(size=(8, 20))
    values[1] = values[0]
    values[6:] = 0.0
    values[6:, 0] = 2.0, -1.0
    panel = make_panel(values)
    part = CommunityPartition((1, 1, 2, 2, 2, 3, 4, 4), 4)
    grid = corbit_grid(panel, net, W, 4, 2, "pnacf", part)
    assert list(grid.notes[:, 2, 0]) == [
        "auxiliary fit rank deficient (rank 2 of 4)", "",
        "no within-subset stage pairs",
        "auxiliary fit rank deficient (rank 2 of 4) (reversed)"]
    for c, h, r in np.ndindex(grid.values.shape):
        cell = pnacf(panel, net, W, h + 1, r + 1, nodes=part.members(c + 1))
        assert grid.values[c, h, r] == cell.value
        assert grid.degenerate[c, h, r] == cell.degenerate
        assert grid.notes[c, h, r] == cell.note


def test_grid_single_community_equals_overall(fivenet, fivenet_weights):
    rng = np.random.default_rng(8)
    panel = noise_panel(rng, T=30)
    part = single_community(5)
    overall = corbit_grid(panel, fivenet, fivenet_weights, 4, 2, "nacf")
    communal = corbit_grid(panel, fivenet, fivenet_weights, 4, 2, "nacf", part)
    assert np.array_equal(communal.values[0], overall.values)
    assert np.array_equal(communal.mean_values, overall.values)


def test_grid_shapes_and_mean_layer(fivenet, fivenet_weights, fivenet_partition):
    rng = np.random.default_rng(9)
    panel = noise_panel(rng, T=30)
    grid = corbit_grid(panel, fivenet, fivenet_weights, 8, 3, "pnacf",
                       fivenet_partition)
    assert grid.values.shape == (2, 8, 3)
    assert grid.mean_values.shape == (8, 3)
    assert np.allclose(grid.mean_values, grid.values.mean(axis=0))
    # mean cell degenerate only when every community cell is
    assert np.array_equal(grid.mean_degenerate, grid.degenerate.all(axis=0))


def test_grid_mean_skips_degenerate_community_cells(fivenet, fivenet_weights,
                                                    fivenet_partition):
    # K1 = {2, 3, 4} is constant, so each of its cells is degenerate (zero
    # variance); K2 = {1, 5} has values at stage 1 and no stage-2 or -3 pairs
    values = np.random.default_rng(13).normal(size=(5, 30))
    values[[1, 2, 3]] = 1.0
    grid = corbit_grid(make_panel(values), fivenet, fivenet_weights, 4, 3, "nacf",
                       fivenet_partition)
    assert grid.degenerate[0].all() and not grid.degenerate[1, :, 0].any()
    assert np.array_equal(grid.mean_values[:, 0], grid.values[1, :, 0])
    assert not grid.mean_degenerate[:, 0].any()
    assert np.all(grid.mean_values[:, 1:] == 0.0) and grid.mean_degenerate[:, 1:].all()
    svg = render_rcorbit(grid)
    assert svg.count('class="rcorbit-mean"') == 4 * 3


def test_grid_preconditions(fivenet, fivenet_weights):
    rng = np.random.default_rng(10)
    panel = noise_panel(rng, T=10)
    with pytest.raises(GnarError):
        corbit_grid(panel, fivenet, fivenet_weights, 10, 3, "nacf")
    with pytest.raises(GnarError):
        corbit_grid(panel, fivenet, fivenet_weights, 4, 4, "nacf")
    with pytest.raises(GnarError):
        corbit_grid(panel, fivenet, fivenet_weights, 4, 3, "bogus")


def test_grid_deterministic(fivenet, fivenet_weights, fivenet_partition):
    rng = np.random.default_rng(11)
    panel = noise_panel(rng, T=30)
    a = corbit_grid(panel, fivenet, fivenet_weights, 4, 3, "pnacf",
                    fivenet_partition)
    b = corbit_grid(panel, fivenet, fivenet_weights, 4, 3, "pnacf",
                    fivenet_partition)
    assert np.array_equal(a.values, b.values)
    assert a.to_csv_text() == b.to_csv_text()


def test_grid_csv_format(fivenet, fivenet_weights, fivenet_partition):
    rng = np.random.default_rng(12)
    panel = noise_panel(rng, T=30)
    grid = corbit_grid(panel, fivenet, fivenet_weights, 4, 3, "nacf",
                       fivenet_partition)
    lines = grid.to_csv_text().strip().splitlines()
    assert lines[0] == "kind,community,lag,stage,value,degenerate"
    assert len(lines) == 1 + (2 + 1) * 4 * 3  # per community plus the mean layer
    assert lines[1].startswith("nacf,K1,1,1,")
    assert any(ln.startswith("nacf,mean,") for ln in lines)
    plain = corbit_grid(panel, fivenet, fivenet_weights, 4, 3, "nacf")
    lines = plain.to_csv_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 3
    assert lines[1].startswith("nacf,all,1,1,")


@pytest.mark.parametrize("n", (4, 6))
def test_grid_rejects_partition_of_another_size(fivenet, fivenet_weights, n):
    from gnar.errors import DataError

    panel = noise_panel(np.random.default_rng(3), T=30)
    with pytest.raises(DataError, match=f"^partition has {n} nodes, panel has 5$"):
        corbit_grid(panel, fivenet, fivenet_weights, 2, 1, "nacf", single_community(n))


def test_grid_file_refuses_a_label_that_would_split_its_row(fivenet, fivenet_weights):
    panel = noise_panel(np.random.default_rng(3))
    part = CommunityPartition((2, 1, 1, 1, 2), 2, labels=("a,b", "x"))
    grid = corbit_grid(panel, fivenet, fivenet_weights, 1, 1, "nacf", part)
    with pytest.raises(GnarError, match="^community label 'a,b' holds ','"):
        grid.to_csv_text()
