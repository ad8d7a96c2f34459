import dataclasses

import numpy as np
import pytest
from scipy import stats

from gnar.errors import CovarianceError, DesignError, RankDeficiencyError
from gnar.estimate import (KroneckerCovariance, build_community_design,
                           build_design, coefficient_table, fit_gls, fit_ols,
                           fit_per_community, solve_least_squares)
from gnar.model import GnarCoefficients, parse_order, to_var
from gnar.network import bfs_distances, build_network, default_weights
from gnar.panel import TimeSeriesPanel, default_node_labels
from gnar.partition import CommunityPartition, single_community
from gnar.simulate import simulate

from oracles import (blockwise_gls, gls_dense_solve, local_design,
                     normal_equations_solve, random_connected_graph)


def sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition,
              T=100, seed=0):
    coeffs, order = table1_model
    return simulate(coeffs, order, fivenet, fivenet_weights, T,
                    part=fivenet_partition, seed=seed)


def make_panel(values):
    values = np.asarray(values, dtype=float)
    return TimeSeriesPanel(values, default_node_labels(values.shape[0]),
                           [str(t) for t in range(values.shape[1])])


# ---------------------------------------------------------------------------
# design construction
# ---------------------------------------------------------------------------

def test_design_shape_and_names(table1_model, fivenet, fivenet_weights,
                                fivenet_partition):
    coeffs, order = table1_model
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition)
    ds = build_design(panel, order, fivenet, fivenet_weights, fivenet_partition)
    assert ds.q == 6
    assert ds.n == 5 * (100 - 2) == 490
    assert ds.column_names() == ("alpha.1.1", "beta.1.1.1", "alpha.1.2",
                                 "beta.1.1.2", "alpha.2.2", "beta.2.1.2")


def test_design_gram_block_diagonal(table1_model, fivenet, fivenet_weights,
                                    fivenet_partition):
    coeffs, order = table1_model
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition)
    ds = build_design(panel, order, fivenet, fivenet_weights, fivenet_partition)
    G = ds.R.T @ ds.R
    # columns 0..1 belong to community 1, columns 2..5 to community 2
    assert np.all(G[:2, 2:] == 0.0)
    assert np.all(G[2:, :2] == 0.0)


def test_design_rejects_short_panel(table1_model, fivenet, fivenet_weights,
                                    fivenet_partition):
    coeffs, order = table1_model
    panel = make_panel(np.random.default_rng(0).normal(size=(5, 2)))
    with pytest.raises(DesignError, match="at least 3"):
        build_design(panel, order, fivenet, fivenet_weights, fivenet_partition)


def test_community_design_masked_zeros_keep_the_sign_of_the_masked_value(
        fivenet, fivenet_weights, fivenet_partition):
    """A masked entry is 0 times the regressor, so a negative one leaves -0.0.

    The solve's output bits follow these signs, so a design filled with +0.0
    would change saved fits although it compares equal.  Both communities
    use lag 1 and stage 1, and every row is in one community, so the two
    communities' columns of one (lag, stage) sum to the unmasked regressor.
    """
    panel = make_panel(np.random.default_rng(6).normal(size=(5, 30)))
    ds = build_design(panel, parse_order("community:[1,1];{[1],[1]}"), fivenet,
                      fivenet_weights, fivenet_partition)
    group = np.tile(fivenet_partition.assignment, ds.n // 5)
    negative_zeros = 0
    for j, e in enumerate(ds.columns):
        twins = [k for k, f in enumerate(ds.columns) if (f.lag, f.stage) == (e.lag, e.stage)]
        unmasked = ds.R[:, twins].sum(axis=1)
        masked = (group != e.group) & (unmasked != 0.0)
        assert np.all(ds.R[masked, j] == 0.0)
        assert np.array_equal(np.signbit(ds.R[masked, j]), unmasked[masked] < 0)
        negative_zeros += int(np.sum(np.signbit(ds.R[masked, j])))
    assert negative_zeros > 0


def test_design_community_rows_zero_elsewhere(table1_model, fivenet,
                                              fivenet_weights, fivenet_partition):
    coeffs, order = table1_model
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition)
    ds = build_design(panel, order, fivenet, fivenet_weights, fivenet_partition)
    # rows cycle nodes 1..5 per time step; community 1 is {2,3,4}
    for block in range(ds.n // 5):
        rows = slice(block * 5, (block + 1) * 5)
        R = ds.R[rows]
        assert np.all(R[[0, 4], :2] == 0.0)  # community-1 columns on K2 rows
        assert np.all(R[[1, 2, 3], 2:] == 0.0)


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def test_exact_recovery_zero_noise(table1_model, fivenet, fivenet_weights,
                                   fivenet_partition):
    coeffs, order = table1_model
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition)
    ds = build_design(panel, order, fivenet, fivenet_weights, fivenet_partition)
    theta_star = coeffs.theta
    y_exact = ds.R @ theta_star
    ds_exact = dataclasses.replace(ds, y=y_exact)
    fit = fit_ols(ds_exact)
    assert np.max(np.abs(fit.theta - theta_star)) < 1e-10


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n, q = int(rng.integers(10, 60)), int(rng.integers(2, 8))
        R = rng.normal(size=(n, q))
        y = rng.normal(size=n)
        theta, _ = solve_least_squares(R, y)
        oracle = normal_equations_solve(R, y)
        rel = np.linalg.norm(theta - oracle) / max(np.linalg.norm(oracle), 1e-30)
        assert rel < 1e-10


def test_ols_residual_orthogonality(table1_model, fivenet, fivenet_weights,
                                    fivenet_partition):
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition)
    _, order = table1_model
    ds = build_design(panel, order, fivenet, fivenet_weights, fivenet_partition)
    fit = fit_ols(ds)
    resid = ds.y - ds.R @ fit.theta
    assert np.linalg.norm(ds.R.T @ resid) <= 1e-8 * np.linalg.norm(ds.R.T @ ds.y)


def test_fit_result_contract(table1_model, fivenet, fivenet_weights,
                             fivenet_partition):
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition)
    _, order = table1_model
    ds = build_design(panel, order, fivenet, fivenet_weights, fivenet_partition)
    fit = fit_ols(ds)
    resid = ds.y - ds.R @ fit.theta
    assert fit.sigma2 == pytest.approx(float(resid @ resid) / (ds.n - ds.q))
    assert np.allclose(fit.cov, fit.cov.T)
    assert np.all(np.linalg.eigvalsh(fit.cov) > -1e-12)
    assert fit.residuals.values.size == ds.n
    assert fit.df_resid == ds.n - ds.q
    # the advisory flag mirrors the absolute-coefficient sums exactly
    assert fit.stationary == bool(np.all(fit.stationarity_sums < 1.0))
    table = coefficient_table(fit)
    assert table.splitlines()[0] == "name,estimate,std_error"
    assert len(table.strip().splitlines()) == 7


def test_rank_deficiency_names_columns(fivenet, fivenet_partition, table1_model):
    _, order = table1_model
    rng = np.random.default_rng(0)
    panel = make_panel(rng.normal(size=(5, 30)))
    # zero weights make every neighbourhood column identically zero
    W0 = np.zeros((5, 5))
    ds = build_design(panel, order, fivenet, W0, fivenet_partition)
    with pytest.raises(RankDeficiencyError) as err:
        fit_ols(ds)
    assert any(name.startswith("beta") for name in err.value.dependent_columns)


def test_permutation_invariance(table1_model, fivenet, fivenet_weights,
                                fivenet_partition):
    coeffs, order = table1_model
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition)
    fit = fit_ols(build_design(panel, order, fivenet, fivenet_weights,
                               fivenet_partition))
    perm = [3, 1, 5, 2, 4]  # new id of each old node (1-based images)
    edges = sorted(tuple(sorted((perm[i - 1], perm[j - 1])))
                   for i, j in fivenet.edges)
    net_p = build_network(5, edges)
    P = np.zeros((5, 5))
    for old, new in enumerate(perm):
        P[new - 1, old] = 1.0
    W_p = P @ fivenet_weights @ P.T
    values_p = P @ panel.values
    panel_p = make_panel(values_p)
    assign_p = [0] * 5
    for old, new in enumerate(perm):
        assign_p[new - 1] = fivenet_partition.assignment[old]
    part_p = CommunityPartition(assignment=tuple(assign_p), n_communities=2)
    fit_p = fit_ols(build_design(panel_p, order, net_p, W_p, part_p))
    assert np.allclose(fit_p.theta, fit.theta, atol=1e-10)
    # residual panels permute with the nodes: new row perm[i]-1 is old row i
    assert np.allclose(fit_p.residuals.values[np.asarray(perm) - 1],
                       fit.residuals.values, atol=1e-10)


# ---------------------------------------------------------------------------
# GLS
# ---------------------------------------------------------------------------

def test_gls_identity_reduces_to_ols(table1_model, fivenet, fivenet_weights,
                                     fivenet_partition):
    _, order = table1_model
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition)
    ds = build_design(panel, order, fivenet, fivenet_weights, fivenet_partition)
    ols = fit_ols(ds)
    for scale in (1.0, 0.5, 4.0):
        gls = fit_gls(ds, scale * np.eye(ds.n))
        assert np.max(np.abs(gls.theta - ols.theta)) < 1e-10


def test_gls_kronecker_matches_dense_oracle():
    rng = np.random.default_rng(7)
    d, T = 4, 9
    net = build_network(d, [(1, 2), (2, 3), (3, 4)])
    W = default_weights(bfs_distances(net))
    order = parse_order("global:1;[1]")
    panel = make_panel(rng.normal(size=(d, T)))
    ds = build_design(panel, order, net, W)
    A = rng.normal(size=(d, d))
    sigma_u = A @ A.T + d * np.eye(d)
    kron = fit_gls(ds, KroneckerCovariance(sigma_u))
    dense_sigma = np.kron(np.eye(T - 1), sigma_u)
    dense = fit_gls(ds, dense_sigma)
    oracle = gls_dense_solve(ds.R, ds.y, dense_sigma)
    assert np.max(np.abs(kron.theta - oracle)) < 1e-8
    assert np.max(np.abs(dense.theta - oracle)) < 1e-8


def test_gls_rejects_singular_covariance(table1_model, fivenet, fivenet_weights,
                                         fivenet_partition):
    _, order = table1_model
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition,
                      T=20)
    ds = build_design(panel, order, fivenet, fivenet_weights, fivenet_partition)
    singular = np.ones((ds.n, ds.n))  # rank one: zero eigenvalues
    with pytest.raises(CovarianceError, match="positive definite"):
        fit_gls(ds, singular)
    asym = np.eye(ds.n)
    asym[0, 1] = 0.5
    with pytest.raises(CovarianceError, match="symmetric"):
        fit_gls(ds, asym)


@pytest.mark.parametrize("dense", (False, True), ids=("kronecker", "dense"))
def test_gls_refuses_a_covariance_of_the_wrong_size(fivenet, fivenet_weights, dense):
    ds = build_design(make_panel(np.random.default_rng(4).normal(size=(5, 12))),
                      parse_order("global:1;[1]"), fivenet, fivenet_weights)
    m = ds.n if dense else 5
    sigma = np.eye(m + 1) if dense else KroneckerCovariance(np.eye(m + 1))
    with pytest.raises(CovarianceError, match=rf"^covariance block must be {m} x {m} "
                                              rf"\(55 design rows in blocks of {m}\)"):
        fit_gls(ds, sigma)


def test_kronecker_covariance_block_must_be_square():
    for block in (np.ones((2, 3)), np.ones(3)):
        with pytest.raises(CovarianceError, match="^per-step covariance block must be square$"):
            KroneckerCovariance(block)


def test_gls_covariance_is_whitened_gram_inverse():
    rng = np.random.default_rng(3)
    d, T = 3, 12
    net = build_network(d, [(1, 2), (2, 3)])
    W = default_weights(bfs_distances(net))
    order = parse_order("global:1;[1]")
    ds = build_design(make_panel(rng.normal(size=(d, T))), order, net, W)
    sigma = 2.5 * np.eye(ds.n)
    gls = fit_gls(ds, sigma)
    expected = np.linalg.inv(ds.R.T @ np.linalg.inv(sigma) @ ds.R)
    assert np.allclose(gls.cov, expected, atol=1e-10)


@pytest.mark.parametrize("text, T, n, q", [
    ("global:3;[1,1,1]", 6, 6, 6), ("global:3;[1,1,1]", 5, 4, 6),
    ("local:2;[1,1]", 5, 6, 6), ("local:2;[1,1]", 4, 4, 6),
], ids=["dense-n=q", "dense-n<q", "local-n=q", "local-n<q"])
def test_ols_refuses_a_system_without_residual_degrees_of_freedom(text, T, n, q):
    net = build_network(2, [(1, 2)])
    ds = build_design(make_panel(np.random.default_rng(T).normal(size=(2, T))),
                      parse_order(text), net, default_weights(bfs_distances(net)))
    assert (ds.n, ds.q, ds.blocks[0] is not None) == (n, q, text.startswith("local"))
    # GLS under an identity block refuses these systems as OLS does, before any solve.
    for fit in (fit_ols, lambda ds: fit_gls(ds, KroneckerCovariance(np.eye(2)))):
        with pytest.raises(DesignError,
                           match=rf"^no residual degrees of freedom \(n={n}, q={q}\)$"):
            fit(ds)


# ---------------------------------------------------------------------------
# per-community estimation
# ---------------------------------------------------------------------------

def test_per_community_fit_refuses_to_rebuild_coefficients(table1_model, fivenet,
                                                           fivenet_weights, fivenet_partition):
    _, order = table1_model
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition)
    fit = fit_per_community(panel, order, fivenet, fivenet_weights, fivenet_partition)[0]
    with pytest.raises(DesignError, match="^per-community results cover a single parameter "
                                          "block; rebuild coefficients from a joint fit$"):
        fit.to_coefficients()


def test_per_community_usable_ranges(table1_model, fivenet, fivenet_weights,
                                     fivenet_partition):
    _, order = table1_model
    panel = sim_panel(table1_model, fivenet, fivenet_weights, fivenet_partition)
    ds1 = build_community_design(panel, order, fivenet, fivenet_weights,
                                 fivenet_partition, 1)
    ds2 = build_community_design(panel, order, fivenet, fivenet_weights,
                                 fivenet_partition, 2)
    assert ds1.n == 3 * (100 - 1)  # community 1 has lag 1: T-1 usable steps
    assert ds2.n == 2 * (100 - 2)
    assert ds1.q == 2 and ds2.q == 4


def test_equal_lags_match_joint_slices(fivenet, fivenet_weights, fivenet_partition):
    order = parse_order("community:[2,2];{[1,1],[1,1]}")
    rng = np.random.default_rng(21)
    coeffs = GnarCoefficients.from_theta(
        [0.2, 0.1, 0.1, 0.05,     # alpha.1.1, beta.1.1.1, alpha.2.1, beta.2.1.1
         0.15, 0.2, 0.05, 0.1],   # alpha.1.2, beta.1.1.2, alpha.2.2, beta.2.1.2
        order)
    panel = simulate(coeffs, order, fivenet, fivenet_weights, 80,
                     part=fivenet_partition, seed=13)
    joint = fit_ols(build_design(panel, order, fivenet, fivenet_weights,
                                 fivenet_partition))
    blocks = fit_per_community(panel, order, fivenet, fivenet_weights,
                               fivenet_partition)
    stacked = np.concatenate([b.theta for b in blocks])
    assert np.max(np.abs(stacked - joint.theta)) < 1e-10


def test_single_community_equals_global_fit(fivenet, fivenet_weights):
    part = single_community(5)
    order_c = parse_order("community:[1];{[1]}")
    order_g = parse_order("global:1;[1]")
    rng = np.random.default_rng(31)
    panel = make_panel(rng.normal(size=(5, 60)))
    fit_c = fit_per_community(panel, order_c, fivenet, fivenet_weights, part)[0]
    fit_g = fit_ols(build_design(panel, order_g, fivenet, fivenet_weights))
    assert np.max(np.abs(fit_c.theta - fit_g.theta)) < 1e-10


# ---------------------------------------------------------------------------
# local variant: own lags partialled out, shared betas by pivoted QR
# ---------------------------------------------------------------------------

LOCAL = parse_order("local:2;[1,1]")


def test_local_fit_solves_only_the_residualised_beta_system(fivenet, fivenet_weights,
                                                            monkeypatch):
    import gnar.estimate as estimate

    shapes = []
    qr = estimate.solve_least_squares

    def spy(R, y, names=None):
        shapes.append(R.shape)
        return qr(R, y, names)

    monkeypatch.setattr(estimate, "solve_least_squares", spy)
    panel = make_panel(np.random.default_rng(5).normal(size=(5, 40)))
    ds = build_design(panel, LOCAL, fivenet, fivenet_weights)
    fit_ols(ds)
    assert ds.q == 12 and shapes == [(ds.n, 2)]


def _rank_errors(ds):
    with pytest.raises(RankDeficiencyError) as fast:
        fit_ols(ds)
    with pytest.raises(RankDeficiencyError) as qr:
        solve_least_squares(ds.R, ds.y, ds.column_names())
    return fast.value.dependent_columns, qr.value.dependent_columns


def test_local_fit_names_the_own_lags_of_an_all_zero_node(fivenet, fivenet_weights):
    values = np.random.default_rng(6).normal(size=(5, 40))
    values[2] = 0.0
    ds = build_design(make_panel(values), LOCAL, fivenet, fivenet_weights)
    fast, qr = _rank_errors(ds)
    assert fast == ["alpha.node3.1", "alpha.node3.2"]
    assert sorted(qr) == fast


def test_local_fit_names_beta_columns_under_zero_weights(fivenet):
    panel = make_panel(np.random.default_rng(7).normal(size=(5, 40)))
    ds = build_design(panel, LOCAL, fivenet, np.zeros((5, 5)))
    fast, qr = _rank_errors(ds)
    assert sorted(fast) == sorted(qr) == ["beta.1.1", "beta.2.1"]


def test_local_fit_recovers_simulated_coefficients():
    rng = np.random.default_rng(11)
    d = 12
    net = build_network(d, random_connected_graph(rng, d))
    W = default_weights(bfs_distances(net))
    alpha = rng.uniform(-0.3, 0.3, size=(d, 2))
    # alpha.node1.1 to alpha.node12.1, beta.1.1, alpha.node1.2 to alpha.node12.2, beta.2.1
    coeffs = GnarCoefficients.from_theta(
        np.concatenate([alpha[:, 0], [0.2], alpha[:, 1], [-0.15]]), LOCAL, d=d)
    panel = simulate(coeffs, LOCAL, net, W, 2000, seed=12)
    fit = fit_ols(build_design(panel, LOCAL, net, W))
    truth = coeffs.theta
    assert fit.theta.shape == truth.shape == (2 * d + 2,)
    assert np.all(np.abs(fit.theta - truth) <= 5 * fit.se)


def test_local_ols_builds_no_dense_design(fivenet, fivenet_weights):
    panel = make_panel(np.random.default_rng(8).normal(size=(5, 40)))
    ds = build_design(panel, LOCAL, fivenet, fivenet_weights)
    assert (ds.n, ds.q, len(ds.column_names())) == (5 * 38, 12, 12)
    fit = fit_ols(ds)
    repr(ds)
    assert "R" not in vars(ds)
    assert fit.df_resid == ds.n - ds.q


def test_replace_keeps_local_designs_blocks_only(fivenet, fivenet_weights):
    """``dataclasses.replace`` reads every init field it is not given; R is not one, so
    both designs stay blocks-only.  A new last step changes y and no lag, so the moved
    design's fit is the fresh design's."""
    values = np.random.default_rng(11).normal(size=(5, 40))
    ds = build_design(make_panel(values), LOCAL, fivenet, fivenet_weights)
    values[:, -1] += 1.0
    fresh = build_design(make_panel(values), LOCAL, fivenet, fivenet_weights)
    moved = dataclasses.replace(ds, y=fresh.y)
    moved_fit, fresh_fit = fit_ols(moved), fit_ols(fresh)
    assert "R" not in vars(ds) and "R" not in vars(moved)
    assert not np.array_equal(moved.y, ds.y)
    assert np.array_equal(moved_fit.theta, fresh_fit.theta)
    assert np.array_equal(moved_fit.se, fresh_fit.se)


def test_local_dense_design_is_built_on_demand_and_kept(fivenet, fivenet_weights):
    panel = make_panel(np.random.default_rng(9).normal(size=(5, 40)))
    ds = build_design(panel, LOCAL, fivenet, fivenet_weights)
    R = ds.R
    assert R is ds.R and "R" in vars(ds)
    assert R.flags.c_contiguous
    assert np.array_equal(R, local_design(panel, LOCAL, fivenet, fivenet_weights))


def test_global_and_community_r_is_a_view_of_the_shared_block(
        table1_model, fivenet, fivenet_weights, fivenet_partition):
    _, order = table1_model
    panel = make_panel(np.random.default_rng(13).normal(size=(5, 40)))
    for ds in (build_design(panel, parse_order("global:2;[1,1]"), fivenet, fivenet_weights),
               build_design(panel, order, fivenet, fivenet_weights, fivenet_partition),
               build_community_design(panel, order, fivenet, fivenet_weights,
                                      fivenet_partition, 2)):
        A, B, _, b_idx = ds.blocks
        assert A is None and list(b_idx) == list(range(ds.q))
        assert np.shares_memory(ds.R, B) and ds.R.flags.c_contiguous
        assert ds.R is ds.R and "R" in vars(ds)


def test_local_design_free_fit_matches_dense_qr(fivenet, fivenet_weights):
    panel = make_panel(np.random.default_rng(10).normal(size=(5, 40)))
    ds = build_design(panel, LOCAL, fivenet, fivenet_weights)
    fit = fit_ols(ds)
    theta, _ = solve_least_squares(ds.R, ds.y)
    resid = ds.y - ds.R @ theta
    assert np.max(np.abs(fit.theta - theta)) <= 1e-12
    assert np.max(np.abs(fit.residuals.values.T.ravel() - resid)) <= 1e-12


def test_gls_on_local_design_matches_dense_oracle(fivenet, fivenet_weights):
    rng = np.random.default_rng(12)
    panel = make_panel(rng.normal(size=(5, 30)))
    ds = build_design(panel, LOCAL, fivenet, fivenet_weights)
    A = rng.normal(size=(5, 5))
    sigma_u = A @ A.T + 5 * np.eye(5)
    dense_sigma = np.kron(np.eye(28), sigma_u)
    oracle = gls_dense_solve(local_design(panel, LOCAL, fivenet, fivenet_weights),
                             ds.y, dense_sigma)
    for sigma in (KroneckerCovariance(sigma_u), dense_sigma):
        assert np.max(np.abs(fit_gls(ds, sigma).theta - oracle)) < 1e-8


@pytest.mark.parametrize("d", (5, 17, 51))
@pytest.mark.parametrize("text", ("global:2;[1,1]", "local:1;[1]"))
def test_kronecker_gls_equals_blockwise_whitening_bit_for_bit(d, text):
    # fit_gls whitens each block by a direct LAPACK call; the fit must equal one
    # whitened with scipy's solve_triangular, to the bit: a Kronecker covariance
    # time block by time block, a dense one in one call.
    rng = np.random.default_rng(d)
    net = build_network(d, random_connected_graph(rng, d))
    ds = build_design(make_panel(rng.normal(size=(d, 25))), parse_order(text), net,
                      default_weights(bfs_distances(net)))
    A = rng.normal(size=(d, d))
    sigma_u = A @ A.T + d * np.eye(d)
    B = rng.normal(size=(ds.n, ds.n))
    dense = B @ B.T + ds.n * np.eye(ds.n)
    for sigma, block in ((KroneckerCovariance(sigma_u), sigma_u), (dense, dense)):
        fit = fit_gls(ds, sigma)
        theta, cov, sigma2 = blockwise_gls(ds, block)
        assert fit.theta.tobytes() == theta.tobytes()
        assert fit.cov.tobytes() == cov.tobytes()
        assert fit.sigma2 == sigma2
        assert fit.residuals.values.T.ravel().tobytes() == (ds.y - ds.R @ theta).tobytes()


@pytest.mark.parametrize("text", ["community:[1,1];{[1],[1]}", "community:[1,1];{[0],[0]}"])
def test_per_community_fit_refuses_a_panel_larger_than_the_network(fivenet, fivenet_weights,
                                                                   text):
    from gnar.model import parse_order

    panel = make_panel(np.random.default_rng(0).normal(size=(6, 30)))
    part = CommunityPartition(assignment=(1, 1, 1, 2, 2, 2), n_communities=2)
    with pytest.raises(DesignError, match="^panel has 6 nodes, network has 5$"):
        fit_per_community(panel, parse_order(text), fivenet, fivenet_weights, part)


# ---------------------------------------------------------------------------
# standard-error calibration over a fixed seed set
# ---------------------------------------------------------------------------

#: True coefficients, in theta_index order, of the orders the SE guard fits.
CALIBRATION_CASES = {
    "community:[1,2];{[1],[1,1]}": [0.27, 0.18, 0.25, 0.30, 0.12, 0.20],
    "global:2;[1,1]": [0.25, 0.20, 0.15, 0.10],
    "local:2;[1,0]": [0.30, 0.10, 0.20, 0.25, 0.15, 0.20, 0.05, 0.10, 0.15, 0.20, 0.10],
}
_U = np.eye(5) + np.diag([0.5, 0.4, -0.3, 0.2], k=1) + 0.3 * np.eye(5, k=4)
#: Non-identity per-step innovation covariance of the GLS half of the guard.
CALIBRATION_SIGMA_U = _U @ _U.T


def var_panels(phi: np.ndarray, chol: np.ndarray, seeds, T: int, burn_in: int = 100):
    """One panel per seed of the VAR(phi) with innovations chol @ N(0, I), seeds side by side."""
    p, d = phi.shape[:2]
    X = np.zeros((len(seeds), d, p + burn_in + T))
    for s, seed in enumerate(seeds):
        X[s, :, p:] = chol @ np.random.default_rng(seed).normal(size=(d, burn_in + T))
    for t in range(p, X.shape[2]):
        for k in range(1, p + 1):
            X[:, :, t] += X[:, :, t - k] @ phi[k - 1].T
    return [make_panel(x[:, p + burn_in:]) for x in X]


@pytest.mark.parametrize("text", list(CALIBRATION_CASES))
def test_standard_errors_are_calibrated(fivenet, fivenet_weights, fivenet_partition, text):
    """Per parameter, z = (estimate - truth) / SE over 300 seeds at T = 200 is near N(0, 1).

    With 300 draws the sample sd of a standard normal has a spread of about
    0.04 and the share of |z| < 1.96 one of about 0.013, so the bounds
    1 +- 0.15 and 0.95 +- 0.04 leave three to four spreads for sampling and
    finite-T bias.  OLS sees white noise of sd 0.5, so an SE that leaves
    out the residual variance shows; Kronecker GLS sees innovations with
    the covariance it is given.
    """
    order, theta = parse_order(text), np.array(CALIBRATION_CASES[text])
    phi = to_var(GnarCoefficients.from_theta(theta, order, d=5),
                 fivenet, fivenet_weights, fivenet_partition)
    sigma = KroneckerCovariance(CALIBRATION_SIGMA_U)
    for name, chol, fit in [
            ("OLS", 0.5 * np.eye(5), fit_ols),
            ("GLS", np.linalg.cholesky(CALIBRATION_SIGMA_U), lambda ds: fit_gls(ds, sigma))]:
        z = []
        for panel in var_panels(phi, chol, range(300), T=200):
            result = fit(build_design(panel, order, fivenet, fivenet_weights, fivenet_partition))
            z.append((result.theta - theta) / result.se)
        sd, covered = np.std(z, axis=0, ddof=1), np.mean(np.abs(z) < 1.96, axis=0)
        assert np.all(np.abs(sd - 1.0) <= 0.15), f"{name} sd(z) {sd}"
        assert np.all(np.abs(covered - 0.95) <= 0.04), f"{name} coverage {covered}"


# ---------------------------------------------------------------------------
# standard errors against their exact law on fixed Gaussian designs
# ---------------------------------------------------------------------------

_EXACT_NET = build_network(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
_EXACT_PART = CommunityPartition(assignment=(1, 1, 2, 2), n_communities=2)
_V = np.array([[1.0, 0.9, 0.0, 0.0], [0.0, 0.5, -0.8, 0.0],
               [0.0, 0.0, 2.0, 1.5], [0.0, 0.0, 0.0, 0.3]])
#: (order, T, random-walk panel, per-step innovation covariance for GLS or None).
EXACT_CASES = {
    "global": ("global:2;[1,1]", 7, False, None),
    "community": ("community:[1,2];{[1],[1,1]}", 8, False, None),
    "local": ("local:2;[1,1]", 12, True, None),
    "gls": ("community:[1,2];{[1],[1,1]}", 8, False, _V @ _V.T),
}


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_standard_errors_follow_their_exact_law(case):
    """z = (estimate - truth) / SE over 2,000 draws of y = R theta + e on one fixed design.

    With Gaussian e and R held fixed, an OLS z-score follows Student's t
    with n - q degrees of freedom exactly; Kronecker GLS reports
    (R' Sigma^-1 R)^-1 for the Sigma it is given, so its z is N(0, 1).
    Each design is built from one Gaussian panel, with few residual degrees
    of freedom (16 to 30) so that sigma2's divisor shows.  The local panel
    is a random walk: each node's own lags are then strongly correlated and
    (A_i'A_i)^-1 is far from diagonal.  The GLS covariance couples nodes
    with unequal scales.  The bounds are four sampling spreads at 2,000
    draws: sqrt((kurtosis - 1) / 4N) times the law's sd for sd(z), about
    0.017, and sqrt(0.95 * 0.05 / N), about 0.005, for the share of |z|
    inside the law's 97.5% quantile.
    """
    text, T, walk, sigma_u = EXACT_CASES[case]
    x = np.random.default_rng(1).normal(size=(4, T))
    panel = make_panel(np.cumsum(x, axis=1) if walk else x)
    order = parse_order(text)
    ds = build_design(panel, order, _EXACT_NET, default_weights(bfs_distances(_EXACT_NET)),
                      _EXACT_PART)
    theta = np.linspace(0.1, 0.3, ds.q)
    chol = np.eye(4) if sigma_u is None else np.linalg.cholesky(sigma_u)
    law = stats.t(ds.n - ds.q) if sigma_u is None else stats.norm()
    draws = 2000
    rng = np.random.default_rng(2)
    z = np.empty((draws, ds.q))
    for i in range(draws):
        e = (rng.normal(size=(ds.n // 4, 4)) @ chol.T).ravel()
        sample = dataclasses.replace(ds, y=ds.R @ theta + e)
        fit = fit_ols(sample) if sigma_u is None else fit_gls(sample,
                                                             KroneckerCovariance(sigma_u))
        z[i] = (fit.theta - theta) / fit.se
    sd, covered = np.std(z, axis=0, ddof=1), np.mean(np.abs(z) < law.ppf(0.975), axis=0)
    sd_spread = law.std() * np.sqrt((law.stats(moments="k") + 2) / (4 * draws))
    assert np.all(np.abs(sd - law.std()) <= 4 * sd_spread), f"sd(z) {sd} against {law.std()}"
    assert np.all(np.abs(covered - 0.95) <= 4 * np.sqrt(0.95 * 0.05 / draws)), \
        f"coverage {covered}"
