"""Property tests on random graphs, including disconnected ones and singleton
communities: the design reproduces the VAR form, simulating a model and
refitting it by OLS and GLS recovers its coefficients, the community Gram matrix
is block-diagonal, model files and parameter vectors round-trip exactly,
the node-wise expansion agrees with the VAR form, the VAR matrices and every
joint and per-community design equal those built from stage weights masked
once per community, the (P)NACF grid agrees
with single-cell calls, every autocorrelation is bounded by one, the
cross-product PNACF agrees with dense lstsq auxiliary fits (near-collinear
panels included), the level-synchronous BFS gives the shortest paths, and
the local variant's structured OLS solve, and its design-free residuals,
agree with a pivoted QR of the whole design.  The one radial-plot layout
renders every plain and community grid byte for byte as the two separate
renderers it replaced did, overflow errors included.  The election-returns loader
sums valid files exactly as a ``csv.DictReader`` tally does, and on mangled
or random text it raises nothing but ``GnarError``; so do the readers of
edge lists, weights, partitions, panels and model files on mangled bytes.
Every ``gnar`` subcommand, given argv drawn from its own flags, exits 0,
exits 1 with one ``error:`` line, or stops with argparse's usage error.
Every entry point given a panel, weight matrix or partition that is one to
three nodes off the network raises ``SizeError`` naming both node counts.

Runs are derandomised and bounded so the suite stays deterministic and fast.
"""

import argparse
import contextlib
import io
import re
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gnar.autocorr import KINDS, CorbitGrid, corbit_grid, nacf, pnacf
from gnar.cli import build_parser, main
from gnar.corbit_svg import RenderOptions, render_corbit, render_rcorbit
from gnar.elections import ELECTION_YEARS, STATE_NAMES, load_returns
from gnar.errors import DataError, GnarError, OrderError, SizeError
from gnar.estimate import (KroneckerCovariance, build_community_design, build_design, fit_gls,
                           fit_ols, fit_per_community)
from gnar.forecast import ModelSpec, compare, forecast
from gnar.model import (GnarCoefficients, GnarOrder, format_model, read_model,
                        stationarity_margin, theta_index, to_local_alpha, to_var)
from gnar.network import (bfs_distances, build_network, default_weights, load_weight_overrides,
                          mask_weights, read_edge_list, stage_adjacency, stage_weights)
from gnar.panel import (TimeSeriesPanel, default_node_labels, format_panel, read_panel,
                        write_panel)
from gnar.partition import CommunityPartition, read_partition, single_community
from gnar.simulate import simulate

from conftest import DATA_DIR
from oracles import (dictreader_returns, floyd_warshall, loop_default_weights, loop_to_var,
                     lstsq_pnacf, masked_design, pivoted_qr_fit, separate_render_corbit,
                     separate_render_rcorbit)

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def graphs(draw, min_edges=0, sizes=st.integers(2, 8), dense=False):
    """A simple graph on 1..d, possibly disconnected, and a partition of it.  A dense
    graph draws each pair as an edge or not, so about half the pairs are edges; else the
    edges are a short list."""
    d = draw(sizes)
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    if dense:
        edges = [pair for pair in pairs if draw(st.booleans())]
    else:
        edges = draw(st.lists(st.sampled_from(pairs), min_size=min_edges,
                              max_size=len(pairs), unique=True)) if pairs else []
    raw = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    relabel = {c: k for k, c in enumerate(sorted(set(raw)), start=1)}
    part = CommunityPartition(assignment=tuple(relabel[c] for c in raw),
                              n_communities=len(relabel))
    return build_network(d, edges), part


def random_panel(seed: int, d: int, T: int, rho: float = 0.0) -> TimeSeriesPanel:
    """Per-node AR(1) series with coefficient rho (white noise at rho = 0)."""
    noise = np.random.default_rng(seed).normal(size=(d, T))
    values = np.zeros((d, T))
    values[:, 0] = noise[:, 0]
    for t in range(1, T):
        values[:, t] = rho * values[:, t - 1] + noise[:, t]
    return TimeSeriesPanel(values, default_node_labels(d), [str(t) for t in range(T)])


@st.composite
def orders(draw, r_max: int, n_communities: int,
           variants=("global", "community", "local")):
    variant = draw(st.sampled_from(variants))
    groups = n_communities if variant == "community" else 1
    lags = [draw(st.integers(1, 2)) for _ in range(groups)]
    stages = [[draw(st.integers(0, r_max)) for _ in range(p)] for p in lags]
    return GnarOrder(variant, tuple(lags), tuple(tuple(s) for s in stages))


@PROPERTY
@given(st.data(), graphs(), st.integers(0, 2**32 - 1))
def test_design_times_theta_is_var_prediction(data, graph, seed):
    net, part = graph
    order = data.draw(orders(net.r_max, part.n_communities))
    panel = random_panel(seed, net.d, 12)
    W = default_weights(net.distances)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-0.5, 0.5, size=len(theta_index(order, d=net.d)))
    coeffs = GnarCoefficients.from_theta(theta, order, d=net.d)
    ds = build_design(panel, order, net, W, part)
    phi = to_var(coeffs, net, W, part)
    X, p = panel.values, order.p_max
    var_pred = np.stack([sum(phi[k - 1] @ X[:, t - k] for k in range(1, p + 1))
                         for t in range(p, panel.T)])
    assert np.max(np.abs(ds.R @ theta - var_pred.ravel())) <= 1e-12


RECOVERY_T, RECOVERY_MARGIN, RECOVERY_ALPHA = 1000, 0.2, 1e-3


def stage_reach(Bs: list[np.ndarray], members: list[int]) -> int:
    """The largest r such that each stage 1..r links some member to another member."""
    idx = np.asarray(members) - 1
    reach = 0
    while reach < len(Bs) and np.any(Bs[reach][np.ix_(idx, idx)]):
        reach += 1
    return reach


@PROPERTY
@given(st.data(), graphs(dense=True), st.integers(0, 2**32 - 1))
def test_simulate_then_fit_recovers_the_coefficients(data, graph, seed):
    """A model drawn on a random graph, simulated at T = 1000 with a noise sd other than 1
    and refitted by OLS and by GLS under the known covariance noise_sd^2 I: every
    estimate is within c standard errors of the truth.  Each group's stage orders, drawn
    from its reach down, stop where its members run out of within-group neighbours, so
    every column can be estimated.  theta is scaled so that its largest group sum is
    1 - RECOVERY_MARGIN.  Each leg's c is the two-sided quantile at RECOVERY_ALPHA /
    (2 legs x examples x q), of t for OLS (estimated variance) and of the normal for GLS
    (known variance): by the union bound, the chance that any estimate of the run strays
    beyond its c is at most RECOVERY_ALPHA."""
    net, part = graph
    W = default_weights(net.distances)
    Bs = stage_weights(net, W, net.r_max)
    variant = data.draw(st.sampled_from(("global", "community", "local")))
    groups = ([part.members(c) for c in range(1, part.n_communities + 1)]
              if variant == "community" else [list(range(1, net.d + 1))])
    lags = [data.draw(st.integers(1, 3)) for _ in groups]
    stages = [tuple(data.draw(st.sampled_from(range(stage_reach(Bs, members), -1, -1)))
                    for _ in range(p))
              for p, members in zip(lags, groups)]
    order = GnarOrder(variant, tuple(lags), tuple(stages))
    raw = GnarCoefficients.from_theta(np.random.default_rng(seed).uniform(
        -1, 1, len(theta_index(order, d=net.d))), order, d=net.d)
    theta = raw.theta * (1 - RECOVERY_MARGIN) / np.max(stationarity_margin(raw).sums)
    noise_sd = data.draw(st.sampled_from((0.5, 2.0, 4.0)))
    coeffs = GnarCoefficients.from_theta(theta, order, noise_sd, d=net.d)
    panel = simulate(coeffs, order, net, W, RECOVERY_T, part=part, seed=seed)
    ds = build_design(panel, order, net, W, part)
    tail = RECOVERY_ALPHA / (2 * 2 * PROPERTY.max_examples * theta.size)
    for fit, c in ((fit_ols(ds), stats.t.isf(tail, ds.n - ds.q)),
                   (fit_gls(ds, KroneckerCovariance(noise_sd**2 * np.eye(net.d))),
                    stats.norm.isf(tail))):
        z = (fit.theta - theta) / fit.se
        assert np.max(np.abs(z)) <= c, dict(zip(fit.names, z.round(2)))


@PROPERTY
@given(graphs(min_edges=1), st.integers(0, 2**32 - 1), st.sampled_from(KINDS),
       st.booleans(), st.integers(6, 16), st.sampled_from((0.0, 0.9, 0.99)))
def test_grid_cells_equal_single_calls_and_are_bounded(graph, seed, kind,
                                                       communities, T, rho):
    net, part = graph
    part = part if communities else None
    panel = random_panel(seed, net.d, T, rho)
    W = default_weights(net.distances)
    H, R = 3, net.r_max
    grid = corbit_grid(panel, net, W, H, R, kind, part)
    fn = nacf if kind == "nacf" else pnacf
    layers = [None] if part is None else [part.members(g)
                                          for g in range(1, part.n_communities + 1)]
    for ci, nodes in enumerate(layers):
        values = grid.values if part is None else grid.values[ci]
        degs = grid.degenerate if part is None else grid.degenerate[ci]
        for h in range(1, H + 1):
            for r in range(1, R + 1):
                cell = fn(panel, net, W, h, r, nodes=nodes)
                assert values[h - 1, r - 1] == cell.value
                assert degs[h - 1, r - 1] == cell.degenerate
    assert np.all(np.abs(grid.values) <= 1 + 1e-12)


@PROPERTY
@given(st.data(), graphs(min_edges=1), st.integers(0, 2**32 - 1), st.booleans(),
       st.integers(6, 30), st.sampled_from((0.0, 0.9, 0.99)))
def test_pnacf_agrees_with_lstsq_oracle(data, graph, seed, communities, T, rho):
    """Half of the panels copy one node's series into others up to a noise of
    1e-9..1e-3, so that auxiliary designs come close to collinear."""
    net, part = graph
    part = part if communities else None
    values = random_panel(seed, net.d, T, rho).values
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, net.d - 1))
        copies = data.draw(st.lists(st.integers(0, net.d - 1).filter(lambda j: j != i),
                                    min_size=1, unique=True))
        noise = 10.0 ** data.draw(st.floats(-9, -3))
        rng = np.random.default_rng(seed + 1)
        values[copies] = values[i] + noise * rng.normal(size=(len(copies), T))
    panel = TimeSeriesPanel(values, default_node_labels(net.d), [str(t) for t in range(T)])
    W = default_weights(net.distances)
    H, R = 3, net.r_max
    grid = corbit_grid(panel, net, W, H, R, "pnacf", part)
    layers = [None] if part is None else [part.members(g)
                                          for g in range(1, part.n_communities + 1)]
    for ci, nodes in enumerate(layers):
        cells = grid.values if part is None else grid.values[ci]
        degs = grid.degenerate if part is None else grid.degenerate[ci]
        m = net.d if nodes is None else len(nodes)
        for h in range(2, H + 1):
            for r in range(1, R + 1):
                oracle, ratio = lstsq_pnacf(panel, net, W, h, r, nodes)
                if oracle.degenerate:
                    assert degs[h - 1, r - 1]
                elif degs[h - 1, r - 1]:
                    # the documented rank rule: sigma_min/sigma_max <= (max(n, q) eps)^(1/4)
                    n, q = m * (T - h + 1), (h - 1) * (r + 1)
                    assert ratio <= (max(n, q) * np.finfo(float).eps) ** 0.25 * (1 + 1e-6)
                else:
                    assert abs(cells[h - 1, r - 1] - oracle.value) <= 1e-10


@PROPERTY
@given(st.data(), graphs(), st.integers(0, 2**32 - 1))
def test_community_gram_is_block_diagonal(data, graph, seed):
    net, part = graph
    order = data.draw(orders(net.r_max, part.n_communities, variants=("community",)))
    ds = build_design(random_panel(seed, net.d, 12), order, net,
                      default_weights(net.distances), part)
    groups = np.asarray([e.group for e in ds.columns])
    for g in range(1, part.n_communities + 1):
        for h in range(1, part.n_communities + 1):
            if g != h:
                assert np.all(ds.R[:, groups == g].T @ ds.R[:, groups == h] == 0.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(st.data(), graphs(), st.floats(1e-300, 1e300))
def test_theta_and_model_file_round_trips_are_exact(data, graph, noise_sd):
    net, part = graph
    order = data.draw(orders(net.r_max, part.n_communities))
    n = len(theta_index(order, d=net.d))
    theta = np.asarray(data.draw(st.lists(FINITE, min_size=n, max_size=n)), dtype=float)
    coeffs = GnarCoefficients.from_theta(theta, order, noise_sd=noise_sd, d=net.d)
    assert coeffs.theta.tobytes() == theta.tobytes()
    text = format_model(coeffs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_text(text)
        again, order_again = read_model(path)
    assert order_again == order
    assert again.theta.tobytes() == theta.tobytes()
    assert format_model(again) == text


@PROPERTY
@given(st.data(), graphs())
def test_non_finite_theta_and_bad_noise_sd_are_refused_in_code_and_at_their_line(data, graph):
    """One theta slot set to nan or +-inf, or a noise sd of 0, a negative, nan or inf:
    ``from_theta`` refuses it naming the slot or the noise sd, and ``read_model`` refuses
    the file ``format_model`` wrote with that value at the slot's line or the sigma line."""
    net, part = graph
    order = data.draw(orders(net.r_max, part.n_communities))
    entries = theta_index(order, d=net.d)
    theta = np.asarray(data.draw(st.lists(FINITE, min_size=len(entries),
                                          max_size=len(entries))), dtype=float)
    text = format_model(GnarCoefficients.from_theta(theta, order, d=net.d)).splitlines()
    bad_theta = bool(entries) and data.draw(st.booleans())
    if bad_theta:
        j = data.draw(st.integers(0, len(entries) - 1))
        theta[j], noise_sd = data.draw(st.sampled_from([np.nan, np.inf, -np.inf])), 1.0
        line, message = len(text) - len(entries) + j + 1, (
            f"coefficient {entries[j].name(order.variant)} is {theta[j]}, not a finite number")
    else:
        noise_sd = data.draw(st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf]),
                                       st.floats(max_value=-1e-300)))
        line = text.index("sigma 1.0") + 1
        message = f"noise sd {noise_sd} is not positive and finite"
    with pytest.raises(OrderError) as got:
        GnarCoefficients.from_theta(theta, order, noise_sd, d=net.d)
    assert str(got.value) == message
    assert got.value.at == (("theta", j) if bad_theta else ("noise_sd",))
    key, _ = text[line - 1].rsplit(" ", 1)
    text[line - 1] = f"{key} {float(theta[j] if bad_theta else noise_sd)!r}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DataError) as got:
            read_model(path)
    assert str(got.value) == f"{path}:{line}: {message}"


@PROPERTY
@given(st.data(), graphs())
def test_nodewise_expansion_agrees_with_var_form(data, graph):
    net, part = graph
    order = data.draw(orders(net.r_max, part.n_communities, variants=("community",)))
    n = len(theta_index(order))
    theta = data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    coeffs = GnarCoefficients.from_theta(np.asarray(theta), order)
    W = default_weights(net.distances)
    phi = to_var(coeffs, net, W, part)
    nodewise = to_local_alpha(coeffs, part)
    Bs = stage_weights(net, W, order.r_star)
    community = np.asarray(part.assignment)
    for i in range(net.d):
        same = community == community[i]
        off = np.arange(net.d) != i
        for k in range(order.p_max):
            assert phi[k, i, i] == nodewise.alpha[i, k]
            row = np.zeros(net.d)
            for r in range(order.r_star):
                row += nodewise.beta[i, k, r] * Bs[r][i] * same
            assert np.array_equal(phi[k, i, off], row[off])


@PROPERTY
@given(st.data(), graphs())
def test_to_var_equals_per_community_slot_loop(data, graph):
    net, part = graph
    order = data.draw(orders(net.r_max, part.n_communities))
    n = len(theta_index(order, d=net.d))
    theta = data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    coeffs = GnarCoefficients.from_theta(np.asarray(theta), order, d=net.d)
    W = default_weights(net.distances)
    assert np.array_equal(to_var(coeffs, net, W, part),
                          loop_to_var(coeffs, order, net, W, part))


@PROPERTY
@given(st.data(), graphs(), st.integers(0, 2**32 - 1))
def test_designs_equal_per_community_masked_products(data, graph, seed):
    net, part = graph
    order = data.draw(orders(net.r_max, part.n_communities))
    panel = random_panel(seed, net.d, 12)
    W = default_weights(net.distances)
    assert np.array_equal(build_design(panel, order, net, W, part).R,
                          masked_design(panel, order, net, W, part))
    if order.variant == "community":
        for c in range(1, part.n_communities + 1):
            assert np.array_equal(build_community_design(panel, order, net, W, part, c).R,
                                  masked_design(panel, order, net, W, part, c))


@PROPERTY
@given(graphs())
def test_bfs_distances_equal_floyd_warshall(graph):
    net, _ = graph
    assert np.array_equal(bfs_distances(net), floyd_warshall(net.d, net.edges))


@pytest.mark.parametrize("d", (1, 7, 8, 9, 16, 17, 63, 64, 65))
@settings(PROPERTY, max_examples=15)
@given(st.data())
def test_packed_bfs_equals_floyd_warshall_at_packing_boundaries(d, data):
    """Node counts on both sides of the BFS's bytes of 8 sources and words of 64."""
    net, _ = data.draw(graphs(sizes=st.just(d)))
    assert np.array_equal(bfs_distances(net), floyd_warshall(net.d, net.edges))


@PROPERTY
@given(graphs(sizes=st.integers(1, 17)))
def test_default_weights_equal_stage_loop_bit_for_bit(graph):
    net, _ = graph
    W = default_weights(net.distances)
    assert W.dtype == np.float64
    assert W.tobytes() == loop_default_weights(net.distances).tobytes()


@PROPERTY
@given(graphs(sizes=st.integers(1, 17)), st.integers(0, 2**32 - 1))
def test_stage_weights_equal_weights_times_stage_matrices_bit_for_bit(graph, seed):
    net, _ = graph
    S = stage_adjacency(net.distances)
    for W in (default_weights(net.distances),
              np.random.default_rng(seed).uniform(-1.0, 1.0, (net.d, net.d))):
        Bs = stage_weights(net, W, net.r_max)
        assert len(Bs) == len(S) == net.r_max
        for B, S_r in zip(Bs, S):
            assert B.tobytes() == (W * S_r).tobytes()


@PROPERTY
@given(st.data(), graphs(), st.integers(0, 2**32 - 1))
def test_local_fit_matches_pivoted_qr_of_whole_design(data, graph, seed):
    net, part = graph
    order = data.draw(orders(net.r_max, part.n_communities, variants=("local",)))
    ds = build_design(random_panel(seed, net.d, 30, 0.5), order, net,
                      default_weights(net.distances))
    fit = fit_ols(ds)
    theta, se, sigma2 = pivoted_qr_fit(ds)
    assert np.max(np.abs(fit.theta - theta)) <= 1e-10 * np.max(np.abs(theta))
    assert np.allclose(fit.se, se, rtol=1e-10, atol=0.0)
    assert abs(fit.sigma2 - sigma2) <= 1e-10 * sigma2


@PROPERTY
@given(st.data(), graphs(), st.integers(0, 2**32 - 1))
def test_design_free_local_residuals_match_pivoted_qr(data, graph, seed):
    net, part = graph
    order = data.draw(orders(net.r_max, part.n_communities, variants=("local",)))
    ds = build_design(random_panel(seed, net.d, 30, 0.5), order, net,
                      default_weights(net.distances))
    fit = fit_ols(ds)
    assert "R" not in vars(ds)
    theta, _, _ = pivoted_qr_fit(ds)
    resid = (ds.y - ds.R @ theta).reshape(-1, net.d).T
    assert np.max(np.abs(fit.residuals.values - resid)) <= 1e-12 * np.max(np.abs(resid))


PARTY_COLUMNS = ("party_simplified", "party", "party_detailed")


def returns_text(seed: int, party_column: str, crlf: bool, huge: bool) -> str:
    """A valid per-candidate returns file with ``party_column`` as its only
    party column (beside party_detailed when it is party_simplified).

    Each state-year has a Republican row, split in two fusion rows at random,
    a Democrat row and a minor-party row, with unequal, blank or NA totals
    after the first and occasional blank, NA or fractional candidate votes; quoted
    candidate names hold commas.  Senate rows and off-cycle years (with a
    state the loader does not know) are mixed in, the rows are shuffled and
    blank lines inserted.  ``huge`` puts the counts past 2**53.
    """
    rng = np.random.default_rng(seed)
    scale = 2**40 if huge else 1

    def row(year, state, office, name, label, simplified, votes, total):
        cells = [str(year), state, office, name, label, str(votes), str(total)]
        return cells + [simplified] if party_column == "party_simplified" else cells

    def written(count):  # now and then blank, NA or with a fraction the loader drops
        u = rng.random()
        return (rng.choice(["", "NA", " NA "]) if u < 0.05
                else f"{count}.{rng.integers(10)}" if u < 0.1 else str(count))

    header = row("year", "state", "office", "candidate",
                 "party_detailed" if party_column == "party_simplified" else party_column,
                 "party_simplified", "candidatevotes", "totalvotes")
    rows = []
    for year in ELECTION_YEARS:
        for state in STATE_NAMES:
            total = int(rng.integers(1000, 10**6)) * scale + int(rng.integers(0, scale))
            rep, dem = (total * int(k) // 100 for k in rng.integers(5, 45, size=2))
            fused = rep * int(rng.integers(0, 11)) // 10
            spelled = state if rng.random() < 0.8 else f"  {state.lower()} "
            office = rng.choice(["US PRESIDENT", "us president ", ""])
            cands = [('"SMITH, JO"', "REPUBLICAN", "REPUBLICAN", rep - fused),
                     ('"SMITH, JO"', "CONSERVATIVE", "REPUBLICAN", fused),
                     ('"O""NEIL, AL"', "DEMOCRAT", "DEMOCRAT", dem),
                     ("DOE", "LIBERTARIAN", "OTHER", total - rep - dem)]
            for k, (name, label, simplified, votes) in enumerate(cands):
                tv = total if k == 0 else written(total - int(rng.integers(0, 3)))
                rows.append(row(year, spelled, office, name, label, simplified,
                                written(votes), tv))
            if rng.random() < 0.2:
                rows.append(row(year, state, "US SENATE", "X", "REPUBLICAN", "REPUBLICAN",
                                total, 2 * total))
            if rng.random() < 0.2:
                rows.append(row(year + 2, rng.choice(["PUERTO RICO", state]), "US PRESIDENT",
                                "Y", "DEMOCRAT", "DEMOCRAT", total, total))
    lines = [",".join(cells) for cells in rows]
    lines = [lines[i] for i in rng.permutation(len(lines))]
    for i in rng.integers(0, len(lines), size=20):
        lines.insert(int(i), "")
    return ("\r\n" if crlf else "\n").join([",".join(header)] + lines) + "\n"


@settings(PROPERTY, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PARTY_COLUMNS), st.booleans(),
       st.booleans())
def test_returns_loader_equals_dictreader_oracle(seed, party_column, crlf, huge):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "returns.csv"
        path.write_bytes(returns_text(seed, party_column, crlf, huge).encode())
        data = load_returns(path)
        rep, dem, total = dictreader_returns(path)
    for got, want in ((data.rep_votes, rep), (data.dem_votes, dem),
                      (data.total_votes, total)):
        assert got.tobytes() == want.tobytes()


FUZZ_TOKENS = (",", '"', "\n", "\r\n", "\r", " ", "\x00", "NA", "nan", "inf", "1e400",
               "9e307", "-7", "0", "3.5", "1976", "2020", "ALABAMA", "WYOMING", "NARNIA",
               "US PRESIDENT", "US SENATE", "REPUBLICAN", "DEMOCRAT", "year", "state",
               "office", "candidatevotes", "totalvotes", "party_simplified", "party")


CELL_TOKENS = ("", "NA", "nan", "inf", "-inf", "1e400", "9e307", "-7", "3.5", "x", '"',
               "1976", "ALABAMA", "NARNIA", "US SENATE")


def edits(tokens, reach):
    return st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, reach),
                              st.sampled_from(tokens)), max_size=8)


@PROPERTY
@given(st.integers(0, 2**32 - 1), edits(CELL_TOKENS, 2), edits(FUZZ_TOKENS, 8), st.booleans(),
       st.lists(st.sampled_from(FUZZ_TOKENS), max_size=60))
def test_returns_reader_raises_only_gnar_errors(seed, cell_edits, text_edits, with_header,
                                                noise):
    """A valid file with vote and party cells replaced, the same file with
    text spliced into its body, and token soup with or without the header."""
    header, *lines = returns_text(seed, "party_simplified", False, False).split("\n")
    body = "\n".join(lines)
    for where, cut, token in text_edits:
        at = int(where * len(body))
        body = body[:at] + token + body[at + cut:]
    for where, column, token in cell_edits:
        at = int(where * len(lines))
        cells = lines[at].split(",")  # counted from the end, past any quoted commas
        cells[-1 - column % len(cells)] = token
        lines[at] = ",".join(cells)
    texts = ("\n".join([header] + lines), header + "\n" + body,
             (header + "\n" if with_header else "") + "".join(noise))
    with tempfile.TemporaryDirectory() as tmp:
        for text in texts:
            path = Path(tmp) / "returns.csv"
            path.write_bytes(text.encode())
            try:
                load_returns(path)
            except GnarError:
                pass


READERS = {
    "edges": (read_edge_list, (DATA_DIR / "fivenet_edges.csv").read_bytes()),
    "weights": (lambda path: load_weight_overrides(path, np.full((5, 5), 0.5)),
                b"from,to,w\n1,4,0.25\n2,3,1.0\n5,1,0\n"),
    "partition": (read_partition, (DATA_DIR / "fivenet_partition.csv").read_bytes()),
    "panel": (read_panel, format_panel(random_panel(0, 3, 4)).replace("\n", "\n# seed: 0\n", 1)
              .encode()),
    "model": (read_model, (DATA_DIR / "table1_model.txt").read_bytes()),
}

READER_TOKENS = (b"\xff", b"\r", b"\n", b",", b" ", b"#", b":", b"99999999999", b"-1", b"0",
                 b"nan", b"1e400", b"x", b"# d:", b"# label", b"time", b"from,to", b"sigma",
                 b"alpha", b"beta", b"s", b"C", b"p", b"d", b"variant local")


@settings(PROPERTY, max_examples=200)
@given(st.sampled_from(sorted(READERS)), edits(READER_TOKENS, 8))
def test_file_readers_raise_only_gnar_errors(name, text_edits):
    """A valid file of each format with tokens and raw bytes spliced into it."""
    read, body = READERS[name]
    for where, cut, token in text_edits:
        at = int(where * len(body))
        body = body[:at] + token + body[at + cut:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(body)
        try:
            read(path)
        except GnarError:
            pass


MODEL_TOKENS = (b"\n", b" ", b"variant ", b"community", b"global", b"local", b"C ", b"p ",
                b"s ", b"d ", b"sigma ", b"0", b"1", b"2", b"-1", b"0.5", b"nan", b"x",
                b"99999999999", b"alpha 1 1 ", b"beta 1 1 1 ")
LOCATED = re.compile(r":(\d+: | malformed model file \(no '\w+' line\)$"
                     r"| no 's' line for community \d+$)")


@settings(PROPERTY, max_examples=200)
@given(edits(MODEL_TOKENS, 8))
def test_model_read_errors_name_their_line_key_or_community(text_edits):
    """Header tokens spliced into a valid model file after its first line: a refusal
    names the file and the line to blame, or the key or community without a line."""
    head, body = (DATA_DIR / "table1_model.txt").read_bytes().split(b"\n", 1)
    for where, cut, token in text_edits:
        at = int(where * len(body))
        body = body[:at] + token + body[at + cut:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_bytes(head + b"\n" + body)
        try:
            read_model(path)
        except DataError as exc:
            message = str(exc)
            assert message.startswith(str(path)), message
            assert LOCATED.match(message, len(str(path))), message
            assert all(re.fullmatch(r"no '\w+' line\)", rest)
                       for rest in re.findall(r"malformed model file \((.*)", message)), message


# Characters that end a line for str.splitlines, and the cell separator: no cell holds them.
NOT_IN_A_CELL = ",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
PADDING = st.text(" \t\x1f\xa0\u2003\u3000", max_size=3)
CELL_SPELLINGS = ("-0.0", "5e-324", "2.225073858507201e-308", "1.7976931348623157e+308",
                  "1e400", "-1e400", "1e-400", "1_000", "1__0", "_1", "1_", "1_.5", "0x10",
                  "\u0661\u0662\u0663", "NaN", "-inf", "+Infinity", "infinit", "", " ")


@settings(PROPERTY, max_examples=400)
@given(st.one_of(st.floats().map(repr),
                 st.tuples(PADDING, st.floats().map(repr), PADDING).map("".join),
                 st.text("0123456789_.eE+-", max_size=12), st.sampled_from(CELL_SPELLINGS),
                 st.text(st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters=NOT_IN_A_CELL), max_size=8)),
       st.sampled_from(["2", "02", " 2", "1", "1 ", "", " "]))
def test_panel_cells_read_as_float_reads_them(cell, label):
    """A cell inside a row reads to the bits of ``float(cell)``: float reprs (``-0.0``,
    subnormals, large exponents), padding, underscores and other spellings alike.  A cell
    ``float`` refuses raises its message at the cell's line.  Then an empty or repeated
    time label raises at that line, and a ``nan`` or ``inf`` the non-finite error naming
    the node.  The values are a (T, d) C-order array seen as d x T."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_text(f"# seed: 0\ntime,a,b,c\n1,0.25,-1.5,2\n{label},0.5,{cell},4e-3\n",
                        encoding="utf-8")
        try:
            got = read_panel(path).values
        except DataError as exc:
            got = str(exc)
    try:
        value = float(cell)
    except ValueError as exc:
        assert got == f"{path}:4: non-numeric cell ({exc})"
        return
    if label.strip() in ("", "1"):
        assert got == f"{path}:4: " + ("step 2 repeats the time label '1' of step 1"
                                       if label.strip() else "empty time label at step 2")
        return
    if not np.isfinite(value):
        assert got == f"{path}:4: node 'b' is {value}, not a finite number"
        return
    want = np.array([[0.25, 0.5], [-1.5, value], [2.0, 4e-3]])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got.flags.f_contiguous and got.strides == (8, 24)


SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
INPUTS = {  # flag -> the file it expects; @FIX is the module's fixture directory
    "network": str(DATA_DIR / "fivenet_edges.csv"),
    "partition": str(DATA_DIR / "fivenet_partition.csv"),
    "model": str(DATA_DIR / "table1_model.txt"),
    "returns": str(DATA_DIR / "synthetic_returns.csv"),
    "panel": "@FIX/panel.csv",
    "weights": "@FIX/weights.csv",
    "external": "@FIX/external.csv",
}
# @TMP is a fresh directory holding one regular file, "blocker"
ANY_INPUT = (*INPUTS.values(), "@TMP/missing.csv", "@TMP")
OUTPUTS = ("@TMP/out/result", "@TMP", "@TMP/blocker/result")
ORDER_TOKENS = ("[", "]", "{", "}", ",", ";", ":", " ", "0", "-1", "x", "")


def mostly(usual, *rare, odds=19):
    """``usual`` ``odds`` times for each one of ``rare``, so most argvs get past the checks."""
    return st.sampled_from((usual,) * (odds * len(rare)) + rare)


@st.composite
def order_texts(draw):
    """Orders of the CLI grammar with lags in 1..3 and stages in 0..3, now and then malformed."""
    def stage_list(p):
        return "[" + ",".join(str(draw(st.integers(0, 3))) for _ in range(p)) + "]"

    variant = draw(st.sampled_from(("global", "community", "local")).flatmap(
        lambda v: mostly(v, "bogus")))
    if variant == "community":
        lags = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(0, 3)))]
        text = (f"community:[{','.join(map(str, lags))}];"
                f"{{{','.join(stage_list(p) for p in lags)}}}")
    else:
        p = draw(st.integers(1, 3))
        text = f"{variant}:{p};{stage_list(p)}"
    for _ in range(draw(mostly(0, 1, 2))):
        at, cut = draw(st.integers(0, len(text))), draw(st.integers(0, 2))
        text = text[:at] + draw(st.sampled_from(ORDER_TOKENS)) + text[at + cut:]
    return text


def flag_values(action):
    if action.dest in INPUTS:
        files = mostly(INPUTS[action.dest], *ANY_INPUT)
        if action.dest == "external":
            return st.tuples(mostly("ext=", "", "="), files).map("".join)
        return files
    if action.dest == "spec":
        return st.tuples(mostly("M=", "", "="), order_texts()).map("".join)
    if action.dest == "order":
        return order_texts()
    if action.dest in ("out", "out_dir"):
        return mostly(*OUTPUTS)
    if action.choices:
        return st.sampled_from(action.choices).flatmap(lambda c: mostly(c, "bogus"))
    if action.type is int:  # a stage of the five-node network, a bad count, anything
        return st.one_of(st.integers(1, 3), st.integers(-3, 0), st.integers(-3, 20)).map(str)
    raise AssertionError(f"no values drawn for --{action.dest}")


@st.composite
def cli_argvs(draw, command):
    """argv of one subcommand: its flags in any order, required ones mostly present,
    repeatable ones up to twice, and now and then a value left out."""
    argv = [command]
    actions = [a for a in SUBCOMMANDS[command]._actions if a.dest != "help"]
    for action in draw(st.permutations(actions)):
        if isinstance(action, argparse._AppendAction):
            times = draw(st.integers(0, 2))
        elif action.required:
            times = draw(mostly(1, 0, odds=99))
        else:  # any --d but 5 fails, so it is seldom given
            times = draw(mostly(0, 1) if action.dest == "d" else mostly(1, 0, odds=2))
        for _ in range(times):
            argv.append(draw(st.sampled_from(action.option_strings)))
            if action.nargs != 0 and draw(mostly(True, False, odds=99)):
                argv.append(draw(flag_values(action)))
    return argv


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A simulated five-node panel, weight overrides and an external forecast for it."""
    root = tmp_path_factory.mktemp("cli_inputs")
    assert main(["simulate", "--network", str(DATA_DIR / "fivenet_edges.csv"),
                 "--partition", str(DATA_DIR / "fivenet_partition.csv"),
                 "--model", str(DATA_DIR / "table1_model.txt"), "--length", "30",
                 "--out", str(root / "panel.csv")]) == 0
    values = np.random.default_rng(0).normal(size=(5, 2))
    write_panel(TimeSeriesPanel(values, default_node_labels(5), ["raw", "centred"]),
                root / "external.csv")
    (root / "weights.csv").write_text("from,to,w\n1,4,0.5\n2,3,1.0\n")
    return root


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@PROPERTY
@given(data=st.data())
def test_cli_exits_cleanly_on_any_argv(cli_inputs, command, data):
    """Exit 0, exit 1 with exactly one ``error:`` line on stderr, or usage error 2."""
    argv = data.draw(cli_argvs(command))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "blocker").write_text("")
        argv = [a.replace("@TMP", tmp).replace("@FIX", str(cli_inputs)) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
    assert code in (0, 1), argv
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)


@st.composite
def corbit_grids(draw):
    """A plain grid, or one of 2..4 communities, with values in [-1.5, 1.5] and random flags."""
    C, H, R = draw(st.sampled_from([0, 2, 3, 4])), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.5, 1.5))

    def cells(shape, elements):
        return np.array(draw(st.lists(elements, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)

    shape, kind = ((C, H, R) if C else (H, R)), draw(st.sampled_from(KINDS))
    values, degenerate = cells(shape, value), cells(shape, st.booleans())
    if not C:
        return CorbitGrid(kind, values, degenerate)
    labels = draw(st.lists(st.text(string.ascii_letters, min_size=1, max_size=6),
                           min_size=C, max_size=C))
    return CorbitGrid(kind, values, degenerate, tuple(labels))


@PROPERTY
@given(corbit_grids(), st.sampled_from([320, 640, 900]))
def test_one_layout_renders_as_the_separate_renderers(grid, size):
    """Both entry points give the oracle's bytes, or raise its error (wrong grid, overflow)."""
    opts = RenderOptions(size=size)
    for render, oracle in ((render_corbit, separate_render_corbit),
                           (render_rcorbit, separate_render_rcorbit)):
        try:
            expected = oracle(grid, opts)
        except GnarError as exc:
            with pytest.raises(GnarError) as got:
                render(grid, opts)
            assert str(got.value) == str(exc)
        else:
            assert render(grid, opts).encode() == expected.encode()


@PROPERTY
@given(st.data(), graphs(), st.integers(1, 3), st.booleans())
def test_every_size_mismatch_is_one_size_error(data, graph, k, grow):
    """A panel, W or partition k nodes off the network's d raises SizeError naming d and d ± k,
    for every variant, at every entry point that takes it."""
    net, part = graph
    d = net.d
    n = d + k if grow or d <= k else d - k
    order = data.draw(orders(net.r_max, part.n_communities))
    community = GnarOrder("community", (1,) * part.n_communities,
                          ((0,),) * part.n_communities)
    W, panel = default_weights(net.distances), random_panel(0, d, 12)
    coeffs = GnarCoefficients.from_theta(np.zeros(len(theta_index(order, d=d))), order, d=d)
    bad_panel, bad_W = random_panel(0, n, 12), np.ones((n, n))
    bad_part = (CommunityPartition(part.assignment + (1,) * k, part.n_communities)
                if n > d else single_community(n))
    calls = {
        "build_design": lambda P, W, Q: build_design(P, order, net, W, Q),
        "fit_per_community": lambda P, W, Q: fit_per_community(P, community, net, W, Q),
        "compare": lambda P, W, Q: compare(P, net, W, [ModelSpec("m", order)], Q),
        "forecast": lambda P, W, Q: forecast(coeffs, net, W, P, 1, Q),
        "nacf": lambda P, W, Q: nacf(P, net, W, 1, 1),
        "pnacf": lambda P, W, Q: pnacf(P, net, W, 1, 1),
        "corbit_grid": lambda P, W, Q: corbit_grid(P, net, W, 1, 1, "nacf", Q),
        "to_var": lambda P, W, Q: to_var(coeffs, net, W, Q),
        "simulate": lambda P, W, Q: simulate(coeffs, order, net, W, 5, part=Q, burn_in=0),
        "stage_weights": lambda P, W, Q: stage_weights(net, W, 0),
        "mask_weights": lambda P, W, Q: mask_weights(W, Q, 1),
    }
    takes_panel = {"build_design", "fit_per_community", "compare", "forecast", "nacf",
                   "pnacf", "corbit_grid"}
    no_partition = {"nacf", "pnacf", "stage_weights"}
    for name, call in calls.items():
        cases = [(panel, bad_W, part)]
        cases += [(bad_panel, W, part)] if name in takes_panel else []
        cases += [] if name in no_partition else [(panel, W, bad_part)]
        for args in cases:
            with pytest.raises(SizeError) as got:
                call(*args)
            message = str(got.value)
            assert re.fullmatch(r"[\w ]+ has (\d+ nodes|shape \(\d+, \d+\)), [\w ]+ has \d+( nodes)?",
                                message), (name, message)
            assert set(map(int, re.findall(r"\d+", message))) == {d, n}, (name, message)
