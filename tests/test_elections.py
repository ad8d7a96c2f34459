import csv
import re

import numpy as np
import pytest

from gnar.autocorr import corbit_grid, pnacf
from gnar.cli import main
from gnar.elections import (COMMUNITY_LABELS, ELECTION_YEARS, STATE_NAMES,
                            ElectionPanel, classify, difference, load_returns,
                            standardize, us_border_network)
from gnar.errors import DataError, GnarError
from gnar.estimate import build_design, fit_ols
from gnar.forecast import ModelSpec, compare
from gnar.model import GnarCoefficients, parse_order
from gnar.network import UNREACHABLE, bfs_distances, default_weights
from gnar.panel import TimeSeriesPanel
from gnar.simulate import simulate

from conftest import real_returns_path
from oracles import neighbours

STATE_INDEX = {name: i for i, name in enumerate(STATE_NAMES)}


def recount_from_csv(path):
    """Independent tally of the returns file with the csv module."""
    d, T = len(STATE_NAMES), len(ELECTION_YEARS)
    year_idx = {y: j for j, y in enumerate(ELECTION_YEARS)}
    rep = np.zeros((d, T))
    dem = np.zeros((d, T))
    total = np.zeros((d, T))
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            i = STATE_INDEX[row["state"].strip().upper()]
            j = year_idx[int(row["year"])]
            party = (row.get("party_simplified") or "").strip().upper()
            votes = int(float(row["candidatevotes"]))
            total[i, j] = max(total[i, j], int(float(row["totalvotes"])))
            if party == "REPUBLICAN":
                rep[i, j] += votes
            elif party == "DEMOCRAT":
                dem[i, j] += votes
    return rep, dem, total


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_synthetic_panel_shape_and_order(synthetic_returns_path):
    data = load_returns(synthetic_returns_path)
    assert data.panel.values.shape == (51, 12)
    assert data.panel.node_labels == STATE_NAMES
    assert list(data.panel.node_labels) == sorted(data.panel.node_labels)
    assert data.panel.time_labels == tuple(str(y) for y in ELECTION_YEARS)
    assert np.all(data.panel.values >= 0) and np.all(data.panel.values <= 100)


def test_loader_matches_recount_oracle(synthetic_returns_path):
    data = load_returns(synthetic_returns_path)
    rep, dem, total = recount_from_csv(synthetic_returns_path)
    assert np.array_equal(data.rep_votes, rep)
    assert np.array_equal(data.dem_votes, dem)
    assert np.array_equal(data.total_votes, total)
    assert np.allclose(data.panel.values, 100.0 * rep / total)


def test_share_arithmetic_hand_example(tmp_path):
    header = ("year,state,office,candidate,party_detailed,candidatevotes,"
              "totalvotes,party_simplified")
    rows = [header]
    for year in ELECTION_YEARS:
        for state in STATE_NAMES:
            if state == "ALABAMA" and year == 1976:
                rows.append(f"{year},{state},US PRESIDENT,R,REPUBLICAN,600,1000,REPUBLICAN")
                rows.append(f"{year},{state},US PRESIDENT,D,DEMOCRAT,380,1000,DEMOCRAT")
                rows.append(f"{year},{state},US PRESIDENT,W,,20,1000,OTHER")
            else:
                rows.append(f"{year},{state},US PRESIDENT,R,REPUBLICAN,500,1000,REPUBLICAN")
                rows.append(f"{year},{state},US PRESIDENT,D,DEMOCRAT,450,1000,DEMOCRAT")
                rows.append(f"{year},{state},US PRESIDENT,W,,50,1000,OTHER")
    path = tmp_path / "returns.csv"
    path.write_text("\n".join(rows) + "\n")
    data = load_returns(path)
    assert data.panel.values[0, 0] == 60.0


def test_loader_rejects_missing_cells(tmp_path):
    path = tmp_path / "returns.csv"
    path.write_text("year,state,candidatevotes,totalvotes,party_simplified\n"
                    "1976,ALABAMA,10,20,REPUBLICAN\n")
    with pytest.raises(DataError, match="no rows"):
        load_returns(path)


def test_loader_rejects_unknown_state(tmp_path):
    path = tmp_path / "returns.csv"
    path.write_text("year,state,candidatevotes,totalvotes,party_simplified\n"
                    "1976,NARNIA,10,20,REPUBLICAN\n")
    with pytest.raises(DataError, match="unknown state"):
        load_returns(path)


HEADER = ("year,state,office,candidate,party_detailed,candidatevotes,totalvotes,"
          "party_simplified")
GOOD_ROW = "1976,ALABAMA,US PRESIDENT,R,REPUBLICAN,600,1000,REPUBLICAN"


@pytest.mark.parametrize("header, bad_row, line, message", [
    (HEADER, "1976,ALABAMA,US PRESIDENT,R,REPUBLICAN,abc,1000,REPUBLICAN", 3,
     "non-numeric cell"),
    (HEADER, "19x6,ALABAMA,US PRESIDENT,R,REPUBLICAN,600,1000,REPUBLICAN", 3,
     "non-numeric cell"),
    (HEADER, "1976,ALABAMA,US PRESIDENT,R,REPUBLICAN,600,1e400,REPUBLICAN", 3,
     "non-numeric cell"),
    (HEADER.replace("year,", "yr,"), GOOD_ROW, 1, "no year column"),
    (HEADER.replace("party_", "label_"), GOOD_ROW, 1,
     "no party_simplified or party or party_detailed column"),
    (HEADER, "1976,ALABAMA,US PRESIDENT,R,REPUBLICAN,600,1000", 3,
     "expected 8 cells, got 7"),
    (HEADER, GOOD_ROW + ",EXTRA", 3, "expected 8 cells, got 9"),
    (HEADER, "1976,NARNIA,US PRESIDENT,R,REPUBLICAN,600,1000,REPUBLICAN", 3,
     "unknown state name 'NARNIA'"),
    (HEADER, f'1976,ALABAMA,US PRESIDENT,"{"x" * (csv.field_size_limit() + 1)}",REPUBLICAN,'
     "600,1000,REPUBLICAN", 3, "field larger than field limit"),
], ids=["vote", "year", "overflow", "no-year", "no-party", "short", "long", "state",
        "field-limit"])
def test_loader_names_file_and_line_of_malformed_input(tmp_path, header, bad_row,
                                                       line, message):
    path = tmp_path / "returns.csv"
    path.write_text("\n".join([header, GOOD_ROW, bad_row]) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:{line}: {message}")):
        load_returns(path)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def write_returns(path, votes):
    """A returns file of every state and year; ``votes(state, year)`` gives the
    Republican and Democratic votes and the total."""
    rows = [HEADER]
    for year in ELECTION_YEARS:
        for state in STATE_NAMES:
            rep, dem, total = votes(state, year)
            rows.append(f"{year},{state},US PRESIDENT,R,REPUBLICAN,{rep},{total},REPUBLICAN")
            rows.append(f"{year},{state},US PRESIDENT,D,DEMOCRAT,{dem},{total},DEMOCRAT")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("votes, message", [
    ((0, 0, 0), "nonpositive total votes for ALABAMA in 1976"),
    ((1200, 0, 1000), "Republican share outside [0, 100]"),
], ids=["zero-total", "share-above-100"])
def test_loader_refuses_totals_that_give_no_share(tmp_path, votes, message):
    path = write_returns(tmp_path / "returns.csv", lambda state, year: (
        votes if (state, year) == ("ALABAMA", 1976) else (500, 450, 1000)))
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_returns(path)


def test_classify_refuses_returns_without_a_swing_state(tmp_path):
    red = set(STATE_NAMES[:25])
    path = write_returns(tmp_path / "returns.csv", lambda state, year: (
        (600, 400, 1000) if state in red else (400, 600, 1000)))
    with pytest.raises(DataError,
                       match=r"^classification produced empty communities: \['Swing'\]$"):
        classify(load_returns(path))


def test_classification_matches_recount_oracle(synthetic_returns_path):
    data = load_returns(synthetic_returns_path)
    cl = classify(data)
    rep, dem, _ = recount_from_csv(synthetic_returns_path)
    rep_wins = (rep > dem).sum(axis=1)
    dem_wins = (dem > rep).sum(axis=1)
    assert np.array_equal(cl.rep_wins, rep_wins)
    assert np.array_equal(cl.dem_wins, dem_wins)
    assert np.all(cl.rep_wins + cl.dem_wins == 12)
    for i in range(51):
        expected = 1 if rep_wins[i] >= 9 else (2 if dem_wins[i] >= 9 else 3)
        assert cl.partition.community_of(i + 1) == expected


def test_classification_thresholds(synthetic_returns_path):
    data = load_returns(synthetic_returns_path)
    cl = classify(data)
    # fixture construction: ALABAMA sweeps all 12 for the Republicans,
    # ARIZONA wins exactly 9 (the 75% boundary), ARKANSAS loses exactly 9
    assert cl.rep_wins[STATE_INDEX["ALABAMA"]] == 12
    assert cl.partition.label_of(cl.partition.community_of(
        STATE_INDEX["ALABAMA"] + 1)) == "Red"
    assert cl.rep_wins[STATE_INDEX["ARIZONA"]] == 9
    assert cl.partition.label_of(cl.partition.community_of(
        STATE_INDEX["ARIZONA"] + 1)) == "Red"
    assert cl.dem_wins[STATE_INDEX["ARKANSAS"]] == 9
    assert cl.partition.label_of(cl.partition.community_of(
        STATE_INDEX["ARKANSAS"] + 1)) == "Blue"
    assert cl.partition.label_of(cl.partition.community_of(
        STATE_INDEX["CALIFORNIA"] + 1)) == "Swing"
    assert cl.partition.labels == COMMUNITY_LABELS


def test_classification_monotone_in_wins(synthetic_returns_path):
    # flipping one Democrat win to a Republican win never moves a state
    # away from Red
    data = load_returns(synthetic_returns_path)
    base = classify(data)
    rank = {1: 2, 3: 1, 2: 0}  # Red > Swing > Blue
    i = STATE_INDEX["CALIFORNIA"]
    flipped_rep = data.rep_votes.copy()
    flipped_dem = data.dem_votes.copy()
    j = int(np.argmax(flipped_dem[i] > flipped_rep[i]))
    flipped_rep[i, j], flipped_dem[i, j] = flipped_dem[i, j], flipped_rep[i, j]
    flipped = ElectionPanel(panel=data.panel, rep_votes=flipped_rep,
                            dem_votes=flipped_dem, total_votes=data.total_votes)
    after = classify(flipped)
    assert rank[after.partition.community_of(i + 1)] >= \
        rank[base.partition.community_of(i + 1)]


def test_classification_csv(synthetic_returns_path):
    cl = classify(load_returns(synthetic_returns_path))
    lines = cl.to_csv_text().strip().splitlines()
    assert lines[0] == "state,wins_R,wins_D,community"
    assert len(lines) == 52
    assert lines[1].startswith("ALABAMA,12,0,Red")


# ---------------------------------------------------------------------------
# border network
# ---------------------------------------------------------------------------

def test_border_network_basics():
    net = us_border_network()
    assert net.d == 51
    assert net.n_edges == 107
    assert neighbours(net, STATE_INDEX["ALASKA"] + 1) == []
    assert neighbours(net, STATE_INDEX["HAWAII"] + 1) == []
    dc = STATE_INDEX["DISTRICT OF COLUMBIA"] + 1
    assert sorted(STATE_NAMES[i - 1] for i in neighbours(net, dc)) == \
        ["MARYLAND", "VIRGINIA"]


def test_border_network_corner_states_not_adjacent():
    net = us_border_network()
    az = STATE_INDEX["ARIZONA"] + 1
    co = STATE_INDEX["COLORADO"] + 1
    nm = STATE_INDEX["NEW MEXICO"] + 1
    ut = STATE_INDEX["UTAH"] + 1
    edges = net.edges
    assert (min(az, co), max(az, co)) not in edges
    assert (min(nm, ut), max(nm, ut)) not in edges
    assert (min(az, nm), max(az, nm)) in edges
    assert (min(co, ut), max(co, ut)) in edges


def test_border_network_degrees():
    net = us_border_network()
    assert len(neighbours(net, STATE_INDEX["MISSOURI"] + 1)) == 8
    assert len(neighbours(net, STATE_INDEX["TENNESSEE"] + 1)) == 8
    assert len(neighbours(net, STATE_INDEX["MAINE"] + 1)) == 1
    dist = bfs_distances(net)
    mainland = [i for i in range(51)
                if STATE_NAMES[i] not in ("ALASKA", "HAWAII")]
    sub = dist[np.ix_(mainland, mainland)]
    assert np.all(sub != UNREACHABLE)  # the mainland is connected


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def test_standardize_contract(synthetic_returns_path):
    panel = load_returns(synthetic_returns_path).panel
    std = standardize(panel)
    assert np.all(np.abs(std.values.mean(axis=1)) < 1e-12)
    assert np.all(np.abs((std.values ** 2).sum(axis=1) - 1.0) < 1e-12)


def test_standardize_scale_invariance(synthetic_returns_path):
    panel = load_returns(synthetic_returns_path).panel
    std = standardize(panel)
    doubled = panel.with_values(panel.values * 2.0)
    assert np.allclose(standardize(doubled).values, std.values, atol=1e-12)


def test_standardize_rejects_constant_node():
    panel = TimeSeriesPanel(np.ones((2, 5)), ("a", "b"), tuple(range(5)))
    with pytest.raises(GnarError, match="constant"):
        standardize(panel)


def test_difference_contract(synthetic_returns_path):
    panel = load_returns(synthetic_returns_path).panel
    diff = difference(panel)
    assert diff.T == 11
    assert diff.time_labels[0] == "1980"
    assert np.allclose(diff.values,
                       panel.values[:, 1:] - panel.values[:, :-1])
    const = TimeSeriesPanel(np.full((2, 4), 3.0), ("a", "b"), tuple(range(4)))
    assert np.all(difference(const).values == 0.0)
    single = TimeSeriesPanel(np.ones((2, 1)), ("a", "b"), ("0",))
    with pytest.raises(GnarError):
        difference(single)


def test_difference_standardize_commute_with_permutation(synthetic_returns_path):
    panel = load_returns(synthetic_returns_path).panel
    rng = np.random.default_rng(0)
    perm = rng.permutation(51)
    permuted = TimeSeriesPanel(panel.values[perm],
                               tuple(panel.node_labels[i] for i in perm),
                               panel.time_labels)
    a = standardize(difference(panel)).values[perm]
    b = standardize(difference(permuted)).values
    assert np.allclose(a, b, atol=1e-12)


def test_pipeline_deterministic(synthetic_returns_path):
    def run():
        data = load_returns(synthetic_returns_path)
        part = classify(data).partition
        net = us_border_network()
        W = default_weights(bfs_distances(net))
        std = standardize(data.panel)
        order = parse_order("community:[2,2,2];{[1,0],[1,0],[1,0]}")
        fit = fit_ols(build_design(std, order, net, W, part))
        return fit.theta

    assert np.array_equal(run(), run())


def test_synthetic_full_study_runs(synthetic_returns_path):
    data = load_returns(synthetic_returns_path)
    part = classify(data).partition
    net = us_border_network()
    W = default_weights(bfs_distances(net))
    std = standardize(data.panel)
    order = parse_order("community:[2,2,2];{[1,0],[1,0],[1,0]}")
    fit = fit_ols(build_design(std, order, net, W, part))
    assert fit.theta.shape == (9,)
    diff = standardize(difference(data.panel))
    order_d = parse_order("community:[3,3,3];{[0,0,0],[0,0,0],[0,0,0]}")
    fit_d = fit_ols(build_design(diff, order_d, net, W, part))
    assert fit_d.theta.shape == (9,)
    report = compare(data.panel, net, W,
                     [ModelSpec("GNAR", order),
                      ModelSpec("GNAR*", parse_order("global:2;[1,0]"))],
                     part)
    assert report.entry("GNAR").n_params == 9
    assert report.entry("GNAR*").n_params == 3


def test_elections_notes_a_standardised_fit_that_fails_the_condition(tmp_path, capsys):
    """Persistent shares, each state's a drifting random walk, give a standardised fit whose
    largest group sum is above 1: the study still writes every file and notes it."""
    rng = np.random.default_rng(0)
    kind = np.arange(len(STATE_NAMES)) % 3  # Red, Blue and Swing (crossing 50% mid-way)
    share = (np.array([0.62, 0.38, 0.44])[kind, None] + np.array([0, 0, 0.012])[kind, None]
             * np.arange(len(ELECTION_YEARS))
             + np.cumsum(rng.normal(0, 0.01, (len(STATE_NAMES), len(ELECTION_YEARS))), axis=1))

    def votes(state, year):
        rep = int(round(1e6 * share[STATE_INDEX[state], ELECTION_YEARS.index(year)]))
        return rep, 1_000_000 - rep, 1_000_000

    returns = write_returns(tmp_path / "returns.csv", votes)
    out_dir = tmp_path / "study"
    assert main(["elections", "--returns", str(returns), "--out-dir", str(out_dir)]) == 0
    assert len(list(out_dir.iterdir())) == 15
    assert capsys.readouterr().err == (
        "note: standardised fit does not meet the sufficient stationarity condition (every "
        "group's absolute sum below 1; largest sum 2.396); see the differenced fit\n")


def check_planted_truth(returns_path, order_text: str, coeffs: GnarCoefficients, T: int,
                        draws: int = 400) -> int:
    """Simulate ``draws`` panels of length T from ``coeffs`` on the border network with the
    synthetic file's Red/Blue/Swing partition and refit each by OLS; per parameter,
    z = (estimate - truth) / SE must look N(0, 1).  Returns the fits' residual df.

    The design is drawn with the panel, so z is only asymptotically N(0, 1).  The bounds
    are four sampling spreads at N draws: 1 / sqrt(N) for the mean of z (the bias in SE
    units), sqrt(1 / (2 (N - 1))) for sd(z), and sqrt(0.95 * 0.05 / N) for the share of
    |z| < 1.96; at N = 400 they are 0.05, about 0.035 and about 0.011.
    """
    part = classify(load_returns(returns_path)).partition
    assert [part.assignment.count(c) for c in (1, 2, 3)] == [21, 20, 10]
    net = us_border_network()
    W = default_weights(bfs_distances(net))
    order = parse_order(order_text)
    z = np.empty((draws, len(coeffs.theta)))
    for seed in range(draws):
        panel = simulate(coeffs, order, net, W, T, part=part, seed=seed)
        fit = fit_ols(build_design(panel, order, net, W, part))
        z[seed] = (fit.theta - coeffs.theta) / fit.se
    bias, sd = z.mean(axis=0), z.std(axis=0, ddof=1)
    covered = np.mean(np.abs(z) < 1.96, axis=0)
    assert np.all(np.abs(bias) <= 4 / np.sqrt(draws)), bias
    assert np.all(np.abs(sd - 1) <= 4 * np.sqrt(1 / (2 * (draws - 1)))), sd
    assert np.all(np.abs(covered - 0.95) <= 4 * np.sqrt(0.95 * 0.05 / draws)), covered
    return fit.df_resid


def test_standardised_study_recovers_a_planted_truth(synthetic_returns_path):
    """The standardised order at T = 12, within ``check_planted_truth``'s bounds.  At T = 12
    OLS on lagged values has a real bias: at 2,000 draws the mean z runs from -0.15
    (``alpha.2.2``) to 0.04, which the mean bound leaves room for.
    """
    order_text = "community:[2,2,2];{[1,0],[1,0],[1,0]}"
    coeffs = GnarCoefficients.from_theta(  # per community g: alpha.1.g, beta.1.1.g, alpha.2.g
        [0.45, 0.25, -0.15, 0.30, 0.35, 0.15, 0.55, -0.20, 0.10], parse_order(order_text))
    assert check_planted_truth(synthetic_returns_path, order_text, coeffs, 12) == 510 - 9


def test_differenced_study_recovers_a_planted_truth(synthetic_returns_path):
    """The differenced order, three own lags per community and no neighbour terms, at the
    differenced panel's T = 11, within ``check_planted_truth``'s bounds: 51 nodes x 8 usable
    steps, 9 parameters."""
    order_text = "community:[3,3,3];{[0,0,0],[0,0,0],[0,0,0]}"
    coeffs = GnarCoefficients.from_theta(  # per community g: alpha.1.g to alpha.3.g, no beta
        [0.30, -0.20, 0.15, -0.25, 0.20, 0.10, 0.40, 0.15, -0.20], parse_order(order_text))
    assert check_planted_truth(synthetic_returns_path, order_text, coeffs, 11) == 51 * 8 - 9


def test_election_grids_keep_each_cell_note(synthetic_returns_path):
    data = load_returns(synthetic_returns_path)
    part = classify(data).partition
    net = us_border_network()
    W = default_weights(bfs_distances(net))
    for panel in (standardize(data.panel), standardize(difference(data.panel))):
        grid = corbit_grid(panel, net, W, 8, 3, "pnacf", part)
        assert grid.notes.shape == grid.values.shape and grid.degenerate.any()
        for c, h, r in np.ndindex(grid.values.shape):
            cell = pnacf(panel, net, W, h + 1, r + 1, nodes=part.members(c + 1))
            assert grid.notes[c, h, r] == cell.note
            assert (cell.note != "") == grid.degenerate[c, h, r]


# ---------------------------------------------------------------------------
# dataset-gated checks against reference values for the real returns file
# ---------------------------------------------------------------------------

needs_real_data = pytest.mark.skipif(
    real_returns_path() is None,
    reason="MIT Election Lab file not present (set GNAR_ELECTIONS_CSV or put "
           "1976-2020-president.csv under data/); reference-value checks skipped")


@needs_real_data
def test_real_panel_shape_and_range():
    data = load_returns(real_returns_path())
    assert data.panel.values.shape == (51, 12)
    assert np.all(data.panel.values >= 0) and np.all(data.panel.values <= 100)


@needs_real_data
def test_real_naive_holdout_rmspe():
    data = load_returns(real_returns_path())
    net = us_border_network()
    W = default_weights(bfs_distances(net))
    report = compare(data.panel, net, W, [], classify(data).partition)
    naive = report.entry("naive")
    assert naive.rmspe == pytest.approx(2.45, abs=0.01)
    assert naive.rmspe_centred == pytest.approx(naive.rmspe, abs=1e-9)


@needs_real_data
def test_real_standardised_fit_coefficients():
    data = load_returns(real_returns_path())
    part = classify(data).partition
    net = us_border_network()
    W = default_weights(bfs_distances(net))
    std = standardize(data.panel)
    order = parse_order("community:[2,2,2];{[1,0],[1,0],[1,0]}")
    fit = fit_ols(build_design(std, order, net, W, part))
    reference = {
        "alpha.1.1": 0.393, "beta.1.1.1": 0.183, "alpha.2.1": -0.593,
        "alpha.1.2": 0.558, "beta.1.1.2": 0.069, "alpha.2.2": -0.351,
        "alpha.1.3": 0.905, "beta.1.1.3": -0.747, "alpha.2.3": -0.591,
    }
    estimates = dict(zip(fit.names, fit.theta))
    for name, value in reference.items():
        assert estimates[name] == pytest.approx(value, abs=0.02), name
    assert not fit.stationary  # the swing-state sum exceeds one


@needs_real_data
def test_real_differenced_fit_coefficients():
    data = load_returns(real_returns_path())
    part = classify(data).partition
    net = us_border_network()
    W = default_weights(bfs_distances(net))
    diff = standardize(difference(data.panel))
    order = parse_order("community:[3,3,3];{[0,0,0],[0,0,0],[0,0,0]}")
    fit = fit_ols(build_design(diff, order, net, W, part))
    reference = {
        "alpha.1.1": -0.081, "alpha.2.1": -0.538, "alpha.3.1": -0.303,
        "alpha.1.2": -0.139, "alpha.2.2": -0.571, "alpha.3.2": -0.251,
        "alpha.1.3": 0.029, "alpha.2.3": -0.582, "alpha.3.3": -0.178,
    }
    estimates = dict(zip(fit.names, fit.theta))
    for name, value in reference.items():
        assert estimates[name] == pytest.approx(value, abs=0.02), name
    assert fit.stationary


@needs_real_data
def test_real_parameter_counts_match_comparison_table():
    order = parse_order("community:[2,2,2];{[1,0],[1,0],[1,0]}")
    pooled = parse_order("global:2;[1,0]")
    assert order.param_count() == 9
    assert pooled.param_count() == 3
