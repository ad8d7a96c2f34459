"""Output checks for each workload, made apart from the program.

Every check compares the program's files against a computation of the
benchmark's own (or the test suite's brute-force oracles), or against a
property the method must have.  Nothing is compared with stored copies of
earlier output.  Each function returns a list of problems; empty means the
outputs are correct.
"""

from __future__ import annotations

import csv
import importlib.util
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from gnar import read_edge_list, read_model, read_partition
from workloads import (COMMUNITY_ORDER, GLOBAL_ORDER, HORIZON, Size,
                       TRUE_COEFFICIENTS, repo_root)

#: Estimates of the simulated model must lie within this many standard errors.
SE_LIMIT = 5.0
#: Agreement required between two computations of the same float.
TOL = 1e-9


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _table(path: Path) -> dict[str, dict[str, str]]:
    """``metric,<col...>`` files keyed by metric, then column."""
    return {row["metric"]: row for row in _rows(path)}


def _panel(path: Path) -> np.ndarray:
    """Panel file values as a d x T array."""
    rows = _rows(path)
    nodes = [k for k in rows[0] if k != "time"]
    return np.array([[float(r[n]) for r in rows] for n in nodes])


def param_count(order: str, d: int) -> int:
    """Parameters of an order string: lags plus summed stage orders per group."""
    variant, body = order.split(":", 1)
    lists = [[int(x) for x in grp.split(",") if x]
             for grp in re.findall(r"\[([0-9,]*)\]", body)]
    if variant == "community":
        return sum(lists[0]) + sum(sum(s) for s in lists[1:])
    p, stages = int(body.split(";")[0]), lists[0]
    return (d * p if variant == "local" else p) + sum(stages)


# -- geometry and the NACF formula, from scipy and the README ------------------

def _graph(edges_csv: Path) -> tuple[int, list[tuple[int, int]]]:
    lines = edges_csv.read_text().splitlines()
    d = int(lines[0].split(":")[1])
    return d, [tuple(int(x) for x in ln.split(",")) for ln in lines[2:]]


def distances(d: int, edges) -> np.ndarray:
    i, j = np.array(edges).T - 1
    A = csr_matrix((np.ones(len(edges)), (i, j)), shape=(d, d))
    return shortest_path(A, directed=False, unweighted=True)


def equal_split_weights(dist: np.ndarray) -> np.ndarray:
    """w_ij = 1 / #{k : dist(i,k) = dist(i,j)} for reachable j != i."""
    W = np.zeros_like(dist)
    for i in range(dist.shape[0]):
        for j in range(dist.shape[0]):
            if i != j and np.isfinite(dist[i, j]):
                W[i, j] = 1.0 / np.count_nonzero(dist[i] == dist[i, j])
    return W


def nacf_formula(E: np.ndarray, B: np.ndarray, h: int) -> float:
    """sum_t e_{t+h}'(I+B)e_t / ((1 + ||B||_2) sum_t |e_t|^2)."""
    lam = 1.0 + np.linalg.norm(B, 2)
    return float(np.sum(E[:, h:] * (E + B @ E)[:, :-h]) / (lam * np.sum(E * E)))


def _grid(path: Path) -> list[dict]:
    rows = _rows(path)
    for r in rows:
        r["value"] = float(r["value"])
    return rows


def _bounded(rows: list[dict], where: str) -> list[str]:
    bad = [r for r in rows if not abs(r["value"]) <= 1.0]
    return [f"{where}: |value| > 1 at lag {r['lag']} stage {r['stage']} "
            f"({r['community']})" for r in bad]


def _svg_points(path: Path, rows: list[dict], H: int, R: int) -> list[str]:
    """The SVG parses and carries exactly one point per grid cell."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{path.name}: not well-formed XML ({exc})"]
    points = {}
    means = 0
    for el in root.iter():
        cls = el.get("class", "")
        if cls == "rcorbit-mean":
            means += 1
        elif cls == "rcorbit-point":
            key = (el.get("data-community"), el.get("data-lag"), el.get("data-stage"))
            if key in points:
                return [f"{path.name}: two points for cell {key}"]
            points[key] = float(el.get("data-value"))
    cells = {(r["community"], r["lag"], r["stage"]): r["value"]
             for r in rows if r["community"] != "mean"}
    problems = []
    if means != H * R:
        problems.append(f"{path.name}: {means} mean markers for {H * R} cells")
    if points != cells:
        problems.append(f"{path.name}: {len(points)} community points do not match "
                        f"the {len(cells)} grid cells")
    return problems


# -- the workloads -----------------------------------------------------------

def check_election(inputs: Path, out: Path, size: Size) -> list[str]:
    study = out / "study"
    problems = []
    gen = _load(repo_root() / "tests" / "data" / "gen_synthetic_returns.py",
                "gen_synthetic_returns")
    # Win cycle documented in the generator: R wins 12, 0, 9, 3, 6 of the 12
    # contests for state index i % 5 = 0..4; Red or Blue needs 9 wins.
    rep_wins = (12, 0, 9, 3, 6)
    counts = {"Red": 0, "Blue": 0, "Swing": 0}
    expected = {}
    for i, state in enumerate(gen.STATE_NAMES):
        r = rep_wins[i % 5]
        label = "Red" if r >= 9 else "Blue" if 12 - r >= 9 else "Swing"
        expected[state] = (str(r), str(12 - r), label)
        counts[label] += 1
    classification = _rows(study / "classification.csv")
    got = {row["state"]: (row["wins_R"], row["wins_D"], row["community"])
           for row in classification}
    if got != expected:
        wrong = sorted(s for s in expected if got.get(s) != expected[s])
        problems.append(f"classification differs from the win cycle for {wrong[:5]}")
    got_counts = {k: sum(1 for v in got.values() if v[2] == k) for k in counts}
    if got_counts != counts:
        problems.append(f"community sizes {got_counts}, win cycle gives {counts}")

    states = [row["state"] for row in classification]
    _, edges = _graph(study / "network_edges.csv")
    touched = {i for e in edges for i in e}
    for state in ("ALASKA", "HAWAII"):
        if states.index(state) + 1 in touched:
            problems.append(f"{state} has a border edge")

    for tag in ("standardised", "differenced"):
        rows = _grid(study / f"pnacf_grid_{tag}.csv")
        problems += _bounded(rows, f"pnacf_grid_{tag}.csv")
        H = max(int(r["lag"]) for r in rows)
        R = max(int(r["stage"]) for r in rows)
        problems += _svg_points(study / f"rcorbit_pnacf_{tag}.svg", rows, H, R)

    table = _table(study / "comparison.csv")
    want = {"GNAR": param_count("community:[2,2,2];{[1,0],[1,0],[1,0]}", 51),
            "GNAR*": param_count("global:2;[1,0]", 51),
            "GNAR+": param_count("local:2;[1,0]", 51)}
    got_params = {k: int(table["n_params"][k]) for k in want}
    if got_params != want:
        problems.append(f"n_params {got_params}, order strings give {want}")

    # Previous-observation baseline from the raw returns: the last election
    # is held out and predicted by the one before it.
    rep, total = {}, {}
    with (inputs / "synthetic_returns.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["state"], int(row["year"]))
            total[key] = max(total.get(key, 0), int(row["totalvotes"]))
            if row["party_simplified"] == "REPUBLICAN":
                rep[key] = rep.get(key, 0) + int(row["candidatevotes"])
    years = sorted({y for _, y in total})
    share = {k: 100.0 * rep.get(k, 0) / total[k] for k in total}
    errs = [share[(s, years[-1])] - share[(s, years[-2])] for s in gen.STATE_NAMES]
    naive = math.sqrt(sum(e * e for e in errs) / len(errs))
    for metric in ("rmspe", "rmspe_centred"):
        if abs(float(table[metric]["naive"]) - naive) > 5e-7:
            problems.append(f"naive {metric} {table[metric]['naive']}, raw panel "
                            f"gives {naive:.6f}")
    return problems


def check_corbit(inputs: Path, out: Path, size: Size) -> list[str]:
    problems = []
    d, edges = _graph(inputs / "edges.csv")
    dist = distances(d, edges)
    W = equal_split_weights(dist)
    values = _panel(inputs / "panel.csv")
    E = values - values.mean(axis=1, keepdims=True)
    H, R = size.max_lag, size.max_stage

    rows = _grid(out / "nacf_grid.csv")
    problems += _bounded(rows, "nacf_grid.csv")
    if len(rows) != H * R:
        problems.append(f"nacf_grid.csv has {len(rows)} cells, expected {H * R}")
    for row in rows:
        h, r = int(row["lag"]), int(row["stage"])
        want = nacf_formula(E, W * (dist == r), h)
        if abs(row["value"] - want) > TOL:
            problems.append(f"nacf lag {h} stage {r}: {row['value']!r}, formula "
                            f"gives {want!r}")

    assignment = [int(r["community"]) for r in _rows(inputs / "partition.csv")]
    labels = [ln.split(":", 1)[1].strip()
              for ln in (inputs / "partition.csv").read_text().splitlines()
              if ln.startswith("# label")]
    rows = _grid(out / "corbit" / "grid.csv")
    problems += _bounded(rows, "corbit/grid.csv")
    # At lag 1 the partial autocorrelation has nothing to partial out: it
    # must equal the community NACF.
    for row in rows:
        if row["lag"] != "1" or row["community"] == "mean":
            continue
        r = int(row["stage"])
        idx = [i for i, c in enumerate(assignment) if labels[c - 1] == row["community"]]
        B = (W * (dist == r))[np.ix_(idx, idx)]
        want = nacf_formula(E[idx], B, 1) if np.any(B) else 0.0
        if abs(row["value"] - want) > TOL:
            problems.append(f"pnacf lag 1 stage {r} ({row['community']}): "
                            f"{row['value']!r}, community NACF gives {want!r}")
    problems += _svg_points(out / "corbit" / "rcorbit.svg", rows, H, R)
    return problems


def _estimates(path: Path) -> dict[str, tuple[float, float]]:
    return {r["name"]: (float(r["estimate"]), float(r["std_error"])) for r in _rows(path)}


def check_fit_forecast(inputs: Path, out: Path, size: Size) -> list[str]:
    problems = []
    joint = _estimates(out / "fit_community" / "coefficients.csv")
    if set(joint) != set(TRUE_COEFFICIENTS):
        problems.append(f"joint fit names {sorted(joint)}")
    for name, truth in TRUE_COEFFICIENTS.items():
        est, se = joint.get(name, (math.nan, math.nan))
        if not abs(est - truth) <= SE_LIMIT * se:
            problems.append(f"{name}: estimate {est:.4f} is more than {SE_LIMIT} "
                            f"standard errors ({se:.4f}) from {truth}")

    gls = _estimates(out / "gls" / "coefficients.csv")
    for name, (est, _) in joint.items():
        if abs(gls[name][0] - est) > TOL * max(1.0, abs(est)):
            problems.append(f"identity-block GLS {name} = {gls[name][0]!r}, OLS {est!r}")

    # Communities whose lag order is the largest use the joint fit's range,
    # so their independent block fits must coincide with the joint fit.
    lags = [int(x) for x in re.search(r"\[([0-9,]*)\]", COMMUNITY_ORDER).group(1).split(",")]
    for g, p in enumerate(lags, start=1):
        if p != max(lags):
            continue
        block = _estimates(out / "fit_per_community" / f"coefficients_community{g}.csv")
        for name, (est, _) in block.items():
            if abs(est - joint[name][0]) > 1e-8 * max(1.0, abs(est)):
                problems.append(f"community {g} block fit {name} = {est!r}, "
                                f"joint fit {joint[name][0]!r}")

    oracles = _load(repo_root() / "tests" / "oracles.py", "oracles")
    d, edges = _graph(inputs / "edges.csv")
    W = equal_split_weights(distances(d, edges))
    coeffs, order = read_model(out / "fit_community" / "model.txt")
    net = read_edge_list(inputs / "edges.csv")
    part = read_partition(inputs / "partition.csv")
    history = _panel(out / "panel.csv")
    predicted = _panel(out / "forecast.csv")
    for step in range(HORIZON):
        want = oracles.structural_prediction(coeffs, order, net, W, part, history)
        if not np.allclose(predicted[:, step], want, rtol=0.0, atol=TOL):
            problems.append(f"forecast step {step + 1} differs from the structural "
                            f"equation by {np.max(np.abs(predicted[:, step] - want)):.3g}")
            break
        history = np.column_stack([history, want])

    table = _table(out / "comparison.csv")
    want = {"GNAR": param_count(COMMUNITY_ORDER, d), "GNAR*": param_count(GLOBAL_ORDER, d)}
    got = {k: int(table["n_params"][k]) for k in want}
    if got != want:
        problems.append(f"n_params {got}, order strings give {want}")
    panel = _panel(out / "panel.csv")
    naive = float(np.sqrt(np.mean((panel[:, -1] - panel[:, -2]) ** 2)))
    if abs(float(table["rmspe"]["naive"]) - naive) > 5e-7:
        problems.append(f"naive rmspe {table['rmspe']['naive']}, panel gives {naive:.6f}")
    return problems


CHECKS = {"election-study": check_election, "corbit-d200": check_corbit,
          "fit-forecast-d200": check_fit_forecast}
