"""Seeded inputs and the operations of one pass, for each workload.

A workload has two halves.  ``setup`` writes its input files from the seed
and nothing else, so the same seed gives byte-identical inputs.  ``ops``
lists the operations of one pass; each is a call into a public entry point
of gnar (``gnar.cli.main`` or a library function) that reads the inputs
and writes its outputs under the pass directory.

The program only ever sees the generated files.  The seed decides the
graph, the partition, the simulation noise and, for the election study,
the row order of the returns file; it never changes the size of the work.

gnar is imported inside the functions that use it, because ``run.py`` puts
the checkout's ``src`` on the path only after importing this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("election-study", "corbit-d200", "fit-forecast-d200")

#: Share of each workload's pass that is interpreted Python rather than
#: LAPACK, from the traced run (README.md): it mixes the two parts of the
#: reference that ``reference.speed`` divides the pass time by.  Set-up is
#: imports and input writing, all interpreter work.
PYTHON_SHARE = {"election-study": 0.95, "corbit-d200": 0.95, "fit-forecast-d200": 0.4}
SETUP_PYTHON_SHARE = 1.0

#: The simulated community model: order string and true coefficients.
#: Every group's absolute sum stays below one, so the model is stationary.
COMMUNITY_ORDER = "community:[2,1,2];{[2,1],[1],[1,1]}"
TRUE_COEFFICIENTS = {
    "alpha.1.1": 0.25, "beta.1.1.1": 0.20, "beta.1.2.1": 0.10,
    "alpha.2.1": 0.15, "beta.2.1.1": 0.10,
    "alpha.1.2": 0.40, "beta.1.1.2": 0.30,
    "alpha.1.3": 0.20, "beta.1.1.3": 0.25,
    "alpha.2.3": 0.20, "beta.2.1.3": 0.15,
}
GLOBAL_ORDER = "global:2;[2,1]"
LOCAL_ORDER = "local:2;[1,1]"
COMMUNITY_LABELS = ("north", "south", "west")
HORIZON = 10


@dataclass(frozen=True)
class Size:
    """Problem size of the synthetic-graph workloads."""

    d: int            # nodes
    extra_edges: int  # random edges added to the spanning tree
    T: int            # panel length
    max_lag: int      # (P)NACF grid lags
    max_stage: int    # (P)NACF grid stages


SIZES = {
    "full": Size(d=200, extra_edges=200, T=200, max_lag=8, max_stage=3),
    "small": Size(d=40, extra_edges=40, T=60, max_lag=4, max_stage=2),
}


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def synthetic_graph(rng: np.random.Generator, d: int, extra: int) -> list[tuple[int, int]]:
    """Random recursive spanning tree plus ``extra`` distinct random edges.

    The edge count is d - 1 + extra for every seed, so the cost of the
    graph algorithms does not drift with the seed.
    """
    order = rng.permutation(d) + 1
    edges = set()
    for k in range(1, d):
        a, b = int(order[k]), int(order[rng.integers(0, k)])
        edges.add((min(a, b), max(a, b)))
    target = d - 1 + extra
    while len(edges) < target:
        a, b = (int(x) for x in rng.integers(1, d + 1, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def balanced_partition(rng: np.random.Generator, d: int, C: int) -> list[int]:
    """Community of each node; sizes differ by at most one for every seed."""
    assignment = np.arange(d) % C + 1
    return [int(c) for c in rng.permutation(assignment)]


def edge_list_text(d: int, edges) -> str:
    return "\n".join([f"# d: {d}", "from,to"] + [f"{i},{j}" for i, j in edges]) + "\n"


def partition_text(assignment, labels) -> str:
    lines = [f"# label {c}: {name}" for c, name in enumerate(labels, start=1)]
    lines.append("node,community")
    lines += [f"{i},{c}" for i, c in enumerate(assignment, start=1)]
    return "\n".join(lines) + "\n"


def model_text() -> str:
    """The community model in the ``gnar-model v1`` file format."""
    lines = ["gnar-model v1", "variant community", "C 3", "p 2 1 2",
             "s 1 2 1", "s 2 1", "s 3 1 1", "sigma 1.0"]
    for name, value in TRUE_COEFFICIENTS.items():
        kind, *idx = name.split(".")
        lines.append(f"{kind} {' '.join(idx)} {value!r}")
    return "\n".join(lines) + "\n"


def setup(workload: str, seed: int, size: Size, inputs: Path) -> None:
    """Write the workload's input files into ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "election-study":
        source = repo_root() / "tests" / "data" / "synthetic_returns.csv"
        header, *rows = source.read_text().splitlines()
        random.Random(seed).shuffle(rows)
        (inputs / "synthetic_returns.csv").write_text("\n".join([header] + rows) + "\n")
        return
    rng = np.random.default_rng(seed)
    edges = synthetic_graph(rng, size.d, size.extra_edges)
    assignment = balanced_partition(rng, size.d, len(COMMUNITY_LABELS))
    (inputs / "edges.csv").write_text(edge_list_text(size.d, edges))
    (inputs / "partition.csv").write_text(partition_text(assignment, COMMUNITY_LABELS))
    (inputs / "model.txt").write_text(model_text())
    if workload == "corbit-d200":
        from gnar import (default_weights, bfs_distances, read_edge_list,
                          read_model, read_partition, simulate)
        from gnar.panel import format_panel

        net = read_edge_list(inputs / "edges.csv")
        W = default_weights(bfs_distances(net))
        coeffs, order = read_model(inputs / "model.txt")
        panel = simulate(coeffs, order, net, W, size.T,
                         part=read_partition(inputs / "partition.csv"), seed=seed)
        (inputs / "panel.csv").write_text(format_panel(panel))


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a CLI argument list or a library call."""

    name: str
    argv: tuple[str, ...] = ()
    call: object = None


def _gls_identity(inputs: Path, out: Path) -> int:
    """Kronecker GLS with an identity block on the simulated panel."""
    from gnar import (KroneckerCovariance, bfs_distances, build_design,
                      coefficient_table, default_weights, fit_gls, parse_order,
                      read_edge_list, read_panel, read_partition)

    net = read_edge_list(inputs / "edges.csv")
    W = default_weights(bfs_distances(net))
    part = read_partition(inputs / "partition.csv")
    panel = read_panel(out / "panel.csv")
    ds = build_design(panel, parse_order(COMMUNITY_ORDER), net, W, part)
    fit = fit_gls(ds, KroneckerCovariance(np.eye(panel.d)))
    (out / "gls").mkdir(exist_ok=True)
    (out / "gls" / "coefficients.csv").write_text(coefficient_table(fit))
    return 0


def ops(workload: str, seed: int, size: Size, inputs: Path, out: Path) -> list[Op]:
    """The operations of one pass, in order; outputs go under ``out``."""
    if workload == "election-study":
        return [Op("elections", ("elections", "--returns",
                                 str(inputs / "synthetic_returns.csv"),
                                 "--out-dir", str(out / "study")))]
    graph = ("--network", str(inputs / "edges.csv"))
    part = ("--partition", str(inputs / "partition.csv"))
    grid = ("--max-lag", str(size.max_lag), "--max-stage", str(size.max_stage))
    if workload == "corbit-d200":
        panel = ("--panel", str(inputs / "panel.csv"))
        return [
            Op("corbit-pnacf", ("corbit", *graph, *part, *panel, "--kind", "pnacf",
                                *grid, "--out-dir", str(out / "corbit"))),
            Op("nacf", ("nacf", *graph, *panel, "--kind", "nacf", *grid,
                        "--out", str(out / "nacf_grid.csv"))),
        ]
    panel = ("--panel", str(out / "panel.csv"))
    fit = ("fit", *graph, *part, *panel)
    return [
        Op("simulate", ("simulate", *graph, *part, "--model", str(inputs / "model.txt"),
                        "--length", str(size.T), "--seed", str(seed),
                        "--out", str(out / "panel.csv"))),
        Op("fit-community", (*fit, "--order", COMMUNITY_ORDER,
                             "--out-dir", str(out / "fit_community"))),
        Op("fit-per-community", (*fit, "--order", COMMUNITY_ORDER, "--per-community",
                                 "--out-dir", str(out / "fit_per_community"))),
        Op("fit-global", (*fit, "--order", GLOBAL_ORDER,
                          "--out-dir", str(out / "fit_global"))),
        Op("fit-local", (*fit, "--order", LOCAL_ORDER,
                         "--out-dir", str(out / "fit_local"))),
        Op("gls-identity", call=lambda: _gls_identity(inputs, out)),
        Op("forecast", ("forecast", *graph, *part, *panel,
                        "--model", str(out / "fit_community" / "model.txt"),
                        "--horizon", str(HORIZON), "--out", str(out / "forecast.csv"))),
        Op("compare", ("compare", *graph, *part, *panel,
                       "--spec", f"GNAR={COMMUNITY_ORDER}",
                       "--spec", f"GNAR*={GLOBAL_ORDER}",
                       "--out", str(out / "comparison.csv"))),
    ]
