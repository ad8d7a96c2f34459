"""Command-line entry point.

Subcommands cover the full workflow: ``simulate`` a model file into a panel, ``fit`` a
model order to a panel, ``nacf``/``corbit`` for autocorrelation grids and their radial
plots, ``forecast`` and ``compare`` for hold-out evaluation, and ``elections`` for the
end-to-end US presidential case study.  Each returns ``({path: text}, console line)``, so
it computes all of its files before :func:`main` writes any (a bad input or argument, or a
target that is a directory, writes nothing), each through
:func:`~gnar.textfile.write_text_atomic` (UTF-8, write then rename).  All randomness flows
through ``--seed``, so reruns give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

from . import autocorr, corbit_svg, elections, estimate
from .errors import GnarError
from .forecast import ModelSpec, compare, forecast, load_external_forecast
from .model import format_model, parse_order, read_model, unmet_stationarity
from .network import (default_weights, format_edge_list, load_weight_overrides,
                      read_edge_list)
from .panel import TimeSeriesPanel, format_panel, read_panel
from .partition import format_partition, read_partition
from .simulate import simulate
from .textfile import write_text_atomic


def _load_network(args):
    """The network, its weights and the partition (None without ``--partition``)."""
    net = read_edge_list(args.network, d=args.d)
    W = default_weights(net.distances)
    if args.weights:
        W = load_weight_overrides(args.weights, W)
    return net, W, read_partition(args.partition) if args.partition else None


def _split_named(item: str, flag: str, what: str) -> list[str]:
    """Split a ``name=VALUE`` argument into name and value; ``=`` is required."""
    if "=" not in item:
        raise GnarError(f"{flag} needs name={what}, got {item!r}")
    return item.split("=", 1)


def _load_externals(args, d: int):
    return [load_external_forecast(*_split_named(item, "--external", "FILE"), d)
            for item in args.external or []]


def _cmd_simulate(args):
    net, W, part = _load_network(args)
    coeffs, order = read_model(args.model)
    panel = simulate(coeffs, order, net, W, args.length, part=part,
                     burn_in=args.burn_in, seed=args.seed,
                     allow_nonstationary=args.allow_nonstationary)
    return {args.out: format_panel(panel)}, f"wrote {args.out}"


def _cmd_fit(args):
    net, W, part = _load_network(args)
    panel = read_panel(args.panel)
    order = parse_order(args.order)
    out_dir = Path(args.out_dir)
    if args.per_community:
        if part is None:
            raise GnarError("--per-community needs --partition")
        fits = estimate.fit_per_community(panel, order, net, W, part)
        files = {out_dir / f"{kind}_community{fit.group}.csv": text for fit in fits
                 for kind, text in (("coefficients", estimate.coefficient_table(fit)),
                                    ("residuals", format_panel(fit.residuals)))}
        return files, f"wrote per-community fits for {len(fits)} communities to {out_dir}"
    fit = estimate.fit_ols(estimate.build_design(panel, order, net, W, part))
    if not fit.stationary:
        print("warning: " + unmet_stationarity("estimates do not meet", fit.stationarity_sums),
              file=sys.stderr)
    return ({out_dir / "coefficients.csv": estimate.coefficient_table(fit),
             out_dir / "residuals.csv": format_panel(fit.residuals),
             out_dir / "model.txt": format_model(fit.to_coefficients())},
            f"wrote {out_dir}/coefficients.csv ({len(fit.theta)} parameters), "
            "residuals.csv, model.txt")


def _grid_from_args(args):
    net, W, part = _load_network(args)
    panel = read_panel(args.panel)
    return autocorr.corbit_grid(panel, net, W, args.max_lag, args.max_stage, args.kind, part)


def _cmd_nacf(args):
    return {args.out: _grid_from_args(args).to_csv_text()}, f"wrote {args.out}"


def _cmd_corbit(args):
    grid = _grid_from_args(args)
    out_dir = Path(args.out_dir)
    name, render = (("rcorbit.svg", corbit_svg.render_rcorbit) if grid.has_communities
                    else ("corbit.svg", corbit_svg.render_corbit))
    svg = render(grid, corbit_svg.RenderOptions(size=args.size))
    return ({out_dir / "grid.csv": grid.to_csv_text(), out_dir / name: svg},
            f"wrote {out_dir}/{name} and grid.csv")


def _cmd_forecast(args):
    net, W, part = _load_network(args)
    panel = read_panel(args.panel)
    coeffs, _ = read_model(args.model)
    preds = forecast(coeffs, net, W, panel, args.horizon, part)
    out = TimeSeriesPanel(values=preds.T, node_labels=panel.node_labels,
                          time_labels=tuple(f"+{s}" for s in range(1, args.horizon + 1)),
                          meta={"kind": "forecast", "horizon": str(args.horizon)})
    return {args.out: format_panel(out)}, f"wrote {args.out}"


def _cmd_compare(args):
    net, W, part = _load_network(args)
    panel = read_panel(args.panel)
    specs = [ModelSpec(name, parse_order(text)) for name, text in
             (_split_named(item, "--spec", "ORDER") for item in args.spec or [])]
    report = compare(panel, net, W, specs, part, holdout=args.holdout,
                     external=_load_externals(args, panel.d))
    return ({args.out: report.to_csv_text()},
            f"wrote {args.out} (hold-out step {report.holdout_label})")


def _cmd_elections(args):
    data = elections.load_returns(args.returns)
    externals = _load_externals(args, data.panel.d)
    classification = elections.classify(data)
    part = classification.partition
    net = elections.us_border_network()
    W = default_weights(net.distances)
    std = elections.standardize(data.panel)
    order_std = parse_order("community:[2,2,2];{[1,0],[1,0],[1,0]}")
    fit_std = estimate.fit_ols(estimate.build_design(std, order_std, net, W, part))
    grid_std = autocorr.corbit_grid(std, net, W, args.max_lag, args.max_stage,
                                    "pnacf", part)
    diff = elections.standardize(elections.difference(data.panel))
    order_diff = parse_order("community:[3,3,3];{[0,0,0],[0,0,0],[0,0,0]}")
    fit_diff = estimate.fit_ols(estimate.build_design(diff, order_diff, net, W, part))
    grid_diff = autocorr.corbit_grid(diff, net, W, min(args.max_lag, diff.T - 1),
                                     args.max_stage, "pnacf", part)
    specs = [ModelSpec("GNAR", order_std), ModelSpec("GNAR*", parse_order("global:2;[1,0]")),
             ModelSpec("GNAR+", parse_order("local:2;[1,0]"))]
    report = compare(data.panel, net, W, specs, part, holdout=args.holdout,
                     external=externals)
    outputs = {
        "panel_raw.csv": format_panel(data.panel),
        "classification.csv": classification.to_csv_text(),
        "network_edges.csv": format_edge_list(net),
        "partition.csv": format_partition(part),
        "panel_standardised.csv": format_panel(std),
        "fit_standardised.csv": estimate.coefficient_table(fit_std),
        "residuals_standardised.csv": format_panel(fit_std.residuals),
        "pnacf_grid_standardised.csv": grid_std.to_csv_text(),
        "rcorbit_pnacf_standardised.svg": corbit_svg.render_rcorbit(grid_std),
        "panel_differenced_standardised.csv": format_panel(diff),
        "fit_differenced.csv": estimate.coefficient_table(fit_diff),
        "residuals_differenced.csv": format_panel(fit_diff.residuals),
        "pnacf_grid_differenced.csv": grid_diff.to_csv_text(),
        "rcorbit_pnacf_differenced.svg": corbit_svg.render_rcorbit(grid_diff),
        "comparison.csv": report.to_csv_text(),
    }
    if not fit_std.stationary:
        print("note: " + unmet_stationarity("standardised fit does not meet",
                                            fit_std.stationarity_sums)
              + "; see the differenced fit", file=sys.stderr)
    out_dir = Path(args.out_dir)
    return ({out_dir / name: text for name, text in outputs.items()},
            f"wrote election study outputs to {out_dir} (hold-out {report.holdout_label})")


def _grid_parent() -> argparse.ArgumentParser:
    """The ``--kind --max-lag --max-stage`` parent, made anew for each subcommand that takes
    it: argparse shares a parent's actions, so one ``set_defaults(kind=...)`` would set all."""
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--kind", choices=list(autocorr.KINDS))
    grid.add_argument("--max-lag", type=int, required=True)
    grid.add_argument("--max-stage", type=int, required=True)
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gnar", description=(
        "Network autoregressive modelling: simulation, estimation, "
        "autocorrelation diagnostics, radial plots and forecasting."))
    sub = parser.add_subparsers(dest="command", required=True)
    # The flag groups several subcommands share, as parents; the grid's is _grid_parent.
    network, panel, holdout = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    network.add_argument("--network", required=True, help="edge-list file (from,to)")
    network.add_argument("--d", type=int,
                         help="node count when the edge list lacks a '# d: N' line")
    network.add_argument("--weights", help="optional from,to,w overrides of the default weights")
    network.add_argument("--partition", "--communities", dest="partition",
                         help="node,community file defining the communities")
    panel.add_argument("--panel", required=True)
    holdout.add_argument("--external", action="append",
                         help="name=FILE with an external forecast to score")
    holdout.add_argument("--holdout", type=int, default=-1,
                         help="panel column to hold out (default: last)")

    p = sub.add_parser("simulate", parents=[network],
                       help="simulate a model file into a panel")
    p.add_argument("--model", required=True, help="model file to simulate from")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-nonstationary", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", parents=[network, panel],
                       help="least-squares fit of an order to a panel")
    p.add_argument("--order", required=True,
                   help="e.g. community:[1,2];{[1],[1,1]} or global:2;[1,0]")
    p.add_argument("--per-community", action="store_true",
                   help="independent block fits on each community's own range")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("nacf", parents=[network, panel, _grid_parent()],
                       help="autocorrelation grid as CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_nacf, kind="nacf")

    p = sub.add_parser("corbit", parents=[network, panel, _grid_parent()],
                       help="radial autocorrelation plot (SVG) + grid CSV")
    p.add_argument("--size", type=int, default=640)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_corbit, kind="pnacf")

    p = sub.add_parser("forecast", parents=[network, panel],
                       help="iterated forecasts from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("compare", parents=[network, panel, holdout],
                       help="hold-out comparison of model specs")
    p.add_argument("--spec", action="append",
                   help="name=ORDER, repeatable (e.g. GNAR=community:[1,1];{[1],[1]})")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("elections", parents=[holdout],
                       help="full US presidential case study from the returns CSV")
    p.add_argument("--returns", required=True, help="MIT Election Lab per-candidate CSV")
    p.add_argument("--max-lag", type=int, default=8)
    p.add_argument("--max-stage", type=int, default=3)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_elections)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            files, message = args.func(args)
        for path in filter(Path.is_dir, map(Path, files)):
            raise GnarError(f"{path} is a directory, so no file was written")
        for path, text in files.items():
            write_text_atomic(path, text)
    except (GnarError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
