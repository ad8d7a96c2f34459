import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnar import autocorr, cli, estimate
from gnar.cli import build_parser, main
from gnar.panel import TimeSeriesPanel, default_node_labels, read_panel, write_panel

from conftest import DATA_DIR
from oracles import random_graph

EDGES = str(DATA_DIR / "fivenet_edges.csv")
PART = str(DATA_DIR / "fivenet_partition.csv")
MODEL = str(DATA_DIR / "table1_model.txt")
RETURNS = str(DATA_DIR / "synthetic_returns.csv")
SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv):
    return main(list(argv))


def test_simulate_writes_deterministic_panel(tmp_path):
    out = tmp_path / "panel.csv"
    args = ("simulate", "--network", EDGES, "--partition", PART,
            "--model", MODEL, "--length", "50", "--seed", "11",
            "--out", str(out))
    assert run(*args) == 0
    first = out.read_bytes()
    assert run(*args) == 0
    assert out.read_bytes() == first
    panel = read_panel(out)
    assert panel.values.shape == (5, 50)
    assert panel.meta["seed"] == "11"


def test_fit_emits_six_coefficients(tmp_path):
    panel_path = tmp_path / "panel.csv"
    run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
        "--length", "100", "--seed", "3", "--out", str(panel_path))
    out_dir = tmp_path / "fit"
    code = run("fit", "--network", EDGES, "--partition", PART,
               "--panel", str(panel_path),
               "--order", "community:[1,2];{[1],[1,1]}",
               "--out-dir", str(out_dir))
    assert code == 0
    lines = (out_dir / "coefficients.csv").read_text().strip().splitlines()
    assert lines[0] == "name,estimate,std_error"
    assert len(lines) == 7
    assert (out_dir / "residuals.csv").exists()
    assert (out_dir / "model.txt").exists()


def test_fit_per_community(tmp_path):
    panel_path = tmp_path / "panel.csv"
    run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
        "--length", "80", "--seed", "4", "--out", str(panel_path))
    out_dir = tmp_path / "fit"
    code = run("fit", "--network", EDGES, "--partition", PART,
               "--panel", str(panel_path),
               "--order", "community:[1,2];{[1],[1,1]}", "--per-community",
               "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "coefficients_community1.csv").exists()
    assert (out_dir / "coefficients_community2.csv").exists()


def test_nacf_grid_csv(tmp_path):
    panel_path = tmp_path / "panel.csv"
    run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
        "--length", "60", "--seed", "5", "--out", str(panel_path))
    out = tmp_path / "grid.csv"
    code = run("nacf", "--network", EDGES, "--panel", str(panel_path),
               "--kind", "nacf", "--max-lag", "4", "--max-stage", "2",
               "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,community,lag,stage,value,degenerate"
    assert len(lines) == 1 + 4 * 2


def test_corbit_emits_svg_and_grid(tmp_path):
    panel_path = tmp_path / "panel.csv"
    run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
        "--length", "60", "--seed", "6", "--out", str(panel_path))
    out_dir = tmp_path / "plots"
    code = run("corbit", "--network", EDGES, "--communities", PART,
               "--panel", str(panel_path), "--kind", "pnacf",
               "--max-lag", "8", "--max-stage", "3", "--out-dir", str(out_dir))
    assert code == 0
    svg = (out_dir / "rcorbit.svg").read_text()
    assert svg.count('class="rcorbit-point"') == 48
    assert svg.count('class="rcorbit-mean"') == 24
    assert (out_dir / "grid.csv").exists()
    # without communities the plain plot is emitted
    code = run("corbit", "--network", EDGES, "--panel", str(panel_path),
               "--kind", "nacf", "--max-lag", "8", "--max-stage", "3",
               "--out-dir", str(out_dir))
    assert code == 0
    svg = (out_dir / "corbit.svg").read_text()
    assert svg.count('class="corbit-point"') == 24


def test_forecast_and_compare(tmp_path):
    panel_path = tmp_path / "panel.csv"
    run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
        "--length", "60", "--seed", "7", "--out", str(panel_path))
    fcst = tmp_path / "forecast.csv"
    code = run("forecast", "--network", EDGES, "--partition", PART,
               "--model", MODEL, "--panel", str(panel_path),
               "--horizon", "2", "--out", str(fcst))
    assert code == 0
    pred = read_panel(fcst)
    assert pred.values.shape == (5, 2)
    report = tmp_path / "comparison.csv"
    code = run("compare", "--network", EDGES, "--partition", PART,
               "--panel", str(panel_path),
               "--spec", "GNAR=community:[1,2];{[1],[1,1]}",
               "--spec", "pooled=global:1;[1]",
               "--out", str(report))
    assert code == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "metric,GNAR,pooled,naive"


def test_elections_pipeline(tmp_path):
    out_dir = tmp_path / "study"
    code = run("elections", "--returns", RETURNS, "--out-dir", str(out_dir))
    assert code == 0
    for name in ("panel_raw.csv", "classification.csv", "network_edges.csv",
                 "partition.csv", "panel_standardised.csv",
                 "fit_standardised.csv", "residuals_standardised.csv",
                 "pnacf_grid_standardised.csv", "rcorbit_pnacf_standardised.svg",
                 "panel_differenced_standardised.csv", "fit_differenced.csv",
                 "residuals_differenced.csv", "pnacf_grid_differenced.csv",
                 "rcorbit_pnacf_differenced.svg", "comparison.csv"):
        assert (out_dir / name).exists(), name
    fit_lines = (out_dir / "fit_standardised.csv").read_text().strip().splitlines()
    assert len(fit_lines) == 10  # header plus nine parameters
    comparison = (out_dir / "comparison.csv").read_text().strip().splitlines()
    assert comparison[0] == "metric,GNAR,GNAR*,GNAR+,naive"
    assert comparison[3].startswith("n_params,9,3,103,NA")


def test_domain_errors_exit_one(tmp_path):
    missing_panel = tmp_path / "nope.csv"
    code = run("nacf", "--network", EDGES, "--panel", str(missing_panel),
               "--max-lag", "2", "--max-stage", "1", "--out",
               str(tmp_path / "x.csv"))
    assert code == 1


def test_elections_external_without_name_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "study"
    code = run("elections", "--returns", RETURNS, "--external", "foo",
               "--out-dir", str(out_dir))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "name=FILE" in err[0]
    assert not out_dir.exists()


def test_elections_refuses_a_wrong_size_external_before_any_study_work(tmp_path, capsys,
                                                                      monkeypatch):
    """A 3-node external forecast for the 51-state study is refused by ``compare``'s size
    check before the study fits a model or computes a grid, and nothing is written."""
    external = tmp_path / "ext.csv"
    write_panel(TimeSeriesPanel(np.zeros((3, 1)), default_node_labels(3), ("raw",)), external)
    calls = []
    for module, name in ((estimate, "fit_ols"), (autocorr, "corbit_grid")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    out_dir = tmp_path / "study"
    code = run("elections", "--returns", RETURNS, "--external", f"ext={external}",
               "--out-dir", str(out_dir))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: external forecast 'ext' has 3 nodes, panel has 51"]
    assert calls == []
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, value", [("--max-stage", "30"), ("--max-lag", "0"),
                                         ("--holdout", "50"), ("--max-lag", "11")])
def test_elections_bad_argument_writes_nothing(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "study"
    code = run("elections", "--returns", RETURNS, flag, value, "--out-dir", str(out_dir))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out_dir.exists()


@pytest.mark.parametrize("text, line", [
    ("year,state,office,candidate,candidatevotes,totalvotes,party_simplified\n"
     "1976,ALABAMA,US PRESIDENT,R,abc,1000,REPUBLICAN\n", 2),
    ("state,office,candidate,candidatevotes,totalvotes,party_simplified\n"
     "ALABAMA,US PRESIDENT,R,600,1000,REPUBLICAN\n", 1),
    ("year,state,office,candidate,candidatevotes,totalvotes,party_simplified\n"
     "1976,ALABAMA,US PRESIDENT,R,600,1000\n", 2),
], ids=["vote", "no-year", "short"])
def test_elections_malformed_returns_writes_nothing(tmp_path, capsys, text, line):
    returns = tmp_path / "returns.csv"
    returns.write_text(text)
    out_dir = tmp_path / "study"
    code = run("elections", "--returns", str(returns), "--out-dir", str(out_dir))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {returns}:{line}: ")
    assert not out_dir.exists()


def test_panel_network_size_mismatch_exits_one(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    write_panel(TimeSeriesPanel(np.random.default_rng(0).normal(size=(4, 20)),
                                default_node_labels(4), [str(t) for t in range(20)]),
                panel_path)
    for argv in (("nacf", "--max-lag", "2", "--max-stage", "1",
                  "--out", str(tmp_path / "grid.csv")),
                 ("forecast", "--partition", PART, "--model", MODEL,
                  "--out", str(tmp_path / "forecast.csv"))):
        code = run(argv[0], "--network", EDGES, "--panel", str(panel_path), *argv[1:])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "panel has 4 nodes, network has 5" in err[0]


def test_fit_refuses_repeated_time_labels_in_one_line(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    times = [str(t) for t in range(20)]
    times[7] = "6"
    values = np.random.default_rng(0).normal(size=(20, 5)).tolist()
    panel_path.write_text("time,n1,n2,n3,n4,n5\n" + "".join(
        ",".join([t, *map(repr, row)]) + "\n" for t, row in zip(times, values)))
    out_dir = tmp_path / "fit"
    code = run("fit", "--network", EDGES, "--panel", str(panel_path), "--order", "global:1;[1]",
               "--out-dir", str(out_dir))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {panel_path}:9: step 8 repeats the time label '6' of step 7"]
    assert not (out_dir / "residuals.csv").exists()


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run("frobnicate")
    assert err.value.code != 0


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run("simulate", "--bogus")
    assert err.value.code != 0


@pytest.mark.parametrize("command", ["nacf", "elections"])
def test_non_utf8_input_is_one_error_line(tmp_path, capsys, command):
    bad = tmp_path / "input.csv"
    if command == "nacf":
        bad.write_bytes(b"time,n1,n2,n3,n4,n5\n1,0,0,\xff,0,0\n")
        argv, where = ("nacf", "--network", EDGES, "--panel", str(bad), "--max-lag", "1",
                       "--max-stage", "1", "--out", str(tmp_path / "out" / "grid.csv")), ":2"
    else:
        bad.write_bytes(b"year,state,office,candidate,candidatevotes,totalvotes,"
                        b"party_simplified\n1976,ALABAMA,US PRESIDENT,R,600,1000,\xff\n")
        argv, where = ("elections", "--returns", str(bad),
                       "--out-dir", str(tmp_path / "out")), ":2"
    assert run(*argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {bad}{where}: not UTF-8 text"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--panel", "--network"])
def test_directory_as_input_is_one_error_line(tmp_path, capsys, flag):
    panel_path = tmp_path / "panel.csv"
    write_panel(TimeSeriesPanel(np.random.default_rng(0).normal(size=(5, 20)),
                                default_node_labels(5), [str(t) for t in range(20)]),
                panel_path)
    inputs = {"--network": EDGES, "--panel": str(panel_path), flag: str(tmp_path)}
    out = tmp_path / "out" / "grid.csv"
    code = run("nacf", "--network", inputs["--network"], "--panel", inputs["--panel"],
               "--max-lag", "1", "--max-stage", "1", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "directory" in err[0]
    assert not out.parent.exists()


def test_elections_out_dir_under_a_file_writes_nothing(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run("elections", "--returns", RETURNS, "--out-dir", str(blocker / "study"))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "directory" in err[0]
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""


@pytest.mark.parametrize("command", ["nacf", "simulate"])
def test_unsizable_node_count_is_one_error_line(tmp_path, capsys, command):
    edges = tmp_path / "edges.csv"
    edges.write_text(Path(EDGES).read_text().replace("# d: 5", "# d: 99999999999"))
    panel_path = tmp_path / "panel.csv"
    run("simulate", "--network", EDGES, "--model", MODEL, "--length", "20",
        "--out", str(panel_path))
    capsys.readouterr()
    out = tmp_path / "out" / "result.csv"
    extra = (("--panel", str(panel_path), "--max-lag", "1", "--max-stage", "1")
             if command == "nacf" else ("--model", MODEL, "--length", "20"))
    assert run(command, "--network", str(edges), *extra, "--out", str(out)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {edges}: node count d = 99999999999 is too large for a d x d matrix"]
    assert not out.parent.exists()


def test_simulate_nonstationary_warns_in_one_line(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text(Path(MODEL).read_text().replace("alpha 1 1 0.27", "alpha 1 1 0.97"))
    out = tmp_path / "panel.csv"
    args = ("simulate", "--network", EDGES, "--partition", PART, "--model", str(model),
            "--length", "20", "--out", str(out))
    assert run(*args) == 1
    capsys.readouterr()
    assert run(*args, "--allow-nonstationary") == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: simulating a model whose coefficients do not meet the sufficient "
        "stationarity condition (every group's absolute sum below 1)"]
    assert read_panel(out).values.shape == (5, 20)


def fresh_python(code: str, cwd: Path) -> list[str]:
    """Run ``code`` in a new interpreter importing gnar from src/; its ``loaded`` lines."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return [line for line in done.stdout.splitlines() if line.startswith("loaded")]


def test_fit_is_byte_identical_at_a_fixed_blas_thread_count(tmp_path):
    """Reruns match at one BLAS thread count; two counts may differ in the last digit."""
    d, T = 200, 200
    rng = np.random.default_rng(20)
    edges = tmp_path / "edges.csv"
    edges.write_text(f"# d: {d}\nfrom,to\n"
                     + "".join(f"{i},{j}\n" for i, j in random_graph(rng, d, p_edge=0.02)))
    part = tmp_path / "part.csv"
    part.write_text("node,community\n" + "".join(f"{i},{1 + i % 2}\n" for i in range(1, d + 1)))
    panel = tmp_path / "panel.csv"
    write_panel(TimeSeriesPanel(rng.normal(size=(d, T)), default_node_labels(d),
                                tuple(range(1, T + 1))), panel)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    outputs = {}
    for threads, run_no in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        out_dir = tmp_path / f"fit{threads}_{run_no}"
        subprocess.run([sys.executable, "-m", "gnar.cli", "fit", "--network", str(edges),
                        "--partition", str(part), "--panel", str(panel),
                        "--order", "community:[1,1];{[1],[1]}", "--out-dir", str(out_dir)],
                       cwd=tmp_path, env=dict(env, OPENBLAS_NUM_THREADS=str(threads)),
                       capture_output=True, check=True)
        outputs[threads, run_no] = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
    for threads in (1, 2):
        assert sorted(outputs[threads, 0]) == ["coefficients.csv", "model.txt", "residuals.csv"]
        assert outputs[threads, 0] == outputs[threads, 1]


def test_import_does_not_load_scipy(tmp_path):
    code = ("import sys\nimport gnar\nprint('loaded', 'scipy' in sys.modules)\n"
            "import gnar.cli\nprint('loaded', 'scipy' in sys.modules)\n")
    assert fresh_python(code, tmp_path) == ["loaded False", "loaded False"]


def test_only_solving_commands_load_scipy(tmp_path):
    net = ["--network", EDGES, "--partition", PART]
    no_solve = [
        ["simulate", *net, "--model", MODEL, "--length", "60", "--seed", "2",
         "--out", "panel.csv"],
        ["nacf", *net, "--panel", "panel.csv", "--max-lag", "3", "--max-stage", "2",
         "--out", "grid.csv"],
        ["corbit", *net, "--panel", "panel.csv", "--max-lag", "3", "--max-stage", "2",
         "--out-dir", "corbit"],
        ["forecast", *net, "--panel", "panel.csv", "--model", MODEL, "--horizon", "2",
         "--out", "forecast.csv"],
    ]
    fit = ["fit", *net, "--panel", "panel.csv", "--order", "community:[1,2];{[1],[1,1]}",
           "--out-dir", "fit"]
    code = (f"import sys\nfrom gnar.cli import main\n"
            f"for argv in {no_solve!r}:\n    assert main(argv) == 0, argv\n"
            f"print('loaded', 'scipy' in sys.modules)\n"
            f"assert main({fit!r}) == 0\n"
            f"print('loaded', 'scipy.linalg' in sys.modules)\n")
    assert fresh_python(code, tmp_path) == ["loaded False", "loaded True"]


@pytest.mark.parametrize("flag", ["--length", "--burn-in", "--horizon"])
def test_unallocatable_size_is_one_error_line(tmp_path, capsys, flag):
    panel_path = tmp_path / "panel.csv"
    assert run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
               "--length", "30", "--out", str(panel_path)) == 0
    huge = str(10**15)  # petabytes: numpy refuses it before reserving any memory
    out = tmp_path / "out" / "result.csv"
    if flag == "--horizon":
        argv = ("forecast", "--panel", str(panel_path), "--horizon", huge)
    else:
        argv = ("simulate", "--length", "30", flag, huge)
    capsys.readouterr()
    assert run(*argv[:1], "--network", EDGES, "--partition", PART, "--model", MODEL,
               *argv[1:], "--out", str(out)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate"), err
    assert not out.parent.exists()


@pytest.mark.parametrize("case", ["one community", "small canvas"])
def test_failed_corbit_render_leaves_no_grid(tmp_path, capsys, case):
    panel_path = tmp_path / "panel.csv"
    assert run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
               "--length", "40", "--seed", "5", "--out", str(panel_path)) == 0
    if case == "one community":
        one = tmp_path / "one.csv"
        one.write_text("node,community\n" + "".join(f"{i},1\n" for i in range(1, 6)))
        extra = ["--partition", str(one)]
    else:
        extra = ["--size", "100"]
    out_dir = tmp_path / "plots"
    capsys.readouterr()
    assert run("corbit", "--network", EDGES, "--panel", str(panel_path),
               "--max-lag", "3", "--max-stage", "2", *extra,
               "--out-dir", str(out_dir)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not (out_dir / "grid.csv").exists()


def test_corbit_target_that_is_a_directory_writes_nothing(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    assert run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
               "--length", "40", "--seed", "5", "--out", str(panel_path)) == 0
    out_dir = tmp_path / "plots"
    (out_dir / "rcorbit.svg").mkdir(parents=True)
    capsys.readouterr()
    assert run("corbit", "--network", EDGES, "--partition", PART, "--panel", str(panel_path),
               "--max-lag", "3", "--max-stage", "2", "--out-dir", str(out_dir)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {out_dir / 'rcorbit.svg'} is a directory, so no file was written"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["rcorbit.svg"]
    assert not any((out_dir / "rcorbit.svg").iterdir())


def test_per_community_fit_refuses_a_panel_larger_than_the_network(tmp_path, capsys):
    panel_path, part_path = tmp_path / "panel.csv", tmp_path / "part.csv"
    write_panel(TimeSeriesPanel(np.random.default_rng(0).normal(size=(6, 30)),
                                default_node_labels(6), [str(t) for t in range(30)]),
                panel_path)
    part_path.write_text("node,community\n" + "".join(f"{i},{1 + i % 2}\n" for i in range(1, 7)))
    for order in ("community:[1,1];{[1],[1]}", "community:[1,1];{[0],[0]}"):
        out_dir = tmp_path / "fit"
        capsys.readouterr()
        assert run("fit", "--network", EDGES, "--partition", str(part_path),
                   "--panel", str(panel_path), "--order", order, "--per-community",
                   "--out-dir", str(out_dir)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: panel has 6 nodes, network has 5"]
        assert not out_dir.exists()


def test_corbit_escapes_community_labels(tmp_path):
    import xml.etree.ElementTree as ET

    panel_path, part_path = tmp_path / "panel.csv", tmp_path / "part.csv"
    assert run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
               "--length", "40", "--seed", "5", "--out", str(panel_path)) == 0
    part_path.write_text('# label 1: R&D\n# label 2: "x" <y>\n'
                         "node,community\n1,2\n2,1\n3,1\n4,1\n5,2\n")
    out_dir = tmp_path / "plots"
    assert run("corbit", "--network", EDGES, "--partition", str(part_path),
               "--panel", str(panel_path), "--max-lag", "3", "--max-stage", "2",
               "--out-dir", str(out_dir)) == 0
    root = ET.fromstring((out_dir / "rcorbit.svg").read_text())
    legend = [el.text for el in root.iter() if el.get("class") == "legend-label"]
    assert legend == ["R&D", '"x" <y>']


def test_comma_in_community_label_is_one_error_line(tmp_path, capsys):
    panel_path, part_path = tmp_path / "panel.csv", tmp_path / "part.csv"
    assert run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
               "--length", "40", "--seed", "5", "--out", str(panel_path)) == 0
    part_path.write_text("# label 1: a,b\nnode,community\n1,2\n2,1\n3,1\n4,1\n5,2\n")
    out = tmp_path / "grid.csv"
    capsys.readouterr()
    assert run("nacf", "--network", EDGES, "--partition", str(part_path),
               "--panel", str(panel_path), "--max-lag", "2",
               "--max-stage", "1", "--out", str(out)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {part_path}:1: community 1 label 'a,b' holds a comma"]
    assert not out.exists()


@pytest.mark.parametrize("order", ["global:1;[1]", "local:1;[1]"])
def test_fit_refuses_a_partition_of_another_size_for_any_order(tmp_path, capsys, order):
    panel_path, part_path = tmp_path / "panel.csv", tmp_path / "part.csv"
    assert run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
               "--length", "40", "--seed", "5", "--out", str(panel_path)) == 0
    part_path.write_text("node,community\n1,1\n2,1\n3,2\n4,2\n")
    out_dir = tmp_path / "fit"
    capsys.readouterr()
    assert run("fit", "--network", EDGES, "--partition", str(part_path),
               "--panel", str(panel_path), "--order", order, "--out-dir", str(out_dir)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: partition has 4 nodes, network has 5"]
    assert not out_dir.exists()


def test_compare_refuses_a_model_name_that_would_split_its_row(tmp_path, capsys):
    panel_path, out = tmp_path / "panel.csv", tmp_path / "comparison.csv"
    assert run("simulate", "--network", EDGES, "--partition", PART, "--model", MODEL,
               "--length", "40", "--seed", "5", "--out", str(panel_path)) == 0
    capsys.readouterr()
    assert run("compare", "--network", EDGES, "--panel", str(panel_path),
               "--spec", "a,b=global:1;[1]", "--spec", "mean=global:1;[0]",
               "--out", str(out)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: model label 'a,b' holds ',', so a gnar file cannot hold it"]
    assert not out.exists()


REQUIRED = object()
NETWORK_FLAGS = {"--network": REQUIRED, "--d": None, "--weights": None,
                 "--partition --communities": None}
GRAMMAR = {  # subcommand -> {option strings: default, or REQUIRED}
    "simulate": {**NETWORK_FLAGS, "--model": REQUIRED, "--length": REQUIRED, "--burn-in": 200,
                 "--seed": 0, "--allow-nonstationary": False, "--out": REQUIRED},
    "fit": {**NETWORK_FLAGS, "--panel": REQUIRED, "--order": REQUIRED,
            "--per-community": False, "--out-dir": REQUIRED},
    "nacf": {**NETWORK_FLAGS, "--panel": REQUIRED, "--kind": "nacf", "--max-lag": REQUIRED,
             "--max-stage": REQUIRED, "--out": REQUIRED},
    "corbit": {**NETWORK_FLAGS, "--panel": REQUIRED, "--kind": "pnacf",
               "--max-lag": REQUIRED, "--max-stage": REQUIRED, "--size": 640,
               "--out-dir": REQUIRED},
    "forecast": {**NETWORK_FLAGS, "--panel": REQUIRED, "--model": REQUIRED, "--horizon": 1,
                 "--out": REQUIRED},
    "compare": {**NETWORK_FLAGS, "--panel": REQUIRED, "--spec": None, "--external": None,
                "--holdout": -1, "--out": REQUIRED},
    "elections": {"--returns": REQUIRED, "--holdout": -1, "--max-lag": 8, "--max-stage": 3,
                  "--external": None, "--out-dir": REQUIRED},
}


def test_cli_grammar():
    """Each subcommand's option strings, required flags and parsed defaults."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(commands.choices) == sorted(GRAMMAR)
    for command, flags in GRAMMAR.items():
        options = {" ".join(a.option_strings): a for a in commands.choices[command]._actions
                   if a.option_strings and a.dest != "help"}
        assert sorted(options) == sorted(flags), command
        required = [k for k, v in flags.items() if v is REQUIRED]
        assert sorted(k for k, a in options.items() if a.required) == sorted(required), command
        args = vars(parser.parse_args([command, *(x for k in required for x in (k, "1"))]))
        assert args["command"] == command
        assert {k: args[options[k].dest] for k, v in flags.items() if v is not REQUIRED} \
            == {k: v for k, v in flags.items() if v is not REQUIRED}, command


def test_main_builds_its_parser_once_and_build_parser_a_new_one_each_call(tmp_path,
                                                                          monkeypatch):
    """``main`` parses with one parser per process; ``build_parser`` shares nothing, and
    a parse leaves the shared parser as it was (an appended flag does not carry over)."""
    calls = []

    def counted():
        calls.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        missing = str(tmp_path / "missing.csv")
        for _ in range(3):
            assert run("fit", "--network", missing, "--panel", missing, "--order",
                       "global:1;[1]", "--out-dir", str(tmp_path)) == 1
        assert len(calls) == 1
        argv = ["compare", "--network", EDGES, "--panel", missing, "--out", missing]
        assert cli._parser().parse_args([*argv, "--external", "a=x"]).external == ["a=x"]
        assert cli._parser().parse_args(argv).external is None
        assert len(calls) == 1
    finally:
        cli._parser.cache_clear()
    monkeypatch.undo()
    assert build_parser() is not build_parser()
