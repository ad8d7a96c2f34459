import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gnar
from gnar.elections import load_returns
from gnar.errors import DataError, GnarError
from gnar.model import read_model
from gnar.network import load_weight_overrides, read_edge_list
from gnar.panel import (TimeSeriesPanel, default_node_labels, format_panel, read_panel,
                        write_panel)
from gnar.partition import (CommunityPartition, format_partition, read_partition,
                            single_community, write_partition)

from oracles import indicator


def test_panel_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    panel = TimeSeriesPanel(rng.normal(size=(3, 7)), ("a", "b", "c"),
                            tuple(range(1, 8)), meta={"seed": "0", "rng": "x"})
    path = tmp_path / "panel.csv"
    write_panel(panel, path)
    again = read_panel(path)
    assert np.array_equal(again.values, panel.values)  # repr round-trips floats
    assert again.node_labels == panel.node_labels
    assert again.time_labels == panel.time_labels
    assert again.meta == panel.meta


def test_panel_format_deterministic():
    panel = TimeSeriesPanel(np.ones((2, 2)), ("a", "b"), ("1", "2"))
    assert format_panel(panel) == format_panel(panel)


def test_panel_validation():
    with pytest.raises(GnarError):
        TimeSeriesPanel(np.ones((2, 2)), ("a",), ("1", "2"))
    with pytest.raises(GnarError):
        TimeSeriesPanel(np.array([[np.inf, 1.0]]), ("a",), ("1", "2"))
    with pytest.raises(GnarError):
        TimeSeriesPanel(np.ones(3), ("a", "b", "c"), ("1",))


@pytest.mark.parametrize("values, times, message", [
    (np.ones((2, 0)), (), "panel must contain at least one time step"),
    (np.ones((2, 2)), ("1",), "1 time labels for 2 columns"),
], ids=["no-steps", "time-labels"])
def test_panel_refuses_no_steps_and_a_wrong_time_label_count(values, times, message):
    with pytest.raises(GnarError, match=f"^{re.escape(message)}$"):
        TimeSeriesPanel(values, ("a", "b"), times)


@pytest.mark.parametrize("nodes, times, cell, message, at", [
    (("", "b"), ("1", "2"), 1.0, "node column 1 has no label", ("node_labels", 0)),
    (("a", "a"), ("1", "2"), 1.0, "node column 2 repeats the label 'a' of node column 1",
     ("node_labels", 1)),
    (("a", "b"), ("1", ""), 1.0, "empty time label at step 2", ("time_labels", 1)),
    (("a", "b"), ("1", "1"), 1.0, "step 2 repeats the time label '1' of step 1",
     ("time_labels", 1)),
    (("a", "b"), ("1", "2"), -np.inf, "node 'b' is -inf, not a finite number", ("values", 1, 0)),
], ids=["node-empty", "node-repeated", "time-empty", "time-repeated", "non-finite"])
def test_panel_refuses_empty_or_repeated_labels_and_non_finite_values(nodes, times, cell,
                                                                      message, at):
    values = np.ones((2, 2))
    values[1, 0] = cell
    with pytest.raises(GnarError, match=f"^{re.escape(message)}$") as exc:
        TimeSeriesPanel(values, nodes, times)
    assert exc.value.at == at


def test_panel_read_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,a\n1,2,3\n")
    with pytest.raises(DataError):
        read_panel(path)
    path.write_text("wrong,a\n1,2\n")
    with pytest.raises(DataError, match="time"):
        read_panel(path)
    path.write_text("time,a\n1,notanumber\n")
    with pytest.raises(DataError):
        read_panel(path)
    path.write_text("# seed: 1\n# rng: x\n#seed:2\ntime,a\n1,2\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: metadata 'seed' "
                                        "was already set on line 1$"):
        read_panel(path)


@pytest.mark.parametrize("text, where", [
    ("# seed: 1\n# no rows follow\n", ": no panel data found"),
    ("# seed: 1\ntime,a,b\n", ": no panel data found"),
    ("time\n1\n2\n", ":1: no node columns"),
], ids=["comments-only", "header-only", "no-node-columns"])
def test_panel_read_refuses_a_file_without_data(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path) + where)}$"):
        read_panel(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_panel_read_names_the_line_of_a_non_finite_cell(tmp_path, cell):
    path = tmp_path / "panel.csv"
    path.write_text(f"# seed: 1\ntime,a,b\n1,0.5,2\n2,{cell},0.5\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: node 'a' is {cell}, "
                                        "not a finite number$"):
        read_panel(path)


def test_partition_round_trip(tmp_path):
    part = CommunityPartition(assignment=(2, 1, 1, 3, 2), n_communities=3,
                              labels=("Red", "Blue", "Swing"))
    path = tmp_path / "part.csv"
    write_partition(part, path)
    again = read_partition(path)
    assert again == part


def test_partition_validation():
    with pytest.raises(GnarError, match="empty"):
        CommunityPartition(assignment=(1, 1), n_communities=2)
    with pytest.raises(GnarError):
        CommunityPartition(assignment=(1, 3), n_communities=2)
    part = single_community(4)
    assert part.members(1) == [1, 2, 3, 4]
    assert np.array_equal(indicator(part, 1), np.ones(4))


@pytest.mark.parametrize("labels, C, message", [
    ((), 0, "community count must be >= 1, got 0"),
    (("Red",), 2, "labels length must equal the community count"),
], ids=["no-communities", "labels"])
def test_partition_refuses_no_communities_and_a_wrong_label_count(labels, C, message):
    with pytest.raises(GnarError, match=f"^{re.escape(message)}$"):
        CommunityPartition(assignment=(1, 2), n_communities=C, labels=labels)


def test_partition_read_rejects_gaps(tmp_path):
    path = tmp_path / "part.csv"
    path.write_text("node,community\n1,1\n3,1\n")
    with pytest.raises(DataError, match="without assignment"):
        read_partition(path)
    path.write_text("node,community\n1,1\n1,2\n")
    with pytest.raises(DataError, match="twice"):
        read_partition(path)


@pytest.mark.parametrize("text, where", [
    ("node,community\n1,0\n2,1\n", ":2: node 1 assigned to community 0, outside 1..1"),
    ("1,1\n2,-2\n3,1\n", ":2: node 2 assigned to community -2, outside 1..1"),
    ("1,1\n2,3\n3,3\n", ": empty communities: 2"),
    ("# label 1: Red\n# no rows follow\n", ": empty partition file"),
    ("1,1\n2,3\n", ": community 3 but only 2 nodes to fill it"),
], ids=["zero", "negative", "empty", "comments-only", "too-few-nodes"])
def test_partition_read_names_the_file_of_a_community_it_cannot_form(tmp_path, text, where):
    path = tmp_path / "part.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path) + where)}$"):
        read_partition(path)


def test_partition_read_rejects_non_numeric(tmp_path):
    path = tmp_path / "part.csv"
    for body, ln in [("node,community\n1,x\n", 2), ("node,community\nx,1\n", 2),
                     ("# label x: Red\nnode,community\n1,1\n", 1),
                     ("# label 1 Red\nnode,community\n1,1\n", 1),
                     ("# label 1 junk: Red\nnode,community\n1,1\n", 1)]:
        path.write_text(body)
        with pytest.raises(DataError, match=f"part.csv:{ln}: "):
            read_partition(path)


RETURNS_HEADER = b"year,state,office,candidate,candidatevotes,totalvotes,party_simplified\n"


@pytest.mark.parametrize("read, data, line", [
    (read_edge_list, b"# d: 3\rfrom,to\r\n1,\xff2\n", 3),
    (lambda path: load_weight_overrides(path, np.zeros((3, 3))),
     b"from,to,w\n\n1,2,0.\xff5\n", 3),
    (read_partition, b"# label 1: R\xffed\nnode,community\n1,1\n", 1),
    (read_panel, b"# seed: 1\ntime,a\n1,0.5\n2,\xff\n", 4),
    (read_model, b"gnar-model v1\nvariant global\nsigma 1.0\np 1\ns 0\nalpha 1 0.\xff1\n", 6),
    (load_returns, RETURNS_HEADER + b"1976,ALABAMA,US PRESIDENT,R,600,1000,REPUBLIC\xffAN\n",
     2),
], ids=["edges", "weights", "partition", "panel", "model", "returns"])
def test_readers_reject_bytes_that_are_not_utf8(tmp_path, read, data, line):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    where = "" if line is None else f":{line}"
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}{where}')}: not UTF-8 text$"):
        read(path)


HUGE_ID_SCRIPT = """
import os, resource, sys
from gnar.errors import GnarError
from gnar.partition import CommunityPartition, read_partition

with open("/proc/self/statm") as fh:
    limit = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + (1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
for make in [lambda p=p: read_partition(p) for p in sys.argv[1:]] + [
        lambda: CommunityPartition((1, 2), 99999999999)]:
    try:
        make()
    except GnarError as exc:
        print(exc)
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs Linux")
def test_partition_huge_ids_fail_without_allocating(tmp_path):
    """A node or community id of 10**11 is an error, raised before anything is
    sized by it; 1 GiB of headroom makes an allocation by id a MemoryError."""
    files = []
    for name, body in [("node", "node,community\n1,1\n99999999999,1\n"),
                       ("community", "# label 1: Red\nnode,community\n1,1\n2,99999999999\n")]:
        files.append(tmp_path / f"{name}.csv")
        files[-1].write_text(body)
    result = subprocess.run([sys.executable, "-c", HUGE_ID_SCRIPT, *map(str, files)],
                            capture_output=True, text=True, timeout=120,
                            env={"PYTHONPATH": str(Path(gnar.__file__).parent.parent),
                                 "OPENBLAS_NUM_THREADS": "1"})
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"{files[0]}: nodes without assignment: 2, 3, 4, 5, 6, ...",
        f"{files[1]}: community 99999999999 but only 2 nodes to fill it",
        "empty communities: 3, 4, 5, 6, 7, ...",
    ]


@pytest.mark.parametrize("read, text, line, got", [
    (lambda path: read_edge_list(path, d=3), "from,to\n1,2\n\n1,2,3\n", 4, "1,2,3"),
    (lambda path: load_weight_overrides(path, np.zeros((3, 3))), "# w\n1,2\n", 2, "1,2"),
    (read_partition, "node,community\n1,1\n# x\n2\n", 4, "2"),
], ids=["edges", "weights", "partition"])
def test_fixed_rows_reject_a_wrong_cell_count(tmp_path, read, text, line, got):
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: expected "
                                        f"'[a-z,]+' with numeric cells, got '{got}'$"):
        read(path)


@pytest.mark.parametrize("nodes, times, meta, named", [
    (("a", "b"), ("1", "2"), {" seed": "1"}, "metadata key ' seed'"),
    (("a", "b"), ("1", "2"), {"seed": "1 "}, "metadata value '1 '"),
    (("a,b", "c"), ("1", "2"), {}, "node label 'a,b'"),
    (("a", "b"), ("1,5", "2"), {}, "time label '1,5'"),
    (("a\nb", "c"), ("1", "2"), {}, "node label 'a\\nb'"),
    (("a", "b"), ("1", "2\r"), {}, "time label '2\\r'"),
    (("a", "b\u2028"), ("1", "2"), {}, "node label 'b\\u2028'"),
    ((" a", "b"), ("1", "2"), {}, "node label ' a'"),
    (("a", "b"), ("1", "2 "), {}, "time label '2 '"),
    (("a", "b"), ("#1", "2"), {}, "time label '#1'"),
    (("a", "b"), ("1", "2"), {"seed\nx": "1"}, "metadata key 'seed\\nx'"),
    (("a", "b"), ("1", "2"), {"seed": "1\n2"}, "metadata value '1\\n2'"),
    (("a", "b"), ("1", "2"), {"a:b": "1"}, "metadata key 'a:b'"),
])
def test_format_panel_refuses_what_would_not_read_back(nodes, times, meta, named):
    panel = TimeSeriesPanel(np.ones((2, 2)), nodes, times, meta=meta)
    with pytest.raises(GnarError, match=re.escape(named)):
        format_panel(panel)


def test_panel_labels_that_read_back_are_written(tmp_path):
    panel = TimeSeriesPanel(np.ones((2, 2)), ("#a", "b c"), ("1#", "t:2"),
                            meta={"source": "x: y, z", "empty": ""})
    write_panel(panel, tmp_path / "panel.csv")
    again = read_panel(tmp_path / "panel.csv")
    assert (again.node_labels, again.time_labels, again.meta) == (
        panel.node_labels, panel.time_labels, panel.meta)


@pytest.mark.parametrize("text, where", [
    ("time,a,,c\n1,1,2,3\n", "bad.csv:1: node column 2 has no label"),
    ("# seed: 1\ntime,a\n1,0.5\n ,0.25\n", "bad.csv:4: empty time label"),
    ("# seed: 1\ntime,n1,n1,n3\n1,1,2,3\n",
     "bad.csv:2: node column 2 repeats the label 'n1' of node column 1"),
    ("time,a\n1,0.5\n2,0.25\n1,0.125\n",
     "bad.csv:4: step 3 repeats the time label '1' of step 1"),
])
def test_panel_read_refuses_empty_labels(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=re.escape(where)):
        read_panel(path)


@pytest.mark.parametrize("label, why", [
    ("", "is empty"),
    ("a,b", "holds ','"),
    ("a\nb", "holds a line break"),
    ("a\u2028b", "holds a line break"),
    (" a", "has leading or trailing whitespace"),
    ("b\t", "has leading or trailing whitespace"),
])
def test_format_partition_refuses_labels_that_would_not_read_back(label, why):
    with pytest.raises(GnarError, match=re.escape(f"community 2 label {label!r} {why}")):
        format_partition(CommunityPartition(assignment=(1, 2), n_communities=2,
                                            labels=("ok", label)))


@pytest.mark.parametrize("line, why", [
    ("# label 2: a,b", "community 2 label 'a,b' holds a comma"),
    ("# label 2:", "community 2 label '' is empty"),
    ("# label 2:   ", "community 2 label '' is empty"),
    ("1,2", "node 1 assigned twice, first on line 2"),
])
def test_partition_read_refuses_labels_it_cannot_hold(tmp_path, line, why):
    path = tmp_path / "part.csv"
    path.write_text(f"node,community\n1,1\n{line}\n2,2\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: {re.escape(why)}$"):
        read_partition(path)


def test_partition_labels_that_read_back_are_written(tmp_path):
    part = CommunityPartition(assignment=(1, 2, 2), n_communities=2,
                              labels=("R&D: #1", '"x" <y>'))
    write_partition(part, tmp_path / "part.csv")
    assert read_partition(tmp_path / "part.csv") == part


@pytest.mark.parametrize("label", ["all", "mean"])
def test_partition_refuses_a_grid_row_name_as_label(tmp_path, label):
    with pytest.raises(GnarError, match=f"^community 2 label '{label}' is reserved for grid rows$"):
        CommunityPartition(assignment=(1, 2), n_communities=2, labels=("x", label))
    path = tmp_path / "part.csv"
    path.write_text(f"node,community\n1,1\n# label 2: {label}\n2,2\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: community 2 label "
                                        f"'{label}' is reserved for grid rows$"):
        read_partition(path)


def test_partition_refuses_a_label_on_two_communities(tmp_path):
    with pytest.raises(GnarError, match="^community 2 label 'a' is community 1's label too$"):
        CommunityPartition(assignment=(1, 1, 2, 2, 2), n_communities=2, labels=("a", "a"))
    path = tmp_path / "part.csv"
    for body, ln, why in [
            ("# label 1: 2\nnode,community\n1,1\n2,2\n", 1,
             "community 1 label '2' is community 2's label too"),
            ("# label 2: a\nnode,community\n1,1\n# label 1: a\n2,2\n", 1,
             "community 2 label 'a' is community 1's label too"),
            ("# label 2: 1\nnode,community\n1,1\n2,2\n", 1,
             "community 2 label '1' is community 1's label too")]:
        path.write_text(body)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{ln}: {why}$"):
            read_partition(path)


@pytest.mark.parametrize("comments, line, why", [
    (["# label 1: a", "# label 7: b", "# label 1: c"], 3,
     "community 1 label 'c' repeats line 1's label"),
    (["# label 1: a", "# label 7: b"], 2, "label for community 7, outside 1..2"),
    (["# label 0: a"], 1, "label for community 0, outside 1..2"),
])
def test_partition_read_refuses_labels_for_no_community(tmp_path, comments, line, why):
    path = tmp_path / "part.csv"
    path.write_text("\n".join(comments) + "\nnode,community\n1,1\n2,2\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: {re.escape(why)}$"):
        read_partition(path)


def test_public_names_are_pinned_and_resolve():
    assert sorted(gnar.__all__) == [
        "AcfCell", "CommunityPartition", "CorbitGrid", "CovarianceError", "DataError",
        "DesignError", "DesignSystem", "ExternalForecast", "FitResult", "ForecastReport",
        "GnarCoefficients", "GnarError", "GnarOrder", "KroneckerCovariance", "ModelSpec",
        "Network", "NetworkError", "NodewiseCoefficients", "OrderError",
        "RankDeficiencyError", "RenderOptions", "SizeError", "StationarityReport",
        "TimeSeriesPanel", "UNREACHABLE", "bfs_distances", "build_community_design",
        "build_design", "build_network", "coefficient_table", "compare", "corbit_grid",
        "default_weights", "fit_gls", "fit_ols", "fit_per_community", "forecast",
        "format_order", "mask_weights", "max_stage", "nacf", "naive_forecast", "parse_order",
        "pnacf", "read_edge_list", "read_model", "read_panel", "read_partition",
        "render_corbit", "render_rcorbit", "rmspe", "simulate", "single_community",
        "stage_adjacency", "stage_weights", "stationarity_margin", "theta_index",
        "to_local_alpha", "to_var", "write_edge_list", "write_model", "write_panel",
        "write_partition"]
    assert all(hasattr(gnar, name) for name in gnar.__all__)
    assert issubclass(gnar.SizeError, (gnar.DataError, gnar.DesignError,
                                       gnar.NetworkError, gnar.OrderError))


def test_read_panel_memory_follows_the_file_and_the_values(tmp_path):
    """A d = 500, T = 400 panel of one-decimal cells (about 4.5 bytes each): the read may
    hold three copies of the file (its bytes, its text and its lines) and two of the
    values (the rows and the stacked array), about 30 bytes a cell.  A Python float per
    cell, 24 bytes and an 8-byte list slot, does not fit beside them."""
    d, T = 500, 400
    rng = np.random.default_rng(0)
    panel = TimeSeriesPanel(rng.integers(-9, 10, size=(d, T)) / 10, default_node_labels(d),
                            tuple(range(1, T + 1)))
    path = tmp_path / "panel.csv"
    write_panel(panel, path)
    tracemalloc.start()
    try:
        values = read_panel(path).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(values, panel.values)
    assert values.flags.f_contiguous and values.strides == (8, 8 * d)
    assert peak <= 3 * path.stat().st_size + 2 * values.nbytes, (peak, path.stat().st_size)
