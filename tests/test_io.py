import numpy as np
import pytest

from gnar.errors import DataError, GnarError
from gnar.panel import TimeSeriesPanel, format_panel, read_panel, write_panel
from gnar.partition import (CommunityPartition, read_partition, single_community,
                            write_partition)


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
    assert np.array_equal(part.indicator(1), np.ones(4))


def test_partition_read_rejects_gaps(tmp_path):
    path = tmp_path / "part.csv"
    path.write_text("node,community\n1,1\n3,1\n")
    with pytest.raises(DataError, match="without assignment"):
        read_partition(path)
    path.write_text("node,community\n1,1\n1,2\n")
    with pytest.raises(DataError, match="twice"):
        read_partition(path)


def test_partition_read_rejects_non_numeric(tmp_path):
    path = tmp_path / "part.csv"
    for body, ln in [("node,community\n1,x\n", 2), ("node,community\nx,1\n", 2),
                     ("# label x: Red\nnode,community\n1,1\n", 1),
                     ("# label 1 Red\nnode,community\n1,1\n", 1)]:
        path.write_text(body)
        with pytest.raises(DataError, match=f"part.csv:{ln}: "):
            read_partition(path)
