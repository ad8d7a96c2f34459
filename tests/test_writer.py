"""Every gnar file, from the CLI or a ``write_*`` function, goes through
``textfile.write_text_atomic``: UTF-8 whatever the locale, the umask's mode,
and a failed write changes nothing."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gnar.cli
import gnar.textfile
from gnar.cli import main
from gnar.network import build_network, write_edge_list
from gnar.panel import TimeSeriesPanel, read_panel, write_panel
from gnar.partition import read_partition
from gnar.textfile import write_text_atomic

SRC = Path(__file__).resolve().parent.parent / "src"
MODEL = "gnar-model v1\nvariant global\np 1\ns 1\nsigma 1.0\nalpha 1 0.3\nbeta 1 1 0.1\n"
FORECAST = ["forecast", "--network", "edges.csv", "--panel", "panel.csv",
            "--model", "model.txt", "--horizon", "2", "--out", "forecast.csv"]

# Runs in a C locale: refuses to run in a UTF-8 one, else writes a partition
# and a forecast whose labels are not ASCII.
C_LOCALE_SCRIPT = f"""
import locale, sys
if locale.getpreferredencoding(False).lower().replace("-", "") == "utf8":
    sys.exit(3)
from gnar.cli import main
from gnar.partition import CommunityPartition, write_partition
write_partition(CommunityPartition((1, 2), 2, labels=("\\u00e9", "b")), "part.csv")
sys.exit(main({FORECAST!r}))
"""


def inputs(where: Path) -> TimeSeriesPanel:
    """A two-node network, a global model and a panel whose first node is 'é'."""
    panel = TimeSeriesPanel(np.arange(6.0).reshape(2, 3) / 10, ("é", "b"), ("1", "2", "3"))
    write_panel(panel, where / "panel.csv")
    write_edge_list(build_network(2, [(1, 2)]), where / "edges.csv")
    write_text_atomic(where / "model.txt", MODEL)
    return panel


def test_files_are_utf8_in_any_locale(tmp_path):
    panel = inputs(tmp_path)
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                                          if p))
    done = subprocess.run([sys.executable, "-c", C_LOCALE_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    if done.returncode == 3:
        pytest.skip("the C locale is UTF-8 on this platform")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "forecast.csv").read_bytes().decode("utf-8").splitlines()[2] == "time,é,b"
    assert read_panel(tmp_path / "forecast.csv").node_labels == panel.node_labels
    assert (tmp_path / "part.csv").read_bytes().decode("utf-8").startswith("# label 1: é\n")
    assert read_partition(tmp_path / "part.csv").labels == ("é", "b")


def test_cli_and_library_files_take_the_umask_mode(tmp_path, monkeypatch):
    old = os.umask(0o022)
    try:
        inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "forecast.csv").write_text("old\n")
        (tmp_path / "forecast.csv").chmod(0o600)
        assert main(FORECAST) == 0
        write_panel(read_panel("forecast.csv"), tmp_path / "new" / "dir" / "panel.csv")
    finally:
        os.umask(old)
    for path in ("forecast.csv", "new/dir/panel.csv", "panel.csv"):
        assert (tmp_path / path).stat().st_mode & 0o777 == 0o644, path


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "panel.csv"
    target.write_bytes(b"old\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(target, "\ud800")

    def disk_full(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError, match="no space"):
        write_text_atomic(target, "new\n")
    assert target.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]


def test_the_cli_writes_through_the_one_writer():
    """The benchmark's tracer counts CLI files by this name."""
    assert gnar.cli.write_text_atomic is gnar.textfile.write_text_atomic
