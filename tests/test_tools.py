"""The verification tools under ``tools/`` still run against this checkout.

Each tool runs in a fresh interpreter, as from the command line, so a
renamed or removed name in ``src/`` or ``bench/`` that a tool uses fails
here rather than when the tool is next needed.
"""

import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def run_tool(name: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOLS / name), *argv],
                          capture_output=True, text=True, timeout=300)


def test_output_hashes_are_stable_across_runs():
    argv = ("--workload", "election-study", "--seed", "1")
    first, second = run_tool("output_hashes.py", *argv), run_tool("output_hashes.py", *argv)
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert len(lines) == 17
    assert all(re.fullmatch(r"[0-9a-f]{64}  election-study/1/\S.*", line) for line in lines)
    assert second.returncode == 0 and second.stdout == first.stdout


def test_geometry_probe_runs():
    done = run_tool("geometry_probe.py", "--d", "51", "--runs", "1")
    assert done.returncode == 0, done.stderr


def test_corbit_probe_runs():
    done = run_tool("corbit_probe.py", "--d", "200", "--seed", "1")
    assert done.returncode == 0, done.stderr
    assert len(re.findall(r"^(?:pnacf|nacf): .*, 72 cells, ", done.stdout, re.M)) == 2


def test_startup_probe_runs():
    done = run_tool("startup_probe.py", "--runs", "1")
    assert done.returncode == 0, done.stderr
    rows = re.findall(r"^(?:import gnar\S*|gnar \w+) +\d+\.\d{3} +(?:true|false)$",
                      done.stdout, re.M)
    assert len(rows) == 6, done.stdout


def test_solve_probe_runs():
    done = run_tool("solve_probe.py", "--d", "20", "--runs", "1")
    assert done.returncode == 0, done.stderr
    rows = re.findall(r"^ +20 +(\S+) +\d+\.\d{4} +-?\d+\.\d$", done.stdout, re.M)
    assert rows == ["community", "global", "local", "gls", "per-community"], done.stdout
