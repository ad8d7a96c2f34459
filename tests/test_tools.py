"""The verification tools under ``tools/`` still run against this checkout.

Each tool runs in a fresh interpreter, as from the command line, so a
renamed or removed name in ``src/`` or ``bench/`` that a tool uses fails
here rather than when the tool is next needed.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# layer -> (smallest options, expected case names, expected node count column)
PROBES = {
    "network": (("--d", "51", "--runs", "1"), ["geometry"], "51"),
    "estimate": (("--d", "20", "--runs", "1"),
                 ["community", "global", "local", "gls", "per-community"], "20"),
    "autocorr": (("--d", "200"), ["pnacf", "nacf"], "200"),
    "startup": (("--runs", "1"), ["import gnar", "import gnar.cli", "gnar simulate",
                                  "gnar nacf", "gnar forecast", "gnar fit"], "-"),
}
ROW = re.compile(r"^(\S+(?: \S+)?) +(\d+|-)" + r" +\d+\.\d{4}" * 3
                 + r" +-?\d+\.\d +(true|false)  (.+)$", re.M)


@pytest.mark.parametrize("layer", PROBES)
def test_probe_runs(layer):
    argv, names, d = PROBES[layer]
    done = run_tool("probe.py", layer, *argv)
    assert done.returncode == 0, done.stderr
    rows = ROW.findall(done.stdout)
    assert [(name, size) for name, size, _, _ in rows] == [(n, d) for n in names], done.stdout
    assert len(done.stdout.splitlines()) == 2 + len(names)
    assert done.stdout.splitlines()[1].split() == [
        "case", "d", "call_med_s", "call_min_s", "proc_med_s", "peak_mib", "scipy", "result"]
    if layer == "autocorr":
        assert all(result.startswith("72 cells, ") for *_, result in rows)
    if layer == "startup":  # only the fit reaches a least-squares solve
        assert [name for name, _, scipy, _ in rows if scipy == "true"] == ["gnar fit"]


def test_probe_refuses_bad_options(tmp_path):
    for argv in (("network", "--runs", "0"), ("startup", "--d", "51")):
        done = run_tool("probe.py", *argv)
        assert done.returncode == 2, (argv, done.stderr)
    done = run_tool("probe.py", "network", "--d", "51", "--root", str(tmp_path))
    assert done.returncode != 0
    assert f"no gnar package under {tmp_path / 'src'}" in done.stderr
