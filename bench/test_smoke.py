"""Smoke test of the benchmark at its smallest size.

Run from the repository root:

    python -m pytest bench/test_smoke.py

It runs every workload, including ``corbit-d200``, which ``BENCHMARK.json``
does not list.  It checks only that each run prints every metric that
``BENCHMARK.json`` names, with its unit, together with the operations
attempted and failed.  It sets no timing bounds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_metric(workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "small"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
