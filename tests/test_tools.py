"""The verification tools under ``tools/`` still run against this checkout.

Each tool runs in a fresh interpreter, as from the command line, so a
renamed or removed name in ``src/`` or ``bench/`` that a tool uses fails
here rather than when the tool is next needed.
"""

import importlib.util
import marshal
import re
import shutil
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
    "model": (("--d", "1000", "--runs", "1"), ["read local"], "1000"),
    "panel": (("--d", "20", "--runs", "1"), ["read", "format"], "20"),
    "autocorr": (("--d", "200"), ["pnacf", "nacf"], "200"),
    "startup": (("--runs", "1"), ["import gnar", "import gnar.cli", "gnar simulate",
                                  "gnar nacf", "gnar forecast", "gnar fit"], "-"),
}
ROW = re.compile(r"^(\S+(?: \S+)?) +(\d+|-) +([12])" + r" +\d+\.\d{4}" * 3
                 + r" +-?\d+\.\d +(true|false)  (.+)$", re.M)


@pytest.mark.parametrize("layer", PROBES)
def test_probe_runs(tmp_path, layer):
    """This checkout alone, then against a copy of its ``src/``: a row per case and root."""
    argv, names, d = PROBES[layer]
    shutil.copytree(TOOLS.parent / "src" / "gnar", tmp_path / "src" / "gnar",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for roots in ([TOOLS.parent], [TOOLS.parent, tmp_path]):
        done = run_tool("probe.py", layer, *argv,
                        *(x for root in roots for x in ("--root", str(root))))
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0].split()[1:1 + len(roots)] == [f"root{i}={root}"
                                                      for i, root in enumerate(roots, start=1)]
        rows = ROW.findall(done.stdout)
        assert [row[:3] for row in rows] == [(n, d, str(i)) for n in names
                                             for i in range(1, len(roots) + 1)], done.stdout
        assert len(lines) == 2 + len(roots) * len(names)
        assert lines[1].split() == ["case", "d", "root", "call_med_s", "call_min_s",
                                    "proc_med_s", "peak_mib", "scipy", "result"]
        if layer == "panel":  # one text for every root: the format is byte-stable
            assert {row[4] for row in rows if row[0] == "read"} == {"20 x 200"}
            assert len({row[4] for row in rows if row[0] == "format"}) == 1
        if layer == "autocorr":
            assert all(result.startswith("72 cells, ") for *_, result in rows)
        if layer == "startup":  # only the fit reaches a least-squares solve
            assert [row[0] for row in rows if row[3] == "true"] == ["gnar fit"] * len(roots)


def test_probe_ignores_bytecode_left_in_a_checkout(tmp_path):
    """A ``__pycache__`` entry that matches ``gnar/__init__.py``'s time stamp and size but
    holds other code is never run: each root caches its bytecode in a fresh directory."""
    shutil.copytree(TOOLS.parent / "src" / "gnar", tmp_path / "src" / "gnar",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "gnar" / "__init__.py"
    stale = Path(importlib.util.cache_from_source(str(source)))
    stale.parent.mkdir()
    code = compile("raise SystemExit('stale bytecode ran')", str(source), "exec")
    stat = source.stat()
    stale.write_bytes(importlib.util.MAGIC_NUMBER + b"\0" * 4
                      + int(stat.st_mtime).to_bytes(4, "little")
                      + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little") + marshal.dumps(code))
    ran = subprocess.run([sys.executable, "-c", "import gnar"], cwd=tmp_path / "src",
                         capture_output=True, text=True, timeout=60)
    assert "stale bytecode ran" in ran.stderr  # without a cache prefix it would run
    done = run_tool("probe.py", "network", "--d", "51", "--runs", "1", "--root", str(tmp_path))
    assert done.returncode == 0, done.stderr


def test_probe_refuses_bad_options(tmp_path):
    for argv in (("network", "--runs", "0"), ("startup", "--d", "51"),
                 ("network", *["--root", str(TOOLS.parent)] * 3)):
        done = run_tool("probe.py", *argv)
        assert done.returncode == 2, (argv, done.stderr)
    done = run_tool("probe.py", "network", "--d", "51", "--root", str(tmp_path))
    assert done.returncode != 0
    assert f"no gnar package under {tmp_path / 'src'}" in done.stderr


def test_probe_children_load_numpy_from_a_warmed_cache(tmp_path, monkeypatch):
    """Each timed child finds numpy's bytecode in its root's cache, so the probe times
    gnar rather than the compiling of numpy, even where Python is told to write none."""
    shutil.copytree(TOOLS.parent / "src" / "gnar", tmp_path / "src" / "gnar",
                    ignore=shutil.ignore_patterns("__pycache__"))
    log = tmp_path / "cached.log"
    with open(tmp_path / "src" / "gnar" / "__init__.py", "a") as init:
        init.write(f"\nimport os as _os, numpy as _np\n_c = _np.__spec__.cached\n"
                   f"with open({str(log)!r}, 'a') as _f:\n"
                   "    _f.write(f'{_c}\\t{_os.path.isfile(_c)}\\n')\n")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    done = run_tool("probe.py", "network", "--d", "51", "--runs", "2", "--root", str(tmp_path))
    assert done.returncode == 0, done.stderr
    # The last two lines are the two timed children; any before them warmed the cache.
    timed = [line.split("\t") for line in log.read_text().splitlines()[-2:]]
    assert len(timed) == 2
    for cached, found in timed:
        assert found == "True", cached
        assert not Path(cached).is_relative_to(Path(importlib.util.find_spec("numpy").origin)
                                               .parent)
