"""Time one layer of gnar, case by case, in fresh interpreters.

``LAYER`` is a benchmark layer name.  ``network`` derives the distances, the
default weights and the stage weights of stages 1 and 2 of the benchmark's
seeded synthetic graph (``bench/workloads.py``: a spanning tree plus d extra
edges).  ``estimate`` makes each least-squares fit of the benchmark once:
community, global and local OLS, Kronecker GLS with an identity block and
per-community fits; the joint designs are built and scipy imported before
the clock starts.  ``autocorr`` evaluates a PNACF and a NACF grid of 8 lags
x 3 stages per community.  Both run on the synthetic workloads' inputs at
node count d, with a simulated T = 200 panel.  ``panel`` reads that panel
from its file and formats it as file text.  ``model`` reads a local model
file of node count d and 40 lags with no coefficient lines, so every slot is
zero.  ``startup`` imports gnar or runs a command on the five-node test
network (``tests/data``).

Each case is an untimed set-up and a timed call, run in fresh processes one
at a time, with the ``--root`` checkout's ``src/`` on the path, one BLAS
thread and a bytecode cache of its own per root, made fresh for each probe,
so a ``__pycache__`` left in one checkout cannot favour it.  One untimed
process per root first fills that cache, whatever ``PYTHONDONTWRITEBYTECODE``
says: it copies in the installed bytecode of the standard library, numpy
and scipy, and compiles gnar and the benchmark's ``workloads`` into it, so
the timed processes time gnar, not the compiling of numpy and scipy.
Given twice, ``--root`` compares two checkouts: their processes alternate
within each case, so drift of the machine reaches both alike, and each
case prints one row per root.  A row gives the root (1 or 2, as the first line lists them),
the median and minimum call time, the median wall time of a process, the
median ``tracemalloc`` peak of the call, whether scipy was loaded and a
short result.  The peak comes from one more call per process, after the
timed ones and a fresh set-up, so no timed call runs traced and the process
time leaves that part out.  In the ``startup`` layer the traced call finds
gnar's modules loaded, so an import's peak is near zero.  Compare a parent commit (root 1) with the working tree (root 2), from
the repository root:

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/probe.py estimate --root /tmp/parent --root .

Both roots run this checkout's ``bench/`` and ``tests/data``.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
DATA = HERE / "tests" / "data"

# Runs the set-up once and the call ``calls`` times, then the set-up and the
# call once more under tracemalloc, and prints gnar's file, whether scipy is
# loaded, the traced peak in bytes, the seconds the traced part took, the
# result and the call times, separated by tabs.
CHILD = """\
import sys, time, tracemalloc
d, seed = int(sys.argv[1]), int(sys.argv[2])
result = "-"
{setup}
times = []
for _ in range({calls}):
    start = time.perf_counter()
{timed}
    times.append(time.perf_counter() - start)
traced = time.perf_counter()
{setup}
tracemalloc.start()
{call}
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
traced = time.perf_counter() - traced
import gnar
print(gnar.__file__, "scipy" in sys.modules, peak, traced, result, *times, sep="\\t")
"""

GRAPH = """\
import numpy as np
import gnar, workloads
edges = workloads.synthetic_graph(np.random.default_rng(seed), d, d)
net = gnar.build_network(d, edges)
"""
GEOMETRY = """\
W = gnar.default_weights(net.distances)
Bs = gnar.stage_weights(net, W, 2)
result = f"r_max {net.r_max}"
"""
INPUTS = """\
from pathlib import Path
import numpy as np
import gnar, workloads
workloads.setup("fit-forecast-d200", seed, workloads.Size(d, d, 200, 8, 3), Path("inputs"))
net = gnar.read_edge_list("inputs/edges.csv")
part = gnar.read_partition("inputs/partition.csv")
coeffs, model_order = gnar.read_model("inputs/model.txt")
W = gnar.default_weights(net.distances)
panel = gnar.simulate(coeffs, model_order, net, W, 200, part=part, seed=seed)
"""
ORDER = INPUTS + "import scipy.linalg\norder = gnar.parse_order(workloads.%s_ORDER)\n"
DESIGN = ORDER + "ds = gnar.build_design(panel, order, net, W, part)\n"
PARAMETERS = '\nresult = f"{sum(fit.theta.size for fit in fits)} parameters"'
LOCAL_MODEL = """\
from pathlib import Path
import gnar
Path("local.txt").write_text(f"gnar-model v1\\nvariant local\\nd {d}\\np 40\\ns{' 0' * 40}\\n"
                             "sigma 1.0\\n")
"""
GRID = """\
grid = gnar.corbit_grid(panel, net, W, 8, 3, "%s", part)
result = f"{grid.values.size} cells, {int(grid.degenerate.sum())} degenerate"
"""

NET = ["--network", str(DATA / "fivenet_edges.csv"),
       "--partition", str(DATA / "fivenet_partition.csv")]
COMMANDS = {  # run in this order: simulate writes the panel the others read
    "simulate": ["simulate", *NET, "--model", str(DATA / "table1_model.txt"),
                 "--length", "100", "--seed", "1", "--out", "panel.csv"],
    "nacf": ["nacf", *NET, "--panel", "panel.csv", "--max-lag", "4", "--max-stage", "2",
             "--out", "grid.csv"],
    "forecast": ["forecast", *NET, "--panel", "panel.csv",
                 "--model", str(DATA / "table1_model.txt"), "--horizon", "2",
                 "--out", "forecast.csv"],
    "fit": ["fit", *NET, "--panel", "panel.csv", "--order", "community:[1,2];{[1],[1,1]}",
            "--out-dir", "fit"],
}

# layer -> (default node counts, processes per row, calls per process,
#           {case: (set-up, call)}); startup has no node count.
LAYERS = {
    "network": ((51, 200, 800, 2000), 3, 1, {"geometry": (GRAPH, GEOMETRY)}),
    "estimate": ((200, 800), 3, 1, {
        "community": (DESIGN % "COMMUNITY", "fits = [gnar.fit_ols(ds)]" + PARAMETERS),
        "global": (DESIGN % "GLOBAL", "fits = [gnar.fit_ols(ds)]" + PARAMETERS),
        "local": (DESIGN % "LOCAL", "fits = [gnar.fit_ols(ds)]" + PARAMETERS),
        "gls": (DESIGN % "COMMUNITY" + "sigma = gnar.KroneckerCovariance(np.eye(d))\n",
                "fits = [gnar.fit_gls(ds, sigma)]" + PARAMETERS),
        "per-community": (ORDER % "COMMUNITY",
                          "fits = gnar.fit_per_community(panel, order, net, W, part)"
                          + PARAMETERS),
    }),
    "model": ((1000, 10000), 3, 1, {
        "read local": (LOCAL_MODEL, 'coeffs, order = gnar.read_model("local.txt")\n'
                                    'result = f"p {order.p_max}, sigma {coeffs.noise_sd}"'),
    }),
    "panel": ((200, 800), 3, 5, {
        "read": (INPUTS + 'gnar.write_panel(panel, "panel.csv")\n',
                 'read = gnar.read_panel("panel.csv")\nresult = f"{read.d} x {read.T}"'),
        "format": (INPUTS, 'text = gnar.panel.format_panel(panel)\n'
                           'result = f"{len(text)} characters"'),
    }),
    "autocorr": ((200, 800), 1, 5, {kind: (INPUTS, GRID % kind) for kind in ("pnacf", "nacf")}),
    "startup": ((None,), 7, 1, {
        "import gnar": ("", "import gnar"),
        "import gnar.cli": ("", "import gnar.cli"),
        **{f"gnar {name}": ("", f"from gnar.cli import main\nif main({argv!r}):\n"
                                f"    sys.exit('gnar {name} failed')")
           for name, argv in COMMANDS.items()},
    }),
}


# Run once per root before any timing: fills its fresh cache with copies of the installed
# bytecode of the standard library, numpy and scipy (which Python checks against their
# sources, as it does in place), then compiles the root's gnar and the benchmark's
# workloads into it.
WARM = """\
import importlib.util, os, shutil, sys
prefix, sys.pycache_prefix, sys.dont_write_bytecode = sys.pycache_prefix, None, True
import tracemalloc, numpy, numpy.random, scipy.linalg

def cached(origin, under):
    sys.pycache_prefix = under
    return importlib.util.cache_from_source(origin)

for module in list(sys.modules.values()):
    origin = getattr(getattr(module, "__spec__", None), "origin", None) or ""
    installed = cached(origin, None) if origin.endswith(".py") else ""
    if os.path.isfile(installed):
        target = cached(origin, prefix)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copyfile(installed, target)
sys.pycache_prefix, sys.dont_write_bytecode = prefix, False
import gnar, gnar.cli, workloads
"""


def child_env(src: Path, pycache: Path) -> dict[str, str]:
    """The environment of a child running ``src``'s gnar and caching bytecode under
    ``pycache``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE / "bench")]),
                PYTHONPYCACHEPREFIX=str(pycache), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def warm_cache(src: Path, cwd: str, pycache: Path) -> None:
    """Put the bytecode of what the cases import into ``pycache``, in one untimed interpreter
    that writes bytecode whatever ``PYTHONDONTWRITEBYTECODE`` says."""
    done = subprocess.run([sys.executable, "-c", WARM], env=child_env(src, pycache), cwd=cwd,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"probe: warming the bytecode cache of {src} exited {done.returncode}: "
                 f"{done.stderr}")


def run_process(case: str, code: str, d: int | None, seed: int, src: Path, cwd: str,
                pycache: Path) -> tuple[float, list[float], float, str, str]:
    """One fresh interpreter, caching bytecode under ``pycache``: (wall s less the traced
    call's part, call times, call peak MiB, scipy loaded, result)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, str(d or 0), str(seed)],
                          env=child_env(src, pycache), cwd=cwd, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"probe: {case} (d = {d or '-'}) exited {done.returncode}: {done.stderr}")
    origin, scipy, peak, traced, result, *times = done.stdout.splitlines()[-1].split("\t")
    if Path(origin).resolve().parent != src / "gnar":
        sys.exit(f"probe: imported gnar from {origin}, not from {src}")
    return (wall - float(traced), [float(t) for t in times], int(peak) / 2**20,
            scipy.lower(), result)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("layer", choices=LAYERS)
    p.add_argument("--root", action="append",
                   help="checkout whose src/ is run; twice to compare two (default: this one)")
    p.add_argument("--d", type=int, action="append",
                   help="node count, repeatable (default: the layer's)")
    p.add_argument("--seed", type=int, help="input seed (default: 1)")
    p.add_argument("--runs", type=int, help="fresh interpreters per row (default: the layer's)")
    args = p.parse_args(argv)
    sizes, runs, calls, cases = LAYERS[args.layer]
    if args.runs is not None and args.runs < 1:
        p.error("--runs must be >= 1")
    if args.layer == "startup" and (args.d or args.seed is not None):
        p.error("startup takes no --d or --seed")
    if any(d < 5 for d in args.d or ()):  # below 5 the graph cannot hold 2d - 1 edges
        p.error("--d must be >= 5")
    if len(args.root or ()) > 2:
        p.error("--root may be given at most twice")
    srcs = [Path(root).resolve() / "src" for root in args.root or [HERE]]
    for src in srcs:
        if not (src / "gnar").is_dir():
            sys.exit(f"probe: no gnar package under {src}")
    runs, seed = args.runs or runs, 1 if args.seed is None else args.seed
    roots = " ".join(f"root{i}={src.parent}" for i, src in enumerate(srcs, start=1))
    print(f"layer={args.layer} {roots} seed={seed} runs={runs} calls={calls} "
          f"python={sys.version.split()[0]}")
    print(f"{'case':<16} {'d':>5} {'root':>4} {'call_med_s':>10} {'call_min_s':>10} "
          f"{'proc_med_s':>10} {'peak_mib':>8} {'scipy':>5}  result")
    with tempfile.TemporaryDirectory() as tmp:
        for i, src in enumerate(srcs):
            warm_cache(src, tmp, Path(tmp) / f"pycache{i}")
        for d in args.d or sizes:
            for case, (setup, call) in cases.items():
                code = CHILD.format(setup=setup, calls=calls, call=call,
                                    timed=textwrap.indent(call, "    "))
                procs = [[] for _ in srcs]
                for _ in range(runs):
                    for i, src in enumerate(srcs):  # the roots alternate, process by process
                        procs[i].append(run_process(case, code, d, seed, src, tmp,
                                                    Path(tmp) / f"pycache{i}"))
                for i, done in enumerate(procs, start=1):
                    walls, times, peaks, scipy, result = zip(*done)
                    times = [t for calls_s in times for t in calls_s]
                    print(f"{case:<16} {d or '-':>5} {i:>4} {statistics.median(times):10.4f} "
                          f"{min(times):10.4f} {statistics.median(walls):10.4f} "
                          f"{statistics.median(peaks):8.1f} {scipy[-1]:>5}  {result[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
