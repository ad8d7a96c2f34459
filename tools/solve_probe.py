"""Time the least-squares fits, and their memory, at d = 200 and d = 800 in fresh interpreters.

For each node count d it writes the inputs of ``bench/workloads.py``'s
``fit-forecast-d200`` set-up at that size (the seeded spanning tree plus d
extra edges, the balanced three-community partition and the community
model) and simulates a T = 200 panel from the model.  Then, in a new Python
process per run, it times one fit of each kind the benchmark makes:

- ``community``, ``global`` and ``local``: ``fit_ols`` on the joint design
  of the benchmark's community, global and local orders;
- ``gls``: ``fit_gls`` with an identity ``KroneckerCovariance`` block on the
  community design;
- ``per-community``: ``fit_per_community`` on the community order, which
  builds its three designs inside the timed call.

The joint designs are built, and scipy is imported, before the clock starts.
It prints the median wall time of the fit and the median growth of the
process's peak resident set (``ru_maxrss``) across it, over ``--runs``
processes run one at a time with one BLAS thread.  From the repository root:

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/solve_probe.py --root /tmp/parent
    python3 tools/solve_probe.py

Both runs take the input generator from this checkout's ``bench/``, so only
the ``src/`` they run differs.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
FITS = ("community", "global", "local", "gls", "per-community")
# Prints "<gnar's file> <seconds> <peak RSS growth in KiB>".
CHILD = """\
import resource, sys, tempfile, time
from pathlib import Path
import numpy as np
import scipy.linalg
import gnar, workloads
d, seed, fit = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
with tempfile.TemporaryDirectory() as tmp:
    workloads.setup("fit-forecast-d200", seed, workloads.Size(d, d, 200, 8, 3), Path(tmp))
    net = gnar.read_edge_list(Path(tmp) / "edges.csv")
    part = gnar.read_partition(Path(tmp) / "partition.csv")
    coeffs, model_order = gnar.read_model(Path(tmp) / "model.txt")
W = gnar.default_weights(net.distances)
panel = gnar.simulate(coeffs, model_order, net, W, 200, part=part, seed=seed)
order = gnar.parse_order({"global": workloads.GLOBAL_ORDER,
                          "local": workloads.LOCAL_ORDER}.get(fit, workloads.COMMUNITY_ORDER))
if fit == "per-community":
    run = lambda: gnar.fit_per_community(panel, order, net, W, part)
else:
    ds = gnar.build_design(panel, order, net, W, part)
    if fit == "gls":
        sigma = gnar.KroneckerCovariance(np.eye(d))
        run = lambda: gnar.fit_gls(ds, sigma)
    else:
        run = lambda: gnar.fit_ols(ds)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
run()
seconds = time.perf_counter() - start
growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(gnar.__file__, seconds, growth)
"""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(HERE), help="checkout whose src/ is run")
    p.add_argument("--d", type=int, action="append", help="node count (default: 200 and 800)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=3, help="fresh interpreters per fit and size")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be >= 1")
    sizes = args.d or [200, 800]
    if any(d < 5 for d in sizes):  # below 5 the graph cannot hold 2d - 1 edges
        p.error("--d must be >= 5")
    src = Path(args.root).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE / "bench")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    print(f"root={src.parent} seed={args.seed} runs={args.runs} "
          f"python={sys.version.split()[0]}")
    print(f"{'d':>5} {'fit':>14} {'median_s':>9} {'rss_growth_mib':>14}")
    for d in sizes:
        for fit in FITS:
            times, growths = [], []
            for _ in range(args.runs):
                done = subprocess.run([sys.executable, "-c", CHILD, str(d), str(args.seed),
                                       fit], env=env, capture_output=True, text=True)
                if done.returncode != 0:
                    sys.exit(f"solve_probe: d = {d} {fit} exited {done.returncode}: "
                             f"{done.stderr}")
                origin, seconds, growth = done.stdout.split()
                if Path(origin).resolve().parent != src / "gnar":
                    sys.exit(f"solve_probe: imported gnar from {origin}, not from {src}")
                times.append(float(seconds))
                growths.append(int(growth) / 1024)
            print(f"{d:>5} {fit:>14} {statistics.median(times):9.4f} "
                  f"{statistics.median(growths):14.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
