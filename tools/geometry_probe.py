"""Time one derivation of network geometry, and its memory, in fresh interpreters.

For each node count d (51, 200, 800 and 2000 by default) it builds the
benchmark's seeded synthetic graph (``bench/workloads.py``: a spanning tree
plus d extra edges) and, in a new Python process, derives what a ``gnar``
command derives from a network: the distance matrix, the default weights
and the stage-masked weights of stages 1 and 2.  It prints the median wall
time of that derivation and the median growth of the process's peak
resident set (``ru_maxrss``) across it, over ``--runs`` processes run one
at a time with one BLAS thread.  Building the graph and the ``Network`` is
not timed.  From the repository root:

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/geometry_probe.py --root /tmp/parent
    python3 tools/geometry_probe.py

Both runs take the graph generator from this checkout's ``bench/``, so only
the ``src/`` they run differs.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
# Prints "<gnar's file> <seconds> <peak RSS growth in KiB>".
CHILD = """\
import resource, sys, time
import numpy as np
import gnar, workloads
d, seed = int(sys.argv[1]), int(sys.argv[2])
edges = workloads.synthetic_graph(np.random.default_rng(seed), d, d)
net = gnar.build_network(d, edges)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
W = gnar.default_weights(net.distances)
Bs = gnar.stage_weights(net, W, 2)
seconds = time.perf_counter() - start
growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(gnar.__file__, seconds, growth)
"""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(HERE), help="checkout whose src/ is run")
    p.add_argument("--d", type=int, action="append", help="node count (default: 51, 200, "
                   "800 and 2000)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=3, help="fresh interpreters per size")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be >= 1")
    sizes = args.d or [51, 200, 800, 2000]
    if any(d < 5 for d in sizes):  # below 5 the graph cannot hold 2d - 1 edges
        p.error("--d must be >= 5")
    src = Path(args.root).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE / "bench")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    print(f"root={src.parent} seed={args.seed} runs={args.runs} "
          f"python={sys.version.split()[0]}")
    print(f"{'d':>5} {'median_s':>9} {'rss_growth_mib':>14}")
    for d in sizes:
        times, growths = [], []
        for _ in range(args.runs):
            done = subprocess.run([sys.executable, "-c", CHILD, str(d), str(args.seed)],
                                  env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"geometry_probe: d = {d} exited {done.returncode}: {done.stderr}")
            origin, seconds, growth = done.stdout.split()
            if Path(origin).resolve().parent != src / "gnar":
                sys.exit(f"geometry_probe: imported gnar from {origin}, not from {src}")
            times.append(float(seconds))
            growths.append(int(growth) / 1024)
        print(f"{d:>5} {statistics.median(times):9.4f} {statistics.median(growths):14.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
