"""Time the PNACF and NACF grids on the benchmark's synthetic graphs at d = 200 or 800.

Writes the inputs with ``bench/workloads.py``'s ``corbit-d200`` set-up at the
chosen node count: the seeded spanning tree plus d extra edges, the balanced
three-community partition and a T = 200 panel simulated from the benchmark's
community model.  After the network geometry is derived (untimed), it times
one per-community grid of each kind over 8 lags and 3 stages ``RUNS`` times
and prints the median and minimum times and the degenerate cell counts.  From
the repository root:

    python3 tools/corbit_probe.py --d 800 --seed 1

``--root`` runs another checkout's ``src/`` and ``bench/``, for a comparison
with a parent commit.  One BLAS thread is used, as in the benchmark.  Single
runs vary by up to half their time on a shared machine, hence the repeats.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

RUNS = 5


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--d", type=int, choices=(200, 800), required=True, help="node count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                   help="checkout whose src/ and bench/ are run")
    args = p.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import gnar
    import workloads

    if Path(gnar.__file__).resolve().parent != root / "src" / "gnar":
        sys.exit(f"corbit_probe: imported gnar from {gnar.__file__}, not from {root}")
    size = workloads.Size(d=args.d, extra_edges=args.d, T=200, max_lag=8, max_stage=3)
    with tempfile.TemporaryDirectory() as tmp:
        workloads.setup("corbit-d200", args.seed, size, Path(tmp))
        net = gnar.read_edge_list(Path(tmp) / "edges.csv")
        part = gnar.read_partition(Path(tmp) / "partition.csv")
        panel = gnar.read_panel(Path(tmp) / "panel.csv")
    W = gnar.default_weights(net.distances)
    print(f"d={args.d} seed={args.seed} T={panel.T} communities={part.n_communities} "
          f"grid={size.max_lag} lags x {size.max_stage} stages")
    for kind in ("pnacf", "nacf"):
        seconds = []
        for _ in range(RUNS):
            start = time.perf_counter()
            grid = gnar.corbit_grid(panel, net, W, size.max_lag, size.max_stage, kind, part)
            seconds.append(time.perf_counter() - start)
        print(f"{kind}: median {statistics.median(seconds):.3f} s, min {min(seconds):.3f} s "
              f"over {RUNS} runs, {grid.values.size} cells, "
              f"{int(grid.degenerate.sum())} degenerate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
