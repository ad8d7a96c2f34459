"""Print the sha256 of every input and output file of benchmark workloads.

Runs ``bench/workloads.py``'s ``setup`` and one pass of its ``ops`` for each
workload and seed, from the checkout given by ``--root`` (default: this
one), and prints one ``sha256  workload/seed/{inputs,out}/file`` line per
file and one ``sha256  workload/seed/console/op`` line per operation, for
what it printed on stdout and stderr with the work directory replaced by
``<work>``; sorted.  Diffing the output of two checkouts shows which files
and messages a change moved.  From the repository root:

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/output_hashes.py --root /tmp/parent > parent.txt
    python3 tools/output_hashes.py > change.txt
    diff parent.txt change.txt

Each run uses one BLAS thread, as the benchmark does, and works in a
temporary directory that it removes, or in ``--keep DIR`` to compare the
numbers of files that differ.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

GATED = ("election-study", "fit-forecast-d200")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                   help="checkout whose src/ and bench/ are run")
    p.add_argument("--workload", action="append", help=f"default: {' and '.join(GATED)}")
    p.add_argument("--seed", type=int, action="append", help="default: 1 and 7")
    p.add_argument("--keep", metavar="DIR",
                   help="write the files under DIR (not holding an earlier run) and keep them")
    args = p.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import gnar.cli
    import workloads

    if Path(gnar.__file__).resolve().parent != root / "src" / "gnar":
        sys.exit(f"output_hashes: imported gnar from {gnar.__file__}, not from {root}")
    size = workloads.SIZES["full"]
    failed = 0
    for name in args.workload or GATED:
        for seed in args.seed or (1, 7):
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(args.keep) / name / str(seed) if args.keep else Path(tmp)
                inputs, out = work / "inputs", work / "out"
                workloads.setup(name, seed, size, inputs)
                out.mkdir()
                lines = []
                for op in workloads.ops(name, seed, size, inputs, out):
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = op.call() if op.call else gnar.cli.main(list(op.argv))
                    if code != 0:
                        failed += 1
                        print(f"output_hashes: {name} seed {seed}: {op.name} exited "
                              f"{code}: {sink.getvalue()}", file=sys.stderr)
                    console = sink.getvalue().replace(str(work), "<work>").encode()
                    lines.append((console, f"console/{op.name}"))
                lines += [(f.read_bytes(), f.relative_to(work))
                          for f in work.rglob("*") if f.is_file()]
                for data, rel in sorted(lines, key=lambda line: str(line[1])):
                    print(f"{hashlib.sha256(data).hexdigest()}  {name}/{seed}/{rel}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
