"""Benchmark of gnar: one workload per run, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload election-study --seed 1 --seconds 40 --trace 0

One run sets up the workload's inputs from the seed, runs one untimed
warm-up pass, then timed passes for ``--seconds`` (at least
``MIN_PASSES``), checks the outputs, and prints one JSON object as
its last line of standard output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps gnar's public functions (see ``tracer.py``)
and reports the per-layer metrics instead.  The program runs in this
process with one BLAS thread; see README.md.  Every time is divided by the
machine's speed, measured by reference work around it (``reference.py``).
"""

import os

# One BLAS thread, set before numpy loads: CPU time then equals wall time
# and the two-core machine's second core is left to the rest of the system.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = workloads.repo_root()
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Fewest timed passes in a run, whatever ``--seconds`` says.
MIN_PASSES = 5
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget of the timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="'small' shrinks the synthetic graphs for the smoke test")
    p.add_argument("--setup-probe", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)  # set up into DIR, print 'ready', exit
    return p.parse_args(argv)


def import_gnar():
    """Import gnar from this checkout's ``src``, or stop the run."""
    src = ROOT / "src"
    if not (src / "gnar" / "__init__.py").is_file():
        sys.exit(f"bench: no gnar sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import gnar.cli

    if Path(gnar.__file__).resolve().parent != (src / "gnar").resolve():
        sys.exit(f"bench: imported gnar from {gnar.__file__}, not from {src}")
    return gnar.cli


def tree_digest(path: Path) -> dict[str, str]:
    """sha256 of every file under ``path``, keyed by relative name."""
    return {str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.rglob("*")) if f.is_file()}


def time_setups(args, work: Path) -> tuple[float, list[float], dict[str, str]]:
    """Median time from process start to ready-for-the-first-pass.

    Each probe is a fresh interpreter that imports gnar (and with it numpy
    and scipy) and writes the workload's inputs, then reports ready.  Its
    time is divided by the machine's speed around it.  Returns that median,
    the probes' wall times and the digest of the inputs they wrote.
    """
    import reference

    times, walls, digests = [], [], []
    before = reference.measure()
    for k in range(SETUP_PROBES):
        target = work / f"probe{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
               "--setup-probe", str(target)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            sys.exit(f"bench: set-up probe failed with exit code {code}")
        after = reference.measure()
        times.append(elapsed / reference.speed(before, after, workloads.SETUP_PYTHON_SHARE))
        walls.append(elapsed)
        before = after
        digests.append(tree_digest(target))
        shutil.rmtree(target)
    if any(dg != digests[0] for dg in digests):
        sys.exit("bench: set-up wrote different inputs for the same seed")
    return statistics.median(times), walls, digests[0]


def run_pass(cli, ops) -> tuple[float, int]:
    """Time one pass; returns (seconds, operations failed)."""
    failed = 0
    gc.collect()
    start = time.perf_counter()
    for op in ops:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = op.call() if op.call else cli.main(list(op.argv))
        except Exception as exc:  # a failed operation is counted, not fatal
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            failed += 1
            print(f"bench: {op.name} failed ({code}): {sink.getvalue()}", file=sys.stderr)
    return time.perf_counter() - start, failed


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_gnar()
    size = workloads.SIZES[args.size]
    if args.setup_probe:
        workloads.setup(args.workload, args.seed, size, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    # Imported after the probe returns, so that setup_s times only gnar.
    import checks
    import reference
    from tracer import METRICS, Tracer

    share, units = workloads.PYTHON_SHARE[args.workload], dict(METRICS)
    reference.measure()  # untimed, like the warm-up pass
    work = fresh(WORK_DIR / f"{args.workload}-{os.getpid()}")
    try:
        setup_s, setup_walls, probe_inputs = ((None, [], None) if args.trace
                                              else time_setups(args, work))
        inputs, out = work / "inputs", work / "out"
        workloads.setup(args.workload, args.seed, size, inputs)
        problems = []
        if probe_inputs is not None and tree_digest(inputs) != probe_inputs:
            problems.append("inputs differ between set-ups with the same seed")
        ops = workloads.ops(args.workload, args.seed, size, inputs, out)

        fresh(out)
        _, failed = run_pass(cli, ops)  # warm-up, untimed
        first_output = tree_digest(out)
        attempted = len(ops)

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        passes, walls, rounds, layers = [], [], [], []
        start = time.perf_counter()
        before = reference.measure()
        # Start a pass only if it should end within --seconds, judged by the
        # median round (pass plus reference) so far; run at least MIN_PASSES.
        while len(passes) < MIN_PASSES or (time.perf_counter() - start
                                           + statistics.median(rounds) <= args.seconds):
            round_start = time.perf_counter()
            fresh(out)
            mark = tracer.mark() if tracer else None
            seconds, pass_failed = run_pass(cli, ops)
            after = reference.measure()
            slowness = reference.speed(before, after, share)
            before = after
            passes.append(seconds / slowness)
            walls.append(seconds)
            rounds.append(time.perf_counter() - round_start)
            failed += pass_failed
            attempted += len(ops)
            if tracer:
                layer = {name: value / slowness if units[name] == "s" else value
                         for name, value in tracer.summary(mark).items()}
                layers.append(dict(layer, **{"traced.pass_s": passes[-1]}))
            if tree_digest(out) != first_output:
                problems.append(f"pass {len(passes)} wrote files that differ from "
                                "the first pass")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        try:
            problems += checks.CHECKS[args.workload](inputs, out, size)
        except Exception as exc:  # a malformed output fails the check, not the run
            problems.append(f"checking raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK_DIR.rmdir()

    if tracer:
        metrics = {}
        for name, unit in METRICS:
            values = [p[name] for p in layers]
            # Counts repeat exactly from pass to pass; median_low keeps them whole.
            middle = statistics.median(values) if unit == "s" else statistics.median_low(values)
            metrics[name] = {"value": middle, "unit": unit}
    else:
        metrics = {"pass_s": {"value": statistics.median(passes), "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(result, passes=passes, pass_walls=walls,
                                                setup_walls=setup_walls)) + "\n")
    print(f"bench: {args.workload} seed {args.seed}: {len(passes)} passes, pass_s "
          f"{statistics.median(passes):.4f} (wall {statistics.median(walls):.4f})",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
