"""Time cold starts of gnar: imports and short CLI commands in fresh interpreters.

For each case it starts ``--runs`` new Python processes, one at a time, with
the checkout's ``src/`` on ``PYTHONPATH`` and one BLAS thread, and prints the
median wall time of a process (interpreter start included) and whether it
had loaded scipy when it finished.  The cases are ``import gnar``,
``import gnar.cli`` and the ``simulate``, ``nacf``, ``forecast`` and ``fit``
subcommands on the five-node test network (``tests/data``); the commands
work in a temporary directory that is removed afterwards.  From the
repository root:

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/startup_probe.py --root /tmp/parent
    python3 tools/startup_probe.py

Both runs read this checkout's ``tests/data``, so only the code differs.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
DATA = HERE / "tests" / "data"
NET = ["--network", str(DATA / "fivenet_edges.csv"),
       "--partition", str(DATA / "fivenet_partition.csv")]
COMMANDS = {
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
# Each case ends by printing where gnar came from and whether scipy is loaded.
REPORT = "print(gnar.__file__, 'scipy' in sys.modules)"
RUN_MAIN = ("import sys, gnar\nfrom gnar.cli import main\n"
            f"code = main(sys.argv[1:])\n{REPORT}\nsys.exit(code)")
CASES = {  # name -> (code for python -c, its arguments)
    "import gnar": (f"import sys, gnar; {REPORT}", []),
    "import gnar.cli": (f"import sys, gnar, gnar.cli; {REPORT}", []),
    **{f"gnar {name}": (RUN_MAIN, argv) for name, argv in COMMANDS.items()},
}


def run_case(code: str, argv: list[str], env: dict, cwd: str) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"startup_probe: {argv or code!r} exited {done.returncode}: {done.stderr}")
    return seconds, done.stdout.splitlines()[-1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(HERE), help="checkout whose src/ is run")
    p.add_argument("--runs", type=int, default=7, help="fresh interpreters per case")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be >= 1")
    src = Path(args.root).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    print(f"root={src.parent} runs={args.runs} python={sys.version.split()[0]}")
    print(f"{'case':<16} {'median_s':>8}  scipy_loaded")
    with tempfile.TemporaryDirectory() as tmp:
        for case, (code, cmd) in CASES.items():
            times = []
            for _ in range(args.runs):
                seconds, report = run_case(code, cmd, env, tmp)
                times.append(seconds)
            origin, loaded = report.rsplit(" ", 1)
            if Path(origin).resolve().parent != src / "gnar":
                sys.exit(f"startup_probe: imported gnar from {origin}, not from {src}")
            print(f"{case:<16} {statistics.median(times):8.3f}  {loaded.lower()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
