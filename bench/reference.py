"""Reference work that measures the machine's current speed.

The benchmark's machine shares its cores with other users, and its speed
drifts in phases lasting minutes: in one process, the median election
pass over blocks of 25 passes went from 1.02 s to 0.63 s within five
minutes.  A run's wall time therefore
says as much about the machine as about gnar.  So the benchmark times a
fixed piece of reference work right before and right after each pass and
each set-up, and divides the pass time by the machine's speed measured
that way (see ``speed``).  The result is in seconds at the reference
speed: the time the pass would take if the reference took its nominal
time.  A change to gnar moves the pass time and leaves the reference
alone, so it moves the result in full.

The reference has two parts, each close to a kind of work gnar does:

* ``python``: breadth-first search from every node of a fixed 300-node
  graph, in plain Python (dicts, lists, a queue), like gnar's network
  geometry;
* ``lapack``: a pivoted QR of a fixed 3000 x 150 matrix by
  ``scipy.linalg.qr``, like gnar's least-squares solve.

Neither touches gnar, and neither depends on the run's seed.
"""

from __future__ import annotations

import random
import time

import numpy as np
import scipy.linalg

#: Median time of each part on the reference machine (two vCPUs of an
#: Intel Xeon at 2.0 GHz, one BLAS thread).  The values only fix the unit:
#: at these times the speed factor is 1 and reported seconds are wall
#: seconds.
NOMINAL_S = {"python": 0.105, "lapack": 0.09}

_rng = random.Random(20240117)
_N = 300
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _k in range(1, _N):
    _j = _rng.randrange(_k)
    _ADJ[_k].append(_j)
    _ADJ[_j].append(_k)
for _ in range(_N):
    _a, _b = _rng.randrange(_N), _rng.randrange(_N)
    if _a != _b:
        _ADJ[_a].append(_b)
        _ADJ[_b].append(_a)
_MATRIX = np.random.default_rng(20240117).standard_normal((3000, 150))


def _python() -> int:
    total = 0
    for _ in range(3):
        for source in range(_N):
            dist = {source: 0}
            queue = [source]
            for u in queue:
                for v in _ADJ[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            total += sum(dist.values())
    return total


def _lapack() -> float:
    total = 0.0
    for _ in range(3):
        r = scipy.linalg.qr(_MATRIX, mode="r", pivoting=True)[0]
        total += float(abs(r[0, 0]))
    return total


_PARTS = {"python": _python, "lapack": _lapack}


def measure() -> dict[str, float]:
    """Seconds each part of the reference takes now."""
    times = {}
    for name, part in _PARTS.items():
        start = time.perf_counter()
        part()
        times[name] = time.perf_counter() - start
    return times


def speed(before: dict[str, float], after: dict[str, float],
          python_share: float) -> float:
    """Slowness of the machine around one timed interval, 1 at nominal speed.

    Each part's time, averaged over the measurements before and after the
    interval, is divided by its nominal time, and the two ratios are mixed
    by ``python_share``: the share of the timed work that is interpreted
    Python rather than LAPACK.
    """
    def ratio(name):
        return (before[name] + after[name]) / 2 / NOMINAL_S[name]
    return python_share * ratio("python") + (1 - python_share) * ratio("lapack")
