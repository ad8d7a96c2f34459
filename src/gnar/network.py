"""Static undirected networks: shortest-path stages and association weights.

A network is a simple undirected graph on nodes 1..d, d at most
:data:`MAX_NODES`.  Its one derived array is the shortest-path distance
matrix, from a breadth-first search of all sources at once over a frontier
bit-packed along the sources (:func:`bfs_distances`).  Stage r marks the
pairs at distance exactly r.  The equal-split weights and the stage-masked
weights W . S_r are read off the distances.  Disconnected
graphs are allowed: unreachable pairs carry the ``UNREACHABLE`` sentinel
and belong to no stage, and isolated nodes get all-zero weight rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, NetworkError, OrderError, check_size
from .textfile import fixed_rows, read_rows, write_text_atomic

#: Sentinel distance for unreachable pairs.
UNREACHABLE = -1

#: Largest node count a network may have.  A d x d float matrix is then at
#: most 800 MB; a larger count from a file is an error, not an allocation.
MAX_NODES = 10_000


@dataclass(frozen=True)
class Network:
    """Simple undirected graph on nodes 1..d.

    ``edges`` may list each undirected pair in either orientation; it is
    stored as a frozenset of sorted 1-based pairs.  Self-loops, ids outside
    1..d and a pair given twice (in either orientation) raise
    :class:`NetworkError` naming the first such pair in iteration order, with
    its position as ``at``.  The distance matrix is derived on first use,
    once per network, and is read-only.
    """

    d: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.d < 1:
            raise NetworkError(f"node count must be >= 1, got {self.d}")
        if self.d > MAX_NODES:
            raise NetworkError(f"node count d = {self.d} is too large for a d x d matrix")
        pairs: set[tuple[int, int]] = set()
        for at, (i, j) in enumerate(self.edges):
            if i == j:
                raise NetworkError(f"self-loop at node {i}", at)
            if not (1 <= i <= self.d) or not (1 <= j <= self.d):
                raise NetworkError(f"edge ({i},{j}) out of range 1..{self.d}", at)
            key = (min(i, j), max(i, j))
            if key in pairs:
                raise NetworkError(f"duplicate edge ({i},{j})", at)
            pairs.add(key)
        object.__setattr__(self, "edges", frozenset(pairs))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def distances(self) -> np.ndarray:
        """All-pairs shortest-path distances (see :func:`bfs_distances`)."""
        dist = bfs_distances(self)
        dist.flags.writeable = False
        return dist

    @property
    def r_max(self) -> int:
        """Largest shortest-path distance realised in the network."""
        return max_stage(self.distances)


def build_network(d: int, edges: list[tuple[int, int]]) -> Network:
    """Build a :class:`Network` from an edge list; :class:`Network` makes every check."""
    return Network(d=d, edges=edges)


def bfs_distances(net: Network) -> np.ndarray:
    """All-pairs unweighted shortest-path distances by level-synchronous BFS.

    Every source is expanded at once.  Row v of ``reached`` is a bit set
    over the sources, 64 to a word, marking those whose search has reached
    node v; the next level's new bits in row v are the OR of the previous
    level's new bits in the rows of v's neighbours, less those already
    set.  A pair's distance is the number of levels it stayed apart.
    Returns an integer d x d matrix with zero diagonal; unreachable pairs
    hold :data:`UNREACHABLE`.
    """
    d = net.d
    ends = np.array(list(net.edges), dtype=np.intp).reshape(-1, 2) - 1
    heads = np.concatenate([ends[:, 0], ends[:, 1]])
    neighbours = np.concatenate([ends[:, 1], ends[:, 0]])[np.argsort(heads, kind="stable")]
    degree = np.bincount(heads, minlength=d)
    linked = degree > 0
    starts = (np.cumsum(degree) - degree)[linked]
    own = np.zeros((d, -(-d // 64) * 64), dtype=bool)
    np.fill_diagonal(own, True)
    reached = np.packbits(own, axis=1).view(np.uint64)
    frontier = reached
    apart = np.zeros((d, d), dtype=np.int16)  # distances are below MAX_NODES
    while True:
        nxt = np.zeros_like(reached)
        nxt[linked] = np.bitwise_or.reduceat(frontier[neighbours], starts, axis=0)
        nxt &= ~reached
        if not nxt.any():
            break
        apart += np.unpackbits((~reached).view(np.uint8), axis=1, count=d)
        reached |= nxt
        frontier = nxt
    connected = np.unpackbits(reached.view(np.uint8), axis=1, count=d).view(bool)
    return np.where(connected, apart, np.int64(UNREACHABLE))


def max_stage(dist: np.ndarray) -> int:
    """Largest finite off-diagonal distance; 0 when no pair is reachable."""
    return max(int(dist.max()), 0)


def stage_adjacency(dist: np.ndarray) -> list[np.ndarray]:
    """Binary stage matrices S_1..S_rmax from a distance matrix.

    ``S_r[i, j] = 1`` exactly when the shortest path from i to j has length
    r.  Returns an empty list for graphs with no reachable pair.
    """
    rmax = max_stage(dist)
    return [(dist == r).astype(float) for r in range(1, rmax + 1)]


def stage_weights(net: Network, W: np.ndarray, r: int) -> list[np.ndarray]:
    """Stage-masked weights W . S_1, ..., W . S_r (an empty list for r = 0).

    This is the one place that checks W against the network's size and r
    against the network's largest stage.
    """
    W = np.asarray(W)
    check_size("weight matrix", W.shape, "network", net.d)
    if not 0 <= r <= net.r_max:
        raise OrderError(f"stage {r} outside the network's stages 0..{net.r_max}")
    return [W * (net.distances == s) for s in range(1, r + 1)]


def default_weights(dist: np.ndarray) -> np.ndarray:
    """Equal-split association weights: w_ij = 1 / #{stage-d(i,j) neighbours of i}.

    Entries are zero on the diagonal and for unreachable pairs.  Rows of
    isolated nodes are all zero.  The matrix need not be symmetric: i and j
    may have different neighbourhood sizes at their common distance.
    """
    d, width = dist.shape[0], max_stage(dist) + 2
    slot = dist - UNREACHABLE  # 0 unreachable, 1 the node itself, r + 1 stage r
    counts = np.bincount((slot + width * np.arange(d)[:, None]).ravel(),
                         minlength=d * width).reshape(d, width)
    inverse = np.divide(1.0, counts, out=np.zeros((d, width)), where=counts > 0)
    inverse[:, :2] = 0.0
    return np.take_along_axis(inverse, slot, axis=1)


def mask_weights(W: np.ndarray, part, c: int) -> np.ndarray:
    """Zero all weights outside community c x community c.

    Surviving entries keep their original values (no renormalisation), so
    the mask is idempotent and commutes with stage masking.
    """
    part.check_community(c)
    check_size("partition", part.d, "weight matrix", W.shape[0])
    member = np.asarray(part.assignment) == c
    return W * np.outer(member, member)


# ---------------------------------------------------------------------------
# file formats: edge lists and weight overrides
# ---------------------------------------------------------------------------

def read_edge_list(path: str | Path, d: int | None = None) -> Network:
    """Read a ``from,to`` edge list with 1-based node ids.

    The node count comes from one ``# d: N`` comment (a second is refused) or
    the ``d`` argument, which wins.  A pair that :class:`Network` rejects
    raises :class:`DataError` naming its line.
    """
    comments, rows = read_rows(path)
    meta_d = meta_ln = None
    for ln, text in comments:
        if text.lower().startswith("d:"):
            if meta_ln is not None:
                raise DataError(f"{path}:{ln}: 'd' was already set on line {meta_ln}")
            try:
                meta_d, meta_ln = int(text[2:]), ln
            except ValueError:
                raise DataError(f"{path}:{ln}: node count must be an integer, "
                                f"got {text!r}") from None
    pairs = list(fixed_rows(path, rows, "from,to", lambda i, j: (int(i), int(j))))
    n = d if d is not None else meta_d
    if n is None:
        raise DataError(f"{path}: node count missing (no '# d: N' line and no override)")
    try:
        return build_network(n, [e for _, e in pairs])
    except NetworkError as exc:
        if exc.at is None:
            raise
        raise DataError(f"{path}:{pairs[exc.at][0]}: {exc}") from None


def format_edge_list(net: Network) -> str:
    lines = [f"# d: {net.d}", "from,to"]
    lines += [f"{i},{j}" for i, j in sorted(net.edges)]
    return "\n".join(lines) + "\n"


def write_edge_list(net: Network, path: str | Path) -> None:
    write_text_atomic(path, format_edge_list(net))


def load_weight_overrides(path: str | Path, W: np.ndarray) -> np.ndarray:
    """Apply ``from,to,w`` overrides on a copy of W; unlisted pairs keep defaults.

    Overrides must be off-diagonal, in range, inside [0, 1] and given once
    each.  Row sums are not re-normalised: custom weightings are the caller's
    contract.
    """
    out = W.copy()
    d = W.shape[0]
    set_on: dict[tuple[int, int], int] = {}
    _, rows = read_rows(path)
    for ln, (i, j, w) in fixed_rows(path, rows, "from,to,w",
                                    lambda i, j, w: (int(i), int(j), float(w))):
        if i == j:
            raise DataError(f"{path}:{ln}: self-pair ({i},{j}) cannot carry weight")
        if not (1 <= i <= d) or not (1 <= j <= d):
            raise DataError(f"{path}:{ln}: pair ({i},{j}) out of range 1..{d}")
        if not (0.0 <= w <= 1.0):
            raise DataError(f"{path}:{ln}: weight {w} outside [0, 1]")
        if set_on.setdefault((i, j), ln) != ln:
            raise DataError(f"{path}:{ln}: pair ({i},{j}) was already set on line {set_on[i, j]}")
        out[i - 1, j - 1] = w
    return out
