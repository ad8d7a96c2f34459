"""Disjoint covering assignment of nodes to communities."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, GnarError


@dataclass(frozen=True)
class CommunityPartition:
    """Assignment of nodes 1..d to communities 1..C.

    Every node belongs to exactly one community and every community id in
    1..C is nonempty.  ``labels`` are display names in community order.
    """

    assignment: tuple[int, ...]
    n_communities: int
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        C = self.n_communities
        if C < 1:
            raise GnarError(f"community count must be >= 1, got {C}")
        used = set()
        for i, c in enumerate(self.assignment, start=1):
            if not (1 <= c <= C):
                raise GnarError(f"node {i} assigned to community {c}, outside 1..{C}")
            used.add(c)
        if used != set(range(1, C + 1)):
            missing = sorted(set(range(1, C + 1)) - used)
            raise GnarError(f"empty communities: {missing}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(c) for c in range(1, C + 1)))
        elif len(self.labels) != C:
            raise GnarError("labels length must equal the community count")

    @property
    def d(self) -> int:
        return len(self.assignment)

    def check_community(self, c: int) -> None:
        if not (1 <= c <= self.n_communities):
            raise GnarError(f"unknown community id {c} (valid: 1..{self.n_communities})")

    def community_of(self, node: int) -> int:
        """Community id of a 1-based node."""
        return self.assignment[node - 1]

    def members(self, c: int) -> list[int]:
        """1-based ids of the nodes in community c."""
        self.check_community(c)
        return [i for i, a in enumerate(self.assignment, start=1) if a == c]

    def indicator(self, c: int) -> np.ndarray:
        """0/1 membership vector for community c (length d)."""
        self.check_community(c)
        return np.asarray([1.0 if a == c else 0.0 for a in self.assignment])

    def label_of(self, c: int) -> str:
        self.check_community(c)
        return self.labels[c - 1]


def single_community(d: int) -> CommunityPartition:
    """The trivial partition putting every node in community 1."""
    return CommunityPartition(assignment=(1,) * d, n_communities=1)


def read_partition(path: str | Path) -> CommunityPartition:
    """Read a ``node,community`` CSV; optional ``# label c: name`` comments."""
    lines = Path(path).read_text().splitlines()
    pairs: dict[int, int] = {}
    labels: dict[int, str] = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("label "):
                try:
                    head, name = body.split(":", 1)
                    labels[int(head.split()[1])] = name.strip()
                except (ValueError, IndexError):
                    raise DataError(f"{path}:{ln}: expected '# label C: name', "
                                    f"got {line!r}") from None
            continue
        if line.lower().replace(" ", "") == "node,community":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{ln}: expected 'node,community', got {line!r}")
        try:
            node, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"{path}:{ln}: node and community must be integers, "
                            f"got {line!r}") from None
        if node in pairs:
            raise DataError(f"{path}:{ln}: node {node} assigned twice")
        pairs[node] = c
    if not pairs:
        raise DataError(f"{path}: empty partition file")
    d = max(pairs)
    if sorted(pairs) != list(range(1, d + 1)):
        missing = sorted(set(range(1, d + 1)) - set(pairs))
        raise DataError(f"{path}: nodes without assignment: {missing}")
    C = max(pairs.values())
    label_tuple = tuple(labels.get(c, str(c)) for c in range(1, C + 1)) if labels else ()
    return CommunityPartition(
        assignment=tuple(pairs[i] for i in range(1, d + 1)),
        n_communities=C,
        labels=label_tuple,
    )


def format_partition(part: CommunityPartition) -> str:
    lines = [f"# label {c}: {part.labels[c - 1]}" for c in range(1, part.n_communities + 1)]
    lines.append("node,community")
    lines += [f"{i},{c}" for i, c in enumerate(part.assignment, start=1)]
    return "\n".join(lines) + "\n"


def write_partition(part: CommunityPartition, path: str | Path) -> None:
    Path(path).write_text(format_partition(part))
