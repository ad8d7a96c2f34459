"""Disjoint covering assignment of nodes to communities."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from .errors import DataError, GnarError
from .textfile import check_cell, fixed_rows, located, read_rows, write_text_atomic

#: Names of the across-community rows of a grid file, so no community may take them.
RESERVED_LABELS = ("all", "mean")


def _absent(ids: set[int] | dict[int, int], n: int) -> str:
    """The first five ids of 1..n not in ``ids``, found in at most len(ids) + 6 steps."""
    first = list(islice((i for i in range(1, n + 1) if i not in ids), 6))
    return ", ".join(map(str, first[:5])) + (", ..." if len(first) > 5 else "")


@dataclass(frozen=True)
class CommunityPartition:
    """Assignment of nodes 1..d to communities 1..C.

    Every node belongs to exactly one community and every community id in
    1..C is nonempty.  ``labels`` are distinct, nonempty display names in
    community order; none is one of :data:`RESERVED_LABELS`.  A node or label
    breaking these rules raises GnarError ``at`` its index in ``assignment`` or ``labels``.
    """

    assignment: tuple[int, ...]
    n_communities: int
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        C = self.n_communities
        if C < 1:
            raise GnarError(f"community count must be >= 1, got {C}")
        for i, c in enumerate(self.assignment):
            if not (1 <= c <= C):
                raise GnarError(f"node {i + 1} assigned to community {c}, outside 1..{C}",
                                ("assignment", i))
        if len(used := set(self.assignment)) != C:
            raise GnarError(f"empty communities: {_absent(used, C)}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(c) for c in range(1, C + 1)))
        elif len(self.labels) != C:
            raise GnarError("labels length must equal the community count")
        # Of two communities sharing a label, one whose id it is keeps it, else the earlier.
        owner = {label: c for c, label in enumerate(self.labels, start=1) if label == str(c)}
        for c, label in enumerate(self.labels, start=1):
            for bad, why in ((not label, "is empty"),
                             (label in RESERVED_LABELS, "is reserved for grid rows"),
                             (owner.setdefault(label, c) != c,
                              f"is community {owner[label]}'s label too")):
                if bad:
                    raise GnarError(f"community {c} label {label!r} {why}", ("labels", c - 1))

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

    def label_of(self, c: int) -> str:
        self.check_community(c)
        return self.labels[c - 1]


def single_community(d: int) -> CommunityPartition:
    """The trivial partition putting every node in community 1."""
    return CommunityPartition(assignment=(1,) * d, n_communities=1)


def read_partition(path: str | Path) -> CommunityPartition:
    """Read a ``node,community`` CSV; optional ``# label c: name`` comments.

    A community without a comment is labelled by its id.  What :class:`CommunityPartition`
    refuses raises :class:`DataError` at the node's row or the community's comment.
    """
    comments, rows = read_rows(path)
    pairs: dict[int, int] = {}
    labels: dict[int, str] = {}
    first_on: dict[int, int] = {}
    label_on: dict[int, int] = {}
    for ln, text in comments:
        if text.lower().startswith("label "):
            if not (match := re.fullmatch(r"label\s+(-?\d+)\s*:(.*)", text, re.I)):
                raise DataError(f"{path}:{ln}: expected '# label C: name', got {text!r}")
            c, name = int(match[1]), match[2].strip()
            why = ("holds a comma" if "," in name
                   else f"repeats line {label_on[c]}'s label" if c in labels else "")
            if why:
                raise DataError(f"{path}:{ln}: community {c} label {name!r} {why}")
            labels[c], label_on[c] = name, ln
    for ln, (node, c) in fixed_rows(path, rows, "node,community", lambda n, c: (int(n), int(c))):
        if node in pairs:
            raise DataError(f"{path}:{ln}: node {node} assigned twice, "
                            f"first on line {first_on[node]}")
        pairs[node], first_on[node] = c, ln
    if not pairs:
        raise DataError(f"{path}: empty partition file")
    d = len(pairs)
    if missing := _absent(pairs, max(d, max(pairs))):
        raise DataError(f"{path}: nodes without assignment: {missing}")
    C = max(*pairs.values(), 1)
    if C > d:  # so a huge id never reaches the record's O(C) labels
        raise DataError(f"{path}: community {C} but only {d} nodes to fill it")
    for c, ln in label_on.items():
        if not 1 <= c <= C:
            raise DataError(f"{path}:{ln}: label for community {c}, outside 1..{C}")
    return located(path, lambda: CommunityPartition(  # a community's line is its comment's
        tuple(pairs[i] for i in range(1, d + 1)), C,
        tuple(labels.get(c, str(c)) for c in range(1, C + 1))),
        lambda at: (first_on if at[0] == "assignment" else label_on).get(at[1] + 1))


def format_partition(part: CommunityPartition) -> str:
    """The partition file; a label that would not read back as written raises GnarError."""
    for c, label in enumerate(part.labels, start=1):
        check_cell(f"community {c} label", label)
    lines = [f"# label {c}: {part.labels[c - 1]}" for c in range(1, part.n_communities + 1)]
    lines.append("node,community")
    lines += [f"{i},{c}" for i, c in enumerate(part.assignment, start=1)]
    return "\n".join(lines) + "\n"


def write_partition(part: CommunityPartition, path: str | Path) -> None:
    write_text_atomic(path, format_partition(part))
