"""US presidential returns: ingestion, state classification and preprocessing.

The loader consumes the MIT Election Data and Science Lab per-candidate
CSV and produces the 51 x 12 panel of Republican vote percentages for the
quadrennial elections 1976..2020, states ordered alphabetically.  Columns
go by header name, the last repeat winning: ``year``, ``state``,
``candidatevotes``, ``totalvotes``, the first of ``party_simplified``,
``party`` and ``party_detailed``, and an optional ``office`` (blank or US
PRESIDENT rows count).  A row with other than the header's cell count, like
any malformed cell, raises ``DataError`` naming ``file:line``.  The share
divides by all votes cast; fusion tickets sum through the party label.

States are classified Red/Blue/Swing by the share of elections won: a
party winning at least 75% of the twelve contests (i.e. nine or more)
claims the state, otherwise it is a Swing state.  A "win" is a plurality
of that state's popular vote between the two major parties; ties (never
observed) would count for neither.

The border network connects states sharing a land border.  The embedded
contiguity list includes DC-Maryland and DC-Virginia, leaves Alaska and
Hawaii isolated, and treats the four-corners point contacts (AZ-CO and
NM-UT) as not adjacent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import DataError, GnarError
from .network import Network, build_network
from .panel import TimeSeriesPanel
from .partition import CommunityPartition
from .textfile import read_text

ELECTION_YEARS = tuple(range(1976, 2024, 4))

#: 50 states plus the District of Columbia, alphabetical by name.
STATE_NAMES = (
    "ALABAMA", "ALASKA", "ARIZONA", "ARKANSAS", "CALIFORNIA", "COLORADO",
    "CONNECTICUT", "DELAWARE", "DISTRICT OF COLUMBIA", "FLORIDA", "GEORGIA",
    "HAWAII", "IDAHO", "ILLINOIS", "INDIANA", "IOWA", "KANSAS", "KENTUCKY",
    "LOUISIANA", "MAINE", "MARYLAND", "MASSACHUSETTS", "MICHIGAN", "MINNESOTA",
    "MISSISSIPPI", "MISSOURI", "MONTANA", "NEBRASKA", "NEVADA", "NEW HAMPSHIRE",
    "NEW JERSEY", "NEW MEXICO", "NEW YORK", "NORTH CAROLINA", "NORTH DAKOTA",
    "OHIO", "OKLAHOMA", "OREGON", "PENNSYLVANIA", "RHODE ISLAND",
    "SOUTH CAROLINA", "SOUTH DAKOTA", "TENNESSEE", "TEXAS", "UTAH", "VERMONT",
    "VIRGINIA", "WASHINGTON", "WEST VIRGINIA", "WISCONSIN", "WYOMING",
)

_POSTAL = (
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "DC", "FL", "GA", "HI",
    "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN",
    "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY", "NC", "ND", "OH",
    "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA",
    "WV", "WI", "WY",
)

#: Land-border contiguity, each border once, under the state that comes first in
#: ``_POSTAL``; AK and HI are absent (isolated).
_BORDERS = {
    "AL": ("FL", "GA", "MS", "TN"),
    "AZ": ("CA", "NV", "NM", "UT"),
    "AR": ("LA", "MS", "MO", "OK", "TN", "TX"),
    "CA": ("NV", "OR"),
    "CO": ("KS", "NE", "NM", "OK", "UT", "WY"),
    "CT": ("MA", "NY", "RI"),
    "DE": ("MD", "NJ", "PA"),
    "DC": ("MD", "VA"),
    "FL": ("GA",),
    "GA": ("NC", "SC", "TN"),
    "ID": ("MT", "NV", "OR", "UT", "WA", "WY"),
    "IL": ("IN", "IA", "KY", "MO", "WI"),
    "IN": ("KY", "MI", "OH"),
    "IA": ("MN", "MO", "NE", "SD", "WI"),
    "KS": ("MO", "NE", "OK"),
    "KY": ("MO", "OH", "TN", "VA", "WV"),
    "LA": ("MS", "TX"),
    "ME": ("NH",),
    "MD": ("PA", "VA", "WV"),
    "MA": ("NH", "NY", "RI", "VT"),
    "MI": ("OH", "WI"),
    "MN": ("ND", "SD", "WI"),
    "MS": ("TN",),
    "MO": ("NE", "OK", "TN"),
    "MT": ("ND", "SD", "WY"),
    "NE": ("SD", "WY"),
    "NV": ("OR", "UT"),
    "NH": ("VT",),
    "NJ": ("NY", "PA"),
    "NM": ("OK", "TX"),
    "NY": ("PA", "VT"),
    "NC": ("SC", "TN", "VA"),
    "ND": ("SD",),
    "OH": ("PA", "WV"),
    "OK": ("TX",),
    "OR": ("WA",),
    "PA": ("WV",),
    "SD": ("WY",),
    "TN": ("VA",),
    "UT": ("WY",),
    "VA": ("WV",),
}

COMMUNITY_LABELS = ("Red", "Blue", "Swing")


def us_border_network() -> Network:
    """The 51-node land-border network, nodes in alphabetical state order."""
    index = {code: i + 1 for i, code in enumerate(_POSTAL)}
    return build_network(len(_POSTAL), [(index[a], index[b]) for a, nbrs in _BORDERS.items()
                                        for b in nbrs])


@dataclass(frozen=True, eq=False)
class ElectionPanel:
    """Republican vote-share panel plus the vote counts behind it."""

    panel: TimeSeriesPanel
    rep_votes: np.ndarray
    dem_votes: np.ndarray
    total_votes: np.ndarray


@dataclass(frozen=True, eq=False)
class StateClassification:
    """Win counts per state and the Red/Blue/Swing partition they induce."""

    rep_wins: np.ndarray
    dem_wins: np.ndarray
    partition: CommunityPartition

    def to_csv_text(self) -> str:
        lines = ["state,wins_R,wins_D,community"]
        for i, state in enumerate(STATE_NAMES):
            label = self.partition.label_of(self.partition.community_of(i + 1))
            lines.append(f"{state},{self.rep_wins[i]},{self.dem_wins[i]},{label}")
        return "\n".join(lines) + "\n"


_PARTY_COLUMNS = ("party_simplified", "party", "party_detailed")


def _votes(raw: str) -> float:
    """Vote counts; blank and NA cells count as zero."""
    try:
        return float(int(float(raw)))
    except ValueError:
        if raw.strip().upper() in ("", "NA"):
            return 0.0
        raise


def load_returns(path: str | Path) -> ElectionPanel:
    """Build the 51 x 12 Republican-share panel from a per-candidate CSV."""
    path = Path(path)
    state_idx = {name: i for i, name in enumerate(STATE_NAMES)}
    year_idx = {y: j for j, y in enumerate(ELECTION_YEARS)}
    sums: dict[tuple[int, int], list[float]] = {}  # (i, j) -> [rep, dem, total]
    reader = csv.reader(StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        col = {name: k for k, name in enumerate(header)}  # the last duplicate wins
        party = next((c for c in _PARTY_COLUMNS if c in col), " or ".join(_PARTY_COLUMNS))
        names = ("year", "state", "candidatevotes", "totalvotes", party)
        for name in names:
            if name not in col:
                raise DataError(f"{path}:1: no {name} column")
        iy, ist, iv, it, ip = map(col.get, names)
        io, ncols = col.get("office"), len(header)
        for cells in reader:
            if len(cells) != ncols:
                if not cells:
                    continue
                raise DataError(f"{path}:{reader.line_num}: expected {ncols} "
                                f"cells, got {len(cells)}")
            office = cells[io].strip().upper() if io is not None else ""
            if office and office != "US PRESIDENT":
                continue
            try:
                j = year_idx.get(int(cells[iy]))
                if j is None:
                    continue
                votes, tv = _votes(cells[iv]), _votes(cells[it])
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{reader.line_num}: non-numeric cell "
                                f"({exc})") from None
            state = cells[ist].strip().upper()
            i = state_idx.get(state)
            if i is None:
                raise DataError(f"{path}:{reader.line_num}: unknown state name {state!r}")
            acc = sums.get((i, j))
            if acc is None:
                acc = sums[i, j] = [0.0, 0.0, tv]
            elif tv > acc[2]:
                acc[2] = tv
            label = cells[ip].strip().upper()
            if label == "REPUBLICAN":
                acc[0] += votes
            elif label == "DEMOCRAT":
                acc[1] += votes
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    rep, dem, total = np.full((3, len(STATE_NAMES), len(ELECTION_YEARS)), np.nan)
    for (i, j), acc in sums.items():
        rep[i, j], dem[i, j], total[i, j] = acc
    missing = np.argwhere(np.isnan(total))
    if missing.size:
        i, j = missing[0]
        raise DataError(f"{path}: no rows for {STATE_NAMES[i]} in "
                        f"{ELECTION_YEARS[j]}")
    if np.any(total <= 0):
        i, j = np.argwhere(total <= 0)[0]
        raise DataError(f"{path}: nonpositive total votes for {STATE_NAMES[i]} "
                        f"in {ELECTION_YEARS[j]}")
    share = 100.0 * rep / total
    if np.any(share < 0) or np.any(share > 100):
        raise DataError(f"{path}: Republican share outside [0, 100]")
    panel = TimeSeriesPanel(values=share, node_labels=STATE_NAMES,
                            time_labels=tuple(str(y) for y in ELECTION_YEARS),
                            meta={"source": path.name, "series": "republican_share"})
    return ElectionPanel(panel=panel, rep_votes=rep, dem_votes=dem, total_votes=total)


def classify(data: ElectionPanel) -> StateClassification:
    """Red/Blue/Swing classification from major-party plurality win counts."""
    rep_wins = np.sum(data.rep_votes > data.dem_votes, axis=1).astype(int)
    dem_wins = np.sum(data.dem_votes > data.rep_votes, axis=1).astype(int)
    T = data.panel.T
    threshold = int(np.ceil(0.75 * T))
    assignment = np.select([rep_wins >= threshold, dem_wins >= threshold], [1, 2], 3).tolist()
    present = sorted(set(assignment))
    if present != [1, 2, 3]:
        missing = [COMMUNITY_LABELS[c - 1] for c in (1, 2, 3) if c not in present]
        raise DataError(f"classification produced empty communities: {missing}")
    partition = CommunityPartition(assignment=tuple(assignment), n_communities=3,
                                   labels=COMMUNITY_LABELS)
    return StateClassification(rep_wins=rep_wins, dem_wins=dem_wins, partition=partition)


def standardize(panel: TimeSeriesPanel) -> TimeSeriesPanel:
    """Per node: subtract the mean and scale to unit sum of squares."""
    centred = panel.values - panel.values.mean(axis=1, keepdims=True)
    ss = np.sum(centred ** 2, axis=1)
    flat = np.argwhere(ss <= 0)
    if flat.size:
        raise GnarError(f"node {panel.node_labels[flat[0, 0]]} is constant; "
                        "cannot standardise")
    out = panel.with_values(centred / np.sqrt(ss)[:, None])
    out.meta["transform"] = "standardised"
    return out


def difference(panel: TimeSeriesPanel) -> TimeSeriesPanel:
    """One-lag differences; drops the first time step."""
    if panel.T < 2:
        raise GnarError("differencing needs at least two time steps")
    out = panel.with_values(panel.values[:, 1:] - panel.values[:, :-1], panel.time_labels[1:])
    out.meta["transform"] = "one-lag differenced"
    return out
