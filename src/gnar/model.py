"""Model orders and coefficients for network autoregressions.

Three coefficient-sharing variants are supported:

* ``global``: one coefficient set for every node,
* ``community``: one coefficient set per community, with neighbourhood
  regressions masked to within-community pairs,
* ``local``: node-specific autoregressive coefficients with neighbourhood
  coefficients shared across nodes.

Every variant is a node-wise model: node i uses its group's alphas and
betas (its own alphas for the local variant), and its betas act only on
neighbours in its own group.  So the VAR matrices are
Phi_k = diag(alpha_k) + sum_r diag(beta_k,r) (W_c o S_r), where W_c keeps
the within-community weights (all weights for global and local orders).
:func:`theta_index` lists the coefficient slots once; the parameter
vector, the node-wise coefficients (and through them the VAR matrices),
the design columns and the model-file lines are all loops over that one
list, and the parameter count is its length.  :func:`_group_bases` gives
each node's group and the masked stage weights; the VAR form, the design
and the node-wise expansion read a partition only through it.
:func:`_layout` gives the matching array shapes, which build and check
every coefficient container.

The module also checks the sufficient stationarity condition (every
group's sum of absolute coefficients below one): :func:`abs_sums` adds
|theta| per group, or per node, in ``theta_index`` order, for model
coefficients and fitted parameter vectors alike.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, OrderError, check_size
from .network import MAX_NODES, Network, stage_weights
from .partition import CommunityPartition
from .textfile import read_rows, write_text_atomic

VARIANTS = ("global", "community", "local")


@dataclass(frozen=True)
class GnarOrder:
    """Lag and stage orders, per coefficient group.

    ``lags[g]`` is the maximum lag of group g and ``stages[g][k-1]`` the
    maximum neighbourhood stage used at lag k.  A stage order of 0 means no
    neighbourhood term at that lag.  Global and local variants have a
    single group; the community variant has one group per community.
    """

    variant: str
    lags: tuple[int, ...]
    stages: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise OrderError(f"unknown variant {self.variant!r}")
        if self.variant in ("global", "local") and len(self.lags) != 1:
            raise OrderError(f"{self.variant} orders have a single group")
        if len(self.lags) != len(self.stages):
            raise OrderError("lags and stages must have one entry per group")
        if not self.lags:
            raise OrderError("order needs at least one group")
        for g, (p, s) in enumerate(zip(self.lags, self.stages), start=1):
            if p < 1:
                raise OrderError(f"group {g}: maximum lag must be >= 1, got {p}")
            if len(s) != p:
                raise OrderError(f"group {g}: {len(s)} stage orders for {p} lags")
            if any(int(sk) != sk or sk < 0 for sk in s):
                raise OrderError(f"group {g}: stage orders must be nonnegative integers")

    # -- constructors -----------------------------------------------------
    @classmethod
    def global_order(cls, p: int, stages: list[int]) -> "GnarOrder":
        return cls("global", (p,), (tuple(stages),))

    @classmethod
    def community_order(cls, lags: list[int], stages: list[list[int]]) -> "GnarOrder":
        return cls("community", tuple(lags), tuple(tuple(s) for s in stages))

    @classmethod
    def local_order(cls, p: int, stages: list[int]) -> "GnarOrder":
        return cls("local", (p,), (tuple(stages),))

    # -- derived quantities -----------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.lags)

    @property
    def p_max(self) -> int:
        """Global maximum lag across groups."""
        return max(self.lags)

    @property
    def r_star(self) -> int:
        """Maximum stage depth used anywhere in the model."""
        return max((max(s) if s else 0) for s in self.stages)

    def param_count(self, d: int | None = None) -> int:
        """Total parameter count; the local variant needs the node count d."""
        return len(theta_index(self, d))


class ThetaEntry(NamedTuple):
    """One coefficient slot in the stacked parameter vector."""

    group: int
    lag: int
    stage: int | None
    node: int | None

    def name(self, variant: str) -> str:
        if self.stage is None:
            if variant == "community":
                return f"alpha.{self.lag}.{self.group}"
            if variant == "local":
                return f"alpha.node{self.node}.{self.lag}"
            return f"alpha.{self.lag}"
        if variant == "community":
            return f"beta.{self.lag}.{self.stage}.{self.group}"
        return f"beta.{self.lag}.{self.stage}"


def theta_index(order: GnarOrder, d: int | None = None) -> list[ThetaEntry]:
    """Slots of the parameter vector, groups ascending, lag-major inside."""
    entries: list[ThetaEntry] = []
    if order.variant == "local":
        if d is None:
            raise OrderError("local orders need the node count to lay out parameters")
        p, s = order.lags[0], order.stages[0]
        for k in range(1, p + 1):
            for i in range(1, d + 1):
                entries.append(ThetaEntry(group=1, lag=k, stage=None, node=i))
            for r in range(1, s[k - 1] + 1):
                entries.append(ThetaEntry(group=1, lag=k, stage=r, node=None))
        return entries
    for g in range(1, order.n_groups + 1):
        p, s = order.lags[g - 1], order.stages[g - 1]
        for k in range(1, p + 1):
            entries.append(ThetaEntry(group=g, lag=k, stage=None, node=None))
            for r in range(1, s[k - 1] + 1):
                entries.append(ThetaEntry(group=g, lag=k, stage=r, node=None))
    return entries


def _layout(order: GnarOrder, d: int | None = None) -> tuple:
    """Array shapes of the order's alphas, betas and node-wise alphas (None if not local)."""
    local = order.variant == "local"
    return (() if local else tuple((p,) for p in order.lags),
            tuple(tuple((sk,) for sk in s) for s in order.stages),
            (d, order.lags[0]) if local else None)


@dataclass(frozen=True)
class GnarCoefficients:
    """Coefficient values matching a :class:`GnarOrder`.

    * global/community: ``alpha[g][k-1]`` and ``beta[g][k-1][r-1]`` hold the
      group-g coefficients at lag k (stage r).
    * local: ``alpha_nodes[i-1, k-1]`` is node i's lag-k coefficient and
      ``beta[0][k-1][r-1]`` the stage coefficients shared by all nodes.
    """

    variant: str
    alpha: tuple[np.ndarray, ...]
    beta: tuple[tuple[np.ndarray, ...], ...]
    noise_sd: float
    alpha_nodes: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise OrderError(f"unknown variant {self.variant!r}")
        if not self.noise_sd > 0:
            raise OrderError(f"noise sd must be positive, got {self.noise_sd}")
        object.__setattr__(self, "alpha",
                           tuple(np.asarray(a, dtype=float) for a in self.alpha))
        object.__setattr__(self, "beta",
                           tuple(tuple(np.asarray(b, dtype=float) for b in group)
                                 for group in self.beta))
        if self.alpha_nodes is not None:
            object.__setattr__(self, "alpha_nodes",
                               np.asarray(self.alpha_nodes, dtype=float))

    def validate_against(self, order: GnarOrder, d: int | None = None) -> None:
        if self.variant != order.variant:
            raise OrderError(f"coefficients are {self.variant}, order is {order.variant}")
        nodes = self.alpha_nodes
        if d is None and nodes is not None and nodes.ndim:
            d = len(nodes)
        actual = (tuple(a.shape for a in self.alpha),
                  tuple(tuple(b.shape for b in group) for group in self.beta),
                  None if nodes is None else nodes.shape)
        for name, got, want in zip(("alpha", "beta", "alpha_nodes"), actual, _layout(order, d)):
            if got != want:
                raise OrderError(f"{name} shapes {got} do not match the order "
                                 f"{format_order(order)}, which needs {want}")

    def _entries(self, order: GnarOrder) -> list[ThetaEntry]:
        """``theta_index`` of the order, sized by the node-wise alphas if any."""
        return theta_index(order, None if self.alpha_nodes is None else len(self.alpha_nodes))

    @classmethod
    def _zeros(cls, order: GnarOrder, noise_sd: float,
               d: int | None = None) -> "GnarCoefficients":
        """All-zero coefficients of the order, ready to be filled slot by slot."""
        alpha, beta, nodes = _layout(order, d)
        return cls(variant=order.variant, alpha=tuple(np.zeros(s) for s in alpha),
                   beta=tuple(tuple(np.zeros(s) for s in group) for group in beta),
                   noise_sd=noise_sd, alpha_nodes=None if nodes is None else np.zeros(nodes))

    # -- flat parameter vector --------------------------------------------
    def to_theta(self, order: GnarOrder) -> np.ndarray:
        self.validate_against(order)
        return np.asarray([_coef(self, e) for e in self._entries(order)])

    @classmethod
    def from_theta(cls, theta: np.ndarray, order: GnarOrder,
                   noise_sd: float = 1.0, d: int | None = None) -> "GnarCoefficients":
        theta = np.asarray(theta, dtype=float)
        entries = theta_index(order, d)
        if theta.shape != (len(entries),):
            raise OrderError(f"theta length {theta.shape} does not match {len(entries)}")
        coeffs = cls._zeros(order, noise_sd, d)
        for e, value in zip(entries, theta):
            _coef(coeffs, e, value)
        return coeffs


def _coef(coeffs: GnarCoefficients, e: ThetaEntry, value: float | None = None) -> float:
    """The coefficient of slot e; sets it first when ``value`` is given."""
    if e.stage is not None:
        arr, idx = coeffs.beta[e.group - 1][e.lag - 1], e.stage - 1
    elif e.node is not None:
        arr, idx = coeffs.alpha_nodes, (e.node - 1, e.lag - 1)
    else:
        arr, idx = coeffs.alpha[e.group - 1], e.lag - 1
    if value is not None:
        arr[idx] = value
    return float(arr[idx])


class _Stationarity:
    """The strict sufficient condition on ``self.sums``: every sum below 1.  ``margin``
    is 1 minus the largest sum: positive certifies it, small warns of the boundary."""

    @property
    def stationary(self) -> bool:
        return bool(np.all(self.sums < 1.0))

    @property
    def margin(self) -> float:
        return float(1.0 - np.max(self.sums))


@dataclass(frozen=True)
class StationarityReport(_Stationarity):
    """Per-group (or per-node) absolute-coefficient sums and their labels."""

    sums: np.ndarray
    labels: tuple[str, ...]


def abs_sums(entries: Sequence[ThetaEntry], theta: np.ndarray) -> StationarityReport:
    """Sum |theta| per group of the slots, or per node if they hold node-wise alphas.

    One bincount adds the slots in order; shared betas (bin 0) count toward
    every node.  Only groups with slots are reported, one for a block fit.
    """
    weights = np.abs(np.asarray(theta, dtype=float))
    if any(e.node is not None for e in entries):
        sums = np.bincount([e.node or 0 for e in entries], weights)
        return StationarityReport(sums[1:] + sums[0],
                                  tuple(f"node{i}" for i in range(1, len(sums))))
    groups = [e.group for e in entries]
    present = np.flatnonzero(np.bincount(groups))
    return StationarityReport(np.bincount(groups, weights)[present],
                              tuple(str(g) for g in present))


def stationarity_margin(coeffs: GnarCoefficients, order: GnarOrder) -> StationarityReport:
    """Sum |alpha| + |beta| per group (per node if local) against the unit bound."""
    return abs_sums(coeffs._entries(order), coeffs.to_theta(order))


def to_var(coeffs: GnarCoefficients, order: GnarOrder, net: Network,
           W: np.ndarray, part: CommunityPartition | None = None) -> np.ndarray:
    """Transition matrices of the equivalent VAR(p), shape (p_max, d, d).

    Phi_k = diag(alpha_k) + sum_r diag(beta_k,r) (W_c o S_r) with the
    node-wise coefficients of :func:`_nodewise`; lags beyond a group's own
    order contribute zero.
    """
    coeffs.validate_against(order, d=net.d)
    group, Bs = _group_bases(order, net.d, part, stage_weights(net, W, order.r_star))
    nodewise = _nodewise(coeffs, order, group)
    phi = np.zeros((order.p_max, net.d, net.d))
    phi[:, range(net.d), range(net.d)] = nodewise.alpha.T
    for r, B in enumerate(Bs):
        phi += nodewise.beta[:, :, r].T[:, :, None] * B
    return phi


def _group_bases(order: GnarOrder, d: int, part: CommunityPartition | None,
                 Bs: Sequence[np.ndarray] = ()) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each node's group id and the stage weights ``Bs`` masked to within-group pairs.

    Global and local orders have one group, so their ids are all 1 and
    ``Bs`` stay as given.  This is the one check that a community order
    comes with a partition of the same communities; a given partition of any
    order must cover the network's d nodes.
    """
    if part is not None:
        check_size("partition", part.d, "network", d)
    if order.variant != "community":
        return np.ones(d, dtype=int), list(Bs)
    if part is None:
        raise OrderError("community models need a partition")
    if part.n_communities != order.n_groups:
        raise OrderError(f"order has {order.n_groups} communities, "
                         f"partition has {part.n_communities}")
    group = np.asarray(part.assignment)
    return group, [B * (group[:, None] == group) for B in Bs]


@dataclass(frozen=True)
class NodewiseCoefficients(_Stationarity):
    """Node-wise representation of any model: what each node's equation uses.

    ``alpha[i-1, k-1]`` and ``beta[i-1, k-1, r-1]`` carry node i's
    coefficients (its group's, or its own alphas in a local model),
    zero-padded to the global maximum lag and stage depth.
    """

    alpha: np.ndarray
    beta: np.ndarray

    @property
    def sums(self) -> np.ndarray:
        """Each node's sum of absolute coefficients."""
        return np.sum(np.abs(self.alpha), axis=1) + np.sum(np.abs(self.beta), axis=(1, 2))


def _nodewise(coeffs: GnarCoefficients, order: GnarOrder,
              group: np.ndarray) -> NodewiseCoefficients:
    """Fill each node's coefficients from the slots: a group slot fills the rows
    of its group's nodes, a node-wise alpha its own row."""
    alpha = np.zeros((len(group), order.p_max))
    beta = np.zeros((len(group), order.p_max, order.r_star))
    for e in theta_index(order, len(group)):
        rows = group == e.group if e.node is None else e.node - 1
        if e.stage is None:
            alpha[rows, e.lag - 1] = _coef(coeffs, e)
        else:
            beta[rows, e.lag - 1, e.stage - 1] = _coef(coeffs, e)
    return NodewiseCoefficients(alpha=alpha, beta=beta)


def to_local_alpha(coeffs: GnarCoefficients, order: GnarOrder,
                   part: CommunityPartition) -> NodewiseCoefficients:
    """Expand a community model into per-node coefficient arrays.

    Node i inherits the coefficients of its community; slots beyond the
    community's own lag or stage order are zero.
    """
    if order.variant != "community":
        raise OrderError("node-wise expansion applies to community models")
    coeffs.validate_against(order)
    return _nodewise(coeffs, order, _group_bases(order, part.d, part)[0])


# ---------------------------------------------------------------------------
# order grammar:  global:p;[s...]   community:[p...];{[s...],...}   local:p;[s...]
# ---------------------------------------------------------------------------

_INT = r"-?\d+"
_LIST = rf"\[\s*(?:{_INT}(?:\s*,\s*{_INT})*)?\s*\]"
_ORDER = re.compile(rf"\s*(?:(global|local)\s*:\s*({_INT})\s*;\s*({_LIST})|community\s*:"
                    rf"\s*({_LIST})\s*;\s*\{{\s*({_LIST}(?:\s*,\s*{_LIST})*)?\s*\}})\s*")


def parse_order(text: str) -> GnarOrder:
    """Parse the single-line order grammar used by model files and the CLI.

    The whole string must match the grammar; whitespace may sit between tokens.
    """
    if not (match := _ORDER.fullmatch(text)):
        raise OrderError(f"malformed order {text!r}; expected global:p;[s,...], "
                         "local:p;[s,...] or community:[p,...];{[s,...],...}")
    variant, p, stages, lags, lists = match.groups()

    def ints(part: str) -> list[int]:
        return [int(x) for x in re.findall(_INT, part)]

    if variant:
        return GnarOrder(variant, (int(p),), (tuple(ints(stages)),))
    # Each "]" closes one stage list, so the pieces before them hold one list each.
    return GnarOrder.community_order(ints(lags),
                                     [ints(x) for x in (lists or "").split("]")[:-1]])


def format_order(order: GnarOrder) -> str:
    if order.variant in ("global", "local"):
        s = ",".join(str(x) for x in order.stages[0])
        return f"{order.variant}:{order.lags[0]};[{s}]"
    lags = ",".join(str(p) for p in order.lags)
    stage_lists = ",".join("[" + ",".join(str(x) for x in s) + "]" for s in order.stages)
    return f"community:[{lags}];{{{stage_lists}}}"


# ---------------------------------------------------------------------------
# model files: plain-text key/value lines, exact round trips
# ---------------------------------------------------------------------------

def _line_key(variant: str, e: ThetaEntry) -> str:
    """Model-file key of slot e: its column name, words for dots and a bare node id."""
    return e.name(variant).replace(".node", ".").replace(".", " ")


def format_model(coeffs: GnarCoefficients, order: GnarOrder,
                 d: int | None = None) -> str:
    """Model-file text; floats use repr so reads reproduce values exactly."""
    coeffs.validate_against(order, d=d)
    lines = ["gnar-model v1", f"variant {order.variant}"]
    if order.variant == "community":
        lines.append(f"C {order.n_groups}")
        lines.append("p " + " ".join(str(p) for p in order.lags))
        for g in range(1, order.n_groups + 1):
            lines.append(f"s {g} " + " ".join(str(x) for x in order.stages[g - 1]))
    else:
        if order.variant == "local":
            lines.append(f"d {coeffs.alpha_nodes.shape[0]}")
        lines.append(f"p {order.lags[0]}")
        lines.append("s " + " ".join(str(x) for x in order.stages[0]))
    lines.append(f"sigma {float(coeffs.noise_sd)!r}")
    lines += [f"{_line_key(order.variant, e)} {_coef(coeffs, e)!r}"
              for e in coeffs._entries(order)]
    return "\n".join(lines) + "\n"


def write_model(coeffs: GnarCoefficients, order: GnarOrder, path: str | Path,
                d: int | None = None) -> None:
    write_text_atomic(path, format_model(coeffs, order, d=d))


def _finite(text: str) -> float:
    """``float(text)``; inf and nan raise ValueError too."""
    if not np.isfinite(value := float(text)):
        raise ValueError(text)
    return value


#: Each header key's value type, least value and greatest (None: unbounded).  An
#: integer may equal its least; a number (``sigma``) must lie above it.
_HEADER = {"variant": (str, None, None), "C": (int, 1, None), "p": (int, 1, None),
           "s": (int, 0, MAX_NODES - 1), "d": (int, 1, MAX_NODES), "sigma": (_finite, 0, None)}


def _values(path, ln: int, key: str, row: list[str]) -> list:
    """The values ``row`` of ``key`` on line ``ln``, converted and checked against ``_HEADER``."""
    convert, least, most = _HEADER[key]
    if not row:
        raise DataError(f"{path}:{ln}: {key!r} needs a value")
    try:
        values = [convert(x) for x in row]
    except ValueError:
        kind = {int: "an integer", _finite: "a number"}[convert]
        raise DataError(f"{path}:{ln}: {key!r} needs {kind}, got {' '.join(row)!r}") from None
    if most is not None and max(values) > most:
        raise DataError(f"{path}:{ln}: {key!r} value {max(values)} exceeds {most} "
                        f"(networks have at most {MAX_NODES} nodes)")
    strict = convert is _finite
    if least is not None and (min(values) < least or strict and min(values) == least):
        raise DataError(f"{path}:{ln}: {key!r} value {min(values)} is "
                        f"{'not above' if strict else 'below'} {least}")
    return values


def _header(path, rows: dict, key: str | int, one: bool = True):
    """The checked values on ``key``'s line (a community's ``s`` line if ``key`` is its
    id); with ``one``, the one value that line must hold."""
    if key not in rows:
        raise DataError(f"{path}: no 's' line for community {key}" if isinstance(key, int)
                        else f"{path}: malformed model file (no {key!r} line)")
    ln, (name, *row) = rows[key]
    values = _values(path, ln, name, row)
    if one and len(values) > 1:
        raise DataError(f"{path}:{ln}: {name!r} takes one value, got {' '.join(row)!r}")
    return values[0] if one else values


def read_model(path: str | Path) -> tuple[GnarCoefficients, GnarOrder]:
    """Read a model file; every other line than the header keys sets one coefficient.

    Each line is keyed by its header key, its community id (a community ``s``
    line, whose id is checked first) or its coefficient name.  The earliest
    line that repeats a key raises :class:`DataError`; then, in this order, so
    does a header line that ``_HEADER`` refuses (no value, one that does not
    convert or is out of range, or a second where the key takes one), an
    unknown variant, a community id outside 1..C, an ``s`` line without one
    stage order per lag and a coefficient line that names no slot of the order
    or holds no finite value, each with its line number.  A missing header
    line, or community ``s`` line, is named.  Slots without a line are zero.
    """
    lines = list(read_rows(path, sep=None)[1])
    if not lines or lines[0][1] != ["gnar-model", "v1"]:
        raise DataError(f"{path}: not a model file (missing 'gnar-model v1' header)")
    community = ["variant", "community"] in (parts for _, parts in lines)
    rows: dict[str | int, tuple[int, list[str]]] = {}
    for ln, parts in lines[1:]:
        key = parts[0] if parts[0] in _HEADER else " ".join(parts[:-1]) or parts[0]
        if key == "s" and community:
            key, parts = _values(path, ln, "s", parts[1:2])[0], ["s", *parts[2:]]
        if key in rows:
            what = f"stages of community {key} were" if isinstance(key, int) else f"{key!r} was"
            raise DataError(f"{path}:{ln}: {what} already set on line {rows[key][0]}")
        rows[key] = ln, parts
    variant = _header(path, rows, "variant")
    if variant not in VARIANTS:
        raise DataError(f"{path}:{rows['variant'][0]}: unknown variant {variant!r}")
    sigma = _header(path, rows, "sigma")
    if community:
        lags, C = _header(path, rows, "p", one=False), _header(path, rows, "C")
        if C != len(lags):
            raise DataError(f"{path}:{rows['C'][0]}: 'C' is {C} but 'p' has {len(lags)}")
        for key, (ln, _) in rows.items():
            if isinstance(key, int) and not 1 <= key <= C:
                raise DataError(f"{path}:{ln}: community {key} outside 1..{C}")
        keys = list(range(1, C + 1))
    else:
        lags, keys = [_header(path, rows, "p")], ["s"]
    stages = [tuple(_header(path, rows, key, one=False)) for key in keys]
    for key, p, s in zip(keys, lags, stages):
        if len(s) != p:
            raise DataError(f"{path}:{rows[key][0]}: {len(s)} stage orders for {p} lags")
    order = GnarOrder(variant, tuple(lags), tuple(stages))
    d = _header(path, rows, "d") if variant == "local" else None
    coeffs = GnarCoefficients._zeros(order, sigma, d)
    slots = {_line_key(variant, e): e for e in theta_index(order, d)}
    for key, (ln, parts) in rows.items():
        if isinstance(key, int) or key in _HEADER:
            continue
        if key not in slots:
            raise DataError(f"{path}:{ln}: {' '.join(parts)!r} sets no coefficient of "
                            f"the order {format_order(order)}")
        try:
            _coef(coeffs, slots[key], _finite(parts[-1]))
        except ValueError:
            raise DataError(f"{path}:{ln}: coefficient value must be a finite number, "
                            f"got {parts[-1]!r}") from None
    return coeffs, order
