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
The coefficients are one parameter vector theta, a block per group and lag
(:func:`_blocks`) whose slots :func:`theta_index` lists; the containers, the
node-wise coefficients, the design columns and model files all follow it.
:func:`_group_bases` gives each node's group and the masked stage weights;
the VAR form, the design and the node-wise expansion read a partition only
through it.

The module also checks the sufficient stationarity condition (every
group's sum of absolute coefficients below one): :func:`abs_sums` adds
|theta| per group, or per node, in ``theta_index`` order, for model
coefficients and fitted parameter vectors alike.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, OrderError, check_size
from .network import MAX_NODES, Network, stage_weights
from .partition import CommunityPartition
from .textfile import located, read_rows, write_text_atomic

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
            raise OrderError(f"unknown variant {self.variant!r}", ("variant",))
        if self.variant in ("global", "local") and len(self.lags) != 1:
            raise OrderError(f"{self.variant} orders have a single group")
        if len(self.lags) != len(self.stages):
            raise OrderError("lags and stages must have one entry per group")
        if not self.lags:
            raise OrderError("order needs at least one group")
        for g, (p, s) in enumerate(zip(self.lags, self.stages), start=1):
            if p < 1:
                raise OrderError(f"group {g}: maximum lag must be >= 1, got {p}", ("lags", g - 1))
            if len(s) != p:
                raise OrderError(f"group {g}: {len(s)} stage orders for {p} lags",
                                 ("stages", g - 1))
            if any(int(sk) != sk or sk < 0 for sk in s):
                raise OrderError(f"group {g}: stage orders must be nonnegative integers",
                                 ("stages", g - 1))

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
        return sum(a + s for group in _blocks(self, d) for _, a, s in group)


#: The names of an alpha and of a beta slot, by variant: k is the slot's lag, r its stage,
#: g its group and i its node.  Model-file keys are the same names (see ``_line_key``).
_NAMES = {"global": ("alpha.{k}", "beta.{k}.{r}"), "local": ("alpha.node{i}.{k}", "beta.{k}.{r}"),
          "community": ("alpha.{k}.{g}", "beta.{k}.{r}.{g}")}


class ThetaEntry(NamedTuple):
    """One coefficient slot in the stacked parameter vector."""

    group: int
    lag: int
    stage: int | None
    node: int | None

    def name(self, variant: str) -> str:
        template = _NAMES[variant][self.stage is not None]
        return template.format(k=self.lag, r=self.stage, g=self.group, i=self.node)


def _blocks(order: GnarOrder, d: int | None = None) -> list[list[tuple[int, int, int]]]:
    """``[g-1][k-1]``: (first slot, alpha count, stage count) of group g's lag-k block of
    theta, which holds its alphas (one, or a local order's d >= 1) and then its betas."""
    if order.variant == "local" and (d is None or d < 1):
        raise OrderError(f"local orders need a node count d >= 1, got {d}", ("d",))
    n_alpha = d if order.variant == "local" else 1
    starts = accumulate((n_alpha + sk for s in order.stages for sk in s), initial=0)
    return [[(next(starts), n_alpha, sk) for sk in s] for s in order.stages]


def theta_index(order: GnarOrder, d: int | None = None) -> list[ThetaEntry]:
    """Slots of the parameter vector, groups ascending, lag-major inside."""
    entries: list[ThetaEntry] = []
    for g, group in enumerate(_blocks(order, d), start=1):
        nodes = range(1, d + 1) if order.variant == "local" else [None]  # one alpha per node
        for k, (_, _, n_stage) in enumerate(group, start=1):
            entries += [ThetaEntry(g, k, None, i) for i in nodes]
            entries += [ThetaEntry(g, k, r, None) for r in range(1, n_stage + 1)]
    return entries


@dataclass(frozen=True, eq=False, init=False)
class GnarCoefficients:
    """Coefficients of an order: read-only ``theta`` in :func:`theta_index` order, the
    node count ``d`` of a local order (None otherwise) and the noise sd, made only by
    :meth:`from_theta`.  Read-only views copy slots out: ``alpha[g][k-1]`` and
    ``beta[g][k-1][r-1]`` are group g's coefficients at lag k (stage r), and a local
    order's ``alpha_nodes[i-1, k-1]`` node i's lag-k alpha.
    """

    order: GnarOrder
    theta: np.ndarray
    d: int | None
    noise_sd: float

    def __init__(self, *args, **kwargs):
        raise TypeError("coefficients are made by GnarCoefficients.from_theta(theta, order)")

    @classmethod
    def from_theta(cls, theta: np.ndarray, order: GnarOrder,
                   noise_sd: float = 1.0, d: int | None = None) -> "GnarCoefficients":
        """Coefficients holding a read-only copy of ``theta``, after checking it and the sd."""
        theta = np.array(theta, dtype=float)
        if theta.shape != (size := order.param_count(d),):
            raise OrderError(f"theta length {theta.shape} does not match {size}")
        if (bad := np.flatnonzero(~np.isfinite(theta))).size:
            raise OrderError(f"coefficient {theta_index(order, d)[bad[0]].name(order.variant)}"
                             f" is {theta[bad[0]]}, not a finite number", ("theta", int(bad[0])))
        if not 0 < noise_sd < np.inf:
            raise OrderError(f"noise sd {noise_sd} is not positive and finite", ("noise_sd",))
        theta.flags.writeable = False
        coeffs = cls.__new__(cls)
        vars(coeffs).update(order=order, theta=theta, noise_sd=noise_sd,
                            d=d if order.variant == "local" else None)
        return coeffs

    @property
    def variant(self) -> str:
        return self.order.variant

    @property
    def alpha(self) -> tuple[np.ndarray, ...]:
        groups = [] if self.d is not None else _blocks(self.order)  # local: no group alphas
        return tuple(self.theta[[start for start, _, _ in group]] for group in groups)

    @property
    def beta(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return tuple(tuple(self.theta[start + a:start + a + s].copy() for start, a, s in group)
                     for group in _blocks(self.order, self.d))

    @property
    def alpha_nodes(self) -> np.ndarray | None:
        if self.d is None:
            return None
        return np.stack([self.theta[start:start + a]
                         for start, a, _ in _blocks(self.order, self.d)[0]], axis=1)


@dataclass(frozen=True, eq=False)
class StationarityReport:
    """Per-group (or per-node) absolute-coefficient sums and their labels, against the strict
    sufficient condition: every sum below 1.  ``margin`` is 1 minus the largest sum: positive
    certifies it, small warns of the boundary."""

    sums: np.ndarray
    labels: tuple[str, ...]

    @property
    def stationary(self) -> bool:
        return bool(np.all(self.sums < 1.0))

    @property
    def margin(self) -> float:
        return float(1.0 - np.max(self.sums))


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


def stationarity_margin(coeffs: GnarCoefficients) -> StationarityReport:
    """Sum |alpha| + |beta| per group (per node if local) against the unit bound."""
    return abs_sums(theta_index(coeffs.order, coeffs.d), coeffs.theta)


def unmet_stationarity(subject: str, sums: np.ndarray | None = None, places: int = 3) -> str:
    """``subject`` followed by the sufficient stationarity condition, with the largest of
    ``sums`` if given: the one wording of every message that refuses or warns on it."""
    largest = "" if sums is None else f"; largest sum {np.max(sums):.{places}f}"
    return (f"{subject} the sufficient stationarity condition "
            f"(every group's absolute sum below 1{largest})")


def to_var(coeffs: GnarCoefficients, net: Network, W: np.ndarray,
           part: CommunityPartition | None = None) -> np.ndarray:
    """Transition matrices of the equivalent VAR(p), shape (p_max, d, d).

    Phi_k = diag(alpha_k) + sum_r diag(beta_k,r) (W_c o S_r) with the
    node-wise coefficients of :func:`_nodewise`; lags beyond a group's own
    order contribute zero.  A local model's node count must be the network's.
    """
    order = coeffs.order
    if coeffs.d is not None:
        check_size("coefficients", coeffs.d, "network", net.d)
    group, Bs = _group_bases(order, net.d, part, stage_weights(net, W, order.r_star))
    nodewise = _nodewise(coeffs, group)
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


@dataclass(frozen=True, eq=False)
class NodewiseCoefficients:
    """Node-wise representation of any model: what each node's equation uses.

    ``alpha[i-1, k-1]`` and ``beta[i-1, k-1, r-1]`` carry node i's
    coefficients (its group's, or its own alphas in a local model),
    zero-padded to the global maximum lag and stage depth.
    """

    alpha: np.ndarray
    beta: np.ndarray


def _nodewise(coeffs: GnarCoefficients, group: np.ndarray) -> NodewiseCoefficients:
    """Fill each node's coefficients from theta, one slice per block: a block fills the
    rows of its group's nodes, and a local order's d alphas fill one row each."""
    order, theta = coeffs.order, coeffs.theta
    alpha = np.zeros((len(group), order.p_max))
    beta = np.zeros((len(group), order.p_max, order.r_star))
    for g, blocks in enumerate(_blocks(order, coeffs.d), start=1):
        rows = group == g
        for k, (start, a, s) in enumerate(blocks):
            alpha[rows, k] = theta[start:start + a]
            beta[rows, k, :s] = theta[start + a:start + a + s]
    return NodewiseCoefficients(alpha=alpha, beta=beta)


def to_local_alpha(coeffs: GnarCoefficients, part: CommunityPartition) -> NodewiseCoefficients:
    """Expand a community model into per-node coefficient arrays.

    Node i inherits the coefficients of its community; slots beyond the
    community's own lag or stage order are zero.
    """
    if coeffs.variant != "community":
        raise OrderError("node-wise expansion applies to community models")
    return _nodewise(coeffs, _group_bases(coeffs.order, part.d, part)[0])


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

    def ints(part: str) -> tuple[int, ...]:
        return tuple(int(x) for x in re.findall(_INT, part))

    if variant:
        return GnarOrder(variant, (int(p),), (ints(stages),))
    # Each "]" closes one stage list, so the pieces before them hold one list each.
    return GnarOrder("community", ints(lags), tuple(map(ints, (lists or "").split("]")[:-1])))


def format_order(order: GnarOrder) -> str:
    stage_lists = [f"[{','.join(map(str, s))}]" for s in order.stages]
    if order.variant == "community":
        return f"community:[{','.join(map(str, order.lags))}];{{{','.join(stage_lists)}}}"
    return f"{order.variant}:{order.lags[0]};{stage_lists[0]}"


# ---------------------------------------------------------------------------
# model files: plain-text key/value lines, exact round trips
# ---------------------------------------------------------------------------

def _line_key(variant: str, e: ThetaEntry) -> str:
    """Model-file key of slot e: its column name, words for dots and a bare node id."""
    return e.name(variant).replace(".node", ".").replace(".", " ")


def _slot(variant: str, blocks: list, key: str) -> int | None:
    """Theta position of the slot whose ``_line_key`` is ``key``; None if there is none."""
    name, *ids = key.split(" ")
    fields = re.findall("{(.)}", dict(zip(("alpha", "beta"), _NAMES[variant])).get(name, ""))
    if (not fields or len(ids) != len(fields)  # each id a positive integer as str() writes it
            or not all(re.fullmatch("[1-9][0-9]*", x) for x in ids)):
        return None
    at = {"g": 1, "i": 1, **dict(zip(fields, map(int, ids)))}
    if at["g"] > len(blocks) or at["k"] > len(blocks[at["g"] - 1]):
        return None
    start, n_alpha, n_stage = blocks[at["g"] - 1][at["k"] - 1]
    j, end = (at["i"], n_alpha) if name == "alpha" else (n_alpha + at["r"], n_alpha + n_stage)
    return start + j - 1 if j <= end else None


def format_model(coeffs: GnarCoefficients) -> str:
    """Model-file text; floats use repr so reads reproduce values exactly."""
    order = coeffs.order
    lines = ["gnar-model v1", f"variant {order.variant}"]
    if order.variant != "global":  # the community count, or a local order's node count
        lines.append(f"C {order.n_groups}" if coeffs.d is None else f"d {coeffs.d}")
    lines.append("p " + " ".join(map(str, order.lags)))
    lines += ["s " + " ".join(map(str, [g, *s] if order.variant == "community" else s))
              for g, s in enumerate(order.stages, start=1)]
    lines.append(f"sigma {float(coeffs.noise_sd)!r}")
    lines += [f"{_line_key(order.variant, e)} {value!r}"
              for e, value in zip(theta_index(order, coeffs.d), coeffs.theta.tolist())]
    return "\n".join(lines) + "\n"


def write_model(coeffs: GnarCoefficients, path: str | Path) -> None:
    write_text_atomic(path, format_model(coeffs))


#: Each header key's value type and greatest value (None: unbounded): bounds that stop a
#: file sizing theta past any network.  The records hold every other rule on a value.
_HEADER = {"variant": (str, None), "C": (int, None), "p": (int, None),
           "s": (int, MAX_NODES - 1), "d": (int, MAX_NODES), "sigma": (float, None)}


def _values(path, ln: int, key: str, row: list[str]) -> list:
    """The values ``row`` of ``key`` on line ``ln``, converted to ``_HEADER``'s type."""
    convert = _HEADER[key][0]
    if not row:
        raise DataError(f"{path}:{ln}: {key!r} needs a value")
    try:
        return [convert(x) for x in row]
    except ValueError:
        kind = {int: "an integer", float: "a number"}[convert]
        raise DataError(f"{path}:{ln}: {key!r} needs {kind}, got {' '.join(row)!r}") from None


def _header(path, rows: dict, key: str | int, one: bool = True):
    """The values on ``key``'s line (a community's ``s`` line if ``key`` is its id),
    converted and bounded by ``_HEADER``; with ``one``, the one value that line must hold."""
    if key not in rows:
        raise DataError(f"{path}: no 's' line for community {key}" if isinstance(key, int)
                        else f"{path}: malformed model file (no {key!r} line)")
    ln, (name, *row) = rows[key]
    values = _values(path, ln, name, row)
    if (most := _HEADER[name][1]) is not None and max(values) > most:
        raise DataError(f"{path}:{ln}: {name!r} value {max(values)} exceeds {most} "
                        f"(networks have at most {MAX_NODES} nodes)")
    if one and len(values) > 1:
        raise DataError(f"{path}:{ln}: {name!r} takes one value, got {' '.join(row)!r}")
    return values[0] if one else values


def read_model(path: str | Path) -> tuple[GnarCoefficients, GnarOrder]:
    """Read a model file; every other line than the header keys sets one coefficient.

    Each line is keyed by its header key, its community id (a community ``s`` line, whose
    id is read first) or its coefficient name.  The earliest line that repeats a key raises
    :class:`DataError`; then, in this order, a ``variant`` line without one value, a ``C``
    or ``d`` line of another variant, a ``sigma``, ``p`` or ``C`` line that does not
    convert, a ``C`` other than the count of lags, a community id outside 1..C and ``s``
    lines that do not convert or pass ``_HEADER``'s bound.  Value faults follow in record
    order at the value's line: the order, ``d``, coefficient lines (naming no slot or
    holding no number, then not finite) and ``sigma``.  A missing header line, or community
    ``s`` line, is named.  Slots without a line are zero.
    """
    lines = list(read_rows(path, sep=None)[1])
    if not lines or lines[0][1] != ["gnar-model", "v1"]:
        raise DataError(f"{path}: not a model file (missing 'gnar-model v1' header)")
    community = ["variant", "community"] in (parts for _, parts in lines)
    rows: dict[str | int, tuple[int, list[str]]] = {}
    for ln, parts in lines[1:]:
        key = parts[0] if parts[0] in _HEADER else " ".join(parts[:-1]) or parts[0]
        if key == "s" and community:  # the id, unbounded: the range check below names it
            key, parts = _values(path, ln, "s", parts[1:2])[0], ["s", *parts[2:]]
        if key in rows:
            what = f"stages of community {key} were" if isinstance(key, int) else f"{key!r} was"
            raise DataError(f"{path}:{ln}: {what} already set on line {rows[key][0]}")
        rows[key] = ln, parts
    variant = _header(path, rows, "variant")
    for key, owner in (("C", "community"), ("d", "local")):
        if key in rows and variant != owner:
            raise DataError(f"{path}:{rows[key][0]}: {key!r} belongs to {owner} models, "
                            f"not {variant} ones")
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
    stages = tuple(tuple(_header(path, rows, key, one=False)) for key in keys)
    slots: dict[int, int] = {}  # theta position -> the line setting it

    def line_of(at: tuple) -> int | None:
        if at[0] == "theta":
            return slots.get(at[1])
        return rows[keys[at[1]] if at[0] == "stages" else
                    {"lags": "p", "noise_sd": "sigma"}.get(at[0], at[0])][0]

    order = located(path, lambda: GnarOrder(variant, tuple(lags), stages), line_of)
    d = _header(path, rows, "d") if variant == "local" else None
    blocks = located(path, lambda: _blocks(order, d), line_of)
    theta = np.zeros(order.param_count(d))
    for key, (ln, parts) in rows.items():
        if isinstance(key, int) or key in _HEADER:
            continue
        if (slot := _slot(order.variant, blocks, key)) is None:
            raise DataError(f"{path}:{ln}: {' '.join(parts)!r} sets no coefficient of "
                            f"the order {format_order(order)}")
        try:
            theta[slot] = float(parts[-1])
        except ValueError:
            raise DataError(f"{path}:{ln}: coefficient value must be a number, "
                            f"got {parts[-1]!r}") from None
        slots[slot] = ln
    return located(path, lambda: GnarCoefficients.from_theta(theta, order, sigma, d),
                   line_of), order
