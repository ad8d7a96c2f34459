"""Network autocorrelation (NACF) and partial NACF over lag/stage grids.

Values are computed on the per-node mean-centred panel.  With B_r the
stage-r masked weight matrix, A_r = B_r + I and lambda_r = 1 + sigma_max(B_r),

    nacf(h, r)  = sum_t e_{t+h}' A_r e_t  /  (lambda_r sum_t |e_t|^2),

which reduces to the pooled cross-sectional ACF at stage 0 (B_0 = 0) and is
bounded by 1 through the operator-norm bound and Cauchy-Schwarz.  The
partial version removes lags 1..h-1 first: the panel is regressed on its
lagged values and neighbourhood regressions up to stage r, forwards and
backwards in time, and the residual series take the place of e in the
numerator with the geometric mean of their energies in the denominator.

The auxiliary fits never build a design: with V = [E, B_1E, ..., B_rE], each
Gram and X'y entry is a diagonal sum of some V_a'V_b, read off prefix sums made
once per community, and each residual is E minus theta-weighted lagged windows
of V, refined once from X'residual when eps cond(Gram) |y| > 1e-12 |residual|.
A grid fits every community of a lag/stage step at once: one eigenvalue call
on their stacked Grams, one inverse of those that pass the rank rule.
A fit with n = m(T - h + 1) rows and q columns is "auxiliary fit rank deficient
(rank k of q)" when a Gram eigenvalue is at most sqrt(max(n, q) eps) times the
largest, k counting the larger ones: in design terms sigma_min/sigma_max up to
(max(n, q) eps)^(1/4), the Gram's own resolution, where an SVD solve stops at
max(n, q) eps.  An exact fit, a forward or backward residual energy at most
eps sum y^2, is "zero residual variance": that residual is rounding noise.

Community versions restrict everything to the community's nodes with the
community-masked weights; a stage with no within-subset pairs is flagged
degenerate (value zero) rather than silently reinterpreted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GnarError, check_size
from .network import Network, stage_weights
from .panel import TimeSeriesPanel
from .partition import CommunityPartition
from .textfile import check_cell

KINDS = ("nacf", "pnacf")


@dataclass(frozen=True)
class AcfCell:
    """One autocorrelation value; degenerate cells carry value 0 and a note."""

    value: float
    degenerate: bool = False
    note: str = ""


def _subset_indices(d: int, nodes) -> list[int]:
    idx = [int(i) - 1 for i in nodes]
    if not idx:
        raise GnarError("node subset is empty")
    if len(set(idx)) != len(idx):
        raise GnarError("node subset contains duplicates")
    for i in idx:
        if not (0 <= i < d):
            raise GnarError(f"node {i + 1} outside 1..{d}")
    return idx


def _inputs(panel: TimeSeriesPanel, net: Network, W: np.ndarray, max_lag: int,
            r: int, nodes=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Checked kernel inputs: the centred panel and B_1..B_r, cut to the checked ``nodes``."""
    check_size("panel", panel.d, "network", net.d)
    if not 1 <= max_lag < panel.T:
        raise GnarError(f"lag {max_lag} outside 1..{panel.T - 1} "
                        f"(panel has {panel.T} time steps)")
    E, Bs = panel.values - panel.values.mean(axis=1, keepdims=True), stage_weights(net, W, r)
    return (E, Bs) if nodes is None else _cut(E, Bs, _subset_indices(panel.d, nodes))


def _cut(E: np.ndarray, Bs: list[np.ndarray], idx: list[int]
         ) -> tuple[np.ndarray, list[np.ndarray]]:
    """The kernel inputs of the 0-based nodes ``idx``, with within-subset weights."""
    return E[idx], [B[np.ix_(idx, idx)] for B in Bs]


def _lambda(Bs: list[np.ndarray]) -> float:
    """lambda_r for the last stage in Bs (1 at stage 0 or for zero weights)."""
    if not Bs or not Bs[-1].any():
        return 1.0
    return 1.0 + float(np.linalg.norm(Bs[-1], 2))


def _apply_A(Bs: list[np.ndarray], E: np.ndarray) -> np.ndarray:
    """(I + B_r) E, with B_0 = 0."""
    return E + Bs[-1] @ E if Bs else E


# The cell kernels take the centred panel E, the stage weights B_1..B_r,
# lambda_r and either (I + B_r)E (NACF) or the cross-products of E (PNACF), so
# that a grid derives them once per community and stage.

def _nacf_cell(E: np.ndarray, Bs: list[np.ndarray], lam: float, h: int,
               subset: bool, AE: np.ndarray) -> AcfCell:
    if subset and Bs and not Bs[-1].any():
        return AcfCell(0.0, True, "no within-subset stage pairs")
    den = lam * float(np.sum(E * E))
    if den == 0.0:
        return AcfCell(0.0, True, "zero variance")
    num = float(np.sum(E[:, h:] * AE[:, :-h]))
    return AcfCell(num / den)


@functools.lru_cache(maxsize=256)
def _pair_windows(c: int, h: int) -> np.ndarray:
    """[(w, a), (v, b)] -> flat index into a difference D[p, w, v] of ``_cross_products``
    window sums (h x h per pair): D[p(a, b), w, v] for a <= b, else D[p(b, a), v, w], since
    M_ba is M_ab transposed.  Read-only, as the cache shares it."""
    w, a, v, b = np.ix_(range(h), range(c), range(h), range(c))
    lo, hi, up = np.minimum(a, b), np.maximum(a, b), a <= b
    flat = ((hi * (hi + 1) // 2 + lo) * h + np.where(up, w, v)) * h + np.where(up, v, w)
    flat = flat.reshape(h * c, h * c)
    flat.flags.writeable = False
    return flat


def _cross_products(layers: list) -> tuple[list[np.ndarray], np.ndarray]:
    """V = [E, B_1E, ..., B_rE] (r+1, m, T) for each layer (E, B_1..B_r), and prefix sums
    P, stacked over layers, with sum_{s<n} M_ab[i+s, j+s] = P[k, p, i+n, j+n] -
    P[k, p, i, j] for M_ab = V_a'V_b of layer k, a <= b and p = b(b+1)/2 + a, so that the
    pairs of stages 0..r come first.  M_ba is M_ab transposed and is not formed.  Each
    M_ab is its own product, so a grid cell and a single call agree to the bit whatever
    their stages."""
    Vs = [np.stack([E] + [B @ E for B in Bs]) for E, Bs in layers]
    c, T = Vs[0].shape[0], Vs[0].shape[2]
    P = np.zeros((len(Vs), c * (c + 1) // 2, T + 1, T + 1))
    for k, V in enumerate(Vs):
        for b in range(c):  # pairs (0, b) .. (b, b)
            p = b * (b + 1) // 2
            P[k, p:p + b + 1, 1:, 1:] = V[:b + 1].transpose(0, 2, 1) @ V[b]
    for i in range(2, T + 1):
        P[..., i, 1:] += P[..., i - 1, :-1]
    return Vs, P


def _pnacf_cells(layers: list, P: np.ndarray, h: int, subset: bool) -> list[AcfCell]:
    """PNACF at lag h and one stage r for each layer (E, B_1..B_r, lambda_r, V).

    P stacks the layers' ``_cross_products`` prefix sums: the Gram matrices, their
    eigenvalues and inverses are one stacked call each, the residuals stay on each
    layer's own arrays and the scalar rules run on Python floats.
    """
    cells = [_nacf_cell(E, Bs, lam, h, subset, _apply_A(Bs, E))  # lag 1, or no stage pairs
             if h == 1 or (subset and Bs and not Bs[-1].any()) else None
             for E, Bs, lam, _ in layers]
    fit = [k for k, cell in enumerate(cells) if cell is None]
    if not fit:
        return cells
    L, c, T, eps = h - 1, len(layers[0][1]) + 1, P.shape[-1] - 1, float(np.finfo(float).eps)
    n, q = T - L, L * c
    # S[k, (w, a), (v, b)] = sum_{s<n} V_a[:, w+s].V_b[:, v+s] of layer fit[k], w, v = 0..L:
    # forward fits take window L of E on windows 0..L-1 (lags L..1), backward ones 0 on 1..L.
    D = P[fit, :c * (c + 1) // 2, n:, n:] - P[fit, :c * (c + 1) // 2, :h, :h]
    S = D.reshape(len(fit), -1)[:, _pair_windows(c, h)]
    gram = np.stack([S[:, :q, :q], S[:, c:, c:]], axis=1)
    evs, yys, ok = np.linalg.eigvalsh(gram).tolist(), S[:, [q, 0], [q, 0]].tolist(), []
    for j, (ev, k) in enumerate(zip(evs, fit)):
        tol = [e[-1] * math.sqrt(max(layers[k][0].shape[0] * n, q) * eps) for e in ev]
        if ev[0][0] > tol[0] and ev[1][0] > tol[1]:
            ok.append(j)
            continue
        d = int(ev[0][0] > tol[0])
        note = f"auxiliary fit rank deficient (rank {sum(e > tol[d] for e in ev[d])} of {q})"
        cells[k] = AcfCell(0.0, True, note + d * " (reversed)")

    def stairs(U: np.ndarray) -> np.ndarray:  # [d, w, :, s] = U[d, w, :, w + d + s], s < n
        st = U.strides  # one time step is st[3]; w + d + n <= T keeps each window in its row
        return np.ndarray((2, L, U.shape[2], n), U.dtype, U, 0,
                          (st[0] + st[3], st[1] + st[3], st[2], st[3]))

    for j, G in zip(ok, np.linalg.inv(gram[ok]) if ok else ()):
        E, Bs, lam, V = layers[fit[j]]
        m, Vc = E.shape[0], V[:c].reshape(c, E.size)

        def minus_fit(R: np.ndarray, xty: np.ndarray) -> np.ndarray:
            theta = (G @ xty).reshape(2 * L, c)
            return R - stairs((theta @ Vc).reshape(2, L, m, T)).sum(axis=1)

        R = minus_fit(np.array([E[:, L:], E[:, :n]]), np.array([S[j, :q, q:q + 1], S[j, c:, :1]]))
        energy = np.einsum("dis,dis->d", R, R).tolist()
        if any(eps * (ev_d[-1] / ev_d[0]) * math.sqrt(yy) > 1e-12 * math.sqrt(e)
               for ev_d, yy, e in zip(evs[j], yys[j], energy)):
            K = np.zeros((2, L, m, T))
            stairs(K)[...] = R[:, None]  # so that K V' is X'R
            R = minus_fit(R, (K.reshape(2 * L, m * T) @ Vc.T).reshape(2, q, 1))
            energy = np.einsum("dis,dis->d", R, R).tolist()
        if energy[0] <= eps * yys[j][0] or energy[1] <= eps * yys[j][1]:
            cells[fit[j]] = AcfCell(0.0, True, "zero residual variance")
        else:
            AG = _apply_A(Bs, R[1])
            num = float(np.sum(R[0, :, 1:] * AG[:, :-1]))
            cells[fit[j]] = AcfCell(num / (lam * math.sqrt(energy[0] * energy[1])))
    return cells


def nacf(panel: TimeSeriesPanel, net: Network, W: np.ndarray, h: int, r: int,
         nodes=None) -> AcfCell:
    """Network autocorrelation at lag h and stage r (r = 0: pooled ACF).

    ``nodes`` restricts the computation to a node subset with the weight
    matrix masked to within-subset pairs.
    """
    E, Bs = _inputs(panel, net, W, h, r, nodes)
    return _nacf_cell(E, Bs, _lambda(Bs), h, nodes is not None, _apply_A(Bs, E))


def pnacf(panel: TimeSeriesPanel, net: Network, W: np.ndarray, h: int, r: int,
          nodes=None) -> AcfCell:
    """Partial network autocorrelation at lag h and stage r.

    Equals ``nacf`` at h = 1.  For larger lags the order-(h-1) auxiliary
    regressions must be estimable; failures surface as degenerate cells.
    """
    E, Bs = _inputs(panel, net, W, h, r, nodes)
    (V,), P = _cross_products([(E, Bs)])
    return _pnacf_cells([(E, Bs, _lambda(Bs), V)], P, h, nodes is not None)[0]


@dataclass(frozen=True, eq=False)
class CorbitGrid:
    """(P)NACF values over lags 1..H and stages 1..R, optionally per community.

    Without communities ``values`` has shape (H, R); with communities it has
    shape (C, H, R), one label per community, and ``mean_values`` averages each
    cell's non-degenerate community values (0, and degenerate, when every
    community cell is).  ``degenerate`` and ``notes`` have the shape of ``values``;
    ``notes`` holds each degenerate cell's reason, "" for regular cells.
    """

    kind: str
    values: np.ndarray
    degenerate: np.ndarray
    communities: tuple[str, ...] | None = None
    notes: np.ndarray | None = None

    def __post_init__(self):
        shape = np.shape(self.values)
        labels = () if self.communities is None else (len(self.communities),)
        if len(shape) != 2 + len(labels) or shape[:len(labels)] != labels:
            raise GnarError(f"grid values have shape {shape}; expected ("
                            + "".join(f"{c} communities, " for c in labels) + "lags, stages)")
        for name in ("degenerate", "notes"):
            if (got := getattr(self, name)) is not None and np.shape(got) != shape:
                raise GnarError(f"grid {name} has shape {np.shape(got)}, values have {shape}")

    @property
    def has_communities(self) -> bool:
        return self.communities is not None

    @property
    def max_lag(self) -> int:
        return self.values.shape[-2]

    @property
    def max_stage(self) -> int:
        return self.values.shape[-1]

    @functools.cached_property
    def mean_values(self) -> np.ndarray | None:
        if not self.has_communities:
            return None
        count = np.maximum(np.sum(~self.degenerate, axis=0), 1)  # all-degenerate cells: 0 / 1
        return np.where(self.degenerate, 0.0, self.values).sum(axis=0) / count

    @functools.cached_property
    def mean_degenerate(self) -> np.ndarray | None:
        return self.degenerate.all(axis=0) if self.has_communities else None

    def to_csv_text(self) -> str:
        lines = ["kind,community,lag,stage,value,degenerate"]

        def emit(layer: str, vals: np.ndarray, degs: np.ndarray) -> None:
            for h in range(1, self.max_lag + 1):
                for r in range(1, self.max_stage + 1):
                    v, g = vals[h - 1, r - 1], degs[h - 1, r - 1]
                    lines.append(f"{self.kind},{layer},{h},{r},{float(v)!r},{int(g)}")

        if not self.has_communities:
            emit("all", self.values, self.degenerate)
        else:
            for ci, label in enumerate(self.communities):
                check_cell("community label", label)
                emit(label, self.values[ci], self.degenerate[ci])
            emit("mean", self.mean_values, self.mean_degenerate)
        return "\n".join(lines) + "\n"


def corbit_grid(panel: TimeSeriesPanel, net: Network, W: np.ndarray,
                max_lag: int, max_stage: int, kind: str,
                part: CommunityPartition | None = None) -> CorbitGrid:
    """Evaluate the full lag/stage grid; failed cells carry degenerate flags."""
    if kind not in KINDS:
        raise GnarError(f"kind must be one of {KINDS}, got {kind!r}")
    if max_stage < 1:
        raise GnarError(f"max stage must be >= 1, got {max_stage}")
    H, R, subset = max_lag, max_stage, part is not None
    if subset:
        check_size("partition", part.d, "panel", panel.d)
    E, Bs = _inputs(panel, net, W, H, R)  # one geometry, cut per community
    inputs = [(E, Bs)] if part is None else [
        _cut(E, Bs, [i - 1 for i in part.members(g)]) for g in range(1, part.n_communities + 1)]
    lams = [[_lambda(Bs[:r]) for r in range(1, R + 1)] for _, Bs in inputs]
    if kind == "nacf":
        AEs = [[_apply_A(Bs[:r], E) for r in range(1, R + 1)] for E, Bs in inputs]

        def step(h: int, r: int) -> list[AcfCell]:
            return [_nacf_cell(E, Bs[:r], lam[r - 1], h, subset, AE[r - 1])
                    for (E, Bs), lam, AE in zip(inputs, lams, AEs)]
    else:
        Vs, P = _cross_products(inputs)

        def step(h: int, r: int) -> list[AcfCell]:
            return _pnacf_cells([(E, Bs[:r], lam[r - 1], V) for (E, Bs), lam, V
                                 in zip(inputs, lams, Vs)], P, h, subset)

    cells = [[step(h, r) for r in range(1, R + 1)] for h in range(1, H + 1)]
    values, degs, notes = (np.array([[[getattr(cs[k], f) for cs in row] for row in cells]
                                     for k in range(len(inputs))])
                           for f in ("value", "degenerate", "note"))
    if part is None:
        return CorbitGrid(kind, values[0], degs[0], notes=notes[0])
    return CorbitGrid(kind, values, degs, part.labels, notes)
