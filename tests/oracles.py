"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: distances come from
dense all-pairs relaxation, least squares from the explicit normal
equations, and one-step predictions from a literal term-by-term evaluation
of the structural model equation.  The exceptions call the library's
general QR solve: :func:`pivoted_qr_fit` on the whole design, the oracle for
the local variant's structured solve, and :func:`blockwise_gls` on a design
whitened one block at a time.  :func:`scipy_qr_solve` is the
general QR solve as first written, on ``scipy.linalg.qr``.
:func:`lstsq_pnacf` solves each auxiliary regression of the partial NACF
by ``np.linalg.lstsq`` on its dense design.  :func:`loop_default_weights`
builds the equal-split weights one stage at a time, as the library first
did.  :func:`loop_abs_sums` adds the stationarity sums array by array, as
the library first did.  :func:`loop_to_var` sums the VAR matrices slot by
slot and :func:`masked_design` builds a design column by column, both from
stage weights masked once per community by ``mask_weights``, as the
library first did.  :func:`dictreader_returns` is
the election-returns tally as first written, one ``csv.DictReader`` dict and
numpy scalar update per row.  :func:`separate_render_corbit` and
:func:`separate_render_rcorbit` are the radial SVG renderers as first
written, each with its own rings, overflow check and point loop.
:func:`adjacency_matrix`, :func:`neighbours` and :func:`indicator` are the
adjacency, neighbour and membership views the network and partition
classes once had, read off the edge set and the assignment.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from gnar.corbit_svg import RenderOptions
from gnar.errors import GnarError

UNREACHABLE = -1


def floyd_warshall(d: int, edges) -> np.ndarray:
    """All-pairs shortest paths by dense relaxation."""
    INF = float("inf")
    dist = np.full((d, d), INF)
    np.fill_diagonal(dist, 0.0)
    for i, j in edges:
        dist[i - 1, j - 1] = 1.0
        dist[j - 1, i - 1] = 1.0
    for k in range(d):
        for i in range(d):
            for j in range(d):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    out = np.full((d, d), UNREACHABLE, dtype=np.int64)
    finite = dist < INF
    out[finite] = dist[finite].astype(np.int64)
    return out


def adjacency_matrix(net) -> np.ndarray:
    """Dense 0/1 adjacency matrix of a network, one edge at a time."""
    A = np.zeros((net.d, net.d))
    for i, j in net.edges:
        A[i - 1, j - 1] = A[j - 1, i - 1] = 1.0
    return A


def neighbours(net, i: int) -> list[int]:
    """1-based ids of node i's direct neighbours, ascending, read off the edge set."""
    return sorted(b if a == i else a for a, b in net.edges if i in (a, b))


def indicator(part, c: int) -> np.ndarray:
    """0/1 membership vector of community c (length d)."""
    return np.asarray([1.0 if a == c else 0.0 for a in part.assignment])


def loop_default_weights(dist: np.ndarray) -> np.ndarray:
    """Equal-split weights by one mask and row count per stage of ``dist``."""
    d = dist.shape[0]
    W = np.zeros((d, d))
    for r in range(1, int(dist.max()) + 1):
        mask = dist == r
        counts = mask.sum(axis=1)
        rows = counts > 0
        W[mask] = np.repeat(1.0 / counts[rows], counts[rows])
    return W


def loop_abs_sums(coeffs, order) -> tuple[np.ndarray, tuple[str, ...]]:
    """(sums, labels) of |alpha| + |beta| per group, or per node for local orders."""
    if order.variant == "local":
        beta_total = sum(float(np.sum(np.abs(b))) for b in coeffs.beta[0])
        sums = np.sum(np.abs(coeffs.alpha_nodes), axis=1) + beta_total
        return sums, tuple(f"node{i}" for i in range(1, coeffs.alpha_nodes.shape[0] + 1))
    sums = []
    for g in range(order.n_groups):
        total = float(np.sum(np.abs(coeffs.alpha[g])))
        total += sum(float(np.sum(np.abs(b))) for b in coeffs.beta[g])
        sums.append(total)
    return np.asarray(sums), tuple(str(g) for g in range(1, order.n_groups + 1))


def loop_to_var(coeffs, order, net, W, part=None) -> np.ndarray:
    """VAR matrices added up slot by slot from per-community masked stage weights."""
    from gnar.model import theta_index
    from gnar.network import mask_weights, stage_weights

    Bs = stage_weights(net, W, order.r_star)
    groups = range(1, order.n_groups + 1)
    depth = [max(s) for s in order.stages]
    if order.variant != "community":
        xi, Bs = [np.ones(net.d)], [list(Bs[:depth[0]])]
    else:
        xi = [indicator(part, g) for g in groups]
        Bs = [[mask_weights(B, part, g) for B in Bs[:depth[g - 1]]] for g in groups]
    phi = np.zeros((order.p_max, net.d, net.d))
    for e, v in zip(theta_index(order, net.d), coeffs.theta):
        if e.stage is not None:
            phi[e.lag - 1] += v * Bs[e.group - 1][e.stage - 1]
        elif e.node is not None:
            phi[e.lag - 1, e.node - 1, e.node - 1] += v
        else:
            phi[e.lag - 1] += np.diag(v * xi[e.group - 1])
    return phi


def masked_design(panel, order, net, W, part=None, c=None) -> np.ndarray:
    """Dense design of the joint fit, or of community c's block, one column at a time.

    An alpha column is the indicator of its group (or its node) times the
    lagged panel; a beta column is its group's masked stage weights times
    the panel, one product per community and stage.
    """
    from gnar.model import theta_index
    from gnar.network import mask_weights, stage_weights

    X, d, T = panel.values, panel.d, panel.T
    community = order.variant == "community"
    entries = [e for e in theta_index(order, d) if c is None or e.group == c]
    p0 = order.p_max if c is None else order.lags[c - 1]
    rows = list(range(d)) if c is None else [i - 1 for i in part.members(c)]
    Bs = stage_weights(net, W, order.r_star)
    columns = []
    for e in entries:
        if e.stage is not None:
            B = Bs[e.stage - 1]
            M = (mask_weights(B, part, e.group) if community else B) @ X
        elif e.node is not None:
            M = (np.arange(d) == e.node - 1)[:, None] * X
        else:
            M = (indicator(part, e.group) if community else np.ones(d))[:, None] * X
        columns.append(M[rows, p0 - e.lag:T - e.lag].T.ravel())
    return np.column_stack(columns)


def normal_equations_solve(R: np.ndarray, y: np.ndarray) -> np.ndarray:
    """theta = (R'R)^-1 R'y via explicit inversion."""
    return np.linalg.inv(R.T @ R) @ (R.T @ y)


def gls_dense_solve(R: np.ndarray, y: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """theta = (R' S^-1 R)^-1 R' S^-1 y via explicit inverses."""
    si = np.linalg.inv(sigma)
    return np.linalg.inv(R.T @ si @ R) @ (R.T @ si @ y)


def blockwise_gls(ds, block: np.ndarray):
    """(theta, coefficient covariance, sigma^2) of GLS under I kron block, whitening
    the design and y one block of ``block``'s size at a time with
    ``scipy.linalg.solve_triangular``, then solving by the library's pivoted QR,
    as the library first did.  A block of all n rows is a full covariance, which
    the library first whitened by one call on the whole system."""
    import scipy.linalg

    from gnar.estimate import solve_least_squares

    m = block.shape[0]
    L = np.linalg.cholesky(block)
    if m == ds.n:
        Rw = scipy.linalg.solve_triangular(L, ds.R, lower=True)
        yw = scipy.linalg.solve_triangular(L, ds.y, lower=True)
    else:
        Rw, yw = np.empty((ds.n // m, m, ds.q)), np.empty((ds.n // m, m))
        for b in range(ds.n // m):
            Rw[b] = scipy.linalg.solve_triangular(L, ds.R[b * m:(b + 1) * m], lower=True)
            yw[b] = scipy.linalg.solve_triangular(L, ds.y[b * m:(b + 1) * m], lower=True)
        Rw, yw = Rw.reshape(ds.n, ds.q), yw.ravel()
    theta, gram_inv = solve_least_squares(Rw, yw, ds.column_names())
    resid = yw - Rw @ theta
    return theta, gram_inv, float(resid @ resid) / (ds.n - ds.q)


def scipy_qr_solve(R: np.ndarray, y: np.ndarray, names=None):
    """(theta, (R'R)^-1) by ``scipy.linalg.qr(R, mode="economic", pivoting=True)``, with
    the library's size and rank checks, as the library's solve first did."""
    import scipy.linalg

    from gnar.errors import DesignError, RankDeficiencyError

    n, q = R.shape
    if n < q:
        raise DesignError(f"system has {n} rows for {q} parameters")
    Q, Rf, piv = scipy.linalg.qr(R, mode="economic", pivoting=True)
    diag = np.abs(np.diag(Rf))
    tol = diag[0] * max(n, q) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < q:
        dependent = [names[j] if names else f"column {j}" for j in piv[rank:]]
        raise RankDeficiencyError(
            f"design matrix is rank deficient (rank {rank} of {q}); "
            f"dependent columns: {', '.join(dependent)}", dependent)
    z = scipy.linalg.solve_triangular(Rf, Q.T @ y)
    theta = np.empty(q)
    theta[piv] = z
    r_inv = scipy.linalg.solve_triangular(Rf, np.eye(q))
    gram_inv = np.empty((q, q))
    gram_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
    return theta, gram_inv


def pivoted_qr_fit(ds):
    """(theta, standard errors, sigma^2) of OLS by a pivoted QR of the whole design."""
    from gnar.estimate import solve_least_squares

    theta, gram_inv = solve_least_squares(ds.R, ds.y, ds.column_names())
    resid = ds.y - ds.R @ theta
    sigma2 = float(resid @ resid) / (ds.n - ds.q)
    return theta, np.sqrt(sigma2 * np.diag(gram_inv)), sigma2


def local_design(panel, order, net, W) -> np.ndarray:
    """Dense design of a local order, filled row by row from the panel.

    Row (t, i) holds node i's own lag-k value in node i's lag-k alpha column
    (zeros in every other node's) and the lag-k stage-r neighbourhood sum in
    beta column (k, r).  The neighbourhood series use the same (W o S_r) X
    matrix product as the library, so the two designs agree bit for bit.
    """
    from gnar.network import stage_adjacency

    X, d, T = panel.values, panel.d, panel.T
    p, stages = order.lags[0], order.stages[0]
    Z = [(W * S) @ X for S in stage_adjacency(net.distances)]
    rows = []
    for t in range(p, T):
        for i in range(d):
            row = []
            for k in range(1, p + 1):
                row += [X[i, t - k] if j == i else 0.0 for j in range(d)]
                row += [Z[r - 1][i, t - k] for r in range(1, stages[k - 1] + 1)]
            rows.append(row)
    return np.array(rows)


def structural_prediction(coeffs, order, net, W, part, history: np.ndarray) -> np.ndarray:
    """One-step prediction by literal evaluation of the structural equation.

    ``history[:, -k]`` is the value k steps back.  Every term is assembled
    per community from scratch: indicator-masked lagged values plus the
    stage-masked neighbourhood averages, nothing shared with the library's
    VAR mapping.
    """
    from gnar.network import bfs_distances, stage_adjacency

    d = net.d
    S = stage_adjacency(bfs_distances(net))
    pred = np.zeros(d)
    if order.variant == "local":
        p, stages = order.lags[0], order.stages[0]
        for i in range(d):
            for k in range(1, p + 1):
                pred[i] += coeffs.alpha_nodes[i, k - 1] * history[i, -k]
                for r in range(1, stages[k - 1] + 1):
                    z = 0.0
                    for j in range(d):
                        z += W[i, j] * S[r - 1][i, j] * history[j, -k]
                    pred[i] += coeffs.beta[0][k - 1][r - 1] * z
        return pred
    groups = range(1, order.n_groups + 1)
    for c in groups:
        if order.variant == "community":
            member = np.asarray([part.community_of(i + 1) == c for i in range(d)])
        else:
            member = np.ones(d, dtype=bool)
        p_c, stages = order.lags[c - 1], order.stages[c - 1]
        for k in range(1, p_c + 1):
            x_lag = np.where(member, history[:, -k], 0.0)
            pred += coeffs.alpha[c - 1][k - 1] * x_lag
            for r in range(1, stages[k - 1] + 1):
                z = np.zeros(d)
                for i in range(d):
                    if not member[i]:
                        continue
                    for j in range(d):
                        if member[j]:
                            z[i] += W[i, j] * S[r - 1][i, j] * x_lag[j]
                pred += coeffs.beta[c - 1][k - 1][r - 1] * z
    return pred


def companion_spectral_radius(phi: np.ndarray) -> float:
    """Spectral radius of the companion matrix of Phi_1..Phi_p."""
    p, d, _ = phi.shape
    comp = np.zeros((p * d, p * d))
    for k in range(p):
        comp[:d, k * d:(k + 1) * d] = phi[k]
    if p > 1:
        comp[d:, :-d] = np.eye((p - 1) * d)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def pooled_acf(values: np.ndarray, h: int) -> float:
    """Pooled cross-sectional ACF of the per-node centred panel."""
    E = values - values.mean(axis=1, keepdims=True)
    num = float(np.sum(E[:, h:] * E[:, :-h]))
    den = float(np.sum(E * E))
    return num / den


def random_connected_graph(rng: np.random.Generator, d: int):
    """Random spanning tree plus extra edges; always connected."""
    edges = set()
    nodes = list(rng.permutation(d) + 1)
    for a, b in zip(nodes, nodes[1:]):
        edges.add((min(a, b), max(a, b)))
    extra = rng.integers(0, d * (d - 1) // 2 // 2 + 1)
    for _ in range(extra):
        i, j = rng.integers(1, d + 1, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def random_graph(rng: np.random.Generator, d: int, p_edge: float = 0.35):
    """Erdos-Renyi style edge list; may be disconnected."""
    edges = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            if rng.random() < p_edge:
                edges.append((i, j))
    return edges


def _aux_lstsq(E: np.ndarray, Bs, n_lags: int):
    """Residual matrix, rank and sigma_min/sigma_max of the pooled regression
    of E on its lags 1..n_lags and their neighbourhood aggregates B E."""
    m, T = E.shape
    cols = []
    for k in range(1, n_lags + 1):
        for Z in [E] + [B @ E for B in Bs]:
            cols.append(Z[:, n_lags - k:T - k].T.ravel())
    X = np.column_stack(cols)
    y = E[:, n_lags:].T.ravel()
    theta, _, rank, sv = np.linalg.lstsq(X, y, rcond=None)
    ratio = sv[-1] / sv[0] if sv[0] > 0 and len(sv) == X.shape[1] else 0.0
    resid = (y - X @ theta).reshape(T - n_lags, m).T
    return resid, int(rank), float(ratio), float(y @ y)


def lstsq_pnacf(panel, net, W, h: int, r: int, nodes=None):
    """(AcfCell, sigma_min/sigma_max) of the partial NACF at lag h and stage r
    with dense auxiliary designs solved by ``lstsq`` forwards and backwards.

    The ratio is the smaller of the two designs' (0 for an empty or wide
    design; None at lag 1 or without stage pairs, where no regression
    runs).  Flags follow the library's rules: lstsq's own rank, and zero
    residual variance when a residual energy is at most eps sum y^2.
    """
    from gnar.autocorr import AcfCell, nacf
    from gnar.network import stage_weights

    E = panel.values - panel.values.mean(axis=1, keepdims=True)
    Bs = stage_weights(net, W, r)
    if nodes is not None:
        idx = [i - 1 for i in nodes]
        E, Bs = E[idx], [B[np.ix_(idx, idx)] for B in Bs]
    if h == 1 or (nodes is not None and Bs and not np.any(Bs[-1])):
        return nacf(panel, net, W, h, r, nodes), None
    q = (h - 1) * (r + 1)
    F, rank_f, ratio_f, yy_f = _aux_lstsq(E, Bs, h - 1)
    G_rev, rank_g, ratio_g, yy_g = _aux_lstsq(E[:, ::-1], Bs, h - 1)
    ratio = min(ratio_f, ratio_g)
    if rank_f < q:
        return AcfCell(0.0, True, f"auxiliary fit rank deficient (rank {rank_f} of {q})"), ratio
    if rank_g < q:
        return AcfCell(0.0, True, f"auxiliary fit rank deficient (rank {rank_g} of {q})"
                                  " (reversed)"), ratio
    G = G_rev[:, ::-1]
    eps = np.finfo(float).eps
    if np.sum(F * F) <= eps * yy_f or np.sum(G * G) <= eps * yy_g:
        return AcfCell(0.0, True, "zero residual variance"), ratio
    lam = 1.0 + float(np.linalg.norm(Bs[-1], 2)) if Bs and np.any(Bs[-1]) else 1.0
    AG = G + Bs[-1] @ G if Bs else G
    num = float(np.sum(F[:, 1:] * AG[:, :-1]))
    return AcfCell(num / (lam * float(np.sqrt(np.sum(F * F) * np.sum(G * G))))), ratio


def dictreader_returns(path):
    """(rep, dem, total) vote arrays of a valid per-candidate returns file.

    Rows are read as ``csv.DictReader`` dicts and summed into the 51 x 12
    arrays one numpy element at a time: president rows only (a blank office
    counts), quadrennial years 1976..2020, the party label from the first of
    party_simplified, party or party_detailed, blank and NA vote cells as
    zero, and the largest ``totalvotes`` of each state-year as its total.
    """
    from gnar.elections import ELECTION_YEARS, STATE_NAMES

    state_idx = {name: i for i, name in enumerate(STATE_NAMES)}
    year_idx = {y: j for j, y in enumerate(ELECTION_YEARS)}
    d, T = len(STATE_NAMES), len(ELECTION_YEARS)
    rep, dem, total = np.zeros((d, T)), np.zeros((d, T)), np.full((d, T), np.nan)

    def votes(raw) -> int:
        text = (raw or "").strip()
        return 0 if not text or text.upper() == "NA" else int(float(text))

    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            office = (row.get("office") or "").strip().upper()
            if office and office != "US PRESIDENT":
                continue
            year = int(row["year"])
            if year not in year_idx:
                continue
            i, j = state_idx[row["state"].strip().upper()], year_idx[year]
            n, tv = votes(row["candidatevotes"]), votes(row["totalvotes"])
            total[i, j] = tv if np.isnan(total[i, j]) else max(total[i, j], tv)
            key = next(k for k in ("party_simplified", "party", "party_detailed")
                       if row.get(k) is not None)
            party = row[key].strip().upper()
            if party == "REPUBLICAN":
                rep[i, j] += n
            elif party == "DEMOCRAT":
                dem[i, j] += n
    return rep, dem, total


# The radial SVG renderers as first written, with the helpers they call.

def _hex_rgb(colour: str) -> tuple[int, int, int]:
    colour = colour.lstrip("#")
    return int(colour[0:2], 16), int(colour[2:4], 16), int(colour[4:6], 16)


def value_colour(v: float, opts: RenderOptions) -> str:
    """Diverging colour for a value clipped to [-1, 1]."""
    v = max(-1.0, min(1.0, v))
    if v < 0:
        a, b, t = _hex_rgb(opts.colour_zero), _hex_rgb(opts.colour_neg), -v
    else:
        a, b, t = _hex_rgb(opts.colour_zero), _hex_rgb(opts.colour_pos), v
    rgb = tuple(round(x + (y - x) * t) for x, y in zip(a, b))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _fmt(x: float) -> str:
    return format(x, ".3f")


def _point_radius(v: float, opts: RenderOptions) -> float:
    return opts.point_radius_min + (opts.point_radius_max - opts.point_radius_min) \
        * min(abs(v), 1.0)


def _angle(h: int, H: int) -> float:
    """Angle in radians for lag h; twelve o'clock start, clockwise."""
    return math.radians(-90.0 + (h - 1) * 360.0 / H)


def _check_fit(outer: float, opts: RenderOptions) -> None:
    if outer + opts.label_font_size > opts.size / 2.0 - 2.0:
        raise GnarError(f"layout radius {outer:.0f} overflows a {opts.size}px canvas; "
                        "increase size or reduce ring spacing")


def _header(opts: RenderOptions, title: str) -> list[str]:
    s = opts.size
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{s}" height="{s}" viewBox="0 0 {s} {s}">',
        f"<title>{title}</title>",
        f'<rect class="background" x="0" y="0" width="{s}" height="{s}" fill="#ffffff"/>',
    ]


def _rings_and_labels(H: int, R: int, label_radius: float,
                      opts: RenderOptions) -> list[str]:
    cx = cy = opts.size / 2.0
    parts = []
    for r in range(1, R + 1):
        radius = opts.inner_radius + (r - 1) * opts.ring_gap
        parts.append(f'<circle class="ring-guide" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                     f'r="{_fmt(radius)}" fill="none" stroke="#cccccc" '
                     f'stroke-width="1"/>')
    for h in range(1, H + 1):
        ang = _angle(h, H)
        x = cx + label_radius * math.cos(ang)
        y = cy + label_radius * math.sin(ang)
        parts.append(f'<text class="lag-label" x="{_fmt(x)}" y="{_fmt(y)}" '
                     f'text-anchor="middle" dominant-baseline="middle" '
                     f'font-size="{_fmt(opts.label_font_size)}">{h}</text>')
    parts.append(f'<circle class="zero-marker" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.0" '
                 f'fill="{value_colour(0.0, opts)}" stroke="#888888" stroke-width="1"/>')
    return parts


def _point(cls: str, x: float, y: float, v: float, degenerate: bool,
           opts: RenderOptions, extra: str = "") -> str:
    radius = _point_radius(v, opts)
    colour = value_colour(v, opts)
    if degenerate:
        fill, stroke = "none", "#888888"
    else:
        fill, stroke = colour, "#555555"
    return (f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="0.8"{extra} '
            f'data-value="{float(v)!r}" data-degenerate="{int(degenerate)}"/>')


def separate_render_corbit(grid: CorbitGrid, opts: RenderOptions = RenderOptions()) -> str:
    """SVG text for a plain (no-community) autocorrelation grid."""
    if grid.has_communities:
        raise GnarError("grid carries communities; use render_rcorbit")
    H, R = grid.max_lag, grid.max_stage
    outer = opts.inner_radius + (R - 1) * opts.ring_gap
    label_radius = outer + opts.label_offset
    _check_fit(label_radius, opts)
    cx = cy = opts.size / 2.0
    parts = _header(opts, f"corbit {grid.kind}")
    parts += _rings_and_labels(H, R, label_radius, opts)
    for h in range(1, H + 1):
        ang = _angle(h, H)
        for r in range(1, R + 1):
            radius = opts.inner_radius + (r - 1) * opts.ring_gap
            x = cx + radius * math.cos(ang)
            y = cy + radius * math.sin(ang)
            v = float(grid.values[h - 1, r - 1])
            deg = bool(grid.degenerate[h - 1, r - 1])
            extra = f' data-lag="{h}" data-stage="{r}"'
            parts.append(_point("corbit-point", x, y, v, deg, opts, extra))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def separate_render_rcorbit(grid: CorbitGrid, opts: RenderOptions = RenderOptions()) -> str:
    """SVG text for a community grid: per-cell community circles plus means."""
    if not grid.has_communities:
        raise GnarError("grid has no communities; use render_corbit")
    C = len(grid.communities)
    if C < 2:
        raise GnarError("community plots need at least two communities")
    H, R = grid.max_lag, grid.max_stage
    outer = opts.inner_radius + (R - 1) * opts.ring_gap + opts.cluster_radius
    label_radius = outer + opts.label_offset
    _check_fit(label_radius, opts)
    cx = cy = opts.size / 2.0
    parts = _header(opts, f"rcorbit {grid.kind}")
    for ci, label in enumerate(grid.communities):
        parts.append(f'<text class="legend-label" x="10" '
                     f'y="{_fmt(18.0 + ci * (opts.label_font_size + 4.0))}" '
                     f'font-size="{_fmt(opts.label_font_size)}">{label}</text>')
    parts += _rings_and_labels(H, R, label_radius, opts)
    for h in range(1, H + 1):
        ang = _angle(h, H)
        for r in range(1, R + 1):
            radius = opts.inner_radius + (r - 1) * opts.ring_gap
            ax = cx + radius * math.cos(ang)
            ay = cy + radius * math.sin(ang)
            mv = float(grid.mean_values[h - 1, r - 1])
            mdeg = bool(grid.mean_degenerate[h - 1, r - 1])
            extra = f' data-lag="{h}" data-stage="{r}"'
            parts.append(_point("rcorbit-mean", ax, ay, mv, mdeg, opts, extra))
            for ci, label in enumerate(grid.communities):
                cang = math.radians(-90.0 + ci * 360.0 / C)
                x = ax + opts.cluster_radius * math.cos(cang)
                y = ay + opts.cluster_radius * math.sin(cang)
                v = float(grid.values[ci, h - 1, r - 1])
                deg = bool(grid.degenerate[ci, h - 1, r - 1])
                extra = f' data-lag="{h}" data-stage="{r}" data-community="{label}"'
                parts.append(_point("rcorbit-point", x, y, v, deg, opts, extra))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
