"""Design-matrix construction and least-squares estimation.

The autoregression is estimated as a linear model: the response stacks the
observation vectors for t = p+1..T and the design stacks, per time step,
each group's lagged values and neighbourhood regressions, groups in
ascending order and lag-major inside a group.  Because community columns
are zero on rows of other communities, the Gram matrix is block-diagonal
across communities and the model can be fitted jointly or one community at
a time (the latter on each community's own, longer usable range).

Every design is kept as its blocks, gathered once from the panel and
Z_r = (W o S_r) X: the shared columns and, for a local-variant design (one
alpha per node and lag), each node's own lags, in O(d T (p + q_beta))
memory.  The dense design R is derived on first read; for a global or
community design it is a view of the shared block.  Local OLS reads only
the blocks and partials out each node's own lags (Frisch-Waugh-Lovell): the
shared betas come from a small pivoted QR of the beta columns residualised
node by node, the alphas and the full covariance by block inversion, so a
local R is built only by GLS, whose whitening couples the nodes.  Every
other fit uses a column-pivoted QR of the whole design.  The
normal-equations formula is only a test oracle.

scipy.linalg is imported on the first least-squares solve, inside
:func:`solve_least_squares` and :func:`fit_gls`, so importing gnar and the
simulate, nacf, corbit and forecast commands never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CovarianceError, DesignError, RankDeficiencyError, check_size
from .model import (GnarCoefficients, GnarOrder, StationarityReport, ThetaEntry, _group_bases,
                    abs_sums, theta_index)
from .network import Network, stage_weights
from .panel import TimeSeriesPanel
from .partition import CommunityPartition


@dataclass(frozen=True, eq=False)
class DesignSystem:
    """Stacked linear system R theta = y plus the column/row bookkeeping.

    ``columns[j]`` says which coefficient column j estimates.  Rows cycle
    over ``node_labels`` for each predicted time step.  ``blocks`` is
    ``(A, B, a_idx, b_idx)``: each node's own lags (a local order's alphas,
    ``None`` for other orders) and the shared columns as [t, node, column]
    arrays, and their columns of R.  ``R`` (C order) is derived from them on
    first read and kept: without own lags it is a view of ``B``.
    """

    blocks: tuple = field(repr=False)
    y: np.ndarray
    columns: tuple[ThetaEntry, ...]
    order: GnarOrder
    node_labels: tuple[str, ...]
    time_labels: tuple[str, ...]
    group: int | None = None

    @cached_property
    def R(self) -> np.ndarray:
        A, B, a_idx, b_idx = self.blocks
        if A is None:
            return B.reshape(self.n, self.q)
        R = np.zeros(A.shape[:2] + (self.q,))
        R[:, :, b_idx] = B
        R[:, np.arange(len(a_idx))[:, None], a_idx] = A
        return R.reshape(self.n, self.q)

    @property
    def variant(self) -> str:
        return self.order.variant

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def q(self) -> int:
        return len(self.columns)

    def column_names(self) -> tuple[str, ...]:
        return tuple(e.name(self.variant) for e in self.columns)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Estimates, uncertainty and residuals from one least-squares fit; the names, standard
    errors, residual degrees of freedom and stationarity report derive from them."""

    theta: np.ndarray
    columns: tuple[ThetaEntry, ...]
    sigma2: float
    cov: np.ndarray
    residuals: TimeSeriesPanel
    order: GnarOrder
    group: int | None = None

    @property
    def variant(self) -> str:
        return self.order.variant

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name(self.variant) for e in self.columns)

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    @property
    def df_resid(self) -> int:
        return self.residuals.values.size - len(self.theta)

    @property
    def stationarity(self) -> StationarityReport:
        return abs_sums(self.columns, self.theta)

    def to_coefficients(self) -> GnarCoefficients:
        """Rebuild a coefficient container from the estimates (joint fits only)."""
        if self.group is not None:
            raise DesignError("per-community results cover a single parameter block; "
                              "rebuild coefficients from a joint fit")
        d = len(self.residuals.node_labels)
        return GnarCoefficients.from_theta(self.theta, self.order,
                                           noise_sd=float(np.sqrt(self.sigma2)), d=d)


def _build_columns(panel: TimeSeriesPanel, order: GnarOrder, net: Network, W: np.ndarray,
                   part: CommunityPartition | None, entries: list[ThetaEntry],
                   p0: int, row_nodes: list[int], group: int | None = None
                   ) -> DesignSystem:
    """The design of the given entries on the given node rows and t = p0+1 .. T, as blocks."""
    X = panel.values
    d, T = X.shape
    check_size("panel", d, "network", net.d)
    if T <= p0:
        raise DesignError(f"panel length {T} cannot support maximum lag {p0}; "
                          f"need at least {p0 + 1} time steps")
    depth = max(e.stage or 0 for e in entries)
    node_group, Bs = _group_bases(order, d, part, stage_weights(net, W, order.r_star)[:depth])
    V = [X] + [B @ X for B in Bs]
    rows = [i - 1 for i in row_nodes]

    def gather(js) -> np.ndarray:  # columns js on every row, as [t, node, column]
        out = np.empty((T - p0, len(rows), len(js)))
        for k, j in enumerate(js):
            e = entries[j]
            M = V[e.stage or 0][rows, p0 - e.lag:T - e.lag]
            # A product, not a zero fill: a masked negative value leaves -0.0, and the
            # solve's output bits follow these signs, so a +0.0 fill changes saved fits.
            out[:, :, k] = ((node_group[rows] == e.group)[:, None] * M).T
        return out

    b_idx = [j for j, e in enumerate(entries) if e.node is None]
    a_idx = np.asarray([j for j, e in enumerate(entries) if e.node is not None], dtype=int)
    a_idx = a_idx.reshape(-1, d).T  # theta_index: lag-major, nodes ascending
    # Node 1's alpha columns read X at each lag on every row: node i's own lags.
    A = gather(a_idx[0]) if a_idx.size else None
    return DesignSystem(blocks=(A, gather(b_idx), a_idx, b_idx), y=X[rows, p0:].T.ravel(),
                        columns=tuple(entries), order=order,
                        node_labels=tuple(panel.node_labels[i] for i in rows),
                        time_labels=panel.time_labels[p0:], group=group)


def build_design(panel: TimeSeriesPanel, order: GnarOrder, net: Network,
                 W: np.ndarray, part: CommunityPartition | None = None) -> DesignSystem:
    """Joint design over all nodes, usable range t = p_max+1 .. T."""
    return _build_columns(panel, order, net, W, part, theta_index(order, d=panel.d),
                          order.p_max, list(range(1, panel.d + 1)))


def build_community_design(panel: TimeSeriesPanel, order: GnarOrder, net: Network,
                           W: np.ndarray, part: CommunityPartition,
                           c: int) -> DesignSystem:
    """Design block for one community on its own usable range t = p_c+1 .. T."""
    if order.variant != "community":
        raise DesignError("community blocks only exist for community orders")
    part.check_community(c)
    return _build_columns(panel, order, net, W, part,
                          [e for e in theta_index(order) if e.group == c],
                          order.lags[c - 1], part.members(c), group=c)


def solve_least_squares(R: np.ndarray, y: np.ndarray,
                        names: tuple[str, ...] | None = None):
    """Column-pivoted QR solve of R theta = y; returns (theta, (R'R)^-1).

    Both are in R's column order.  The solve holds one copy of the design
    besides the caller's R: a Fortran-ordered copy, checked for finite
    values, that ``scipy.linalg.qr(..., overwrite_a=True)`` factors in place
    and then overwrites with Q.  Rank deficiency raises
    :class:`RankDeficiencyError` naming the columns that the pivoting pushed
    beyond the numerical rank.
    """
    import scipy.linalg
    n, q = R.shape
    if n < q:
        raise DesignError(f"system has {n} rows for {q} parameters")
    if q == 0:  # a local order's beta system without stages; scipy's 0 x 0 R has no diag[0]
        return np.empty(0), np.empty((0, 0))
    own = np.array(np.asarray_chkfinite(R), dtype=float, order="F")
    Q, Rf, piv = scipy.linalg.qr(own, overwrite_a=True, mode="economic", pivoting=True,
                                 check_finite=False)
    diag = np.abs(np.diag(Rf))
    tol = diag[0] * max(n, q) * np.finfo(float).eps
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
    gram_inv_piv = r_inv @ r_inv.T
    gram_inv = np.empty((q, q))
    gram_inv[np.ix_(piv, piv)] = gram_inv_piv
    return theta, gram_inv


def _solve_local(ds: DesignSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OLS on a local-variant design's blocks by partialling out each node's own lags.

    Node i's alpha columns A_i live on its rows only.  With A_i = Q_i R_i,
    the shared betas solve the beta columns and response residualised
    against each Q_i (by :func:`solve_least_squares`, with its pivoting and
    rank check), alpha_i = R_i^-1 Q_i'(y_i - B_i beta), and with
    C_i = R_i^-1 Q_i'B_i and G = Cov(beta) the full inverse Gram matrix has
    blocks -C_i G and delta_ij (A_i'A_i)^-1 + C_i G C_j'.  Returns theta,
    (R'R)^-1 and the residual y_i - A_i alpha_i - B_i beta in row order.
    """
    n, q = ds.n, ds.q
    A, B, a_idx, b_idx = ds.blocks
    m, p = a_idx.shape
    A, B = A.transpose(1, 0, 2), B.transpose(1, 0, 2)
    Y = ds.y.reshape(-1, m).T[:, :, None]
    names = ds.column_names()
    norms = np.concatenate([np.einsum("itk,itk->ik", A, A).ravel(),
                            np.einsum("itk,itk->k", B, B)])
    tol = np.sqrt(norms.max()) * max(n, q) * np.finfo(float).eps
    Q, Ra = np.linalg.qr(A)
    bad = np.any(np.abs(np.diagonal(Ra, axis1=1, axis2=2)) <= tol, axis=1)
    if bad.any():
        dependent = [names[j] for j in a_idx[bad].ravel()]
        raise RankDeficiencyError(
            f"design matrix is rank deficient; own lags of {int(bad.sum())} node(s) "
            f"are dependent: {', '.join(dependent)}", dependent)
    Qt = Q.transpose(0, 2, 1)
    QtB, Qty = Qt @ B, Qt @ Y
    beta, G = solve_least_squares((B - Q @ QtB).reshape(n, len(b_idx)),
                                  (Y - Q @ Qty).ravel(), tuple(names[j] for j in b_idx))
    Rinv = np.linalg.inv(Ra)
    C = Rinv @ QtB
    alpha = (Rinv @ Qty)[:, :, 0] - C @ beta
    theta = np.empty(q)
    theta[b_idx] = beta
    theta[a_idx] = alpha
    a_flat = a_idx.ravel()
    C = C.reshape(a_flat.size, -1)
    CG = C @ G
    G_aa = CG @ C.T
    nodes = np.arange(m)
    G_aa.reshape(m, p, m, p)[nodes, :, nodes, :] += Rinv @ Rinv.transpose(0, 2, 1)
    gram_inv = np.empty((q, q))
    gram_inv[np.ix_(a_flat, a_flat)] = G_aa
    gram_inv[np.ix_(a_flat, b_idx)] = -CG
    gram_inv[np.ix_(b_idx, a_flat)] = -CG.T
    gram_inv[np.ix_(b_idx, b_idx)] = G
    resid = Y - A @ alpha[:, :, None] - B @ beta[:, None]
    return theta, gram_inv, resid[:, :, 0].T.ravel()


def _df_resid(ds: DesignSystem) -> int:
    """The residual degrees of freedom n - q, which every fit needs to be positive."""
    if ds.n <= ds.q:
        raise DesignError(f"no residual degrees of freedom (n={ds.n}, q={ds.q})")
    return ds.n - ds.q


def _finish_fit(ds: DesignSystem, theta: np.ndarray, cov: np.ndarray,
                sigma2: float, resid: np.ndarray) -> FitResult:
    m = len(ds.node_labels)
    resid_panel = TimeSeriesPanel(values=resid.reshape(-1, m).T,
                                  node_labels=ds.node_labels,
                                  time_labels=ds.time_labels)
    return FitResult(theta=theta, columns=ds.columns, sigma2=sigma2, cov=cov,
                     residuals=resid_panel, order=ds.order, group=ds.group)


def fit_ols(ds: DesignSystem) -> FitResult:
    """Ordinary least squares with unbiased residual variance (n - q)."""
    df = _df_resid(ds)
    if ds.blocks[0] is not None:
        theta, gram_inv, resid = _solve_local(ds)
    else:
        theta, gram_inv = solve_least_squares(ds.R, ds.y, ds.column_names())
        resid = ds.y - ds.R @ theta
    sigma2 = float(resid @ resid) / df
    return _finish_fit(ds, theta, sigma2 * gram_inv, sigma2, resid)


@dataclass(frozen=True, eq=False)
class KroneckerCovariance:
    """Structured error covariance I_(T-p) kron Sigma_u (same block each step)."""

    sigma_u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma_u", np.asarray(self.sigma_u, dtype=float))
        s = self.sigma_u
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise CovarianceError("per-step covariance block must be square")


def fit_gls(ds: DesignSystem, sigma) -> FitResult:
    """Generalised least squares under a full or Kronecker error covariance.

    The system is whitened block by block with the Cholesky factor of the
    covariance block: one time step's m node rows for a Kronecker
    covariance, all n rows as one block for a full one.  It is then solved
    by the same pivoted QR path as OLS.  The reported coefficient
    covariance is (R' Sigma^-1 R)^-1; residuals stay on the raw scale.
    """
    import scipy.linalg
    df = _df_resid(ds)
    kron = isinstance(sigma, KroneckerCovariance)
    S = sigma.sigma_u if kron else np.asarray(sigma, dtype=float)
    m = len(ds.node_labels) if kron else ds.n
    if S.shape != (m, m):
        raise CovarianceError(f"covariance block must be {m} x {m} ({ds.n} design rows "
                              f"in blocks of {m}), got {S.shape}")
    if not np.allclose(S, S.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(S).max())):
        raise CovarianceError("covariance block is not symmetric")
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise CovarianceError("covariance block is not positive definite") from None
    # The LAPACK call solve_triangular makes for a C-ordered L, without its checks.
    trtrs = scipy.linalg.lapack.dtrtrs
    # Each form keeps its whitened layout, row-major blocks or dtrtrs's column-major
    # result: the layout sets the summation order of Rw @ theta, hence sigma2's bits.
    Rw = np.empty((ds.n, ds.q), order="C" if kron else "F")
    yw = np.empty(ds.n)
    for i in range(0, ds.n, m):
        Rw[i:i + m], info_R = trtrs(L.T, ds.R[i:i + m], lower=0, trans=1)
        yw[i:i + m], info_y = trtrs(L.T, ds.y[i:i + m], lower=0, trans=1)
        if info_R or info_y:
            raise CovarianceError(f"covariance block: triangular solve failed "
                                  f"(LAPACK info {info_R or info_y})")
    theta, gram_inv = solve_least_squares(Rw, yw, ds.column_names())
    resid_w = yw - Rw @ theta
    sigma2 = float(resid_w @ resid_w) / df
    return _finish_fit(ds, theta, gram_inv, sigma2, ds.y - ds.R @ theta)


def fit_per_community(panel: TimeSeriesPanel, order: GnarOrder, net: Network,
                      W: np.ndarray, part: CommunityPartition) -> list[FitResult]:
    """Independent block fits, one per community, each on its own usable range.

    With equal maximum lags across communities these coincide with the
    joint fit sliced by block; smaller-lag communities gain the extra
    leading observations the joint range discards.
    """
    fits = []
    for c in range(1, part.n_communities + 1):
        ds = build_community_design(panel, order, net, W, part, c)
        fits.append(fit_ols(ds))
    return fits


def coefficient_table(fit: FitResult) -> str:
    """Delimited name/estimate/standard-error table for a fit."""
    lines = ["name,estimate,std_error"]
    for name, est, se in zip(fit.names, fit.theta, fit.se):
        lines.append(f"{name},{float(est)!r},{float(se)!r}")
    return "\n".join(lines) + "\n"
