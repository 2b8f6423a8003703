"""Scalar diagnostics of a covariance kernel on a grid.

Everything here reduces to the matrix of per-cell rectangular increments
``M[i, j] = E[dX_i dX_j]``: mixed variations, the kappa/eta coefficients,
sign scans over quadruples of grid nodes, and conditional-variance
estimates for the non-determinism index.  The hypothesis gate factors M
once: with Q = M^-1, the variance of a window's increment given every
increment outside it is Var(1^T dX_I | dX_O) = 1^T (Q_II)^-1 1, so each
window costs only a solve of its own size.

Variation suprema are taken over dissections that are sub-grids of the
given grid: the inner axis keeps the finest dissection (optimal for inner
exponent 1 by the triangle inequality) while the outer axis is maximised
exactly by dynamic programming.  For inner exponent 1 this equals the full
supremum over sub-grid dissections, so values are certified lower bounds of
the continuum supremum and monotone under grid refinement; callers wanting
a convergence signal get the half-resolution value alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .kernels import CovKernel, TimeGrid, jitter_cholesky, kernel_spec
from .lift import max_dissection_sum

# A sign violation of the hypothesis scans (and of the stationary variogram's
# monotonicity and concavity) below SIGN_RTOL * sigma_T^2 is round-off.
SIGN_RTOL = 1e-10


def cell_rect_matrix(kernel: CovKernel, grid: TimeGrid) -> np.ndarray:
    """Rectangular increments over all pairs of grid cells."""
    g = kernel.gram(grid.nodes)
    return g[1:, 1:] - g[1:, :-1] - g[:-1, 1:] + g[:-1, :-1]


def _span_indices(grid: TimeGrid, a: float, b: float) -> tuple[int, int]:
    ia, ib = grid.index_of(a), grid.index_of(b)
    if ib < ia:
        raise ValueError("interval endpoints out of order")
    return ia, ib


def _outer_dp(block: np.ndarray, gamma: float, rho: float) -> float:
    """Maximise (sum_J A(J)^(rho/gamma))^(1/rho) over dissections of the
    outer (column) axis, with A(J) = sum_i |sum_{j in J} block[i, j]|^gamma
    the finest-inner value on outer interval J."""
    n_out = block.shape[1]
    cs = np.zeros((block.shape[0], n_out + 1))
    np.cumsum(block, axis=1, out=cs[:, 1:])
    expo = rho / gamma

    def cost(b):
        a_vals = (np.abs(cs[:, b:b + 1] - cs[:, :b]) ** gamma).sum(axis=0)
        return a_vals ** expo

    return float(max_dissection_sum(cost, n_out + 1) ** (1.0 / rho))


def mixed_variation(kernel: CovKernel, rect, gamma: float, rho: float,
                    grid: TimeGrid, cells: np.ndarray | None = None) -> float:
    """Mixed (gamma, rho)-variation over ``rect = (s, t, u, v)``, the
    supremum over sub-grid dissections (exact for gamma = 1, a certified
    lower bound otherwise); inner gamma-sum along [s, t], outer rho-sum
    along [u, v]."""
    if gamma < 1 or rho < 1:
        raise ValueError("variation exponents must be >= 1")
    s, t, u, v = rect
    ia, ib = _span_indices(grid, s, t)
    ja, jb = _span_indices(grid, u, v)
    if ia == ib or ja == jb:
        return 0.0
    m = cell_rect_matrix(kernel, grid) if cells is None else cells
    return _outer_dp(m[ia:ib, ja:jb], gamma, rho)


def mixed_variation_refinement(kernel: CovKernel, rect, gamma: float,
                               rho: float, grid: TimeGrid) -> tuple[float, float]:
    """Finest-grid variation plus the half-resolution value (convergence
    signal for the lower-bound approximation)."""
    fine = mixed_variation(kernel, rect, gamma, rho, grid)
    half = mixed_variation(kernel, rect, gamma, rho,
                           TimeGrid(nodes=_half_resolution_nodes(grid.nodes,
                                                                 rect)))
    return fine, half


def _half_resolution_nodes(nodes: np.ndarray, rect) -> np.ndarray:
    """Every other node, both ends and the rectangle's corners, sorted and
    without repeats: ``np.union1d``'s result, without the ``numpy.ma``
    import that ``np.union1d`` costs."""
    keep = np.sort(np.concatenate([nodes[::2], [nodes[0], nodes[-1]],
                                   np.asarray(rect, dtype=float)]))
    return keep[np.concatenate([[True], keep[1:] != keep[:-1]])]


def kappa(kernel: CovKernel, s: float, t: float, grid: TimeGrid,
          cells: np.ndarray | None = None) -> float:
    """kappa_{s,t} = sqrt(V_{1,rho}(R; [s,t]^2)) with the kernel's rho."""
    return float(np.sqrt(mixed_variation(kernel, (s, t, s, t), 1.0, kernel.rho,
                                         grid, cells=cells)))


def eta(kernel: CovKernel, t: float, grid: TimeGrid) -> float:
    """Self-similarity parameter eta_t = kappa_t^2 / sigma_t^2."""
    sig2 = kernel.sigma_sq0(t)
    if sig2 <= 0:
        raise ZeroDivisionError(f"sigma_t^2 = 0 at t = {t}: degenerate time")
    return kappa(kernel, 0.0, t, grid) ** 2 / sig2


def q_embedding(rho: float) -> float:
    """Variation exponent q = 1 / (1/(2 rho) + 1/2) < 2 of the
    Cameron-Martin embedding."""
    return 1.0 / (0.5 / rho + 0.5)


# ---------------------------------------------------------------------------
# Hypothesis scans
# ---------------------------------------------------------------------------

@dataclass
class SignScan:
    passed: bool
    worst: float
    witness: tuple[float, float, float, float]

    def to_json(self):
        return {"pass": self.passed, "worst": self.worst,
                "witness": list(self.witness)}


@dataclass
class HolderFit:
    passed: bool
    exponent: float
    constant: float

    def to_json(self):
        return {"pass": self.passed, "exponent": self.exponent,
                "constant": self.constant}


@dataclass
class HypothesisReport:
    kernel: str
    kernel_spec: dict
    n_steps: int
    negative_correlation: SignScan
    diagonal_dominance: SignScan
    c_X_estimate: float
    alpha_estimate: float
    holder_controlled: HolderFit
    valid_horizon: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (self.negative_correlation.passed
                and self.diagonal_dominance.passed
                and np.isfinite(self.c_X_estimate) and self.c_X_estimate > 0
                and self.holder_controlled.passed)

    def to_json(self):
        return {
            "kernel": self.kernel,
            "kernel_spec": self.kernel_spec,
            "n_steps": self.n_steps,
            "negative_correlation": self.negative_correlation.to_json(),
            "diagonal_dominance": self.diagonal_dominance.to_json(),
            "c_X_estimate": self.c_X_estimate,
            "alpha_estimate": self.alpha_estimate,
            "holder_controlled": self.holder_controlled.to_json(),
            "valid_horizon": self.valid_horizon,
            "pass": self.passed,
            "details": self.details,
        }


def _scan_negative_correlation(g: np.ndarray):
    """Max of E[dX_{t1 t2} dX_{t3 t4}] over node quadruples t1<t2<=t3<t4,
    with the lexicographically first (i1, i2, i3, i4) attaining it.

    For a fixed increment [t1, t2] the value is D[t4] - D[t3] with
    D = G[t2] - G[t1], so each (t1, t2) row reduces to a running-minimum
    scan.  The witness comes from the first i1 block and its first row
    reaching the maximum; a suffix max over that row gives (i3, i4).
    """
    m = g.shape[0]
    idx = np.arange(m)
    worst, best = -np.inf, None
    for i1 in range(m - 2):
        d = g[i1 + 1:, :] - g[i1, :]          # rows i2 = i1+1 .. m-1
        i2s = idx[i1 + 1:]
        masked = np.where(idx[None, :] >= i2s[:, None], d, np.inf)
        premin = np.minimum.accumulate(masked, axis=1)
        cand = d[:, 1:] - premin[:, :-1]      # candidate at i4 = column+1
        valid = idx[None, 1:] > i2s[:, None]  # need i4 > i3 >= i2
        rows = np.where(valid, cand, -np.inf).max(axis=1)
        block = rows.max()
        if block > worst:
            r = int(np.argmax(rows == block))
            worst, best = block, (i1, i1 + 1 + r, d[r])
    i1, i2, row = best
    sufmax = np.maximum.accumulate(row[::-1])[::-1]   # max over i4 >= index
    i3 = i2 + int(np.argmax(sufmax[i2 + 1:] - row[i2:-1] == worst))
    i4 = i3 + 1 + int(np.argmax(row[i3 + 1:] - row[i3] == worst))
    return worst, (i1, i2, i3, i4)


def _scan_diagonal_dominance(g: np.ndarray):
    """Min of E[dX_{t2 t3} dX_{t1 t4}] over nested quadruples
    t1<=t2<t3<=t4, with the lexicographically first (i1, i2, i3, i4)
    attaining it; the value is D[t4] - D[t1] with D = G[t3] - G[t2].

    Each i2 block keeps its first i1 reaching the block minimum, so a later
    block with the same minimum wins only with a smaller i1.
    """
    m = g.shape[0]
    worst, best = np.inf, None
    for i2 in range(m - 1):
        d = g[i2 + 1:, :] - g[i2, :]          # rows i3 = i2+1 .. m-1
        i3s = np.arange(i2 + 1, m)
        masked = np.where(np.arange(m)[None, :] >= i3s[:, None], d, np.inf)
        sufmin = masked.min(axis=1)           # min over i4 >= i3, per row
        vals = sufmin[:, None] - d[:, :i2 + 1]    # per (i3, i1 <= i2)
        cols = vals.min(axis=0)
        i1 = int(np.argmin(cols))
        block = cols[i1]
        if block < worst or (block == worst and i1 < best[0]):
            r = int(np.argmax(vals[:, i1] == block))
            worst, best = block, (i1, i2, i2 + 1 + r, d[r])
    i1, i2, i3, row = best
    i4 = i3 + int(np.argmax(row[i3:] - row[i1] == worst))
    return worst, (i1, i2, i3, i4)


def _window_fits(cells: np.ndarray, starts: np.ndarray, widths: np.ndarray,
                 rho: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Var(1^T dX_I | dX_O) over the cells O outside I (an upper bound on
    the continuous-time conditional variance) and V_{1,rho}(R; I^2) of every
    window I = [starts, starts + widths), and the jitter M's factor needed.

    Windows starting at cell ia are leading blocks of Q_[ia, ia + w_max),
    so with L its Cholesky factor and y = L^-1 1, 1^T (Q_II)^-1 1 for
    width w is sum_{r < w} y_r^2.  The outer DP of `_outer_dp`
    reads A(J) = S[ib, j, l] - S[ia, j, l] from the row-prefix sums
    S[k, j, l] = sum_{i < k} |C[i, j + l] - C[i, j]| of the column cumsum
    C of M, and runs over every window of one width at once.
    """
    n, w_max = cells.shape[0], int(widths.max())
    chol, jitter = jitter_cholesky(cells)
    linv = np.linalg.inv(chol)
    q = np.eye(n + w_max)          # identity padding past the last cell
    q[:n, :n] = linv.T @ linv      # Gram form: PD even for near-singular M
    lq = np.linalg.cholesky(as_strided(
        q, (n, w_max, w_max), (q.strides[0] + q.strides[1],) + q.strides,
        writeable=False))
    y = np.linalg.solve(lq, np.ones((n, w_max, 1)))[..., 0]
    cond_vars = np.cumsum(y * y, axis=1)[starts, widths - 1]

    c = np.zeros((n, n + 1 + w_max))
    np.cumsum(cells, axis=1, out=c[:, 1:n + 1])
    ahead = sliding_window_view(c, w_max + 1, axis=1)   # C[i, j + l]
    s = np.zeros((n + 1, n + 1, w_max + 1))
    for k in range(n):      # row by row: no second table-sized temporary
        s[k + 1] = s[k] + np.abs(ahead[k, :n + 1] - c[k, :n + 1, None])
    # [k, a, b] -> S[k + w, k + a, b - a] and S[k, k + a, b - a], read at a < b
    sheared = (s.strides[0] + s.strides[1], s.strides[1] - s.strides[2],
               s.strides[2])
    v_vals = np.empty(starts.size)
    for w in np.flatnonzero(np.bincount(widths)):   # ascending widths
        sel = widths == w
        ia = starts[sel]
        shape = (n - w + 1, w, w + 1)
        hi = as_strided(s[w:], shape, sheared, writeable=False)
        lo = as_strided(s, shape, sheared, writeable=False)
        best = np.zeros((ia.size, w + 1))
        for b in range(1, w + 1):
            area = hi[ia, :b, b] - lo[ia, :b, b]
            best[:, b] = np.max(best[:, :b] + area ** rho, axis=1)
        v_vals[sel] = best[:, w] ** (1.0 / rho)
    return cond_vars, v_vals, jitter


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(np.exp(intercept))


def stationary_valid_horizon(kernel: CovKernel, grid: TimeGrid) -> float:
    """Largest grid time T' such that the variogram F(x) = sigma^2(0, x) is
    non-decreasing and concave on [0, T'] (equivalently the stationary
    covariance K is decreasing and convex there)."""
    x = grid.nodes
    F = np.array([kernel.sigma_sq(0.0, xi) for xi in x])
    scale = max(abs(F[-1]), 1e-30)
    d1 = np.diff(F)
    d2 = np.diff(d1)
    ok1 = d1 >= -SIGN_RTOL * scale
    ok2 = d2 <= SIGN_RTOL * scale
    t_valid = x[1]
    for i in range(1, x.size):
        if not ok1[i - 1] or (i >= 2 and not ok2[i - 2]):
            break
        t_valid = x[i]
    return float(t_valid)


def check_hypotheses(kernel: CovKernel, grid: TimeGrid) -> HypothesisReport:
    """Grid scan of the sign hypotheses, the non-determinism index, and the
    Hölder-controlled variation fit.

    Sign violations below ``SIGN_RTOL * sigma_T^2`` count as round-off.  The
    conditional variance is taken against the grid increments outside each
    sub-interval; alpha is the log-log slope over lengths in
    [4*mesh, T/4] and c_X the minimum of condVar / length^alpha there.
    ``details["cell_jitter"]`` is the jitter the factor of M needed (0 when
    M is numerically positive definite).
    """
    if grid.n_steps < 4:
        raise ValueError("hypothesis scan needs at least 4 grid steps")
    nodes = grid.nodes
    g = kernel.gram(nodes)
    cells = g[1:, 1:] - g[1:, :-1] - g[:-1, 1:] + g[:-1, :-1]
    scale = max(kernel.sigma_sq0(grid.horizon), 1e-30)

    worst_nc, wit_nc = _scan_negative_correlation(g)
    nc = SignScan(passed=bool(worst_nc <= SIGN_RTOL * scale),
                  worst=float(worst_nc), witness=tuple(nodes[list(wit_nc)]))

    worst_dd, wit_dd = _scan_diagonal_dominance(g)
    dd = SignScan(passed=bool(worst_dd >= -SIGN_RTOL * scale),
                  worst=float(worst_dd), witness=tuple(nodes[list(wit_dd)]))

    starts, ends = np.triu_indices(grid.n_steps + 1, 1)
    widths, lengths = ends - starts, nodes[ends] - nodes[starts]
    lo, hi, fallback = 4 * grid.mesh, grid.horizon / 4, False
    keep = (lo <= lengths) & (lengths <= hi)
    if np.count_nonzero(np.bincount(widths[keep])) < 2:
        lo, hi, fallback = grid.mesh, grid.horizon / 2, True
        keep = (lo <= lengths) & (lengths <= hi)
    starts, widths, lengths = starts[keep], widths[keep], lengths[keep]
    cond_vars, v_vals, cell_jitter = _window_fits(cells, starts, widths,
                                                  kernel.rho)
    cond_vars = np.maximum(cond_vars, 1e-14 * scale)
    alpha_hat, _ = _loglog_slope(lengths, cond_vars)
    c_x = float(np.min(cond_vars / lengths ** alpha_hat))

    # Hölder-controlled fit of V_{1,rho}([s,t]^2) on the same window.
    h_exp, _ = _loglog_slope(lengths, np.maximum(v_vals, 1e-300))
    h_const = float(np.max(v_vals / lengths ** h_exp))
    holder = HolderFit(passed=bool(h_exp >= 1.0 / kernel.rho - 0.1),
                       exponent=h_exp, constant=h_const)

    valid_horizon = None
    if kernel.family in ("stationary", "sum_fbm", "fourier", "fou"):
        valid_horizon = stationary_valid_horizon(kernel, grid)

    return HypothesisReport(
        kernel=kernel.label,
        kernel_spec=kernel_spec(kernel),
        n_steps=grid.n_steps,
        negative_correlation=nc,
        diagonal_dominance=dd,
        c_X_estimate=c_x,
        alpha_estimate=alpha_hat,
        holder_controlled=holder,
        valid_horizon=valid_horizon,
        details={
            "fit_window": [lo, hi],
            "window_fallback": fallback,
            "n_fit_intervals": int(starts.size),
            "cell_jitter": cell_jitter,
            "sign_tolerance": SIGN_RTOL * scale,
            "q_embedding": q_embedding(kernel.rho),
        },
    )
