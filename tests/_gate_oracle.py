"""Slow references for `check_hypotheses`, kept as test oracles.

Sign scans: the scans as they were before they returned their own witness,
and the two second passes that looked the witness up.  Each witness pass
walks (i1, i2) in lexicographic order, forms the whole (i3, i4) block of
values with the scan's own arithmetic and returns the first quadruple of
nodes whose value equals ``worst`` exactly (None if none does).

Fit windows: the per-window path as it was before the gate factored the
cell matrix once.  Each window's conditional variance is a fresh jittered
Cholesky solve against the outside block, and each V_{1,rho} an independent
outer DP on the window's own block.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from roughdensity.diagnostics import _outer_dp, cell_rect_matrix


def scan_negative_correlation(g: np.ndarray) -> float:
    """Max of E[dX_{t1 t2} dX_{t3 t4}] over node quadruples t1<t2<=t3<t4."""
    m = g.shape[0]
    idx = np.arange(m)
    worst = -np.inf
    for i1 in range(m - 2):
        d = g[i1 + 1:, :] - g[i1, :]          # rows i2 = i1+1 .. m-1
        i2s = idx[i1 + 1:]
        masked = np.where(idx[None, :] >= i2s[:, None], d, np.inf)
        premin = np.minimum.accumulate(masked, axis=1)
        cand = d[:, 1:] - premin[:, :-1]      # candidate at i4 = column+1
        valid = idx[None, 1:] > i2s[:, None]  # need i4 > i3 >= i2
        cand = np.where(valid, cand, -np.inf)
        block = cand.max(initial=-np.inf)
        if block > worst:
            worst = block
    return worst


def scan_diagonal_dominance(g: np.ndarray) -> float:
    """Min of E[dX_{t2 t3} dX_{t1 t4}] over nested quadruples
    t1<=t2<t3<=t4."""
    m = g.shape[0]
    worst = np.inf
    for i2 in range(m - 1):
        d = g[i2 + 1:, :] - g[i2, :]          # rows i3 = i2+1 .. m-1
        i3s = np.arange(i2 + 1, m)
        masked = np.where(np.arange(m)[None, :] >= i3s[:, None], d, np.inf)
        sufmin = masked.min(axis=1)           # min over i4 >= i3, per row
        prefmax = d[:, :i2 + 1].max(axis=1)   # max over i1 <= i2, per row
        block = (sufmin - prefmax).min()
        if block < worst:
            worst = block
    return worst


def witness_negative_correlation(g: np.ndarray, worst: float, nodes):
    """First (t1, t2, t3, t4), t1<t2<=t3<t4, with D[t4] - D[t3] == worst,
    D = G[t2] - G[t1]."""
    m = g.shape[0]
    for i1 in range(m - 2):
        for i2 in range(i1 + 1, m - 1):
            d = g[i2, :] - g[i1, :]
            block = d[None, i2 + 1:] - d[i2:-1, None]
            block = np.where(np.arange(i2 + 1, m)[None, :]
                             > np.arange(i2, m - 1)[:, None], block, -np.inf)
            hits = np.argwhere(block == worst)
            if hits.size:
                i3, i4 = hits[0]
                return (nodes[i1], nodes[i2], nodes[i2 + i3], nodes[i2 + 1 + i4])
    return None


def witness_diagonal_dominance(g: np.ndarray, worst: float, nodes):
    """First (t1, t2, t3, t4), t1<=t2<t3<=t4, with D[t4] - D[t1] == worst,
    D = G[t3] - G[t2]."""
    m = g.shape[0]
    for i1 in range(m - 1):
        for i2 in range(i1, m - 1):
            # block over inner intervals (i3, i4) with i2 < i3 <= i4
            d4 = g[i2 + 1:, :] - g[i2, :]     # rows i3
            block = d4[:, i2 + 1:]            # columns i4 = i2+1 .. m-1
            block = block - (g[i2 + 1:, i1] - g[i2, i1])[:, None]
            block = np.where(np.arange(i2 + 1, m)[None, :]
                             >= np.arange(i2 + 1, m)[:, None], block, np.inf)
            hits = np.argwhere(block == worst)
            if hits.size:
                i3, i4 = hits[0]
                return (nodes[i1], nodes[i2], nodes[i2 + 1 + i3],
                        nodes[i2 + 1 + i4])
    return None


def oracle_scans(g: np.ndarray):
    """((worst, witness) of the negative-correlation scan, the same of the
    diagonal-dominance scan), witnesses as node indices."""
    idx = np.arange(g.shape[0])
    nc = scan_negative_correlation(g)
    dd = scan_diagonal_dominance(g)
    return ((nc, witness_negative_correlation(g, nc, idx)),
            (dd, witness_diagonal_dominance(g, dd, idx)))


def solve_psd(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve with escalating jitter."""
    base = np.trace(mat) / mat.shape[0]
    jitter = 0.0
    for _ in range(6):
        try:
            cf = linalg.cho_factor(mat + jitter * np.eye(mat.shape[0]),
                                   lower=True)
            return linalg.cho_solve(cf, rhs)
        except linalg.LinAlgError:
            jitter = 1e-12 * base if jitter == 0.0 else jitter * 10
            if jitter > 1e-7 * base:
                break
    raise RuntimeError("increment Gram matrix singular after jitter")


def conditional_variance(kernel, grid, ia: int, ib: int, cells=None) -> float:
    """Var(dX_{t_ia, t_ib} | grid increments outside [t_ia, t_ib]), the
    Gaussian projection residual."""
    m = cell_rect_matrix(kernel, grid) if cells is None else cells
    n = m.shape[0]
    outside = np.r_[0:ia, ib:n]
    y_var = float(m[ia:ib, ia:ib].sum())
    if outside.size == 0:
        return y_var
    cov_yb = m[ia:ib, :][:, outside].sum(axis=0)
    sigma_b = m[np.ix_(outside, outside)]
    sol = solve_psd(sigma_b, cov_yb)
    return float(y_var - cov_yb @ sol)


def oracle_fit(kernel, grid):
    """Per-window values {(ia, ib): (condVar, V_{1,rho})} on the gate's fit
    window, and (c_X, alpha, Hölder exponent, Hölder constant) fitted from
    them as `check_hypotheses` fits them."""
    nodes, n = grid.nodes, grid.n_steps
    cells = cell_rect_matrix(kernel, grid)
    scale = max(kernel.sigma_sq0(grid.horizon), 1e-30)

    def collect(lo, hi):
        return [(ib - ia, ia, ib) for ia in range(n)
                for ib in range(ia + 1, n + 1)
                if lo <= nodes[ib] - nodes[ia] <= hi]

    lo, hi = 4 * grid.mesh, grid.horizon / 4
    if lo > hi:
        lo, hi = grid.mesh, grid.horizon / 2
    spans = collect(lo, hi)
    if len({w for w, _, _ in spans}) < 2:
        spans = collect(grid.mesh, grid.horizon / 2)
    pairs = [(ia, ib) for _, ia, ib in spans]
    lengths = np.asarray([nodes[ib] - nodes[ia] for ia, ib in pairs])
    cvs = np.asarray([conditional_variance(kernel, grid, ia, ib, cells=cells)
                      for ia, ib in pairs])
    vs = np.asarray([_outer_dp(cells[ia:ib, ia:ib], 1.0, kernel.rho)
                     for ia, ib in pairs])

    def slope(y):
        b, a = np.polyfit(np.log(lengths), np.log(y), 1)
        return float(b), float(np.exp(a))

    floored = np.maximum(cvs, 1e-14 * scale)
    alpha, _ = slope(floored)
    c_x = float(np.min(floored / lengths ** alpha))
    h_exp, _ = slope(np.maximum(vs, 1e-300))
    h_const = float(np.max(vs / lengths ** h_exp))
    windows = {p: (cv, v) for p, cv, v in zip(pairs, cvs, vs)}
    return windows, (c_x, alpha, h_exp, h_const)
