"""Slow reference for `rate_function`: the quadratic-penalty solver it
replaced, kept as a test oracle, over a terminal map given as an argument.

(1/2)|h|^2 + mu |Phi_T(h) - y|^2 is minimized by BFGS with central
finite-difference gradients, for mu along a schedule escalated x10 up to
``max_penalty`` until the residual meets ``tol``.  Same node placement and
seeded starts as `rate_function`.  Phi_T is built by ``terminal_map``:
`scheme_terminal`, the map `rate_function` constrains (`solve_batch` at
eps = 1 on the grid), checks the optimizer; `skeleton_terminal`, the RK4
skeleton of `_flow_oracle`, is an accurate solve of the ODE that the
scheme discretizes: both read h through its piecewise-linear
interpolation on the grid, so the scheme's map converges to the RK4
skeleton's as n^-2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from roughdensity.kernels import TimeGrid
from roughdensity.rde import solve_batch

from _flow_oracle import RK4SkeletonPropagator


def scheme_terminal(kernel, vf, grid, nodes, z0):
    """Coefficients (B, m, d) -> Z_N (B, n) of `solve_batch` at eps = 1,
    driven by the grid increments of h = sum_i c_i R(s_i, .)."""
    incr = np.diff(np.atleast_2d(kernel.eval(nodes[:, None],
                                             grid.nodes[None, :])), axis=1)

    def terminal(coeffs):
        level1 = np.einsum("bmd,mt->btd", coeffs, incr)
        return solve_batch(level1, grid, vf, z0, with_jacobian=False).Z[:, -1]
    return terminal


def skeleton_terminal(kernel, vf, grid, nodes, z0):
    """Coefficients (B, m, d) -> phi_T (B, n) of the RK4 skeleton."""
    prop = RK4SkeletonPropagator(kernel, vf, grid, nodes)
    return lambda coeffs: prop.propagate(coeffs, z0)[0][:, -1]


def penalty_rate_function(y, kernel, vf, z0, terminal_map, grid=None,
                          m_nodes=16, penalty_schedule=(1e2, 1e3, 1e4, 1e5),
                          tol=1e-6, n_starts=5, seed=0, max_penalty=1e10):
    """Best feasible (d2, residual, coeffs (m, d)) over the starts, or
    None when no start meets ``tol``; the constraint map is
    ``terminal_map(kernel, vf, grid, nodes, z0)``."""
    if grid is None:
        grid = TimeGrid.regular(64, horizon=kernel.horizon)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    m, d = m_nodes, vf.d
    nodes = grid.horizon * np.arange(1, m + 1) / m
    gram = np.atleast_2d(kernel.eval(nodes[:, None], nodes[None, :]))
    terminal = terminal_map(kernel, vf, grid, nodes, z0)

    def energy(theta):
        c = theta.reshape(m, d)
        return 0.5 * float(np.einsum("ic,ij,jc->", c, gram, c))

    def energy_grad(theta):
        return (gram @ theta.reshape(m, d)).ravel()

    def residual_sq(theta):
        phi1 = terminal(theta.reshape(1, m, d))[0]
        return float(np.sum((phi1 - y_arr) ** 2))

    def residual_sq_grad(theta):
        # batched central differences, step 1e-5 (1 + |coef|)
        steps = 1e-5 * (1.0 + np.abs(theta))
        pert = np.concatenate([theta + np.diag(steps),
                               theta - np.diag(steps)], axis=0)
        phi = terminal(pert.reshape(-1, m, d))
        vals = np.sum((phi - y_arr) ** 2, axis=1)
        return (vals[: m * d] - vals[m * d:]) / (2 * steps)

    rng = np.random.Generator(np.random.Philox(key=seed))
    start_points = 0.1 * rng.standard_normal((n_starts, m * d))
    schedule = list(penalty_schedule)
    while schedule[-1] < max_penalty:
        schedule.append(schedule[-1] * 10.0)

    best = None
    for s_idx in range(n_starts):
        theta = start_points[s_idx].copy()
        for mu in schedule:
            res = minimize(
                lambda th: energy(th) + mu * residual_sq(th),
                theta, jac=lambda th: energy_grad(th)
                + mu * residual_sq_grad(th),
                method="BFGS",
                options={"gtol": 1e-9 * max(mu, 1.0), "maxiter": 200})
            theta = res.x
            resid = math.sqrt(residual_sq(theta))
            if resid <= tol:
                break
        if resid <= tol and (best is None or energy(theta) < best[0]):
            best = (energy(theta), resid, theta.reshape(m, d))
    return best
