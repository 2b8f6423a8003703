"""Slow reference for `rate_function`: the quadratic-penalty solver it
replaced, kept as a test oracle.

(1/2)|h|^2 + mu |Phi_T(h) - y|^2 is minimized by BFGS with central
finite-difference gradients, for mu along a schedule escalated x10 up to
``max_penalty`` until the residual meets ``tol``.  Same node placement,
skeleton propagator and seeded starts as `rate_function`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from roughdensity.kernels import TimeGrid
from roughdensity.rde import SkeletonPropagator


def penalty_rate_function(y, kernel, vf, z0, grid=None, m_nodes=16,
                          penalty_schedule=(1e2, 1e3, 1e4, 1e5),
                          tol=1e-6, n_starts=5, seed=0, refine_factor=8,
                          max_penalty=1e10):
    """Best feasible (d2, residual, coeffs (m, d)) over the starts, or
    None when no start meets ``tol``."""
    if grid is None:
        grid = TimeGrid.regular(64, horizon=kernel.horizon)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    m, d = m_nodes, vf.d
    nodes = grid.horizon * np.arange(1, m + 1) / m
    gram = np.atleast_2d(kernel.eval(nodes[:, None], nodes[None, :]))
    prop = SkeletonPropagator(kernel, vf, grid, nodes,
                              refine_factor=refine_factor)

    def energy(theta):
        c = theta.reshape(m, d)
        return 0.5 * float(np.einsum("ic,ij,jc->", c, gram, c))

    def energy_grad(theta):
        return (gram @ theta.reshape(m, d)).ravel()

    def residual_sq(theta):
        phi1 = prop.terminal(theta.reshape(1, m, d), z0)[0]
        return float(np.sum((phi1 - y_arr) ** 2))

    def residual_sq_grad(theta):
        # batched central differences, step 1e-5 (1 + |coef|)
        steps = 1e-5 * (1.0 + np.abs(theta))
        pert = np.concatenate([theta + np.diag(steps),
                               theta - np.diag(steps)], axis=0)
        phi = prop.terminal(pert.reshape(-1, m, d), z0)
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
