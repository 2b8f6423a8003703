"""Slow references for `rate_function`, kept as test oracles.

`node_rate_function` is the Gauss-Newton solve before it minimized over
every grid increment of the driver: h is restricted to
span{R(s_i, .)} on ``m_nodes`` equispaced nodes, with the node Gram as
the metric of its coefficients, and its tangent is one
`directional_derivative` call broadcast over the basis directions
R(s_i, .) e_k.  At ``m_nodes`` = N on a regular grid the span reaches
every grid driver, so it solves the same problem as `rate_function`; at
fewer nodes its d2 is a minimum over a subspace, never below.

`penalty_rate_function` is the quadratic-penalty solver that
`node_rate_function` replaced, over a terminal map given as an argument.

(1/2)|h|^2 + mu |Phi_T(h) - y|^2 is minimized by BFGS with central
finite-difference gradients, for mu along a schedule escalated x10 up to
``max_penalty`` until the residual meets ``tol``.  Same node placement and
seeded starts as `node_rate_function`.  Phi_T is built by ``terminal_map``:
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

from roughdensity.density import (MAX_ITERATIONS, SINGULAR_RTOL, STEP_RTOL,
                                  RateFunctionResult, TargetUnreachableError)
from roughdensity.fields import (NonEllipticError, VectorFieldSystem,
                                 ellipticity_scan)
from roughdensity.kernels import CovKernel, TimeGrid
from roughdensity.malliavin import directional_derivative, malliavin_matrix
from roughdensity.paths import CMElement
from roughdensity.rde import (BlowUpError, CoarseGridError, FlowState,
                              solve_batch)

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


def _scheme_linearization(cs: np.ndarray, shifts: np.ndarray,
                          grid: TimeGrid, vf: VectorFieldSystem, z0):
    """Z and J of `solve_batch` at eps = 1 driven by the traces
    sum_c cs[b, c] shifts[c] (coefficients (B, C), direction traces
    (C, N+1, d)), and the terminal tangent dZ_N/dcs (B, n, C): one
    `directional_derivative` call over the flow with a direction axis."""
    level1 = np.einsum("bc,ctd->btd", cs, np.diff(shifts, axis=1))
    flow = solve_batch(level1, grid, vf, z0)
    along = FlowState(grid=grid, Z=flow.Z[:, None], J=flow.J[:, None],
                      eps=1.0)
    tangent = directional_derivative(along, vf, level1[:, None], shifts,
                                     grid.n_steps)
    return flow.Z, flow.J, np.swapaxes(tangent, 1, 2)


def node_rate_function(y, kernel: CovKernel, vf: VectorFieldSystem, z0,
                       grid: TimeGrid | None = None, m_nodes: int = 16,
                       tol: float = 1e-6, n_starts: int = 5, seed: int = 0,
                       elliptic_gate: bool = True) -> RateFunctionResult:
    """Minimize (1/2)|h|^2_H subject to the scheme reaching y: Gauss-Newton
    on the KKT system.  The constraint map Phi(c) is `solve_batch`'s Z_N at
    eps = 1 driven by h = sum_i c_i R(s_i, .) (``m_nodes`` equispaced
    nodes) on ``grid``: the map a Monte-Carlo sweep on ``grid`` samples,
    so d2 is its small-noise rate (contraction principle).  With node Gram
    G and the tangent A = dPhi/dc (exact for the discrete map), each step
    goes to the minimum-norm point of the linearized constraint,
    c+ = G^-1 A^T (A G^-1 A^T)^-1 (y - Phi(c) + A c), whose fixed points are
    the KKT points; the step needs A G^-1 A^T, the scheme's Malliavin
    matrix compressed to span{R(s_i, .)}, non-degenerate.  Steps backtrack
    on |Phi - y| (a trial is kept if it lowers it or stays below tol/10,
    and halves its step if the scheme refuses it).  ``n_starts`` seeded
    starts iterate as one batch; the feasible minimizer of least energy
    wins (ties: lowest start index)."""
    if elliptic_gate:
        lam = vf.elliptic_lambda
        if lam is None:
            lam = ellipticity_scan(vf)
        if lam <= 0:
            raise NonEllipticError(
                f"{vf.name}: ellipticity certificate failed (lambda <= 0)")
    if grid is None:
        grid = TimeGrid.regular(64, horizon=kernel.horizon)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if y_arr.shape != (vf.n,):
        raise ValueError("target dimension mismatch")
    m, d = m_nodes, vf.d
    nodes = grid.horizon * np.arange(1, m + 1) / m
    gram = np.atleast_2d(kernel.eval(nodes[:, None], nodes[None, :]))
    # Gram and inverse Gram of the flattened coefficients c.ravel()
    gram_c = np.kron(gram, np.eye(d))
    gram_c_inv = np.kron(np.linalg.pinv(gram, hermitian=True), np.eye(d))
    # the basis directions R(s_i, .) e_k on the grid, (m d, N+1, d)
    traces = np.atleast_2d(kernel.eval(nodes[:, None], grid.nodes[None, :]))
    shifts = np.einsum("it,kl->iktl", traces, np.eye(d)).reshape(m * d, -1, d)

    def h_norm(cs):
        return np.sqrt(np.einsum("bi,ij,bj->b", cs, gram_c, cs))

    rng = np.random.Generator(np.random.Philox(key=seed))
    c = 0.1 * rng.standard_normal((n_starts, m * d))
    phi, jac, tangent = _scheme_linearization(c, shifts, grid, vf, z0)
    step = np.ones(n_starts)
    history = [[] for _ in range(n_starts)]
    converged, singular = [], []
    active = np.arange(n_starts)
    for _ in range(MAX_ITERATIONS):
        a, r, c_act = tangent[active], phi[active, -1] - y_arr, c[active]
        a_ginv = np.einsum("ij,baj->bia", gram_c_inv, a)
        s_mat = a @ a_ginv
        eig = np.linalg.eigvalsh(s_mat)
        bad = ~(eig[:, 0] > SINGULAR_RTOL * eig[:, -1])
        s_mat[bad] = np.eye(vf.n)
        rhs = (np.einsum("bai,bi->ba", a, c_act) - r)[..., None]
        delta = (a_ginv @ np.linalg.solve(s_mat, rhs))[..., 0] - c_act
        resid = np.linalg.norm(r, axis=1)
        done = ~bad & (resid <= tol) & (
            h_norm(delta) <= STEP_RTOL * (1.0 + h_norm(c_act)))
        singular += list(active[bad])
        converged += list(active[done])
        keep = ~(bad | done)
        active, delta, eig, resid = (active[keep], delta[keep], eig[keep],
                                     resid[keep])
        if active.size == 0:
            break
        trial = c[active] + step[active, None] * delta
        try:
            phi_t, jac_t, tan_t = _scheme_linearization(trial, shifts, grid,
                                                        vf, z0)
        except (BlowUpError, CoarseGridError):  # the whole batch backtracks
            step[active] *= 0.5
            continue
        resid_t = np.linalg.norm(phi_t[:, -1] - y_arr, axis=1)
        ok = resid_t <= np.maximum((1.0 - 1e-4 * step[active]) * resid,
                                   0.1 * tol)
        for row in np.flatnonzero(ok):
            history[active[row]].append({"residual": float(resid_t[row]),
                                         "step": float(step[active[row]]),
                                         "min_eig": float(eig[row, 0])})
        hit = active[ok]
        c[hit], phi[hit], jac[hit] = trial[ok], phi_t[ok], jac_t[ok]
        tangent[hit] = tan_t[ok]
        step[active] = np.where(ok, 1.0, 0.5 * step[active])

    if not converged:
        why = ("A G^-1 A^T is singular" if singular else
               f"no convergence in {MAX_ITERATIONS} iterations")
        raise TargetUnreachableError(f"y={y_arr.tolist()}: {why}")
    energy = 0.5 * h_norm(c) ** 2
    s_idx = min(converged, key=lambda s: (energy[s], s))
    h_opt = CMElement(kernel, nodes, c[s_idx].reshape(m, d))
    # the winner's last linearization already carries its flow
    flow = FlowState(grid=grid, Z=phi[s_idx], J=jac[s_idx], eps=1.0)
    gamma = malliavin_matrix(flow, vf, kernel, grid.n_steps)
    return RateFunctionResult(
        y=y_arr, d2=float(energy[s_idx]), h_opt=h_opt,
        residual=float(np.linalg.norm(phi[s_idx, -1] - y_arr)), tol=tol,
        iterations=history[s_idx], det_gamma=float(np.linalg.det(gamma)),
        gamma=gamma,
        start_index=int(s_idx))
