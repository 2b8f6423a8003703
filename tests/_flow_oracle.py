"""Slow references for the flow solver and the directional derivative: the
term-by-term forms they replaced, kept as test oracles.

`three_mechanism_solve_batch` is the solver before J^-1 came from one
inversion: the state update is the second-order scheme term by term
(Davie's expansion, with the drift folded in through dt^2/2 and dt dx/2).

J propagates through the term-by-term derivative of the one-step map
(the a_jk/a_00/a_x blocks).  The inverse K ~ J^-1 propagates through its
own linearized update (the b_jk/b_00/b_x blocks), gets a Newton correction
K <- K (2I - J K) every step and a full re-inversion from J every
``reinvert_every`` steps.

`term_by_term_directional_derivative` pairs the flow's Jacobians with the
derivative of that same term-by-term update along h, through the mixed
level-2 channel (1/2)(dh (x) dx + dx (x) dh).

`sandwich_malliavin_matrix` is the Malliavin matrix before it became the
pairing of the derivative kernel with itself: J_t and eps^2 stay outside
the sum, eps^2 J_t [sum_ij F_i M_ij F_j^T] J_t^T with F_s = J_s^-1 V(Z_s).

`RK4SkeletonPropagator` is the skeleton before it became the scheme at
eps = 1: an accurate solve of the ODE that the scheme discretizes, to
which the scheme's skeleton converges as n^-2.

`stored_reduce` is `density.monte_carlo_reduce` before its chunks kept one
value per path while stepping: every eps stores the whole trajectory with
`solve_batch`, and the collector reads it afterwards.
"""

from __future__ import annotations

import numpy as np

from roughdensity.diagnostics import cell_rect_matrix
from roughdensity.malliavin import _t_index
from roughdensity.paths import sample_increments
from roughdensity.rde import (BLOW_UP_GUARD, BlowUpError, FlowState,
                              _as_state, solve_batch)

# RK4 substeps of the oracle skeleton per grid step.
REFINE_FACTOR = 8


def three_mechanism_solve_batch(level1, level2, grid, vf, z0, eps=1.0,
                                reinvert_every=64):
    """The flow (Z and J) and K ~ J^-1 for an ensemble of lifted drivers."""
    P, N, d = level1.shape
    n = vf.n
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    dts = grid.dts

    Z = np.empty((P, N + 1, n))
    Z[:, 0, :] = z0
    z = np.broadcast_to(z0, (P, n)).copy()
    J = np.empty((P, N + 1, n, n))
    K = np.empty_like(J)
    J[:, 0] = K[:, 0] = np.eye(n)
    j = np.broadcast_to(np.eye(n), (P, n, n)).copy()
    k = j.copy()

    for i in range(N):
        dt = dts[i]
        x1 = eps * level1[:, i]
        x2 = (eps * eps) * level2[:, i]
        v0 = vf.v0(z)
        v = vf.v(z)
        dv0 = vf.dv0(z)
        dv = vf.dv(z)

        dz = v0 * dt
        dz += np.einsum("pad,pd->pa", v, x1)
        dz += np.einsum("pabk,pbj,pjk->pa", dv, v, x2)
        dz += 0.5 * dt * dt * np.einsum("pab,pb->pa", dv0, v0)
        dz += 0.5 * dt * (np.einsum("pabj,pb,pj->pa", dv, v0, x1)
                          + np.einsum("pab,pbj,pj->pa", dv0, v, x1))

        d2v0 = vf.d2v0(z)
        d2v = vf.d2v(z)
        a_jk = (np.einsum("pacek,pej->pacjk", d2v, v)
                + np.einsum("paek,pecj->pacjk", dv, dv))
        b_jk = (np.einsum("pcej,pebk->pcbjk", dv, dv)
                - np.einsum("pcbek,pej->pcbjk", d2v, v))
        a_00 = (np.einsum("pace,pe->pac", d2v0, v0)
                + np.einsum("pae,pec->pac", dv0, dv0))
        b_00 = (np.einsum("pae,pec->pac", dv0, dv0)
                - np.einsum("pace,pe->pac", d2v0, v0))
        a_x = (np.einsum("pacek,pe->pack", d2v, v0)
               + np.einsum("paek,pec->pack", dv, dv0)
               + np.einsum("pace,pek->pack", d2v0, v)
               + np.einsum("pae,peck->pack", dv0, dv))
        b_x = (np.einsum("pae,peck->pack", dv0, dv)
               - np.einsum("pacek,pe->pack", d2v, v0)
               + np.einsum("paek,pec->pack", dv, dv0)
               - np.einsum("pace,pek->pack", d2v0, v))

        dj = dt * np.einsum("pac,pcb->pab", dv0, j)
        dj += np.einsum("pacj,pcb,pj->pab", dv, j, x1)
        dj += np.einsum("pacjk,pcb,pjk->pab", a_jk, j, x2)
        dj += 0.5 * dt * dt * np.einsum("pac,pcb->pab", a_00, j)
        dj += 0.5 * dt * np.einsum("pack,pcb,pk->pab", a_x, j, x1)

        dk = -dt * np.einsum("pac,pcb->pab", k, dv0)
        dk -= np.einsum("pac,pcbj,pj->pab", k, dv, x1)
        dk += np.einsum("pac,pcbjk,pjk->pab", k, b_jk, x2)
        dk += 0.5 * dt * dt * np.einsum("pac,pcb->pab", k, b_00)
        dk += 0.5 * dt * np.einsum("pac,pcbk,pk->pab", k, b_x, x1)

        j = j + dj
        k = k + dk
        jk = np.einsum("pab,pbc->pac", j, k)
        k = 2.0 * k - np.einsum("pab,pbc->pac", k, jk)
        if (i + 1) % reinvert_every == 0:
            k = np.linalg.inv(j)
        J[:, i + 1] = j
        K[:, i + 1] = k

        z = z + dz
        Z[:, i + 1] = z

    return FlowState(grid=grid, Z=Z, J=J, eps=eps), K


def term_by_term_directional_derivative(flow, vf, level1, shift, t_node):
    """Cameron-Martin directional derivative of Z_t along h, shape (..., n)."""
    idx = _t_index(flow.grid, t_node)
    if idx == 0:
        return np.zeros(flow.Z.shape[:-2] + (vf.n,))
    eps = flow.eps
    dts = flow.grid.dts[:idx]
    dh = np.diff(shift[..., : idx + 1, :], axis=-2)
    dx = level1[..., :idx, :]
    z = flow.Z[..., :idx, :]
    v0, v = vf.v0(z), vf.v(z)
    dv0, dv = vf.dv0(z), vf.dv(z)
    x2ch = 0.5 * (np.einsum("...sj,...sk->...sjk", dh, dx)
                  + np.einsum("...sj,...sk->...sjk", dx, dh))
    b = eps * np.einsum("...sad,...sd->...sa", v, dh)
    b += (eps * eps) * np.einsum("...sabk,...sbj,...sjk->...sa", dv, v, x2ch)
    b += 0.5 * eps * dts[:, None] * (
        np.einsum("...sabj,...sb,...sj->...sa", dv, v0, dh)
        + np.einsum("...sab,...sbj,...sj->...sa", dv0, v, dh))
    return np.einsum("...ab,...sbc,...sc->...a", flow.J[..., idx, :, :],
                     np.linalg.inv(flow.J[..., 1: idx + 1, :, :]), b)


def sandwich_malliavin_matrix(flow, vf, kernel, t_node):
    """Malliavin matrix gamma_t of a solved flow, shape (..., n, n)."""
    idx = _t_index(flow.grid, t_node)
    f = np.einsum("...sab,...sbd->...sad",
                  np.linalg.inv(flow.J[..., :idx, :, :]),
                  vf.v(flow.Z[..., :idx, :]))
    m = cell_rect_matrix(kernel, flow.grid)[:idx, :idx]
    c = np.einsum("ij,...iad,...jbd->...ab", m, f, f, optimize=True)
    jt = flow.J[..., idx, :, :]
    gamma = np.einsum("...ab,...bc,...dc->...ad", jt, c, jt)
    return (flow.eps ** 2) * (0.5 * (gamma + np.swapaxes(gamma, -1, -2)))


class RK4SkeletonPropagator:
    """Batched RK4 skeleton ODE for elements on fixed nodes.

    The driver is h's piecewise-linear interpolation on the grid, the
    driver of every other flow: on cell i the skeleton runs at the constant
    velocity (h(t_{i+1}) - h(t_i)) / dt_i, with ``REFINE_FACTOR`` RK4
    substeps.  h is linear in its coefficients, so its basis traces
    R(s_m, .) on the grid are computed once and reused for every
    evaluation.
    """

    def __init__(self, kernel, vf, grid, h_nodes):
        self.vf = vf
        self.dts = grid.dts
        # basis traces R(s_m, t) on the grid
        self.basis = np.atleast_2d(kernel.eval(
            np.asarray(h_nodes, dtype=float)[:, None], grid.nodes[None, :]))

    def propagate(self, coeffs, z0):
        """RK4 the skeleton for a coefficient batch (B, m, d): phi at grid
        nodes (B, N+1, n) and J = dphi/dz0 at grid nodes (B, N+1, n, n), the
        exact derivative of the discrete map from the variational recursion
        through the same RK4 stages."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim == 2:
            coeffs = coeffs[:, :, None]
        B = coeffs.shape[0]
        vf, n = self.vf, self.vf.n
        hdot = (np.einsum("bmd,mi->bid", coeffs, np.diff(self.basis, axis=1))
                / self.dts[:, None])                           # (B, N, d)
        phi = np.broadcast_to(_as_state(z0, n), (B, n)).copy()
        jac = np.broadcast_to(np.eye(n), (B, n, n)).copy()
        phi_out, j_out = [phi], [jac]

        def stage(state, j_state, hd):      # slopes of phi and J
            k = vf.v0(state) + np.einsum("bad,bd->ba", vf.v(state), hd)
            a = vf.dv0(state) + np.einsum("badj,bj->bad", vf.dv(state), hd)
            return k, np.einsum("bac,bce->bae", a, j_state)

        for i, dt in enumerate(self.dts):
            hd, h = hdot[:, i], dt / REFINE_FACTOR
            for _ in range(REFINE_FACTOR):
                k1, m1 = stage(phi, jac, hd)
                k2, m2 = stage(phi + 0.5 * h * k1, jac + 0.5 * h * m1, hd)
                k3, m3 = stage(phi + 0.5 * h * k2, jac + 0.5 * h * m2, hd)
                k4, m4 = stage(phi + h * k3, jac + h * m3, hd)
                jac = jac + (h / 6.0) * (m1 + 2 * m2 + 2 * m3 + m4)
                phi = phi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                if np.abs(phi).max() > BLOW_UP_GUARD:
                    raise BlowUpError("skeleton escaped the guard radius",
                                      last_valid_step=i)
            phi_out.append(phi)
            j_out.append(jac)
        return np.stack(phi_out, axis=1), np.stack(j_out, axis=1)


def rk4_skeleton(h, vf, z0, grid):
    """The RK4 skeleton flow of one Cameron-Martin element, as
    `solve_skeleton` returned it before the skeleton became the scheme."""
    prop = RK4SkeletonPropagator(h.kernel, vf, grid, h.nodes)
    phi, jac = prop.propagate(h.coeffs[None], z0)
    return FlowState(grid=grid, Z=phi[0], J=jac[0], eps=1.0)


def stored_reduce(kernel, grid, vf, z0, eps_list, n_paths, seed,
                  collect="terminal", t_node=None):
    """One array per eps: ``Z[:, idx]`` or the max over nodes up to idx of
    |Z - z0|, read from the stored trajectory of all ``n_paths`` paths."""
    idx = grid.n_steps if t_node is None else grid.index_of(float(t_node))
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    level1 = sample_increments(kernel, grid, d=vf.d, n_paths=n_paths,
                               seed=seed)
    outs = []
    for eps in eps_list:
        Z = solve_batch(level1, grid, vf, z0, eps=eps, with_jacobian=False).Z
        if collect == "terminal":
            outs.append(Z[:, idx, :].copy())
        else:
            outs.append(np.linalg.norm(Z[:, :idx + 1, :] - z0,
                                       axis=2).max(axis=1))
    return outs
