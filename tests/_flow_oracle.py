"""Slow reference for `solve_batch` with the Jacobian: the solver it replaced,
kept as a test oracle.

J propagates through the term-by-term derivative of the one-step map
(the a_jk/a_00/a_x blocks).  The inverse K ~ J^-1 propagates through its
own linearized update (the b_jk/b_00/b_x blocks), gets a Newton correction
K <- K (2I - J K) every step and a full re-inversion from J every
``reinvert_every`` steps.  The state update is the same as `solve_batch`.
"""

from __future__ import annotations

import numpy as np

from roughdensity.rde import FlowState


def three_mechanism_solve_batch(level1, level2, grid, vf, z0, eps=1.0,
                                reinvert_every=64) -> FlowState:
    """Z, J and K ~ J^-1 for an ensemble of lifted drivers."""
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

    return FlowState(grid=grid, Z=Z, J=J, Jinv=K, z0=z0, eps=eps)
