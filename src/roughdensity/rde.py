"""Flow solvers: the rough differential equation with its Jacobian pair,
and the smooth skeleton ODE driven by Cameron-Martin elements.

The RDE stepper is a one-step second-order Taylor update consuming level-2
data, with time adjoined as a smooth zeroth component (weights dt^2/2 and
dt dx/2 for the drift blocks).  The Jacobian J is propagated through the
exact derivative of that step map, and its inverse is one batched
inversion of J over every node.

Every solve returns a `FlowState`: one record for a single flow, a batch
of flows along leading axes, and a skeleton flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import VectorFieldSystem
from .kernels import TimeGrid
from .lift import RoughPath2
from .paths import CMElement


# A state with |Z| beyond this bound is a blow-up (step too coarse or field
# unbounded), for rough and skeleton flows alike.
BLOW_UP_GUARD = 1e8
# RK4 substeps of the skeleton per grid step.
REFINE_FACTOR = 8


class BlowUpError(RuntimeError):
    """State escaped the guard radius; carries the last valid step."""

    def __init__(self, msg: str, last_valid_step: int):
        super().__init__(msg)
        self.last_valid_step = last_valid_step


@dataclass
class FlowState:
    """Solution, Jacobian and inverse Jacobian of one driver realization,
    or of a batch of them along leading axes."""

    grid: TimeGrid
    Z: np.ndarray                 # (..., N+1, n)
    J: np.ndarray | None          # (..., N+1, n, n)
    Jinv: np.ndarray | None
    z0: np.ndarray
    eps: float


def _as_state(z0, n: int) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z0, dtype=float))
    if z.shape != (n,):
        raise ValueError(f"initial state must have dimension {n}")
    return z


def solve_batch(level1: np.ndarray, level2: np.ndarray, grid: TimeGrid,
                vf: VectorFieldSystem, z0, eps: float = 1.0,
                with_jacobian: bool = True) -> FlowState:
    """Second-order one-step scheme over an ensemble of lifted drivers.

    ``level1``: (P, N, d) increments, ``level2``: (P, N, d, d) iterated
    integrals; the driver enters scaled by ``eps``.  With the Jacobian,
    each step forms A_i = d(dz_i)/dz once, (P, n, n), and updates
    J <- J + A_i J, so J is the exact derivative of the discrete map; Jinv
    is np.linalg.inv(J) over all (P, N+1) nodes after the loop.  The flow
    has a leading path axis: Z is (P, N+1, n), J and Jinv (P, N+1, n, n).
    """
    P, N, d = level1.shape
    if d != vf.d or level2.shape != (P, N, d, d) or N != grid.n_steps:
        raise ValueError("driver dimensions inconsistent with field/grid")
    n = vf.n
    z0 = _as_state(z0, n)
    dts = grid.dts

    if eps * np.abs(level1).max(initial=0.0) >= 1.0:
        raise ValueError("per-step increment norm >= 1: grid too coarse "
                         "for the step-map contraction")

    Z = np.empty((P, N + 1, n))
    Z[:, 0, :] = z0
    z = np.broadcast_to(z0, (P, n)).copy()
    if with_jacobian:
        J = np.empty((P, N + 1, n, n))
        J[:, 0] = np.eye(n)
    else:
        J = None

    for i in range(N):
        dt = dts[i]
        x1 = eps * level1[:, i]                    # (P, d)
        x2 = (eps * eps) * level2[:, i]            # (P, d, d)
        v0 = vf.v0(z)
        v = vf.v(z)
        dv0 = vf.dv0(z)
        dv = vf.dv(z)

        vx1 = np.einsum("pad,pd->pa", v, x1)
        dz = v0 * dt
        dz += vx1
        dz += np.einsum("pabk,pbj,pjk->pa", dv, v, x2)
        dz += 0.5 * dt * dt * np.einsum("pab,pb->pa", dv0, v0)
        dz += 0.5 * dt * (np.einsum("pabj,pb,pj->pa", dv, v0, x1)
                          + np.einsum("pab,pbj,pj->pa", dv0, v, x1))

        if with_jacobian:
            # A = d(dz)/dz term by term, contracted with x1 and x2 so no
            # (n, n, d, d) block is built: dv0 dt, dv x1, the level-2
            # term d2v (v x2) + dv (dv x2), the drift terms dt^2/2 (d2v0 v0
            # + dv0 dv0) and the mixed terms dt/2 (d2v (v0 x1) + (dv x1) dv0
            # + d2v0 (v x1) + dv0 (dv x1)).
            dvx1 = np.einsum("pacj,pj->pac", dv, x1)
            dvx2 = dv @ x2[:, None]                          # (P, n, n, d)
            a = dt * dv0 + dvx1
            a += np.einsum("pacek,pek->pac", vf.d2v(z),
                           v @ x2 + 0.5 * dt * np.einsum("pe,pk->pek", v0, x1))
            a += dv.reshape(P, n, n * d) @ dvx2.transpose(0, 1, 3, 2).reshape(
                P, n * d, n)
            a += 0.5 * dt * np.einsum("pace,pe->pac", vf.d2v0(z),
                                      dt * v0 + vx1)
            a += 0.5 * dt * (dt * dv0 @ dv0 + dvx1 @ dv0 + dv0 @ dvx1)
            J[:, i + 1] = J[:, i] + a @ J[:, i]

        z = z + dz
        if not np.all(np.isfinite(z)) or np.abs(z).max() > BLOW_UP_GUARD:
            raise BlowUpError(
                f"state escaped |Z| <= {BLOW_UP_GUARD:g} at step {i + 1} "
                "(step too coarse or field unbounded)", last_valid_step=i)
        Z[:, i + 1] = z

    Jinv = None if J is None else np.linalg.inv(J)
    return FlowState(grid=grid, Z=Z, J=J, Jinv=Jinv, z0=z0, eps=eps)


def solve(rp: RoughPath2, vf: VectorFieldSystem, z0, eps: float = 1.0,
          with_jacobian: bool = True) -> FlowState:
    """Solve along a single lifted driver: a batch of one, unwrapped."""
    flow = solve_batch(rp.step1[None], rp.step2[None], rp.grid, vf, z0,
                       eps=eps, with_jacobian=with_jacobian)
    return FlowState(grid=flow.grid, Z=flow.Z[0],
                     J=None if flow.J is None else flow.J[0],
                     Jinv=None if flow.Jinv is None else flow.Jinv[0],
                     z0=flow.z0, eps=eps)


# ---------------------------------------------------------------------------
# Skeleton ODE driven by Cameron-Martin elements
# ---------------------------------------------------------------------------

def _spline_derivative(x: np.ndarray, y: np.ndarray,
                       t: np.ndarray) -> np.ndarray:
    """Derivative at times ``t`` of the not-a-knot cubic spline through
    each column of ``y`` (N+1, m) at nodes ``x``, shape (len(t), m).

    The node slopes solve the spline's (N+1) x (N+1) tridiagonal system,
    row for row the one scipy's ``CubicSpline`` solves; each interval is
    then the cubic Hermite polynomial of its end values and slopes.
    """
    n = x.size
    if n < 4:
        raise ValueError("a not-a-knot spline needs at least four nodes")
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    a = np.zeros((n, n))
    b = np.empty(y.shape)
    i = np.arange(1, n - 1)
    a[i, i - 1] = dx[1:]
    a[i, i] = 2 * (dx[:-1] + dx[1:])
    a[i, i + 1] = dx[:-1]
    b[1:-1] = 3 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    # not-a-knot: the third derivative is continuous at x_1 and x_{N-1}
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    a[0, :2] = dx[1], d0
    a[-1, -2:] = d1, dx[-2]
    b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b[-1] = (dx[-1] ** 2 * slope[-2]
             + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    s = np.linalg.solve(a, b)
    # interval k holds x_k <= t < x_{k+1}; the last node closes interval N-1
    k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2)
    h, u = dx[k, None], (t - x[k])[:, None]
    curv = (s[k] + s[k + 1] - 2 * slope[k]) / h
    return (s[k] + ((slope[k] - s[k]) / h - curv) * u * 2
            + curv / h * (u * u) * 3)


class SkeletonPropagator:
    """Batched terminal map of the skeleton ODE for elements on fixed nodes.

    Each basis trace R(s_m, .) is known at the grid nodes; its derivative
    is that of the not-a-knot cubic spline through them (node slopes from
    one linear solve, then the cubic Hermite derivative), taken at the RK4
    stage times of the grid refined ``REFINE_FACTOR`` times.  The trace is
    linear in the coefficients, so these derivatives are computed once and
    reused for every evaluation and tangent.
    """

    def __init__(self, kernel, vf: VectorFieldSystem, grid: TimeGrid,
                 h_nodes: np.ndarray):
        self.vf = vf
        self.h_nodes = np.asarray(h_nodes, dtype=float)
        # basis traces R(s_m, t) on the grid
        self.basis = np.atleast_2d(kernel.eval(self.h_nodes[:, None],
                                               grid.nodes[None, :]))
        fine = grid.refine(REFINE_FACTOR)
        self.fine_nodes = fine.nodes
        stage_times = np.empty(2 * fine.n_steps + 1)
        stage_times[::2] = fine.nodes
        stage_times[1::2] = 0.5 * (fine.nodes[:-1] + fine.nodes[1:])
        self.basis_dot = _spline_derivative(grid.nodes, self.basis.T,
                                            stage_times).T   # (m, 2*M+1)

    def propagate(self, coeffs: np.ndarray, z0, with_jacobian: bool = False,
                  with_tangent: bool = False):
        """RK4 the skeleton for a coefficient batch (B, m, d): phi at base
        nodes (B, N+1, n), then as requested J = dphi/dz0 at base nodes
        (B, N+1, n, n) and the terminal tangent A = dphi_T/dc (B, n, m, d),
        exact derivatives of the discrete map from one variational recursion
        through the same RK4 stages (J columns start at the identity, A
        columns at zero and are forced by v(phi) bdot_m(t))."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim == 2:
            coeffs = coeffs[:, :, None]
        B, m, d = coeffs.shape
        vf, n = self.vf, self.vf.n
        hdot = np.einsum("bmd,mq->bqd", coeffs, self.basis_dot)  # (B, Q, d)
        n_j, n_c = n * with_jacobian, m * d * with_tangent
        phi = np.broadcast_to(_as_state(z0, n), (B, n)).copy()
        tan = np.zeros((B, n, n_j + n_c))
        tan[:, :n_j, :n_j] = np.eye(n_j)
        phi_out, j_out = [phi], [tan[:, :, :n_j]]

        def stage(state, t_state, q):       # slopes of phi and tangent
            v, hd = vf.v(state), hdot[:, q]
            k = vf.v0(state) + np.einsum("bad,bd->ba", v, hd)
            if t_state.size == 0:           # no derivative requested
                return k, t_state
            a = vf.dv0(state) + np.einsum("badj,bj->bad", vf.dv(state), hd)
            dt = np.einsum("bac,bce->bae", a, t_state)
            if n_c:
                dt[:, :, n_j:] += np.einsum("bak,m->bamk", v, self.basis_dot[
                    :, q]).reshape(B, n, n_c)
            return k, dt

        for i, h in enumerate(np.diff(self.fine_nodes)):
            k1, m1 = stage(phi, tan, 2 * i)
            k2, m2 = stage(phi + 0.5 * h * k1, tan + 0.5 * h * m1, 2 * i + 1)
            k3, m3 = stage(phi + 0.5 * h * k2, tan + 0.5 * h * m2, 2 * i + 1)
            k4, m4 = stage(phi + h * k3, tan + h * m3, 2 * i + 2)
            tan = tan + (h / 6.0) * (m1 + 2 * m2 + 2 * m3 + m4)
            phi = phi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if np.abs(phi).max() > BLOW_UP_GUARD:
                raise BlowUpError("skeleton escaped the guard radius",
                                  last_valid_step=i)
            if (i + 1) % REFINE_FACTOR == 0:
                phi_out.append(phi)
                j_out.append(tan[:, :, :n_j])

        out = [np.stack(phi_out, axis=1)]
        if with_jacobian:
            out.append(np.stack(j_out, axis=1))
        if with_tangent:
            out.append(tan[:, :, n_j:].reshape(B, n, m, d))
        return out[0] if len(out) == 1 else tuple(out)

    def terminal(self, coeffs: np.ndarray, z0) -> np.ndarray:
        """Phi_T for a coefficient batch, shape (B, n)."""
        return self.propagate(coeffs, z0)[:, -1]


def solve_skeleton(h: CMElement, vf: VectorFieldSystem, z0,
                   grid: TimeGrid) -> FlowState:
    """Skeleton flow phi (as Z, at unit driver scale) and its Jacobian for
    one Cameron-Martin element."""
    prop = SkeletonPropagator(h.kernel, vf, grid, h.nodes)
    phi, jac = prop.propagate(h.coeffs[None], z0, with_jacobian=True)
    return FlowState(grid=grid, Z=phi[0], J=jac[0],
                     Jinv=np.linalg.inv(jac[0]), z0=_as_state(z0, vf.n),
                     eps=1.0)
