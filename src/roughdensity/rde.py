"""Flow solvers: the rough differential equation with its Jacobian,
and the skeleton ODE driven by a Cameron-Martin element h.

Every flow reads its driver as piecewise-linear between the grid nodes:
the RDE through the node increments, the skeleton through h's constant
velocity on each cell, which RK4 integrates with ``REFINE_FACTOR``
substeps.

The RDE stepper is the one-step second-order (Davie) update in W-form:
z <- z + W + (1/2) DW W with W = V0(z) dt + V(z) x^1, which is the Taylor
update with the piecewise-linear level 2 (1/2) x^1 (x) x^1 and the drift
folded in, built from two-operand contractions only.  J is the exact
derivative of the step map; the Malliavin layer inverts the slices of J it
reads.

Every solve returns a `FlowState`: one record for a single flow, a batch
of flows along leading axes, and a skeleton flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import VectorFieldSystem
from .kernels import TimeGrid
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

    def __reduce__(self):
        # pickles with its step, so it crosses a process pool intact
        return type(self), (str(self), self.last_valid_step)


class CoarseGridError(ValueError):
    """A driver increment too large for the step-map contraction."""


@dataclass
class FlowState:
    """Solution and Jacobian of one driver realization, or of a batch of
    them along leading axes."""

    grid: TimeGrid
    Z: np.ndarray                 # (..., N+1, n)
    J: np.ndarray | None          # (..., N+1, n, n)
    eps: float


def _as_state(z0, n: int) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z0, dtype=float))
    if z.shape != (n,):
        raise ValueError(f"initial state must have dimension {n}")
    return z


def solve_batch(level1: np.ndarray, grid: TimeGrid, vf: VectorFieldSystem,
                z0, eps: float = 1.0, with_jacobian: bool = True) -> FlowState:
    """Second-order one-step scheme over an ensemble of drivers.

    ``level1``: (P, N, d) increments dx of the drivers' node values; step i
    takes x^1 = eps dx, W = V0 dt + V x^1 and DW = DV0 dt + DV x^1 at the
    current state and adds W + (1/2) DW W.  With the Jacobian, each step
    forms A_i = DW + (1/2)(D2W[W] + DW DW), (P, n, n), with
    D2W = D2V0 dt + D2V x^1, and updates J <- J + A_i J, so J is the exact
    derivative of the discrete map.  Z is (P, N+1, n), J (P, N+1, n, n).

    The steps run time-major: over the increments as a contiguous (N, P, d)
    array, writing Z as (N+1, P, n), so each step reads and writes
    contiguous rows; Z is returned as the (P, N+1, n) transposed view.
    `lift.lift_ensemble` returns increments whose (N, P, d) transpose is
    already contiguous, so they are read as they are; any other layout is
    copied once per call.
    """
    P, N, d = level1.shape
    if d != vf.d or N != grid.n_steps:
        raise ValueError("driver dimensions inconsistent with field/grid")
    n = vf.n
    z0 = _as_state(z0, n)
    dts = grid.dts

    if eps * np.abs(level1).max(initial=0.0) >= 1.0:
        raise CoarseGridError("per-step increment norm >= 1: grid too "
                              "coarse for the step-map contraction")

    steps = np.ascontiguousarray(level1.transpose(1, 0, 2))     # (N, P, d)
    Z = np.empty((N + 1, P, n))
    Z[0] = z0
    z = Z[0]
    if with_jacobian:
        J = np.empty((P, N + 1, n, n))
        J[:, 0] = np.eye(n)
    else:
        J = None

    for i in range(N):
        dt = dts[i]
        x1 = eps * steps[i]                        # (P, d)
        w = vf.v0(z) * dt
        w += np.einsum("pad,pd->pa", vf.v(z), x1)
        dw = vf.dv0(z) * dt
        dw += np.einsum("pabj,pj->pab", vf.dv(z), x1)

        if with_jacobian:
            # A = d(dz)/dz = DW + (1/2)(D2W[W] + DW DW); D2W is contracted
            # over its first derivative index, so A is the exact derivative
            # whether or not the fields' second derivatives are symmetric
            d2w = vf.d2v0(z) * dt
            d2w += np.einsum("pabcj,pj->pabc", vf.d2v(z), x1)
            a = dw + 0.5 * (np.einsum("pabc,pb->pac", d2w, w) + dw @ dw)
            J[:, i + 1] = J[:, i] + a @ J[:, i]

        z = z + (w + 0.5 * np.einsum("pab,pb->pa", dw, w))
        if not np.abs(z).max() <= BLOW_UP_GUARD:      # NaN fails it too
            raise BlowUpError(
                f"state escaped |Z| <= {BLOW_UP_GUARD:g} at step {i + 1} "
                "(step too coarse or field unbounded)", last_valid_step=i)
        Z[i + 1] = z

    return FlowState(grid=grid, Z=Z.transpose(1, 0, 2), J=J, eps=eps)


def solve(values: np.ndarray, grid: TimeGrid, vf: VectorFieldSystem, z0,
          eps: float = 1.0, with_jacobian: bool = True) -> FlowState:
    """Solve along one path's node ``values``, shaped (N+1,) or (N+1, d):
    a batch of one, unwrapped."""
    vals = np.asarray(values, dtype=float)
    flow = solve_batch(np.diff(vals.reshape(len(vals), -1), axis=0)[None],
                       grid, vf, z0, eps=eps, with_jacobian=with_jacobian)
    return FlowState(grid=flow.grid, Z=flow.Z[0],
                     J=None if flow.J is None else flow.J[0], eps=eps)


# ---------------------------------------------------------------------------
# Skeleton ODE driven by Cameron-Martin elements
# ---------------------------------------------------------------------------

class SkeletonPropagator:
    """Batched RK4 skeleton ODE for elements on fixed nodes.

    The driver is h's piecewise-linear interpolation on the grid, the
    driver of every other flow: on cell i the skeleton runs at the constant
    velocity (h(t_{i+1}) - h(t_i)) / dt_i, with ``REFINE_FACTOR`` RK4
    substeps.  h is linear in its coefficients, so its basis traces
    R(s_m, .) on the grid are computed once and reused for every
    evaluation.
    """

    def __init__(self, kernel, vf: VectorFieldSystem, grid: TimeGrid,
                 h_nodes: np.ndarray):
        self.vf = vf
        self.dts = grid.dts
        # basis traces R(s_m, t) on the grid
        self.basis = np.atleast_2d(kernel.eval(
            np.asarray(h_nodes, dtype=float)[:, None], grid.nodes[None, :]))

    def propagate(self, coeffs: np.ndarray, z0):
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


def solve_skeleton(h: CMElement, vf: VectorFieldSystem, z0,
                   grid: TimeGrid) -> FlowState:
    """Skeleton flow phi (as Z, at unit driver scale) and its Jacobian for
    one Cameron-Martin element."""
    prop = SkeletonPropagator(h.kernel, vf, grid, h.nodes)
    phi, jac = prop.propagate(h.coeffs[None], z0)
    return FlowState(grid=grid, Z=phi[0], J=jac[0], eps=1.0)
