"""Flow solver: the rough differential equation with its Jacobian, and
the skeleton driven by a Cameron-Martin element h as the same scheme at
eps = 1.

Every flow reads its driver as piecewise-linear between the grid nodes,
through the node increments: a sampled path's, or h's for the skeleton.
The private generator `_steps` is the one stepping loop: it yields each
node's state (and step derivative) and stores nothing.  `solve_batch`
stores what it yields as the trajectory Z (and J); the Monte-Carlo chunks
of `density.monte_carlo_reduce` keep only one value per path instead.

The stepper is the one-step second-order (Davie) update in W-form:
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
# unbounded); a skeleton is a scheme flow, so the guard covers it too.
BLOW_UP_GUARD = 1e8


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
    them along leading axes; a skeleton is the flow at eps = 1 driven by
    h's grid increments."""

    grid: TimeGrid
    Z: np.ndarray                 # (..., N+1, n)
    J: np.ndarray | None          # (..., N+1, n, n)
    eps: float


def _as_state(z0, n: int) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z0, dtype=float))
    if z.shape != (n,):
        raise ValueError(f"initial state must have dimension {n}")
    return z


def _steps(level1: np.ndarray, grid: TimeGrid, vf: VectorFieldSystem, z0,
           eps: float, with_jacobian: bool):
    """The one stepping loop: yields (z, a) at every node k = 0 .. N, z the
    state (P, n) and, with the Jacobian, a the derivative A_k of the step
    into node k (P, n, n); a is None at node 0 and without the Jacobian.

    ``level1`` is (P, N, d); its steps are read time-major, as a contiguous
    (N, P, d) array (copied only if it is not one already).  The checks run
    before node 0 is yielded.  A caller keeps what it needs of each node, so
    no trajectory is stored unless the caller stores it.
    """
    P, N, d = level1.shape
    if d != vf.d or N != grid.n_steps:
        raise ValueError("driver dimensions inconsistent with field/grid")
    n = vf.n
    z0 = _as_state(z0, n)
    dts = grid.dts

    # max |dx| without an |level1| temporary; a NaN increment passes
    if level1.size and eps * max(level1.max(), -level1.min()) >= 1.0:
        raise CoarseGridError("per-step increment norm >= 1: grid too "
                              "coarse for the step-map contraction")

    steps = np.ascontiguousarray(level1.transpose(1, 0, 2))     # (N, P, d)
    z = np.empty((P, n))
    z[:] = z0
    a = None
    yield z, a
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

        z = z + (w + 0.5 * np.einsum("pab,pb->pa", dw, w))
        if not np.abs(z).max() <= BLOW_UP_GUARD:      # NaN fails it too
            raise BlowUpError(
                f"state escaped |Z| <= {BLOW_UP_GUARD:g} at step {i + 1} "
                "(step too coarse or field unbounded)", last_valid_step=i)
        yield z, a


def solve_batch(level1: np.ndarray, grid: TimeGrid, vf: VectorFieldSystem,
                z0, eps: float = 1.0, with_jacobian: bool = True) -> FlowState:
    """Second-order one-step scheme over an ensemble of drivers, with the
    whole trajectory stored.

    ``level1``: (P, N, d) increments dx of the drivers' node values; step i
    takes x^1 = eps dx, W = V0 dt + V x^1 and DW = DV0 dt + DV x^1 at the
    current state and adds W + (1/2) DW W.  With the Jacobian, each step
    forms A_i = DW + (1/2)(D2W[W] + DW DW), (P, n, n), with
    D2W = D2V0 dt + D2V x^1, and updates J <- J + A_i J, so J is the exact
    derivative of the discrete map.  Z is (P, N+1, n), J (P, N+1, n, n).

    The steps run time-major: over the increments as a contiguous (N, P, d)
    array, writing Z as (N+1, P, n), so each step reads and writes
    contiguous rows; Z is returned as the (P, N+1, n) transposed view.
    `paths.sample_increments` and `lift.lift_ensemble` return increments
    whose (N, P, d) transpose is already contiguous, so they are read as
    they are; any other layout is copied once per call.
    """
    P, N, _ = level1.shape
    n = vf.n
    flow = _steps(level1, grid, vf, z0, eps, with_jacobian)
    z, _ = next(flow)               # the checks run before Z and J exist
    Z = np.empty((N + 1, P, n))
    Z[0] = z
    J = None
    if with_jacobian:
        J = np.empty((P, N + 1, n, n))
        J[:, 0] = np.eye(n)
    for k, (z, a) in enumerate(flow, start=1):
        Z[k] = z
        if a is not None:
            J[:, k] = J[:, k - 1] + a @ J[:, k - 1]
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
# Skeleton: the scheme at eps = 1 driven by Cameron-Martin elements
# ---------------------------------------------------------------------------

class SkeletonPropagator:
    """Skeleton flows of elements on fixed nodes: `solve_batch` at eps = 1
    driven by h's grid increments.

    h is linear in its coefficients, so its basis traces R(s_m, .) on the
    grid are computed once per propagator; `solve_skeleton` makes one per
    call, and the class stays because `perfbench/spans.py` wraps
    `propagate`.
    """

    def __init__(self, kernel, vf: VectorFieldSystem, grid: TimeGrid,
                 h_nodes: np.ndarray):
        self.vf = vf
        self.grid = grid
        # basis traces R(s_m, t) on the grid
        self.basis = np.atleast_2d(kernel.eval(
            np.asarray(h_nodes, dtype=float)[:, None], grid.nodes[None, :]))

    def propagate(self, coeffs: np.ndarray, z0):
        """Skeletons for a coefficient batch (B, m, d): phi at grid nodes
        (B, N+1, n) and J = dphi/dz0 (B, N+1, n, n)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim == 2:
            coeffs = coeffs[:, :, None]
        level1 = np.einsum("bmd,mi->bid", coeffs, np.diff(self.basis, axis=1))
        flow = solve_batch(level1, self.grid, self.vf, z0)
        return flow.Z, flow.J


def solve_skeleton(h: CMElement, vf: VectorFieldSystem, z0,
                   grid: TimeGrid) -> FlowState:
    """Skeleton flow phi (as Z, at driver scale eps = 1) and its Jacobian
    for one Cameron-Martin element: a batch of one."""
    prop = SkeletonPropagator(h.kernel, vf, grid, h.nodes)
    phi, jac = prop.propagate(h.coeffs[None], z0)
    return FlowState(grid=grid, Z=phi[0], J=jac[0], eps=1.0)
