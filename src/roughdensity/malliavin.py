"""Malliavin derivative kernels and matrices for solved flows.

The derivative kernel of the terminal state is J_t J_s^{-1} V(Z_s); the
matrix assembles the 2D Riemann-Stieltjes pairing of that kernel with
itself against the covariance increments (left-endpoint cells), which is
exact for grid step functions.  The same assembly applied to a skeleton
flow gives the deterministic matrix of the small-noise analysis.

Every function takes a `FlowState` and broadcasts over its leading batch
axes: a single flow gives one result, a batch from `solve_batch` one per
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import HypothesisReport, cell_rect_matrix, check_hypotheses, kappa
from .fields import VectorFieldSystem
from .kernels import CovKernel, TimeGrid
from .lift import p_variation
from .paths import CMElement
from .rde import FlowState, solve_skeleton


class HypothesisGateError(RuntimeError):
    """Kernel failed its hypothesis report; gated computation refused."""


def _t_index(grid: TimeGrid, t_node) -> int:
    if isinstance(t_node, (int, np.integer)):
        idx = int(t_node)
        if not 0 <= idx <= grid.n_steps:
            raise ValueError("node index out of range")
        return idx
    return grid.index_of(float(t_node))


def derivative_kernel(flow: FlowState, vf: VectorFieldSystem,
                      t_node) -> np.ndarray:
    """Malliavin derivative kernel D_s Z_t = eps J_t J_s^{-1} V(Z_s) at the
    grid nodes s <= t (it carries the flow's driver scale), shape
    (..., t_index + 1, n, d)."""
    if flow.J is None or flow.Jinv is None:
        raise ValueError("flow was solved without the Jacobian pair")
    idx = _t_index(flow.grid, t_node)
    return flow.eps * np.einsum("...ab,...sbc,...scd->...sad",
                                flow.J[..., idx, :, :],
                                flow.Jinv[..., : idx + 1, :, :],
                                vf.v(flow.Z[..., : idx + 1, :]))


def directional_derivative(flow: FlowState, vf: VectorFieldSystem,
                           level1: np.ndarray, shift: np.ndarray,
                           t_node) -> np.ndarray:
    """Cameron-Martin directional derivative of Z_t along h, shape (..., n).

    ``level1`` holds the driver's level-1 increments (..., N, d) and
    ``shift`` the trace of h at the grid nodes (..., N+1, d), so each flow
    of a batch can have its own h.  Contracts the derivative kernel with dh
    through the same one-step quadrature as the flow solver (including the
    mixed level-2 channel).  The flow's J is the exact derivative of the
    discrete step map and Jinv is J^-1, so J_t J_{s+1}^-1 is the exact
    derivative of Z_t in Z_{s+1} and the result is the exact adjoint of the
    discrete flow map, up to round-off; it matches the continuous pairing
    to scheme order.
    """
    if flow.J is None or flow.Jinv is None:
        raise ValueError("flow was solved without the Jacobian pair")
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
                     flow.Jinv[..., 1: idx + 1, :, :], b)


def _assemble(jinv: np.ndarray, v_along: np.ndarray, jt: np.ndarray,
              cells: np.ndarray, idx: int) -> np.ndarray:
    """gamma = J_t [ sum_ij F_i M_ij F_j^T ] J_t^T with
    F_s = Jinv_s V(Z_s), left endpoints s < t."""
    f = np.einsum("...sab,...sbd->...sad", jinv[..., :idx, :, :],
                  v_along[..., :idx, :, :])
    m = cells[:idx, :idx]
    c = np.einsum("ij,...iad,...jbd->...ab", m, f, f, optimize=True)
    gamma = np.einsum("...ab,...bc,...dc->...ad", jt, c, jt)
    return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))


def malliavin_matrix(flow: FlowState, vf: VectorFieldSystem,
                     kernel: CovKernel, t_node) -> np.ndarray:
    """Malliavin matrix gamma_t of a solved flow, shape (..., n, n)."""
    if flow.J is None or flow.Jinv is None:
        raise ValueError("flow was solved without the Jacobian pair")
    if not np.all(np.isfinite(flow.Z)):
        raise FloatingPointError("flow contains non-finite states")
    idx = _t_index(flow.grid, t_node)
    return (flow.eps ** 2) * _assemble(flow.Jinv, vf.v(flow.Z),
                                       flow.J[..., idx, :, :],
                                       cell_rect_matrix(kernel, flow.grid),
                                       idx)


def deterministic_malliavin_matrix(h: CMElement, vf: VectorFieldSystem, z0,
                                   kernel: CovKernel,
                                   grid: TimeGrid) -> np.ndarray:
    """Deterministic Malliavin matrix of the skeleton terminal state."""
    return malliavin_matrix(solve_skeleton(h, vf, z0, grid), vf, kernel,
                            grid.n_steps)


# ---------------------------------------------------------------------------
# Interpolation audit
# ---------------------------------------------------------------------------

def trig_corpus(grid: TimeGrid, n_functions: int, seed: int = 0,
                degree: int = 8) -> np.ndarray:
    """Random trigonometric polynomials sampled at cell left endpoints,
    shape (n_functions, n_cells); standard-normal coefficients."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    t = grid.nodes[:-1]
    w = 2 * np.pi * t / grid.horizon
    out = np.empty((n_functions, t.size))
    for i in range(n_functions):
        c = rng.standard_normal(2 * degree + 1)
        vals = np.full(t.size, c[0])
        for k in range(1, degree + 1):
            vals += c[2 * k - 1] * np.cos(k * w) + c[2 * k] * np.sin(k * w)
        out[i] = vals
    return out


@dataclass
class InterpolationAudit:
    kernel: str
    n_functions: int
    t_checks: list
    lower_chain_failures: int
    lower_chain_worst_margin: float
    c2_upper_estimate: float
    interp_failures: int
    interp_worst_ratio: float
    c_X: float
    alpha: float
    holder_exponent_used: float
    p_variation_exponent: float

    @property
    def passed(self) -> bool:
        return self.lower_chain_failures == 0 and self.interp_failures == 0

    def to_json(self):
        return {
            "kernel": self.kernel,
            "n_functions": self.n_functions,
            "t_checks": list(self.t_checks),
            "lower_chain": {"failures": self.lower_chain_failures,
                            "worst_margin": self.lower_chain_worst_margin},
            "upper_bound_c2": self.c2_upper_estimate,
            "interpolation": {"failures": self.interp_failures,
                              "worst_ratio": self.interp_worst_ratio,
                              "c_X": self.c_X, "alpha": self.alpha,
                              "gamma": self.holder_exponent_used,
                              "p": self.p_variation_exponent},
            "pass": self.passed,
        }


def interpolation_audit(kernel: CovKernel, grid: TimeGrid,
                        n_random_fns: int = 100, seed: int = 0,
                        report: HypothesisReport | None = None,
                        tol: float = 1e-9) -> InterpolationAudit:
    """Audit the two-sided interpolation inequalities on a random smooth
    corpus.

    The constant-free lower chain
    ``|f 1_[0,t]|_H^2 >= int f^2 R(dr, t) >= sigma_t^2 min f^2``
    must hold exactly on the grid (up to round-off) for kernels passing the
    sign hypotheses, at the nodes N/4, N/2 and N; the upper bound and the
    sup-norm interpolation are reported with their empirical constants and
    checked with the grid-estimated (c_X, alpha).
    """
    if report is None:
        report = check_hypotheses(kernel, grid)
    if not report.passed:
        raise HypothesisGateError(
            f"{kernel.label} failed its hypothesis report; audit gated")

    nodes = grid.nodes
    n = grid.n_steps
    t_checks = [nodes[n // 4], nodes[n // 2], nodes[n]]
    cells = cell_rect_matrix(kernel, grid)
    gram = kernel.gram(nodes)
    corpus = trig_corpus(grid, n_random_fns, seed=seed)

    c_x, alpha = report.c_X_estimate, report.alpha_estimate
    gamma_h = 1.0
    p_upper = 2.0 * kernel.rho

    chain_failures = 0
    worst_margin = np.inf
    c2_best = 0.0
    interp_failures = 0
    worst_ratio = 0.0

    for t in t_checks:
        idx = grid.index_of(t)
        sig2 = kernel.sigma_sq0(t)
        kap2 = kappa(kernel, 0.0, t, grid, cells=cells) ** 2
        # measure R([u_i, u_{i+1}], t) = E[dX_cell dX_{0 t}]
        measure = gram[1: idx + 1, idx] - gram[:idx, idx]
        for f in corpus:
            fc = f[:idx]
            lhs = float(np.einsum("i,ij,j->", fc, cells[:idx, :idx], fc))
            mid = float(np.dot(fc ** 2, measure))
            low = sig2 * float(np.min(np.abs(fc)) ** 2)
            scale = max(abs(lhs), abs(mid), sig2, 1e-30)
            m1 = (lhs - mid) / scale
            m2 = (mid - low) / scale
            worst_margin = min(worst_margin, m1, m2)
            if m1 < -tol or m2 < -tol:
                chain_failures += 1
            # upper bound of the kappa-controlled inequality
            pv = p_variation(fc, p_upper).value
            sup = float(np.max(np.abs(fc)))
            denom = kap2 * (pv ** 2 + sup ** 2)
            if denom > 0:
                c2_best = max(c2_best, lhs / denom)

    # sup-norm interpolation on [0, T] with grid-estimated constants
    sig_T = np.sqrt(kernel.sigma_sq0(grid.horizon))
    dt_pairs = nodes[1:] - nodes[:-1]
    for f in corpus:
        h_norm = np.sqrt(max(float(np.einsum("i,ij,j->", f, cells, f)), 0.0))
        sup = float(np.max(np.abs(f)))
        holder = float(np.max(np.abs(np.diff(f)) / dt_pairs[:-1] ** gamma_h)) \
            if f.size > 1 else 0.0
        e1 = h_norm / sig_T
        e2 = (h_norm ** (2 * gamma_h / (2 * gamma_h + alpha))
              * max(holder, 1e-30) ** (alpha / (2 * gamma_h + alpha))
              / np.sqrt(c_x))
        bound = 2.0 * max(e1, e2)
        ratio = sup / bound if bound > 0 else np.inf
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0 + 1e-9:
            interp_failures += 1

    return InterpolationAudit(
        kernel=kernel.label,
        n_functions=n_random_fns,
        t_checks=[float(t) for t in t_checks],
        lower_chain_failures=chain_failures,
        lower_chain_worst_margin=float(worst_margin),
        c2_upper_estimate=float(c2_best),
        interp_failures=interp_failures,
        interp_worst_ratio=float(worst_ratio),
        c_X=float(c_x),
        alpha=float(alpha),
        holder_exponent_used=gamma_h,
        p_variation_exponent=p_upper,
    )
