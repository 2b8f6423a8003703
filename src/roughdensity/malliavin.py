"""Malliavin derivative kernels and matrices for solved flows.

The scheme's step derivative along the driver is written once, in
`_increment_tangent`; the directional derivative and the rate function's
tangent are both contractions of it.

The derivative kernel of the terminal state is J_t J_s^{-1} V(Z_s); the
matrix assembles the 2D Riemann-Stieltjes pairing of that kernel with
itself against the covariance increments (left-endpoint cells), which is
exact for grid step functions.  The same assembly applied to a skeleton
flow, the scheme at eps = 1 driven by h's grid increments, gives the
deterministic matrix of the small-noise analysis: at the rate function's
minimizer it is the rate function's gamma.

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
from .rde import FlowState, _w_form, solve_skeleton


# Degree of the random trigonometric polynomials of `trig_corpus`.
TRIG_DEGREE = 8
# A lower-chain margin of `interpolation_audit` above -AUDIT_RTOL (relative
# to the chain's scale) is round-off, not a failure.
AUDIT_RTOL = 1e-9


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
    if flow.J is None:
        raise ValueError("flow was solved without the Jacobian")
    idx = _t_index(flow.grid, t_node)
    # grouped (J_t J_s^-1) V, so a scalar flow (n = d = 1) rounds as the
    # left-to-right product
    return flow.eps * ((flow.J[..., idx, None, :, :]
                        @ np.linalg.inv(flow.J[..., : idx + 1, :, :]))
                       @ vf.v(flow.Z[..., : idx + 1, :]))


def _increment_tangent(flow: FlowState, vf: VectorFieldSystem, level1,
                       h: np.ndarray, idx: int) -> np.ndarray:
    """J_{s+1}^-1 b_s(h) for the steps s < idx, shape (..., idx, n, m):
    step s adds W + (1/2) DW W with W = V0 dt + V x^1 and x^1 = eps dx
    (``level1`` holds dx, (..., N, d)), so its derivative along each of the
    m driver directions h, (..., idx, d, m), is b_s(h) = V h + (1/2)(DV[h] W
    + DW V h).  J is the exact derivative of the step map, so J_t times
    this is the exact derivative of Z_t along step s's h."""
    v, dv, w, dw = _w_form(vf, flow.Z[..., :idx, :], flow.grid.dts[:idx, None],
                           flow.eps * level1[..., :idx, :])
    vh = v @ h
    dvh = np.einsum("...sabj,...sjk->...sabk", dv, h)
    b = vh + 0.5 * (np.einsum("...sabk,...sb->...sak", dvh, w) + dw @ vh)
    return np.linalg.inv(flow.J[..., 1: idx + 1, :, :]) @ b


def directional_derivative(flow: FlowState, vf: VectorFieldSystem,
                           level1: np.ndarray, shift: np.ndarray,
                           t_node) -> np.ndarray:
    """Cameron-Martin directional derivative of Z_t along h, shape (..., n).

    ``level1`` holds the driver's level-1 increments (..., N, d) and
    ``shift`` the trace of h at the grid nodes (..., N+1, d), so each flow
    of a batch can have its own h.  The increment tangent along h^1 =
    eps dh, summed over the steps before t and carried to t by J_t, is the
    exact adjoint of the discrete flow map up to round-off; it matches the
    continuous pairing to scheme order.
    """
    if flow.J is None:
        raise ValueError("flow was solved without the Jacobian")
    idx = _t_index(flow.grid, t_node)
    h1 = flow.eps * np.diff(shift[..., : idx + 1, :], axis=-2)
    tangent = _increment_tangent(flow, vf, level1, h1[..., None], idx)
    return (flow.J[..., idx, :, :] @ tangent.sum(axis=-3))[..., 0]


def malliavin_matrix(flow: FlowState, vf: VectorFieldSystem,
                     kernel: CovKernel, t_node) -> np.ndarray:
    """Malliavin matrix gamma_t = sum_ij D_{s_i} Z_t M_ij D_{s_j} Z_t^T of a
    solved flow: its derivative kernel at the left endpoints s_i < t paired
    with itself against the covariance cells M, shape (..., n, n), as
    assembled (not symmetrised, so its asymmetry is visible round-off)."""
    if not np.all(np.isfinite(flow.Z)):
        raise FloatingPointError("flow contains non-finite states")
    idx = _t_index(flow.grid, t_node)
    kern = derivative_kernel(flow, vf, idx)[..., :idx, :, :]
    cells = cell_rect_matrix(kernel, flow.grid)[:idx, :idx]
    return np.einsum("ij,...iad,...jbd->...ab", cells, kern, kern,
                     optimize=True)


def deterministic_malliavin_matrix(h: CMElement, vf: VectorFieldSystem, z0,
                                   kernel: CovKernel,
                                   grid: TimeGrid) -> np.ndarray:
    """Deterministic Malliavin matrix of the skeleton terminal state (the
    scheme at eps = 1 driven by h's grid increments)."""
    return malliavin_matrix(solve_skeleton(h, vf, z0, grid), vf, kernel,
                            grid.n_steps)


# ---------------------------------------------------------------------------
# Interpolation audit
# ---------------------------------------------------------------------------

def trig_corpus(grid: TimeGrid, n_functions: int, seed: int = 0) -> np.ndarray:
    """Random trigonometric polynomials of degree ``TRIG_DEGREE`` sampled at
    cell left endpoints, shape (n_functions, n_cells); standard-normal
    coefficients."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    t = grid.nodes[:-1]
    w = 2 * np.pi * t / grid.horizon
    out = np.empty((n_functions, t.size))
    for i in range(n_functions):
        c = rng.standard_normal(2 * TRIG_DEGREE + 1)
        vals = np.full(t.size, c[0])
        for k in range(1, TRIG_DEGREE + 1):
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
                        report: HypothesisReport | None = None
                        ) -> InterpolationAudit:
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
            if m1 < -AUDIT_RTOL or m2 < -AUDIT_RTOL:
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
