"""Monte-Carlo density estimation, tail-form checks, and the small-noise
program: rate-function minimization and the vanishing-noise sweep.

All Monte Carlo flows through counter-based per-path streams, so results
are identical for any chunking/worker layout; reductions run in fixed
chunk order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diagnostics import kappa
from .fields import VectorFieldSystem, ellipticity_scan, NonEllipticError
from .kernels import CovKernel, TimeGrid
from .lift import lift_ensemble
from .malliavin import derivative_kernel, malliavin_matrix
from .paths import CMElement, cholesky_factor, sample
from .rde import (BlowUpError, FlowState, SkeletonPropagator, solve_batch,
                  solve_skeleton)

CHUNK_PATHS = 16384
# Half-width, in bandwidths of coordinate 0, of the sample window that
# `kde_evaluate` sums over each point.
KDE_WINDOW = 9.0
# `varadhan_sweep` trusts an eps only where n p_hat prod(h) >= TRUST_FLOOR,
# i.e. where about that many samples fall within a bandwidth of y.
TRUST_FLOOR = 50.0


class NoiseFloorError(RuntimeError):
    """Density at the target fell below the trust floor."""


class TargetUnreachableError(RuntimeError):
    """No start reached y: A G^-1 A^T singular, or no convergence."""


# ---------------------------------------------------------------------------
# Monte-Carlo reductions over chunked ensembles
# ---------------------------------------------------------------------------

def _chunk_ranges(n_paths: int):
    return [(off, min(CHUNK_PATHS, n_paths - off))
            for off in range(0, n_paths, CHUNK_PATHS)]


def monte_carlo_reduce(kernel: CovKernel, grid: TimeGrid,
                       vf: VectorFieldSystem, z0, eps_list, n_paths: int,
                       seed: int, collect: str = "terminal",
                       t_node=None, workers: int = 1) -> list[np.ndarray]:
    """Sample, lift and solve in fixed chunks; returns one array per eps.

    ``collect`` is ``"terminal"`` (state at ``t_node``, default the
    horizon) or ``"running_sup"`` (sup of |Z - z0| over nodes up to
    ``t_node``).  The same driver realization feeds every eps.
    """
    idx = grid.n_steps if t_node is None else grid.index_of(float(t_node))
    chol = cholesky_factor(kernel, grid)
    z0_arr = np.atleast_1d(np.asarray(z0, dtype=float))

    def run_chunk(off_size):
        off, size = off_size
        ens = sample(kernel, grid, d=vf.d, n_paths=size, seed=seed,
                     path_offset=off, chol=chol)
        l1, l2 = lift_ensemble(ens.data)
        outs = []
        for eps in eps_list:
            batch = solve_batch(l1, l2, grid, vf, z0, eps=eps,
                                with_jacobian=False)
            if collect == "terminal":
                outs.append(batch.Z[:, idx, :].copy())
            elif collect == "running_sup":
                dev = np.linalg.norm(batch.Z[:, : idx + 1, :] - z0_arr,
                                     axis=2)
                outs.append(dev.max(axis=1))
            else:
                raise ValueError(f"unknown collector {collect!r}")
        return outs

    ranges = _chunk_ranges(n_paths)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, ranges))
    else:
        results = [run_chunk(r) for r in ranges]
    return [np.concatenate([r[i] for r in results], axis=0)
            for i in range(len(eps_list))]


# ---------------------------------------------------------------------------
# Kernel density estimation
# ---------------------------------------------------------------------------

def silverman_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Per-dimension Silverman rule 0.9 min(std, iqr/1.34) n^(-1/(dim+4))."""
    samples = np.atleast_2d(samples.T).T
    n, dim = samples.shape
    sd = samples.std(axis=0, ddof=1)
    q75, q25 = np.percentile(samples, [75, 25], axis=0)
    a = np.minimum(sd, (q75 - q25) / 1.34)
    a = np.where(a > 0, a, np.maximum(sd, 1e-12))
    return 0.9 * a * n ** (-1.0 / (dim + 4))


def kde_evaluate(samples: np.ndarray, points: np.ndarray,
                 bandwidth: np.ndarray):
    """Gaussian-product KDE with pointwise standard errors.

    Returns (p_hat, se) over ``points`` (m, dim).  The samples are sorted
    once by coordinate 0; each point sums the full product kernel over the
    samples whose coordinate 0 lies within ``KDE_WINDOW`` bandwidths h_0 of
    its own (found by bisection).  A skipped sample weighs less than
    exp(-KDE_WINDOW^2 / 2) ~ 2.6e-18 of the kernel's peak.  A point whose
    window holds no sample gets p = se = 0 exactly: no sample came near it,
    which is not a precise estimate of a zero density.
    """
    samples = np.atleast_2d(samples.T).T
    points = np.atleast_2d(points.T).T
    n, dim = samples.shape
    h = np.broadcast_to(np.asarray(bandwidth, dtype=float), (dim,))
    norm = 1.0 / (np.prod(h) * (2 * math.pi) ** (dim / 2))
    srt = samples[np.argsort(samples[:, 0])]
    reach = KDE_WINDOW * h[0]
    lo = np.searchsorted(srt[:, 0], points[:, 0] - reach, side="left")
    hi = np.searchsorted(srt[:, 0], points[:, 0] + reach, side="right")
    s1 = np.zeros(points.shape[0])
    s2 = np.zeros(points.shape[0])
    for i, (a, b) in enumerate(zip(lo, hi)):
        u = (points[i] - srt[a:b]) / h
        w = norm * np.exp(-0.5 * np.einsum("pd,pd->p", u, u))
        s1[i] = w.sum()
        s2[i] = (w * w).sum()
    p = s1 / n
    var = np.maximum(s2 / n - p * p, 0.0)
    return p, np.sqrt(var / n)


@dataclass
class DensityEstimate:
    y_grid: np.ndarray
    p: np.ndarray
    se: np.ndarray
    bandwidth: np.ndarray
    n_paths: int
    t: float
    normalization: float

    def to_json(self):
        return {"t": self.t, "n_paths": self.n_paths,
                "bandwidth": np.atleast_1d(self.bandwidth).tolist(),
                "normalization": self.normalization}


def estimate_density(kernel: CovKernel, vf: VectorFieldSystem, z0, t: float,
                     eps: float, n_paths: int, seed: int,
                     y_grid: np.ndarray | None = None,
                     bandwidth: np.ndarray | None = None,
                     grid: TimeGrid | None = None,
                     workers: int = 1) -> DensityEstimate:
    """Gaussian-kernel density estimate of the flow state at time t."""
    if bandwidth is not None and np.any(np.asarray(bandwidth) <= 0):
        raise ValueError("bandwidth must be positive")
    if grid is None:
        grid = TimeGrid.regular(256, horizon=kernel.horizon)
    (terminal,) = monte_carlo_reduce(kernel, grid, vf, z0, [eps], n_paths,
                                     seed, collect="terminal", t_node=t,
                                     workers=workers)
    h = silverman_bandwidth(terminal) if bandwidth is None \
        else np.broadcast_to(np.asarray(bandwidth, dtype=float),
                             (terminal.shape[1],)).copy()
    if y_grid is None:
        if vf.n != 1:
            raise ValueError("default y-grid exists only in dimension 1")
        mean, sd = terminal[:, 0].mean(), terminal[:, 0].std()
        y_grid = np.linspace(mean - 6 * sd, mean + 6 * sd, 512)
    y_arr = np.asarray(y_grid, dtype=float)
    p, se = kde_evaluate(terminal, y_arr, h)
    if y_arr.ndim == 1:
        normalization = float(np.trapezoid(p, y_arr))
    else:
        normalization = float("nan")
    return DensityEstimate(y_grid=y_arr, p=p, se=se, bandwidth=h,
                           n_paths=n_paths, t=float(t),
                           normalization=normalization)


# ---------------------------------------------------------------------------
# Tail-form regressions
# ---------------------------------------------------------------------------

@dataclass
class TailFit:
    slope: float
    intercept: float
    r2: float
    c2_hat: float
    n_window: int
    passed: bool

    def to_json(self):
        return {"slope": self.slope, "intercept": self.intercept,
                "r2": self.r2, "c2_hat": self.c2_hat,
                "n_window": self.n_window, "pass": self.passed}


def _tail_line(u: np.ndarray, p: np.ndarray) -> TailFit:
    """Least-squares line of -log p on u; c2_hat = 1 / slope, and PASS iff
    slope > 0 and r^2 >= 0.9."""
    y = -np.log(p)
    slope, intercept = np.polyfit(u, y, 1)
    resid = y - (slope * u + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    slope, intercept = float(slope), float(intercept)
    return TailFit(slope=slope, intercept=intercept, r2=r2,
                   c2_hat=1.0 / slope if slope > 0 else float("inf"),
                   n_window=int(u.size), passed=bool(slope > 0 and r2 >= 0.9))


def tail_fit(est: DensityEstimate, z0, rho: float,
             kappa_t: float) -> TailFit:
    """Regress -log p_hat(y) on |y - z0|^(1 + 1/rho) / kappa_t^2 over the
    reliable window p_hat > 10 se > 0 (an underflowed se of 0 marks a
    point no sample reached, not a precise one)."""
    y = np.atleast_2d(est.y_grid.T).T
    z0_arr = np.atleast_1d(np.asarray(z0, dtype=float))
    dist = np.linalg.norm(y - z0_arr, axis=1)
    ok = (est.p > 10 * est.se) & (est.se > 0)
    if ok.sum() < 3:
        raise NoiseFloorError("reliable window is empty")
    return _tail_line(dist[ok] ** (1.0 + 1.0 / rho) / kappa_t ** 2,
                      est.p[ok])


@dataclass
class TailProbabilityReport:
    levels: np.ndarray
    exceedance: np.ndarray
    se: np.ndarray
    fit: TailFit | None

    def to_json(self):
        return {"levels": self.levels.tolist(),
                "exceedance": self.exceedance.tolist(),
                "se": self.se.tolist(),
                "fit": None if self.fit is None else self.fit.to_json()}


def tail_probability_check(kernel: CovKernel, vf: VectorFieldSystem, z0,
                           tau: float, eps: float, n_paths: int, seed: int,
                           levels, grid: TimeGrid | None = None,
                           workers: int = 1) -> TailProbabilityReport:
    """Empirical exceedance of the running sup |Z - z0| against levels,
    fitted on the transformed axis level^(1 + 1/rho) / kappa_tau^2; levels
    at or below the sample median are excluded from the fit window."""
    if grid is None:
        grid = TimeGrid.regular(256, horizon=kernel.horizon)
    (sups,) = monte_carlo_reduce(kernel, grid, vf, z0, [eps], n_paths, seed,
                                 collect="running_sup", t_node=tau,
                                 workers=workers)
    levels = np.asarray(levels, dtype=float)
    p_hat = np.array([(sups >= lv).mean() for lv in levels])
    se = np.sqrt(np.maximum(p_hat * (1 - p_hat), 0.0) / n_paths)
    med = np.median(sups)
    ok = (levels > med) & (p_hat > 10 * se) & (p_hat > 0)
    kap = kappa(kernel, 0.0, float(tau), grid)
    fit = None
    if ok.sum() >= 3:
        fit = _tail_line(levels[ok] ** (1.0 + 1.0 / kernel.rho)
                         / (eps ** 2 * kap ** 2), p_hat[ok])
    return TailProbabilityReport(levels=levels, exceedance=p_hat, se=se,
                                 fit=fit)


# ---------------------------------------------------------------------------
# Rate function (minimal Cameron-Martin energy, Gauss-Newton KKT solve)
# ---------------------------------------------------------------------------

MAX_ITERATIONS = 100       # batched propagations, backtracking included
SINGULAR_RTOL = 1e-12      # min/max eigenvalue of A G^-1 A^T below: singular
STEP_RTOL = 1e-10          # converged: |step|_H <= STEP_RTOL (1 + |c|_H)


@dataclass
class RateFunctionResult:
    y: np.ndarray
    d2: float
    h_opt: CMElement
    residual: float
    tol: float
    iterations: list
    det_gamma: float
    gamma: np.ndarray
    start_index: int

    @property
    def accepted(self) -> bool:
        return self.residual <= self.tol and self.det_gamma > 0

    def to_json(self):
        return {"y": np.atleast_1d(self.y).tolist(), "d2": self.d2,
                "residual": self.residual, "det_gamma": self.det_gamma,
                "iterations": self.iterations,
                "n_iterations": len(self.iterations),
                "start_index": self.start_index,
                "h_nodes": self.h_opt.nodes.tolist(),
                "h_coeffs": self.h_opt.coeffs.tolist()}


def rate_function(y, kernel: CovKernel, vf: VectorFieldSystem, z0,
                  grid: TimeGrid | None = None, m_nodes: int = 16,
                  tol: float = 1e-6, n_starts: int = 5, seed: int = 0,
                  elliptic_gate: bool = True) -> RateFunctionResult:
    """Minimize (1/2)|h|^2_H subject to the skeleton reaching y: Gauss-Newton
    on the KKT system.  With h = sum_i c_i R(s_i, .) on ``m_nodes``
    equispaced nodes, node Gram G and exact RK4 tangent A = dPhi_T/dc, each
    step goes to the minimum-norm point of the linearized constraint,
    c+ = G^-1 A^T (A G^-1 A^T)^-1 (y - Phi(c) + A c), whose fixed points are
    the KKT points; the step needs A G^-1 A^T, the deterministic Malliavin
    matrix compressed to span{R(s_i, .)}, non-degenerate.  Steps backtrack
    on |Phi - y| (a trial is kept if it lowers it or stays below tol/10).
    ``n_starts`` seeded starts iterate as one batch; the feasible minimizer
    of least energy wins (ties: lowest start index)."""
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
    prop = SkeletonPropagator(kernel, vf, grid, nodes)

    def linearize(cs):
        phi, jac, tan = prop.propagate(cs.reshape(-1, m, d), z0,
                                       with_jacobian=True, with_tangent=True)
        return phi, jac, tan.reshape(len(cs), vf.n, m * d)

    def h_norm(cs):
        return np.sqrt(np.einsum("bi,ij,bj->b", cs, gram_c, cs))

    rng = np.random.Generator(np.random.Philox(key=seed))
    c = 0.1 * rng.standard_normal((n_starts, m * d))
    phi, jac, tangent = linearize(c)
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
            phi_t, jac_t, tan_t = linearize(trial)
        except BlowUpError:             # the whole batch backtracks
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
    # the winner's last linearization already carries its skeleton flow
    skeleton = FlowState(grid=grid, Z=phi[s_idx], J=jac[s_idx],
                         Jinv=np.linalg.inv(jac[s_idx]), z0=phi[s_idx, 0],
                         eps=1.0)
    gamma = malliavin_matrix(skeleton, vf, kernel, grid.n_steps)
    return RateFunctionResult(
        y=y_arr, d2=float(energy[s_idx]), h_opt=h_opt,
        residual=float(np.linalg.norm(phi[s_idx, -1] - y_arr)), tol=tol,
        iterations=history[s_idx], det_gamma=float(np.linalg.det(gamma)),
        gamma=gamma,
        start_index=int(s_idx))


# ---------------------------------------------------------------------------
# Vanishing-noise sweep
# ---------------------------------------------------------------------------

@dataclass
class VaradhanSweep:
    y: np.ndarray
    eps_list: list
    log_density: list
    scaled: list            # eps^2 log p_hat
    trusted: list
    extrapolated: float
    d2: float
    gap: float

    def to_json(self):
        return {"y": np.atleast_1d(self.y).tolist(),
                "eps": list(self.eps_list),
                "log_density": self.log_density,
                "eps2_log_density": self.scaled,
                "trusted": self.trusted,
                "extrapolated": self.extrapolated,
                "d2": self.d2, "gap": self.gap}


def _extrapolate_eps(eps: np.ndarray, vals: np.ndarray) -> float:
    """Fit eps^2 log p = L + a eps^2 + b eps^2 log eps on three points and
    return L (the prefactor of a non-degenerate density contributes
    exactly the eps^2 and eps^2 log eps terms)."""
    a = np.column_stack([np.ones(3), eps ** 2, eps ** 2 * np.log(eps)])
    coef = np.linalg.solve(a, vals)
    return float(coef[0])


def varadhan_sweep(y, kernel: CovKernel, vf: VectorFieldSystem, z0,
                   eps_list, n_paths: int, seed: int, d2: float,
                   grid: TimeGrid | None = None,
                   workers: int = 1) -> VaradhanSweep:
    """eps^2 log p_eps(y) at the grid horizon along an eps list, with the
    shared driver realization, the trust floor n p_hat bandwidth >=
    ``TRUST_FLOOR``, and three-point extrapolation to eps = 0 on the
    trusted tail; ``d2`` is the rate d^2(y) the limit is compared with."""
    if grid is None:
        grid = TimeGrid.regular(256, horizon=kernel.horizon)
    y_arr = np.atleast_2d(np.asarray(y, dtype=float))
    eps_arr = list(eps_list)
    terminals = monte_carlo_reduce(kernel, grid, vf, z0, eps_arr, n_paths,
                                   seed, collect="terminal", workers=workers)
    log_p, scaled, trusted = [], [], []
    for eps, term in zip(eps_arr, terminals):
        h = silverman_bandwidth(term)
        p, se = kde_evaluate(term, y_arr, h)
        p_val = float(p[0])
        ok = n_paths * p_val * float(np.prod(h)) >= TRUST_FLOOR
        log_p.append(math.log(p_val) if p_val > 0 else float("-inf"))
        scaled.append(eps * eps * log_p[-1])
        trusted.append(bool(ok))
    usable = [i for i, ok in enumerate(trusted) if ok]
    if len(usable) < 3:
        raise NoiseFloorError(
            "density below the noise floor for too many eps values; "
            "increase n_paths or raise the eps floor")
    last3 = usable[-3:]
    limit = _extrapolate_eps(np.array([eps_arr[i] for i in last3]),
                             np.array([scaled[i] for i in last3]))
    return VaradhanSweep(y=np.atleast_1d(np.asarray(y, dtype=float)),
                         eps_list=eps_arr, log_density=log_p, scaled=scaled,
                         trusted=trusted, extrapolated=limit, d2=d2,
                         gap=limit - (-d2))


# ---------------------------------------------------------------------------
# First variation of the skeleton
# ---------------------------------------------------------------------------

def first_variation_samples(h: CMElement, kernel: CovKernel,
                            vf: VectorFieldSystem, z0, grid: TimeGrid,
                            n_paths: int, seed: int) -> np.ndarray:
    """Samples of the Gaussian first variation
    G_1(h) = J_1(h) sum_i J_{u_i}(h)^{-1} V(Phi_{u_i}(h)) dX_i,
    shape (n_paths, n); mean 0 and covariance the deterministic matrix."""
    w = derivative_kernel(solve_skeleton(h, vf, z0, grid), vf,
                          grid.n_steps)[:-1]
    out = np.empty((n_paths, vf.n))
    chol = cholesky_factor(kernel, grid)
    for off, size in _chunk_ranges(n_paths):
        ens = sample(kernel, grid, d=vf.d, n_paths=size, seed=seed,
                     path_offset=off, chol=chol)
        dx = np.diff(ens.data, axis=2).transpose(0, 2, 1)   # (P, N, d)
        out[off: off + size] = np.einsum("sad,psd->pa", w, dx)
    return out
