"""Monte-Carlo density estimation, tail-form checks, and the small-noise
program: rate-function minimization and the vanishing-noise sweep.

All Monte Carlo flows through counter-based streams, one per aligned
block of `paths.BLOCK_PATHS` paths, so a chunk of paths draws the same
numbers in whichever process runs it, and results are identical for any
chunking/worker layout; reductions run in fixed chunk order.
`worker_count` is the one rule for how many workers a call gets; with
more than one, the chunks of `monte_carlo_reduce` and
`first_variation_samples` run in forked worker processes (serially where
the platform cannot fork).  A chunk enters the flow solver as its level-1
increments (`paths.sample_increments`), written block by block straight
into a time-major buffer that every eps reads without a copy; the solver
forms each step's level 2 itself.  A chunk steps each eps once and keeps
only its collector's value per path, never a stored trajectory.
`varadhan_check` solves the rate function d^2(y) in this process while the
chunks of its sweep run in the workers; the rate function's tangent is
`malliavin`'s increment tangent.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .diagnostics import kappa
from .fields import VectorFieldSystem, ellipticity_scan, NonEllipticError
from .kernels import CovKernel, TimeGrid
from .malliavin import _increment_tangent, derivative_kernel, malliavin_matrix
from .paths import CMElement, cholesky_factor, sample_increments
from .rde import (BlowUpError, CoarseGridError, FlowState, _steps,
                  solve_batch, solve_skeleton)

CHUNK_PATHS = 16384
ENV_WORKERS = "ROUGHDENSITY_WORKERS"
# Half-width, in bandwidths of coordinate 0, of the sample window that
# `kde_evaluate` sums over each point.
KDE_WINDOW = 9.0
# `varadhan_sweep` trusts an eps only where n p_hat prod(h) >= TRUST_FLOOR,
# i.e. where about that many samples fall within a bandwidth of y.
TRUST_FLOOR = 50.0


class NoiseFloorError(RuntimeError):
    """Density at the target fell below the trust floor."""


class TargetUnreachableError(RuntimeError):
    """No start reached y: A A^T (the scheme's Malliavin matrix at eps = 1
    over the grid driver) singular, or no convergence."""


# ---------------------------------------------------------------------------
# Monte-Carlo reductions over chunked ensembles
# ---------------------------------------------------------------------------

def _chunk_ranges(n_paths: int):
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    return [(off, min(CHUNK_PATHS, n_paths - off))
            for off in range(0, n_paths, CHUNK_PATHS)]


def worker_count(workers=None) -> int:
    """``workers`` if given, else ``ROUGHDENSITY_WORKERS`` (an empty value
    counts as unset), else the CPU count; at least 1."""
    if workers is None:
        env = os.environ.get(ENV_WORKERS)
        if not env:
            return os.cpu_count() or 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{ENV_WORKERS} must be an integer, "
                             f"got {env!r}") from None
    return max(1, int(workers))


def _map_chunks(run_chunk, ranges, workers, meanwhile=None) -> list:
    """``run_chunk`` over ``ranges``, results in chunk order; ``meanwhile``
    (if given) is called in this process before the results are collected.

    With more than one worker (by `worker_count`) and chunk, the chunks
    run in ``min(workers, len(ranges))`` forked processes, which inherit
    ``run_chunk`` rather than unpickle it (the fields' callables cannot be
    pickled), and ``meanwhile`` runs while they do.  They run in this
    process instead, after ``meanwhile``, where the platform cannot fork,
    or where this process runs other threads, which makes a fork unsafe.
    Either way an error of ``meanwhile`` comes first (the chunks are ended
    unread), then the first failing chunk in order raises its error, and
    every worker is joined before this returns or raises.
    """
    workers = min(worker_count(workers), len(ranges))
    if workers > 1:
        import multiprocessing
        import threading
        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1):
            return _map_forked(multiprocessing.get_context("fork"),
                               run_chunk, ranges, workers, meanwhile)
    if meanwhile is not None:
        meanwhile()
    return [run_chunk(r) for r in ranges]


def _map_forked(ctx, run_chunk, ranges, workers: int,
                meanwhile=None) -> list:
    """Worker k runs chunks k, k + workers, ... in order (up to the first
    error), then sends their results down its pipe and exits.  Sending at
    the end keeps a worker from blocking on a full pipe while this process
    is still in ``meanwhile``."""
    from multiprocessing.connection import wait

    def serve(conn, first):
        done = []
        for i in range(first, len(ranges), workers):
            try:
                done.append((i, run_chunk(ranges[i])))
            except Exception as err:
                done.append((i, err))
                break
        for item in done:
            conn.send(item)

    done, procs, live = {}, [], []
    try:
        for k in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=serve, args=(send, k), daemon=True)
            proc.start()
            procs.append(proc)
            send.close()
            live.append(recv)
        if meanwhile is not None:
            meanwhile()
        while live:
            for conn in wait(live):
                try:
                    i, value = conn.recv()
                except EOFError:
                    conn.close()
                    live.remove(conn)
                else:
                    done[i] = value
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
    for i in range(len(ranges)):
        if i not in done:
            raise RuntimeError(f"the worker of chunk {i} exited with code "
                               f"{procs[i % workers].exitcode}, no result")
        if isinstance(done[i], Exception):
            raise done[i]
    return [done[i] for i in range(len(ranges))]


def monte_carlo_reduce(kernel: CovKernel, grid: TimeGrid,
                       vf: VectorFieldSystem, z0, eps_list, n_paths: int,
                       seed: int, collect: str = "terminal",
                       t_node=None, workers: int | None = None,
                       meanwhile=None) -> list[np.ndarray]:
    """Sample, lift and solve in fixed chunks; returns one array per eps.

    ``collect`` is ``"terminal"`` (state at ``t_node``, default the
    horizon) or ``"running_sup"`` (sup of |Z - z0| over nodes up to
    ``t_node``).  The same driver realization feeds every eps.  A chunk
    keeps only that value per path and eps while it steps, not the
    trajectory; every step still runs, so a blow-up after ``t_node``
    raises.
    ``meanwhile``, a function of no arguments, is called in this process
    once the chunks have started and before they are collected, so with
    forked workers it runs while they do; if it raises, the chunks are
    ended unread and its error propagates.  ``workers`` is resolved by
    `worker_count` (None: ``ROUGHDENSITY_WORKERS``, else the CPU count);
    1 runs every chunk in this process.
    """
    if collect not in ("terminal", "running_sup"):
        raise ValueError(f"unknown collector {collect!r}")
    ranges = _chunk_ranges(n_paths)
    idx = grid.n_steps if t_node is None else grid.index_of(float(t_node))
    chol = cholesky_factor(kernel, grid)
    z0_arr = np.atleast_1d(np.asarray(z0, dtype=float))

    def reduce_flow(level1, eps):
        # one value per path, kept while stepping; every step still runs,
        # so a blow-up after t_node raises as it would in a stored solve
        flow = _steps(level1, grid, vf, z0_arr, eps, with_jacobian=False)
        if collect == "terminal":
            for k, (z, _) in enumerate(flow):
                if k == idx:
                    kept = z
            return kept
        # sqrt is monotone and correctly rounded, so the sup of the norms
        # is the sqrt of the sup of the squared norms, bit for bit
        sq = np.zeros(level1.shape[0])
        for k, (z, _) in enumerate(flow):
            if k <= idx:
                dz = z - z0_arr
                np.maximum(sq, np.add.reduce(dz * dz, axis=1), out=sq)
        return np.sqrt(sq)

    def run_chunk(off_size):
        off, size = off_size
        # every eps steps the time-major increments as they are
        level1 = sample_increments(kernel, grid, d=vf.d, n_paths=size,
                                   seed=seed, path_offset=off, chol=chol)
        return [reduce_flow(level1, eps) for eps in eps_list]

    results = _map_chunks(run_chunk, ranges, workers, meanwhile)
    return [np.concatenate([r[i] for r in results], axis=0)
            for i in range(len(eps_list))]


# ---------------------------------------------------------------------------
# Kernel density estimation
# ---------------------------------------------------------------------------

# np.percentile and np.median import numpy.ma; these two partition instead
# and give their numbers bit for bit.

def _quantiles(samples: np.ndarray, qs) -> np.ndarray:
    """``np.quantile(samples, qs, axis=0)`` (the ``linear`` method)."""
    pos = (samples.shape[0] - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, samples.shape[0] - 1)
    part = np.partition(samples, np.concatenate([lo, hi]), axis=0)
    a, b = part[lo], part[hi]
    t = (pos - lo).reshape((-1,) + (1,) * (samples.ndim - 1))
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def _median(samples: np.ndarray) -> np.ndarray:
    """``np.median(samples, axis=0)``: (a + b) / 2 of the middle pair, which
    is not always the linear method's b - (b - a) / 2."""
    k = [(samples.shape[0] - 1) // 2, samples.shape[0] // 2]
    part = np.partition(samples, k, axis=0)
    return 0.5 * (part[k[0]] + part[k[1]])


def silverman_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Per-dimension Silverman rule 0.9 min(std, iqr/1.34) n^(-1/(dim+4))."""
    samples = np.atleast_2d(samples.T).T
    n, dim = samples.shape
    sd = samples.std(axis=0, ddof=1)
    q75, q25 = _quantiles(samples, [0.75, 0.25])
    a = np.minimum(sd, (q75 - q25) / 1.34)
    a = np.where(a > 0, a, np.maximum(sd, 1e-12))
    return 0.9 * a * n ** (-1.0 / (dim + 4))


def kde_evaluate(samples: np.ndarray, points: np.ndarray,
                 bandwidth: np.ndarray):
    """Gaussian-product KDE with pointwise standard errors.

    Returns (p_hat, se) over ``points`` (m, dim).  The samples within
    ``KDE_WINDOW`` bandwidths h_0 of the points' span in coordinate 0 are
    sorted once by it; each point sums the full product kernel over the
    samples whose coordinate 0 lies within ``KDE_WINDOW`` h_0 of its own
    (found by bisection).  A skipped sample weighs less than
    exp(-KDE_WINDOW^2 / 2) ~ 2.6e-18 of the kernel's peak.  A point whose
    window holds no sample gets p = se = 0 exactly: no sample came near it,
    which is not a precise estimate of a zero density.
    """
    samples = np.atleast_2d(samples.T).T
    points = np.atleast_2d(points.T).T
    n, dim = samples.shape
    h = np.broadcast_to(np.asarray(bandwidth, dtype=float), (dim,))
    norm = 1.0 / (np.prod(h) * (2 * math.pi) ** (dim / 2))
    reach = KDE_WINDOW * h[0]
    lo_edge = points[:, 0] - reach
    hi_edge = points[:, 0] + reach
    # only the samples some window reaches are sorted
    near = samples[(samples[:, 0] >= lo_edge.min(initial=np.inf))
                   & (samples[:, 0] <= hi_edge.max(initial=-np.inf))]
    srt = near[np.argsort(near[:, 0])]
    lo = np.searchsorted(srt[:, 0], lo_edge, side="left")
    hi = np.searchsorted(srt[:, 0], hi_edge, side="right")
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
                     workers: int | None = None) -> DensityEstimate:
    """Gaussian-kernel density estimate of the flow state at time t;
    ``workers`` as in `monte_carlo_reduce`."""
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
                           workers: int | None = None
                           ) -> TailProbabilityReport:
    """Empirical exceedance of the running sup |Z - z0| against levels,
    fitted on the transformed axis level^(1 + 1/rho) / kappa_tau^2; levels
    at or below the sample median are excluded from the fit window;
    ``workers`` as in `monte_carlo_reduce`."""
    if grid is None:
        grid = TimeGrid.regular(256, horizon=kernel.horizon)
    (sups,) = monte_carlo_reduce(kernel, grid, vf, z0, [eps], n_paths, seed,
                                 collect="running_sup", t_node=tau,
                                 workers=workers)
    levels = np.asarray(levels, dtype=float)
    p_hat = np.array([(sups >= lv).mean() for lv in levels])
    se = np.sqrt(np.maximum(p_hat * (1 - p_hat), 0.0) / n_paths)
    med = _median(sups)
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
SINGULAR_RTOL = 1e-12      # min/max eigenvalue of A A^T below: singular
STEP_RTOL = 1e-10          # converged: |step| <= STEP_RTOL (1 + |u|)


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
                  grid: TimeGrid | None = None, tol: float = 1e-6,
                  n_starts: int = 5, seed: int = 0,
                  elliptic_gate: bool = True) -> RateFunctionResult:
    """Minimize (1/2)|h|^2_H subject to the scheme reaching y: Gauss-Newton
    on the KKT system over every grid increment of the driver, in the
    sampler's coordinates: increments x = D L u with L = `cholesky_factor`
    on ``grid``, energy (1/2)|u|^2.  The constraint map Phi(u) is
    `solve_batch`'s Z_N at eps = 1 driven by x, the map a Monte-Carlo sweep
    on ``grid`` samples, so d2 is its small-noise rate (contraction
    principle).  With the tangent A = K D L (K = J_N `_increment_tangent`
    along every increment direction, exact for the discrete map) each step
    goes to the minimum-norm point of the linearized constraint, u+ =
    A^T (A A^T)^-1 (y - Phi(u) + A u); it needs A A^T, the scheme's
    Malliavin matrix, non-degenerate.  Steps
    backtrack on |Phi - y| (a trial is kept if it lowers it or stays below
    tol/10, and halves its step if the scheme refuses it).  ``n_starts``
    seeded starts iterate as one batch; the feasible minimizer of least
    energy wins (ties: lowest start index).  h_opt sits on t_1 .. t_N with
    coefficients L^-T u, so |h_opt|^2_H = |u|^2."""
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
    N, d = grid.n_steps, vf.d
    chol = cholesky_factor(kernel, grid)
    dl = np.diff(chol, axis=0, prepend=0.0)       # D L: x = dl @ u
    eye = np.broadcast_to(np.eye(d), (N, d, d))   # every increment direction

    def linearize(us):
        x = np.einsum("ij,bjk->bik", dl, us.reshape(-1, N, d))
        flow = solve_batch(x, grid, vf, z0)
        k = flow.J[:, -1:] @ _increment_tangent(flow, vf, x, eye, N)
        a = np.einsum("bink,ij->bnjk", k, dl)
        return flow.Z, flow.J, a.reshape(len(us), vf.n, N * d)

    rng = np.random.Generator(np.random.Philox(key=seed))
    u = 0.1 * rng.standard_normal((n_starts, N * d))
    phi, jac, tangent = linearize(u)
    step = np.ones(n_starts)
    history = [[] for _ in range(n_starts)]
    converged, singular = [], []
    active = np.arange(n_starts)
    for _ in range(MAX_ITERATIONS):
        a, r, u_act = tangent[active], phi[active, -1] - y_arr, u[active]
        a_t = np.swapaxes(a, 1, 2)
        s_mat = a @ a_t
        eig = np.linalg.eigvalsh(s_mat)
        bad = ~(eig[:, 0] > SINGULAR_RTOL * eig[:, -1])
        s_mat[bad] = np.eye(vf.n)
        rhs = (np.einsum("bai,bi->ba", a, u_act) - r)[..., None]
        delta = (a_t @ np.linalg.solve(s_mat, rhs))[..., 0] - u_act
        resid = np.linalg.norm(r, axis=1)
        done = ~bad & (resid <= tol) & (
            np.linalg.norm(delta, axis=1)
            <= STEP_RTOL * (1.0 + np.linalg.norm(u_act, axis=1)))
        singular += list(active[bad])
        converged += list(active[done])
        keep = ~(bad | done)
        active, delta, eig, resid = (active[keep], delta[keep], eig[keep],
                                     resid[keep])
        if active.size == 0:
            break
        trial = u[active] + step[active, None] * delta
        try:
            phi_t, jac_t, tan_t = linearize(trial)
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
        u[hit], phi[hit], jac[hit] = trial[ok], phi_t[ok], jac_t[ok]
        tangent[hit] = tan_t[ok]
        step[active] = np.where(ok, 1.0, 0.5 * step[active])

    if not converged:
        why = ("A A^T is singular" if singular else
               f"no convergence in {MAX_ITERATIONS} iterations")
        raise TargetUnreachableError(f"y={y_arr.tolist()}: {why}")
    energy = 0.5 * np.einsum("bi,bi->b", u, u)
    s_idx = min(converged, key=lambda s: (energy[s], s))
    h_opt = CMElement(kernel, grid.nodes[1:],
                      np.linalg.solve(chol.T, u[s_idx].reshape(N, d)))
    # the winner's last linearization already carries its flow
    flow = FlowState(grid=grid, Z=phi[s_idx], J=jac[s_idx], eps=1.0)
    gamma = malliavin_matrix(flow, vf, kernel, grid.n_steps)
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
                   workers: int | None = None) -> VaradhanSweep:
    """eps^2 log p_eps(y) at the grid horizon along an eps list, with the
    shared driver realization, the trust floor n p_hat bandwidth >=
    ``TRUST_FLOOR``, and three-point extrapolation to eps = 0 on the
    trusted tail; ``d2`` is the rate d^2(y) the limit is compared with;
    ``workers`` as in `monte_carlo_reduce`."""
    if grid is None:
        grid = TimeGrid.regular(256, horizon=kernel.horizon)
    eps_arr = list(eps_list)
    terminals = monte_carlo_reduce(kernel, grid, vf, z0, eps_arr, n_paths,
                                   seed, collect="terminal", workers=workers)
    return _sweep_limit(y, d2, eps_arr, terminals, n_paths)


def varadhan_check(y, kernel: CovKernel, vf: VectorFieldSystem, z0,
                   eps_list, n_paths: int, seed: int,
                   grid: TimeGrid | None = None, workers: int | None = None,
                   tol: float = 1e-6, n_starts: int = 5
                   ) -> tuple[RateFunctionResult, VaradhanSweep]:
    """The small-noise program at one target y: ``(rate, sweep)`` with
    ``rate = rate_function(y, ..., grid=, tol=, n_starts=, seed=)`` and
    ``sweep`` as `varadhan_sweep` gives it with d2 = rate.d2, both on
    ``grid``: d^2(y), a minimum over every grid increment of the driver,
    is the rate of the scheme the sweep samples.

    d^2(y) is solved in this process while the sweep's chunks run (in
    forked workers when ``workers``, as in `monte_carlo_reduce`, comes to
    more than 1).  A rate failure ends the chunks unread, so a failing run
    raises what the serial order rate, then sweep, meets first.
    """
    if grid is None:
        grid = TimeGrid.regular(256, horizon=kernel.horizon)
    eps_arr = list(eps_list)
    rate = []

    def solve_rate():
        rate.append(rate_function(y, kernel, vf, z0, grid=grid, tol=tol,
                                  n_starts=n_starts, seed=seed))

    terminals = monte_carlo_reduce(kernel, grid, vf, z0, eps_arr, n_paths,
                                   seed, collect="terminal", workers=workers,
                                   meanwhile=solve_rate)
    return rate[0], _sweep_limit(y, rate[0].d2, eps_arr, terminals, n_paths)


def _sweep_limit(y, d2: float, eps_arr: list, terminals: list,
                 n_paths: int) -> VaradhanSweep:
    """The `VaradhanSweep` of target y from the terminal samples of each
    eps: KDE at y, trust floor and extrapolation to eps = 0."""
    y_arr = np.atleast_2d(np.asarray(y, dtype=float))
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
    shape (n_paths, n); mean 0 and covariance the deterministic matrix.
    Phi(h) and J(h) are the skeleton, `solve_batch` at eps = 1 driven by
    h's grid increments, so a grid too coarse for h raises
    `CoarseGridError`.  The chunks run on ``worker_count()`` workers."""
    ranges = _chunk_ranges(n_paths)
    w = derivative_kernel(solve_skeleton(h, vf, z0, grid), vf,
                          grid.n_steps)[:-1]
    chol = cholesky_factor(kernel, grid)

    def run_chunk(off_size):
        off, size = off_size
        return np.einsum("sad,psd->pa", w, sample_increments(
            kernel, grid, d=vf.d, n_paths=size, seed=seed, path_offset=off,
            chol=chol))

    return np.concatenate(_map_chunks(run_chunk, ranges, None), axis=0)
