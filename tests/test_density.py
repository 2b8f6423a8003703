import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

import roughdensity.density as dens
from roughdensity.density import (
    DensityEstimate,
    NoiseFloorError,
    TargetUnreachableError,
    estimate_density,
    first_variation_samples,
    kde_evaluate,
    monte_carlo_reduce,
    rate_function,
    silverman_bandwidth,
    tail_fit,
    tail_probability_check,
    varadhan_check,
    varadhan_sweep,
)
from roughdensity.fields import (
    NonEllipticError,
    VectorFieldSystem,
    bounded_nonlinear_field,
    degenerate_diag_field,
    identity_field,
    rotation_mix_field,
    scalar_linear_field,
)
from roughdensity.kernels import FractionalBrownian, TimeGrid, brownian
from roughdensity.malliavin import (_increment_tangent,
                                   deterministic_malliavin_matrix)
from roughdensity.paths import CMElement
from roughdensity.rde import solve_batch

from _flow_oracle import stored_reduce, term_by_term_directional_derivative
from _kde_oracle import all_pairs_kde
from _rate_oracle import (node_rate_function, penalty_rate_function,
                          scheme_terminal, skeleton_terminal)


def gaussian_density(y, mean, var):
    return np.exp(-0.5 * (y - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)


@pytest.fixture(scope="module")
def brownian_additive_estimate():
    return estimate_density(brownian(), identity_field(1), [0.0], t=1.0,
                            eps=1.0, n_paths=100_000, seed=5,
                            grid=TimeGrid.regular(128))


def kde_oracle_se(p_true, n, h):
    # asymptotic KDE sampling error sqrt(p R(K) / (n h)), R(K) = 1/(2 sqrt(pi))
    return np.sqrt(p_true / (2 * math.sqrt(math.pi) * n * h))


def test_additive_density_matches_gaussian(brownian_additive_estimate):
    est = brownian_additive_estimate
    y = est.y_grid
    p_true = gaussian_density(y, 0.0, 1.0)
    h = est.bandwidth[0]
    # KDE bias = h^2 p'' / 2 for the Gaussian target
    p2 = p_true * ((y ** 2) - 1.0)
    tol = 3 * (np.abs(0.5 * h * h * p2)
               + 3 * kde_oracle_se(p_true, est.n_paths, h))
    assert np.all(np.abs(est.p - p_true) <= tol + 1e-6)
    assert 0.95 <= est.normalization <= 1.0 + 1e-9


def test_geometric_density_matches_lognormal():
    est = estimate_density(brownian(), scalar_linear_field(1.0), [1.0],
                           t=1.0, eps=1.0, n_paths=100_000, seed=7,
                           grid=TimeGrid.regular(256))
    y = est.y_grid
    mask = y > 0.05
    ly = np.log(y[mask])
    p_true = np.exp(-0.5 * ly ** 2) / (y[mask] * np.sqrt(2 * np.pi))
    h = est.bandwidth[0]
    # curvature bound via finite differences of the target itself
    dy = y[1] - y[0]
    p_full = np.zeros_like(y)
    p_full[mask] = p_true
    p2 = np.gradient(np.gradient(p_full, dy), dy)
    tol = 3 * (np.abs(0.5 * h * h * p2[mask])
               + 3 * kde_oracle_se(p_true, est.n_paths, h))
    # scheme bias allowance at N=256 on top of the KDE terms
    assert np.all(np.abs(est.p[mask] - p_true) <= tol + 4e-3)
    assert 0.95 <= est.normalization <= 1.0 + 1e-9


def test_density_deterministic_across_workers():
    outs = []
    for workers in (1, 4, 16):
        est = estimate_density(brownian(), identity_field(1), [0.0], t=1.0,
                               eps=1.0, n_paths=40_000, seed=11,
                               grid=TimeGrid.regular(64), workers=workers)
        outs.append((est.p.copy(), est.se.copy(), est.bandwidth.copy()))
    for p, se, h in outs[1:]:
        assert np.array_equal(p, outs[0][0])
        assert np.array_equal(se, outs[0][1])
        assert np.array_equal(h, outs[0][2])


def test_bandwidth_validation():
    with pytest.raises(ValueError):
        estimate_density(brownian(), identity_field(1), [0.0], t=1.0,
                         eps=1.0, n_paths=100, seed=0,
                         grid=TimeGrid.regular(16), bandwidth=[-1.0])


def test_tail_fit_brownian_slope_half(brownian_additive_estimate):
    # kappa_1^2 = 1 for Brownian: -log p = u/2 + const on the u-axis
    fit = tail_fit(brownian_additive_estimate, [0.0], rho=1.0, kappa_t=1.0)
    assert fit.passed
    assert fit.r2 >= 0.99
    assert fit.slope == pytest.approx(0.5, rel=0.05)
    assert fit.c2_hat == pytest.approx(2.0, rel=0.06)


def test_tail_fit_flat_density_is_negative_control():
    y = np.linspace(-1, 1, 101)
    est = DensityEstimate(y_grid=y, p=np.full(101, 0.5),
                          se=np.full(101, 1e-4), bandwidth=np.array([0.1]),
                          n_paths=1000, t=1.0, normalization=1.0)
    fit = tail_fit(est, [0.0], rho=1.0, kappa_t=1.0)
    assert not fit.passed
    assert abs(fit.slope) < 1e-8


def test_tail_fit_empty_window_errors():
    y = np.linspace(-1, 1, 11)
    est = DensityEstimate(y_grid=y, p=np.full(11, 1e-8),
                          se=np.full(11, 1.0), bandwidth=np.array([0.1]),
                          n_paths=10, t=1.0, normalization=1.0)
    with pytest.raises(NoiseFloorError):
        tail_fit(est, [0.0], rho=1.0, kappa_t=1.0)


def quantile_samples():
    rng = np.random.default_rng(59)
    for n in [*range(2, 65), 65536]:
        yield rng.standard_normal(n)                   # mixed signs
        yield rng.integers(0, 4, n).astype(float)      # tie-heavy
        yield rng.standard_normal((n, 2))              # two columns


def test_quantile_helpers_match_numpy():
    # the helpers partition instead of sorting through np.percentile and
    # np.median (which import numpy.ma) and give their numbers bit for bit;
    # on mixed-sign samples the two numpy forms of a midpoint differ
    qs = [0.0, 0.25, 0.5, 0.75, 1.0]
    for x in quantile_samples():
        got, want = dens._quantiles(x, qs), np.quantile(x, qs, axis=0)
        assert got.shape == want.shape and np.array_equal(got, want)
        got, want = dens._median(x), np.median(x, axis=0)
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


def test_tail_fit_window_excludes_underflowed_se():
    # Outside the support of tanh(N(0, 1)) every all-pairs kernel weight
    # squares to zero, so se underflows to 0 while p is still subnormal or
    # tiny; the windowed KDE returns p = 0 at most of those points.
    x = np.tanh(np.random.default_rng(1).standard_normal(200_000))
    h = silverman_bandwidth(x)
    y = np.linspace(x.mean() - 6 * x.std(), x.mean() + 6 * x.std(), 512)
    p, se = all_pairs_kde(x, y, h)
    underflowed = (se == 0) & (p > 0)
    assert underflowed.sum() == 76
    est = DensityEstimate(y_grid=y, p=p, se=se, bandwidth=h,
                          n_paths=x.size, t=1.0, normalization=1.0)
    fit = tail_fit(est, [0.0], rho=1.0, kappa_t=1.0)
    assert fit.n_window == ((p > 10 * se) & (p > 0)).sum() - 76
    # The windowed KDE drops the pure kernel-tail points beyond the data.
    p, se = kde_evaluate(x, y, h)
    est = DensityEstimate(y_grid=y, p=p, se=se, bandwidth=h,
                          n_paths=x.size, t=1.0, normalization=1.0)
    assert tail_fit(est, [0.0], rho=1.0, kappa_t=1.0).n_window == 196


def _zero_field():
    z = lambda x: np.zeros_like(x)
    zmat = lambda x, *s: np.zeros(x.shape[:-1] + s)
    return VectorFieldSystem(
        name="zero", n=1, d=1, v0=z,
        v=lambda x: zmat(x, 1, 1), dv0=lambda x: zmat(x, 1, 1),
        dv=lambda x: zmat(x, 1, 1, 1), d2v0=lambda x: zmat(x, 1, 1, 1),
        d2v=lambda x: zmat(x, 1, 1, 1, 1), elliptic_lambda=0.0)


def test_tail_probability_zero_field_all_zero():
    rep = tail_probability_check(brownian(), _zero_field(), [0.0], tau=1.0,
                                 eps=1.0, n_paths=500, seed=3,
                                 levels=[0.1, 0.5, 1.0],
                                 grid=TimeGrid.regular(32))
    assert np.all(rep.exceedance == 0.0)
    assert rep.fit is None


def _two_sided_sup_prob(a, t):
    """P(sup_{s<=t} |B_s| >= a) by the reflection image series."""
    total = 0.0
    for k in range(-40, 41):
        total += (-1) ** k * (norm.cdf(((2 * k + 1) * a) / math.sqrt(t))
                              - norm.cdf(((2 * k - 1) * a) / math.sqrt(t)))
    return 1.0 - total


def test_tail_probability_brownian_reflection():
    n_grid, n_paths = 512, 100_000
    rep = tail_probability_check(brownian(), identity_field(1), [0.0],
                                 tau=1.0, eps=1.0, n_paths=n_paths, seed=13,
                                 levels=[0.8, 1.0, 1.3, 1.6, 2.0, 2.4],
                                 grid=TimeGrid.regular(n_grid))
    beta = 0.5826  # discrete-monitoring continuity correction
    for lv, p_hat, se in zip(rep.levels, rep.exceedance, rep.se):
        want = _two_sided_sup_prob(lv + beta / math.sqrt(n_grid), 1.0)
        assert p_hat == pytest.approx(want, abs=5 * se + 0.004)
    assert rep.fit.passed


def test_rate_function_trivial_target():
    res = rate_function([0.5], FractionalBrownian(0.4), identity_field(1),
                        [0.5], TimeGrid.regular(64), seed=3, n_starts=2)
    assert res.d2 == pytest.approx(0.0, abs=1e-8)
    assert res.residual <= 1e-6
    assert res.det_gamma > 0


def test_rate_function_additive_closed_form():
    res = rate_function([1.5], FractionalBrownian(0.4), identity_field(1),
                        [0.5], TimeGrid.regular(64), seed=1, n_starts=2)
    assert res.d2 == pytest.approx(0.5, abs=1e-3)
    assert res.residual <= 1e-6
    assert res.det_gamma > 0


def test_varadhan_check_rejects_non_elliptic_before_any_chunk(monkeypatch):
    # the field gate runs before the driver is sampled or a worker forked;
    # rate_function itself checks no certificate, and on this field its
    # A A^T is singular
    def no_chunk(*args, **kwargs):
        raise AssertionError("a chunk was sampled or forked")

    monkeypatch.setattr(dens, "sample_increments", no_chunk)
    monkeypatch.setattr(dens, "_map_forked", no_chunk)
    kernel, vf = brownian(), degenerate_diag_field()
    grid = TimeGrid.regular(16)
    with pytest.raises(NonEllipticError):
        varadhan_check([[1.0, 1.0]], kernel, vf, [0.0, 0.0],
                       eps_list=[0.5, 0.35, 0.25], n_paths=40_000, seed=0,
                       grid=grid, workers=2)
    assert multiprocessing.active_children() == []
    with pytest.raises(TargetUnreachableError, match="A A\\^T is singular"):
        rate_function([1.0, 1.0], kernel, vf, [0.0, 0.0], grid, seed=0)


def test_rate_function_unreachable_target():
    # From z0 = 0 the linear field keeps the skeleton at 0 for every h, so
    # A A^T vanishes and no step towards y = 1 exists.
    with pytest.raises(TargetUnreachableError):
        rate_function([1.0], brownian(), scalar_linear_field(1.0), [0.0],
                      TimeGrid.regular(64), seed=0)


def test_rate_function_matches_penalty_oracle():
    # both oracles minimize over the same constraint map, the scheme, and
    # the same subspace, span{R(s_i, .)} on 4 nodes
    kernel, vf = FractionalBrownian(0.4), bounded_nonlinear_field()
    want = penalty_rate_function([1.0], kernel, vf, [0.0], scheme_terminal,
                                 m_nodes=4, n_starts=1, seed=0)
    assert want is not None
    res = node_rate_function([1.0], kernel, vf, [0.0], m_nodes=4,
                             n_starts=1, seed=0)
    assert res.d2 == pytest.approx(want[0], abs=1e-6)
    assert res.residual <= 1e-12
    assert res.accepted


@pytest.mark.parametrize("n", [64, 128, 256])
def test_scheme_rate_converges_to_closed_form(n):
    # geometric Brownian target e^c: d2 = c^2 / 2 in the continuum, and the
    # scheme's rate approaches it as n^-2
    c = 0.8
    res = rate_function([math.exp(c)], brownian(), scalar_linear_field(1.0),
                        [1.0], grid=TimeGrid.regular(n), seed=31)
    assert abs(res.d2 - c * c / 2) <= 0.1 / n ** 2


def test_scheme_rate_matches_skeleton_oracle():
    # the RK4 skeleton accurately solves the ODE that the scheme
    # discretizes (both driven by h's piecewise-linear grid interpolation);
    # its rate, by the penalty oracle, is the limit the scheme's rate
    # approaches as n^-2, on the same 4-node subspace
    kernel, vf, n = FractionalBrownian(0.4), bounded_nonlinear_field(), 64
    want = penalty_rate_function([1.0], kernel, vf, [0.0], skeleton_terminal,
                                 grid=TimeGrid.regular(n), m_nodes=4,
                                 n_starts=1, seed=0)
    assert want is not None
    res = node_rate_function([1.0], kernel, vf, [0.0],
                             grid=TimeGrid.regular(n), m_nodes=4, n_starts=1,
                             seed=0)
    assert abs(res.d2 - want[0]) <= 0.1 / n ** 2


@pytest.mark.parametrize("vf, y, z0", [
    (bounded_nonlinear_field(), [1.0], [0.1]),
    (rotation_mix_field(), [0.5, 0.3], [0.2, -0.1]),
], ids=["bounded_nonlinear", "rotation_mix"])
def test_rate_gamma_is_the_deterministic_matrix(vf, y, z0):
    # d2's gamma is the Malliavin matrix of the scheme at its minimizer,
    # and the skeleton is that scheme at eps = 1: one object
    kernel, grid = FractionalBrownian(0.4), TimeGrid.regular(64)
    res = rate_function(y, kernel, vf, z0, grid=grid, seed=3)
    got = deterministic_malliavin_matrix(res.h_opt, vf, z0, kernel, grid)
    assert np.abs(got - res.gamma).max() <= 1e-13 * np.abs(res.gamma).max()


@pytest.mark.parametrize("vf, y", [
    (bounded_nonlinear_field(), [1.0]),
    (rotation_mix_field(), [0.5, 0.3]),
], ids=["bounded_nonlinear", "rotation_mix"])
def test_rate_function_matches_node_oracle(vf, y):
    # at m = N nodes the oracle's span reaches every grid driver, so both
    # solve one problem; at fewer nodes the oracle minimizes over a
    # subspace, and the rate over every increment is never above it
    kernel, grid = FractionalBrownian(0.4), TimeGrid.regular(64)
    z0 = [0.0] * vf.n
    res = rate_function(y, kernel, vf, z0, grid=grid, seed=3)
    want = node_rate_function(y, kernel, vf, z0, grid=grid, m_nodes=64,
                              seed=3)
    assert abs(res.d2 - want.d2) <= 1e-12 * want.d2
    for m in (4, 8, 16):
        coarse = node_rate_function(y, kernel, vf, z0, grid=grid, m_nodes=m,
                                    seed=3)
        assert res.d2 <= coarse.d2 * (1 + 1e-12)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("vf, z0", [
    (bounded_nonlinear_field(), [0.1]),
    (rotation_mix_field(), [0.2, -0.1]),
], ids=["bounded_nonlinear", "rotation_mix"])
def test_increment_tangent_matches_directional_derivative(vf, z0, n):
    # the rate function's per-increment tangent, paired with a direction's
    # increments h^1, is the term-by-term directional derivative along it
    grid = TimeGrid.regular(n)
    rng = np.random.default_rng(41)
    level1 = rng.standard_normal((3, n, vf.d)) / math.sqrt(n)
    h1 = rng.standard_normal((3, n, vf.d)) / math.sqrt(n)
    shift = np.concatenate([np.zeros((3, 1, vf.d)), h1.cumsum(axis=1)],
                           axis=1)
    flow = solve_batch(level1, grid, vf, z0)
    eye = np.broadcast_to(np.eye(vf.d), (n, vf.d, vf.d))
    tangent = flow.J[:, -1:] @ _increment_tangent(flow, vf, level1, eye, n)
    got = np.einsum("bink,bik->bn", tangent, h1)
    want = term_by_term_directional_derivative(flow, vf, level1, shift, n)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_rate_function_reports_iterations():
    res = rate_function([1.0], FractionalBrownian(0.4),
                        bounded_nonlinear_field(), [0.0], TimeGrid.regular(64),
                        n_starts=3, seed=2)
    steps = res.iterations
    assert len(steps) >= 2
    assert steps[-1]["residual"] == res.residual
    assert all(0 < s["step"] <= 1 and s["min_eig"] > 0 for s in steps)
    doc = res.to_json()
    assert doc["n_iterations"] == len(steps)
    assert doc["iterations"] == steps


def test_varadhan_sweep_additive_matches_exact_curve():
    y0, y = 0.0, 0.6
    sweep = varadhan_sweep([y], brownian(), identity_field(1), [y0],
                           eps_list=[0.5, 0.35, 0.25], n_paths=60_000,
                           seed=17, d2=y * y / 2.0,
                           grid=TimeGrid.regular(128))
    for eps, scaled, ok in zip(sweep.eps_list, sweep.scaled, sweep.trusted):
        assert ok
        exact = -y * y / 2.0 - eps * eps * math.log(
            math.sqrt(2 * math.pi) * eps)
        assert scaled == pytest.approx(exact, abs=0.02)
    assert sweep.extrapolated == pytest.approx(-y * y / 2.0, abs=0.05)
    assert abs(sweep.gap) <= 0.05
    # raw log-density is non-increasing as eps decreases (y != z0)
    assert sweep.log_density[0] >= sweep.log_density[1] >= sweep.log_density[2]


def test_varadhan_sweep_trivial_target_curve_near_zero():
    sweep = varadhan_sweep([0.0], brownian(), identity_field(1), [0.0],
                           eps_list=[0.5, 0.35, 0.25], n_paths=20_000,
                           seed=19, d2=0.0, grid=TimeGrid.regular(64))
    assert all(sweep.trusted)
    assert abs(sweep.extrapolated) <= 0.05


def test_varadhan_sweep_noise_floor_error():
    with pytest.raises(NoiseFloorError):
        varadhan_sweep([3.0], brownian(), identity_field(1), [0.0],
                       eps_list=[0.2, 0.15, 0.1], n_paths=2_000, seed=23,
                       d2=4.5, grid=TimeGrid.regular(64))


def test_first_variation_additive_is_terminal_value():
    k = brownian()
    grid = TimeGrid.regular(64)
    h = CMElement(k, [0.5], [0.0])
    g = first_variation_samples(h, k, identity_field(1), [0.3], grid,
                                n_paths=200, seed=29)
    from roughdensity.paths import sample

    ens = sample(k, grid, d=1, n_paths=200, seed=29)
    np.testing.assert_allclose(g[:, 0], ens.data[:, 0, -1], atol=1e-12)


def test_first_variation_covariance_matches_deterministic_matrix():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(64)
    vf = bounded_nonlinear_field()
    h = CMElement(k, [0.4, 0.9], [0.7, -0.3])
    n = 20_000
    g = first_variation_samples(h, k, vf, [0.1], grid, n_paths=n, seed=31)
    gamma = deterministic_malliavin_matrix(h, vf, [0.1], k, grid)
    want = gamma[0, 0]
    se_mean = g[:, 0].std() / math.sqrt(n)
    assert abs(g[:, 0].mean()) <= 3 * se_mean
    var = g[:, 0].var()
    se_var = var * math.sqrt(2.0 / (n - 1))
    assert abs(var - want) <= 5 * se_var


def test_kde_matches_direct_formula():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(500)
    h = silverman_bandwidth(samples[:, None])
    pts = np.array([0.0, 0.7])
    p, se = kde_evaluate(samples[:, None], pts[:, None], h)
    direct = np.array([
        np.mean(np.exp(-0.5 * ((x - samples) / h[0]) ** 2))
        / (h[0] * math.sqrt(2 * math.pi)) for x in pts])
    np.testing.assert_allclose(p, direct, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_kde_matches_all_pairs_oracle(dim):
    rng = np.random.default_rng(41)
    # Coordinate 1 is narrower, so its bandwidth is smaller than h_0.
    mix = np.array([[1.0, 0.0], [0.18, 0.24]])[:dim, :dim]
    samples = np.sinh(rng.standard_normal((50_000, dim)) @ mix.T)
    h = silverman_bandwidth(samples)
    lo, hi = samples.min(axis=0) - 1.0, samples.max(axis=0) + 1.0
    axes = [np.linspace(lo[c], hi[c], 400 if dim == 1 else 30)
            for c in range(dim)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    p, se = kde_evaluate(samples, points, h)
    p_all, se_all = all_pairs_kde(samples, points, h)
    # In dim 2 a point near 1e-8 can owe a 1e-13 share of p to samples
    # beyond the window in coordinate 0; the bound below covers it.
    sure = p_all > (1e-8 if dim == 1 else 1e-6)
    assert sure.sum() > 100 and (~sure).sum() > 10
    assert np.all(np.abs(p - p_all)[sure] <= 1e-14 * p_all[sure])
    assert np.all(np.abs(se - se_all)[sure] <= 1e-14 * se_all[sure])
    # Elsewhere only samples of weight < exp(-9^2 / 2) of the peak are left
    # out of the mean.
    peak = 1.0 / (np.prod(h) * (2 * math.pi) ** (dim / 2))
    assert np.all(np.abs(p - p_all) <= 1e-14 * p_all
                  + peak * math.exp(-0.5 * dens.KDE_WINDOW ** 2))
    # A point alone sorts only the samples its window reaches, and sums
    # the same window in the same order as within the grid.
    for k in np.flatnonzero(sure)[::97]:
        p_k, se_k = kde_evaluate(samples, points[k:k + 1], h)
        assert p_k[0] == p[k] and se_k[0] == se[k]


def test_kde_empty_window_is_exact_zero():
    samples = np.random.default_rng(43).uniform(0.0, 1.0, (2_000, 2))
    h = np.array([0.01, 0.01])
    reach = dens.KDE_WINDOW * h[0]
    points = np.array([[1.0 + 1.05 * reach, 0.5], [-1.05 * reach, 0.5],
                       [1.0 + 0.95 * reach, 0.5], [0.5, 5.0]])
    p, se = kde_evaluate(samples, points, h)
    p_all, _ = all_pairs_kde(samples, points, h)
    assert np.all(p_all[:3] > 0)
    assert p[0] == 0.0 and se[0] == 0.0
    assert p[1] == 0.0 and se[1] == 0.0
    assert p[2] > 0.0
    # Only coordinate 0 opens the window; the last point's window is full
    # but every product-kernel weight underflows, as in the oracle.
    assert p[3] == 0.0 == p_all[3]


def test_monte_carlo_reduce_chunking_invariant(monkeypatch):
    """One 7,777-path chunk in this process, or five 1,000-path chunks on
    1, 2 or 3 workers: the same numbers for either collector, and no
    worker left behind."""
    forked, map_forked = [], dens._map_forked

    def counted(ctx, run_chunk, ranges, workers):
        forked.append(workers)
        return map_forked(ctx, run_chunk, ranges, workers)

    monkeypatch.setattr(dens, "_map_forked", counted)

    def reduce(chunk, workers, collect):
        monkeypatch.setattr(dens, "CHUNK_PATHS", chunk)
        (out,) = monte_carlo_reduce(
            brownian(), TimeGrid.regular(32), identity_field(1), [0.0],
            [1.0], 5000, seed=37, collect=collect, workers=workers)
        return out

    for collect in ("terminal", "running_sup"):
        want = reduce(7777, 1, collect)
        for workers in (1, 2, 3):
            assert np.array_equal(reduce(1000, workers, collect), want)
            assert multiprocessing.active_children() == []
    assert forked == [2, 3, 2, 3]


@pytest.mark.parametrize("t_node", [0.5, None], ids=["interior", "horizon"])
@pytest.mark.parametrize("collect", ["terminal", "running_sup"])
@pytest.mark.parametrize("vf, z0", [
    (identity_field(1), [0.0]),
    (bounded_nonlinear_field(), [0.1]),
    (rotation_mix_field(), [0.1, -0.2]),
], ids=["identity", "bounded_nonlinear", "rotation_mix"])
def test_streamed_reduce_matches_stored_trajectory(monkeypatch, vf, z0,
                                                   collect, t_node):
    """Each chunk keeps one value per path while it steps; the oracle
    stores every eps's trajectory and reads it afterwards.  Bit for bit on
    1 and 2 workers, with 100-path chunks that split a 64-path block."""
    kernel, grid = FractionalBrownian(0.4), TimeGrid.regular(64)
    want = stored_reduce(kernel, grid, vf, z0, [0.25, 0.5], 300, seed=23,
                         collect=collect, t_node=t_node)
    monkeypatch.setattr(dens, "CHUNK_PATHS", 100)
    for workers in (1, 2):
        got = monte_carlo_reduce(kernel, grid, vf, z0, [0.25, 0.5], 300,
                                 seed=23, collect=collect, t_node=t_node,
                                 workers=workers)
        assert len(got) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("collect", ["terminal", "running_sup"])
def test_chunk_memory_stays_near_the_increments_buffer(collect):
    """One 16,384-path chunk at n = 64 and three eps keeps no trajectory:
    its traced peak stays within 1.5x the (N, P, d) increments buffer
    (a stored trajectory per eps alone would add another 1x)."""
    n_paths, grid = 16384, TimeGrid.regular(64)
    buffer = grid.n_steps * n_paths * 1 * 8
    tracemalloc.start()
    try:
        monte_carlo_reduce(brownian(), grid, identity_field(1), [0.0],
                           [0.25, 0.5, 1.0], n_paths, seed=3,
                           collect=collect, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * buffer, peak / buffer


def test_first_variation_samples_fork_on_the_worker_rule(monkeypatch):
    """Five 1,000-path chunks fork on ROUGHDENSITY_WORKERS=2 and run here
    on 1, with the same numbers either way."""
    forked, map_forked = [], dens._map_forked

    def counted(ctx, run_chunk, ranges, workers):
        forked.append(workers)
        return map_forked(ctx, run_chunk, ranges, workers)

    monkeypatch.setattr(dens, "_map_forked", counted)
    monkeypatch.setattr(dens, "CHUNK_PATHS", 1000)
    k = FractionalBrownian(0.4)
    h = CMElement(k, [0.4, 0.9], [0.7, -0.3])
    outs = []
    for env in ("1", "2"):
        monkeypatch.setenv("ROUGHDENSITY_WORKERS", env)
        outs.append(first_variation_samples(
            h, k, bounded_nonlinear_field(), [0.1], TimeGrid.regular(32),
            n_paths=5000, seed=31))
        assert forked == ([] if env == "1" else [2])
        assert multiprocessing.active_children() == []
    assert outs[0].shape == (5000, 1)
    assert np.array_equal(outs[0], outs[1])


def test_worker_count_rule(monkeypatch):
    monkeypatch.setenv("ROUGHDENSITY_WORKERS", "3")
    assert dens.worker_count(0) == 1
    assert dens.worker_count(2) == 2
    assert dens.worker_count() == 3
    monkeypatch.setenv("ROUGHDENSITY_WORKERS", "")
    if hasattr(os, "sched_getaffinity"):
        assert dens.worker_count() == len(os.sched_getaffinity(0))
    # the CPUs this process may run on, not the host's CPU count; the
    # latter where the platform cannot tell
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert dens.worker_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert dens.worker_count() == max(1, os.cpu_count() or 1)
    monkeypatch.setenv("ROUGHDENSITY_WORKERS", "two")
    with pytest.raises(ValueError, match="ROUGHDENSITY_WORKERS"):
        dens.worker_count()


def test_unknown_collector_fails_before_any_chunk(monkeypatch):
    def no_sample(*args, **kwargs):
        raise AssertionError("a chunk was sampled")

    monkeypatch.setattr(dens, "sample_increments", no_sample)
    monkeypatch.setattr(dens, "CHUNK_PATHS", 50)
    with pytest.raises(ValueError, match="unknown collector 'median'"):
        monte_carlo_reduce(brownian(), TimeGrid.regular(32),
                           identity_field(1), [0.0], [1.0], 100, seed=1,
                           collect="median", workers=2)


@pytest.mark.parametrize("n_paths", [0, -5])
@pytest.mark.parametrize("entry", ["monte_carlo_reduce", "estimate_density",
                                   "first_variation_samples"])
def test_no_paths_fails_before_any_chunk(monkeypatch, entry, n_paths):
    def no_chunk(*args, **kwargs):
        raise AssertionError("a chunk was sampled or forked")

    monkeypatch.setattr(dens, "sample_increments", no_chunk)
    monkeypatch.setattr(dens, "_map_forked", no_chunk)
    kernel, vf, grid = brownian(), identity_field(1), TimeGrid.regular(16)
    calls = {
        "monte_carlo_reduce": lambda: monte_carlo_reduce(
            kernel, grid, vf, [0.0], [1.0], n_paths, seed=1, workers=2),
        "estimate_density": lambda: estimate_density(
            kernel, vf, [0.0], t=1.0, eps=1.0, n_paths=n_paths, seed=1,
            grid=grid, workers=2),
        "first_variation_samples": lambda: first_variation_samples(
            CMElement(kernel, [1.0], [0.5]), kernel, vf, [0.0], grid,
            n_paths, seed=1)}
    with pytest.raises(ValueError, match="n_paths must be >= 1"):
        calls[entry]()


WORKER_BLOW_UP_SCRIPT = """
import json, multiprocessing
from roughdensity.density import monte_carlo_reduce
from roughdensity.fields import linear_drift_field
from roughdensity.kernels import FractionalBrownian, TimeGrid
from roughdensity.rde import BlowUpError
out = []
for workers in (1, 2):
    try:
        monte_carlo_reduce(FractionalBrownian(0.4), TimeGrid.regular(64),
                           linear_drift_field(rate=1e4), [1.0], [0.5],
                           40_000, seed=1, workers=workers)
    except BlowUpError as err:
        out.append([type(err).__name__, err.last_valid_step,
                    len(multiprocessing.active_children())])
print(json.dumps(out))
"""


def test_worker_blow_up_reaches_the_caller():
    """A BlowUpError raised in a forked worker arrives whole (type and last
    valid step, as in one process) and ends the pool; run in a subprocess
    with a timeout, so a pool that hangs on it fails here."""
    proc = subprocess.run([sys.executable, "-c", WORKER_BLOW_UP_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    serial, forked = json.loads(proc.stdout)
    assert serial == forked == ["BlowUpError", 1, 0]
