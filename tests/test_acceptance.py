"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them).
"""

import json
import math
import time

import numpy as np
import pytest

from roughdensity.density import (
    estimate_density,
    first_variation_samples,
    rate_function,
    tail_fit,
    varadhan_sweep,
)
from roughdensity.diagnostics import check_hypotheses, eta, kappa, mixed_variation
from roughdensity.fields import (
    bounded_nonlinear_field,
    identity_field,
    scalar_linear_field,
)
from roughdensity.kernels import (
    BiFractionalBrownian,
    FourierKernel,
    FractionalBrownian,
    FractionalOU,
    SumFractionalBrownian,
    TimeGrid,
    brownian,
    kernel_from_spec,
)
from roughdensity.lift import lift, lift_ensemble, refine_linear
from roughdensity.malliavin import (
    deterministic_malliavin_matrix,
    directional_derivative,
    interpolation_audit,
    malliavin_matrix,
)
from roughdensity.paths import CMElement, cm_eval, cm_norm_sq, sample
from roughdensity.rde import solve, solve_batch
from roughdensity.runner import run as run_experiment


def report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def full_catalog():
    return [
        FractionalBrownian(0.4),
        brownian(),
        BiFractionalBrownian(0.45, 0.9),
        SumFractionalBrownian(0.4, 0.5),
        kernel_from_spec({"family": "stationary",
                          "F": {"kind": "power", "c": 1.0, "p": 0.8},
                          "T": 1.0, "rho": 1.25}),
        FourierKernel(rho=1.25, k_max=512),
        FractionalOU(0.4, 1.0),
    ]


def test_criterion_01_hypothesis_gates():
    grid = TimeGrid.regular(128)
    lines = []
    for h_param in (0.35, 0.4, 0.45, 0.5):
        t0 = time.time()
        rep = check_hypotheses(FractionalBrownian(h_param), grid)
        elapsed = time.time() - t0
        assert elapsed < 30.0
        assert rep.negative_correlation.passed
        assert rep.diagonal_dominance.passed
        assert rep.c_X_estimate > 0
        assert abs(rep.alpha_estimate - 2 * h_param) <= 0.15
        lines.append(f"H={h_param}: alpha={rep.alpha_estimate:.3f} "
                     f"c_X={rep.c_X_estimate:.3f} ({elapsed:.1f}s)")
    t0 = time.time()
    bad = check_hypotheses(FractionalBrownian(0.7, horizon=2.0),
                           TimeGrid.regular(64, horizon=2.0))
    assert time.time() - t0 < 30.0
    assert not bad.negative_correlation.passed
    want = 0.5 * (2.0 ** 1.4 - 2.0)
    assert bad.negative_correlation.worst == pytest.approx(want, rel=1e-10)
    assert bad.negative_correlation.witness == pytest.approx((0.0, 1.0, 1.0, 2.0))
    report(1, "; ".join(lines) + f"; fbm(0.7) fails with witness value "
           f"{bad.negative_correlation.worst:.6f}")


def test_criterion_02_brownian_closed_forms():
    k = brownian()
    grid = TimeGrid.regular(512)
    for t in (0.25, 0.5, 1.0):
        v = mixed_variation(k, (0, t, 0, t), 1.0, 1.0, grid)
        assert v == pytest.approx(t, abs=1e-6)
        assert eta(k, t, grid) == pytest.approx(1.0, abs=1e-6)
    bi = BiFractionalBrownian(0.4, 1.0)
    fbm = FractionalBrownian(0.4)
    pts = np.linspace(0, 1, 64)
    diff = np.abs(bi.eval(pts[:, None], pts[None, :])
                  - fbm.eval(pts[:, None], pts[None, :])).max()
    assert diff <= 1e-12
    report(2, f"V_11 = t and eta = 1 at N=512; bifbm(K=1) vs fbm max "
              f"diff {diff:.2e}")


def test_criterion_03_rough_path_correctness():
    t0 = time.time()
    worst_ratio = 0.0
    for seed in range(100):
        ens = sample(brownian(), TimeGrid.regular(32), d=2, n_paths=1,
                     seed=seed)
        rp = lift(ens.path(0), ens.grid)
        defect, scale = rp.chen_defect()
        worst_ratio = max(worst_ratio, defect / max(scale, 1e-30))
    assert worst_ratio <= 1e-13

    ens = sample(brownian(), TimeGrid.regular(64), n_paths=1, seed=5)
    base_vals, base_grid = ens.path(0), ens.grid
    errs, ns = [], []
    for factor in (1, 2, 4, 8):
        vals = refine_linear(base_vals, factor)
        grid = base_grid.refine(factor)
        fs = solve(lift(vals, grid), scalar_linear_field(1.0), z0=[1.0],
                   eps=1.0, with_jacobian=False)
        errs.append(abs(fs.Z[-1, 0] - math.exp(base_vals[-1, 0])))
        ns.append(grid.n_steps)
    order = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    elapsed = time.time() - t0
    assert order >= 1.5
    assert elapsed < 60.0
    report(3, f"Chen defect/scale {worst_ratio:.2e} <= 1e-13; observed "
              f"scheme order {order:.2f} >= 1.5 ({elapsed:.0f}s)")


def test_criterion_04_malliavin_oracle_equivalence():
    t0 = time.time()
    tau = 1e-4
    tol = max(1e-4, 3 * tau)
    grid = TimeGrid.regular(512)
    fixtures = [
        ("additive", identity_field(1), brownian(), [0.5], 1.0),
        ("geometric", scalar_linear_field(1.0), brownian(), [1.0], 0.9),
        ("bounded", bounded_nonlinear_field(), FractionalBrownian(0.4),
         [0.2], 1.0),
    ]
    worst = {}
    rng = np.random.default_rng(41)
    for name, vf, k, z0, eps in fixtures:
        ens = sample(k, grid, d=vf.d, n_paths=50, seed=43)
        l1, l2 = lift_ensemble(ens.data)
        base = solve_batch(l1, l2, grid, vf, z0, eps=eps)
        shifts = np.empty((50, grid.n_steps + 1, vf.d))
        perturbed = np.empty_like(ens.data)
        for p in range(50):
            nodes = np.sort(rng.uniform(0.1, 1.0, 3))
            coeffs = rng.standard_normal((3, vf.d))
            h = CMElement(k, nodes, coeffs)
            h = CMElement(k, nodes, coeffs / np.sqrt(cm_norm_sq(h)))
            shifts[p] = cm_eval(h, grid.nodes)
            perturbed[p] = (ens.path(p) + tau * shifts[p]).T
        p1, p2 = lift_ensemble(perturbed)
        pert = solve_batch(p1, p2, grid, vf, z0, eps=eps,
                           with_jacobian=False)
        fd = (pert.Z[:, -1] - base.Z[:, -1]) / tau
        got = directional_derivative(base, vf, l1, shifts, 1.0)
        err = float(np.abs(fd - got).max())
        assert err <= tol, f"{name}: {err:.2e} > {tol:.1e}"
        worst[name] = err
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(4, "FD vs kernel pairing, 50 pairs/fixture at N=512: "
           + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
           + f" (tol {tol:.1e}, {elapsed:.0f}s)")


def test_criterion_05_malliavin_matrix_closed_forms():
    grid = TimeGrid.regular(128)
    vf = identity_field(1)
    worst_add = 0.0
    for k in full_catalog():
        ens = sample(k, grid, d=1, n_paths=1, seed=3)
        flow = solve(lift(ens.path(0), grid), vf, z0=[0.0])
        for t in (0.5, 1.0):
            got = malliavin_matrix(flow, vf, k, t)[0, 0]
            worst_add = max(worst_add, abs(got - k.sigma_sq0(t)))
    assert worst_add <= 1e-8

    k = brownian()
    sigma, eps = 0.9, 1.0
    geo = scalar_linear_field(sigma)
    ens = sample(k, TimeGrid.regular(256), d=1, n_paths=20, seed=7)
    l1, l2 = lift_ensemble(ens.data)
    batch = solve_batch(l1, l2, ens.grid, geo, z0=[1.1], eps=eps)
    gammas = malliavin_matrix(batch, geo, k, 1.0)
    worst_geo = 0.0
    for p in range(20):
        want = (eps * sigma * batch.Z[p, -1, 0]) ** 2 * k.sigma_sq0(1.0)
        worst_geo = max(worst_geo, abs(gammas[p, 0, 0] - want) / want)
    assert worst_geo <= 1e-6
    report(5, f"additive gamma vs sigma_t^2 worst {worst_add:.2e} <= 1e-8 "
              f"(7 kernels); geometric relative worst {worst_geo:.2e} <= 1e-6")


def test_criterion_06_interpolation_audits():
    grid = TimeGrid.regular(64)
    kernels = [FractionalBrownian(0.4),
               kernel_from_spec({"family": "stationary",
                                 "F": {"kind": "power", "c": 1.0, "p": 0.8},
                                 "T": 1.0, "rho": 1.25})]
    margins = []
    for k in kernels:
        audit = interpolation_audit(k, grid, n_random_fns=100, seed=11)
        assert audit.lower_chain_failures == 0
        assert audit.interp_failures == 0
        margins.append(audit.lower_chain_worst_margin)
    report(6, "constant-free chain 100/100 and sup-interpolation with grid "
              f"(c_X, alpha) on both kernels; worst margins {margins}")


def test_criterion_07_tail_form_check():
    t0 = time.time()
    grid = TimeGrid.regular(256)
    # control: Brownian additive recovers slope 1/2 on the normalized axis
    est = estimate_density(brownian(), identity_field(1), [0.0], t=1.0,
                           eps=1.0, n_paths=200_000, seed=13, grid=grid)
    kap = kappa(brownian(), 0.0, 1.0, grid)
    control = tail_fit(est, [0.0], rho=1.0, kappa_t=kap)
    assert control.passed
    assert control.slope == pytest.approx(0.5, rel=0.05)

    k = FractionalBrownian(0.4)
    est2 = estimate_density(k, bounded_nonlinear_field(), [0.0], t=1.0,
                            eps=1.0, n_paths=200_000, seed=17, grid=grid)
    kap2 = kappa(k, 0.0, 1.0, grid)
    fit = tail_fit(est2, [0.0], rho=k.rho, kappa_t=kap2)
    elapsed = time.time() - t0
    assert fit.slope > 0
    assert fit.r2 >= 0.9
    assert elapsed < 600.0
    report(7, f"Brownian control slope {control.slope:.4f} (within 5% of "
              f"0.5); fbm(0.4) bounded-nonlinear slope {fit.slope:.3f}, "
              f"r2 {fit.r2:.4f} ({elapsed:.0f}s)")


def test_criterion_08_first_variation_covariance():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(128)
    vf = bounded_nonlinear_field()
    rng = np.random.default_rng(19)
    n = 100_000
    gaps = []
    for trial in range(2):
        nodes = np.sort(rng.uniform(0.1, 1.0, 3))
        h = CMElement(k, nodes, rng.standard_normal((3, 1)))
        g = first_variation_samples(h, k, vf, [0.1], grid, n_paths=n,
                                    seed=23 + trial)
        gamma = deterministic_malliavin_matrix(h, vf, [0.1], k, grid)
        want = gamma[0, 0]
        var = g[:, 0].var()
        se = var * math.sqrt(2.0 / (n - 1))
        assert abs(var - want) <= 5 * se
        assert abs(g[:, 0].mean()) <= 3 * g[:, 0].std() / math.sqrt(n)
        gaps.append((var - want) / se)
    report(8, f"empirical Cov(G_1(h)) vs deterministic matrix within 5 se "
              f"at n=1e5 for two random h (deviations {gaps[0]:+.2f} se, "
              f"{gaps[1]:+.2f} se)")


def test_criterion_09_rate_function_closed_forms():
    worst = 0.0
    for k in (FractionalBrownian(0.4), brownian()):
        for dy in (-0.7, 0.5, 1.0):
            res = rate_function([0.5 + dy], k, identity_field(1), [0.5],
                                seed=29)
            want = dy * dy / (2 * k.sigma_sq0(1.0))
            assert abs(res.d2 - want) <= 1e-3
            assert res.residual <= 1e-6
            assert res.det_gamma > 0
            worst = max(worst, abs(res.d2 - want))
    geo_worst = 0.0
    for c in (-0.4, 0.5, 0.8):
        res = rate_function([math.exp(c)], brownian(),
                            scalar_linear_field(1.0), [1.0], seed=31,
                            elliptic_gate=False)
        want = c * c / 2.0
        assert abs(res.d2 - want) <= 1e-3
        assert res.residual <= 1e-6
        assert res.det_gamma > 0
        geo_worst = max(geo_worst, abs(res.d2 - want))
    report(9, f"additive d2 worst error {worst:.2e} <= 1e-3 (6 targets, "
              f"2 kernels); geometric worst {geo_worst:.2e} <= 1e-3; all "
              "residuals <= 1e-6, det gamma > 0 in every accepted run")


def test_criterion_10_varadhan_sweep():
    t0 = time.time()
    grid = TimeGrid.regular(256)
    eps_list = [0.5, 0.35, 0.25]
    # additive Brownian
    y = 0.6
    rate = rate_function([y], brownian(), identity_field(1), [0.0], seed=37)
    sweep = varadhan_sweep([y], brownian(), identity_field(1), [0.0],
                           eps_list=eps_list, n_paths=200_000, seed=37,
                           d2=rate.d2, grid=grid)
    assert abs(sweep.gap) <= 0.05
    # geometric fixture
    c = 0.6
    rate_g = rate_function([math.exp(c)], brownian(),
                           scalar_linear_field(1.0), [1.0], seed=39,
                           elliptic_gate=False)
    sweep_g = varadhan_sweep([math.exp(c)], brownian(),
                             scalar_linear_field(1.0), [1.0],
                             eps_list=eps_list, n_paths=200_000, seed=39,
                             d2=rate_g.d2, grid=grid)
    elapsed = time.time() - t0
    assert abs(sweep_g.gap) <= 0.1
    assert elapsed < 900.0
    report(10, f"additive limit {sweep.extrapolated:.4f} vs -d2 "
               f"{-sweep.d2:.4f} (gap {sweep.gap:+.3f}, |gap|<=0.05); "
               f"geometric gap {sweep_g.gap:+.3f} (|gap|<=0.1) "
               f"({elapsed:.0f}s)")


def test_criterion_11_determinism_across_workers(tmp_path):
    config = {
        "kernel": {"family": "fbm", "H": 0.4, "T": 1.0},
        "grid": {"n_steps": 64},
        "vf": {"name": "bounded_nonlinear"},
        "experiment": "density", "seed": 41, "n_paths": 30_000, "eps": 1.0,
    }
    blobs = []
    for i, workers in enumerate((1, 4, 16)):
        out = tmp_path / f"w{workers}"
        run_experiment(config, str(out), workers=workers)
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    parsed = json.loads(blobs[0])
    assert parsed["manifest"]["seed"] == 41
    report(11, "report.json byte-identical across {1,4,16} workers for the "
               "gated density config")
