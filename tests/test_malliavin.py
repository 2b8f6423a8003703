import numpy as np
import pytest

from roughdensity.fields import (
    bounded_nonlinear_field,
    identity_field,
    rotation_mix_field,
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
from roughdensity.lift import lift, lift_ensemble
from roughdensity.malliavin import (
    HypothesisGateError,
    derivative_kernel,
    deterministic_malliavin_matrix,
    directional_derivative,
    interpolation_audit,
    malliavin_matrix,
    trig_corpus,
)
from roughdensity.paths import CMElement, cm_eval, cm_norm_sq, sample
from roughdensity.rde import solve, solve_batch


def catalog():
    return [
        FractionalBrownian(0.4),
        brownian(),
        BiFractionalBrownian(0.45, 0.9),
        SumFractionalBrownian(0.4, 0.5),
        kernel_from_spec({"family": "stationary",
                          "F": {"kind": "power", "c": 1.0, "p": 0.8},
                          "T": 1.0, "rho": 1.25}),
        FourierKernel(rho=1.25, k_max=256),
        FractionalOU(0.4, 1.0),
    ]


def solved_flow(kernel, vf, n=64, seed=0, z0=(0.2,), eps=1.0):
    grid = TimeGrid.regular(n)
    ens = sample(kernel, grid, d=vf.d, n_paths=1, seed=seed)
    return solve(lift(ens.path(0), grid), vf, z0=list(z0), eps=eps), grid


def test_additive_kernel_trace_is_identity():
    k = FractionalBrownian(0.4)
    vf = identity_field(1)
    flow, grid = solved_flow(k, vf)
    trace = derivative_kernel(flow, vf, 1.0)
    np.testing.assert_allclose(trace,
                               np.ones((65, 1, 1)), atol=1e-12)
    # at s = t the kernel equals V(Z_t)
    np.testing.assert_allclose(trace[-1], vf.v(flow.Z[-1]), atol=1e-12)


def test_geometric_kernel_trace_constant_in_s():
    k = brownian()
    vf = scalar_linear_field(0.7)
    flow, grid = solved_flow(k, vf, z0=(1.3,), eps=0.8)
    trace = derivative_kernel(flow, vf, 1.0)
    want = 0.8 * 0.7 * flow.Z[-1, 0]
    np.testing.assert_allclose(trace[:, 0, 0], want, rtol=1e-6)


def test_additive_matrix_all_catalog_kernels():
    vf = identity_field(1)
    for k in catalog():
        flow, grid = solved_flow(k, vf, n=128)
        for t in (0.5, 1.0):
            got = malliavin_matrix(flow, vf, k, t)
            assert got[0, 0] == pytest.approx(k.sigma_sq0(t), abs=1e-8)
    # multidimensional additive: gamma = sigma_t^2 I
    vf2 = identity_field(2)
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(32)
    ens = sample(k, grid, d=2, n_paths=1, seed=5)
    flow = solve(lift(ens.path(0), grid), vf2, z0=[0.0, 0.0])
    got = malliavin_matrix(flow, vf2, k, 1.0)
    np.testing.assert_allclose(got, k.sigma_sq0(1.0) * np.eye(2),
                               atol=1e-10)


def test_geometric_matrix_closed_form_per_path():
    k = brownian()
    vf = scalar_linear_field(0.9)
    grid = TimeGrid.regular(64)
    ens = sample(k, grid, d=1, n_paths=10, seed=7)
    l1, l2 = lift_ensemble(ens.data)
    batch = solve_batch(l1, l2, grid, vf, z0=[1.1], eps=0.8)
    gammas = malliavin_matrix(batch, vf, k, 1.0)
    for p in range(10):
        want = (0.8 * 0.9 * batch.Z[p, -1, 0]) ** 2 * k.sigma_sq0(1.0)
        assert gammas[p, 0, 0] == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("vf", [rotation_mix_field(),
                                bounded_nonlinear_field()],
                         ids=lambda vf: vf.name)
def test_malliavin_functions_broadcast_over_batch(vf):
    """On a batch from `solve_batch`, each function equals its per-path
    single-flow result: the kernel and the directional derivative bit for
    bit, gamma to round-off (its optimized contraction order may differ
    with the batch axis)."""
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(32)
    ens = sample(k, grid, d=vf.d, n_paths=6, seed=21)
    l1, l2 = lift_ensemble(ens.data)
    batch = solve_batch(l1, l2, grid, vf, z0=[0.1] * vf.n, eps=0.8)
    rng = np.random.default_rng(5)
    shifts = np.stack([
        cm_eval(CMElement(k, np.sort(rng.uniform(0.1, 1.0, 3)),
                          rng.standard_normal((3, vf.d))), grid.nodes)
        for _ in range(6)])
    for t in (0.5, 1.0):
        kern = derivative_kernel(batch, vf, t)
        dd = directional_derivative(batch, vf, l1, shifts, t)
        gammas = malliavin_matrix(batch, vf, k, t)
        assert kern.shape == (6, grid.index_of(t) + 1, vf.n, vf.d)
        assert dd.shape == (6, vf.n) and gammas.shape == (6, vf.n, vf.n)
        for p in range(6):
            rp = lift(ens.path(p), grid)
            single = solve(rp, vf, z0=[0.1] * vf.n, eps=0.8)
            assert np.array_equal(kern[p], derivative_kernel(single, vf, t))
            assert np.array_equal(dd[p], directional_derivative(
                single, vf, rp.step1, shifts[p], t))
            want = malliavin_matrix(single, vf, k, t)
            assert np.abs(gammas[p] - want).max() <= 1e-14 * np.abs(want).max()


def test_matrix_at_time_zero_is_zero():
    k = brownian()
    vf = identity_field(1)
    flow, grid = solved_flow(k, vf)
    got = malliavin_matrix(flow, vf, k, 0.0)
    assert np.all(got == 0.0)


def test_matrix_symmetry_and_psd_on_samples():
    k = FractionalBrownian(0.4)
    vf = bounded_nonlinear_field()
    grid = TimeGrid.regular(64)
    ens = sample(k, grid, d=1, n_paths=50, seed=11)
    l1, l2 = lift_ensemble(ens.data)
    batch = solve_batch(l1, l2, grid, vf, z0=[0.1], eps=1.0)
    gammas = malliavin_matrix(batch, vf, k, 1.0)
    np.testing.assert_allclose(gammas, np.swapaxes(gammas, -1, -2),
                               atol=1e-14)
    eigs = np.linalg.eigvalsh(gammas)
    trace = np.trace(gammas, axis1=-2, axis2=-1)
    assert np.all(eigs[:, 0] >= -1e-10 * np.maximum(trace, 1e-30))


def test_pathwise_directional_derivative_oracle():
    """Cameron-Martin perturbation of the driver vs the kernel pairing."""
    tau = 1e-4
    rng = np.random.default_rng(13)
    fixtures = [
        (identity_field(1), brownian(), [0.5], 1.0),
        (scalar_linear_field(1.0), brownian(), [1.0], 0.9),
        (bounded_nonlinear_field(), FractionalBrownian(0.4), [0.2], 1.0),
    ]
    grid = TimeGrid.regular(512)
    for vf, k, z0, eps in fixtures:
        ens = sample(k, grid, d=vf.d, n_paths=10, seed=17)
        for p in range(10):
            vals = ens.path(p)
            nodes = np.sort(rng.uniform(0.1, 1.0, 3))
            coeffs = rng.standard_normal((3, vf.d))
            h = CMElement(k, nodes, coeffs)
            h = CMElement(k, nodes, coeffs / np.sqrt(cm_norm_sq(h)))
            rp = lift(vals, grid)
            base = solve(rp, vf, z0=z0, eps=eps)
            pert_vals = vals + tau * cm_eval(h, grid.nodes)
            pert = solve(lift(pert_vals, grid), vf, z0=z0,
                         with_jacobian=False, eps=eps)
            fd = (pert.Z[-1] - base.Z[-1]) / tau
            got = directional_derivative(base, vf, rp.step1,
                                         cm_eval(h, grid.nodes), 1.0)
            assert np.abs(fd - got).max() <= max(1e-4, 3 * tau)
            # plain left-endpoint pairing agrees at first order in the mesh
            trace = derivative_kernel(base, vf, 1.0)
            dh = np.diff(cm_eval(h, grid.nodes), axis=0)
            rough = np.einsum("sad,sd->a", trace[:-1], dh)
            assert np.abs(fd - rough).max() <= 5e-3


def test_deterministic_matrix_additive_and_flat():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(64)
    vf = identity_field(1)
    h0 = CMElement(k, [0.5], [0.0])
    got = deterministic_malliavin_matrix(h0, vf, [0.3], k, grid)
    assert got[0, 0] == pytest.approx(k.sigma_sq0(1.0), abs=1e-8)
    # V constant: gamma independent of h
    h1 = CMElement(k, [0.25, 0.75], [1.5, -0.5])
    got1 = deterministic_malliavin_matrix(h1, vf, [0.3], k, grid)
    assert got1[0, 0] == pytest.approx(got[0, 0], rel=1e-12)


def test_deterministic_matrix_nondegenerate_for_elliptic_field():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(64)
    vf = bounded_nonlinear_field()
    rng = np.random.default_rng(19)
    for _ in range(5):
        nodes = np.sort(rng.uniform(0.1, 1.0, 4))
        h = CMElement(k, nodes, rng.standard_normal((4, 1)))
        got = deterministic_malliavin_matrix(h, vf, [0.1], k, grid)
        assert np.linalg.eigvalsh(got)[0] > 0


def test_inverse_eigenvalue_quantiles_scale_like_variance():
    """lambda_min(gamma_t)^{-1} quantiles across t scale like
    sigma_t^{-2} within a factor of 3 (moment-bound proxy)."""
    k = FractionalBrownian(0.4)
    vf = bounded_nonlinear_field()
    grid = TimeGrid.regular(128)
    ens = sample(k, grid, d=1, n_paths=10_000, seed=23)
    l1, l2 = lift_ensemble(ens.data)
    batch = solve_batch(l1, l2, grid, vf, z0=[0.1], eps=1.0)
    scaled = []
    for t in (0.25, 0.5, 1.0):
        gammas = malliavin_matrix(batch, vf, k, t)
        inv_min = 1.0 / np.linalg.eigvalsh(gammas)[:, 0]
        q = np.quantile(inv_min, 0.9)
        scaled.append(q * k.sigma_sq0(t))
    ratio = max(scaled) / min(scaled)
    assert ratio < 3.0


def test_interpolation_audit_passes_on_catalog():
    grid = TimeGrid.regular(64)
    for k in (FractionalBrownian(0.4),
              kernel_from_spec({"family": "stationary",
                                "F": {"kind": "power", "c": 1.0, "p": 0.8},
                                "T": 1.0, "rho": 1.25})):
        audit = interpolation_audit(k, grid, n_random_fns=100, seed=3)
        assert audit.lower_chain_failures == 0
        assert audit.interp_failures == 0
        assert audit.passed
        assert audit.c2_upper_estimate > 0


def test_audit_constant_function_equalities():
    # f = 1: H-norm^2 = sigma_t^2 (equality in the min bound); Brownian
    # measure integral equals c^2 t exactly
    k = brownian()
    grid = TimeGrid.regular(32)
    from roughdensity.paths import step_inner

    ones = np.ones(grid.n_steps)
    t = 1.0
    got = step_inner(ones, ones, k, grid)
    assert got == pytest.approx(k.sigma_sq0(t), rel=1e-12)
    gram = k.gram(grid.nodes)
    measure = gram[1:, -1] - gram[:-1, -1]
    c = 1.7
    assert np.dot((c * ones) ** 2, measure) == pytest.approx(c * c * t,
                                                             rel=1e-12)


def test_audit_gate_rejects_failing_kernel():
    k = FractionalBrownian(0.7, horizon=1.0)
    with pytest.raises(HypothesisGateError):
        interpolation_audit(k, TimeGrid.regular(32))


def test_trig_corpus_deterministic():
    grid = TimeGrid.regular(16)
    a = trig_corpus(grid, 5, seed=9)
    b = trig_corpus(grid, 5, seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (5, 16)
