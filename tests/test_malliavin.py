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
from roughdensity.lift import lift_ensemble
from roughdensity.malliavin import (
    HypothesisGateError,
    derivative_kernel,
    deterministic_malliavin_matrix,
    directional_derivative,
    interpolation_audit,
    malliavin_matrix,
    trig_corpus,
)
from roughdensity.paths import (CMElement, cm_eval, random_unit_element,
                               sample)
from roughdensity.rde import (CoarseGridError, solve, solve_batch,
                              solve_skeleton)

from _flow_oracle import (rk4_skeleton, sandwich_malliavin_matrix,
                          term_by_term_directional_derivative)


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
    return solve(ens.path(0), grid, vf, z0=list(z0), eps=eps), grid


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
    flow = solve(ens.path(0), grid, vf2, z0=[0.0, 0.0])
    got = malliavin_matrix(flow, vf2, k, 1.0)
    np.testing.assert_allclose(got, k.sigma_sq0(1.0) * np.eye(2),
                               atol=1e-10)


def test_geometric_matrix_closed_form_per_path():
    k = brownian()
    vf = scalar_linear_field(0.9)
    grid = TimeGrid.regular(64)
    ens = sample(k, grid, d=1, n_paths=10, seed=7)
    batch = solve_batch(lift_ensemble(ens.data), grid, vf, z0=[1.1], eps=0.8)
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
    l1 = lift_ensemble(ens.data)
    batch = solve_batch(l1, grid, vf, z0=[0.1] * vf.n, eps=0.8)
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
            vals = ens.path(p)
            single = solve(vals, grid, vf, z0=[0.1] * vf.n, eps=0.8)
            assert np.array_equal(kern[p], derivative_kernel(single, vf, t))
            assert np.array_equal(dd[p], directional_derivative(
                single, vf, np.diff(vals, axis=0), shifts[p], t))
            want = malliavin_matrix(single, vf, k, t)
            assert np.abs(gammas[p] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("vf", [rotation_mix_field(),
                                bounded_nonlinear_field()],
                         ids=lambda vf: vf.name)
def test_malliavin_matrix_matches_sandwich_oracle(vf):
    # the pairing of the derivative kernel regroups the oracle's sum, which
    # keeps J_t and eps^2 outside it: equal up to round-off, path by path
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(64)
    ens = sample(k, grid, d=vf.d, n_paths=8, seed=53)
    batch = solve_batch(lift_ensemble(ens.data), grid, vf, z0=[0.1] * vf.n,
                        eps=0.7)
    for t in (0.5, 1.0):
        got = malliavin_matrix(batch, vf, k, t)
        want = sandwich_malliavin_matrix(batch, vf, k, t)
        assert got.shape == want.shape == (8, vf.n, vf.n)
        err = np.abs(got - want).max(axis=(-2, -1))
        assert np.all(err <= 1e-12 * np.abs(want).max(axis=(-2, -1)))


def test_identity_field_matrix_equals_sandwich_oracle_bitwise():
    # J = Id and V = Id exactly, so both forms sum the same cells in the
    # same order: the skeleton's gamma (the rate function's det_gamma) and
    # rough flows at eps = 0.5, a power of two, are equal to the last bit
    k = FractionalBrownian(0.5)
    grid = TimeGrid.regular(64)
    h = CMElement(k, [0.25, 0.75], [0.6, -0.2])
    flows = [(identity_field(1),
              solve_skeleton(h, identity_field(1), [0.0], grid))]
    for n in (1, 2):
        ens = sample(k, grid, d=n, n_paths=6, seed=59)
        flows.append((identity_field(n),
                      solve_batch(lift_ensemble(ens.data), grid,
                                  identity_field(n), [0.0] * n, eps=0.5)))
    for vf, flow in flows:
        for t in (0.5, 1.0):
            assert np.array_equal(malliavin_matrix(flow, vf, k, t),
                                  sandwich_malliavin_matrix(flow, vf, k, t))


def test_matrix_at_time_zero_is_zero():
    k = brownian()
    vf = identity_field(1)
    flow, grid = solved_flow(k, vf)
    got = malliavin_matrix(flow, vf, k, 0.0)
    assert np.all(got == 0.0)


def test_kernel_and_directional_derivative_need_the_jacobian():
    k = FractionalBrownian(0.4)
    vf = bounded_nonlinear_field()
    grid = TimeGrid.regular(32)
    vals = sample(k, grid, d=1, n_paths=1, seed=3).path(0)
    flow = solve(vals, grid, vf, z0=[0.1], with_jacobian=False)
    with pytest.raises(ValueError, match="without the Jacobian"):
        derivative_kernel(flow, vf, 1.0)
    with pytest.raises(ValueError, match="without the Jacobian"):
        directional_derivative(flow, vf, np.diff(vals, axis=0),
                               np.zeros_like(vals), 1.0)


def test_matrix_symmetry_and_psd_on_samples():
    # gamma is returned as assembled, not symmetrised, so the 2-D field
    # checks the assembly's own symmetry
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(64)
    for vf, z0 in [(bounded_nonlinear_field(), [0.1]),
                   (rotation_mix_field(), [0.1, -0.2])]:
        ens = sample(k, grid, d=vf.d, n_paths=50, seed=11)
        batch = solve_batch(lift_ensemble(ens.data), grid, vf, z0=z0,
                            eps=1.0)
        gammas = malliavin_matrix(batch, vf, k, 1.0)
        np.testing.assert_allclose(gammas, np.swapaxes(gammas, -1, -2),
                                   atol=1e-14)
        eigs = np.linalg.eigvalsh(gammas)
        trace = np.trace(gammas, axis1=-2, axis2=-1)
        assert np.all(eigs[:, 0] >= -1e-10 * np.maximum(trace, 1e-30))


@pytest.mark.parametrize("vf",
                         [rotation_mix_field(), bounded_nonlinear_field()],
                         ids=lambda vf: vf.name)
def test_directional_derivative_matches_term_by_term_oracle(vf):
    # the W-form b = dW + (1/2)(dDW W + DW dW) regroups the oracle's
    # term-by-term derivative of the same step: equal up to round-off
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(64)
    ens = sample(k, grid, d=vf.d, n_paths=8, seed=43)
    l1 = lift_ensemble(ens.data)
    batch = solve_batch(l1, grid, vf, z0=[0.2] * vf.n, eps=0.9)
    rng = np.random.default_rng(47)
    shifts = np.stack([
        cm_eval(CMElement(k, np.sort(rng.uniform(0.1, 1.0, 3)),
                          rng.standard_normal((3, vf.d))), grid.nodes)
        for _ in range(8)])
    for t in (0.0, 0.25, 1.0):
        got = directional_derivative(batch, vf, l1, shifts, t)
        want = term_by_term_directional_derivative(batch, vf, l1, shifts, t)
        assert got.shape == want.shape == (8, vf.n)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
            h = random_unit_element(k, rng, vf.d)
            base = solve(vals, grid, vf, z0=z0, eps=eps)
            pert_vals = vals + tau * cm_eval(h, grid.nodes)
            pert = solve(pert_vals, grid, vf, z0=z0, with_jacobian=False,
                         eps=eps)
            fd = (pert.Z[-1] - base.Z[-1]) / tau
            got = directional_derivative(base, vf, np.diff(vals, axis=0),
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


def test_skeleton_converges_to_rk4_oracle_as_n_squared():
    # the skeleton is the scheme at eps = 1; the RK4 oracle solves the ODE
    # it discretizes, so phi_T and the deterministic matrix approach the
    # oracle's as n^-2 (measured n^2 gap: 0.20 / 0.05 for phi_T, 0.31 /
    # 0.02 for gamma) on criterion 08's two elements
    k, vf = FractionalBrownian(0.4), bounded_nonlinear_field()
    rng = np.random.default_rng(19)
    for _ in range(2):
        nodes = np.sort(rng.uniform(0.1, 1.0, 3))
        h = CMElement(k, nodes, rng.standard_normal((3, 1)))
        for n in (32, 64, 128, 256):
            grid = TimeGrid.regular(n)
            oracle = rk4_skeleton(h, vf, [0.1], grid)
            phi = solve_skeleton(h, vf, [0.1], grid).Z[-1]
            gamma = deterministic_malliavin_matrix(h, vf, [0.1], k, grid)
            want = malliavin_matrix(oracle, vf, k, n)
            assert np.abs(phi - oracle.Z[-1]).max() <= (
                0.5 / n ** 2 * np.abs(oracle.Z[-1]).max())
            assert np.abs(gamma - want).max() <= (
                0.5 / n ** 2 * np.abs(want).max())


def test_skeleton_refuses_a_grid_too_coarse_for_h():
    # Brownian h = 3 min(1, .) rises 1.5 over each cell of a 2-step grid:
    # the scheme's contraction bound refuses it, as for a sampled driver
    h = CMElement(brownian(), [1.0], [3.0])
    vf = bounded_nonlinear_field()
    with pytest.raises(CoarseGridError):
        deterministic_malliavin_matrix(h, vf, [0.1], brownian(),
                                       TimeGrid.regular(2))
    got = deterministic_malliavin_matrix(h, vf, [0.1], brownian(),
                                         TimeGrid.regular(4))
    assert got.shape == (1, 1) and got[0, 0] == pytest.approx(2.2814, abs=1e-4)


def test_inverse_eigenvalue_quantiles_scale_like_variance():
    """lambda_min(gamma_t)^{-1} quantiles across t scale like
    sigma_t^{-2} within a factor of 3 (moment-bound proxy)."""
    k = FractionalBrownian(0.4)
    vf = bounded_nonlinear_field()
    grid = TimeGrid.regular(128)
    ens = sample(k, grid, d=1, n_paths=10_000, seed=23)
    batch = solve_batch(lift_ensemble(ens.data), grid, vf, z0=[0.1], eps=1.0)
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
