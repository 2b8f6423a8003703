import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from roughdensity.fields import (
    bounded_nonlinear_field,
    identity_field,
    linear_drift_field,
    rotation_mix_field,
    scalar_linear_field,
)
from roughdensity.kernels import FractionalBrownian, TimeGrid, brownian
from roughdensity.lift import lift, lift_ensemble, refine_linear
from roughdensity.paths import CMElement, cm_eval, sample
from roughdensity.rde import (
    BlowUpError,
    SkeletonPropagator,
    solve,
    solve_batch,
    solve_skeleton,
)

from _flow_oracle import three_mechanism_solve_batch


def bm_path(n=256, seed=0, d=1):
    ens = sample(brownian(), TimeGrid.regular(n), d=d, n_paths=1, seed=seed)
    return ens.path(0), ens.grid


def test_additive_equation_is_exact():
    vals, grid = bm_path(n=64, seed=1, d=2)
    rp = lift(vals, grid)
    fs = solve(rp, identity_field(2), z0=[0.5, -1.0], eps=0.7)
    want = np.array([0.5, -1.0]) + 0.7 * vals
    np.testing.assert_allclose(fs.Z, want, atol=1e-12)
    # additive: J = Jinv = Id everywhere
    np.testing.assert_allclose(fs.J, np.broadcast_to(np.eye(2), fs.J.shape),
                               atol=1e-14)


def test_pure_drift_ode_second_order():
    # dz = -z dt: Z_T = z0 e^{ -T }, mesh^2 convergence
    vf = linear_drift_field(-1.0)
    errs = []
    for n in (16, 32, 64, 128):
        grid = TimeGrid.regular(n)
        zeros = np.zeros((grid.n_steps + 1, 1))
        fs = solve(lift(zeros, grid), vf, z0=[2.0], eps=0.0)
        errs.append(abs(fs.Z[-1, 0] - 2.0 * np.exp(-1.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.9


def test_geometric_fixture_matches_exponential():
    vals, grid = bm_path(n=256, seed=3)
    rp = lift(vals, grid)
    sigma, eps = 0.8, 0.9
    fs = solve(rp, scalar_linear_field(sigma), z0=[1.5], eps=eps)
    want = 1.5 * np.exp(sigma * eps * vals[:, 0])
    np.testing.assert_allclose(fs.Z[:, 0], want, rtol=5e-3)
    # Jacobian of the geometric flow is Z_t / z0
    np.testing.assert_allclose(fs.J[:, 0, 0], fs.Z[:, 0] / 1.5, rtol=1e-12)


def test_scheme_order_on_refined_driver():
    # dyadic piecewise-linear refinement of a fixed sampled driver: the
    # closed form z0*exp(sigma*eps*X_T) is resolution-independent and the
    # one-step scheme converges at second order along the refinements
    base_vals, base_grid = bm_path(n=64, seed=5)
    errs, ns = [], []
    for factor in (1, 2, 4, 8):
        vals = refine_linear(base_vals, factor)
        grid = base_grid.refine(factor)
        fs = solve(lift(vals, grid), scalar_linear_field(1.0), z0=[1.0],
                   eps=1.0, with_jacobian=False)
        errs.append(abs(fs.Z[-1, 0] - np.exp(base_vals[-1, 0])))
        ns.append(grid.n_steps)
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope >= 1.5


def test_epsilon_consistency_bitwise():
    vals, grid = bm_path(n=64, seed=7)
    rp = lift(vals, grid)
    eps = 0.5   # power of two: scaling is exact in floats
    a = solve(rp, bounded_nonlinear_field(), z0=[0.2], eps=eps)
    b = solve(rp.scale(eps), bounded_nonlinear_field(), z0=[0.2], eps=1.0)
    assert np.array_equal(a.Z, b.Z)
    assert np.array_equal(a.J, b.J)


def test_jacobian_inverse_consistency():
    vals, grid = bm_path(n=512, seed=11, d=2)
    rp = lift(vals, grid)
    fs = solve(rp, rotation_mix_field(), z0=[0.3, -0.2], eps=0.6)
    prod = np.einsum("tab,tbc->tac", fs.J, fs.Jinv)
    err = np.abs(prod - np.eye(2)).max()
    assert err <= 1e-12


FLOW_FIXTURES = pytest.mark.parametrize("vf, z0", [
    (rotation_mix_field(), [0.3, -0.2]),
    (bounded_nonlinear_field(), [0.1]),
    (scalar_linear_field(1.0), [1.0]),
], ids=["rotation_mix", "bounded_nonlinear", "scalar_linear"])


def fbm_drivers(vf, n=128, n_paths=6, seed=31):
    grid = TimeGrid.regular(n)
    ens = sample(FractionalBrownian(0.4), grid, d=vf.d, n_paths=n_paths,
                 seed=seed)
    return (*lift_ensemble(ens.data), grid)


@FLOW_FIXTURES
def test_jacobian_matches_three_mechanism_oracle(vf, z0):
    l1, l2, grid = fbm_drivers(vf)
    new = solve_batch(l1, l2, grid, vf, z0, eps=0.8)
    old = three_mechanism_solve_batch(l1, l2, grid, vf, z0, eps=0.8)
    assert np.array_equal(new.Z, old.Z)
    np.testing.assert_allclose(new.J, old.J, rtol=0,
                               atol=1e-12 * np.abs(old.J).max())
    # the oracle's K carries its own defect E = I - J K (its linearized
    # update is first order between Newton corrections), and J^-1 - K is
    # exactly J^-1 E
    defect = np.eye(vf.n) - old.J @ old.Jinv
    np.testing.assert_allclose(new.Jinv - old.Jinv, new.Jinv @ defect,
                               rtol=0, atol=1e-12 * np.abs(new.Jinv).max())


@FLOW_FIXTURES
def test_terminal_jacobian_matches_central_differences(vf, z0):
    l1, l2, grid = fbm_drivers(vf, n_paths=3)
    flow = solve_batch(l1, l2, grid, vf, z0, eps=0.8)
    step = 1e-6
    for c in range(vf.n):
        bump = step * np.eye(vf.n)[c]
        up = solve_batch(l1, l2, grid, vf, np.add(z0, bump), eps=0.8,
                         with_jacobian=False)
        down = solve_batch(l1, l2, grid, vf, np.subtract(z0, bump), eps=0.8,
                           with_jacobian=False)
        fd = (up.Z[:, -1] - down.Z[:, -1]) / (2 * step)
        np.testing.assert_allclose(flow.J[:, -1, :, c], fd, rtol=1e-7,
                                   atol=1e-7 * np.abs(fd).max())


def test_flow_property_restart():
    vals, grid = bm_path(n=512, seed=13)
    rp = lift(vals, grid)
    vf = bounded_nonlinear_field()
    fs = solve(rp, vf, z0=[0.4], eps=0.8)
    mid = 256
    sub_grid = TimeGrid(nodes=grid.nodes[mid:] - grid.nodes[mid])
    sub_rp = lift(vals[mid:] - vals[mid], sub_grid)
    restart = solve(sub_rp, vf, z0=fs.Z[mid], eps=0.8)
    np.testing.assert_allclose(restart.Z[-1], fs.Z[-1], rtol=1e-6)
    # J_{0,T} = J_{s,T} J_{0,s}
    comp = restart.J[-1] @ fs.J[mid]
    np.testing.assert_allclose(comp, fs.J[-1], rtol=1e-6)


def test_batch_solver_matches_single():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(32)
    ens = sample(k, grid, d=1, n_paths=4, seed=17)
    l1, l2 = lift_ensemble(ens.data)
    batch = solve_batch(l1, l2, grid, bounded_nonlinear_field(), z0=[0.1],
                        eps=0.5)
    for p in range(4):
        single = solve(lift(ens.path(p), grid), bounded_nonlinear_field(),
                       z0=[0.1], eps=0.5)
        np.testing.assert_array_equal(batch.Z[p], single.Z)
        np.testing.assert_array_equal(batch.J[p], single.J)


def test_blow_up_guard():
    grid = TimeGrid.regular(4)
    vals = np.zeros((5, 1))
    vals[1:, 0] = [0.95, 1.35, 1.45, 1.55]
    with pytest.raises(ValueError):
        # per-step increment norm >= 1 violates the contraction check
        solve(lift(vals, grid), scalar_linear_field(1.0), z0=[1.0], eps=1.1)
    grid2 = TimeGrid.regular(64)
    ramp = (0.9 * np.arange(65, dtype=float))[:, None]
    try:
        solve(lift(ramp, grid2), scalar_linear_field(1.0), z0=[1e7],
              eps=0.9)
    except BlowUpError as err:
        assert err.last_valid_step >= 1
    else:
        raise AssertionError("expected BlowUpError")


# ---------------------------------------------------------------------------
# skeleton
# ---------------------------------------------------------------------------

def test_skeleton_zero_element_is_drift_flow():
    k = brownian()
    grid = TimeGrid.regular(64)
    h = CMElement(k, [0.5], [0.0])
    flow = solve_skeleton(h, identity_field(1), z0=[0.7], grid=grid)
    np.testing.assert_allclose(flow.Z, 0.7 * np.ones((65, 1)), atol=1e-12)
    flow2 = solve_skeleton(h, linear_drift_field(-1.0), z0=[2.0], grid=grid)
    np.testing.assert_allclose(flow2.Z[-1, 0], 2.0 * np.exp(-1.0),
                               rtol=1e-9)


def test_skeleton_additive_terminal_is_trace():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(64)
    h = CMElement(k, [0.3, 1.0], [0.8, -0.4])
    flow = solve_skeleton(h, identity_field(1), z0=[0.25], grid=grid)
    want = 0.25 + cm_eval(h, 1.0)[0]
    assert flow.Z[-1, 0] == pytest.approx(want, rel=1e-9)


def test_skeleton_linear_field_exponential():
    k = brownian()
    grid = TimeGrid.regular(128)
    h = CMElement(k, [1.0], [0.9])
    flow = solve_skeleton(h, scalar_linear_field(1.0), z0=[1.0], grid=grid)
    want = np.exp(cm_eval(h, 1.0)[0])
    assert flow.Z[-1, 0] == pytest.approx(want, rel=1e-8)
    # Jacobian of the scalar linear skeleton equals the flow ratio
    np.testing.assert_allclose(flow.J[:, 0, 0], flow.Z[:, 0], rtol=1e-8)


def test_skeleton_propagator_batches_match_single():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(32)
    vf = bounded_nonlinear_field()
    nodes = np.linspace(1 / 8, 1.0, 8)
    prop = SkeletonPropagator(k, vf, grid, nodes)
    rng = np.random.default_rng(19)
    coeffs = rng.standard_normal((5, 8))
    batch = prop.terminal(coeffs, z0=[0.1])
    for b in range(5):
        h = CMElement(k, nodes, coeffs[b])
        flow = solve_skeleton(h, vf, z0=[0.1], grid=grid)
        assert batch[b, 0] == pytest.approx(flow.Z[-1, 0], rel=1e-12)


@pytest.mark.parametrize("vf, z0", [
    (rotation_mix_field(), [0.2, -0.1]),
    (bounded_nonlinear_field(), [0.1]),
], ids=["rotation_mix", "bounded_nonlinear"])
def test_skeleton_tangent_matches_finite_difference(vf, z0):
    grid = TimeGrid.regular(32)
    nodes = np.linspace(1 / 4, 1.0, 4)
    prop = SkeletonPropagator(FractionalBrownian(0.4), vf, grid, nodes)
    coeffs = 0.7 * np.random.default_rng(23).standard_normal((2, 4, vf.d))
    phi, tangent = prop.propagate(coeffs, z0, with_tangent=True)
    np.testing.assert_array_equal(phi, prop.propagate(coeffs, z0))
    step = 1e-5
    for i in range(4):
        for k in range(vf.d):
            bump = np.zeros_like(coeffs)
            bump[:, i, k] = step
            fd = (prop.terminal(coeffs + bump, z0)
                  - prop.terminal(coeffs - bump, z0)) / (2 * step)
            np.testing.assert_allclose(tangent[:, :, i, k], fd, rtol=1e-6,
                                       atol=1e-6 * np.abs(fd).max())


def test_skeleton_tangent_leaves_jacobian_unchanged():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(32)
    vf = rotation_mix_field()
    nodes = np.linspace(1 / 4, 1.0, 4)
    prop = SkeletonPropagator(k, vf, grid, nodes)
    coeffs = np.random.default_rng(29).standard_normal((3, 4, 2))
    phi, jac = prop.propagate(coeffs, [0.3, 0.0], with_jacobian=True)
    phi2, jac2, _ = prop.propagate(coeffs, [0.3, 0.0], with_jacobian=True,
                                   with_tangent=True)
    np.testing.assert_array_equal(phi, phi2)
    np.testing.assert_allclose(jac2, jac, rtol=1e-13, atol=1e-15)


def spline_grids():
    random_nodes = np.sort(np.random.default_rng(31).uniform(0.0, 1.0, 39))
    return [TimeGrid.regular(n) for n in (4, 16, 64, 256)] + [
        TimeGrid(nodes=np.linspace(0.0, 1.0, 49) ** 1.5),
        TimeGrid(nodes=np.r_[0.0, random_nodes, 1.0])]


@pytest.mark.parametrize("grid", spline_grids(),
                         ids=["n4", "n16", "n64", "n256", "graded", "random"])
@pytest.mark.parametrize("kernel", [FractionalBrownian(0.4), brownian()],
                         ids=["fbm0.4", "brownian"])
def test_basis_dot_matches_scipy_cubic_spline(kernel, grid):
    nodes = np.linspace(1 / 6, 1.0, 6)
    prop = SkeletonPropagator(kernel, identity_field(1), grid, nodes)
    fine = grid.refine(8)
    stage_times = np.sort(np.r_[fine.nodes,
                                0.5 * (fine.nodes[:-1] + fine.nodes[1:])])
    want = CubicSpline(grid.nodes, prop.basis.T, axis=0)(stage_times, 1).T
    assert prop.basis_dot.shape == want.shape
    assert np.abs(prop.basis_dot - want).max() <= 1e-14 * np.abs(want).max()


def test_skeleton_needs_four_grid_nodes():
    with pytest.raises(ValueError, match="four nodes"):
        SkeletonPropagator(brownian(), identity_field(1), TimeGrid.regular(2),
                           np.array([0.5, 1.0]))
