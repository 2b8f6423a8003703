import pickle

import numpy as np
import pytest

from roughdensity.fields import (
    bounded_nonlinear_field,
    identity_field,
    linear_drift_field,
    rotation_mix_field,
    scalar_linear_field,
)
from roughdensity.kernels import FractionalBrownian, TimeGrid, brownian
from roughdensity.lift import lift, lift_ensemble
from roughdensity.malliavin import _increment_tangent
from roughdensity.paths import CMElement, cm_eval, sample
from roughdensity.rde import (
    BlowUpError,
    CoarseGridError,
    SkeletonPropagator,
    solve,
    solve_batch,
    solve_skeleton,
)

from _flow_oracle import rk4_skeleton, three_mechanism_solve_batch


def bm_path(n=256, seed=0, d=1):
    ens = sample(brownian(), TimeGrid.regular(n), d=d, n_paths=1, seed=seed)
    return ens.path(0), ens.grid


def test_additive_equation_is_exact():
    vals, grid = bm_path(n=64, seed=1, d=2)
    fs = solve(vals, grid, identity_field(2), z0=[0.5, -1.0], eps=0.7)
    want = np.array([0.5, -1.0]) + 0.7 * vals
    np.testing.assert_allclose(fs.Z, want, atol=1e-12)
    # additive: J = Id everywhere
    np.testing.assert_allclose(fs.J, np.broadcast_to(np.eye(2), fs.J.shape),
                               atol=1e-14)


def test_pure_drift_ode_second_order():
    # dz = -z dt: Z_T = z0 e^{ -T }, mesh^2 convergence
    vf = linear_drift_field(-1.0)
    errs = []
    for n in (16, 32, 64, 128):
        grid = TimeGrid.regular(n)
        zeros = np.zeros((grid.n_steps + 1, 1))
        fs = solve(zeros, grid, vf, z0=[2.0], eps=0.0)
        errs.append(abs(fs.Z[-1, 0] - 2.0 * np.exp(-1.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.9


def test_geometric_fixture_matches_exponential():
    vals, grid = bm_path(n=256, seed=3)
    sigma, eps = 0.8, 0.9
    fs = solve(vals, grid, scalar_linear_field(sigma), z0=[1.5], eps=eps)
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
        grid = TimeGrid.regular(64 * factor)
        vals = np.interp(grid.nodes, base_grid.nodes, base_vals[:, 0])
        fs = solve(vals, grid, scalar_linear_field(1.0), z0=[1.0], eps=1.0,
                   with_jacobian=False)
        errs.append(abs(fs.Z[-1, 0] - np.exp(base_vals[-1, 0])))
        ns.append(grid.n_steps)
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope >= 1.5


def test_epsilon_consistency_bitwise():
    vals, grid = bm_path(n=64, seed=7)
    eps = 0.5   # power of two: scaling is exact in floats
    a = solve(vals, grid, bounded_nonlinear_field(), z0=[0.2], eps=eps)
    b = solve(eps * vals, grid, bounded_nonlinear_field(), z0=[0.2], eps=1.0)
    assert np.array_equal(a.Z, b.Z)
    assert np.array_equal(a.J, b.J)


def test_solve_accepts_one_dimensional_values():
    vals, grid = bm_path(n=64, seed=19)
    a = solve(vals[:, 0], grid, bounded_nonlinear_field(), z0=[0.2], eps=0.8)
    b = solve(vals, grid, bounded_nonlinear_field(), z0=[0.2], eps=0.8)
    assert vals.shape == (65, 1)
    assert np.array_equal(a.Z, b.Z)
    assert np.array_equal(a.J, b.J)


def test_jacobian_inverse_consistency():
    vals, grid = bm_path(n=512, seed=11, d=2)
    fs = solve(vals, grid, rotation_mix_field(), z0=[0.3, -0.2], eps=0.6)
    prod = np.einsum("tab,tbc->tac", fs.J, np.linalg.inv(fs.J))
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
    # the oracle takes level 2 as data: the lift's, path by path
    level2 = np.stack([lift(ens.path(p), grid).step2 for p in range(n_paths)])
    return lift_ensemble(ens.data), level2, grid


@FLOW_FIXTURES
def test_jacobian_matches_three_mechanism_oracle(vf, z0):
    l1, l2, grid = fbm_drivers(vf)
    new = solve_batch(l1, grid, vf, z0, eps=0.8)
    old, old_k = three_mechanism_solve_batch(l1, l2, grid, vf, z0, eps=0.8)
    # the W-form step regroups the oracle's polynomial: same map, last bits
    np.testing.assert_allclose(new.Z, old.Z, rtol=0,
                               atol=1e-12 * np.abs(old.Z).max())
    np.testing.assert_allclose(new.J, old.J, rtol=0,
                               atol=1e-12 * np.abs(old.J).max())
    # the oracle's K carries its own defect E = I - J K (its linearized
    # update is first order between Newton corrections), and J^-1 - K is
    # exactly J^-1 E
    new_inv = np.linalg.inv(new.J)
    defect = np.eye(vf.n) - old.J @ old_k
    np.testing.assert_allclose(new_inv - old_k, new_inv @ defect,
                               rtol=0, atol=1e-12 * np.abs(new_inv).max())


@FLOW_FIXTURES
def test_terminal_jacobian_matches_central_differences(vf, z0):
    l1, _, grid = fbm_drivers(vf, n_paths=3)
    flow = solve_batch(l1, grid, vf, z0, eps=0.8)
    step = 1e-6
    for c in range(vf.n):
        bump = step * np.eye(vf.n)[c]
        up = solve_batch(l1, grid, vf, np.add(z0, bump), eps=0.8,
                         with_jacobian=False)
        down = solve_batch(l1, grid, vf, np.subtract(z0, bump), eps=0.8,
                           with_jacobian=False)
        fd = (up.Z[:, -1] - down.Z[:, -1]) / (2 * step)
        np.testing.assert_allclose(flow.J[:, -1, :, c], fd, rtol=1e-7,
                                   atol=1e-7 * np.abs(fd).max())


def test_flow_property_restart():
    vals, grid = bm_path(n=512, seed=13)
    vf = bounded_nonlinear_field()
    fs = solve(vals, grid, vf, z0=[0.4], eps=0.8)
    mid = 256
    sub_grid = TimeGrid(nodes=grid.nodes[mid:] - grid.nodes[mid])
    restart = solve(vals[mid:] - vals[mid], sub_grid, vf, z0=fs.Z[mid],
                    eps=0.8)
    np.testing.assert_allclose(restart.Z[-1], fs.Z[-1], rtol=1e-6)
    # J_{0,T} = J_{s,T} J_{0,s}
    comp = restart.J[-1] @ fs.J[mid]
    np.testing.assert_allclose(comp, fs.J[-1], rtol=1e-6)


def test_batch_solver_matches_single():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(32)
    for vf, z0 in [(bounded_nonlinear_field(), [0.1]),
                   (rotation_mix_field(), [0.1, -0.2])]:
        ens = sample(k, grid, d=vf.d, n_paths=4, seed=17)
        batch = solve_batch(lift_ensemble(ens.data), grid, vf, z0=z0, eps=0.5)
        for p in range(4):
            single = solve(ens.path(p), grid, vf, z0=z0, eps=0.5)
            np.testing.assert_array_equal(batch.Z[p], single.Z)
            np.testing.assert_array_equal(batch.J[p], single.J)
            np.testing.assert_array_equal(np.linalg.inv(batch.J[p]),
                                          np.linalg.inv(single.J))


@pytest.mark.parametrize("n", [1, 2])
def test_additive_flow_is_the_exact_cumulative_sum(n):
    # identity field: W = x^1 and every other term of the step is an exact
    # zero, so the flow from 0 is the running sum of eps dx to the last bit
    grid = TimeGrid.regular(64)
    ens = sample(FractionalBrownian(0.4), grid, d=n, n_paths=50, seed=37)
    l1 = lift_ensemble(ens.data)
    for eps in (0.25, 0.35, 0.5):
        flow = solve_batch(l1, grid, identity_field(n), [0.0] * n, eps=eps,
                           with_jacobian=False)
        assert np.array_equal(flow.Z[:, 1:], np.cumsum(eps * l1, axis=1))


def test_blow_up_guard():
    grid = TimeGrid.regular(4)
    vals = np.zeros((5, 1))
    vals[1:, 0] = [0.95, 1.35, 1.45, 1.55]
    with pytest.raises(ValueError):
        # per-step increment norm >= 1 violates the contraction check
        solve(vals, grid, scalar_linear_field(1.0), z0=[1.0], eps=1.1)
    grid2 = TimeGrid.regular(64)
    ramp = (0.9 * np.arange(65, dtype=float))[:, None]
    try:
        solve(ramp, grid2, scalar_linear_field(1.0), z0=[1e7], eps=0.9)
    except BlowUpError as err:
        assert err.last_valid_step >= 1
    else:
        raise AssertionError("expected BlowUpError")


def test_solver_errors_survive_pickling():
    # the errors of a chunk solved in a worker process reach the caller
    err = pickle.loads(pickle.dumps(BlowUpError("escaped", last_valid_step=7)))
    assert type(err) is BlowUpError
    assert str(err) == "escaped" and err.last_valid_step == 7
    coarse = pickle.loads(pickle.dumps(CoarseGridError("too coarse")))
    assert isinstance(coarse, ValueError) and str(coarse) == "too coarse"


# ---------------------------------------------------------------------------
# skeleton; the closed forms at rel 1e-8 and below pin the RK4 oracle that
# the scheme's skeleton converges to (test_malliavin.py bounds that gap)
# ---------------------------------------------------------------------------

def test_skeleton_zero_element_is_drift_flow():
    k = brownian()
    grid = TimeGrid.regular(64)
    h = CMElement(k, [0.5], [0.0])
    flow = rk4_skeleton(h, identity_field(1), z0=[0.7], grid=grid)
    np.testing.assert_allclose(flow.Z, 0.7 * np.ones((65, 1)), atol=1e-12)
    flow2 = rk4_skeleton(h, linear_drift_field(-1.0), z0=[2.0], grid=grid)
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
    flow = rk4_skeleton(h, scalar_linear_field(1.0), z0=[1.0], grid=grid)
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
    phi, jac = prop.propagate(coeffs, z0=[0.1])
    for b in range(5):
        h = CMElement(k, nodes, coeffs[b])
        flow = solve_skeleton(h, vf, z0=[0.1], grid=grid)
        assert phi[b, -1, 0] == pytest.approx(flow.Z[-1, 0], rel=1e-12)
        np.testing.assert_allclose(jac[b], flow.J, rtol=1e-12)
        # the skeleton is the scheme at eps = 1 along h's node values
        path = solve(cm_eval(h, grid.nodes), grid, vf, z0=[0.1])
        np.testing.assert_allclose(flow.Z, path.Z, rtol=1e-12)
        np.testing.assert_allclose(flow.J, path.J, rtol=1e-12)


@pytest.mark.parametrize("vf, z0", [
    (rotation_mix_field(), [0.2, -0.1]),
    (bounded_nonlinear_field(), [0.1]),
], ids=["rotation_mix", "bounded_nonlinear"])
def test_scheme_tangent_matches_finite_difference(vf, z0):
    """The rate function's tangent dZ_N/dx in every level-1 increment of
    the driver, one adjoint product of the flow, against central
    differences of `solve_batch`'s terminal map."""
    grid = TimeGrid.regular(64)
    m, n, d = 8, grid.n_steps, vf.d
    nodes = np.linspace(1 / m, 1.0, m)
    traces = FractionalBrownian(0.4).eval(nodes[:, None], grid.nodes[None, :])
    coeffs = 0.7 * np.random.default_rng(23).standard_normal((3, m, d))
    level1 = np.einsum("bmd,mt->btd", coeffs, np.diff(traces, axis=1))
    flow = solve_batch(level1, grid, vf, z0)
    eye = np.broadcast_to(np.eye(d), (n, d, d))
    tangent = flow.J[:, -1:] @ _increment_tangent(flow, vf, level1, eye, n)
    assert tangent.shape == (3, n, vf.n, d)

    step = 1e-5
    bumps = step * np.eye(n * d).reshape(n * d, n, d)
    trials = np.concatenate([level1[:, None] + bumps, level1[:, None] - bumps],
                            axis=1).reshape(-1, n, d)
    z = solve_batch(trials, grid, vf, z0, with_jacobian=False).Z[:, -1]
    z = z.reshape(3, 2, n * d, vf.n)
    fd = (z[:, 0] - z[:, 1]) / (2 * step)              # (3, n d, vf.n)
    got = tangent.transpose(0, 1, 3, 2).reshape(3, n * d, vf.n)
    np.testing.assert_allclose(got, fd, rtol=1e-6,
                               atol=1e-6 * np.abs(fd).max())


def test_skeleton_is_exact_through_a_kink_at_a_grid_node():
    # Brownian h = 1.2 min(0.5, .) - 0.7 min(1, .) is linear on every cell
    # of both grids, so the piecewise-linear driver is h itself and the
    # coarse RK4 skeleton agrees with the fine one to the RK4 error alone
    h = CMElement(brownian(), [0.5, 1.0], [1.2, -0.7])
    vf = bounded_nonlinear_field()
    coarse, fine = (rk4_skeleton(h, vf, z0=[0.1], grid=TimeGrid.regular(n))
                    for n in (16, 256))
    assert coarse.Z[-1, 0] == pytest.approx(fine.Z[-1, 0], rel=1e-9)


def test_skeleton_on_a_two_step_grid():
    h = CMElement(brownian(), [0.5, 1.0], [0.8, -0.3])
    flow = solve_skeleton(h, identity_field(1), z0=[0.4],
                          grid=TimeGrid.regular(2))
    want = 0.4 + cm_eval(h, np.array([0.0, 0.5, 1.0]))[:, 0]
    np.testing.assert_allclose(flow.Z[:, 0], want, rtol=1e-12, atol=1e-15)
