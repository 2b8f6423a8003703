import sys

import numpy as np
import pytest

from roughdensity.kernels import FractionalBrownian, TimeGrid, brownian
from roughdensity.lift import (
    RoughPath2,
    lift,
    lift_ensemble,
    p_variation,
    rough_norm,
)
from roughdensity.paths import sample


def random_rough_path(n=32, d=2, seed=0):
    rng = np.random.default_rng(seed)
    grid = TimeGrid.regular(n)
    vals = np.cumsum(np.r_[np.zeros((1, d)),
                           rng.standard_normal((n, d)) * 0.1], axis=0)
    return lift(vals, grid), vals


def test_single_step_level2():
    grid = TimeGrid.regular(1)
    rp = lift(np.array([[0.0, 0.0], [1.0, 0.0]]), grid)
    np.testing.assert_allclose(rp.step2[0], [[0.5, 0.0], [0.0, 0.0]])


def test_two_step_chen_composition_by_hand():
    grid = TimeGrid.regular(2)
    vals = np.array([[0.0, 0.0], [1.0, 0.5], [0.25, 1.5]])
    rp = lift(vals, grid)
    d1, d2 = np.diff(vals, axis=0)
    want = 0.5 * np.outer(d1, d1) + 0.5 * np.outer(d2, d2) + np.outer(d1, d2)
    np.testing.assert_allclose(rp.level2(0, 2), want, atol=1e-15)
    anti = 0.5 * (rp.level2(0, 2) - rp.level2(0, 2).T)
    want_anti = 0.5 * (np.outer(d1, d2) - np.outer(d2, d1))
    np.testing.assert_allclose(anti, want_anti, atol=1e-15)


def test_one_dimensional_level2_is_half_square():
    rp, vals = random_rough_path(n=16, d=1, seed=1)
    for i in range(17):
        for j in range(i, 17):
            dx = vals[j, 0] - vals[i, 0]
            assert rp.level2(i, j)[0, 0] == pytest.approx(0.5 * dx * dx,
                                                          abs=1e-15)


def test_chen_defect_vanishes_on_random_paths():
    for seed in range(100):
        rp, _ = random_rough_path(n=16, d=2, seed=seed)
        scale = max(np.abs(rp._prefix2).max(), 1e-30)
        worst = 0.0
        for s in range(17):
            for u in range(s, 17):
                for t in range(u, 17):
                    defect = (rp.level2(s, t) - rp.level2(s, u)
                              - rp.level2(u, t)
                              - np.outer(rp.level1(s, u), rp.level1(u, t)))
                    worst = max(worst, np.abs(defect).max())
        assert worst <= 1e-13 * scale


def test_geometricity_symmetric_part():
    rp, _ = random_rough_path(n=24, d=3, seed=5)
    for i, j in ((0, 24), (3, 17), (10, 11)):
        x2 = rp.level2(i, j)
        dx = rp.level1(i, j)
        np.testing.assert_allclose(0.5 * (x2 + x2.T), 0.5 * np.outer(dx, dx),
                                   atol=1e-14)


def test_scaling_exact_for_power_of_two():
    rp, vals = random_rough_path(n=16, d=2, seed=9)
    eps = 0.5
    scaled = rp.scale(eps)
    relift = lift(eps * vals, rp.grid)
    assert np.array_equal(scaled.step1, relift.step1)
    assert np.array_equal(scaled.step2, relift.step2)
    # non-dyadic scale agrees to round-off
    eps = 0.35
    np.testing.assert_allclose(rp.scale(eps).step2,
                               lift(eps * vals, rp.grid).step2,
                               rtol=1e-14, atol=1e-18)


def test_p_variation_monotone_path():
    grid_vals = np.array([0.0, 0.3, 0.55, 1.2])
    res = p_variation(grid_vals, 1.0)
    assert res.value == pytest.approx(1.2, rel=1e-14)
    assert res.method == "exact-dp"
    assert p_variation(np.zeros(10), 2.0).value == 0.0


def test_p_variation_sawtooth_brute_force():
    vals = np.array([0.0, 1.0, 0.0])
    # subdivisions of {0,1,2}: {0,2} -> 0, {0,1,2} -> 1+1
    assert p_variation(vals, 2.0).value == pytest.approx(np.sqrt(2.0))


def test_p_variation_non_increasing_in_p():
    rng = np.random.default_rng(31)
    vals = np.cumsum(rng.standard_normal(65)) * 0.1
    prev = np.inf
    for p in (1.0, 1.5, 2.0, 2.5, 3.0):
        v = p_variation(vals, p).value
        assert v <= prev + 1e-12
        prev = v


def test_p_variation_cutoff_lower_bound():
    rng = np.random.default_rng(37)
    vals = np.cumsum(rng.standard_normal(1025)) * 0.05
    full = p_variation(vals, 2.5, cutoff=1024)
    capped = p_variation(vals, 2.5, cutoff=256)
    assert capped.method == "lower-bound"
    assert full.method == "exact-dp"
    assert capped.value <= full.value + 1e-12
    assert capped.value >= 0.9 * full.value


def test_rough_norm_zero_and_single_step():
    grid = TimeGrid.regular(1)
    zero = lift(np.zeros((2, 2)), grid)
    assert rough_norm(zero, 2.5) == 0.0
    rp = lift(np.array([[0.0, 0.0], [0.6, 0.8]]), grid)
    dx = 1.0
    want = dx + np.sqrt(0.5 * dx ** 2)
    assert rough_norm(rp, 2.5) == pytest.approx(want, rel=1e-12)


def test_rough_norm_monotone_in_horizon():
    ens = sample(brownian(), TimeGrid.regular(128), n_paths=1, seed=41)
    vals = ens.path(0)
    prev = 0.0
    for n in (32, 64, 128):
        sub = TimeGrid(nodes=ens.grid.nodes[:n + 1])
        v = rough_norm(lift(vals[:n + 1], sub), 2.5)
        assert v >= prev - 1e-12
        prev = v


def test_rough_norm_above_the_cutoff_is_a_lower_bound(monkeypatch):
    # the package attribute ``roughdensity.lift`` is the function, so the
    # module is reached through sys.modules
    lift_module = sys.modules["roughdensity.lift"]
    ens = sample(brownian(), TimeGrid.regular(64), d=2, n_paths=1, seed=41)
    rp = lift(ens.path(0), ens.grid)
    exact = rough_norm(rp, 2.5)
    monkeypatch.setattr(lift_module, "PVAR_EXACT_CUTOFF", 16)
    assert rough_norm(rp, 2.5) <= exact


def test_lift_ensemble_matches_single_lifts():
    ens = sample(brownian(), TimeGrid.regular(16), d=2, n_paths=3, seed=2)
    l1 = lift_ensemble(ens.data)
    for p in range(3):
        rp = lift(ens.path(p), ens.grid)
        np.testing.assert_array_equal(l1[p], rp.step1)


@pytest.mark.parametrize("d", [1, 2])
def test_lift_ensemble_is_time_major_and_matches_path_major_oracle(d):
    """The increments equal the old path-major view, the node values'
    differences transposed, bit for bit, and their (N, P, d) transpose is
    contiguous, so solve_batch reads them without a copy: for a whole
    ensemble at an odd offset and for chunks of it at odd offsets, the
    last one partial."""
    k, grid = FractionalBrownian(0.4), TimeGrid.regular(64)
    start, total, chunk = 5, 37, 16
    data = sample(k, grid, d=d, n_paths=total, seed=9,
                  path_offset=start).data
    l1 = lift_ensemble(data)
    assert l1.shape == (total, 64, d)
    assert l1.transpose(1, 0, 2).flags.c_contiguous
    assert np.array_equal(l1, np.diff(data, axis=2).transpose(0, 2, 1))
    for off in range(0, total, chunk):            # 16, 16 and a partial 5
        size = min(chunk, total - off)
        part = sample(k, grid, d=d, n_paths=size, seed=9,
                      path_offset=start + off).data
        assert np.array_equal(lift_ensemble(part), l1[off: off + size])
