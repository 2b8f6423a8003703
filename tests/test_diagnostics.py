from itertools import combinations

import numpy as np
import pytest

from _gate_oracle import oracle_fit, oracle_scans
from roughdensity.diagnostics import (
    _half_resolution_nodes,
    _scan_diagonal_dominance,
    _scan_negative_correlation,
    _window_fits,
    cell_rect_matrix,
    check_hypotheses,
    eta,
    kappa,
    mixed_variation,
    mixed_variation_refinement,
    q_embedding,
    stationary_valid_horizon,
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

FBM07_WITNESS_VALUE = 0.5 * (2.0 ** 1.4 - 2.0)   # E[dX_{0,1} dX_{1,2}], H=0.7


def brute_force_mixed_variation(kernel, nodes, gamma, rho):
    """Supremum of the mixed-variation functional over every pair of
    sub-dissections of ``nodes`` (exponential enumeration, N <= 8)."""
    nodes = np.asarray(nodes)
    interior = range(1, len(nodes) - 1)
    dissections = []
    for r in range(len(nodes) - 1):
        for keep in combinations(interior, r):
            dissections.append(np.asarray((0, *keep, len(nodes) - 1)))
    best = 0.0
    for di in dissections:
        for dj in dissections:
            total = 0.0
            for b0, b1 in zip(dj[:-1], dj[1:]):
                inner = 0.0
                for a0, a1 in zip(di[:-1], di[1:]):
                    inner += abs(kernel.rect_increment(
                        nodes[a0], nodes[a1], nodes[b0], nodes[b1])) ** gamma
                total += inner ** (rho / gamma)
            best = max(best, total ** (1.0 / rho))
    return best


def small_catalog():
    return [
        FractionalBrownian(0.4),
        brownian(),
        BiFractionalBrownian(0.45, 0.9),
        SumFractionalBrownian(0.4, 0.5),
        kernel_from_spec({"family": "stationary",
                          "F": {"kind": "power", "c": 1.0, "p": 0.8},
                          "T": 1.0, "rho": 1.25}),
        FourierKernel(rho=1.25, k_max=256),
    ]


def test_brownian_v11_is_one_on_any_grid():
    k = brownian()
    for n in (4, 7, 16):
        grid = TimeGrid.regular(n)
        v = mixed_variation(k, (0, 1, 0, 1), 1.0, 1.0, grid)
        assert v == pytest.approx(1.0, abs=1e-12)


def test_zero_area_rect_is_zero():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(8)
    assert mixed_variation(k, (0.25, 0.25, 0, 1), 1.0, 1.25, grid) == 0.0


def test_matches_brute_force_supremum_for_inner_exponent_one():
    grid = TimeGrid.regular(6)
    for kernel in (FractionalBrownian(0.4), brownian(),
                   BiFractionalBrownian(0.45, 0.9),
                   FourierKernel(rho=1.25, k_max=128)):
        for gamma, rho in ((1.0, 1.0), (1.0, 1.25), (1.0, 1.4)):
            got = mixed_variation(kernel, (0, 1, 0, 1), gamma, rho, grid)
            sup = brute_force_mixed_variation(kernel, grid.nodes, gamma, rho)
            assert got == pytest.approx(sup, rel=1e-12)


def test_lower_bounds_brute_force_supremum_for_general_exponents():
    grid = TimeGrid.regular(5)
    for kernel in (FractionalBrownian(0.4), BiFractionalBrownian(0.45, 0.9)):
        for gamma, rho in ((1.25, 1.25), (1.2, 1.4)):
            got = mixed_variation(kernel, (0, 1, 0, 1), gamma, rho, grid)
            sup = brute_force_mixed_variation(kernel, grid.nodes, gamma, rho)
            assert got <= sup + 1e-12
            assert got >= 0.6 * sup


def test_monotone_under_dyadic_refinement():
    for kernel in small_catalog():
        prev = None
        for n in (8, 16, 32):
            grid = TimeGrid.regular(n)
            v = mixed_variation(kernel, (0, 1, 0, 1), 1.0, kernel.rho, grid)
            if prev is not None:
                assert v >= prev - 1e-12
            prev = v


def test_refinement_pair_reports_convergence():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(32)
    fine, half = mixed_variation_refinement(k, (0, 1, 0, 1), 1.0, k.rho, grid)
    assert fine >= half - 1e-12


@pytest.mark.parametrize("n", [4, 7, 32, 65])
def test_half_resolution_nodes_match_union1d(n):
    # np.union1d, as the refinement called it twice, is the oracle
    for horizon in (1.0, 2.0):
        nodes = TimeGrid.regular(n, horizon=horizon).nodes
        for rect in [(0, horizon, 0, horizon), (0.25, 0.5, 0.1, horizon),
                     (0.3, 0.3, 0.7, 0.9), (nodes[1], nodes[2], 0.0, 0.33)]:
            want = np.union1d(np.union1d(nodes[::2], [nodes[0], nodes[-1]]),
                              list(rect))
            assert np.array_equal(_half_resolution_nodes(nodes, rect), want)


def test_brownian_eta_is_one():
    k = brownian()
    grid = TimeGrid.regular(64)
    for t in (0.25, 0.5, 1.0):
        assert eta(k, t, grid) == pytest.approx(1.0, abs=1e-9)
        assert kappa(k, 0, t, grid) == pytest.approx(np.sqrt(t), abs=1e-9)


def test_eta_constant_for_self_similar_kernels():
    grid = TimeGrid.regular(128)
    for kernel in (FractionalBrownian(0.4), BiFractionalBrownian(0.45, 0.9)):
        e1 = eta(kernel, 0.5, grid)
        e2 = eta(kernel, 1.0, grid)
        assert e1 == pytest.approx(e2, rel=0.05)


def test_eta_errors_at_degenerate_time():
    k = brownian()
    grid = TimeGrid.regular(8)
    with pytest.raises(ZeroDivisionError):
        eta(k, 0.0, grid)


def test_q_embedding_below_two():
    for rho in (1.0, 1.2, 1.25, 1.4, 1.49, 1.9):
        q = q_embedding(rho)
        assert 1.0 <= q < 2.0
    assert q_embedding(1.0) == pytest.approx(1.0)
    assert q_embedding(2.0) == pytest.approx(4.0 / 3.0)


def test_conditional_variance_brownian_exact():
    k = brownian()
    grid = TimeGrid.regular(16)
    starts, ends = np.array([0, 3, 5]), np.array([4, 9, 16])
    got, _, jitter = _window_fits(cell_rect_matrix(k, grid), starts,
                                  ends - starts, k.rho)
    want = grid.nodes[ends] - grid.nodes[starts]
    assert got == pytest.approx(want, rel=1e-10)
    assert jitter == 0.0


def test_check_hypotheses_brownian():
    rep = check_hypotheses(brownian(), TimeGrid.regular(32))
    assert rep.negative_correlation.passed
    assert rep.diagonal_dominance.passed
    assert rep.alpha_estimate == pytest.approx(1.0, abs=1e-6)
    assert rep.c_X_estimate == pytest.approx(1.0, rel=1e-6)
    assert rep.passed


def test_check_hypotheses_fbm04_passes():
    rep = check_hypotheses(FractionalBrownian(0.4), TimeGrid.regular(64))
    assert rep.negative_correlation.passed
    assert rep.diagonal_dominance.passed
    assert rep.c_X_estimate > 0
    assert rep.alpha_estimate == pytest.approx(0.8, abs=0.15)
    assert rep.holder_controlled.passed
    assert rep.passed


def test_check_hypotheses_fbm07_fails_with_closed_form_witness():
    k = FractionalBrownian(0.7, horizon=2.0)
    rep = check_hypotheses(k, TimeGrid.regular(16, horizon=2.0))
    assert not rep.negative_correlation.passed
    assert rep.negative_correlation.worst == pytest.approx(
        FBM07_WITNESS_VALUE, rel=1e-12)
    assert rep.negative_correlation.witness == pytest.approx((0.0, 1.0, 1.0, 2.0))
    assert not rep.passed


def test_concave_stationary_kernel_passes_sign_conditions():
    kern = kernel_from_spec({"family": "stationary",
                             "F": {"kind": "power", "c": 1.0, "p": 0.8},
                             "T": 1.0, "rho": 1.25})
    for n in (16, 32):
        rep = check_hypotheses(kern, TimeGrid.regular(n))
        assert rep.negative_correlation.passed
        assert rep.diagonal_dominance.passed


def test_holder_exponent_close_to_inverse_rho():
    for kernel in small_catalog():
        rep = check_hypotheses(kernel, TimeGrid.regular(32))
        assert rep.holder_controlled.exponent >= 1.0 / kernel.rho - 0.1


def test_witnesses_are_lexicographically_first():
    # Brownian: every disjoint quadruple attains the worst value 0 exactly;
    # the reported witness must be the first in lexicographic order.
    rep = check_hypotheses(brownian(), TimeGrid.regular(8))
    assert rep.negative_correlation.worst == 0.0
    assert rep.negative_correlation.witness == pytest.approx(
        (0.0, 0.125, 0.125, 0.25))


def test_diagonal_dominance_witness_is_lexicographically_first():
    # Brownian on dyadic nodes: the nested value E[dX_{t2 t3} dX_{t1 t4}] is
    # t3 - t2 exactly, so the worst 1/8 is attained by every quadruple with
    # adjacent t2 < t3; the first of them is (0, 0, 1/8, 1/8).
    rep = check_hypotheses(brownian(), TimeGrid.regular(8))
    assert rep.diagonal_dominance.worst == 0.125
    assert rep.diagonal_dominance.witness == (0.0, 0.0, 0.125, 0.125)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_sign_scan_witnesses_match_oracle(n):
    kernels = small_catalog() + [FractionalBrownian(0.7)]
    if n <= 64:
        kernels.append(FractionalOU(0.4, 1.0))
    nodes = TimeGrid.regular(n).nodes
    for kernel in kernels:
        g = kernel.gram(nodes)
        assert (_scan_negative_correlation(g),
                _scan_diagonal_dominance(g)) == oracle_scans(g)


def fit_cases(n):
    if n == "nonuniform":    # graded, and random (window fallback)
        nodes = np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 47))
        grids = (TimeGrid(nodes=np.linspace(0.0, 1.0, 65) ** 1.5),
                 TimeGrid(nodes=np.r_[0.0, nodes, 1.0]))
        return [(k, g) for g in grids for k in (
            FractionalBrownian(0.4), BiFractionalBrownian(0.45, 0.9))]
    kernels = small_catalog() + [FractionalBrownian(0.7)]
    if n <= 64:
        kernels.append(FractionalOU(0.4, 1.0))
    # At n = 128 the Fourier kernel's M is singular by aliasing; see
    # test_gate_reports_cell_jitter.
    return [(k, TimeGrid.regular(n)) for k in kernels
            if not (n == 128 and isinstance(k, FourierKernel))]


@pytest.mark.parametrize("n", [32, 64, 128, "nonuniform"])
def test_fit_windows_match_per_window_oracle(n):
    for kernel, grid in fit_cases(n):
        windows, fit = oracle_fit(kernel, grid)
        ia, ib = np.asarray(list(windows)).T
        cond_vars, v_vals, jitter = _window_fits(
            cell_rect_matrix(kernel, grid), ia, ib - ia, kernel.rho)
        want = np.asarray(list(windows.values()))
        assert jitter == 0.0
        np.testing.assert_allclose(cond_vars, want[:, 0], rtol=1e-10, atol=0)
        np.testing.assert_allclose(v_vals, want[:, 1], rtol=1e-10, atol=0)
        rep = check_hypotheses(kernel, grid)
        got = (rep.c_X_estimate, rep.alpha_estimate,
               rep.holder_controlled.exponent, rep.holder_controlled.constant)
        np.testing.assert_allclose(got, fit, rtol=1e-10, atol=0)
        assert rep.details["n_fit_intervals"] == len(windows)


def test_gate_reports_cell_jitter():
    grid = TimeGrid.regular(128)
    rep = check_hypotheses(FractionalBrownian(0.4), grid)
    assert rep.details["cell_jitter"] == 0.0
    # Truncated at k_max = 256, the Fourier kernel's cell matrix has
    # eigenvalues down to -1.5e-14 on this grid.
    rep = check_hypotheses(FourierKernel(rho=1.25, k_max=256), grid)
    assert rep.details["cell_jitter"] > 0.0


def test_valid_horizon_for_stationary_families():
    kern = FourierKernel(rho=1.25, k_max=256, horizon=1.0)
    grid = TimeGrid.regular(32)
    t_ok = stationary_valid_horizon(kern, grid)
    assert 0 < t_ok <= 1.0
    rep = check_hypotheses(kern, grid)
    assert rep.valid_horizon == pytest.approx(t_ok)


def test_report_serializes_to_json():
    import json

    rep = check_hypotheses(FractionalBrownian(0.4), TimeGrid.regular(16))
    blob = json.dumps(rep.to_json(), sort_keys=True)
    assert "negative_correlation" in blob
