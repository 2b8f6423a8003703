import numpy as np
import pytest

from roughdensity.diagnostics import kappa, q_embedding
from roughdensity.kernels import (
    FractionalBrownian,
    TimeGrid,
    brownian,
    jitter_cholesky,
)
from roughdensity.lift import lift_ensemble, p_variation
from roughdensity.paths import (
    BLOCK_PATHS,
    CMElement,
    cholesky_factor,
    cm_eval,
    cm_inner,
    cm_norm_sq,
    export_path_csv,
    load_ensemble,
    sample,
    sample_increments,
    save_ensemble,
    step_inner,
    wiener_integral,
)

from _stream_oracle import block_product, oracle_sample_data


@pytest.fixture(scope="module")
def bm_ensemble():
    return sample(brownian(), TimeGrid.regular(256), d=1, n_paths=100_000,
                  seed=7)


def test_brownian_terminal_variance(bm_ensemble):
    var = bm_ensemble.data[:, 0, -1].var()
    assert var == pytest.approx(1.0, abs=0.02)


def test_sample_mean_is_centered(bm_ensemble):
    n = bm_ensemble.n_paths
    for idx in (64, 128, 256):
        sig = np.sqrt(bm_ensemble.grid.nodes[idx])
        mean = bm_ensemble.data[:, 0, idx].mean()
        assert abs(mean) <= 3 * sig / np.sqrt(n)


def test_paths_start_at_zero(bm_ensemble):
    assert np.all(bm_ensemble.data[:, :, 0] == 0.0)


def test_fbm_cross_covariance():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(64)
    ens = sample(k, grid, n_paths=100_000, seed=3)
    i, j = grid.index_of(0.5), grid.index_of(1.0)
    got = np.mean(ens.data[:, 0, i] * ens.data[:, 0, j])
    # E[X_0.5 X_1] = (0.5^0.8 + 1 - 0.5^0.8) / 2 = 0.5 for H = 0.4
    se = np.std(ens.data[:, 0, i] * ens.data[:, 0, j]) / np.sqrt(ens.n_paths)
    assert got == pytest.approx(0.5, abs=4 * se)


def test_chunked_sampling_is_bit_identical():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(32)
    whole = sample(k, grid, d=2, n_paths=10, seed=11)
    chol = cholesky_factor(k, grid)
    parts = [sample(k, grid, d=2, n_paths=3, seed=11, path_offset=0, chol=chol),
             sample(k, grid, d=2, n_paths=4, seed=11, path_offset=3, chol=chol),
             sample(k, grid, d=2, n_paths=3, seed=11, path_offset=7, chol=chol)]
    glued = np.concatenate([p.data for p in parts], axis=0)
    assert np.array_equal(whole.data, glued)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [4, 64, 256])
def test_sample_matches_per_stream_oracle(d, n):
    # Seeds past 2^63, negative and past 2^64 exercise the 64-bit masking;
    # offsets 63, 64 and 65 start at and around a block boundary, and the
    # last range crosses the 16,384-path chunk boundary.
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(n)
    for seed in (0, 13, 2**63 + 5, -1, 2**64 + 3):
        for offset, n_paths in ((0, 3), (63, 3), (64, 3), (65, 3),
                                (16_381, 6)):
            got = sample(k, grid, d=d, n_paths=n_paths, seed=seed,
                         path_offset=offset)
            want = oracle_sample_data(k, grid, d, n_paths, seed, offset)
            assert np.array_equal(got.data, want)


@pytest.mark.parametrize("n", [4, 64, 256, 512])
def test_block_product_is_the_matrix_product(n):
    # the panels that keep each GEMM on one BLAS thread skip only the zeros
    # above L's diagonal
    L = cholesky_factor(FractionalBrownian(0.4), TimeGrid.regular(n))
    rng = np.random.default_rng(n)
    for d in (1, 2, 3):
        u = rng.standard_normal((BLOCK_PATHS * d, n))
        got = block_product(u, L)
        assert np.allclose(got, u @ L.T, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_increments_are_the_lifted_sample(d):
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(32)
    chol = cholesky_factor(k, grid)
    for offset in (0, 63, 64, 16_381):
        got = sample_increments(k, grid, d=d, n_paths=150, seed=9,
                                path_offset=offset, chol=chol)
        want = lift_ensemble(sample(k, grid, d=d, n_paths=150, seed=9,
                                    path_offset=offset, chol=chol).data)
        assert got.shape == (150, 32, d)
        assert np.array_equal(got, want)
        # time-major: the transposed view of a contiguous (N, P, d) buffer
        assert got.transpose(1, 0, 2).flags.c_contiguous
        parts = [sample_increments(k, grid, d=d, n_paths=size, seed=9,
                                   path_offset=offset + start, chol=chol)
                 for start, size in ((0, 1), (1, 64), (65, 85))]
        assert np.array_equal(np.concatenate(parts, axis=0), got)


def test_negative_path_offset_is_rejected():
    k, grid = brownian(), TimeGrid.regular(8)
    for draw in (sample, sample_increments):
        with pytest.raises(ValueError, match="path_offset must be >= 0"):
            draw(k, grid, d=1, n_paths=2, seed=0, path_offset=-1)


def test_sample_builds_one_philox_per_call(monkeypatch):
    made = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        made.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    sample(brownian(), TimeGrid.regular(16), d=2, n_paths=50, seed=5)
    assert len(made) == 1


def test_sampler_factor_is_numpy_cholesky():
    # Sampled paths depend on every bit of the factor.
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(256)
    assert np.array_equal(cholesky_factor(k, grid),
                          np.linalg.cholesky(k.gram(grid.nodes[1:])))


def test_jitter_cholesky_ladder():
    chol, jitter = jitter_cholesky(np.eye(3))
    assert jitter == 0.0 and np.array_equal(chol, np.eye(3))
    singular = np.ones((3, 3))          # rank one, trace/n = 1
    chol, jitter = jitter_cholesky(singular)
    assert 1e-12 <= jitter <= 1e-8
    assert np.allclose(chol @ chol.T, singular + jitter * np.eye(3),
                       rtol=0, atol=1e-14)
    with pytest.raises(np.linalg.LinAlgError, match="after jitter"):
        jitter_cholesky(np.diag([1.0, 1.0, -1.0]))


def test_cm_reproducing_property():
    k = FractionalBrownian(0.4)
    for t in (0.25, 0.5, 1.0):
        h = CMElement(k, [t], [1.0])
        assert cm_norm_sq(h) == pytest.approx(k.eval(t, t), rel=1e-12)


def test_cm_norm_example_and_zero():
    k = brownian()
    h = CMElement(k, [0.5, 1.0], [1.0, 1.0])
    assert cm_norm_sq(h) == pytest.approx(2.5, rel=1e-12)
    zero = CMElement(k, [0.5, 1.0], [0.0, 0.0])
    assert cm_norm_sq(zero) == 0.0
    with pytest.raises(ValueError):
        cm_inner(h, CMElement(FractionalBrownian(0.4), [0.5], [1.0]))


def test_cm_eval_values_and_linearity():
    k = brownian()
    h = CMElement(k, [1.0], [1.0])
    assert cm_eval(h, 0.5)[0] == pytest.approx(0.5, abs=1e-14)
    assert cm_eval(h, 0.0)[0] == 0.0
    rng = np.random.default_rng(5)
    nodes = np.sort(rng.uniform(0.05, 1.0, 4))
    a, b = rng.standard_normal((4, 1)), rng.standard_normal((4, 1))
    h1, h2 = CMElement(k, nodes, a), CMElement(k, nodes, b)
    h12 = CMElement(k, nodes, a + b)
    ts = rng.uniform(0, 1, 7)
    np.testing.assert_allclose(cm_eval(h12, ts),
                               cm_eval(h1, ts) + cm_eval(h2, ts),
                               rtol=1e-12, atol=1e-14)


def test_wiener_integral_isometry_single_atom(bm_ensemble):
    k = brownian()
    h = CMElement(k, [1.0], [1.0])
    w = wiener_integral(h, bm_ensemble.data, bm_ensemble.grid)
    var = w[:, 0].var()
    se = var * np.sqrt(2.0 / (bm_ensemble.n_paths - 1))
    assert var == pytest.approx(1.0, abs=5 * se)
    zero = CMElement(k, [1.0], [0.0])
    assert np.all(wiener_integral(zero, bm_ensemble.data,
                                  bm_ensemble.grid) == 0.0)


def test_wiener_integral_covariance_matches_cm_inner():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(64)
    ens = sample(k, grid, n_paths=50_000, seed=13)
    rng = np.random.default_rng(17)
    for _ in range(5):
        nodes = grid.nodes[rng.integers(1, 64, size=3)]
        a, b = rng.standard_normal((3, 1)), rng.standard_normal((3, 1))
        h1, h2 = CMElement(k, nodes, a), CMElement(k, nodes, b)
        w1 = wiener_integral(h1, ens.data, grid)[:, 0]
        w2 = wiener_integral(h2, ens.data, grid)[:, 0]
        want = cm_inner(h1, h2)
        cov = np.mean(w1 * w2) - w1.mean() * w2.mean()
        se = np.std(w1 * w2) / np.sqrt(ens.n_paths)
        assert cov == pytest.approx(want, abs=5 * se + 1e-12)


def test_isometry_over_random_corpus(bm_ensemble):
    k = brownian()
    grid = bm_ensemble.grid
    rng = np.random.default_rng(23)
    for _ in range(100):
        nodes = np.sort(grid.nodes[rng.integers(1, 257, size=3)])
        coeffs = rng.standard_normal((3, 1))
        h = CMElement(k, nodes, coeffs)
        w = wiener_integral(h, bm_ensemble.data, grid)[:, 0]
        var, want = w.var(), cm_norm_sq(h)
        se = max(want, var) * np.sqrt(2.0 / (bm_ensemble.n_paths - 1))
        assert abs(var - want) <= 5 * se


def test_step_inner_against_brute_force():
    k = brownian()
    grid = TimeGrid.regular(8)
    n = grid.n_steps
    ones = np.ones(n)
    # brute-force rectangle sum straight off the covariance
    brute = 0.0
    for i in range(n):
        for j in range(n):
            brute += k.rect_increment(grid.nodes[i], grid.nodes[i + 1],
                                      grid.nodes[j], grid.nodes[j + 1])
    got = step_inner(ones, ones, k, grid)
    assert got == pytest.approx(brute, rel=1e-12)
    assert got == pytest.approx(1.0, rel=1e-12)
    assert step_inner(np.zeros(n), ones, k, grid) == 0.0


def test_step_inner_indicator_gives_sigma_sq():
    k = FractionalBrownian(0.4)
    grid = TimeGrid.regular(16)
    t = 0.75
    ind = (grid.nodes[:-1] < t).astype(float)
    got = step_inner(ind, ind, k, grid)
    assert got == pytest.approx(k.sigma_sq0(t), rel=1e-10)


def test_cm_embedding_into_q_variation():
    rng = np.random.default_rng(29)
    for k in (brownian(), FractionalBrownian(0.4)):
        grid = TimeGrid.regular(256)
        q = q_embedding(k.rho)
        kap = kappa(k, 0.0, 1.0, grid)
        for _ in range(5):
            nodes = np.sort(rng.uniform(0.05, 1.0, 4))
            h = CMElement(k, nodes, rng.standard_normal((4, 1)))
            trace = cm_eval(h, grid.nodes)
            qvar = p_variation(trace, q).value
            assert qvar <= kap * np.sqrt(cm_norm_sq(h)) * 1.05


def test_binary_round_trip(tmp_path):
    k = FractionalBrownian(0.4)
    ens = sample(k, TimeGrid.regular(16), d=2, n_paths=5, seed=2)
    fn = tmp_path / "ens.bin"
    save_ensemble(ens, str(fn))
    back = load_ensemble(str(fn))
    assert back.n_paths == 5 and back.d == 2 and back.seed == 2
    np.testing.assert_array_equal(back.data, ens.data)
    np.testing.assert_allclose(back.grid.nodes, ens.grid.nodes)
    assert back.kernel_spec == ens.kernel_spec


def test_csv_export(tmp_path):
    ens = sample(brownian(), TimeGrid.regular(8), d=1, n_paths=2, seed=4)
    fn = tmp_path / "path.csv"
    export_path_csv(ens, 1, str(fn))
    table = np.loadtxt(fn, delimiter=",", skiprows=1)
    np.testing.assert_allclose(table[:, 0], ens.grid.nodes)
    np.testing.assert_allclose(table[:, 1], ens.data[1, 0, :])
