import json

import numpy as np
import pytest

from roughdensity.kernels import (
    BiFractionalBrownian,
    FourierKernel,
    FractionalBrownian,
    FractionalOU,
    ParameterError,
    StationaryKernel,
    SumFractionalBrownian,
    TimeGrid,
    brownian,
    kernel_from_spec,
    power_variogram,
)

# frozen closed-form values (high-precision scalar arithmetic on the
# fBm covariance identity)
FBM04_ADJACENT_COV = 0.5 * (2.0 ** 0.8 - 2.0)        # -0.129449436703876
FBM04_SIGMA_SQ_HALF = 0.5 ** 0.8                     # gap 0.5


def catalog(horizon=1.0):
    return [
        FractionalBrownian(0.4, horizon=horizon),
        brownian(horizon),
        BiFractionalBrownian(0.45, 0.9, horizon=horizon),
        SumFractionalBrownian(0.4, 0.5, horizon=horizon),
        kernel_from_spec({"family": "stationary",
                          "F": {"kind": "power", "c": 1.0, "p": 0.8},
                          "T": horizon, "rho": 1.25}),
        FourierKernel(rho=1.25, k_max=512, horizon=horizon),
        FractionalOU(0.4, 1.0, horizon=horizon),
    ]


def test_brownian_eval_is_min():
    k = brownian()
    assert k.eval(0.5, 0.75) == pytest.approx(0.5, abs=1e-15)
    assert k.eval(0.75, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_bifbm_with_k_one_reduces_to_fbm():
    bi = BiFractionalBrownian(0.4, 1.0)
    fbm = FractionalBrownian(0.4)
    assert bi.eval(0.3, 0.9) == pytest.approx(fbm.eval(0.3, 0.9), abs=1e-15)


def test_fbm_adjacent_increment_covariance():
    k = FractionalBrownian(0.4, horizon=2.0)
    got = k.rect_increment(0.0, 1.0, 1.0, 2.0)
    assert got == pytest.approx(FBM04_ADJACENT_COV, abs=1e-12)


def test_rect_increment_basics():
    k = brownian()
    assert k.rect_increment(0.0, 0.5, 0.5, 1.0) == pytest.approx(0.0, abs=1e-15)
    for kern in catalog():
        assert kern.rect_increment(0.3, 0.3, 0.1, 0.9) == pytest.approx(0.0, abs=1e-12)


def test_sigma_sq_closed_forms():
    k = FractionalBrownian(0.4)
    assert k.sigma_sq(0.2, 0.7) == pytest.approx(FBM04_SIGMA_SQ_HALF, abs=1e-14)
    stat = StationaryKernel(lambda x: np.abs(x), rho=1.0)
    assert stat.sigma_sq(0.25, 0.5) == pytest.approx(0.25, abs=1e-14)
    for kern in catalog():
        assert kern.sigma_sq(0.4, 0.4) == 0.0


def test_catalog_starts_at_zero_and_symmetric():
    rng = np.random.default_rng(0)
    s, t = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)
    for kern in catalog():
        assert kern.eval(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(kern.eval(s, t), kern.eval(t, s),
                                   rtol=0, atol=1e-14)
        assert np.all(kern.eval(t, t) >= 0)


def test_gram_psd_after_jitter():
    grid = TimeGrid.regular(32)
    for kern in catalog():
        g = kern.gram(grid.nodes[1:])
        jitter = 1e-12 * np.trace(g) / g.shape[0]
        np.linalg.cholesky(g + jitter * np.eye(g.shape[0]))


def test_rect_additivity_in_first_argument():
    rng = np.random.default_rng(1)
    for kern in catalog():
        for _ in range(10):
            s, m, t = np.sort(rng.uniform(0, 1, 3))
            u, v = np.sort(rng.uniform(0, 1, 2))
            whole = kern.rect_increment(s, t, u, v)
            split = kern.rect_increment(s, m, u, v) + kern.rect_increment(m, t, u, v)
            assert whole == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        FractionalBrownian(1.2)
    with pytest.raises(ParameterError):
        BiFractionalBrownian(0.8, 0.9)       # H*K > 1/2
    with pytest.raises(ParameterError):
        BiFractionalBrownian(0.4, 1.5)
    with pytest.raises(ParameterError):
        FractionalBrownian(0.2)              # rho >= 3/2 needs level-3 lifts
    with pytest.raises(ParameterError):
        StationaryKernel(lambda x: x + 1.0, rho=1.0)   # F(0) != 0


def test_json_round_trip():
    spec = {"family": "fbm", "H": 0.4, "T": 1.0, "rho": 1.25}
    k = kernel_from_spec(spec)
    assert k.to_spec() == spec
    assert json.loads(json.dumps(k.to_spec())) == spec
    for kern in catalog():
        again = kernel_from_spec(kern.to_spec())
        assert again.label == kern.label
        assert again.eval(0.3, 0.8) == pytest.approx(kern.eval(0.3, 0.8),
                                                     rel=1e-9, abs=1e-12)


def test_fourier_is_recentered_stationary_series():
    k = FourierKernel(rho=1.25, k_max=256)
    # against a direct evaluation of the re-centered cosine series
    ks = np.arange(1, 257.0)
    a2 = ks ** (-(1 + 1 / 1.25))
    K = lambda x: float(a2 @ np.cos(ks * x))
    s, t = 0.3, 0.75
    expect = K(0.0) - K(s) - K(t) + K(abs(t - s))
    assert k.eval(s, t) == pytest.approx(expect, rel=1e-12)
    assert k.truncation_error > 0


def test_fou_variance_scales_like_t_2h():
    # sigma_t^2 ~ C t^(2H) near zero for the spectral-density kernel
    k = FractionalOU(0.4, 1.0)
    ts = np.array([0.01, 0.02, 0.04, 0.08])
    sig = np.array([k.sigma_sq0(t) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(sig), 1)[0]
    assert slope == pytest.approx(2 * 0.4, abs=0.06)


def test_grid_construction():
    grid = TimeGrid.regular(8, horizon=2.0)
    assert grid.n_steps == 8
    assert grid.mesh == pytest.approx(0.25)
    with pytest.raises(ValueError):
        TimeGrid(nodes=np.array([0.1, 0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(nodes=np.array([0.0, 0.5, 0.5]))
    assert grid.index_of(0.5) == 2
    with pytest.raises(ValueError):
        grid.index_of(0.3)


@pytest.mark.parametrize("kern", [FourierKernel(rho=1.25, k_max=512),
                                  FractionalOU(0.4, 1.0)],
                         ids=["fourier", "fou"])
def test_recentered_gram_is_elementwise_formula(kern):
    # K once per unique gap gives exactly K(0) - K(s) - K(t) + K(|t - s|)
    nodes = TimeGrid.regular(16).nodes
    s, t = np.meshgrid(nodes, nodes, indexing="ij")
    K = lambda x: kern._K(x.ravel()).reshape(x.shape)
    want = kern._K0 - K(s) - K(t) + K(np.abs(t - s))
    assert np.array_equal(kern.gram(nodes), want)
