"""Property tests over randomized inputs for the algebraic invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from _gate_oracle import oracle_scans
from roughdensity.diagnostics import (
    _scan_diagonal_dominance,
    _scan_negative_correlation,
)
from roughdensity.kernels import (
    BiFractionalBrownian,
    FractionalBrownian,
    TimeGrid,
    brownian,
)
from roughdensity.lift import lift, p_variation

times = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                  allow_infinity=False)
# keeps rho = 1/(2 H K) below 3/2 for the bifbm branch with K = 0.95
hursts = st.floats(min_value=0.36, max_value=0.5)


@given(h=hursts, s=times, t=times)
@settings(max_examples=200, deadline=None)
def test_kernel_symmetry(h, s, t):
    k = FractionalBrownian(h)
    assert k.eval(s, t) == k.eval(t, s)


@given(h=hursts, pts=st.lists(times, min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_rect_increment_additivity(h, pts):
    s, m, t, u, v = np.sort(pts)
    k = BiFractionalBrownian(h, 0.95) if h < 0.45 else FractionalBrownian(h)
    whole = k.rect_increment(s, t, u, v)
    split = k.rect_increment(s, m, u, v) + k.rect_increment(m, t, u, v)
    scale = max(abs(whole), abs(split), 1e-9)
    assert abs(whole - split) <= 1e-12 * scale + 1e-14


@given(seed=st.integers(min_value=0, max_value=10_000),
       p1=st.floats(min_value=1.0, max_value=3.0),
       p2=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_p_variation_monotone_in_p(seed, p1, p2):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.standard_normal(33)) * 0.2
    pa, pb = p1, p1 + p2
    assert p_variation(vals, pb).value <= p_variation(vals, pa).value + 1e-10


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_lift_symmetric_part_is_half_square(seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid.regular(8)
    vals = np.cumsum(np.r_[np.zeros((1, 2)),
                           rng.standard_normal((8, 2)) * 0.3], axis=0)
    rp = lift(vals, grid)
    i, j = sorted(rng.integers(0, 9, size=2))
    x2 = rp.level2(i, j)
    dx = rp.level1(i, j)
    sym = 0.5 * (x2 + x2.T)
    assert np.abs(sym - 0.5 * np.outer(dx, dx)).max() <= 1e-13


@given(eps_pow=st.integers(min_value=-3, max_value=1),
       seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_power_of_two_scaling_is_bitwise(eps_pow, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid.regular(8)
    vals = np.cumsum(np.r_[np.zeros((1, 1)),
                           rng.standard_normal((8, 1)) * 0.3], axis=0)
    rp = lift(vals, grid)
    eps = 2.0 ** eps_pow
    scaled = rp.scale(eps)
    relift = lift(eps * vals, grid)
    assert np.array_equal(scaled.step1, relift.step1)
    assert np.array_equal(scaled.step2, relift.step2)


@st.composite
def symmetric_int_matrices(draw):
    """Symmetric m x m, m in [5, 12], entries in {-2..2}, optionally plus
    {-2..2} x 2^-52 so that subtractions round distinct values together."""
    m = draw(st.integers(min_value=5, max_value=12))
    ints = st.lists(st.integers(min_value=-2, max_value=2),
                    min_size=m * m, max_size=m * m)
    a = np.asarray(draw(ints), dtype=float).reshape(m, m)
    a += draw(st.sampled_from([0.0, 2.0 ** -52])) * np.asarray(
        draw(ints), dtype=float).reshape(m, m)
    return np.triu(a) + np.triu(a, 1).T


@given(g=symmetric_int_matrices())
@settings(max_examples=1000, deadline=None)
def test_sign_scans_match_oracle_on_dense_ties(g):
    # small integer entries tie on many quadruples: the witness must still
    # be the oracle's lexicographically first one
    assert (_scan_negative_correlation(g),
            _scan_diagonal_dominance(g)) == oracle_scans(g)
