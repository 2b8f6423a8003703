import math

import numpy as np
import pytest

from roughdensity.fields import (
    FIELD_CATALOG,
    bounded_nonlinear_field,
    degenerate_diag_field,
    ellipticity_scan,
    field_from_spec,
    identity_field,
    rotation_mix_field,
    scalar_linear_field,
)


def fd_check_first(vf, x, h=1e-6):
    """Finite-difference check of dv0/dv at a single state."""
    n = vf.n
    dv0_num = np.zeros((n, n))
    dv_num = np.zeros((n, n, vf.d))
    for b in range(n):
        e = np.zeros(n)
        e[b] = h
        dv0_num[:, b] = (vf.v0(x + e) - vf.v0(x - e)) / (2 * h)
        dv_num[:, b, :] = (vf.v(x + e) - vf.v(x - e)) / (2 * h)
    np.testing.assert_allclose(vf.dv0(x), dv0_num, atol=1e-8)
    np.testing.assert_allclose(vf.dv(x), dv_num, atol=1e-8)


def fd_check_second(vf, x, h=1e-5):
    n = vf.n
    d2v_num = np.zeros((n, n, n, vf.d))
    d2v0_num = np.zeros((n, n, n))
    for c in range(n):
        e = np.zeros(n)
        e[c] = h
        d2v_num[:, :, c, :] = (vf.dv(x + e) - vf.dv(x - e)) / (2 * h)
        d2v0_num[:, :, c] = (vf.dv0(x + e) - vf.dv0(x - e)) / (2 * h)
    np.testing.assert_allclose(vf.d2v(x), d2v_num, atol=1e-6)
    np.testing.assert_allclose(vf.d2v0(x), d2v0_num, atol=1e-6)


@pytest.mark.parametrize("name", sorted(FIELD_CATALOG))
def test_analytic_derivatives_match_finite_differences(name):
    vf = field_from_spec(name)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-2, 2, vf.n)
        fd_check_first(vf, x)
        fd_check_second(vf, x)


def test_broadcasting_shapes():
    vf = rotation_mix_field()
    x = np.zeros((7, 5, 2))
    assert vf.v(x).shape == (7, 5, 2, 2)
    assert vf.dv(x).shape == (7, 5, 2, 2, 2)
    assert vf.d2v(x).shape == (7, 5, 2, 2, 2, 2)
    assert vf.v0(x).shape == (7, 5, 2)


def test_ellipticity_identity():
    assert ellipticity_scan(identity_field(2)) == pytest.approx(1.0)


def test_ellipticity_degenerate_flagged():
    lam = ellipticity_scan(degenerate_diag_field())
    assert lam == pytest.approx(0.0, abs=1e-12)


def test_ellipticity_rotation_mix_cross_checked():
    vf = rotation_mix_field(0.1)
    lam = ellipticity_scan(vf, seed=1)
    assert 0.0 < lam < 1.0
    # dense eigen-solve oracle on the same sampled points
    rng = np.random.Generator(np.random.Philox(key=1))
    x = -3.0 + 6.0 * rng.random((1000, 2))
    vv = vf.v(x)
    lam_oracle = min(np.linalg.eigvalsh(m @ m.T)[0] for m in vv)
    assert lam == pytest.approx(lam_oracle, rel=1e-12)


def test_bounded_nonlinear_is_elliptic():
    vf = bounded_nonlinear_field()
    assert ellipticity_scan(vf) >= 1.0 - 1e-12
    assert vf.elliptic_lambda == pytest.approx(1.0)


def test_scalar_linear_values():
    vf = scalar_linear_field(2.0)
    x = np.array([[3.0]])
    assert vf.v(x)[0, 0, 0] == 6.0
    with pytest.raises(KeyError):
        field_from_spec("nope")


def closed_form(name, x):
    """The six callables of catalog field ``name`` at one state ``x``
    (default parameters), entry by entry from the formulas in scalar math:
    v0, v, dv0, dv, d2v0, d2v with dv[a, b, j] = d V_j^a / d x^b."""
    n = x.size
    v0, v = np.zeros(n), np.zeros((n, n))
    dv0, dv = np.zeros((n, n)), np.zeros((n, n, n))
    d2v0, d2v = np.zeros((n, n, n)), np.zeros((n, n, n, n))
    if name == "identity":
        v[:] = np.eye(n)
    elif name == "scalar_linear":
        v[0, 0], dv[0, 0, 0] = x[0], 1.0
    elif name == "linear_drift":
        v0[0], dv0[0, 0] = -x[0], -1.0
    elif name == "bounded_nonlinear":
        t = math.tanh(x[0])
        s2 = 1 - t * t
        v0[0], v[0, 0] = -0.25 * t, 1 + 0.5 * t * t
        dv0[0, 0], dv[0, 0, 0] = -0.25 * s2, t * s2
        d2v0[0, 0, 0], d2v[0, 0, 0, 0] = 0.5 * t * s2, s2 * (1 - 3 * t * t)
    elif name == "rotation_mix":
        a, (x1, x2) = 0.1, x
        s, m = x1 + x2, x1 - x2
        # entry (row, column) of V with its gradient and Hessian in x
        entries = {
            (0, 0): (1 + a * math.sin(s), a * math.cos(s) * np.ones(2),
                     -a * math.sin(s) * np.ones((2, 2))),
            (0, 1): (a * math.cos(x1), [-a * math.sin(x1), 0.0],
                     [[-a * math.cos(x1), 0.0], [0.0, 0.0]]),
            (1, 0): (a * math.sin(x2), [0.0, a * math.cos(x2)],
                     [[0.0, 0.0], [0.0, -a * math.sin(x2)]]),
            (1, 1): (1 + a * math.cos(m), [-a * math.sin(m), a * math.sin(m)],
                     -a * math.cos(m) * np.array([[1.0, -1.0], [-1.0, 1.0]])),
        }
        for (i, j), (val, grad, hess) in entries.items():
            v[i, j], dv[i, :, j], d2v[i, :, :, j] = val, grad, hess
    elif name == "degenerate_diag":
        v[0, 0] = 1.0
    else:
        raise KeyError(name)
    return v0, v, dv0, dv, d2v0, d2v


CALLABLES = ("v0", "v", "dv0", "dv", "d2v0", "d2v")


@pytest.mark.parametrize("batch", [(), (5,), (5, 3)], ids=str)
@pytest.mark.parametrize("name", sorted(FIELD_CATALOG))
def test_catalog_fields_match_closed_forms(name, batch):
    vf = field_from_spec(name)
    x = np.random.default_rng(53).uniform(-2, 2, batch + (vf.n,))
    for attr, want_at in zip(CALLABLES, zip(*[
            closed_form(name, x[i]) for i in np.ndindex(batch)])):
        got = getattr(vf, attr)(x)
        assert got.dtype == np.float64, attr
        assert got.shape == batch + want_at[0].shape, attr
        np.testing.assert_allclose(got, np.stack(want_at).reshape(got.shape),
                                   rtol=1e-15, atol=1e-15,
                                   err_msg=f"{name}.{attr}")
