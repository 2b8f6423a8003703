"""Vector-field systems driving the flows, with analytic derivatives.

Callables broadcast over leading axes: the state has shape (..., n) and
values come back as (..., n), (..., n, d), (..., n, n), etc.  Index
conventions: dv[..., a, b, j] = d V_j^a / d x^b and
d2v[..., a, b, c, j] = d^2 V_j^a / d x^b d x^c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# `ellipticity_scan` samples this many states in the box [lo, hi]^n.
ELLIPTICITY_BOX = (-3.0, 3.0)
ELLIPTICITY_SAMPLES = 1000


class NonEllipticError(RuntimeError):
    """Ellipticity certificate failed: lambda_hat <= 0."""


@dataclass(frozen=True)
class VectorFieldSystem:
    name: str
    n: int
    d: int
    v0: Callable
    v: Callable
    dv0: Callable
    dv: Callable
    d2v0: Callable
    d2v: Callable
    elliptic_lambda: float | None = None

    def __repr__(self):
        return f"VectorFieldSystem({self.name}, n={self.n}, d={self.d})"


def _zeros_like_shape(x, *shape):
    return np.zeros(x.shape[:-1] + shape)


def identity_field(n: int = 1) -> VectorFieldSystem:
    """Additive noise: V = Id, V0 = 0."""
    eye = np.eye(n)

    return VectorFieldSystem(
        name="identity", n=n, d=n,
        v0=lambda x: np.zeros(x.shape),
        v=lambda x: np.zeros(x.shape[:-1] + (n, n)) + eye,
        dv0=lambda x: _zeros_like_shape(x, n, n),
        dv=lambda x: _zeros_like_shape(x, n, n, n),
        d2v0=lambda x: _zeros_like_shape(x, n, n, n),
        d2v=lambda x: _zeros_like_shape(x, n, n, n, n),
        elliptic_lambda=1.0)


def scalar_linear_field(sigma: float = 1.0) -> VectorFieldSystem:
    """Geometric 1D fixture V(z) = sigma z (test oracle only: unbounded)."""
    return VectorFieldSystem(
        name="scalar_linear", n=1, d=1,
        v0=lambda x: np.zeros(x.shape),
        v=lambda x: sigma * x[..., None],
        dv0=lambda x: _zeros_like_shape(x, 1, 1),
        dv=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)) + sigma,
        d2v0=lambda x: _zeros_like_shape(x, 1, 1, 1),
        d2v=lambda x: _zeros_like_shape(x, 1, 1, 1, 1),
        elliptic_lambda=None)


def linear_drift_field(rate: float = -1.0) -> VectorFieldSystem:
    """Pure drift dz = rate * z dt (noise block zero); ODE test fixture."""
    return VectorFieldSystem(
        name="linear_drift", n=1, d=1,
        v0=lambda x: rate * x,
        v=lambda x: _zeros_like_shape(x, 1, 1),
        dv0=lambda x: np.zeros(x.shape[:-1] + (1, 1)) + rate,
        dv=lambda x: _zeros_like_shape(x, 1, 1, 1),
        d2v0=lambda x: _zeros_like_shape(x, 1, 1, 1),
        d2v=lambda x: _zeros_like_shape(x, 1, 1, 1, 1),
        elliptic_lambda=None)


def bounded_nonlinear_field(a: float = 0.5, drift: float = -0.25
                            ) -> VectorFieldSystem:
    """1D C_b^infinity fixture V(z) = 1 + a tanh(z)^2 (even, so the noise
    scale is symmetric about zero), V0(z) = drift * tanh(z); uniformly
    elliptic with lambda = 1 for a >= 0."""
    if a < 0:
        raise ValueError("need a >= 0 for ellipticity")

    def v0(x):
        return drift * np.tanh(x)

    def v(x):
        t = np.tanh(x)
        return (1.0 + a * t * t)[..., None]

    def dv0(x):
        t = np.tanh(x)
        return (drift * (1 - t ** 2))[..., None]

    def dv(x):
        t = np.tanh(x)
        return (2 * a * t * (1 - t ** 2))[..., None, None]

    def d2v0(x):
        t = np.tanh(x)
        return (-2 * drift * t * (1 - t ** 2))[..., None, None]

    def d2v(x):
        t = np.tanh(x)
        s2 = 1 - t ** 2
        return (2 * a * s2 * (1 - 3 * t * t))[..., None, None, None]

    return VectorFieldSystem(
        name="bounded_nonlinear", n=1, d=1,
        v0=v0, v=v, dv0=dv0, dv=dv, d2v0=d2v0, d2v=d2v,
        elliptic_lambda=1.0)


def rotation_mix_field(amp: float = 0.1) -> VectorFieldSystem:
    """2D fixture V(x) = Id + amp * trigonometric mix; elliptic for small
    amp, all derivatives analytic."""
    if not 0 <= amp < 0.4:
        raise ValueError("amp must stay well below ellipticity loss")

    def v0(x):
        return np.zeros(x.shape)

    def v(x):
        x1, x2 = x[..., 0], x[..., 1]
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1 + amp * np.sin(x1 + x2)
        out[..., 0, 1] = amp * np.cos(x1)
        out[..., 1, 0] = amp * np.sin(x2)
        out[..., 1, 1] = 1 + amp * np.cos(x1 - x2)
        return out

    def dv(x):
        x1, x2 = x[..., 0], x[..., 1]
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        sm = amp * np.sin(x1 - x2)
        # component (a, b, j) = d V_j^a / d x^b
        out[..., 0, 0, 0] = out[..., 0, 1, 0] = amp * np.cos(x1 + x2)
        out[..., 0, 0, 1] = -amp * np.sin(x1)
        out[..., 1, 1, 0] = amp * np.cos(x2)
        out[..., 1, 0, 1] = -sm
        out[..., 1, 1, 1] = sm
        return out

    def d2v(x):
        x1, x2 = x[..., 0], x[..., 1]
        out = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
        cm = amp * np.cos(x1 - x2)
        # V_0^0 = 1 + amp sin(x1+x2)
        out[..., 0, :, :, 0] = (-amp * np.sin(x1 + x2))[..., None, None]
        # V_1^0 = amp cos(x1)
        out[..., 0, 0, 0, 1] = -amp * np.cos(x1)
        # V_0^1 = amp sin(x2)
        out[..., 1, 1, 1, 0] = -amp * np.sin(x2)
        # V_1^1 = 1 + amp cos(x1-x2)
        out[..., 1, 0, 0, 1] = out[..., 1, 1, 1, 1] = -cm
        out[..., 1, 0, 1, 1] = out[..., 1, 1, 0, 1] = cm
        return out

    return VectorFieldSystem(
        name="rotation_mix", n=2, d=2,
        v0=v0, v=v,
        dv0=lambda x: _zeros_like_shape(x, 2, 2),
        dv=dv,
        d2v0=lambda x: _zeros_like_shape(x, 2, 2, 2),
        d2v=d2v,
        elliptic_lambda=None)


def degenerate_diag_field() -> VectorFieldSystem:
    """Rank-deficient V = diag(1, 0): negative control for the
    ellipticity scan."""
    mat = np.diag([1.0, 0.0])
    return VectorFieldSystem(
        name="degenerate_diag", n=2, d=2,
        v0=lambda x: np.zeros(x.shape),
        v=lambda x: np.zeros(x.shape[:-1] + (2, 2)) + mat,
        dv0=lambda x: _zeros_like_shape(x, 2, 2),
        dv=lambda x: _zeros_like_shape(x, 2, 2, 2),
        d2v0=lambda x: _zeros_like_shape(x, 2, 2, 2),
        d2v=lambda x: _zeros_like_shape(x, 2, 2, 2, 2),
        elliptic_lambda=0.0)


FIELD_CATALOG: dict[str, Callable[..., VectorFieldSystem]] = {
    "identity": identity_field,
    "scalar_linear": scalar_linear_field,
    "linear_drift": linear_drift_field,
    "bounded_nonlinear": bounded_nonlinear_field,
    "rotation_mix": rotation_mix_field,
    "degenerate_diag": degenerate_diag_field,
}


def field_from_spec(name: str, params: dict | None = None) -> VectorFieldSystem:
    if name not in FIELD_CATALOG:
        raise KeyError(f"unknown vector field fixture: {name!r}")
    return FIELD_CATALOG[name](**(params or {}))


def ellipticity_scan(vf: VectorFieldSystem, seed: int = 0) -> float:
    """Certificate lambda_hat = min over uniform states in the box of the
    smallest eigenvalue of V(x) V(x)^T (<= 0 flags the field as
    non-elliptic)."""
    lo, hi = ELLIPTICITY_BOX
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = lo + (hi - lo) * rng.random((ELLIPTICITY_SAMPLES, vf.n))
    vv = vf.v(x)
    gram = np.einsum("pij,pkj->pik", vv, vv)
    eigs = np.linalg.eigvalsh(gram)
    return float(eigs[:, 0].min())
