"""Covariance kernel catalog and the rectangular-increment algebra.

Every kernel exposes a symmetric covariance ``eval(s, t)`` on ``[0, T]^2``
normalized so that ``eval(0, 0) = 0`` (processes start at zero), a declared
variation exponent ``rho`` in ``[1, 3/2)``, and JSON (de)serialization so
kernels can travel through run configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ParameterError(ValueError):
    """Kernel parameters outside their admissible domain."""


class QuadratureError(RuntimeError):
    """Spectral quadrature failed to reach the requested tolerance."""


def jitter_cholesky(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``mat + jitter * I`` and the jitter it
    needed: 0, then 1e-12 ... 1e-8 times trace/n."""
    base, eye = float(np.trace(mat)) / mat.shape[0], np.eye(mat.shape[0])
    for jitter in [0.0] + [base * 10.0 ** k for k in range(-12, -7)]:
        try:
            return np.linalg.cholesky(mat + jitter * eye), jitter
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("covariance matrix not PSD after jitter")


# Level-2 lifts only: declared rho must stay below 3/2.
RHO_MAX = 1.5


@dataclass(frozen=True)
class TimeGrid:
    """Ordered partition ``0 = t_0 < t_1 < ... < t_N = T`` carrying all
    discrete objects."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def regular(cls, n_steps: int, horizon: float = 1.0) -> "TimeGrid":
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        return cls(nodes=np.linspace(0.0, horizon, n_steps + 1))

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.nodes)))

    @property
    def dts(self) -> np.ndarray:
        return np.diff(self.nodes)

    def refine(self, factor: int) -> "TimeGrid":
        """Subdivide every cell into ``factor`` equal parts."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        if factor == 1:
            return self
        left = self.nodes[:-1]
        steps = np.diff(self.nodes)
        sub = left[:, None] + steps[:, None] * (np.arange(factor) / factor)
        return TimeGrid(nodes=np.append(sub.ravel(), self.nodes[-1]))

    def index_of(self, t: float) -> int:
        idx = int(np.searchsorted(self.nodes, t))
        if idx >= self.nodes.size or not math.isclose(self.nodes[idx], t,
                                                      rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"time {t} is not a grid node")
        return idx


class CovKernel:
    """Base class: a covariance function with declared variation exponent."""

    family = "abstract"

    def __init__(self, rho: float, horizon: float):
        if not 1.0 <= rho < RHO_MAX:
            raise ParameterError(
                f"rho={rho} outside [1, {RHO_MAX}); level-2 lifts cover rho < 3/2")
        if horizon <= 0:
            raise ParameterError("horizon must be positive")
        self.rho = float(rho)
        self.horizon = float(horizon)

    # subclasses implement the raw covariance on arrays
    def _eval(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, s, t):
        """Covariance R(s, t), symmetric, with R(0, 0) = 0."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        out = self._eval(*np.broadcast_arrays(s, t))
        return float(out) if out.ndim == 0 else out

    def gram(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=float)
        return self.eval(nodes[:, None], nodes[None, :])

    def rect_increment(self, s, t, u, v):
        """E[(X_t - X_s)(X_v - X_u)] via the four-corner formula."""
        return self.eval(t, v) - self.eval(t, u) - self.eval(s, v) + self.eval(s, u)

    def sigma_sq(self, s, t):
        """Increment variance E[(X_t - X_s)^2]."""
        return self.rect_increment(s, t, s, t)

    def sigma_sq0(self, t):
        """Variance E[X_t^2] = sigma_sq(0, t)."""
        return self.eval(t, t)

    @property
    def label(self) -> str:
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return self.label


class FractionalBrownian(CovKernel):
    """Fractional Brownian motion with Hurst parameter H."""

    family = "fbm"

    def __init__(self, H: float, horizon: float = 1.0, rho: float | None = None):
        if not 0.0 < H < 1.0:
            raise ParameterError(f"H={H} outside (0, 1)")
        self.H = float(H)
        super().__init__(rho if rho is not None else max(1.0, 1.0 / (2 * H)), horizon)

    def _eval(self, s, t):
        h2 = 2 * self.H
        return 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(t - s) ** h2)

    @property
    def label(self):
        return f"fbm(H={self.H:g})"

    def to_spec(self):
        return {"family": "fbm", "H": self.H, "T": self.horizon, "rho": self.rho}


class BiFractionalBrownian(CovKernel):
    """Bifractional Brownian motion, self-similar with index H*K."""

    family = "bifbm"

    def __init__(self, H: float, K: float, horizon: float = 1.0,
                 rho: float | None = None):
        if not 0.0 < H < 1.0:
            raise ParameterError(f"H={H} outside (0, 1)")
        if not 0.0 < K <= 1.0:
            raise ParameterError(f"K={K} outside (0, 1]")
        if H * K > 0.5:
            raise ParameterError(f"H*K={H * K:g} exceeds 1/2")
        self.H = float(H)
        self.K = float(K)
        super().__init__(rho if rho is not None else max(1.0, 1.0 / (2 * H * K)),
                         horizon)

    def _eval(self, s, t):
        h2, K = 2 * self.H, self.K
        return 2.0 ** (-K) * ((np.abs(s) ** h2 + np.abs(t) ** h2) ** K
                              - np.abs(t - s) ** (h2 * K))

    @property
    def label(self):
        return f"bifbm(H={self.H:g},K={self.K:g})"

    def to_spec(self):
        return {"family": "bifbm", "H": self.H, "K": self.K,
                "T": self.horizon, "rho": self.rho}


class StationaryKernel(CovKernel):
    """Stationary-increment kernel R(s,t) = (F(s) + F(t) - F(|t-s|)) / 2 for
    a non-negative F with F(0) = 0 (concave, non-decreasing in the catalog)."""

    family = "stationary"

    def __init__(self, F: Callable[[np.ndarray], np.ndarray], rho: float,
                 horizon: float = 1.0, label: str = "stationary(F)",
                 spec: dict | None = None):
        f0 = float(np.asarray(F(np.zeros(1)))[0])
        if abs(f0) > 1e-14:
            raise ParameterError("F(0) must be 0")
        self.F = F
        self._label = label
        self._spec = spec
        super().__init__(rho, horizon)

    def _eval(self, s, t):
        return 0.5 * (self.F(np.abs(s)) + self.F(np.abs(t)) - self.F(np.abs(t - s)))

    @property
    def label(self):
        return self._label

    def to_spec(self):
        if self._spec is None:
            raise ValueError("programmatic F has no JSON form")
        return dict(self._spec)


def power_variogram(c: float, p: float) -> Callable[[np.ndarray], np.ndarray]:
    if c <= 0 or not 0 < p <= 1:
        raise ParameterError("power variogram needs c > 0 and 0 < p <= 1")
    return lambda x: c * np.abs(x) ** p


class SumFractionalBrownian(StationaryKernel):
    """Sum of two independent fBms: F(x) = x^(2 H1) + x^(2 H2)."""

    family = "sum_fbm"

    def __init__(self, H1: float, H2: float, horizon: float = 1.0,
                 rho: float | None = None):
        for h in (H1, H2):
            if not 0.0 < h <= 0.5:
                raise ParameterError(f"H={h} outside (0, 1/2]")
        self.H1, self.H2 = float(H1), float(H2)
        hmin = min(H1, H2)
        rho = rho if rho is not None else max(1.0, 1.0 / (2 * hmin))
        F = lambda x: np.abs(x) ** (2 * self.H1) + np.abs(x) ** (2 * self.H2)
        super().__init__(
            F, rho, horizon, label=f"sum_fbm(H1={H1:g},H2={H2:g})",
            spec={"family": "sum_fbm", "H1": self.H1, "H2": self.H2,
                  "T": horizon, "rho": rho})


class RecenteredStationary(CovKernel):
    """Stationary process re-centered to start at zero:
    R(s, t) = K(0) - K(s) - K(t) + K(|t - s|) for a stationary covariance K.

    Subclasses supply the vectorized ``_K`` and ``_K0 = K(0)``; grids reuse
    a small set of gaps, so K is evaluated once per unique point.
    """

    def _K(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _eval(self, s, t):
        shape = s.shape
        s, t = s.ravel(), t.ravel()
        pts = np.concatenate([s, t, np.abs(t - s)])
        uniq, inverse = np.unique(pts, return_inverse=True)
        kv = self._K(uniq)[inverse]
        m = s.size
        out = self._K0 - kv[:m] - kv[m:2 * m] + kv[2 * m:]
        return out.reshape(shape)


class FourierKernel(RecenteredStationary):
    """Stationary random Fourier series on [0, 2*pi], re-centered to start
    at zero.

    The symmetric coefficient rule is alpha_k^2 = C * k^(-(1 + 1/rho))
    (model case) or a user-supplied array; the series is truncated at
    ``k_max`` and the summable tail is reported as ``truncation_error``.
    """

    family = "fourier"

    def __init__(self, rho: float, C: float = 1.0, k_max: int = 4096,
                 horizon: float = 1.0,
                 coefficients: np.ndarray | None = None):
        if horizon > 2 * math.pi:
            raise ParameterError("fourier kernels live on [0, 2*pi]")
        if k_max < 1:
            raise ParameterError("k_max must be >= 1")
        self.C = float(C)
        self.k_max = int(k_max)
        k = np.arange(1, self.k_max + 1, dtype=float)
        if coefficients is not None:
            coefficients = np.asarray(coefficients, dtype=float)
            if coefficients.shape != (self.k_max,) or np.any(coefficients < 0):
                raise ParameterError("coefficients must be k_max non-negative values")
            self.alpha_sq = coefficients
            self.truncation_error = 0.0
        else:
            if C <= 0:
                raise ParameterError("C must be positive")
            self.alpha_sq = C * k ** (-(1.0 + 1.0 / rho))
            # tail bound: sum_{k > k_max} C k^(-(1+1/rho)) <= C rho k_max^(-1/rho)
            self.truncation_error = C * rho * self.k_max ** (-1.0 / rho)
        self._k = k
        self._K0 = float(self.alpha_sq.sum())
        super().__init__(rho, horizon)

    def _K(self, x: np.ndarray) -> np.ndarray:
        return np.cos(np.multiply.outer(x, self._k)) @ self.alpha_sq

    @property
    def label(self):
        return f"fourier(rho={self.rho:g},C={self.C:g},k_max={self.k_max})"

    def to_spec(self):
        return {"family": "fourier", "rho": self.rho, "C": self.C,
                "k_max": self.k_max, "T": self.horizon}


class FractionalOU(RecenteredStationary):
    """Stationary process with the fractional Ornstein-Uhlenbeck spectral
    density, re-centered to start at zero.

    K(x) = 2 c_H * int_0^inf cos(x xi) xi^(1-2H) / (lambda^2 + xi^2) dxi,
    evaluated by adaptive quadrature with oscillatory weighting; values are
    memoized per gap.
    """

    family = "fou"

    def __init__(self, H: float, lam: float, horizon: float = 1.0,
                 rho: float | None = None, quad_rtol: float = 1e-10):
        if not 0.0 < H < 1.0:
            raise ParameterError(f"H={H} outside (0, 1)")
        if lam <= 0:
            raise ParameterError("lambda must be positive")
        self.H = float(H)
        self.lam = float(lam)
        self.quad_rtol = float(quad_rtol)
        self.c_H = math.gamma(2 * H + 1) * math.sin(math.pi * H) / (2 * math.pi)
        self._cache: dict[float, float] = {}
        super().__init__(rho if rho is not None else max(1.0, 1.0 / (2 * H)), horizon)
        self._K0 = self._K_scalar(0.0)

    def _density(self, xi):
        return xi ** (1.0 - 2.0 * self.H) / (self.lam ** 2 + xi ** 2)

    def _K_scalar(self, x: float) -> float:
        x = abs(float(x))
        hit = self._cache.get(x)
        if hit is not None:
            return hit
        from scipy.integrate import quad   # only this kernel needs scipy
        if x == 0.0:
            val, err = quad(self._density, 0.0, np.inf, epsabs=0.0,
                            epsrel=self.quad_rtol, limit=400)
            scale = abs(val)
        else:
            # Fourier-weighted quadrature on [0, inf) honours epsabs only;
            # anchor it to the kernel scale K(0).
            scale = abs(self._K_scalar(0.0) / (2.0 * self.c_H))
            val, err = quad(self._density, 0.0, np.inf, weight="cos", wvar=x,
                            epsabs=self.quad_rtol * scale, limlst=400, limit=400)
        if err > 10.0 * self.quad_rtol * max(scale, 1e-30):
            raise QuadratureError(
                f"spectral quadrature error {err:.2e} above tolerance at gap {x:g}")
        out = 2.0 * self.c_H * val
        self._cache[x] = out
        return out

    def _K(self, x: np.ndarray) -> np.ndarray:
        return np.array([self._K_scalar(v) for v in x], dtype=float)

    @property
    def label(self):
        return f"fou(H={self.H:g},lam={self.lam:g})"

    def to_spec(self):
        return {"family": "fou", "H": self.H, "lam": self.lam,
                "T": self.horizon, "rho": self.rho}


def kernel_spec(kernel: CovKernel) -> dict:
    """The kernel's JSON spec, or only its family when it has no JSON form
    (a stationary kernel built from a Python F)."""
    try:
        return kernel.to_spec()
    except ValueError:
        return {"family": kernel.family}


def kernel_from_spec(spec: dict) -> CovKernel:
    """Build a kernel from its JSON form, e.g.
    ``{"family": "fbm", "H": 0.4, "T": 1.0, "rho": 1.25}``."""
    spec = dict(spec)
    family = spec.pop("family", None)
    horizon = float(spec.pop("T", 1.0))
    rho = spec.pop("rho", None)
    rho = float(rho) if rho is not None else None
    if family == "fbm":
        return FractionalBrownian(H=float(spec["H"]), horizon=horizon, rho=rho)
    if family == "bifbm":
        return BiFractionalBrownian(H=float(spec["H"]), K=float(spec["K"]),
                                    horizon=horizon, rho=rho)
    if family == "sum_fbm":
        return SumFractionalBrownian(H1=float(spec["H1"]), H2=float(spec["H2"]),
                                     horizon=horizon, rho=rho)
    if family == "stationary":
        fspec = spec.get("F", {})
        if fspec.get("kind") != "power":
            raise ParameterError("JSON stationary kernels support F.kind == 'power'")
        c, p = float(fspec.get("c", 1.0)), float(fspec["p"])
        if rho is None:
            rho = 1.0 / p
        kern = StationaryKernel(
            power_variogram(c, p), rho=rho, horizon=horizon,
            label=f"stationary(c={c:g},p={p:g})",
            spec={"family": "stationary", "F": {"kind": "power", "c": c, "p": p},
                  "T": horizon, "rho": rho})
        return kern
    if family == "fourier":
        return FourierKernel(rho=float(rho if rho is not None else 1.25),
                             C=float(spec.get("C", 1.0)),
                             k_max=int(spec.get("k_max", 4096)), horizon=horizon)
    if family == "fou":
        return FractionalOU(H=float(spec["H"]), lam=float(spec.get("lam", 1.0)),
                            horizon=horizon, rho=rho)
    raise ParameterError(f"unknown kernel family: {family!r}")


def brownian(horizon: float = 1.0) -> FractionalBrownian:
    return FractionalBrownian(H=0.5, horizon=horizon, rho=1.0)
