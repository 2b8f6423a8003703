"""Level-2 rough-path lifts of sampled paths and p-variation norms.

The lift stores per-step data plus prefix accumulators, so increments over
any pair of grid nodes compose through the multiplicative (Chen) identity
with no approximation beyond float round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import TimeGrid

PVAR_EXACT_CUTOFF = 512


class PVarResult(NamedTuple):
    value: float
    method: str


def max_dissection_sum(cost, n_nodes: int) -> float:
    """Maximum over dissections 0 = k_0 < ... < k_r = n_nodes - 1 of the
    sum of their interval costs, by dynamic programming: ``cost(j)`` returns
    the costs of the intervals [i, j] for i = 0 .. j-1."""
    best = np.zeros(n_nodes)
    for j in range(1, n_nodes):
        best[j] = np.max(best[:j] + cost(j))
    return best[-1]


def _variation(dist, n: int, p: float, cutoff: int, fine) -> PVarResult:
    """p-variation over grid nodes 0 .. n, from the increment norms
    ``dist(i_arr, j)`` of nodes ``i_arr`` to node j and ``fine()``, the
    norms of the n single steps.

    Exact via O(n^2) dynamic programming up to ``cutoff`` steps; above the
    cutoff, the maximum over an exact solve on cutoff + 1 subsampled nodes
    and the finest single-scale sum (both certified lower bounds).
    """
    def dp_on(nodes):
        return float(max_dissection_sum(
            lambda j: dist(nodes[:j], nodes[j]) ** p, nodes.size) ** (1.0 / p))

    if n <= cutoff:
        return PVarResult(dp_on(np.arange(n + 1)), "exact-dp")
    sub = dp_on(np.unique(np.linspace(0, n, cutoff + 1).astype(int)))
    return PVarResult(max(sub, float((fine() ** p).sum() ** (1.0 / p))),
                      "lower-bound")


def p_variation(values: np.ndarray, p: float,
                cutoff: int = PVAR_EXACT_CUTOFF) -> PVarResult:
    """p-variation of the path of node ``values`` (shape (M,) or (M, dim)),
    by `_variation`'s cutoff rule."""
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return _variation(lambda i, j: np.linalg.norm(vals[j] - vals[i], axis=1),
                      vals.shape[0] - 1, p, cutoff,
                      lambda: np.linalg.norm(np.diff(vals, axis=0), axis=1))


@dataclass(frozen=True)
class RoughPath2:
    """Level-1/level-2 data of a d-dimensional path on a grid."""

    grid: TimeGrid
    step1: np.ndarray    # (N, d) increments per step
    step2: np.ndarray    # (N, d, d) iterated integrals per step

    def __post_init__(self):
        n, d = self.step1.shape
        if self.step2.shape != (n, d, d) or n != self.grid.n_steps:
            raise ValueError("level data inconsistent with the grid")
        s = np.zeros((n + 1, d))
        np.cumsum(self.step1, axis=0, out=s[1:])
        pre = np.zeros((n + 1, d, d))
        for i in range(n):
            pre[i + 1] = pre[i] + self.step2[i] + np.multiply.outer(
                s[i], self.step1[i])
        object.__setattr__(self, "_prefix1", s)
        object.__setattr__(self, "_prefix2", pre)

    @property
    def d(self) -> int:
        return self.step1.shape[1]

    @property
    def n_steps(self) -> int:
        return self.step1.shape[0]

    def level1(self, i: int, j: int) -> np.ndarray:
        """Increment x^1 between grid nodes i <= j."""
        return self._prefix1[j] - self._prefix1[i]

    def level2(self, i, j) -> np.ndarray:
        """Iterated integral x^2 between grid nodes i <= j, composed by the
        multiplicative (Chen) identity; broadcasts over index arrays."""
        s, pre = self._prefix1, self._prefix2
        return (pre[j] - pre[i]
                - s[i][..., :, None] * (s[j] - s[i])[..., None, :])

    def scale(self, eps: float) -> "RoughPath2":
        """Lift of the path scaled by eps: level 1 x eps, level 2 x eps^2."""
        return RoughPath2(grid=self.grid, step1=eps * self.step1,
                          step2=(eps * eps) * self.step2)

    def chen_defect(self) -> tuple[float, float]:
        """Max multiplicativity defect
        |x2_{st} - x2_{su} - x2_{ut} - x1_{su} (x) x1_{ut}| over all grid
        triples, together with the max |x2| scale."""
        s = self._prefix1
        m = self.n_steps + 1
        worst = 0.0
        scale = 0.0
        for u in range(m):
            a = np.arange(u + 1)          # s <= u
            b = np.arange(u, m)           # t >= u
            x2_sb = self.level2(a[:, None], b[None, :])
            x2_su = x2_sb[:, 0]
            x2_ub = x2_sb[-1]
            cross = np.einsum("ia,jb->ijab", s[u] - s[a], s[b] - s[u])
            defect = x2_sb - x2_su[:, None] - x2_ub[None] - cross
            worst = max(worst, float(np.abs(defect).max()))
            scale = max(scale, float(np.abs(x2_sb).max()))
        return worst, scale


def lift(values: np.ndarray, grid: TimeGrid) -> RoughPath2:
    """Piecewise-linear level-2 lift of node ``values`` (n_nodes, d):
    per step x^2 = 0.5 dx (x) dx, multi-step values compose by the
    multiplicative identity."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != grid.n_steps + 1:
        raise ValueError("one value per grid node required")
    step1 = np.diff(vals, axis=0)
    step2 = 0.5 * np.einsum("ia,ib->iab", step1, step1)
    return RoughPath2(grid=grid, step1=step1, step2=step2)


def lift_ensemble(data: np.ndarray) -> np.ndarray:
    """Level-1 increments (P, N, d) of an ensemble's node values
    (n_paths, d, n_nodes).  They are written time-major, by one strided
    subtraction into a contiguous (N, P, d) buffer, and returned as its
    (P, N, d) transposed view, so `rde.solve_batch`, which steps
    time-major, reads them without a copy.  Their level 2 is the
    piecewise-linear lift's (1/2) x^1 (x) x^1, which the flow solvers form
    step by step."""
    P, d, n_nodes = data.shape
    out = np.empty((n_nodes - 1, P, d))
    np.subtract(data[:, :, 1:], data[:, :, :-1], out=out.transpose(1, 2, 0))
    return out.transpose(1, 0, 2)


def rough_norm(rp: RoughPath2, p: float) -> float:
    """Homogeneous p-variation norm sum_{n<=2} ||x^n||_{(p/n)-var}^(1/n)."""
    n = rp.n_steps
    v1 = p_variation(rp._prefix1, p, PVAR_EXACT_CUTOFF).value
    v2 = _variation(
        lambda i, j: np.linalg.norm(rp.level2(i, j).reshape(i.size, -1),
                                    axis=1),
        n, p / 2, PVAR_EXACT_CUTOFF,
        lambda: np.linalg.norm(rp.step2.reshape(n, -1), axis=1)).value
    return v1 + np.sqrt(v2)
