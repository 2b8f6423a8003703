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


def p_variation(values: np.ndarray, p: float,
                cutoff: int = PVAR_EXACT_CUTOFF) -> PVarResult:
    """p-variation of the path of node ``values`` (shape (M,) or (M, dim)).

    Exact via O(M^2) dynamic programming up to ``cutoff`` steps; above the
    cutoff, the maximum over a subsampled exact solve and the finest
    single-scale sum (both certified lower bounds).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    m = vals.shape[0]

    def dp_on(v):
        return float(max_dissection_sum(
            lambda j: np.linalg.norm(v[j] - v[:j], axis=1) ** p,
            v.shape[0]) ** (1.0 / p))

    if m - 1 <= cutoff:
        return PVarResult(dp_on(vals), "exact-dp")
    take = np.unique(np.linspace(0, m - 1, cutoff + 1).astype(int))
    sub = dp_on(vals[take])
    fine = float((np.linalg.norm(np.diff(vals, axis=0), axis=1) ** p)
                 .sum() ** (1.0 / p))
    return PVarResult(max(sub, fine), "lower-bound")


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

    def level2(self, i: int, j: int) -> np.ndarray:
        """Iterated integral x^2 between grid nodes i <= j, composed by the
        multiplicative identity."""
        s = self._prefix1
        return (self._prefix2[j] - self._prefix2[i]
                - np.multiply.outer(s[i], s[j] - s[i]))

    def scale(self, eps: float) -> "RoughPath2":
        """Lift of the path scaled by eps: level 1 x eps, level 2 x eps^2."""
        return RoughPath2(grid=self.grid, step1=eps * self.step1,
                          step2=(eps * eps) * self.step2)

    def p_variation(self, level: int, p: float,
                    cutoff: int = PVAR_EXACT_CUTOFF) -> PVarResult:
        """p-variation of the level-1 or level-2 increment family."""
        n = self.n_steps
        if level == 1:
            return p_variation(self._prefix1, p, cutoff=cutoff)
        if level != 2:
            raise ValueError("levels 1 and 2 only")

        def dp_on(nodes):
            def cost(j):
                blocks = self.level2_batch(nodes[:j], int(nodes[j]))
                return np.linalg.norm(blocks.reshape(j, -1), axis=1) ** p
            return float(max_dissection_sum(cost, nodes.size) ** (1.0 / p))

        if n <= cutoff:
            return PVarResult(dp_on(np.arange(n + 1)), "exact-dp")
        sub = dp_on(np.unique(np.linspace(0, n, cutoff + 1).astype(int)))
        fine = float((np.linalg.norm(
            self.step2.reshape(n, -1), axis=1) ** p).sum() ** (1.0 / p))
        return PVarResult(max(sub, fine), "lower-bound")

    def level2_batch(self, i_arr: np.ndarray, j: int) -> np.ndarray:
        s, pre = self._prefix1, self._prefix2
        return (pre[j][None] - pre[i_arr]
                - np.einsum("ia,ib->iab", s[i_arr], s[j][None] - s[i_arr]))

    def chen_defect(self) -> tuple[float, float]:
        """Max multiplicativity defect
        |x2_{st} - x2_{su} - x2_{ut} - x1_{su} (x) x1_{ut}| over all grid
        triples, together with the max |x2| scale."""
        s, pre = self._prefix1, self._prefix2
        m = self.n_steps + 1
        worst = 0.0
        scale = 0.0
        for u in range(m):
            a = np.arange(u + 1)          # s <= u
            b = np.arange(u, m)           # t >= u
            x2_sb = (pre[b][None] - pre[a][:, None]
                     - np.einsum("ia,ijb->ijab", s[a],
                                 s[b][None] - s[a][:, None]))
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
    v1 = rp.p_variation(1, p).value
    v2 = rp.p_variation(2, p / 2).value
    return v1 + np.sqrt(v2)

