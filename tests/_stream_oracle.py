"""Slow reference for `paths.sample`: a fresh generator per stream instead
of one re-keyed generator per call, kept as a test oracle.

Every aligned block b of `BLOCK_PATHS` global paths builds its own
``Philox(key=seed<<64 | b)`` (seed and b masked to 64 bits) and draws a
(BLOCK_PATHS * d, n) array u of standard normals from counter zero, row r
being path r // d of the block and component r % d.  The block's node values
are ``u @ L.T`` with the same factor as `sample`, pinned to zero at t_0, by
the same column panels as `sample` (`block_product`); the requested paths
are cut out of the blocks they fall in.
"""

from __future__ import annotations

import numpy as np

from roughdensity.paths import BLOCK_PATHS, _SERIAL_GEMM_MNK, cholesky_factor

_MASK64 = (1 << 64) - 1


def block_normals(seed: int, block: int, shape) -> np.ndarray:
    """Standard normals from the Philox stream keyed by (seed, block)."""
    key = (int(seed) & _MASK64) << 64 | (int(block) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(
        shape)


def block_product(u: np.ndarray, L: np.ndarray) -> np.ndarray:
    """u @ L.T, one column panel at a time: panel [j, e) of at most
    _SERIAL_GEMM_MNK / (rows n) columns is u[:, :e] @ L.T[:e, j:e], L being
    lower triangular."""
    rows, n = u.shape
    width = max(1, _SERIAL_GEMM_MNK // (rows * n))
    out = np.empty((rows, n))
    for j in range(0, n, width):
        e = min(n, j + width)
        out[:, j:e] = u[:, :e] @ L.T[:e, j:e]
    return out


def oracle_sample_data(kernel, grid, d, n_paths, seed, path_offset=0):
    """Node values, shape (n_paths, d, n_nodes), one Philox per block."""
    n = grid.n_steps
    L = cholesky_factor(kernel, grid)
    first = path_offset // BLOCK_PATHS
    last = (path_offset + n_paths - 1) // BLOCK_PATHS
    blocks = [block_product(block_normals(seed, b, (BLOCK_PATHS * d, n)), L)
              for b in range(first, last + 1)]
    z = np.concatenate(blocks).reshape(-1, d, n)
    start = path_offset - first * BLOCK_PATHS
    data = np.zeros((n_paths, d, n + 1))
    data[:, :, 1:] = z[start:start + n_paths]
    return data
