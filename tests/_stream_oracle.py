"""Slow reference for `paths.sample`: the per-stream generator construction
it replaced, kept as a test oracle.

Every (path, component) stream builds its own ``Philox(key=seed<<64 |
stream)`` (seed and stream masked to 64 bits) and draws ``n`` standard
normals from counter zero.  The paths are ``z @ L.T`` with the same factor
as `sample`, pinned to zero at t_0.
"""

from __future__ import annotations

import numpy as np

from roughdensity.paths import cholesky_factor

_MASK64 = (1 << 64) - 1


def stream_normals(seed: int, stream: int, n: int) -> np.ndarray:
    """Standard normals from a Philox stream keyed by (seed, stream)."""
    key = (int(seed) & _MASK64) << 64 | (int(stream) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


def oracle_sample_data(kernel, grid, d, n_paths, seed, path_offset=0):
    """Node values, shape (n_paths, d, n_nodes), one Philox per stream."""
    n = grid.n_steps
    z = np.empty((n_paths, d, n))
    for p in range(n_paths):
        for c in range(d):
            stream = (path_offset + p) * d + c
            z[p, c, :] = stream_normals(seed, stream, n)
    data = np.zeros((n_paths, d, n + 1))
    data[:, :, 1:] = z @ cholesky_factor(kernel, grid).T
    return data
