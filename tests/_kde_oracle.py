"""Slow reference for `density.kde_evaluate`: the all-pairs estimator it
replaced, kept as a test oracle.

Every point sums the Gaussian product kernel over every sample, in chunks
of ``chunk`` samples taken in sample order.
"""

from __future__ import annotations

import math

import numpy as np


def all_pairs_kde(samples: np.ndarray, points: np.ndarray,
                  bandwidth: np.ndarray, chunk: int = 8192):
    """(p_hat, se) over ``points`` (m, dim) from every sample."""
    samples = np.atleast_2d(samples.T).T
    points = np.atleast_2d(points.T).T
    n, dim = samples.shape
    h = np.asarray(bandwidth, dtype=float)
    norm = 1.0 / (np.prod(h) * (2 * math.pi) ** (dim / 2))
    s1 = np.zeros(points.shape[0])
    s2 = np.zeros(points.shape[0])
    for off in range(0, n, chunk):
        blk = samples[off: off + chunk]
        u = (points[:, None, :] - blk[None, :, :]) / h
        w = norm * np.exp(-0.5 * np.einsum("mpd,mpd->mp", u, u))
        s1 += w.sum(axis=1)
        s2 += (w * w).sum(axis=1)
    p = s1 / n
    var = np.maximum(s2 / n - p * p, 0.0)
    return p, np.sqrt(var / n)
