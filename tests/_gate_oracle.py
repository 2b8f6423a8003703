"""Slow reference for the sign scans of `check_hypotheses`: the scans as they
were before they returned their own witness, and the two second passes that
looked the witness up, kept as a test oracle.

Each witness pass walks (i1, i2) in lexicographic order, forms the whole
(i3, i4) block of values with the scan's own arithmetic and returns the
first quadruple of nodes whose value equals ``worst`` exactly (None if none
does).
"""

from __future__ import annotations

import numpy as np


def scan_negative_correlation(g: np.ndarray) -> float:
    """Max of E[dX_{t1 t2} dX_{t3 t4}] over node quadruples t1<t2<=t3<t4."""
    m = g.shape[0]
    idx = np.arange(m)
    worst = -np.inf
    for i1 in range(m - 2):
        d = g[i1 + 1:, :] - g[i1, :]          # rows i2 = i1+1 .. m-1
        i2s = idx[i1 + 1:]
        masked = np.where(idx[None, :] >= i2s[:, None], d, np.inf)
        premin = np.minimum.accumulate(masked, axis=1)
        cand = d[:, 1:] - premin[:, :-1]      # candidate at i4 = column+1
        valid = idx[None, 1:] > i2s[:, None]  # need i4 > i3 >= i2
        cand = np.where(valid, cand, -np.inf)
        block = cand.max(initial=-np.inf)
        if block > worst:
            worst = block
    return worst


def scan_diagonal_dominance(g: np.ndarray) -> float:
    """Min of E[dX_{t2 t3} dX_{t1 t4}] over nested quadruples
    t1<=t2<t3<=t4."""
    m = g.shape[0]
    worst = np.inf
    for i2 in range(m - 1):
        d = g[i2 + 1:, :] - g[i2, :]          # rows i3 = i2+1 .. m-1
        i3s = np.arange(i2 + 1, m)
        masked = np.where(np.arange(m)[None, :] >= i3s[:, None], d, np.inf)
        sufmin = masked.min(axis=1)           # min over i4 >= i3, per row
        prefmax = d[:, :i2 + 1].max(axis=1)   # max over i1 <= i2, per row
        block = (sufmin - prefmax).min()
        if block < worst:
            worst = block
    return worst


def witness_negative_correlation(g: np.ndarray, worst: float, nodes):
    """First (t1, t2, t3, t4), t1<t2<=t3<t4, with D[t4] - D[t3] == worst,
    D = G[t2] - G[t1]."""
    m = g.shape[0]
    for i1 in range(m - 2):
        for i2 in range(i1 + 1, m - 1):
            d = g[i2, :] - g[i1, :]
            block = d[None, i2 + 1:] - d[i2:-1, None]
            block = np.where(np.arange(i2 + 1, m)[None, :]
                             > np.arange(i2, m - 1)[:, None], block, -np.inf)
            hits = np.argwhere(block == worst)
            if hits.size:
                i3, i4 = hits[0]
                return (nodes[i1], nodes[i2], nodes[i2 + i3], nodes[i2 + 1 + i4])
    return None


def witness_diagonal_dominance(g: np.ndarray, worst: float, nodes):
    """First (t1, t2, t3, t4), t1<=t2<t3<=t4, with D[t4] - D[t1] == worst,
    D = G[t3] - G[t2]."""
    m = g.shape[0]
    for i1 in range(m - 1):
        for i2 in range(i1, m - 1):
            # block over inner intervals (i3, i4) with i2 < i3 <= i4
            d4 = g[i2 + 1:, :] - g[i2, :]     # rows i3
            block = d4[:, i2 + 1:]            # columns i4 = i2+1 .. m-1
            block = block - (g[i2 + 1:, i1] - g[i2, i1])[:, None]
            block = np.where(np.arange(i2 + 1, m)[None, :]
                             >= np.arange(i2 + 1, m)[:, None], block, np.inf)
            hits = np.argwhere(block == worst)
            if hits.size:
                i3, i4 = hits[0]
                return (nodes[i1], nodes[i2], nodes[i2 + 1 + i3],
                        nodes[i2 + 1 + i4])
    return None


def oracle_scans(g: np.ndarray):
    """((worst, witness) of the negative-correlation scan, the same of the
    diagonal-dominance scan), witnesses as node indices."""
    idx = np.arange(g.shape[0])
    nc = scan_negative_correlation(g)
    dd = scan_diagonal_dominance(g)
    return ((nc, witness_negative_correlation(g, nc, idx)),
            (dd, witness_diagonal_dominance(g, dd, idx)))
