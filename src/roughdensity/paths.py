"""Exact Gaussian sampling on a grid and Cameron-Martin arithmetic.

Sampling shares one Cholesky factor L of the grid Gram matrix across paths
and components.  Randomness comes from counter-based Philox streams, one per
aligned block of `BLOCK_PATHS` global path indices, keyed by (seed, block)
and read from counter zero.  A block's normals fill a (BLOCK_PATHS * d, n)
array u, row r being path r // d of the block and component r % d, and its
node values are u @ L.T, formed by the same fixed sequence of BLAS calls for
every block.  A call computes every block its path range touches in full
and keeps its own rows, so ensembles are bit-identical no matter how path
ranges are chunked across workers.  Each call builds one Philox generator
and re-keys it per block, which draws the same numbers as a fresh
``Philox(key=...)`` per block without its per-construction seeding cost.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .diagnostics import cell_rect_matrix
from .kernels import (CovKernel, TimeGrid, jitter_cholesky, kernel_from_spec,
                      kernel_spec)


_MAGIC = b"RDPE"
_VERSION = 1
# Paths per Philox stream: block b holds global paths [64 b, 64 b + 64).
BLOCK_PATHS = 64
# Names the stream layout of `sample` and `sample_increments`, recorded in
# every run's manifest; a new layout is a new realization and needs a new id.
RNG_SCHEME = "philox(key=seed<<64|path//64; row=path%64*d+component)"


_MASK64 = (1 << 64) - 1
# OpenBLAS runs a GEMM of at most 2^18 multiply-adds (M N K) on one thread
# and a larger one on all of its threads.  Per-block products of that size
# on threads stall each other, worst inside forked chunk workers (a
# 200,000-path n = 256 reduction at two workers took 23 s instead of 1.5 s
# on 2 vCPUs, OpenBLAS 0.3.31), so `_node_values` cuts each block's product
# into panels under it.
_SERIAL_GEMM_MNK = 1 << 18


def cholesky_factor(kernel: CovKernel, grid: TimeGrid) -> np.ndarray:
    """Lower Cholesky factor of the Gram matrix on the interior nodes
    (t_0 = 0 is pinned to zero), with escalating jitter."""
    return jitter_cholesky(kernel.gram(grid.nodes[1:]))[0]


@dataclass
class PathEnsemble:
    """Sampled paths, shape (n_paths, d, n_nodes), all starting at zero."""

    grid: TimeGrid
    d: int
    n_paths: int
    seed: int
    kernel_spec: dict
    data: np.ndarray

    def path(self, idx: int) -> np.ndarray:
        """Node values of one path, shape (n_nodes, d)."""
        return self.data[idx].T


def _check_request(d: int, n_paths: int, path_offset: int) -> None:
    if d < 1 or n_paths < 1:
        raise ValueError("d and n_paths must be >= 1")
    if path_offset < 0:
        raise ValueError("path_offset must be >= 0")


def _node_values(u: np.ndarray, L: np.ndarray, out: np.ndarray) -> None:
    """out = u @ L.T for lower-triangular L, as column panels
    out[:, j:e] = u[:, :e] @ L.T[:e, j:e], each at most
    `_SERIAL_GEMM_MNK` multiply-adds."""
    rows, n = u.shape
    width = max(1, _SERIAL_GEMM_MNK // (rows * n))
    for j in range(0, n, width):
        e = min(n, j + width)
        np.matmul(u[:, :e], L.T[:e, j:e], out=out[:, j:e])


def _block_values(kernel, grid, d, n_paths, seed, path_offset, chol):
    """Node values of global paths [path_offset, path_offset + n_paths)
    without the t_0 = 0 node, block by block: yields (lo, v), v the
    (k * d, n) rows of local paths lo .. lo + k - 1, component-minor.  v is
    a view of a buffer the next block overwrites."""
    L = cholesky_factor(kernel, grid) if chol is None else chol
    u = np.empty((BLOCK_PATHS * d, grid.n_steps))
    v = np.empty_like(u)
    # Block b is Philox with key words [b, seed] from counter zero; the
    # generator is local, so concurrent calls share none.
    key = [0, int(seed) & _MASK64]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    stop = path_offset + n_paths
    for b in range(path_offset // BLOCK_PATHS, -(-stop // BLOCK_PATHS)):
        key[0] = b & _MASK64
        bitgen.state = state
        gen.standard_normal(out=u)
        _node_values(u, L, v)
        first = b * BLOCK_PATHS
        lo, hi = max(first, path_offset), min(first + BLOCK_PATHS, stop)
        yield lo - path_offset, v[(lo - first) * d:(hi - first) * d]


def sample(kernel: CovKernel, grid: TimeGrid, d: int = 1, n_paths: int = 1,
           seed: int = 0, path_offset: int = 0,
           chol: np.ndarray | None = None) -> PathEnsemble:
    """Draw ``n_paths`` exact Gaussian paths.

    ``path_offset`` (>= 0) shifts the global path indices, so a large
    ensemble can be produced in chunks (in any order, on any worker) and
    concatenated into the same realization.  Path p comes from the Philox
    stream of block p // `BLOCK_PATHS`.  ``chol``, when given, is
    `cholesky_factor` (kernel, grid), shared across calls.
    """
    _check_request(d, n_paths, path_offset)
    n = grid.n_steps
    data = np.zeros((n_paths, d, n + 1))
    rows = data.reshape(n_paths * d, n + 1)[:, 1:]
    for lo, v in _block_values(kernel, grid, d, n_paths, seed, path_offset,
                               chol):
        rows[lo * d:lo * d + len(v)] = v
    return PathEnsemble(grid=grid, d=d, n_paths=n_paths, seed=seed,
                        kernel_spec=kernel_spec(kernel), data=data)


def sample_increments(kernel: CovKernel, grid: TimeGrid, d: int = 1,
                      n_paths: int = 1, seed: int = 0, path_offset: int = 0,
                      chol: np.ndarray | None = None) -> np.ndarray:
    """Level-1 increments (n_paths, N, d) of the paths `sample` draws with
    the same arguments, equal bit for bit to
    ``lift_ensemble(sample(...).data)``.  Each block's increments go
    straight into a contiguous time-major (N, n_paths, d) buffer, returned
    as its (n_paths, N, d) transposed view, the layout `rde.solve_batch`
    steps through without a copy."""
    _check_request(d, n_paths, path_offset)
    n = grid.n_steps
    out = np.empty((n, n_paths * d))
    for lo, v in _block_values(kernel, grid, d, n_paths, seed, path_offset,
                               chol):
        # difference the block's transposed view into the buffer's rows
        cols = v.T
        dest = out[:, lo * d:lo * d + len(v)]
        dest[0] = cols[0]
        np.subtract(cols[1:], cols[:-1], out=dest[1:])
    return out.reshape(n, n_paths, d).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# Cameron-Martin elements h = sum_i a_i R(t_i, .)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMElement:
    """Cameron-Martin element stored by nodes and per-component
    coefficients, h^c = sum_i coeffs[i, c] R(nodes[i], .)."""

    kernel: CovKernel
    nodes: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        if coeffs.shape[0] != nodes.size:
            raise ValueError("one coefficient row per node required")
        if np.any(nodes < 0) or np.any(nodes > self.kernel.horizon):
            raise ValueError("nodes must lie in [0, T]")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def d(self) -> int:
        return self.coeffs.shape[1]


def _check_same_kernel(h1: CMElement, h2: CMElement):
    if h1.kernel.label != h2.kernel.label or h1.d != h2.d:
        raise ValueError("Cameron-Martin elements live over different kernels")


def cm_inner(h1: CMElement, h2: CMElement) -> float:
    """<h1, h2> = sum_c sum_ij a_ic b_jc R(t_i, s_j)."""
    _check_same_kernel(h1, h2)
    g = h1.kernel.eval(h1.nodes[:, None], h2.nodes[None, :])
    return float(np.einsum("ic,ij,jc->", h1.coeffs, np.atleast_2d(g), h2.coeffs))


def cm_norm_sq(h: CMElement) -> float:
    return cm_inner(h, h)


def cm_eval(h: CMElement, t) -> np.ndarray:
    """Trace h(t) = sum_i a_i R(t_i, t); shape (d,) for scalar t,
    (len(t), d) for arrays."""
    t = np.asarray(t, dtype=float)
    r = h.kernel.eval(h.nodes[:, None], t.ravel()[None, :])
    out = np.atleast_2d(r).T @ h.coeffs
    return out[0] if t.ndim == 0 else out.reshape(*t.shape, h.d)


def random_unit_element(kernel: CovKernel, rng: np.random.Generator,
                        d: int) -> CMElement:
    """A random direction of unit Cameron-Martin norm: three sorted uniform
    nodes on [T/10, T], then standard normal coefficients of shape (3, d),
    scaled by 1 / |h|_H."""
    nodes = np.sort(rng.uniform(0.1 * kernel.horizon, kernel.horizon, 3))
    coeffs = rng.standard_normal((3, d))
    h = CMElement(kernel, nodes, coeffs)
    return CMElement(kernel, nodes, coeffs / np.sqrt(cm_norm_sq(h)))


def wiener_integral(h: CMElement, path_values: np.ndarray,
                    grid: TimeGrid) -> np.ndarray:
    """X(h) = sum_i a_i X_{t_i}, per component; ``path_values`` has shape
    (n_nodes, d) or (n_paths, d, n_nodes)."""
    idx = np.array([grid.index_of(t) for t in h.nodes])
    if path_values.ndim == 2:
        return np.einsum("ic,ic->c", h.coeffs, path_values[idx, :])
    return np.einsum("ic,pci->pc", h.coeffs, path_values[:, :, idx])


def step_inner(f: np.ndarray, g: np.ndarray, kernel: CovKernel,
               grid: TimeGrid) -> float:
    """2D Riemann-Stieltjes pairing of grid step functions against dR:
    sum_ij f_i g_j E[dX_i dX_j] with cell (left-endpoint) values."""
    m = cell_rect_matrix(kernel, grid)
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    if f.ndim == 1:
        f, g = f[:, None], g[:, None]
    if f.shape[0] != m.shape[0] or g.shape[0] != m.shape[0]:
        raise ValueError("step functions must carry one value per grid cell")
    return float(np.einsum("ic,ij,jc->", f, m, g))


# ---------------------------------------------------------------------------
# Persistence: flat binary ensembles, CSV for single paths
# ---------------------------------------------------------------------------

def save_ensemble(ens: PathEnsemble, path: str) -> None:
    """Header (magic, version, N, d, n_paths, seed, kernel JSON length) +
    kernel JSON + little-endian float64 array in path-major order.
    Regular grids only: the grid is rebuilt from (N, kernel horizon)."""
    kernel_json = json.dumps(ens.kernel_spec, sort_keys=True).encode()
    if not np.allclose(ens.grid.nodes,
                       np.linspace(0, ens.grid.horizon, ens.grid.n_steps + 1)):
        raise ValueError("binary persistence supports regular grids")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQQQqQ", _VERSION, ens.grid.n_steps, ens.d,
                             ens.n_paths, ens.seed, len(kernel_json)))
        fh.write(kernel_json)
        fh.write(np.ascontiguousarray(ens.data, dtype="<f8").tobytes())


def load_ensemble(path: str) -> PathEnsemble:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not an ensemble file")
        version, n, d, n_paths, seed, jlen = struct.unpack("<IQQQqQ",
                                                           fh.read(44))
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        spec = json.loads(fh.read(jlen).decode())
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(
            n_paths, d, n + 1).copy()
    kernel = kernel_from_spec(spec)
    grid = TimeGrid.regular(n, horizon=kernel.horizon)
    return PathEnsemble(grid=grid, d=d, n_paths=n_paths, seed=seed,
                        kernel_spec=spec, data=data)


def export_path_csv(ens: PathEnsemble, idx: int, path: str) -> None:
    header = "t," + ",".join(f"X{c + 1}" for c in range(ens.d))
    table = np.column_stack([ens.grid.nodes, ens.path(idx)])
    np.savetxt(path, table, delimiter=",", header=header, comments="")
