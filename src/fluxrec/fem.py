"""P1 finite elements for the annular diffusion problem.

Discretizes the weak form of

    -div(alpha grad u) = f        in Omega,
    -alpha du/dn = k (u - u_a)    on GammaA,
    -alpha du/dn = q              on GammaI,

i.e.  a(u, v) = int alpha grad u . grad v + int_GammaA k u v  against
rhs(v) = int f v - int_GammaI q v + int_GammaA k u_a v.

Volume terms use exact integration of the piecewise-polynomial
integrands; every boundary datum enters through one of two sparse
matrices, exact for P1 traces: the Robin matrix R_k of int_GammaA k u v
(for k and for u_a) and the flux-load matrix B_i of int_GammaI q v.
Boundary L2 inner products everywhere in the package use the lumped
arc-length weights of the BoundaryIndexMap, so that spectral Parseval
identities hold exactly in the discrete norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    DegenerateTriangleError,
    DimensionMismatchError,
    SolverFailureError,
    TagMismatchError,
)
from .geometry import (GAMMA_A, GAMMA_I, BoundaryVector, Mesh, _row_norms, boundary_map,
                       per_mesh, triangle_areas)

_AREA_FLOOR = 1e-14
_RESIDUAL_COLUMNS = 16
_FLUX_BLOCK = 64  # flux columns per block solve: bounds the load block at n_v x 64


@dataclass(eq=False)
class ScalarField:
    """Nodal coefficients of an H1 finite-element function."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise DimensionMismatchError(
                f"field has {self.values.shape} values for {self.mesh.n_vertices} vertices"
            )
        if not np.isfinite(self.values).all():
            raise SolverFailureError("field contains non-finite values")


@dataclass(eq=False)
class ProblemData:
    """Coefficients of the diffusion problem.

    alpha and f are nodal fields (length n_v); k and u_a are
    per-boundary-vertex arrays on GammaA in BoundaryIndexMap order.
    """

    alpha: np.ndarray
    k: np.ndarray
    f: np.ndarray
    u_a: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.k = np.asarray(self.k, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self.u_a = np.asarray(self.u_a, dtype=float)
        if not (self.alpha > 0.0).all():
            raise ValueError("alpha must be strictly positive")
        if not (self.k > 0.0).all():
            raise ValueError("k must be strictly positive")
        for name in ("alpha", "k", "f", "u_a"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    @classmethod
    def from_constants(cls, mesh: Mesh, alpha: float = 1.0, k: float = 1.0,
                       f: float = 0.0, u_a: float = 0.0) -> "ProblemData":
        n_a = len(boundary_map(mesh, GAMMA_A))
        return cls(np.full(mesh.n_vertices, alpha), np.full(n_a, k),
                   np.full(mesh.n_vertices, f), np.full(n_a, u_a))


def constant_flux(mesh: Mesh, value: float) -> BoundaryVector:
    return BoundaryVector(GAMMA_I, np.full(len(boundary_map(mesh, GAMMA_I)), value))


def _gradients(mesh: Mesh):
    """Per-triangle P1 shape gradients and areas."""
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    if areas.min() < _AREA_FLOOR:
        raise DegenerateTriangleError(f"triangle area {areas.min():.3e} below {_AREA_FLOOR}")
    p = mesh.vertices[mesh.triangles]          # (n_t, 3, 2)
    # grad phi_i = rot90(opposite edge) / (2 area)
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    grads = np.stack([-e[..., 1], e[..., 0]], axis=-1) / (2.0 * areas)[:, None, None]
    return grads, areas


def _volume_matrix(mesh: Mesh, local: np.ndarray) -> sp.csr_matrix:
    """The n_v x n_v CSR sum of the per-triangle 3 x 3 blocks local."""
    tri = mesh.triangles
    rows, cols = np.broadcast_arrays(tri[:, :, None], tri[:, None, :])
    return sp.csr_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.n_vertices,) * 2)


def _stiffness_matrix(mesh: Mesh, grads: np.ndarray, weight: np.ndarray) -> sp.csr_matrix:
    """The matrix of int c grad u . grad v, with weight[t] = c times the area of triangle t."""
    return _volume_matrix(mesh, np.einsum("tid,tjd,t->tij", grads, grads, weight))


@per_mesh
def _norm_matrices(mesh: Mesh):
    """Unit-coefficient mass and stiffness matrices for norm evaluation."""
    grads, areas = _gradients(mesh)
    mass_loc = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (areas / 12.0)[:, None, None]
    return _volume_matrix(mesh, mass_loc), _stiffness_matrix(mesh, grads, areas)


def _loop_edges(mesh: Mesh, tag: str):
    """(a, b, length) of loop edge j, from map vertex j to j + 1; per-edge np.linalg.norm bits."""
    a = boundary_map(mesh, tag).vertex_indices
    b = np.roll(a, -1)
    return a, b, _row_norms(mesh.vertices[b] - mesh.vertices[a])


@per_mesh
def flux_load_matrix(mesh: Mesh) -> sp.csc_matrix:
    """B_i (n_v x n_i): int_GammaI q v = B_i q, so a flux's load is -B_i q; read-only."""
    a, b, length = _loop_edges(mesh, GAMMA_I)
    ia, ib = np.arange(len(a)), np.roll(np.arange(len(a)), -1)
    # int_e phi_a phi_b per edge: L / 3 on the diagonal, L / 6 off it
    vals = _edge_major(length / 3.0, length / 6.0, length / 6.0, length / 3.0)
    matrix = sp.csc_matrix((vals, (_edge_major(a, a, b, b), _edge_major(ia, ib, ia, ib))),
                           shape=(mesh.n_vertices, len(a)))
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.flags.writeable = False
    return matrix


def _edge_major(*per_edge: np.ndarray) -> np.ndarray:
    """[x0, y0, ..., x1, y1, ...]: one group of entries per edge, in edge order."""
    return np.stack(per_edge, axis=1).ravel()


def _edge_robin_matrix(mesh: Mesh, coeff_on_gamma_a: np.ndarray):
    """Sparse matrix of int_GammaA k u v for P1 traces (exact quadrature)."""
    a, b, length = _loop_edges(mesh, GAMMA_A)
    ka, kb = coeff_on_gamma_a, np.roll(coeff_on_gamma_a, -1)
    m_ab = length * (ka + kb) / 12.0
    # COO entries (aa, ab, ba, bb) per edge, so duplicates sum in edge order
    vals = _edge_major(length * (3.0 * ka + kb) / 12.0, m_ab, m_ab, length * (ka + 3.0 * kb) / 12.0)
    return sp.csr_matrix((vals, (_edge_major(a, a, b, b), _edge_major(a, b, a, b))),
                         shape=(mesh.n_vertices,) * 2)


def assemble_system(mesh: Mesh, data: ProblemData) -> sp.csr_matrix:
    """Symmetric positive-definite matrix of the bilinear form.

    Stiffness uses the exact per-triangle average of the nodal alpha;
    the Robin block on GammaA removes the constant kernel.
    """
    grads, areas = _gradients(mesh)
    alpha_bar = data.alpha[mesh.triangles].mean(axis=1)
    system = _stiffness_matrix(mesh, grads, alpha_bar * areas) + _edge_robin_matrix(mesh, data.k)
    asym = abs(system - system.T).max()
    if asym > 1e-12 * max(abs(system).max(), 1.0):
        raise SolverFailureError(f"assembled system asymmetric by {asym:.3e}")
    return system.tocsr()


def assemble_rhs(mesh: Mesh, data: ProblemData, q: BoundaryVector | None) -> np.ndarray:
    """Load vector M f + R_k u_a - B_i q: int f v + int_GammaA k u_a v - int_GammaI q v.

    The strong form fixes the +k u_a sign (u == u_a solves the problem
    when f = 0 and q = 0).
    """
    if q is not None and q.tag != GAMMA_I:
        raise TagMismatchError(f"flux must be tagged {GAMMA_I}, got {q.tag}")
    u_a = np.zeros(mesh.n_vertices)
    u_a[boundary_map(mesh, GAMMA_A).vertex_indices] = data.u_a
    rhs = _edge_robin_matrix(mesh, data.k) @ u_a
    if data.f.any():
        # M f is +0.0 for f = 0 (scipy's product starts from +0.0), so skipping it keeps the bits
        rhs = _norm_matrices(mesh)[0] @ data.f + rhs
    if q is not None:
        flux_load = flux_load_matrix(mesh)
        if q.values.shape != (flux_load.shape[1],):
            raise DimensionMismatchError(
                f"flux has {q.values.shape} values for {flux_load.shape[1]} GammaI vertices")
        rhs -= flux_load @ q.values
    return rhs


class FactorizedSystem:
    """Assembled system with a reusable sparse LU factorization.

    Solves are deterministic and the object is safe to share across
    concurrent callers once built.
    """

    def __init__(self, mesh: Mesh, data: ProblemData):
        self.mesh = mesh
        self.data = data
        self.matrix = assemble_system(mesh, data)
        try:
            self._lu = spla.splu(sp.csc_matrix(self.matrix))
        except RuntimeError as exc:  # SuperLU reports a singular factor this way
            raise SolverFailureError(f"sparse LU factorization failed: {exc}") from None

    def solve(self, rhs: np.ndarray) -> ScalarField:
        rhs = np.asarray(rhs, dtype=float)
        return ScalarField(self.mesh, self.solve_block(rhs[:, None])[:, 0])

    def solve_block(self, loads: np.ndarray) -> np.ndarray:
        """Solutions (n_v x m) of A u = l for the m columns l of loads, each checked.

        A zero column gives a zero field.  A relative residual
        ||A u - l|| / ||l|| above 1e-10, NaN included, or a non-finite
        value raises SolverFailureError.
        """
        loads = np.asarray(loads, dtype=float)
        if loads.ndim != 2 or loads.shape[0] != self.mesh.n_vertices:
            raise DimensionMismatchError(
                f"loads of shape {loads.shape} for {self.mesh.n_vertices} vertices")
        u = self._lu.solve(loads)
        scale = _column_norms(loads)
        zero = scale == 0.0
        u[:, zero] = 0.0
        residual = np.empty(loads.shape[1])
        # A @ u in cache-sized column groups: on a 2-vCPU Xeon at 1386 vertices,
        # 64 columns took 0.8 ms in groups of 16 and 1.8 ms as one product
        for start in range(0, loads.shape[1], _RESIDUAL_COLUMNS):
            cols = slice(start, start + _RESIDUAL_COLUMNS)
            r = self.matrix @ u[:, cols]
            r -= loads[:, cols]
            residual[cols] = _column_norms(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            residual /= scale
        residual[zero] = 0.0
        bad = np.flatnonzero(~(residual <= 1e-10))
        if bad.size:
            raise SolverFailureError(
                f"relative residual {residual[bad[0]]:.3e} above 1e-10 in column {bad[0]}")
        if not np.isfinite(u).all():
            raise SolverFailureError("solution contains non-finite values")
        return u

    def solve_flux(self, q: BoundaryVector | None) -> ScalarField:
        return self.solve(assemble_rhs(self.mesh, self.data, q))

    def flux_fields(self, fluxes: np.ndarray):
        """Yield (cols, u): the checked fields of zero f and u_a for the flux columns cols.

        The fluxes are the columns of an n_i x m matrix in GammaI map order.
        """
        flux_load = flux_load_matrix(self.mesh)
        fluxes = np.asarray(fluxes, dtype=float)
        if fluxes.ndim != 2 or fluxes.shape[0] != flux_load.shape[1]:
            raise DimensionMismatchError(
                f"fluxes of shape {fluxes.shape} for {flux_load.shape[1]} GammaI vertices")
        for start in range(0, fluxes.shape[1], _FLUX_BLOCK):
            cols = slice(start, start + _FLUX_BLOCK)
            # the load of flux q is -B_i q; 0 - B_i q keeps its zero entries +0.0
            yield cols, self.solve_block(0.0 - flux_load @ fluxes[:, cols])


def _column_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column, without a squared copy of x."""
    return np.sqrt(np.einsum("ij,ij->j", x, x))


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Pairwise sum of each column; a sum over a strided axis 0 adds row by row."""
    return np.ascontiguousarray(x.T).sum(axis=1)


def trace(u: ScalarField, tag: str) -> BoundaryVector:
    """Restriction of nodal values to one tagged loop, in map order."""
    if tag not in (GAMMA_I, GAMMA_A):
        raise TagMismatchError(f"unknown tag {tag!r}")
    return BoundaryVector(tag, u.values[boundary_map(u.mesh, tag).vertex_indices])


def norms(u: ScalarField) -> tuple[float, float]:
    """(L2(Omega) norm, full H1(Omega) norm) via exact element matrices."""
    mass, stiffness = _norm_matrices(u.mesh)
    l2sq = float(u.values @ (mass @ u.values))
    h1sq = l2sq + float(u.values @ (stiffness @ u.values))
    return np.sqrt(max(l2sq, 0.0)), np.sqrt(max(h1sq, 0.0))


def boundary_l2_norm(mesh: Mesh, v: BoundaryVector) -> float:
    """Discrete L2 norm on the tagged loop with lumped arc weights."""
    w = boundary_map(mesh, v.tag).weights
    if v.values.shape != w.shape:
        raise DimensionMismatchError(
            f"boundary vector has {v.values.shape} values for {w.shape} weights"
        )
    return float(np.sqrt((w * v.values * v.values).sum()))


# 6-point Dunavant rule, exact to degree 4, barycentric points and weights
_DUN_PTS = np.array([
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
])
_DUN_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


def error_norms(u: ScalarField, exact, exact_grad) -> tuple[float, float]:
    """(L2, H1) errors of a P1 field against a smooth reference.

    ``exact(x, y)`` and ``exact_grad(x, y) -> (ux, uy)`` are vectorized
    callables; integration uses a degree-4 triangle rule.
    """
    mesh = u.mesh
    grads, areas = _gradients(mesh)
    p = mesh.vertices[mesh.triangles]                      # (n_t, 3, 2)
    uh = u.values[mesh.triangles]                          # (n_t, 3)
    guh = np.einsum("ti,tid->td", uh, grads)               # (n_t, 2)

    xq = np.einsum("qk,tkd->tqd", _DUN_PTS, p)             # (n_t, 6, 2)
    uq = np.einsum("qk,tk->tq", _DUN_PTS, uh)
    ex = exact(xq[..., 0], xq[..., 1])
    gx, gy = exact_grad(xq[..., 0], xq[..., 1])
    diff2 = (uq - ex) ** 2
    gdiff2 = (guh[:, None, 0] - gx) ** 2 + (guh[:, None, 1] - gy) ** 2
    l2sq = float((areas[:, None] * _DUN_W[None, :] * diff2).sum())
    h1sq = float((areas[:, None] * _DUN_W[None, :] * gdiff2).sum())
    return np.sqrt(l2sq), np.sqrt(l2sq + h1sq)

