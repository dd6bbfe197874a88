"""P1 finite elements for the annular diffusion problem.

Discretizes the weak form of

    -div(alpha grad u) = f        in Omega,
    -alpha du/dn = k (u - u_a)    on GammaA,
    -alpha du/dn = q              on GammaI,

i.e.  a(u, v) = int alpha grad u . grad v + int_GammaA k u v  against
rhs(v) = int f v - int_GammaI q v + int_GammaA k u_a v.

Volume terms use exact integration of the piecewise-polynomial
integrands; boundary terms use two-point Gauss quadrature per edge,
exact for products of P1 traces up to degree 3.  Boundary L2 inner
products everywhere in the package use the lumped arc-length weights of
the BoundaryIndexMap, so that spectral Parseval identities hold exactly
in the discrete norms.
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
from .geometry import GAMMA_A, GAMMA_I, Mesh, boundary_map, per_mesh, triangle_areas

_AREA_FLOOR = 1e-14
_RESIDUAL_COLUMNS = 16

# 2-point Gauss-Legendre on [0, 1]
_GAUSS_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS_W = np.array([0.5, 0.5])


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
class BoundaryVector:
    """Values on one boundary loop, in BoundaryIndexMap order."""

    tag: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


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


@per_mesh
def _norm_matrices(mesh: Mesh):
    """Unit-coefficient mass and stiffness matrices for norm evaluation."""
    grads, areas = _gradients(mesh)
    tri = mesh.triangles
    n = mesh.n_vertices
    rows, cols = np.broadcast_arrays(tri[:, :, None], tri[:, None, :])
    stiff_loc = np.einsum("tid,tjd,t->tij", grads, grads, areas)
    mass_loc = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (areas / 12.0)[:, None, None]
    shape = (n, n)
    stiffness = sp.csr_matrix((stiff_loc.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    mass = sp.csr_matrix((mass_loc.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return mass, stiffness


@per_mesh
def _tagged_edges(mesh: Mesh, tag: str):
    """Per-edge (a, b, length, ia, ib) of one tagged loop, in mesh order, read-only.

    ia, ib index the loop's BoundaryIndexMap.  Lengths are per-edge
    np.linalg.norm calls; the vectorized norm differs in the last bit.
    """
    edges = mesh.boundary_edges[mesh.boundary_tags == tag]
    length = np.array([float(np.linalg.norm(vb - va)) for va, vb in mesh.vertices[edges]])
    pos = np.empty(mesh.n_vertices, dtype=np.int64)
    pos[boundary_map(mesh, tag).vertex_indices] = np.arange(len(edges))
    table = (*edges.T, length, *pos[edges].T)
    for arr in table:
        arr.flags.writeable = False
    return table


def flux_load_matrix(mesh: Mesh) -> sp.csc_matrix:
    """B_i (n_v x n_i): int_GammaI q v = B_i q, so a flux's load is -B_i q."""
    a, b, length, ia, ib = _tagged_edges(mesh, GAMMA_I)
    # assemble_rhs's flux terms for unit q (2 L / 6 rounds exactly as L / 3 does)
    vals = _edge_major(length / 3.0, length / 6.0, length / 6.0, length / 3.0)
    return sp.csc_matrix((vals, (_edge_major(a, a, b, b), _edge_major(ia, ib, ia, ib))),
                         shape=(mesh.n_vertices, len(length)))


def _edge_major(*per_edge: np.ndarray) -> np.ndarray:
    """[x0, y0, ..., x1, y1, ...]: one group of entries per edge, in edge order."""
    return np.stack(per_edge, axis=1).ravel()


def _edge_robin_matrix(mesh: Mesh, coeff_on_gamma_a: np.ndarray):
    """Sparse matrix of int_GammaA k u v for P1 traces (exact quadrature)."""
    a, b, length, ia, ib = _tagged_edges(mesh, GAMMA_A)
    ka, kb = coeff_on_gamma_a[ia], coeff_on_gamma_a[ib]
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
    tri = mesh.triangles
    alpha_bar = data.alpha[tri].mean(axis=1)
    rows, cols = np.broadcast_arrays(tri[:, :, None], tri[:, None, :])
    loc = np.einsum("tid,tjd,t->tij", grads, grads, alpha_bar * areas)
    n = mesh.n_vertices
    stiffness = sp.csr_matrix((loc.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
    system = stiffness + _edge_robin_matrix(mesh, data.k)
    asym = abs(system - system.T).max()
    if asym > 1e-12 * max(abs(system).max(), 1.0):
        raise SolverFailureError(f"assembled system asymmetric by {asym:.3e}")
    return system.tocsr()


def assemble_rhs(mesh: Mesh, data: ProblemData, q: BoundaryVector | None) -> np.ndarray:
    """Load vector: int f v - int_GammaI q v + int_GammaA k u_a v.

    The strong form fixes the +k u_a sign (u == u_a solves the problem
    when f = 0 and q = 0).
    """
    if q is not None and q.tag != GAMMA_I:
        raise TagMismatchError(f"flux must be tagged {GAMMA_I}, got {q.tag}")
    mass, _ = _norm_matrices(mesh)
    rhs = mass @ data.f

    # ufunc.at updates each vertex in edge order, as a loop over the edges would
    if q is not None:
        a, b, length, ia, ib = _tagged_edges(mesh, GAMMA_I)
        if q.values.shape != length.shape:  # one edge per vertex on the closed loop
            raise DimensionMismatchError(
                f"flux has {q.values.shape} values for {len(length)} GammaI vertices")
        qa, qb = q.values[ia], q.values[ib]
        # int_e q phi with q, phi linear on the edge
        np.subtract.at(rhs, _edge_major(a, b), _edge_major(length * (2.0 * qa + qb) / 6.0,
                                                           length * (qa + 2.0 * qb) / 6.0))

    a, b, length, ia, ib = _tagged_edges(mesh, GAMMA_A)
    t = _GAUSS_T[None, :]
    kt = data.k[ia][:, None] * (1.0 - t) + data.k[ib][:, None] * t
    ut = data.u_a[ia][:, None] * (1.0 - t) + data.u_a[ib][:, None] * t
    np.add.at(rhs, _edge_major(a, b),
              _edge_major(length * (_GAUSS_W * kt * ut * (1.0 - t)).sum(axis=1),
                          length * (_GAUSS_W * kt * ut * t).sum(axis=1)))
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

