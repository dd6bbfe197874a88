import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fluxrec import fem, geometry, inversion, spectral


def discrete_trace_constant(mesh) -> float:
    """Largest ratio ||u||_{GammaA} / ||u||_{1,Omega} over the P1 space.

    Computed by power iteration on the generalized problem B u = t H u
    with B the lumped GammaA boundary mass and H the H1 matrix.
    """
    mass, stiffness = fem._norm_matrices(mesh)
    h1 = (mass + stiffness).tocsc()
    lu = spla.splu(h1)
    bmap = geometry.boundary_map(mesh, geometry.GAMMA_A)
    idx, w = bmap.vertex_indices, bmap.weights

    rng = np.random.default_rng(0)
    x = rng.standard_normal(mesh.n_vertices)
    t_old = 0.0
    for _ in range(200):
        bx = np.zeros(mesh.n_vertices)
        bx[idx] = w * x[idx]
        y = lu.solve(bx)
        t = float(x @ bx) / float(x @ (h1 @ x))
        nrm = np.sqrt(float(y @ (h1 @ y)))
        if nrm == 0.0:
            break
        x = y / nrm
        if abs(t - t_old) <= 1e-10 * max(t, 1e-30):
            break
        t_old = t
    return float(np.sqrt(t))


def loop_assemble_rhs(mesh, data, q) -> np.ndarray:
    """Edge-by-edge oracle of fem.assemble_rhs: the loops the vectorized code must match bitwise."""
    mass, _ = fem._norm_matrices(mesh)
    rhs = mass @ data.f
    gauss_t = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    gauss_w = np.array([0.5, 0.5])
    if q is not None:
        pos_i = {int(v): i for i, v in
                 enumerate(geometry.boundary_map(mesh, geometry.GAMMA_I).vertex_indices)}
        for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            if tag != geometry.GAMMA_I:
                continue
            length = float(np.linalg.norm(mesh.vertices[b] - mesh.vertices[a]))
            qa, qb = q.values[pos_i[int(a)]], q.values[pos_i[int(b)]]
            rhs[a] -= length * (2.0 * qa + qb) / 6.0
            rhs[b] -= length * (qa + 2.0 * qb) / 6.0
    pos_a = {int(v): i for i, v in
             enumerate(geometry.boundary_map(mesh, geometry.GAMMA_A).vertex_indices)}
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag != geometry.GAMMA_A:
            continue
        length = float(np.linalg.norm(mesh.vertices[b] - mesh.vertices[a]))
        ia, ib = pos_a[int(a)], pos_a[int(b)]
        kt = data.k[ia] * (1.0 - gauss_t) + data.k[ib] * gauss_t
        ut = data.u_a[ia] * (1.0 - gauss_t) + data.u_a[ib] * gauss_t
        rhs[a] += length * float((gauss_w * kt * ut * (1.0 - gauss_t)).sum())
        rhs[b] += length * float((gauss_w * kt * ut * gauss_t).sum())
    return rhs


def loop_robin_matrix(mesh, k) -> sp.csr_matrix:
    """Edge-by-edge oracle of fem._edge_robin_matrix, with its COO entry order."""
    pos = {int(v): i for i, v in
           enumerate(geometry.boundary_map(mesh, geometry.GAMMA_A).vertex_indices)}
    rows, cols, vals = [], [], []
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag != geometry.GAMMA_A:
            continue
        length = float(np.linalg.norm(mesh.vertices[b] - mesh.vertices[a]))
        ka, kb = k[pos[int(a)]], k[pos[int(b)]]
        m_ab = length * (ka + kb) / 12.0
        rows.extend((a, a, b, b))
        cols.extend((a, b, a, b))
        vals.extend((length * (3.0 * ka + kb) / 12.0, m_ab, m_ab, length * (ka + 3.0 * kb) / 12.0))
    n = mesh.n_vertices
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@pytest.fixture(scope="session")
def coarse_mesh():
    return geometry.generate_annulus_mesh(0.5, 1.0, 0.1)


@pytest.fixture(scope="session")
def fine_mesh(coarse_mesh):
    return geometry.refine_uniform(coarse_mesh)


@pytest.fixture(scope="session")
def default_data(coarse_mesh):
    return fem.ProblemData.from_constants(coarse_mesh)


@pytest.fixture(scope="session")
def forward_op(coarse_mesh, default_data):
    return inversion.build_forward_operator(coarse_mesh, default_data)


@pytest.fixture(scope="session")
def basis(coarse_mesh):
    return spectral.build_spectral_basis(coarse_mesh)


@pytest.fixture(scope="session")
def trace_constant(coarse_mesh):
    """Oracle trace constant of the coarse mesh, shared by the trace-inequality checks."""
    return discrete_trace_constant(coarse_mesh)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
