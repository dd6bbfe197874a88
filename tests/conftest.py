import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fluxrec import fem, geometry, inversion, spectral
from fluxrec.errors import InvalidGeometryError


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


def loop_annulus_mesh(r_inner, r_outer, h_target):
    """Per-triangle loop oracle of geometry.generate_annulus_mesh.

    Returns (vertices, triangles, boundary_edges, boundary_tags).
    """
    n_theta = max(8, int(np.ceil(2.0 * np.pi * r_outer / h_target)))
    n_r = max(2, int(np.ceil((r_outer - r_inner) / h_target)))
    radii = np.linspace(r_inner, r_outer, n_r + 1)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    vertices = np.empty(((n_r + 1) * n_theta, 2))
    for j, r in enumerate(radii):
        vertices[j * n_theta:(j + 1) * n_theta, 0] = r * np.cos(theta)
        vertices[j * n_theta:(j + 1) * n_theta, 1] = r * np.sin(theta)
    triangles = []
    for j in range(n_r):
        base, top = j * n_theta, (j + 1) * n_theta
        for i in range(n_theta):
            ip = (i + 1) % n_theta
            a, b = base + i, base + ip
            c, d = top + ip, top + i
            triangles.append((a, d, c))
            triangles.append((a, c, b))
    inner = [(i, (i + 1) % n_theta) for i in range(n_theta)]
    outer_base = n_r * n_theta
    outer = [(outer_base + i, outer_base + (i + 1) % n_theta) for i in range(n_theta)]
    return (vertices, np.asarray(triangles, dtype=np.int64),
            np.asarray(inner + outer, dtype=np.int64),
            np.asarray([geometry.GAMMA_I] * n_theta + [geometry.GAMMA_A] * n_theta))


def loop_refine_uniform(mesh) -> geometry.Mesh:
    """Dict-based oracle of geometry.refine_uniform (unvalidated), to be matched bitwise."""
    vertices = list(map(tuple, mesh.vertices))
    midpoint_index = {}
    boundary_keys = {}
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        boundary_keys[(min(a, b), max(a, b))] = tag

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        idx = midpoint_index.get(key)
        if idx is not None:
            return idx
        pm = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        if key in boundary_keys:
            r = 0.5 * (np.linalg.norm(mesh.vertices[a]) + np.linalg.norm(mesh.vertices[b]))
            pm = pm * (r / np.linalg.norm(pm))
        idx = len(vertices)
        vertices.append((pm[0], pm[1]))
        midpoint_index[key] = idx
        return idx

    triangles = []
    for a, b, c in mesh.triangles:
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        triangles.extend(((a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)))
    edges, tags = [], []
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        m = midpoint_index[(min(a, b), max(a, b))]
        edges.extend(((a, m), (m, b)))
        tags.extend((tag, tag))
    new_vertices = np.asarray(vertices)
    new_triangles = np.asarray(triangles, dtype=np.int64)
    return geometry.Mesh(new_vertices, new_triangles, np.asarray(edges, dtype=np.int64),
                         np.asarray(tags), geometry._max_edge_length(new_vertices, new_triangles))


def loop_validate_mesh(mesh) -> None:
    """Dict-based oracle of geometry.validate_mesh: the same checks, in the same order."""
    if not (np.isfinite(mesh.vertices).all() and np.isfinite(mesh.h)):
        raise InvalidGeometryError("mesh has non-finite vertex coordinates or edge lengths")
    if not (geometry.triangle_areas(mesh.vertices, mesh.triangles) > 0.0).all():
        raise InvalidGeometryError("mesh contains non-positively-oriented triangles")
    used = {v for tri in mesh.triangles.tolist() for v in tri}
    for v in range(mesh.n_vertices):
        if v not in used:
            raise InvalidGeometryError(f"vertex {v} lies on no triangle")

    edge_count = {}
    for tri in mesh.triangles.tolist():
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    for key, count in edge_count.items():
        if count > 2:
            raise InvalidGeometryError(f"edge {key} on {count} triangles")
    tagged = set()
    for a, b in mesh.boundary_edges.tolist():
        key = (min(a, b), max(a, b))
        if edge_count.get(key, 0) != 1:
            raise InvalidGeometryError(f"boundary edge {key} not on exactly one triangle")
        tagged.add(key)
    if tagged != {k for k, c in edge_count.items() if c == 1}:
        raise InvalidGeometryError("tagged edges do not match the triangulation boundary")

    loops = {}
    for tag in geometry.VALID_TAGS:
        sel = mesh.boundary_tags == tag
        if not sel.any():
            raise InvalidGeometryError(f"missing boundary tag {tag}")
        loops[tag] = geometry._walk_loop(mesh, mesh.boundary_edges[sel])
    if set(loops[geometry.GAMMA_I]) & set(loops[geometry.GAMMA_A]):
        raise InvalidGeometryError("GammaI and GammaA loops share a vertex")


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
