import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fluxrec import fem, geometry, inversion, spectral, stability, vsc
from fluxrec.errors import InadmissibleSampleError, InvalidGeometryError, MalformedFileError


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


def scalar_psi0(spec, t: float) -> float:
    """One-t oracle of vsc.psi0_eval, with math.log."""
    junction = spec.cprime
    if t <= junction:
        return spec.C / math.log(spec.C0 / t) ** spec.kappa
    log_j = math.log(spec.C0 / spec.cprime)
    slope = spec.C * spec.kappa / (junction * log_j ** (spec.kappa + 1.0))
    return spec.C / log_j ** spec.kappa + slope * (t - junction)


def scalar_psi_infimum(spec, t: float, lambda_grid) -> float:
    """One-t oracle of vsc.psi_infimum: the minimum over one grid."""
    return float((spec.g(lambda_grid) * scalar_psi0(spec, t) + spec.f(lambda_grid) ** 2).min())


def loop_sample_terms(op, basis, q_dag, samples, m0) -> list[tuple[float, float, float]]:
    """Per-sample oracle of vsc._sample_terms: one admissibility check and one K q per sample."""
    mesh = op.mesh
    half_dag = 0.5 * fem.boundary_l2_norm(mesh, q_dag) ** 2
    k_dag = op.apply_linear(q_dag.values)
    terms = []
    for i, q in enumerate(samples):
        if not inversion.admissibility_check(q, q_dag, basis, m0):
            raise InadmissibleSampleError(f"sample {i} outside the admissible ball (m0={m0})")
        diff = fem.BoundaryVector(geometry.GAMMA_I, q.values - q_dag.values)
        terms.append((0.25 * fem.boundary_l2_norm(mesh, diff) ** 2,
                      0.5 * fem.boundary_l2_norm(mesh, q) ** 2 - half_dag,
                      op.misfit_norm(op.apply_linear(q.values), k_dag)))
    return terms


def loop_vsc_report(op, basis, q_dag, spec, samples, m0=10.0):
    """Per-sample oracle of vsc.check_vsc_inequality: (lhs, rhs, margin) arrays and the scale."""
    lambda_grid = vsc.default_lambda_grid(basis)
    rows = []
    scale = max(1.0, 0.5 * fem.boundary_l2_norm(op.mesh, q_dag) ** 2)
    for lhs, rhs_norms, misfit in loop_sample_terms(op, basis, q_dag, samples, m0):
        rhs = rhs_norms + scalar_psi_infimum(spec, max(misfit, vsc.T_FLOOR), lambda_grid)
        rows.append((lhs, rhs, rhs - lhs))
        scale = max(scale, abs(lhs), abs(rhs))
    lhs, rhs, margin = np.array(rows).reshape(-1, 3).T
    return lhs, rhs, margin, scale


def loop_fit_vsc_constants(op, basis, q_dag, calibration, s, kappa, m0=10.0):
    """Per-sample oracle of vsc.fit_vsc_constants (calibration is a list of fluxes)."""
    terms = loop_sample_terms(op, basis, q_dag, calibration, m0)
    anchor = fem.BoundaryVector(
        geometry.GAMMA_I, (1.0 - vsc._shrink_t_max(basis, q_dag, m0)) * q_dag.values)
    terms += loop_sample_terms(op, basis, q_dag, [anchor], m0)
    cprime = max(misfit for *_, misfit in terms)
    unit = vsc.IndexFunctionSpec(C=1.0, C0=cprime * math.exp(kappa + 1.0) * 1.01, kappa=kappa,
                                 s=s, cprime=cprime,
                                 f_coeff=spectral.sobolev_norm(basis, s, q_dag))
    lam = vsc.default_lambda_grid(basis)
    required = 0.0
    for lhs, rhs_norms, misfit in terms:
        deficit = lhs - rhs_norms
        if deficit > 0.0:
            need = (deficit - unit.f(lam) ** 2) / (
                unit.g(lam) * scalar_psi0(unit, max(misfit, vsc.T_FLOOR)))
            required = max(required, float(need.max()))
    return replace(unit, C=required * (1.0 + 1e-9))


def loop_load_mesh(path) -> geometry.Mesh:
    """Per-line oracle of geometry.load_mesh: float() and int() on each record."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()

    pos = 0

    def expect_header(name: str) -> int:
        nonlocal pos
        if pos >= len(raw):
            raise MalformedFileError(f"missing {name} section", pos + 1)
        parts = raw[pos].split()
        if len(parts) != 2 or parts[0] != name:
            raise MalformedFileError(f"expected '{name} <count>'", pos + 1)
        try:
            count = int(parts[1])
        except ValueError:
            raise MalformedFileError(f"bad {name} count {parts[1]!r}", pos + 1) from None
        pos += 1
        return count

    def take(count: int, parser):
        nonlocal pos
        out = []
        for _ in range(count):
            if pos >= len(raw):
                raise MalformedFileError("unexpected end of file", len(raw) + 1)
            try:
                out.append(parser(raw[pos].split()))
            except (ValueError, IndexError):
                raise MalformedFileError(f"malformed record {raw[pos]!r}", pos + 1) from None
            pos += 1
        return out

    n_v = expect_header("VERTICES")
    verts = take(n_v, lambda p: (float(p[0]), float(p[1])) if len(p) == 2 else _bad_record())
    n_t = expect_header("TRIANGLES")
    first_triangle_line = pos + 1
    tris = take(n_t,
                lambda p: (int(p[0]), int(p[1]), int(p[2])) if len(p) == 3 else _bad_record())
    n_b = expect_header("BOUNDARY_EDGES")
    first_edge_line = pos + 1

    records = take(n_b, lambda p: (int(p[0]), int(p[1]), p[2]) if len(p) == 3 else _bad_record())
    edges, tags = [], []
    for j, (a, b, tag) in enumerate(records):
        if tag not in geometry.VALID_TAGS:
            raise MalformedFileError(f"unknown boundary tag {tag!r}", first_edge_line + j)
        edges.append((a, b))
        tags.append(tag)
    for ln in range(pos, len(raw)):
        if raw[ln].strip():
            raise MalformedFileError(f"unexpected record {raw[ln]!r} after the boundary edges",
                                     ln + 1)

    def vertex_ids(records, width: int, first_line: int) -> np.ndarray:
        """The records as an index array; the first naming no vertex is reported by its line."""
        try:
            ids = np.asarray(records, dtype=np.int64).reshape(-1, width)
            bad = np.flatnonzero(((ids < 0) | (ids >= n_v)).any(axis=1))
        except OverflowError:
            bad = [i for i, rec in enumerate(records) if not all(0 <= v < n_v for v in rec)]
        if len(bad):
            raise MalformedFileError("vertex index out of range", first_line + int(bad[0]))
        return ids

    vertices = np.asarray(verts).reshape(-1, 2)
    triangles = vertex_ids(tris, 3, first_triangle_line)
    boundary_edges = vertex_ids(edges, 2, first_edge_line)
    mesh = geometry.Mesh(vertices, triangles, boundary_edges, np.asarray(tags),
                         geometry._max_edge_length(vertices, triangles))
    try:
        geometry.validate_mesh(mesh)
    except InvalidGeometryError as exc:
        raise MalformedFileError(f"invalid mesh in {path}: {exc}") from None
    return mesh



def _bad_record():
    raise ValueError


def sample_homogeneous_solution(system, basis, q) -> stability.StabilityEnsemble:
    """Per-sample oracle of stability.generate_probe_ensemble: one solve, un-normalized.

    The shared system must carry f = 0 and u_a = 0.
    """
    u = system.solve_flux(q)
    _, h1 = fem.norms(u)
    tr = fem.boundary_l2_norm(system.mesh, fem.trace(u, geometry.GAMMA_A))
    m_proxy = spectral.sobolev_norm(basis, 0.5, q) + h1
    return stability.StabilityEnsemble(np.array([h1]), np.array([tr]), np.array([m_proxy]))


def stack_samples(samples) -> stability.StabilityEnsemble:
    """One ensemble holding the samples of several ensembles, in order."""
    return stability.StabilityEnsemble(*(
        np.concatenate([getattr(s, name) for s in samples])
        for name in ("h1_norm", "trace_norm", "m_proxy")))


def loop_evaluate_stability_bound(samples, c, c0, kappa) -> tuple[int, float]:
    """Per-sample oracle of stability.evaluate_stability_bound, with math.log."""
    violations = 0
    worst = -math.inf
    for h1, tr, m in zip(samples.h1_norm, samples.trace_norm, samples.m_proxy):
        if tr <= stability.TRACE_FLOOR:
            continue
        arg = c0 * m / tr
        if arg <= 1.0:
            violations += 1
            worst = math.inf
            continue
        excess = h1 - c * m / math.log(arg) ** kappa
        worst = max(worst, excess)
        if excess > 0.0:
            violations += 1
    return violations, float(worst)


def discrete_stability_frontier(system, basis) -> tuple[np.ndarray, np.ndarray]:
    """Exact upper-left frontier (trace/M, h1/M) of the P1 homogeneous solutions.

    On the flux coefficients c, h1^2, trace^2 and ||q||_{1/2}^2 are the
    quadratic forms A1, At and diag(lambda).  On the sphere
    c^T diag(lambda) c = 1 the joint range of (At, A1) is convex
    (Polyak 1998), so its points of most h1 for their trace are the top
    generalized eigenvectors of (A1 - mu At, diag(lambda)), mu >= 0.
    Every bound ratio h1 * log(C0 * M / trace)^kappa / M grows with h1
    and falls with trace, so its supremum over all fluxes lies on them.
    """
    mesh = system.mesh
    u = system.solve_block(-fem.flux_load_matrix(mesh) @ basis.eigenvectors)
    mass, stiffness = fem._norm_matrices(mesh)
    a1 = u.T @ ((mass + stiffness) @ u)
    bmap = geometry.boundary_map(mesh, geometry.GAMMA_A)
    u_a = u[bmap.vertex_indices]
    a_t = u_a.T @ (bmap.weights[:, None] * u_a)
    half = np.diag(basis.eigenvalues)
    n = basis.n_modes
    tr, h1 = [], []
    for mu in np.concatenate([[0.0], np.geomspace(1e-3, 1e18, 400)]):
        _, vec = scipy.linalg.eigh(a1 - mu * a_t, half, subset_by_index=[n - 1, n - 1])
        c = vec[:, 0]
        h = math.sqrt(max(c @ a1 @ c, 0.0))
        m = math.sqrt(c @ half @ c) + h
        tr.append(math.sqrt(max(c @ a_t @ c, 0.0)) / m)
        h1.append(h / m)
    return np.array(tr), np.array(h1)


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
