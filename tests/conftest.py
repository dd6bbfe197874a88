import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fluxrec import cli, fem, geometry, inversion, manifest, rates, spectral, stability, vsc
from fluxrec.errors import (
    BracketFailureError,
    DimensionMismatchError,
    InadmissibleSampleError,
    InvalidGeometryError,
    MalformedFileError,
    ParameterDomainError,
    SolverFailureError,
    TagMismatchError,
)


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
    """Edge-by-edge exact-quadrature reference of fem.assemble_rhs.

    The flux terms are the per-edge integrals of q phi; k u_a phi is cubic
    on an edge, so its two-point Gauss rule is exact.
    """
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
    """Edge-by-edge oracle of fem._edge_robin_matrix, in the mesh's edge order.

    fem walks the loop in map order instead; each entry sums at most two edges, so the bits agree.
    """
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


def loop_flux_load_matrix(mesh) -> sp.csc_matrix:
    """Edge-by-edge oracle of fem.flux_load_matrix, in the mesh's edge order.

    fem walks the loop in map order instead; each entry sums at most two edges, so the bits agree.
    """
    pos = {int(v): i for i, v in
           enumerate(geometry.boundary_map(mesh, geometry.GAMMA_I).vertex_indices)}
    rows, cols, vals = [], [], []
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag != geometry.GAMMA_I:
            continue
        length = float(np.linalg.norm(mesh.vertices[b] - mesh.vertices[a]))
        rows.extend((a, a, b, b))
        cols.extend((pos[int(a)], pos[int(b)], pos[int(a)], pos[int(b)]))
        vals.extend((length / 3.0, length / 6.0, length / 6.0, length / 3.0))
    return sp.csc_matrix((vals, (rows, cols)), shape=(mesh.n_vertices, len(pos)))


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


def loop_edge_table(triangles, pairs):
    """Dict oracle of geometry._edge_table: edges numbered as first met, sides before pairs."""
    number, ends, counts = {}, [], []

    def edge(a, b):
        key = (min(a, b), max(a, b))
        if key not in number:
            number[key] = len(ends)
            ends.append(key)
            counts.append(0)
        return number[key]

    side_edge = []
    for a, b, c in triangles.tolist():
        side_edge.append([edge(a, b), edge(b, c), edge(c, a)])
        for e in side_edge[-1]:
            counts[e] += 1
    pair_edge = [edge(a, b) for a, b in pairs.tolist()]
    return (np.asarray(ends, dtype=np.int64).reshape(-1, 2),
            np.asarray(side_edge, dtype=np.intp).reshape(-1, 3),
            np.asarray(counts, dtype=np.intp), np.asarray(pair_edge, dtype=np.intp))


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
        loops[tag] = geometry._walk_loop.__wrapped__(mesh, tag)
    if set(loops[geometry.GAMMA_I]) & set(loops[geometry.GAMMA_A]):
        raise InvalidGeometryError("GammaI and GammaA loops share a vertex")


def copying_edge_keys(triangles, pairs):
    """Oracle of geometry._edge_keys through concatenated and fancy-indexed copies."""
    a = np.concatenate((triangles.ravel(), pairs[:, 0]))
    b = np.concatenate((triangles[:, [1, 2, 0]].ravel(), pairs[:, 1]))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    base = int(hi.max(initial=0)) + 1
    return lo.astype(np.int64) * base + hi, base


def joined_save_mesh(mesh, path) -> None:
    """Oracle of geometry.save_mesh that joins the whole text before writing it."""
    text = (f"VERTICES {mesh.n_vertices}\n"
            + "%r %r\n" * mesh.n_vertices % tuple(mesh.vertices.ravel().tolist())
            + f"TRIANGLES {mesh.n_triangles}\n"
            + "%d %d %d\n" * mesh.n_triangles % tuple(mesh.triangles.ravel().tolist())
            + f"BOUNDARY_EDGES {len(mesh.boundary_edges)}\n"
            + "".join(f"{a} {b} {tag}\n" for (a, b), tag in
                      zip(mesh.boundary_edges.tolist(), mesh.boundary_tags.tolist())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def dense_loop_operator(mesh) -> tuple[np.ndarray, np.ndarray]:
    """Oracle of spectral._loop_operator: the operator built and symmetrized as dense arrays."""
    bmap = geometry.boundary_map(mesh, geometry.GAMMA_I)
    n = len(bmap)
    w = 1.0 / bmap.edge_lengths
    stiff = np.diag(w + np.roll(w, 1))
    j = np.arange(n)
    stiff[j, (j + 1) % n] = -w
    stiff[(j + 1) % n, j] = -w
    mass = bmap.weights
    inv_sqrt = 1.0 / np.sqrt(mass)
    sym = inv_sqrt[:, None] * stiff * inv_sqrt[None, :]
    return 0.5 * (sym + sym.T), mass


# meshes for the bitwise oracles above: odd and even n_i, refined once and twice, and one
# loaded from its file after its inner loop was moved off the circle (unequal edge lengths)
ORACLE_MESHES = ("odd", "even", "refined-once", "refined-twice", "perturbed")


def oracle_mesh(name, directory) -> geometry.Mesh:
    """The mesh named in ORACLE_MESHES; the perturbed one goes through a file in directory."""
    if name == "odd":
        return geometry.generate_annulus_mesh(0.5, 1.0, 0.1)  # n_i = 63
    if name == "even":
        return geometry.generate_annulus_mesh(0.5, 1.0, 0.05)  # n_i = 126
    if name == "refined-once":
        return geometry.refine_uniform(geometry.generate_annulus_mesh(0.5, 1.0, 0.035))  # 360
    if name == "refined-twice":
        return geometry.refine_uniform(geometry.refine_uniform(
            geometry.generate_annulus_mesh(0.5, 1.0, 0.3)))  # n_i = 84
    assert name == "perturbed"
    mesh = geometry.generate_annulus_mesh(0.5, 1.0, 0.1)
    inner = geometry.boundary_map(mesh, geometry.GAMMA_I).vertex_indices
    vertices = mesh.vertices.copy()
    vertices[inner] *= 1.0 + 0.05 * np.random.default_rng(7).uniform(-1.0, 1.0, (len(inner), 1))
    path = directory / "perturbed.txt"
    geometry.save_mesh(geometry.Mesh(vertices, mesh.triangles, mesh.boundary_edges,
                                     mesh.boundary_tags,
                                     geometry._max_edge_length(vertices, mesh.triangles)), path)
    return geometry.load_mesh(path)


def scalar_psi0(spec, t: float) -> float:
    """One-t oracle of vsc.psi0_eval, with math.log."""
    junction = spec.cprime
    if t <= junction:
        return spec.C / math.log(spec.C0 / t) ** spec.kappa
    log_j = math.log(spec.C0 / spec.cprime)
    slope = spec.C * spec.kappa / (junction * log_j ** (spec.kappa + 1.0))
    return spec.C / log_j ** spec.kappa + slope * (t - junction)


def psi_f(spec, lam):
    """f(lambda) = F lambda^(-s) of the infimum construction, F = spec.f_coeff."""
    return spec.f_coeff * np.asarray(lam, dtype=float) ** (-spec.s)


def psi_g(spec, lam):
    """g(lambda) = lambda^(1/2 - s) of the infimum construction."""
    return np.asarray(lam, dtype=float) ** (0.5 - spec.s)


def gridded_psi_infimum(spec, t: float, lambda_grid) -> float:
    """Brute-force oracle of vsc.psi_infimum: the minimum of g Psi0(t) + f^2 over one grid."""
    return float((psi_g(spec, lambda_grid) * scalar_psi0(spec, t)
                  + psi_f(spec, lambda_grid) ** 2).min())


def psi_cutoff(spec, t: float) -> float:
    """The cutoff lambda* where g Psi0(t) + f^2 is stationary, for s < 1/2."""
    s = spec.s
    return (4.0 * s * spec.f_coeff ** 2 / ((1.0 - 2.0 * s) * scalar_psi0(spec, t))) \
        ** (2.0 / (1.0 + 2.0 * s))


def scalar_psi_infimum(spec, t: float) -> float:
    """One-t oracle of vsc.psi_infimum: g Psi0(t) + f^2 at lambda* (Psi0 itself at s = 1/2)."""
    if spec.s == 0.5:  # g = 1 and f^2 -> 0 as lambda -> inf
        return scalar_psi0(spec, t)
    lam = psi_cutoff(spec, t)
    return float(psi_g(spec, lam) * scalar_psi0(spec, t) + psi_f(spec, lam) ** 2)


def misfit_norm(op, trace_values, u_delta) -> float:
    """||trace_values - u_delta||_a in the lumped GammaA norm."""
    d = trace_values - u_delta
    return float(np.sqrt((op.w_a * d * d).sum()))


def loop_sample_terms(op, basis, q_dag, samples, m0) -> list[tuple[float, float, float]]:
    """Per-sample oracle of vsc._sample_terms: one admissibility check and one K q per sample."""
    mesh = op.mesh
    half_dag = 0.5 * fem.boundary_l2_norm(mesh, q_dag) ** 2
    k_dag = op.apply_linear(q_dag.values)
    terms = []
    for i, q in enumerate(samples):
        if not scalar_admissibility_check(q, q_dag, basis, m0):
            raise InadmissibleSampleError(f"sample {i} outside the admissible ball (m0={m0})")
        diff = fem.BoundaryVector(geometry.GAMMA_I, q.values - q_dag.values)
        terms.append((0.25 * fem.boundary_l2_norm(mesh, diff) ** 2,
                      0.5 * fem.boundary_l2_norm(mesh, q) ** 2 - half_dag,
                      misfit_norm(op, op.apply_linear(q.values), k_dag)))
    return terms


def loop_vsc_report(op, basis, q_dag, spec, samples, m0=10.0):
    """Per-sample oracle of vsc.check_vsc_inequality: (lhs, rhs, margin) arrays and the scale."""
    rows = []
    scale = max(1.0, 0.5 * fem.boundary_l2_norm(op.mesh, q_dag) ** 2)
    for lhs, rhs_norms, misfit in loop_sample_terms(op, basis, q_dag, samples, m0):
        rhs = rhs_norms + scalar_psi_infimum(spec, max(misfit, vsc.T_FLOOR))
        rows.append((lhs, rhs, rhs - lhs))
        scale = max(scale, abs(lhs), abs(rhs))
    lhs, rhs, margin = np.array(rows).reshape(-1, 3).T
    return lhs, rhs, margin, scale


def loop_fit_vsc_constants(op, basis, q_dag, s, kappa):
    """Per-lambda oracle of vsc.fit_vsc_constants.

    Each worst flux 2 q_lambda - qd comes from a Tikhonov solve on the
    exact trace K qd + b at rho = 2 lambda (-qd at lambda = inf), and its
    misfit and deficit from loop_sample_terms; the slope ||a / s|| of the
    curve at 0 is summed one singular pair at a time.
    """
    sv = op.whitened_svd[1]
    exact = fem.BoundaryVector(geometry.GAMMA_A, op.apply_linear(q_dag.values) + op.b)
    worst = [fem.BoundaryVector(geometry.GAMMA_I, 2.0 * inversion.tikhonov_solve(
        op, exact, 2.0 * lam).q_rec.values - q_dag.values)
        for lam in np.geomspace(sv.min() ** 2 * 1e-6, sv.max() ** 2 * 1e6, vsc.CURVE_POINTS)]
    worst.append(fem.BoundaryVector(geometry.GAMMA_I, -q_dag.values))
    terms = loop_sample_terms(op, basis, q_dag, worst, math.inf)
    tau = [misfit for *_, misfit in terms]
    dstar = [lhs - rhs_norms for lhs, rhs_norms, _ in terms]
    x = np.sqrt(op.w_i) * q_dag.values
    slope = math.sqrt(sum((float(v @ x) / sj) ** 2 for v, sj in zip(op.whitened_svd[2], sv)))

    cprime = tau[-1]
    unit = vsc.IndexFunctionSpec(C=1.0, C0=cprime * math.exp(kappa + 1.0) * 1.01, kappa=kappa,
                                 s=s, cprime=cprime,
                                 f_coeff=spectral.sobolev_norm(basis, s, q_dag))
    # Psi(tau_k) must cover D*(tau_(k+1)), and Psi(tau_0) the tangent slope * tau_0;
    # Psi is C^p times its value at C = 1, p = 4s / (1 + 2s) (1 at s = 1/2)
    required = 0.0
    for t, bound in [(tau[0], slope * tau[0]), *zip(tau, dstar[1:])]:
        if bound > 0.0:
            unit_psi = scalar_psi_infimum(unit, t)
            required = max(required, (bound / unit_psi) ** ((1.0 + 2.0 * s) / (4.0 * s)))
    return replace(unit, C=required * (1.0 + 1e-9))


def loop_load_mesh(path) -> geometry.Mesh:
    """Per-line oracle of geometry.load_mesh: float() and int() on each record and count."""
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
            # int() plus the number grammar: no underscores, no non-ASCII digits
            if "_" in parts[1] or not parts[1].isascii():
                raise ValueError
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


def loop_read_boundary_csv(path, mesh, tag) -> fem.BoundaryVector:
    """Per-line oracle of cli.read_boundary_csv: int() and float() on each field."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0] != cli.TRACE_CSV_HEADER:
        raise MalformedFileError(f"bad header in {path}", 1)
    bmap = geometry.boundary_map(mesh, tag)
    indices, arcs = bmap.vertex_indices, bmap.arc_coords
    arc_tol = 1e-9 * bmap.perimeter
    n = len(indices)
    if len(raw) - 1 != n:
        raise MalformedFileError(f"{path} has {len(raw) - 1} records, expected {n}")
    values = np.empty(n)
    for ln, line in enumerate(raw[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedFileError(f"expected 3 fields, got {len(parts)}", ln)
        try:
            index = int(parts[0])
            arc = float(parts[1])
            values[ln - 2] = float(parts[2])
        except ValueError:
            raise MalformedFileError(f"malformed record {line!r}", ln) from None
        if index != indices[ln - 2]:
            raise MalformedFileError(
                f"vertex_index {index} where the {tag} loop has vertex {indices[ln - 2]}", ln)
        if not abs(arc - arcs[ln - 2]) <= arc_tol:
            raise MalformedFileError(
                f"arc_coord {parts[1]} where the {tag} loop has {manifest.fmt(arcs[ln - 2])}", ln)
        if not np.isfinite(values[ln - 2]):
            raise MalformedFileError(f"non-finite value {parts[2]!r}", ln)
    return fem.BoundaryVector(tag, values)


def _bad_record():
    raise ValueError


def scalar_add_noise(mesh, u_exact, delta, seed):
    """Per-row oracle of inversion.noisy_rows: Gaussian noise of exact L2(GammaA) norm delta."""
    if u_exact.tag != geometry.GAMMA_A:
        raise TagMismatchError(f"data trace must be tagged {geometry.GAMMA_A}, got {u_exact.tag}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    if delta == 0.0:
        return fem.BoundaryVector(geometry.GAMMA_A, u_exact.values.copy())
    rng = np.random.default_rng(seed)
    for _ in range(2):
        xi = rng.standard_normal(len(u_exact.values))
        nrm = fem.boundary_l2_norm(mesh, fem.BoundaryVector(geometry.GAMMA_A, xi))
        if nrm > 0.0:
            return fem.BoundaryVector(geometry.GAMMA_A, u_exact.values + delta * xi / nrm)
    raise SolverFailureError("degenerate zero noise draw twice in a row")


def scalar_project(op, u_delta):
    """Per-row oracle of inversion.project_rows: (c = U^T d, ||d - U c||^2) for one datum."""
    if u_delta.tag != geometry.GAMMA_A:
        raise TagMismatchError(f"data must be tagged {geometry.GAMMA_A}, got {u_delta.tag}")
    if u_delta.values.shape != (op.n_a,):
        raise DimensionMismatchError(f"data trace length {u_delta.values.shape} != {op.n_a}")
    if not np.isfinite(u_delta.values).all():
        raise ParameterDomainError("data trace u_delta has non-finite values")
    U = op.whitened_svd[0]
    d = np.sqrt(op.w_a) * (u_delta.values - op.b)
    c = U.T @ d
    return c, float(np.sum((d - U @ c) ** 2))


def scalar_tikhonov_solve(op, u_delta, rho):
    """Per-row oracle of inversion.tikhonov_rows: the SVD filter solution for one datum."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    c, _ = scalar_project(op, u_delta)
    _, s, Vt = op.whitened_svd
    q = (Vt.T @ (s / (s * s + 0.5 * rho) * c)) / np.sqrt(op.w_i)
    residual_norm = misfit_norm(op, op.apply_linear(q) + op.b, u_delta.values)
    solution_norm = float(np.sqrt((op.w_i * q * q).sum()))
    return inversion.TikhonovResult(fem.BoundaryVector(geometry.GAMMA_I, q), float(rho),
                                    residual_norm, solution_norm)


def scalar_admissibility_check(q_rec, q_dag, basis, m0):
    """Per-row oracle of inversion.admissible_rows: ||q_rec - q_dag||_(1/2, GammaI) <= m0."""
    diff = fem.BoundaryVector(geometry.GAMMA_I, q_rec.values - q_dag.values)
    return spectral.sobolev_norm(basis, 0.5, diff) <= m0


def scalar_residual(op, u_delta):
    """One-rho oracle of inversion._residuals: rho -> residual for one datum."""
    c, perp_sq = scalar_project(op, u_delta)
    s_sq = op.whitened_svd[1] ** 2

    def residual(rho: float) -> float:
        lam = 0.5 * rho
        return float(np.sqrt(np.sum((lam / (s_sq + lam) * c) ** 2) + perp_sq))

    return residual


def scalar_choose_rho_discrepancy(op, u_delta, delta, tau_d=1.5):
    """One-datum oracle of inversion.discrepancy_search: the scalar bisection on log rho."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not tau_d > 1.0:
        raise ValueError(f"tau_d must be > 1, got {tau_d}")

    lo, hi = inversion.RHO_BRACKET
    residual = scalar_residual(op, u_delta)
    r_lo = residual(lo)
    if r_lo > tau_d * delta:
        raise BracketFailureError(
            f"residual {r_lo:.3e} at rho={lo:.1e} exceeds tau_d*delta={tau_d * delta:.3e}; "
            "the mesh cannot fit the data this closely (under-resolved mesh)"
        )
    r_hi = residual(hi)
    if r_hi < delta:
        raise BracketFailureError(
            f"residual {r_hi:.3e} at rho={hi:.1e} is below delta={delta:.3e}; "
            "delta lies above the data scale (q = 0 already over-fits)"
        )
    if r_hi <= tau_d * delta:
        return hi

    best_in_band = lo if r_lo >= delta else None
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    for _ in range(200):
        mid = 10.0 ** (0.5 * (log_lo + log_hi))
        r_mid = residual(mid)
        if r_mid > tau_d * delta:
            log_hi = np.log10(mid)
        else:
            log_lo = np.log10(mid)
            if r_mid >= delta:
                best_in_band = mid
        if log_hi - log_lo < 1e-3 and best_in_band is not None:
            return best_in_band
    raise BracketFailureError("bisection exhausted its iteration budget")


def loop_rate_rows(config) -> tuple[list, list[str]]:
    """Per-row oracle of rates.run_rate_study: (rows, failure warnings), one scalar search per row."""
    coarse = geometry.generate_annulus_mesh(config.r_inner, config.r_outer, config.h)
    fine = coarse
    for _ in range(config.refine_level):
        fine = geometry.refine_uniform(fine)
    basis = spectral.build_spectral_basis(coarse)
    q_dag = spectral.synthesize_flux_with_smoothness(basis, config.s, config.eps,
                                                     config.flux_seed)
    q_fine = fem.BoundaryVector(geometry.GAMMA_I, rates.transfer_boundary_values(
        coarse, fine, geometry.GAMMA_I, q_dag.values))
    data_fine = fem.ProblemData.from_constants(fine, config.alpha, config.k, config.f, config.u_a)
    u_fine = fem.trace(fem.FactorizedSystem(fine, data_fine).solve_flux(q_fine), geometry.GAMMA_A)
    u_exact = fem.BoundaryVector(geometry.GAMMA_A, rates.transfer_boundary_values(
        fine, coarse, geometry.GAMMA_A, u_fine.values))
    op = inversion.build_forward_operator(coarse, fem.ProblemData.from_constants(
        coarse, config.alpha, config.k, config.f, config.u_a))
    rows, warnings = [], []
    for i, delta in enumerate(config.delta_grid):
        for j in range(config.seeds_per_delta):
            seed = config.base_seed + 1000 * i + j
            u_delta = scalar_add_noise(coarse, u_exact, float(delta), seed)
            try:
                rho = (scalar_choose_rho_discrepancy(op, u_delta, float(delta), config.tau_d)
                       if config.rho_rule == "discrepancy" else
                       float(config.fixed_rho_schedule[i]))
            except BracketFailureError as exc:
                warnings.append(f"delta={delta:.3e} seed={seed} failed: {exc}")
                rows.append(rates.RateRow(float(delta), seed, math.nan, math.nan, math.nan,
                                          False, True))
                continue
            result = scalar_tikhonov_solve(op, u_delta, rho)
            err = fem.boundary_l2_norm(coarse, fem.BoundaryVector(
                geometry.GAMMA_I, result.q_rec.values - q_dag.values))
            rows.append(rates.RateRow(float(delta), seed, result.rho, err, result.residual_norm,
                                      scalar_admissibility_check(result.q_rec, q_dag, basis,
                                                                 config.m0), False))
    return rows, warnings


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
