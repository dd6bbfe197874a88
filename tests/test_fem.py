import numpy as np
import pytest
import scipy.linalg
from conftest import loop_assemble_rhs, loop_robin_matrix

from fluxrec import fem, geometry, inversion
from fluxrec.errors import (
    DegenerateTriangleError,
    DimensionMismatchError,
    SolverFailureError,
    TagMismatchError,
)
from fluxrec.fem import (
    BoundaryVector,
    FactorizedSystem,
    ProblemData,
    assemble_rhs,
    assemble_system,
    boundary_l2_norm,
    constant_flux,
    error_norms,
    norms,
    trace,
)
from fluxrec.geometry import GAMMA_A, GAMMA_I, boundary_map, generate_annulus_mesh, refine_uniform

LOG_R = lambda x, y: 0.5 * np.log(x * x + y * y)
LOG_R_GRAD = lambda x, y: (x / (x * x + y * y), y / (x * x + y * y))


def test_system_symmetric_positive_definite(coarse_mesh, default_data):
    system = assemble_system(coarse_mesh, default_data)
    asym = abs(system - system.T).max()
    assert asym <= 1e-12
    # dense eigensolve oracle on the coarse mesh
    smallest = scipy.linalg.eigvalsh(system.toarray())[0]
    assert smallest > 0.0


def test_constant_quadratic_form_equals_robin_mass(coarse_mesh, default_data):
    system = assemble_system(coarse_mesh, default_data)
    c = 3.0
    v = np.full(coarse_mesh.n_vertices, c)
    perimeter = boundary_map(coarse_mesh, GAMMA_A).perimeter
    form = float(v @ (system @ v))
    assert abs(form - c * c * perimeter) <= 1e-10 * form


def test_stiffness_linear_in_alpha(coarse_mesh, rng):
    d1 = ProblemData.from_constants(coarse_mesh, alpha=1.0, k=1.0)
    d2 = ProblemData.from_constants(coarse_mesh, alpha=2.0, k=1.0)
    s1, s2 = assemble_system(coarse_mesh, d1), assemble_system(coarse_mesh, d2)
    v = rng.standard_normal(coarse_mesh.n_vertices)
    # zero the trace on GammaA so only the stiffness part contributes
    v[boundary_map(coarse_mesh, GAMMA_A).vertex_indices] = 0.0
    assert abs(v @ (s2 @ v) - 2.0 * (v @ (s1 @ v))) <= 1e-10 * abs(v @ (s2 @ v))


def test_variable_alpha_matches_quadrature_oracle(coarse_mesh, rng):
    # independent route: assemble the quadratic form value by per-triangle
    # quadrature of alpha |grad v|^2 (alpha linear, gradient constant, so
    # one centroid evaluation of alpha is exact), plus 2-point Gauss on
    # the Robin edges, and compare with the assembled matrix
    alpha = 1.5 + 0.5 * np.sin(coarse_mesh.vertices[:, 0] * 3.0)
    bmap = boundary_map(coarse_mesh, GAMMA_A)
    k = 2.0 + np.cos(np.linspace(0.0, 2.0 * np.pi, len(bmap), endpoint=False))
    data = ProblemData(alpha, k, np.zeros(coarse_mesh.n_vertices), np.zeros(len(bmap)))
    system = assemble_system(coarse_mesh, data)
    v = rng.standard_normal(coarse_mesh.n_vertices)
    form = float(v @ (system @ v))

    oracle = 0.0
    verts = coarse_mesh.vertices
    for tri in coarse_mesh.triangles:
        p = verts[tri]
        area = 0.5 * abs(np.cross(np.append(p[1] - p[0], 0), np.append(p[2] - p[0], 0))[2])
        mat = np.vstack([np.ones(3), p[:, 0], p[:, 1]])
        coef = np.linalg.solve(mat.T, v[tri])
        grad = coef[1:]
        oracle += alpha[tri].mean() * area * float(grad @ grad)
    pos = {int(x): i for i, x in enumerate(bmap.vertex_indices)}
    gauss_t = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    for (a, b), tag in zip(coarse_mesh.boundary_edges, coarse_mesh.boundary_tags):
        if tag != GAMMA_A:
            continue
        length = np.linalg.norm(verts[b] - verts[a])
        ka, kb = k[pos[int(a)]], k[pos[int(b)]]
        va, vb = v[a], v[b]
        kt = ka * (1 - gauss_t) + kb * gauss_t
        vt = va * (1 - gauss_t) + vb * gauss_t
        oracle += length * float((0.5 * kt * vt * vt).sum())
    assert abs(form - oracle) <= 1e-10 * max(abs(form), 1.0)


def test_variable_alpha_manufactured_convergence():
    # alpha = r^2, u* = 1/2 - 1/(2 r^2) is an exact solution of
    # -div(alpha grad u) = f with f = -2/r^2:
    #   alpha u_r = r^2 * r^-3 = 1/r, d/dr(r * alpha u_r) = d/dr(1) = 0
    # in polar form div(alpha grad u) = (1/r) d/dr (r alpha u_r) = 0, so
    # take f = 0; boundary data: -alpha du/dn = -1/r * (dr/dn)
    #   outer (n = +r): -1/1 = -1 = k (u* - u_a) with k=1, u_a = u*(1)+1 = 1
    #   inner (n = -r): +1/0.5 = 2 = q
    exact = lambda x, y: 0.5 - 0.5 / (x * x + y * y)
    grad = lambda x, y: (x / (x * x + y * y) ** 2, y / (x * x + y * y) ** 2)
    mesh = generate_annulus_mesh(0.5, 1.0, 0.2)
    errors = []
    for level in range(3):
        r2 = (mesh.vertices ** 2).sum(axis=1)
        n_a = len(boundary_map(mesh, GAMMA_A))
        data = ProblemData(r2, np.ones(n_a), np.zeros(mesh.n_vertices), np.ones(n_a))
        u = FactorizedSystem(mesh, data).solve_flux(constant_flux(mesh, 2.0))
        errors.append(error_norms(u, exact, grad))
        if level < 2:
            mesh = refine_uniform(mesh)
    for (l2_a, h1_a), (l2_b, h1_b) in zip(errors, errors[1:]):
        assert 3.2 <= l2_a / l2_b <= 4.8
        assert 1.7 <= h1_a / h1_b <= 2.3


def test_degenerate_triangle_rejected(coarse_mesh, default_data):
    bad_vertices = coarse_mesh.vertices.copy()
    tri = coarse_mesh.triangles[0]
    # collapse one triangle to zero area
    bad_vertices[tri[2]] = (bad_vertices[tri[0]] + bad_vertices[tri[1]]) / 2.0
    bad = geometry.Mesh(bad_vertices, coarse_mesh.triangles.copy(),
                        coarse_mesh.boundary_edges.copy(),
                        coarse_mesh.boundary_tags.copy(), coarse_mesh.h)
    with pytest.raises(DegenerateTriangleError):
        assemble_system(bad, default_data)


def test_rhs_zero_for_zero_data(coarse_mesh):
    data = ProblemData.from_constants(coarse_mesh, f=0.0, u_a=0.0)
    rhs = assemble_rhs(coarse_mesh, data, constant_flux(coarse_mesh, 0.0))
    assert np.abs(rhs).max() == 0.0


def test_rhs_linear_in_flux(coarse_mesh, default_data, rng):
    n_i = len(boundary_map(coarse_mesh, GAMMA_I))
    q1 = BoundaryVector(GAMMA_I, rng.standard_normal(n_i))
    q2 = BoundaryVector(GAMMA_I, rng.standard_normal(n_i))
    q12 = BoundaryVector(GAMMA_I, q1.values + q2.values)
    base = assemble_rhs(coarse_mesh, default_data, None)
    r1 = assemble_rhs(coarse_mesh, default_data, q1) - base
    r2 = assemble_rhs(coarse_mesh, default_data, q2) - base
    r12 = assemble_rhs(coarse_mesh, default_data, q12) - base
    np.testing.assert_allclose(r12, r1 + r2, atol=1e-12)


def test_rhs_robin_entries_are_arc_weights(coarse_mesh):
    # f=0, q=0, u_a=1, k=1: by hand, int_e k u_a phi = |e|/2 per adjacent
    # edge, so each GammaA entry is +w_j (strong-form sign; u == u_a solves
    # the problem, so the constant must reproduce the Robin mass row sums)
    data = ProblemData.from_constants(coarse_mesh, k=1.0, u_a=1.0)
    rhs = assemble_rhs(coarse_mesh, data, None)
    bmap = boundary_map(coarse_mesh, GAMMA_A)
    np.testing.assert_allclose(rhs[bmap.vertex_indices], bmap.weights, rtol=1e-12)
    mask = np.ones(coarse_mesh.n_vertices, bool)
    mask[bmap.vertex_indices] = False
    assert np.abs(rhs[mask]).max() == 0.0


def test_rhs_tag_mismatch(coarse_mesh, default_data):
    n_a = len(boundary_map(coarse_mesh, GAMMA_A))
    with pytest.raises(TagMismatchError):
        assemble_rhs(coarse_mesh, default_data, BoundaryVector(GAMMA_A, np.zeros(n_a)))


@pytest.fixture(scope="module", params=[0.1, 0.05, 0.049, 0.025])
def random_problem(request):
    """Mesh with random non-constant alpha, k, f, u_a and flux q (h = 0.049: n_i = 2 * 64 + 1)."""
    mesh = generate_annulus_mesh(0.5, 1.0, request.param)
    rng = np.random.default_rng(20240811)
    n_a, n_i = len(boundary_map(mesh, GAMMA_A)), len(boundary_map(mesh, GAMMA_I))
    data = ProblemData(1.0 + rng.random(mesh.n_vertices), 0.5 + rng.random(n_a),
                       rng.standard_normal(mesh.n_vertices), rng.standard_normal(n_a))
    return mesh, data, BoundaryVector(GAMMA_I, rng.standard_normal(n_i))


def test_rhs_matches_edge_loop_bitwise(random_problem):
    mesh, data, q = random_problem
    for flux in (q, None):
        assert assemble_rhs(mesh, data, flux).tobytes() \
            == loop_assemble_rhs(mesh, data, flux).tobytes()


def test_system_matches_edge_loop_bitwise(random_problem, monkeypatch):
    mesh, data, _ = random_problem
    system = assemble_system(mesh, data)
    monkeypatch.setattr(fem, "_edge_robin_matrix", loop_robin_matrix)
    oracle = assemble_system(mesh, data)
    for name in ("data", "indices", "indptr"):
        assert getattr(system, name).tobytes() == getattr(oracle, name).tobytes(), name


def test_forward_operator_matches_column_loop_bitwise(random_problem):
    # oracle: one loop-assembled load per unit flux, solved in the same blocks
    mesh, data, _ = random_problem
    op = inversion.build_forward_operator(mesh, data)
    system = FactorizedSystem(mesh, data)
    zero_data = ProblemData(data.alpha, data.k, np.zeros(mesh.n_vertices), np.zeros(op.n_a))
    loads = np.column_stack([loop_assemble_rhs(mesh, zero_data, BoundaryVector(GAMMA_I, e))
                             for e in np.eye(op.n_i)])
    idx = boundary_map(mesh, GAMMA_A).vertex_indices
    block = inversion._K_BLOCK
    K = np.hstack([system._lu.solve(np.ascontiguousarray(loads[:, start:start + block]))[idx]
                   for start in range(0, op.n_i, block)])
    b = system.solve(loop_assemble_rhs(mesh, data, None)).values[idx]
    assert op.K.tobytes() == K.tobytes()
    assert op.b.tobytes() == b.tobytes()


def test_solve_block_checks_every_column(coarse_mesh, default_data, rng):
    system = FactorizedSystem(coarse_mesh, default_data)
    loads = rng.standard_normal((coarse_mesh.n_vertices, 4))
    loads[:, 1] = 0.0
    u = system.solve_block(loads)
    assert u.shape == loads.shape
    assert not u[:, 1].any()
    for j in (0, 2, 3):
        assert np.linalg.norm(system.matrix @ u[:, j] - loads[:, j]) \
            <= 1e-10 * np.linalg.norm(loads[:, j])
    for bad in (np.nan, np.inf):
        loads[5, 2] = bad
        with pytest.raises(SolverFailureError, match="column 2"):
            system.solve_block(loads)
    with pytest.raises(DimensionMismatchError):
        system.solve_block(loads[:-1])


def test_singular_factorization_is_a_solver_failure(coarse_mesh, default_data):
    # no finite alpha is singular (1e308 factorizes), so alpha = inf is set after the checks
    data = ProblemData(default_data.alpha.copy(), default_data.k, default_data.f, default_data.u_a)
    data.alpha[0] = np.inf
    with pytest.raises(SolverFailureError, match="factorization failed"):
        FactorizedSystem(coarse_mesh, data)


@pytest.mark.parametrize("key", ["alpha", "k"])
@pytest.mark.parametrize("value", [np.nan, 0.0, -1.0])
def test_non_positive_or_nan_coefficient_is_rejected(coarse_mesh, key, value):
    with pytest.raises(ValueError, match=f"{key} must be strictly positive"):
        ProblemData.from_constants(coarse_mesh, **{key: value})


@pytest.mark.parametrize("key", ["alpha", "k", "f", "u_a"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_data_is_rejected(coarse_mesh, key, value):
    # NaN, and -inf in alpha and k, fail the positivity check first
    message = ("strictly positive" if key in ("alpha", "k") and not value > 0.0 else "finite")
    with pytest.raises(ValueError, match=f"{key} must be {message}"):
        ProblemData.from_constants(coarse_mesh, **{key: value})


def test_single_solve_is_a_one_column_block(coarse_mesh, default_data, rng):
    system = FactorizedSystem(coarse_mesh, default_data)
    rhs = rng.standard_normal(coarse_mesh.n_vertices)
    assert system.solve(rhs).values.tobytes() == system._lu.solve(rhs).tobytes()
    assert not system.solve(np.zeros_like(rhs)).values.any()
    with pytest.raises(SolverFailureError):
        system.solve(np.full_like(rhs, np.nan))


def test_constant_solution(coarse_mesh):
    data = ProblemData.from_constants(coarse_mesh, alpha=1.7, k=2.5, f=0.0, u_a=4.0)
    u = FactorizedSystem(coarse_mesh, data).solve_flux(None)
    np.testing.assert_allclose(u.values, 4.0, atol=1e-9)


def test_superposition(coarse_mesh, rng):
    data = ProblemData.from_constants(coarse_mesh, alpha=1.0, k=1.0, f=0.0, u_a=2.0)
    system = FactorizedSystem(coarse_mesh, data)
    n_i = len(boundary_map(coarse_mesh, GAMMA_I))
    q = BoundaryVector(GAMMA_I, rng.standard_normal(n_i))
    full = system.solve_flux(q)
    base = system.solve_flux(None)
    zero_data = ProblemData.from_constants(coarse_mesh, alpha=1.0, k=1.0)
    flux_only = FactorizedSystem(coarse_mesh, zero_data).solve_flux(q)
    np.testing.assert_allclose(full.values, base.values + flux_only.values, atol=1e-9)


def manufactured_solution_errors(levels=4, h0=0.2):
    mesh = generate_annulus_mesh(0.5, 1.0, h0)
    errors = []
    for level in range(levels):
        data = ProblemData.from_constants(mesh, alpha=1.0, k=1.0, f=0.0, u_a=1.0)
        u = FactorizedSystem(mesh, data).solve_flux(constant_flux(mesh, 2.0))
        errors.append(error_norms(u, LOG_R, LOG_R_GRAD))
        if level + 1 < levels:
            mesh = refine_uniform(mesh)
    return errors


def test_manufactured_log_r_convergence():
    errors = manufactured_solution_errors(levels=3)
    for (l2_a, h1_a), (l2_b, h1_b) in zip(errors, errors[1:]):
        assert 3.5 <= l2_a / l2_b <= 4.5
        assert 1.8 <= h1_a / h1_b <= 2.2


def test_log_r_trace_vanishes_on_gamma_a(coarse_mesh, fine_mesh):
    # log 1 = 0; on the structured annulus the discrete flux balance is
    # exact (polygon perimeters are in ratio exactly 2), so the sup norm
    # is far below the generic O(h^2) level on both meshes
    for mesh in (coarse_mesh, fine_mesh):
        data = ProblemData.from_constants(mesh, alpha=1.0, k=1.0, f=0.0, u_a=1.0)
        u = FactorizedSystem(mesh, data).solve_flux(constant_flux(mesh, 2.0))
        assert np.abs(trace(u, GAMMA_A).values).max() <= 1e-5


def test_trace_linearity_and_constants(coarse_mesh, rng):
    v1 = fem.ScalarField(coarse_mesh, rng.standard_normal(coarse_mesh.n_vertices))
    v2 = fem.ScalarField(coarse_mesh, rng.standard_normal(coarse_mesh.n_vertices))
    t12 = trace(fem.ScalarField(coarse_mesh, v1.values + v2.values), GAMMA_I)
    np.testing.assert_allclose(t12.values, trace(v1, GAMMA_I).values + trace(v2, GAMMA_I).values)
    const = fem.ScalarField(coarse_mesh, np.full(coarse_mesh.n_vertices, 2.5))
    assert (trace(const, GAMMA_A).values == 2.5).all()


def test_norms_zero_and_constant(coarse_mesh):
    zero = fem.ScalarField(coarse_mesh, np.zeros(coarse_mesh.n_vertices))
    assert norms(zero) == (0.0, 0.0)
    c = 2.0
    const = fem.ScalarField(coarse_mesh, np.full(coarse_mesh.n_vertices, c))
    area = geometry.triangle_areas(coarse_mesh.vertices, coarse_mesh.triangles).sum()
    l2, h1 = norms(const)
    assert abs(l2 - c * np.sqrt(area)) <= 1e-10 * l2
    assert abs(h1 - l2) <= 1e-10 * l2


def test_boundary_l2_norm_constant(coarse_mesh):
    n_a = len(boundary_map(coarse_mesh, GAMMA_A))
    v = BoundaryVector(GAMMA_A, np.ones(n_a))
    assert abs(boundary_l2_norm(coarse_mesh, v) - np.sqrt(2.0 * np.pi)) <= 0.01 * np.sqrt(2.0 * np.pi)


def test_algebraic_residual_contract(coarse_mesh, default_data, rng):
    system = FactorizedSystem(coarse_mesh, default_data)
    rhs = rng.standard_normal(coarse_mesh.n_vertices)
    u = system.solve(rhs)
    resid = np.linalg.norm(system.matrix @ u.values - rhs) / np.linalg.norm(rhs)
    assert resid <= 1e-10


def test_maximum_principle_smoke():
    # f=0, q <= 0, u_a >= 0: discrete min stays above -1e-8 on nested meshes
    mesh = generate_annulus_mesh(0.5, 1.0, 0.2)
    for _ in range(3):
        data = ProblemData.from_constants(mesh, alpha=1.0, k=1.0, f=0.0, u_a=0.5)
        u = FactorizedSystem(mesh, data).solve_flux(constant_flux(mesh, -1.0))
        assert u.values.min() >= -1e-8
        mesh = refine_uniform(mesh)


def test_trace_constant_bounds_all_fields(coarse_mesh, trace_constant, rng):
    for _ in range(10):
        u = fem.ScalarField(coarse_mesh, rng.standard_normal(coarse_mesh.n_vertices))
        tr = boundary_l2_norm(coarse_mesh, trace(u, GAMMA_A))
        _, h1 = norms(u)
        assert tr <= trace_constant * h1 * (1.0 + 1e-8)
