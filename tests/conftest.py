import numpy as np
import pytest
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
