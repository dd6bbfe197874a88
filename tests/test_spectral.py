import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import ORACLE_MESHES, dense_loop_operator, oracle_mesh

from fluxrec import spectral
from fluxrec.errors import DimensionMismatchError, EigensolverFailureError, InvalidGeometryError
from fluxrec.fem import BoundaryVector, boundary_l2_norm
from fluxrec.geometry import GAMMA_I, boundary_map, generate_annulus_mesh, refine_uniform
from fluxrec.spectral import (
    analyze,
    build_spectral_basis,
    loop_eigenvalues,
    sobolev_norm,
    synthesize,
    synthesize_flux_with_smoothness,
    tail_norm,
)


def circle_lambdas(n_pairs, radius=0.5):
    """lambda = sqrt(1 + (n/r)^2), each n >= 1 twice."""
    out = [1.0]
    for n in range(1, n_pairs + 1):
        out.extend([np.sqrt(1.0 + (n / radius) ** 2)] * 2)
    return np.array(out)


def regular_loop_lambdas(n, radius=0.5):
    """Exact discrete spectrum of a regular n-gon loop: mu_k = (2 - 2 cos(2 pi k / n)) / L^2."""
    edge = 2.0 * radius * np.sin(np.pi / n)
    mu = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / edge ** 2
    return np.sort(np.sqrt(1.0 + mu))


_LOOP_MESHES = [(0.1, 0), (0.05, 0), (0.035, 1), (0.025, 0)]


def _loop_mesh(h, refine):
    mesh = generate_annulus_mesh(0.5, 1.0, h)
    return refine_uniform(mesh) if refine else mesh


@pytest.mark.parametrize("h, refine", _LOOP_MESHES)
def test_eigenvalues_only_match_the_basis(h, refine):
    mesh = _loop_mesh(h, refine)
    lam, basis_lam = loop_eigenvalues(mesh), build_spectral_basis(mesh).eigenvalues
    assert lam[0] == 1.0
    assert (np.abs(lam - basis_lam) / basis_lam).max() <= 1e-11


@pytest.mark.parametrize("h, refine", _LOOP_MESHES)
def test_loop_spectrum_matches_the_regular_polygon_exactly(h, refine):
    # the inner loop is a regular n-gon, whose discrete spectrum has a closed form
    mesh = _loop_mesh(h, refine)
    exact = regular_loop_lambdas(len(boundary_map(mesh, GAMMA_I)))
    for lam in (loop_eigenvalues(mesh), build_spectral_basis(mesh).eigenvalues):
        assert (np.abs(lam - exact) / exact).max() <= 5e-12


@pytest.mark.parametrize("seed", [10000, 10001, 20000])
def test_eigenvalues_only_keep_mrrr_accuracy_on_the_benchmark_meshes(seed):
    # mesh-pipeline's r_inner for this op seed; eigh(eigvals_only=True), which takes dsterf,
    # misses the smallest nonzero lambda here by up to 4.2e-12, MRRR by at most 5.5e-13
    radius = 0.5 + 0.01 * float(np.random.default_rng(seed).random())
    mesh = refine_uniform(generate_annulus_mesh(radius, 1.0, 0.035))
    exact = regular_loop_lambdas(len(boundary_map(mesh, GAMMA_I)), radius)
    assert (np.abs(loop_eigenvalues(mesh) - exact) / exact).max() <= 2e-12


@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_loop_operator_matches_the_dense_oracle_bitwise(tmp_path, name):
    mesh = oracle_mesh(name, tmp_path)
    sym, mass = spectral._loop_operator(mesh)
    dense, dense_mass = dense_loop_operator(mesh)
    assert sym.flags.f_contiguous  # so that LAPACK may overwrite it without a copy
    assert sym.tobytes() == dense.tobytes()
    assert mass.tobytes() == dense_mass.tobytes()


@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_loop_eigenvalues_match_dsytrd_and_stemr_on_the_dense_oracle_bitwise(tmp_path, name):
    mesh = oracle_mesh(name, tmp_path)
    dense, _ = dense_loop_operator(mesh)
    lwork, _ = scipy.linalg.lapack.dsytrd_lwork(len(dense), lower=1)
    _, diag, off, _, _ = scipy.linalg.lapack.dsytrd(dense, lower=1, lwork=int(lwork))
    mu = scipy.linalg.eigvalsh_tridiagonal(diag, off, lapack_driver="stemr")
    assert loop_eigenvalues(mesh).tobytes() == spectral._lambdas(mu).tobytes()


@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_basis_matches_eigh_on_the_dense_oracle_bitwise(tmp_path, name):
    mesh = oracle_mesh(name, tmp_path)
    dense, mass = dense_loop_operator(mesh)
    mu, y = scipy.linalg.eigh(dense)
    vecs = (1.0 / np.sqrt(mass))[:, None] * y
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(mass))]
    basis = build_spectral_basis(mesh)
    assert basis.eigenvalues.tobytes() == spectral._lambdas(mu).tobytes()
    assert basis.eigenvectors.tobytes() == np.where(peak < 0.0, -vecs, vecs).tobytes()
    assert basis.mass_diag.tobytes() == mass.tobytes()


@pytest.mark.parametrize("r_inner, fails", [(1e-150, False), (1e-155, True)])
def test_an_overflowing_loop_operator_raises_before_lapack(r_inner, fails):
    # the entries scale as 1/r^2: finite at r_inner = 1e-150, beyond float64 at 1e-155
    mesh = generate_annulus_mesh(r_inner, 2.0 * r_inner, 0.25 * r_inner)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if fails:
            for solve in (loop_eigenvalues, build_spectral_basis):
                with pytest.raises(EigensolverFailureError,
                                   match="^the loop operator on GammaI overflows float64$"):
                    solve(mesh)
        else:
            assert np.isfinite(loop_eigenvalues(mesh)).all()
            assert np.isfinite(build_spectral_basis(mesh).eigenvalues).all()


def test_eigenvalue_floor_and_ordering(basis):
    assert basis.eigenvalues[0] == 1.0
    assert (np.diff(basis.eigenvalues) >= 0.0).all()


def test_constant_mode(basis):
    e1 = basis.eigenvectors[:, 0]
    assert np.abs(e1 - e1[0]).max() <= 1e-8 * abs(e1[0])


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_canonical_sign_largest_entry_positive(h):
    vecs = build_spectral_basis(generate_annulus_mesh(0.5, 1.0, h)).eigenvectors
    assert (vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])] > 0.0).all()


def test_orthonormality(basis):
    gram = basis.eigenvectors.T @ (basis.mass_diag[:, None] * basis.eigenvectors)
    assert np.abs(gram - np.eye(basis.n_modes)).max() <= 1e-10


def loop_stiffness_apply(mesh, e):
    """Oracle S_i e of the cyclic P1 stiffness on GammaI, from the loop's edge lengths."""
    pts = mesh.vertices[spectral.boundary_map(mesh, GAMMA_I).vertex_indices]
    w = 1.0 / np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)  # edge j -> j+1
    return w * (e - np.roll(e, -1)) + np.roll(w, 1) * (e - np.roll(e, 1))


def test_operator_consistency(basis, coarse_mesh):
    # S e + M e = lambda^2 M e per eigenpair
    for n in (0, 1, 5, basis.n_modes - 1):
        e = basis.eigenvectors[:, n]
        lhs = loop_stiffness_apply(coarse_mesh, e) + basis.mass_diag * e
        rhs = basis.eigenvalues[n] ** 2 * basis.mass_diag * e
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(np.abs(rhs).max(), 1.0)


def test_circle_spectrum_fine_mesh():
    mesh = generate_annulus_mesh(0.5, 1.0, 0.02)
    basis = build_spectral_basis(mesh)
    exact = circle_lambdas(5)[:10]
    rel = np.abs(basis.eigenvalues[:10] - exact) / exact
    assert rel.max() <= 0.01


def test_eigenvalue_convergence_order():
    errors = []
    mesh = generate_annulus_mesh(0.5, 1.0, 0.1)
    for _ in range(3):
        basis = build_spectral_basis(mesh)
        exact = circle_lambdas(5)[:10]
        errors.append(np.abs(basis.eigenvalues[1:10] - exact[1:]).max())
        mesh = refine_uniform(mesh)
    for e_coarse, e_fine in zip(errors, errors[1:]):
        assert 3.0 <= e_coarse / e_fine <= 5.0


def test_min_loop_size():
    mesh = generate_annulus_mesh(0.5, 1.0, 0.4)
    # structured generator keeps >= 8 theta divisions, so build a fake
    # requirement check instead: the guard must be reachable
    assert len(spectral.boundary_map(mesh, GAMMA_I)) >= 8


def test_analyze_synthesize_roundtrip(basis, rng):
    q = BoundaryVector(GAMMA_I, rng.standard_normal(basis.n_modes))
    c = analyze(basis, q)
    back = synthesize(basis, c)
    assert np.abs(back.values - q.values).max() <= 1e-10 * np.abs(q.values).max()


def test_parseval(basis, coarse_mesh, rng):
    q = BoundaryVector(GAMMA_I, rng.standard_normal(basis.n_modes))
    c = analyze(basis, q)
    l2 = boundary_l2_norm(coarse_mesh, q)
    assert abs((c ** 2).sum() - l2 ** 2) <= 1e-10 * l2 ** 2


def test_single_mode_coefficients(basis):
    c = analyze(basis, basis.mode(3))
    expected = np.zeros(basis.n_modes)
    expected[3] = 1.0
    np.testing.assert_allclose(c, expected, atol=1e-10)


def test_constant_flux_isolates_first_mode(basis):
    q = BoundaryVector(GAMMA_I, np.ones(basis.n_modes))
    c = analyze(basis, q)
    assert np.abs(c[1:]).max() <= 1e-8 * abs(c[0])


def test_dimension_mismatch(basis):
    with pytest.raises(DimensionMismatchError):
        analyze(basis, BoundaryVector(GAMMA_I, np.zeros(basis.n_modes + 1)))


def test_sobolev_norm_cases(basis):
    assert abs(sobolev_norm(basis, 0.0, basis.mode(0)) - 1.0) <= 1e-10
    n = 4
    assert abs(sobolev_norm(basis, 0.5, basis.mode(n))
               - np.sqrt(basis.eigenvalues[n])) <= 1e-10


def test_sobolev_norm_monotone_in_s(basis, rng):
    q = BoundaryVector(GAMMA_I, rng.standard_normal(basis.n_modes))
    values = [sobolev_norm(basis, s, q) for s in (-0.5, -0.25, 0.0, 0.25, 0.5, 1.0)]
    assert all(b >= a * (1.0 - 1e-12) for a, b in zip(values, values[1:]))


def test_sobolev_norm_l2_match(basis, coarse_mesh, rng):
    q = BoundaryVector(GAMMA_I, rng.standard_normal(basis.n_modes))
    assert abs(sobolev_norm(basis, 0.0, q) - boundary_l2_norm(coarse_mesh, q)) <= 1e-10


def test_projector_identity_and_constant(basis, coarse_mesh, rng):
    q = BoundaryVector(GAMMA_I, rng.standard_normal(basis.n_modes))
    assert tail_norm(basis, float(basis.eigenvalues[-1]), q) == 0.0
    # at the spectrum floor only the constant mode stays in the head
    c0 = analyze(basis, q)[0]
    total = boundary_l2_norm(coarse_mesh, q) ** 2
    assert abs(tail_norm(basis, 1.0, q) ** 2 - (total - c0 ** 2)) <= 1e-10 * total


def test_projector_tie_included(basis):
    n = 5
    lam = float(basis.eigenvalues[n])
    assert tail_norm(basis, lam, basis.mode(n)) <= 1e-10
    assert abs(tail_norm(basis, lam * (1.0 - 1e-9), basis.mode(n)) - 1.0) <= 1e-10


def test_projector_decay_bound(basis, rng):
    # ||(I - P_lambda) q|| <= lambda^-s ||q||_{H^s}: exact identity chain
    for trial in range(100):
        q = BoundaryVector(GAMMA_I, rng.standard_normal(basis.n_modes))
        s = rng.uniform(0.05, 0.5)
        norm_s = sobolev_norm(basis, s, q)
        for lam in np.geomspace(1.0, basis.eigenvalues[-1] * 2.0, 10):
            assert lam ** (-s) * norm_s - tail_norm(basis, lam, q) >= -1e-12


def test_pythagoras(basis, coarse_mesh, rng):
    q = BoundaryVector(GAMMA_I, rng.standard_normal(basis.n_modes))
    lam = float(basis.eigenvalues[basis.n_modes // 2])
    c = analyze(basis, q)
    head = float((c[basis.eigenvalues <= lam] ** 2).sum())
    tail = tail_norm(basis, lam, q)
    total = boundary_l2_norm(coarse_mesh, q) ** 2
    assert abs(total - head - tail ** 2) <= 1e-10 * total


def test_synthesis_deterministic_and_normalized(basis, coarse_mesh):
    q1 = synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed=7)
    q2 = synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed=7)
    assert (q1.values == q2.values).all()
    assert abs(boundary_l2_norm(coarse_mesh, q1) - 1.0) <= 1e-12
    q3 = synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed=8)
    assert np.abs(q1.values - q3.values).max() > 0.0


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_synthesis_rejects_eps_that_is_not_a_positive_real(basis, eps):
    # a NaN eps made every coefficient NaN, found only later as a NaN solver residual
    with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}"):
        synthesize_flux_with_smoothness(basis, 0.5, eps, seed=0)


def test_synthesis_smoothness_threshold():
    # partial sums of lambda^{2s'} c_n^2 stay bounded below the synthesis
    # order and grow with refinement above it
    mesh = generate_annulus_mesh(0.5, 1.0, 0.1)
    s, eps = 0.5, 0.01
    below, above = [], []
    for _ in range(3):
        basis = build_spectral_basis(mesh)
        q = synthesize_flux_with_smoothness(basis, s, eps, seed=3)
        c = analyze(basis, q)
        lam = basis.eigenvalues
        below.append(float((lam ** (2 * s) * c ** 2).sum()))
        above.append(float((lam ** 2.0 * c ** 2).sum()))
        mesh = refine_uniform(mesh)
    assert below[-1] <= 2.0 * below[0]
    assert above[-1] >= 2.0 * above[0]


def test_small_loop_rejected():
    mesh = generate_annulus_mesh(0.5, 1.0, 0.1)
    # fabricate a mesh whose GammaI loop is below the minimum by slicing
    # the basis precondition directly
    with pytest.raises(InvalidGeometryError):
        fake = _mesh_with_tiny_inner_loop(mesh)
        build_spectral_basis(fake)


def _mesh_with_tiny_inner_loop(mesh):
    # hexagonal annulus: 6 vertices per ring
    import fluxrec.geometry as g

    n_theta, n_r = 6, 2
    radii = np.linspace(0.5, 1.0, n_r + 1)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    vertices = np.concatenate([
        np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1) for r in radii
    ])
    triangles = []
    for j in range(n_r):
        base, top = j * n_theta, (j + 1) * n_theta
        for i in range(n_theta):
            ip = (i + 1) % n_theta
            triangles.append((base + i, top + i, top + ip))
            triangles.append((base + i, top + ip, base + ip))
    inner = [(i, (i + 1) % n_theta) for i in range(n_theta)]
    outer = [(n_r * n_theta + i, n_r * n_theta + (i + 1) % n_theta) for i in range(n_theta)]
    return g.Mesh(vertices, np.asarray(triangles, dtype=np.int64),
                  np.asarray(inner + outer, dtype=np.int64),
                  np.asarray([g.GAMMA_I] * n_theta + [g.GAMMA_A] * n_theta), 0.5)


def test_importing_spectral_loads_neither_fem_nor_scipy_sparse():
    # spectral reads its loop from the geometry map and its vectors from geometry
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, fluxrec.spectral; "
            "print(sorted({'fluxrec.fem', 'scipy.sparse'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert proc.stdout == "[]\n"
