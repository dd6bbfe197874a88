import numpy as np
import pytest

from fluxrec import fem, inversion
from fluxrec.errors import (
    BracketFailureError,
    DimensionMismatchError,
    ParameterDomainError,
    SolverFailureError,
    TagMismatchError,
)
from fluxrec.fem import BoundaryVector, FactorizedSystem, ProblemData, boundary_l2_norm, trace
from fluxrec.geometry import GAMMA_A, GAMMA_I, generate_annulus_mesh
from fluxrec.inversion import (
    add_noise,
    adjoint_apply,
    admissible_rows,
    build_forward_operator,
    choose_rho_discrepancy,
    tikhonov_objective,
    tikhonov_solve,
)
from fluxrec.spectral import band_limited_flux, sobolev_norm


@pytest.fixture(scope="module")
def op_h005():
    mesh = generate_annulus_mesh(0.5, 1.0, 0.05)
    return build_forward_operator(mesh, ProblemData.from_constants(mesh))


def test_offset_is_constant_for_constant_ambient(coarse_mesh):
    data = ProblemData.from_constants(coarse_mesh, alpha=1.0, k=1.0, f=0.0, u_a=2.5)
    op = build_forward_operator(coarse_mesh, data)
    np.testing.assert_allclose(op.b, 2.5, atol=1e-9)


def test_affinity(forward_op, rng):
    q1 = rng.standard_normal(forward_op.n_i)
    q2 = rng.standard_normal(forward_op.n_i)
    lhs = forward_op.apply_linear(q1 + q2)
    rhs = forward_op.apply_linear(q1) + forward_op.apply_linear(q2)
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)
    assert np.isfinite(forward_op.K).all()


def test_singular_value_decay(forward_op, op_h005):
    # derived oracle values: the h=0.1 operator floors near 2.5e-7 but is
    # already below 1e-4 of sigma_max within 30 modes; the h=0.05 operator
    # crosses 1e-8 at index 53 (see ledger: spec's "~30" estimate is off)
    sv = forward_op.whitened_svd[1]
    rel = sv / sv[0]
    assert rel[30] <= 1e-4
    rel_fine = op_h005.whitened_svd[1]
    rel_fine = rel_fine / rel_fine[0]
    below = np.nonzero(rel_fine < 1e-8)[0]
    assert len(below) > 0
    assert below[0] <= 60


def test_k_matches_direct_solve_across_blocks(op_h005):
    # n_i = 126 > _FLUX_BLOCK, so K is built from two multi-right-hand-side solves
    assert op_h005.n_i > fem._FLUX_BLOCK
    q = BoundaryVector(GAMMA_I, np.random.default_rng(5).standard_normal(op_h005.n_i))
    via_solve = trace(FactorizedSystem(op_h005.mesh, op_h005.data).solve_flux(q), GAMMA_A).values
    gap = np.linalg.norm(op_h005.apply_linear(q.values) - via_solve)
    assert gap <= 1e-12 * np.linalg.norm(via_solve)


def test_adjoint_identity(forward_op, rng):
    for _ in range(20):
        q = rng.standard_normal(forward_op.n_i)
        w = rng.standard_normal(forward_op.n_a)
        lhs = float((forward_op.w_a * forward_op.apply_linear(q) * w).sum())
        rhs = float((forward_op.w_i * q * forward_op.apply_adjoint(w)).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_adjoint_zero_and_gram_positivity(forward_op, rng):
    zero = adjoint_apply(forward_op, BoundaryVector(GAMMA_A, np.zeros(forward_op.n_a)))
    assert np.abs(zero.values).max() == 0.0
    for _ in range(5):
        q = rng.standard_normal(forward_op.n_i)
        kq = forward_op.apply_linear(q)
        kstar_kq = forward_op.apply_adjoint(kq)
        assert float((forward_op.w_i * kstar_kq * q).sum()) >= -1e-12


def test_add_noise_identity_exact_norm_determinism(coarse_mesh, forward_op, rng):
    u = BoundaryVector(GAMMA_A, rng.standard_normal(forward_op.n_a))
    assert (add_noise(coarse_mesh, u, 0.0, 1).values == u.values).all()
    delta = 1e-3
    noisy = add_noise(coarse_mesh, u, delta, seed=11)
    measured = boundary_l2_norm(coarse_mesh, BoundaryVector(GAMMA_A, noisy.values - u.values))
    assert abs(measured - delta) <= 1e-12
    again = add_noise(coarse_mesh, u, delta, seed=11)
    assert (noisy.values == again.values).all()
    other = add_noise(coarse_mesh, u, delta, seed=12)
    assert np.abs(noisy.values - other.values).max() > 0.0


def test_tikhonov_large_rho_kills_solution(forward_op, rng):
    u = BoundaryVector(GAMMA_A, forward_op.b + 0.1 * rng.standard_normal(forward_op.n_a))
    res = tikhonov_solve(forward_op, u, 1e12)
    scale = np.abs(forward_op.apply_adjoint(u.values - forward_op.b)).max()
    assert res.solution_norm <= 1e-6 * max(scale, 1.0)


def test_tikhonov_normal_equation_residual_and_gradient(forward_op, basis, rng):
    q_dag = band_limited_flux(basis, 8, seed=4)
    u = BoundaryVector(GAMMA_A, forward_op.apply(q_dag).values)
    ud = add_noise(forward_op.mesh, u, 1e-3, seed=2)
    rho = 1e-5
    res = tikhonov_solve(forward_op, ud, rho)
    f0 = tikhonov_objective(forward_op, res.q_rec.values, ud.values, rho)
    for _ in range(5):
        d = rng.standard_normal(forward_op.n_i)
        d /= np.linalg.norm(d)
        h = 1e-6
        fp = tikhonov_objective(forward_op, res.q_rec.values + h * d, ud.values, rho)
        fm = tikhonov_objective(forward_op, res.q_rec.values - h * d, ud.values, rho)
        assert abs(fp - fm) / (2.0 * h) <= 1e-6 * max(abs(f0), 1.0)


def test_tikhonov_monotonicity(forward_op, basis):
    q_dag = band_limited_flux(basis, 8, seed=4)
    ud = add_noise(forward_op.mesh, forward_op.apply(q_dag), 1e-3, seed=3)
    resids, solns = [], []
    for rho in np.geomspace(1e-10, 1e4, 20):
        r = tikhonov_solve(forward_op, ud, rho)
        resids.append(r.residual_norm)
        solns.append(r.solution_norm)
    assert all(b >= a - 1e-10 for a, b in zip(resids, resids[1:]))
    assert all(b <= a + 1e-10 for a, b in zip(solns, solns[1:]))


def test_tikhonov_linearity_in_data(forward_op, rng):
    rho = 1e-4
    u1 = rng.standard_normal(forward_op.n_a)
    u2 = rng.standard_normal(forward_op.n_a)
    q1 = tikhonov_solve(forward_op, BoundaryVector(GAMMA_A, forward_op.b + u1), rho).q_rec.values
    q2 = tikhonov_solve(forward_op, BoundaryVector(GAMMA_A, forward_op.b + u2), rho).q_rec.values
    q12 = tikhonov_solve(forward_op, BoundaryVector(GAMMA_A, forward_op.b + u1 + u2),
                         rho).q_rec.values
    assert np.abs(q12 - q1 - q2).max() <= 1e-9 * max(np.abs(q12).max(), 1.0)


def test_tikhonov_minimality(forward_op, basis):
    q_dag = band_limited_flux(basis, 5, seed=9)
    ud = add_noise(forward_op.mesh, forward_op.apply(q_dag), 1e-2, seed=5)
    rho = 1e-3
    res = tikhonov_solve(forward_op, ud, rho)
    f_rec = tikhonov_objective(forward_op, res.q_rec.values, ud.values, rho)
    assert f_rec <= tikhonov_objective(forward_op, np.zeros(forward_op.n_i), ud.values, rho)
    assert f_rec <= tikhonov_objective(forward_op, q_dag.values, ud.values, rho)


def test_tikhonov_rejects_bad_inputs(forward_op):
    u = BoundaryVector(GAMMA_A, np.zeros(forward_op.n_a))
    with pytest.raises(ValueError):
        tikhonov_solve(forward_op, u, 0.0)
    with pytest.raises(TagMismatchError):
        tikhonov_solve(forward_op, BoundaryVector(GAMMA_I, np.zeros(forward_op.n_i)), 1.0)
    short = BoundaryVector(GAMMA_A, np.zeros(forward_op.n_a - 1))
    with pytest.raises(DimensionMismatchError):
        tikhonov_solve(forward_op, short, 1.0)
    with pytest.raises(DimensionMismatchError):
        choose_rho_discrepancy(forward_op, short, 1e-3)


def test_search_path_guards_reject_nan(forward_op, coarse_mesh):
    u = BoundaryVector(GAMMA_A, forward_op.b + 1e-3)
    nan = float("nan")
    with pytest.raises(ValueError, match="rho must be positive"):
        tikhonov_solve(forward_op, u, nan)
    with pytest.raises(ValueError, match="delta must be positive"):
        choose_rho_discrepancy(forward_op, u, nan)
    with pytest.raises(ValueError, match="tau_d must be > 1"):
        choose_rho_discrepancy(forward_op, u, 1e-4, tau_d=nan)
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        add_noise(coarse_mesh, u, nan, seed=1)
    system = FactorizedSystem(forward_op.mesh, forward_op.data)
    with pytest.raises(SolverFailureError):
        system.solve(np.full(coarse_mesh.n_vertices, nan))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_data_is_rejected(forward_op, bad):
    values = forward_op.b + 1e-3
    values[3] = bad
    u = BoundaryVector(GAMMA_A, values)
    with pytest.raises(ParameterDomainError, match="data trace"):
        tikhonov_solve(forward_op, u, 1e-4)
    with pytest.raises(ParameterDomainError, match="data trace"):
        choose_rho_discrepancy(forward_op, u, 1e-4)


def test_discrepancy_band_and_small_rho(forward_op, basis):
    q_dag = band_limited_flux(basis, 5, seed=11)
    u_exact = forward_op.apply(q_dag)
    delta = 1e-6
    ud = add_noise(forward_op.mesh, u_exact, delta, seed=8)
    rho = choose_rho_discrepancy(forward_op, ud, delta)
    res = tikhonov_solve(forward_op, ud, rho)
    assert delta <= res.residual_norm <= 1.5 * delta


def test_discrepancy_bracket_failure_large_delta(forward_op, basis):
    q_dag = band_limited_flux(basis, 5, seed=11)
    ud = add_noise(forward_op.mesh, forward_op.apply(q_dag), 1e-3, seed=8)
    scale = boundary_l2_norm(forward_op.mesh,
                             BoundaryVector(GAMMA_A, ud.values - forward_op.b))
    with pytest.raises(BracketFailureError):
        choose_rho_discrepancy(forward_op, ud, 10.0 * scale)


def test_noiseless_band_limited_recovery(forward_op, basis, coarse_mesh):
    # inverse-crime control: same mesh, tiny delta, discrepancy rho
    q_dag = band_limited_flux(basis, 5, seed=11)
    ud = add_noise(coarse_mesh, forward_op.apply(q_dag), 1e-8, seed=5)
    rho = choose_rho_discrepancy(forward_op, ud, 1e-8)
    res = tikhonov_solve(forward_op, ud, rho)
    err = boundary_l2_norm(coarse_mesh, BoundaryVector(
        GAMMA_I, res.q_rec.values - q_dag.values))
    assert err <= 0.1 * boundary_l2_norm(coarse_mesh, q_dag)


def test_error_non_increasing_in_delta(forward_op, basis, coarse_mesh):
    # error splitting sanity: same flux, shrinking noise, discrepancy rho
    q_dag = band_limited_flux(basis, 6, seed=21)
    u_exact = forward_op.apply(q_dag)
    errors = []
    for delta in (1e-2, 1e-3, 1e-4, 1e-5):
        ud = add_noise(coarse_mesh, u_exact, delta, seed=13)
        rho = choose_rho_discrepancy(forward_op, ud, delta)
        res = tikhonov_solve(forward_op, ud, rho)
        errors.append(boundary_l2_norm(coarse_mesh, BoundaryVector(
            GAMMA_I, res.q_rec.values - q_dag.values)))
    assert all(b <= 1.1 * a for a, b in zip(errors, errors[1:]))


def test_admissibility(forward_op, basis, coarse_mesh):
    q_dag = band_limited_flux(basis, 5, seed=1)
    assert admissible_rows(q_dag.values[None], q_dag, basis, m0=1e-12)[0]
    m0 = 0.5
    e1 = basis.mode(0)
    half_norm = sobolev_norm(basis, 0.5, e1)
    bumped = q_dag.values + 2.0 * m0 * e1.values / half_norm
    assert not admissible_rows(bumped[None], q_dag, basis, m0)[0]
    at_threshold = q_dag.values + m0 * e1.values / half_norm
    assert admissible_rows(at_threshold[None], q_dag, basis, m0 * (1.0 + 1e-12))[0]
