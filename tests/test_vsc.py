import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    gridded_psi_infimum,
    loop_fit_vsc_constants,
    loop_vsc_report,
    psi_cutoff,
    psi_f,
    psi_g,
    scalar_psi0,
    scalar_psi_infimum,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrec import fem, inversion, spectral, vsc
from fluxrec.errors import (
    DimensionMismatchError,
    FitFailureError,
    InadmissibleSampleError,
    ParameterDomainError,
)
from fluxrec.fem import BoundaryVector
from fluxrec.geometry import GAMMA_A, GAMMA_I, generate_annulus_mesh
from fluxrec.rates import ExperimentConfig
from fluxrec.spectral import sobolev_norm, synthesize_flux_with_smoothness
from fluxrec.vsc import (
    IndexFunctionSpec,
    check_vsc_inequality,
    fit_vsc_constants,
    psi0_eval,
    psi_infimum,
    sample_admissible_fluxes,
    worst_deficit_curve,
)

PSI0_SPEC = IndexFunctionSpec(C=1.0, C0=100.0, kappa=0.9, cprime=1.0)


@pytest.fixture(scope="module")
def q_dag(basis):
    return synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed=42)


@pytest.fixture(scope="module")
def fitted(forward_op, basis, q_dag):
    return fit_vsc_constants(forward_op, basis, q_dag, s=0.5, kappa=0.9)


@pytest.fixture(scope="module")
def worst(forward_op, q_dag):
    """The worst fluxes 2 q_lambda - qd of every finite lambda on the curve, one per column."""
    return worst_fluxes(forward_op, q_dag, worst_deficit_curve(forward_op, q_dag)[0][:-1])


@pytest.fixture(scope="module")
def fine_op_and_basis():
    mesh = generate_annulus_mesh(0.5, 1.0, 0.05)
    op = inversion.build_forward_operator(mesh, fem.ProblemData.from_constants(mesh))
    return op, spectral.build_spectral_basis(mesh)


def as_list(fluxes):
    """The columns of a flux matrix as boundary vectors, the oracle's input."""
    return [BoundaryVector(GAMMA_I, col) for col in fluxes.T]


def vsc_check_fit(forward_op, basis, seed):
    """q_dag, constants and holdout as `vsc-check --n-samples 200 --seed <seed>` builds them."""
    q_dag = synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed)
    spec = fit_vsc_constants(forward_op, basis, q_dag, s=0.5, kappa=0.9)
    return q_dag, spec, sample_admissible_fluxes(basis, q_dag, 10.0, 200, seed + 2)


def worst_fluxes(op, q_dag, lams):
    """Columns 2 q_lambda - qd, q_lambda the Tikhonov solution of exact data at rho = 2 lambda."""
    exact = BoundaryVector(GAMMA_A, op.apply_linear(q_dag.values) + op.b)
    return np.column_stack([2.0 * inversion.tikhonov_solve(op, exact, 2.0 * lam).q_rec.values
                            - q_dag.values for lam in lams])


def dense_requirement(op, q_dag, spec, n_points=200_000):
    """The smallest C with C Psi0_1(tau) >= D*(tau) (Psi at s = 1/2, C0 and cprime of spec) at
    n_points log-spaced lambda on [s_min^2 1e-8, s_max^2 1e8] and at the end tau_max."""
    _, sv, Vt = op.whitened_svd
    a = Vt @ (np.sqrt(op.w_i) * q_dag.values)
    unit = replace(spec, C=1.0)
    need = float(a @ a / psi0_eval(unit, 2.0 * np.linalg.norm(sv * a)))
    lams = np.geomspace(sv.min() ** 2 * 1e-8, sv.max() ** 2 * 1e8, n_points)
    for chunk in np.array_split(lams, 40):
        comp = chunk[:, None] / (sv * sv + chunk[:, None])
        tau = 2.0 * np.sqrt(np.sum((sv * comp * a) ** 2, axis=1))
        dstar = np.sum(a * a * comp * (2.0 - comp), axis=1)
        need = max(need, float((dstar / psi0_eval(unit, tau)).max()))
    return need


def shrinkage_ray(basis, q_dag, n_points):
    """Columns (1 - t) qd, t from 0 to the sampler's far end min(1, 0.99 m0 / ||qd||_(1/2))."""
    t_max = min(1.0, 0.99 * 10.0 / sobolev_norm(basis, 0.5, q_dag))
    return np.outer(q_dag.values, 1.0 - np.linspace(0.0, t_max, n_points))


def test_psi0_frozen_value():
    # independent high-precision oracle for kappa=0.9, C=1, C0=100,
    # cprime=1: psi0(0.01) = 1 / ln(1e4)^0.9
    import mpmath as mp

    mp.mp.dps = 40
    reference = float(1.0 / mp.log(mp.mpf(10) ** 4) ** mp.mpf("0.9"))
    assert abs(psi0_eval(PSI0_SPEC, 0.01) - reference) <= 1e-15
    assert abs(psi0_eval(PSI0_SPEC, 0.01) - 0.13556634523929526) <= 1e-15


def test_psi0_vanishes_at_zero_monotonically():
    grid = np.geomspace(1e-12, 1e-2, 30)
    vals = psi0_eval(PSI0_SPEC, grid)
    assert (np.diff(vals) > 0.0).all()
    assert vals[0] <= 0.05


def test_psi0_junction_continuity_and_slope():
    junction = PSI0_SPEC.cprime
    step = 1e-7
    left = psi0_eval(PSI0_SPEC, junction - step)
    mid = psi0_eval(PSI0_SPEC, junction)
    right = psi0_eval(PSI0_SPEC, junction + step)
    assert abs(mid - left) <= 1e-6
    slope_left = (mid - left) / step
    slope_right = (right - mid) / step
    assert abs(slope_left - slope_right) <= 1e-4 * max(abs(slope_left), 1.0)


def test_psi0_domain_guard():
    bad = replace(PSI0_SPEC, C0=math.exp(1.9))  # C0/cprime = e^(kappa+1)
    with pytest.raises(ParameterDomainError):
        psi0_eval(bad, 0.5)
    with pytest.raises(ParameterDomainError):
        psi0_eval(PSI0_SPEC, 0.0)
    for bad_entry in (0.0, -1.0, np.nan):
        with pytest.raises(ParameterDomainError):
            psi0_eval(PSI0_SPEC, np.array([0.1, bad_entry, 2.0]))


def test_psi_over_arrays_matches_scalar_oracle():
    # both branches of Psi0 and t near T_FLOOR, one array evaluation against one t at a time
    ts = np.concatenate([[1e-300, 1e-30], np.geomspace(1e-8, 0.5, 20), [1.0, 1.5, 40.0]])
    spec = IndexFunctionSpec(C=1.3, C0=100.0, kappa=0.9, s=0.25, cprime=1.0, f_coeff=0.7)
    psi0 = psi0_eval(spec, ts)
    psi = psi_infimum(spec, ts)
    assert psi0.shape == psi.shape == ts.shape
    for t, p0, p in zip(ts, psi0, psi):
        assert abs(p0 - scalar_psi0(spec, t)) <= 1e-15 * scalar_psi0(spec, t)
        assert abs(p - scalar_psi_infimum(spec, t)) <= 1e-15 * p
    assert psi_infimum(spec, ts[:0]).shape == (0,)


def test_index_function_axioms_all_kinds():
    # positivity, monotonicity and midpoint concavity of Psi0 and Psi on a grid
    grid = np.geomspace(1e-10, 50.0, 250)
    inf_spec = IndexFunctionSpec(C=1.0, C0=100.0, kappa=0.9, s=0.25)
    for fn in (
        lambda t: psi0_eval(PSI0_SPEC, t),
        lambda t: psi_infimum(inf_spec, t),
    ):
        vals = fn(grid)
        mids = fn(0.5 * (grid[:-2] + grid[2:]))
        assert vals.min() > 0.0
        assert np.diff(vals).min() >= -1e-12
        assert (mids - 0.5 * (vals[:-2] + vals[2:])).min() >= -1e-10


@pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.5])
@pytest.mark.parametrize("f_coeff", [0.7, 3.0])
def test_psi_infimum_matches_brute_force_minimum(s, f_coeff):
    # the closed form is the exact infimum: a dense grid may only lie above it, and barely
    spec = IndexFunctionSpec(C=1.0, C0=100.0, kappa=0.9, s=s, cprime=1.0, f_coeff=f_coeff)
    grid = np.geomspace(1e-12, 1e16, 200_001)
    ts = [1e-300, 1e-100, 1e-30, 1e-8, 1e-3, 0.3, 1.0, 1.5, 40.0]  # both branches of Psi0
    for t, closed in zip(ts, psi_infimum(spec, ts)):
        rel = (gridded_psi_infimum(spec, t, grid) - closed) / closed
        assert 0.0 <= rel <= 1e-8, (t, rel)


def test_psi_infimum_s_half_is_psi0():
    # g is 1 for s = 1/2 and f^2 -> 0 as lambda -> inf, so the infimum is psi0 itself
    spec = IndexFunctionSpec(C=1.0, C0=100.0, kappa=0.9, s=0.5, f_coeff=1.7)
    ts = np.concatenate([[1e-300], np.geomspace(1e-8, 0.5, 20), [1.0, 40.0]])
    assert (psi_infimum(spec, ts) == psi0_eval(spec, ts)).all()
    assert psi_infimum(spec, 1e-3) == psi0_eval(spec, 1e-3)


def test_psi_infimum_monotone_and_grid_stable():
    spec = IndexFunctionSpec(C=1.0, C0=100.0, kappa=0.9, s=0.25)
    grid = np.geomspace(1.0, 1e8, 400)
    dense = np.geomspace(1.0, 1e8, 800)
    ts = np.geomspace(1e-8, 0.5, 25)
    assert (np.diff(psi_infimum(spec, ts)) > 0.0).all()
    exact = psi_infimum(spec, [1e-6, 1e-3, 0.3])
    for lam in (grid, dense):
        gridded = np.array([gridded_psi_infimum(spec, t, lam) for t in (1e-6, 1e-3, 0.3)])
        assert (gridded >= exact).all() and (gridded - exact <= 0.01 * exact).all()
    # no additive floor: Psi vanishes with C Psi0, as an index function must at 0+
    assert psi_infimum(replace(spec, C=1e-200), 1e-3) < 1e-100


def test_psi_infimum_pointwise_bound():
    # Psi is the lower envelope of g(lambda) Psi0 + f(lambda)^2, touching it at lambda*
    grid = np.geomspace(1e-6, 1e8, 300)
    for s in (0.1, 0.25, 0.4):
        spec = IndexFunctionSpec(C=1.0, C0=100.0, kappa=0.9, s=s)
        for t in (1e-5, 1e-2, 3.0):
            value = psi_infimum(spec, t)
            for lam in [*grid[::50], psi_cutoff(spec, t)]:
                bound = float(psi_g(spec, lam)) * psi0_eval(spec, t) \
                    + float(psi_f(spec, lam)) ** 2
                assert value <= bound + 1e-15
            assert abs(bound - value) <= 1e-14 * value  # equality at lambda*


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("kappa", [0.5, 0.9])
def test_decay_law_exponent(s, kappa):
    # Psi = k Psi0^p exactly, so log Psi is linear in log log(C0/t) with slope -2 p*
    spec = IndexFunctionSpec(C=1.0, C0=20.0, kappa=kappa, s=s, cprime=1.0)
    deltas = np.geomspace(1e-30, 1e-240, 12)
    vals = psi_infimum(spec, deltas)
    x = np.log(np.log(spec.C0 / deltas))
    slope = np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, np.log(vals), rcond=None)[0][0]
    assert abs(-slope - 2.0 * ExperimentConfig(s=s, kappa=kappa).p_star) <= 1e-9


def test_fit_validates_worst_directions(fitted, forward_op, basis, q_dag, worst):
    report = check_vsc_inequality(forward_op, basis, q_dag, fitted, worst)
    assert report.min_margin >= 0.0
    assert fitted.C0 / fitted.cprime > math.exp(fitted.kappa + 1.0)
    assert fitted.cprime == worst_deficit_curve(forward_op, q_dag)[1][-1]


def test_fit_enlarging_constants_preserves_validity(fitted, forward_op, basis, q_dag, worst):
    for eta in (2.0, 50.0):
        bigger = replace(fitted, C=eta * fitted.C, C0=eta * fitted.C0)
        report = check_vsc_inequality(forward_op, basis, q_dag, bigger, worst)
        assert report.min_margin >= 0.0


def test_fit_holdout(fitted, forward_op, basis, q_dag):
    holdout = sample_admissible_fluxes(basis, q_dag, 10.0, 200, seed=777)
    report = check_vsc_inequality(forward_op, basis, q_dag, fitted, holdout)
    assert report.fraction_nonnegative >= 0.95
    assert report.min_margin >= 0.0


@pytest.mark.parametrize("seed", [20031, 20114, 40149])
def test_fit_holdout_at_shrinkage_limited_seeds(forward_op, basis, seed):
    # seeds whose holdout failed criterion 7 while the fit missed the far end of the ray
    q_dag, spec, holdout = vsc_check_fit(forward_op, basis, seed)
    report = check_vsc_inequality(forward_op, basis, q_dag, spec, holdout)
    slacked = check_vsc_inequality(forward_op, basis, q_dag, replace(spec, C=1.05 * spec.C),
                                   holdout)
    assert report.fraction_nonnegative >= 0.95
    assert slacked.fraction_nonnegative == 1.0


@pytest.mark.parametrize("seed", [42, 20031])
def test_fit_covers_whole_shrinkage_ray(forward_op, basis, seed):
    q_dag, spec, _ = vsc_check_fit(forward_op, basis, seed)
    report = check_vsc_inequality(forward_op, basis, q_dag, spec,
                                  shrinkage_ray(basis, q_dag, 101))
    assert report.min_margin >= 0.0


def test_fit_is_tight(fitted, forward_op, basis, q_dag, worst):
    # at the binding point Psi(tau_k) = D*(tau_(k+1)), so the worst direction k keeps at most
    # the curve step D*(tau_(k+1)) - D*(tau_k) as its margin
    dstar = worst_deficit_curve(forward_op, q_dag)[2]
    report = check_vsc_inequality(forward_op, basis, q_dag, fitted, worst)
    assert 0.0 <= report.min_margin <= np.diff(dstar).max() + 1e-9 * dstar[-1]


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_worst_deficit_curve_matches_sample_terms(forward_op, basis, fine_op_and_basis, h):
    # (tau, D*) are the misfit and deficit of q = 2 q_lambda - qd (q = -qd at lambda = inf);
    # below lambda = 1e-6 s_max^2 the solve's q_lambda - qd cancels too many digits to compare
    op, basis = (forward_op, basis) if h == 0.1 else fine_op_and_basis
    q_dag = synthesize_flux_with_smoothness(basis, 0.5, 0.01, 42)
    lam, tau, dstar = worst_deficit_curve(op, q_dag)
    assert lam.shape == tau.shape == dstar.shape == (vsc.CURVE_POINTS + 1,)
    assert lam[-1] == math.inf and (np.diff(lam) > 0.0).all()
    assert (np.diff(tau) > 0.0).all() and (np.diff(dstar) > 0.0).all()
    keep = lam >= 1e-6 * op.whitened_svd[1].max() ** 2
    fluxes = np.column_stack([worst_fluxes(op, q_dag, lam[keep][:-1]), -q_dag.values])
    lhs, rhs_norms, misfit = vsc._sample_terms(op, basis, q_dag, fluxes, math.inf)
    assert np.abs(misfit / tau[keep] - 1.0).max() <= 1e-10
    assert np.abs((lhs - rhs_norms) / dstar[keep] - 1.0).max() <= 1e-10
    assert abs(dstar[-1] / fem.boundary_l2_norm(op.mesh, q_dag) ** 2 - 1.0) <= 1e-12


@pytest.fixture(scope="module")
def finest_op_and_basis():
    mesh = generate_annulus_mesh(0.5, 1.0, 0.025)
    op = inversion.build_forward_operator(mesh, fem.ProblemData.from_constants(mesh))
    return op, spectral.build_spectral_basis(mesh)


@pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("seed", [0, 42])
def test_fit_covers_a_dense_curve_within_two_percent(forward_op, basis, fine_op_and_basis,
                                                      finest_op_and_basis, h, seed):
    op, basis = {0.1: (forward_op, basis), 0.05: fine_op_and_basis,
                 0.025: finest_op_and_basis}[h]
    q_dag = synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed)
    spec = fit_vsc_constants(op, basis, q_dag, s=0.5, kappa=0.9)
    need = dense_requirement(op, q_dag, spec)
    assert need <= spec.C <= 1.02 * need


def test_vsc_degenerate_sample(forward_op, basis, q_dag, fitted):
    spec = fitted
    report = check_vsc_inequality(forward_op, basis, q_dag, spec, q_dag.values[:, None])
    assert report.lhs[0] == 0.0
    assert report.rhs[0] >= 0.0
    assert report.margin[0] >= 0.0


def test_vsc_epsilon_sweep_no_sign_flip(forward_op, basis, q_dag, fitted):
    spec = fitted
    samples = np.outer(q_dag.values, 1.0 + np.linspace(-0.1, 0.1, 11))
    margins = check_vsc_inequality(forward_op, basis, q_dag, spec, samples).margin
    assert (margins >= 0.0).all()
    # away from the degenerate midpoint the sweep varies smoothly
    off_center = np.delete(margins, 5)
    assert max(abs(np.diff(off_center))) <= 0.2


def test_vsc_inadmissible_sample_rejected(forward_op, basis, q_dag, fitted):
    spec = fitted
    e1 = basis.mode(0)
    far = BoundaryVector(GAMMA_I, q_dag.values
                         + 100.0 * e1.values / sobolev_norm(basis, 0.5, e1))
    with pytest.raises(InadmissibleSampleError):
        check_vsc_inequality(forward_op, basis, q_dag, spec, far.values[:, None], m0=10.0)
    # a NaN sample has no norm to compare, and is rejected as well
    nan_flux = np.column_stack([q_dag.values, np.full(basis.n_modes, np.nan)])
    with pytest.raises(InadmissibleSampleError, match="sample 1 outside"):
        check_vsc_inequality(forward_op, basis, q_dag, spec, nan_flux, m0=10.0)


@pytest.mark.parametrize("shape", ["vector", "extra row"])
def test_vsc_rejects_a_flux_matrix_of_the_wrong_shape(forward_op, basis, q_dag, fitted, shape):
    samples = sample_admissible_fluxes(basis, q_dag, 10.0, 30, seed=100)
    bad = samples[:, 0] if shape == "vector" else np.vstack([samples, samples[:1]])
    with pytest.raises(DimensionMismatchError):
        check_vsc_inequality(forward_op, basis, q_dag, fitted, bad)


def test_fit_failure_without_positive_deficit(forward_op, basis):
    # with qd = 0 no flux has a deficit, so nothing bounds C from below
    zero = BoundaryVector(GAMMA_I, np.zeros(basis.n_modes))
    with pytest.raises(FitFailureError, match="positive deficit"):
        fit_vsc_constants(forward_op, basis, zero, s=0.5, kappa=0.9)


def test_samples_are_admissible_and_deterministic(basis, q_dag):
    a = sample_admissible_fluxes(basis, q_dag, 10.0, 30, seed=5)
    b = sample_admissible_fluxes(basis, q_dag, 10.0, 30, seed=5)
    assert a.shape == (basis.n_modes, 30)
    assert (a == b).all()
    for q in a.T:
        diff = BoundaryVector(GAMMA_I, q - q_dag.values)
        assert sobolev_norm(basis, 0.5, diff) <= 10.0 + 1e-9


@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("seed", [0, 42, 20031])
def test_flux_matrix_path_matches_per_sample_oracle(forward_op, basis, fine_op_and_basis, h, seed):
    # GEMM and GEMV round differently: the margins may move at round-off, no verdict may
    op, basis = (forward_op, basis) if h == 0.1 else fine_op_and_basis
    q_dag = synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed)
    evaluation = sample_admissible_fluxes(basis, q_dag, 10.0, 200, seed + 2)

    spec = fit_vsc_constants(op, basis, q_dag, s=0.5, kappa=0.9)
    oracle_spec = loop_fit_vsc_constants(op, basis, q_dag, 0.5, 0.9)
    for name in ("C", "C0", "cprime"):
        new, old = getattr(spec, name), getattr(oracle_spec, name)
        assert abs(new - old) <= 1e-12 * abs(old), name
    assert spec.f_coeff == oracle_spec.f_coeff

    report = check_vsc_inequality(op, basis, q_dag, spec, evaluation)
    lhs, rhs, margin, scale = loop_vsc_report(op, basis, q_dag, oracle_spec, as_list(evaluation))
    assert abs(report.scale - scale) <= 1e-12 * scale
    for new, old in ((report.lhs, lhs), (report.rhs, rhs), (report.margin, margin)):
        assert np.abs(new - old).max() <= 1e-12 * scale
    assert report.fraction_nonnegative == sum(m >= 0.0 for m in margin) / len(margin)
    assert report.holds_empirically == (min(margin) >= -1e-9 * scale)


@st.composite
def annuli(draw):
    """(r_inner, r_outer, h, alpha, k): any radii, and h with n_i between about 30 and 130
    that still lies below the ring width r_outer - r_inner, as generate_annulus_mesh needs."""
    ratio, r_outer = draw(st.floats(0.1, 0.9)), draw(st.floats(0.5, 3.0))
    n_i = draw(st.integers(max(30, math.floor(2.0 * math.pi / (1.0 - ratio)) + 1), 130))
    return (ratio * r_outer, r_outer, 2.0 * math.pi * r_outer / n_i,
            draw(st.floats(0.01, 100.0)), draw(st.floats(0.01, 100.0)))


@settings(max_examples=8, deadline=None)
@given(annulus=annuli(), seed=st.integers(0, 2 ** 16))
def test_vsc_on_other_annuli(annulus, seed):
    # every holdout deficit lies on or under D*(misfit), bounded from above on the curve by
    # D*(tau_lambda) + (misfit^2 - tau_lambda^2) / (4 lambda) (weak duality, any lambda > 0),
    # and the fitted constants cover every sample
    r_inner, r_outer, h, alpha, k = annulus
    mesh = generate_annulus_mesh(r_inner, r_outer, h)
    op = inversion.build_forward_operator(mesh, fem.ProblemData.from_constants(mesh, alpha, k))
    basis = spectral.build_spectral_basis(mesh)
    q_dag = synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed)
    holdout = sample_admissible_fluxes(basis, q_dag, 10.0, 200, seed + 2)

    lam, tau, dstar = worst_deficit_curve(op, q_dag)
    lhs, rhs_norms, misfit = vsc._sample_terms(op, basis, q_dag, holdout, 10.0)
    on_curve = dstar[:-1] + (misfit[:, None] ** 2 - tau[:-1] ** 2) / (4.0 * lam[:-1])
    bound = np.minimum(on_curve.min(axis=1), dstar[-1])
    assert (lhs - rhs_norms <= bound + 1e-12 * dstar[-1]).all()

    spec = fit_vsc_constants(op, basis, q_dag, s=0.5, kappa=0.9)
    assert check_vsc_inequality(op, basis, q_dag, spec, holdout).min_margin >= 0.0
