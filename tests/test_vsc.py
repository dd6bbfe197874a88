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

from fluxrec import fem, inversion, spectral
from fluxrec.errors import (
    DimensionMismatchError,
    FitFailureError,
    InadmissibleSampleError,
    ParameterDomainError,
)
from fluxrec.fem import BoundaryVector
from fluxrec.geometry import GAMMA_I, generate_annulus_mesh
from fluxrec.rates import ExperimentConfig
from fluxrec.spectral import sobolev_norm, synthesize_flux_with_smoothness
from fluxrec.vsc import (
    IndexFunctionSpec,
    check_vsc_inequality,
    fit_vsc_constants,
    psi0_eval,
    psi_infimum,
    sample_admissible_fluxes,
)

PSI0_SPEC = IndexFunctionSpec(C=1.0, C0=100.0, kappa=0.9, cprime=1.0)


@pytest.fixture(scope="module")
def q_dag(basis):
    return synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed=42)


@pytest.fixture(scope="module")
def fitted(forward_op, basis, q_dag):
    calibration = sample_admissible_fluxes(basis, q_dag, 10.0, 100, seed=100)
    spec = fit_vsc_constants(forward_op, basis, q_dag, calibration, s=0.5, kappa=0.9)
    return spec, calibration


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
    calibration = sample_admissible_fluxes(basis, q_dag, 10.0, 100, seed + 1)
    spec = fit_vsc_constants(forward_op, basis, q_dag, calibration, s=0.5, kappa=0.9)
    return q_dag, spec, sample_admissible_fluxes(basis, q_dag, 10.0, 200, seed + 2)


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


def test_fit_validates_calibration(fitted, forward_op, basis, q_dag):
    spec, calibration = fitted
    report = check_vsc_inequality(forward_op, basis, q_dag, spec, calibration)
    assert report.min_margin >= 0.0
    assert spec.C0 / spec.cprime > math.exp(spec.kappa + 1.0)


def test_fit_enlarging_constants_preserves_validity(fitted, forward_op, basis, q_dag):
    spec, calibration = fitted
    for eta in (2.0, 50.0):
        bigger = replace(spec, C=eta * spec.C, C0=eta * spec.C0)
        report = check_vsc_inequality(forward_op, basis, q_dag, bigger, calibration)
        assert report.min_margin >= 0.0


def test_fit_holdout(fitted, forward_op, basis, q_dag):
    spec, _ = fitted
    holdout = sample_admissible_fluxes(basis, q_dag, 10.0, 200, seed=777)
    report = check_vsc_inequality(forward_op, basis, q_dag, spec, holdout)
    assert report.fraction_nonnegative >= 0.95


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


def test_fit_is_tight(fitted, forward_op, basis, q_dag):
    # C is the smallest constant that covers calibration plus the ray's far end
    spec, calibration = fitted
    anchor = shrinkage_ray(basis, q_dag, 2)[:, -1]
    report = check_vsc_inequality(forward_op, basis, q_dag, spec,
                                  np.column_stack([calibration, anchor]))
    assert 0.0 <= report.min_margin <= 1e-6 * report.scale


def test_vsc_degenerate_sample(forward_op, basis, q_dag, fitted):
    spec, _ = fitted
    report = check_vsc_inequality(forward_op, basis, q_dag, spec, q_dag.values[:, None])
    assert report.lhs[0] == 0.0
    assert report.rhs[0] >= 0.0
    assert report.margin[0] >= 0.0


def test_vsc_epsilon_sweep_no_sign_flip(forward_op, basis, q_dag, fitted):
    spec, _ = fitted
    samples = np.outer(q_dag.values, 1.0 + np.linspace(-0.1, 0.1, 11))
    margins = check_vsc_inequality(forward_op, basis, q_dag, spec, samples).margin
    assert (margins >= 0.0).all()
    # away from the degenerate midpoint the sweep varies smoothly
    off_center = np.delete(margins, 5)
    assert max(abs(np.diff(off_center))) <= 0.2


def test_vsc_inadmissible_sample_rejected(forward_op, basis, q_dag, fitted):
    spec, _ = fitted
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
    spec, calibration = fitted
    bad = calibration[:, 0] if shape == "vector" else np.vstack([calibration, calibration[:1]])
    with pytest.raises(DimensionMismatchError):
        check_vsc_inequality(forward_op, basis, q_dag, spec, bad)


def test_fit_rejects_inadmissible_calibration_sample(forward_op, basis, q_dag):
    calibration = sample_admissible_fluxes(basis, q_dag, 10.0, 30, seed=100)
    e1 = basis.mode(0)
    step = 100.0 * e1.values / sobolev_norm(basis, 0.5, e1)
    far = BoundaryVector(GAMMA_I, q_dag.values + step)
    with pytest.raises(InadmissibleSampleError, match="sample 30 outside"):
        fit_vsc_constants(forward_op, basis, q_dag, np.column_stack([calibration, far.values]),
                          s=0.5, kappa=0.9)
    # with qd = 0 no sample has a positive deficit; admissibility is still checked first
    zero = BoundaryVector(GAMMA_I, np.zeros(basis.n_modes))
    with pytest.raises(InadmissibleSampleError, match="sample 0 outside"):
        fit_vsc_constants(forward_op, basis, zero, step[:, None], s=0.5, kappa=0.9)


def test_fit_failure_on_degenerate_calibration(forward_op, basis, q_dag):
    from fluxrec.errors import FitFailureError

    with pytest.raises(FitFailureError):
        fit_vsc_constants(forward_op, basis, q_dag, np.empty((basis.n_modes, 0)),
                          s=0.5, kappa=0.9)
    with pytest.raises(FitFailureError):
        # all-identical samples carry zero misfit: nothing to fit against
        fit_vsc_constants(forward_op, basis, q_dag, np.column_stack([q_dag.values, q_dag.values]),
                          s=0.5, kappa=0.9)


def test_fit_failure_without_positive_deficit(forward_op, basis):
    # with qd = 0 no sample has a deficit, so nothing bounds C from below
    zero = BoundaryVector(GAMMA_I, np.zeros(basis.n_modes))
    calibration = sample_admissible_fluxes(basis, zero, 10.0, 30, seed=3)
    with pytest.raises(FitFailureError, match="positive deficit"):
        fit_vsc_constants(forward_op, basis, zero, calibration, s=0.5, kappa=0.9)


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
    calibration = sample_admissible_fluxes(basis, q_dag, 10.0, 100, seed + 1)
    evaluation = sample_admissible_fluxes(basis, q_dag, 10.0, 200, seed + 2)

    spec = fit_vsc_constants(op, basis, q_dag, calibration, s=0.5, kappa=0.9)
    oracle_spec = loop_fit_vsc_constants(op, basis, q_dag, as_list(calibration), 0.5, 0.9)
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
