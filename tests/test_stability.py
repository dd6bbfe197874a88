import math

import numpy as np
import pytest

from fluxrec import fem, stability
from fluxrec.errors import DegenerateEnsembleError
from fluxrec.fem import BoundaryVector, FactorizedSystem, ProblemData
from fluxrec.geometry import GAMMA_I, generate_annulus_mesh, refine_uniform
from fluxrec.spectral import FluxCoefficients, build_spectral_basis, synthesize
from fluxrec.stability import (
    evaluate_stability_bound,
    fit_stability_modulus,
    generate_probe_ensemble,
    near_uniqueness_check,
    sample_homogeneous_solution,
    stability_bound,
)


@pytest.fixture(scope="module")
def probe_system(coarse_mesh):
    return FactorizedSystem(coarse_mesh, ProblemData.from_constants(coarse_mesh, f=0.0, u_a=0.0))


@pytest.fixture(scope="module")
def ensemble(probe_system, basis):
    return generate_probe_ensemble(probe_system, basis, 100, seed=5)


def test_zero_flux_gives_zero_sample(probe_system, basis, coarse_mesh):
    q = BoundaryVector(GAMMA_I, np.zeros(basis.n_modes))
    s = sample_homogeneous_solution(probe_system, basis, q)
    assert s.h1_norm == 0.0
    assert s.trace_norm == 0.0
    assert s.m_proxy == 0.0


def test_requires_homogeneous_data(coarse_mesh, basis):
    bad = FactorizedSystem(coarse_mesh, ProblemData.from_constants(coarse_mesh, u_a=1.0))
    with pytest.raises(ValueError):
        sample_homogeneous_solution(bad, basis, BoundaryVector(GAMMA_I, np.zeros(basis.n_modes)))


def test_sample_linearity(probe_system, basis, rng):
    q = BoundaryVector(GAMMA_I, rng.standard_normal(basis.n_modes))
    s1 = sample_homogeneous_solution(probe_system, basis, q)
    c = 3.7
    s2 = sample_homogeneous_solution(probe_system, basis,
                                     BoundaryVector(GAMMA_I, c * q.values))
    assert abs(s2.h1_norm - c * s1.h1_norm) <= 1e-10 * s2.h1_norm
    assert abs(s2.trace_norm - c * s1.trace_norm) <= 1e-10 * max(s2.trace_norm, 1e-30)
    assert abs(s2.m_proxy - c * s1.m_proxy) <= 1e-10 * s2.m_proxy


def test_high_modes_decay_across_annulus(probe_system, basis):
    s1 = sample_homogeneous_solution(probe_system, basis, basis.mode(1))
    s5 = sample_homogeneous_solution(probe_system, basis, basis.mode(9))
    # ratio trace/h1 falls sharply with boundary frequency
    assert s5.trace_norm / s5.h1_norm < 0.1 * (s1.trace_norm / s1.h1_norm)


def per_sample_ensemble(system, basis, n_samples, seed):
    """Oracle of generate_probe_ensemble: one synthesize and one solve per sample."""
    rng = np.random.default_rng(seed)
    max_pure = min(basis.n_modes - 1, 48)
    samples = []
    for i in range(n_samples):
        if i % 2 == 0:
            c = np.zeros(basis.n_modes)
            c[1 + (i // 2) % max_pure] = 1.0
        else:
            p = rng.uniform(0.5, 2.0)
            c = rng.standard_normal(basis.n_modes) * basis.eigenvalues ** (-p)
        s = sample_homogeneous_solution(system, basis, synthesize(basis, FluxCoefficients(c)))
        if s.m_proxy == 0.0:
            continue
        scale = 1.0 / s.m_proxy
        samples.append(stability.StabilitySample(s.h1_norm * scale, s.trace_norm * scale, 1.0))
    return samples


@pytest.fixture(scope="module", params=[0.1, 0.05])
def probe_problem(request):
    mesh = generate_annulus_mesh(0.5, 1.0, request.param)
    system = FactorizedSystem(mesh, ProblemData.from_constants(mesh, f=0.0, u_a=0.0))
    return system, build_spectral_basis(mesh)


@pytest.mark.parametrize("seed", [0, 5, 20031])
def test_block_ensemble_matches_per_sample_oracle(probe_problem, seed):
    system, basis = probe_problem
    n_samples = 150  # more than two blocks of inversion._K_BLOCK columns
    block = generate_probe_ensemble(system, basis, n_samples, seed)
    oracle = per_sample_ensemble(system, basis, n_samples, seed)
    assert len(block) == len(oracle) == n_samples
    for name in ("h1_norm", "trace_norm", "m_proxy"):
        got = np.array([getattr(s, name) for s in block])
        want = np.array([getattr(s, name) for s in oracle])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), name
    c_fit, c0_fit, max_violation = fit_stability_modulus(block, kappa=0.9)
    c_oracle, c0_oracle, _ = fit_stability_modulus(oracle, kappa=0.9)
    assert c_fit == pytest.approx(c_oracle, rel=1e-12, abs=0.0)
    assert c0_fit == pytest.approx(c0_oracle, rel=1e-12, abs=0.0)
    assert max_violation <= 0.0


def test_ensemble_requires_homogeneous_data(coarse_mesh, basis):
    bad = FactorizedSystem(coarse_mesh, ProblemData.from_constants(coarse_mesh, f=1.0))
    with pytest.raises(ValueError, match="f = 0 and u_a = 0"):
        generate_probe_ensemble(bad, basis, 10, seed=0)


def test_trace_inequality_with_calibrated_constant(ensemble, trace_constant):
    for s in ensemble:
        assert s.trace_norm <= trace_constant * s.h1_norm * (1.0 + 1e-8)


def test_ensemble_normalized_and_spans_decades(ensemble):
    for s in ensemble:
        assert abs(s.m_proxy - 1.0) <= 1e-12
    tr = np.array([s.trace_norm for s in ensemble if s.trace_norm > 0.0])
    assert np.log10(tr.max() / tr.min()) >= 3.0


def test_fit_zero_violations(ensemble):
    c_fit, c0_fit, max_violation = fit_stability_modulus(ensemble, kappa=0.9)
    assert max_violation <= 0.0
    assert c_fit > 0.0
    for s in ensemble:
        if s.trace_norm > stability.TRACE_FLOOR:
            assert c0_fit * s.m_proxy / s.trace_norm > 1.0


def test_fit_scale_invariance_on_amplitude_ray(probe_system, basis):
    # pure-mode fluxes at many amplitudes: all bound ratios are
    # amplitude-independent because every norm is degree-1 homogeneous
    samples = []
    for amp in np.geomspace(1e-3, 1e3, 60):
        q = BoundaryVector(GAMMA_I, amp * basis.eigenvectors[:, 1])
        samples.append(sample_homogeneous_solution(probe_system, basis, q))
    c_fit, c0_fit, max_violation = fit_stability_modulus(samples, kappa=0.9)
    assert max_violation <= 0.0
    violations, worst = evaluate_stability_bound(samples, c_fit, c0_fit, 0.9)
    assert violations == 0


def test_fit_needs_enough_signal(probe_system, basis):
    q = BoundaryVector(GAMMA_I, np.zeros(basis.n_modes))
    zeros = [sample_homogeneous_solution(probe_system, basis, q) for _ in range(60)]
    with pytest.raises(DegenerateEnsembleError):
        fit_stability_modulus(zeros, kappa=0.9)
    with pytest.raises(DegenerateEnsembleError):
        fit_stability_modulus([], kappa=0.9)


def hand_built_samples(h1, tr, m):
    return [stability.StabilitySample(*norms) for norms in zip(h1, tr, m)]


@pytest.mark.parametrize("kappa", [0.3, 0.9])
def test_fit_is_the_closed_form(rng, kappa):
    h1 = rng.uniform(0.1, 1.0, 80)
    tr = np.geomspace(1e-9, 1e-1, 80) * rng.uniform(0.5, 2.0, 80)
    m = rng.uniform(0.5, 2.0, 80)
    c_fit, c0_fit, max_violation = fit_stability_modulus(hand_built_samples(h1, tr, m), kappa)
    assert c0_fit == math.exp(kappa + 1.0) * float((tr / m).max())
    req = float((h1 * np.log(c0_fit * m / tr) ** kappa / m).max())
    assert req <= c_fit <= req * (1.0 + 2e-9)
    assert -1e-8 * h1.max() <= max_violation <= 0.0


def test_fit_rejects_zero_interior_norms():
    n = 60
    samples = hand_built_samples(np.zeros(n), np.geomspace(1e-6, 1e-1, n), np.ones(n))
    with pytest.raises(DegenerateEnsembleError):
        fit_stability_modulus(samples, kappa=0.9)


def test_stability_bound_is_nan_off_its_domain():
    samples = hand_built_samples([1.0, 1.0, 1.0, 0.0], [0.0, 2.0, 1e-3, 0.0], [1.0, 1.0, 1.0, 0.0])
    bound = stability_bound(samples, c=2.0, c0=2.0, kappa=0.9)
    assert np.isnan(bound[[0, 1, 3]]).all()
    assert bound[2] == pytest.approx(2.0 / math.log(2e3) ** 0.9, rel=1e-15)


def test_holdout_tolerates_five_percent(probe_system, basis, ensemble):
    c_fit, c0_fit, _ = fit_stability_modulus(ensemble, kappa=0.9)
    holdout = generate_probe_ensemble(probe_system, basis, 50, seed=77)
    violations, _ = evaluate_stability_bound(holdout, 1.05 * c_fit, c0_fit, 0.9)
    assert violations <= 0.05 * len(holdout)


def test_fit_stable_under_refinement(coarse_mesh, ensemble):
    c_fit, _, _ = fit_stability_modulus(ensemble, kappa=0.9)
    fine = refine_uniform(coarse_mesh)
    system = FactorizedSystem(fine, ProblemData.from_constants(fine))
    basis_fine = build_spectral_basis(fine)
    ens_fine = generate_probe_ensemble(system, basis_fine, 100, seed=5)
    c_fine, _, _ = fit_stability_modulus(ens_fine, kappa=0.9)
    assert 0.5 <= c_fine / c_fit <= 2.0


def test_near_uniqueness_envelope(ensemble):
    report = near_uniqueness_check(ensemble)
    assert report.envelope_nondecreasing
    assert (np.diff(report.trace_norms) >= 0.0).all()
    smallest_trace_h1 = report.h1_norms[0]
    assert smallest_trace_h1 <= np.median(report.h1_norms)


def test_near_uniqueness_excludes_zero_trace(probe_system, basis, ensemble):
    zero = sample_homogeneous_solution(
        probe_system, basis, BoundaryVector(GAMMA_I, np.zeros(basis.n_modes)))
    report = near_uniqueness_check(list(ensemble) + [zero])
    assert report.n_excluded == 1
