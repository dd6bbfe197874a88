"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances and runtime budgets are fixed here, not configurable; run
with ``pytest -v tests/test_acceptance.py`` (add -s to see the lines).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fluxrec import cli
from fluxrec.fem import (
    BoundaryVector,
    FactorizedSystem,
    ProblemData,
    boundary_l2_norm,
    constant_flux,
    error_norms,
)
from fluxrec.geometry import (
    GAMMA_I,
    generate_annulus_mesh,
    load_mesh,
    refine_uniform,
)
from fluxrec.inversion import (
    add_noise,
    choose_rho_discrepancy,
    tikhonov_objective,
    tikhonov_solve,
)
from fluxrec.rates import ExperimentConfig, run_rate_study
from fluxrec.spectral import (
    band_limited_flux,
    build_spectral_basis,
    sobolev_norm,
    synthesize_flux_with_smoothness,
    tail_norm,
)
from fluxrec.stability import (
    evaluate_stability_bound,
    fit_stability_modulus,
    generate_probe_ensemble,
)
from fluxrec.vsc import check_vsc_inequality, fit_vsc_constants, sample_admissible_fluxes


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_fem_convergence():
    t0 = time.time()
    exact = lambda x, y: 0.5 * np.log(x * x + y * y)
    grad = lambda x, y: (x / (x * x + y * y), y / (x * x + y * y))
    mesh = generate_annulus_mesh(0.5, 1.0, 0.2)
    errors = []
    for level in range(4):
        data = ProblemData.from_constants(mesh, alpha=1.0, k=1.0, f=0.0, u_a=1.0)
        u = FactorizedSystem(mesh, data).solve_flux(constant_flux(mesh, 2.0))
        errors.append(error_norms(u, exact, grad))
        if level < 3:
            mesh = refine_uniform(mesh)
    l2_ratios = [a[0] / b[0] for a, b in zip(errors, errors[1:])]
    h1_ratios = [a[1] / b[1] for a, b in zip(errors, errors[1:])]
    elapsed = time.time() - t0
    ok = all(3.5 <= r <= 4.5 for r in l2_ratios) \
        and all(1.8 <= r <= 2.2 for r in h1_ratios) and elapsed <= 60.0
    report(1, ok, f"L2 ratios {['%.2f' % r for r in l2_ratios]}, "
                  f"H1 ratios {['%.2f' % r for r in h1_ratios]}, {elapsed:.1f}s")


def test_criterion_02_spectral_fidelity():
    t0 = time.time()
    mesh = generate_annulus_mesh(0.5, 1.0, 0.02)
    basis = build_spectral_basis(mesh)
    exact = np.array([1.0] + [np.sqrt(1.0 + (n / 0.5) ** 2)
                              for n in (1, 1, 2, 2, 3, 3, 4, 4, 5)])
    rel = np.abs(basis.eigenvalues[:10] - exact) / exact
    # multiplicity-2 pairing: consecutive pair members nearly equal
    pairs_ok = all(
        abs(basis.eigenvalues[i] - basis.eigenvalues[i + 1])
        <= 1e-6 * basis.eigenvalues[i]
        for i in (1, 3, 5, 7)
    )
    elapsed = time.time() - t0
    ok = rel.max() <= 0.01 and pairs_ok and elapsed <= 30.0
    report(2, ok, f"max rel dev {rel.max():.2e}, pairing {pairs_ok}, {elapsed:.1f}s")


def test_criterion_03_adjoint_identity(forward_op):
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        q = rng.standard_normal(forward_op.n_i)
        w = rng.standard_normal(forward_op.n_a)
        lhs = float((forward_op.w_a * forward_op.apply_linear(q) * w).sum())
        rhs = float((forward_op.w_i * q * forward_op.apply_adjoint(w)).sum())
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    ok = worst <= 1e-10
    report(3, ok, f"worst adjoint mismatch {worst:.2e}")


def test_criterion_04_projector_decay(basis):
    rng = np.random.default_rng(404)
    lam_grid = np.geomspace(1.0, basis.eigenvalues[-1] * 10.0, 50)
    min_slack = np.inf
    for _ in range(100):
        q = BoundaryVector(GAMMA_I, rng.standard_normal(basis.n_modes))
        s = rng.uniform(0.05, 0.5)
        norm_s = sobolev_norm(basis, s, q)
        for lam in lam_grid:
            slack = lam ** (-s) * norm_s - tail_norm(basis, lam, q)
            min_slack = min(min_slack, slack)
    ok = min_slack >= -1e-12
    report(4, ok, f"min slack {min_slack:.2e} over 100 fluxes x 50 cutoffs")


def test_criterion_05_tikhonov_optimality(forward_op, basis, coarse_mesh):
    q_dag = band_limited_flux(basis, 8, seed=4)
    u_delta = add_noise(coarse_mesh, forward_op.apply(q_dag), 1e-3, seed=2)
    rho = 1e-5
    result = tikhonov_solve(forward_op, u_delta, rho)
    f0 = tikhonov_objective(forward_op, result.q_rec.values, u_delta.values, rho)
    rng = np.random.default_rng(505)
    worst_grad = 0.0
    for _ in range(5):
        d = rng.standard_normal(forward_op.n_i)
        d /= np.linalg.norm(d)
        h = 1e-6
        fp = tikhonov_objective(forward_op, result.q_rec.values + h * d, u_delta.values, rho)
        fm = tikhonov_objective(forward_op, result.q_rec.values - h * d, u_delta.values, rho)
        worst_grad = max(worst_grad, abs(fp - fm) / (2.0 * h) / max(abs(f0), 1e-30))

    resids, solns = [], []
    for r in np.geomspace(1e-10, 1e4, 20):
        t = tikhonov_solve(forward_op, u_delta, r)
        resids.append(t.residual_norm)
        solns.append(t.solution_norm)
    monotone = all(b >= a - 1e-10 for a, b in zip(resids, resids[1:])) \
        and all(b <= a + 1e-10 for a, b in zip(solns, solns[1:]))
    ok = worst_grad <= 1e-6 and monotone
    report(5, ok, f"worst FD gradient {worst_grad:.2e}, monotone {monotone}")


def test_criterion_06_controlled_recovery(forward_op, basis, coarse_mesh):
    t0 = time.time()
    q_dag = band_limited_flux(basis, 5, seed=11)
    u_delta = add_noise(coarse_mesh, forward_op.apply(q_dag), 1e-8, seed=5)
    rho = choose_rho_discrepancy(forward_op, u_delta, 1e-8)
    result = tikhonov_solve(forward_op, u_delta, rho)
    rel = boundary_l2_norm(coarse_mesh, BoundaryVector(
        GAMMA_I, result.q_rec.values - q_dag.values)) \
        / boundary_l2_norm(coarse_mesh, q_dag)
    elapsed = time.time() - t0
    ok = rel <= 0.1 and elapsed <= 120.0
    report(6, ok, f"relative error {rel:.2e}, {elapsed:.1f}s")


def test_criterion_07_vsc_consistency(forward_op, basis, coarse_mesh):
    t0 = time.time()
    q_dag = synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed=42)
    evaluation = sample_admissible_fluxes(basis, q_dag, 10.0, 200, seed=200)
    spec = fit_vsc_constants(forward_op, basis, q_dag, s=0.5, kappa=0.9)
    rep = check_vsc_inequality(forward_op, basis, q_dag, spec, evaluation)
    slacked = check_vsc_inequality(forward_op, basis, q_dag,
                                   replace(spec, C=1.05 * spec.C), evaluation)
    elapsed = time.time() - t0
    ok = rep.fraction_nonnegative >= 0.95 \
        and slacked.fraction_nonnegative == 1.0 and elapsed <= 600.0
    report(7, ok, f"eval nonneg {rep.fraction_nonnegative:.3f}, "
                  f"with +5% C {slacked.fraction_nonnegative:.3f}, {elapsed:.1f}s")


def test_criterion_08_rate_study():
    t0 = time.time()
    rep = run_rate_study(ExperimentConfig())
    meds = [e for _, e in rep.median_errors]
    monotone = all(b <= 1.1 * a for a, b in zip(meds, meds[1:]))
    elapsed = time.time() - t0
    ok = monotone and rep.p_hat >= 0.5 * rep.p_star \
        and rep.r_squared >= 0.8 and elapsed <= 1200.0
    report(8, ok, f"p_hat {rep.p_hat:.3f} >= {0.5 * rep.p_star:.3f}, "
                  f"r2 {rep.r_squared:.3f}, monotone {monotone}, {elapsed:.1f}s")


def test_criterion_09_stability_probe(coarse_mesh, basis):
    t0 = time.time()
    system = FactorizedSystem(coarse_mesh, ProblemData.from_constants(coarse_mesh))
    ensemble = generate_probe_ensemble(system, basis, 100, seed=5)
    c_fit, c0_fit, max_violation = fit_stability_modulus(ensemble, kappa=0.9)
    holdout = generate_probe_ensemble(system, basis, 50, seed=77)
    violations, _ = evaluate_stability_bound(holdout, 1.05 * c_fit, c0_fit, 0.9)

    fine = refine_uniform(coarse_mesh)
    system_fine = FactorizedSystem(fine, ProblemData.from_constants(fine))
    basis_fine = build_spectral_basis(fine)
    ensemble_fine = generate_probe_ensemble(system_fine, basis_fine, 100, seed=5)
    c_fine, _, _ = fit_stability_modulus(ensemble_fine, kappa=0.9)
    elapsed = time.time() - t0
    ok = max_violation <= 0.0 and violations <= 0.05 * len(holdout) \
        and 0.5 <= c_fine / c_fit <= 2.0 and elapsed <= 600.0
    report(9, ok, f"max violation {max_violation:.2e}, holdout violations {violations}, "
                  f"refinement C ratio {c_fine / c_fit:.2f}, {elapsed:.1f}s")


def test_criterion_10_reproducibility(tmp_path):
    runs = {
        "mesh-gen": lambda out: ["mesh-gen", "--h", "0.1", "--out", str(out / "mesh.txt")],
        "spectrum": lambda out: ["spectrum", "--mesh", mesh_path,
                                 "--out", str(out / "spec.csv")],
        "forward": lambda out: ["forward", "--mesh", mesh_path, "--flux", flux_path,
                                "--out-trace", str(out / "trace.csv")],
        "invert": lambda out: ["invert", "--mesh", mesh_path, "--data-trace", trace_path,
                               "--delta", "1e-4", "--seed", "3", "--out", str(out)],
        "vsc-check": lambda out: ["vsc-check", "--mesh", mesh_path, "--n-samples", "30",
                                  "--seed", "1", "--out", str(out)],
        "stability-probe": lambda out: ["stability-probe", "--mesh", mesh_path,
                                        "--n-samples", "60", "--seed", "1",
                                        "--out", str(out)],
        "rates": lambda out: ["rates", "--config", rates_cfg, "--out-dir", str(out)],
    }

    setup = tmp_path / "setup"
    setup.mkdir()
    assert cli.dispatch(runs["mesh-gen"](setup)) == 0
    mesh_path = str(setup / "mesh.txt")
    mesh = load_mesh(mesh_path)
    basis = build_spectral_basis(mesh)
    cli.write_boundary_csv(setup / "flux.csv", mesh,
                           synthesize_flux_with_smoothness(basis, 0.5, 0.01, 42))
    flux_path = str(setup / "flux.csv")
    assert cli.dispatch(runs["forward"](setup)) == 0
    trace_path = str(setup / "trace.csv")
    cfg = setup / "rates.cfg"
    cfg.write_text("delta_grid = 1e-2, 1e-3, 1e-4, 1e-5\nseeds_per_delta = 2\n")
    rates_cfg = str(cfg)

    mismatches = []
    for name, argv in runs.items():
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        d1.mkdir(), d2.mkdir()
        assert cli.dispatch(argv(d1)) == 0, name
        assert cli.dispatch(argv(d2)) == 0, name
        for produced in sorted(p.name for p in d1.iterdir()):
            if produced.endswith("manifest.json"):
                continue  # manifests carry wall-clock runtime
            if (d1 / produced).read_bytes() != (d2 / produced).read_bytes():
                mismatches.append(f"{name}/{produced}")
    ok = not mismatches
    report(10, ok, f"mismatches: {mismatches or 'none'} across {len(runs)} subcommands")
