"""The SVD Tikhonov path against a backward-stable QR solve of the stacked system."""

import numpy as np
import pytest

from fluxrec import inversion
from fluxrec.errors import BracketFailureError
from fluxrec.fem import BoundaryVector, FactorizedSystem, ProblemData, trace
from fluxrec.geometry import GAMMA_A, GAMMA_I
from fluxrec.inversion import (
    RHO_BRACKET,
    add_noise,
    choose_rho_discrepancy,
    closed_form_residual,
    tikhonov_solve,
)
from fluxrec.rates import transfer_boundary_values
from fluxrec.spectral import synthesize_flux_with_smoothness

# the rate study's default noise grid; seeds follow its base_seed + 1000 i + j rule
DELTAS = tuple(np.geomspace(1e-2, 1e-6, 9))
SEEDS_PER_DELTA = 20


@pytest.fixture(scope="module")
def u_exact(coarse_mesh, fine_mesh, basis):
    """Clean trace of the rate study's default flux, generated on the refined mesh."""
    q_dag = synthesize_flux_with_smoothness(basis, 0.5, 0.01, 42)
    q_fine = BoundaryVector(GAMMA_I, transfer_boundary_values(
        coarse_mesh, fine_mesh, GAMMA_I, q_dag.values))
    system = FactorizedSystem(fine_mesh, ProblemData.from_constants(fine_mesh))
    u_fine = trace(system.solve_flux(q_fine), GAMMA_A)
    return BoundaryVector(GAMMA_A, transfer_boundary_values(
        fine_mesh, coarse_mesh, GAMMA_A, u_fine.values))


def whitened(op):
    return np.sqrt(op.w_a)[:, None] * op.K / np.sqrt(op.w_i)[None, :]


def qr_solve(op, u_delta, rho):
    """Reference (q, residual) from QR of the stacked system [Kw; sqrt(rho/2) I].

    It is backward stable, where the normal equations square cond(Kw).
    """
    white = whitened(op)
    d = np.sqrt(op.w_a) * (u_delta.values - op.b)
    q, r = np.linalg.qr(np.vstack([white, np.sqrt(0.5 * rho) * np.eye(op.n_i)]))
    p = np.linalg.solve(r, q[:op.n_a].T @ d)
    return p / np.sqrt(op.w_i), float(np.linalg.norm(white @ p - d))


def qr_bisection(op, u_delta, delta, tau_d=1.5):
    """Oracle: the same bracket and bisection, every residual from the QR solve."""
    def residual(rho):
        return qr_solve(op, u_delta, rho)[1]

    lo, hi = RHO_BRACKET
    r_lo = residual(lo)
    if r_lo > tau_d * delta:
        raise BracketFailureError("under-resolved")
    r_hi = residual(hi)
    if r_hi < delta:
        raise BracketFailureError("over-fits")
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
    raise BracketFailureError("exhausted")


def test_closed_form_residual_matches_a_stable_solve(forward_op, coarse_mesh, u_exact):
    for i, delta in enumerate(DELTAS):
        u_delta = add_noise(coarse_mesh, u_exact, delta, 1000 * i)
        closed_form = closed_form_residual(forward_op, u_delta)
        for rho in np.geomspace(*RHO_BRACKET, 41):
            expected = qr_solve(forward_op, u_delta, rho)[1]
            assert abs(closed_form(rho) - expected) <= 1e-9 * expected


def test_solution_matches_a_stable_solve(forward_op, coarse_mesh, u_exact):
    w = forward_op.w_i
    for i, delta in enumerate(DELTAS):
        u_delta = add_noise(coarse_mesh, u_exact, delta, 1000 * i + 2)
        for rho in np.geomspace(*RHO_BRACKET, 41):
            expected = qr_solve(forward_op, u_delta, rho)[0]
            q = tikhonov_solve(forward_op, u_delta, rho).q_rec.values
            gap = np.sqrt((w * (q - expected) ** 2).sum())
            assert gap <= 1e-8 * np.sqrt((w * expected ** 2).sum())


def test_closed_form_matches_the_reported_residual(forward_op, coarse_mesh, u_exact):
    for i, delta in enumerate(DELTAS):
        u_delta = add_noise(coarse_mesh, u_exact, delta, 1000 * i + 1)
        closed_form = closed_form_residual(forward_op, u_delta)
        for rho in np.geomspace(*RHO_BRACKET, 41):
            reported = tikhonov_solve(forward_op, u_delta, rho).residual_norm
            gap = abs(closed_form(rho) - reported)
            assert gap <= 1e-8 * reported
            if rho >= 1e-8 and delta >= 1e-4:
                assert gap <= 1e-9 * reported


def test_search_returns_the_qr_bisection_rho(forward_op, coarse_mesh, u_exact, monkeypatch):
    solves = []

    def counted_solve(*args):
        solves.append(args[2])
        return tikhonov_solve(*args)

    monkeypatch.setattr(inversion, "tikhonov_solve", counted_solve)
    searches = 0
    for i, delta in enumerate(DELTAS):
        for j in range(SEEDS_PER_DELTA):
            u_delta = add_noise(coarse_mesh, u_exact, delta, 1000 * i + j)
            assert choose_rho_discrepancy(forward_op, u_delta, delta) \
                == qr_bisection(forward_op, u_delta, delta)
            searches += 1
    assert searches == len(DELTAS) * SEEDS_PER_DELTA
    assert solves == []


def test_whitened_svd_is_cached_and_read_only(forward_op):
    U, s, Vt = forward_op.whitened_svd
    assert forward_op.whitened_svd[0] is U
    assert not U.flags.writeable and not s.flags.writeable and not Vt.flags.writeable
    np.testing.assert_allclose(U.T @ U, np.eye(len(s)), atol=1e-12)
    np.testing.assert_allclose(Vt @ Vt.T, np.eye(len(s)), atol=1e-12)
    white = whitened(forward_op)
    np.testing.assert_allclose((U * s) @ Vt, white, rtol=0.0, atol=1e-12 * s[0])
    # U^T W = S V^T, so the rows of U^T W have the singular values as norms
    np.testing.assert_allclose(np.linalg.norm(U.T @ white, axis=1), s, rtol=0.0,
                               atol=1e-12 * s[0])
