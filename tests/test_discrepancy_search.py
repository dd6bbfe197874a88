"""The closed-form discrepancy search against the Cholesky residuals it stands in for."""

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


def cholesky_bisection(op, u_delta, delta, tau_d=1.5):
    """Oracle: the same bracket and bisection, every residual from tikhonov_solve."""
    def residual(rho):
        return tikhonov_solve(op, u_delta, rho).residual_norm

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
    # reference: QR of the stacked least-squares system [Kw; sqrt(rho/2) I],
    # which is backward stable where the normal equations square cond(Kw)
    white = np.sqrt(forward_op.w_a)[:, None] * forward_op.K / np.sqrt(forward_op.w_i)[None, :]
    for i, delta in enumerate(DELTAS):
        u_delta = add_noise(coarse_mesh, u_exact, delta, 1000 * i)
        d = np.sqrt(forward_op.w_a) * (u_delta.values - forward_op.b)
        closed_form = closed_form_residual(forward_op, u_delta)
        for rho in np.geomspace(*RHO_BRACKET, 41):
            q, r = np.linalg.qr(np.vstack([white, np.sqrt(0.5 * rho) * np.eye(forward_op.n_i)]))
            p = np.linalg.solve(r, q[:forward_op.n_a].T @ d)
            expected = np.linalg.norm(white @ p - d)
            assert abs(closed_form(rho) - expected) <= 1e-9 * expected


def test_cholesky_residual_stays_inside_the_guard_band(forward_op, coarse_mesh, u_exact):
    for i, delta in enumerate(DELTAS):
        u_delta = add_noise(coarse_mesh, u_exact, delta, 1000 * i + 1)
        closed_form = closed_form_residual(forward_op, u_delta)
        for rho in np.geomspace(*RHO_BRACKET, 41):
            cholesky = tikhonov_solve(forward_op, u_delta, rho).residual_norm
            gap = abs(closed_form(rho) - cholesky)
            # a tenth of the band: the search's side decisions have room to spare
            assert gap <= 0.1 * inversion.guard_margin(forward_op, rho) * cholesky
            # below delta = 1e-4 the Cholesky residual itself is off by up to
            # 1e-8 relative at rho = 1e-8, against the stable solve above
            if rho >= 1e-8 and delta >= 1e-4:
                assert gap <= 1e-9 * cholesky


def test_search_returns_the_cholesky_bisection_rho(forward_op, coarse_mesh, u_exact,
                                                   monkeypatch):
    solves = []

    def counted_solve(*args):
        solves.append(args[2])
        return tikhonov_solve(*args)

    monkeypatch.setattr(inversion, "tikhonov_solve", counted_solve)
    searches = 0
    for i, delta in enumerate(DELTAS):
        for j in range(SEEDS_PER_DELTA):
            u_delta = add_noise(coarse_mesh, u_exact, delta, 1000 * i + j)
            try:
                expected = cholesky_bisection(forward_op, u_delta, delta)
            except BracketFailureError:
                with pytest.raises(BracketFailureError):
                    choose_rho_discrepancy(forward_op, u_delta, delta)
                continue
            assert choose_rho_discrepancy(forward_op, u_delta, delta) == expected
            searches += 1
    assert searches >= 0.9 * len(DELTAS) * SEEDS_PER_DELTA
    # the guard band sends only a few evaluations per search to Cholesky
    assert len(solves) < 5 * searches


def test_whitened_svd_is_cached_and_read_only(forward_op):
    U, s = forward_op.whitened_svd
    assert forward_op.whitened_svd[0] is U
    assert inversion.whitened_singular_values(forward_op) is s
    assert not U.flags.writeable and not s.flags.writeable
    white = np.sqrt(forward_op.w_a)[:, None] * forward_op.K / np.sqrt(forward_op.w_i)[None, :]
    np.testing.assert_allclose(U.T @ U, np.eye(len(s)), atol=1e-12)
    # U^T W = S V^T, so the rows of U^T W have the singular values as norms
    np.testing.assert_allclose(np.linalg.norm(U.T @ white, axis=1), s, rtol=0.0,
                               atol=1e-12 * s[0])
