"""The SVD Tikhonov path against a backward-stable QR solve of the stacked system."""

import numpy as np
import pytest
from conftest import scalar_choose_rho_discrepancy, scalar_residual

from fluxrec import inversion
from fluxrec.errors import BracketFailureError
from fluxrec.fem import BoundaryVector, FactorizedSystem, ProblemData, trace
from fluxrec.geometry import GAMMA_A, GAMMA_I, generate_annulus_mesh, refine_uniform
from fluxrec.inversion import (
    RHO_BRACKET,
    add_noise,
    build_forward_operator,
    choose_rho_discrepancy,
    discrepancy_search,
    tikhonov_solve,
)
from fluxrec.rates import transfer_boundary_values
from fluxrec.spectral import build_spectral_basis, synthesize_flux_with_smoothness

# the rate study's default noise grid; seeds follow its base_seed + 1000 i + j rule
DELTAS = tuple(np.geomspace(1e-2, 1e-6, 9))
SEEDS_PER_DELTA = 20


# the lock-step sweep: three fluxes with data norms 0.57, 5.7e-3 and 5.7e-5 (flux seed,
# amplitude), 17 deltas reaching from above the smaller data scales to below the model
# error at h = 0.025, 8 seeds each, so that every exit of the search occurs
SWEEP_FLUXES = ((42, 1.0), (7, 1e-2), (2024, 1e-4))
SWEEP_DELTAS = tuple(np.geomspace(1e-1, 1e-9, 17))
SWEEP_SEEDS = 8


def refined_mesh_trace(coarse, fine, basis, flux_seed, amplitude=1.0):
    """Clean trace of a smoothness-0.5 flux, generated on the refined mesh as rates does."""
    q_dag = synthesize_flux_with_smoothness(basis, 0.5, 0.01, flux_seed)
    q_fine = BoundaryVector(GAMMA_I, amplitude * transfer_boundary_values(
        coarse, fine, GAMMA_I, q_dag.values))
    system = FactorizedSystem(fine, ProblemData.from_constants(fine))
    u_fine = trace(system.solve_flux(q_fine), GAMMA_A)
    return BoundaryVector(GAMMA_A, transfer_boundary_values(
        fine, coarse, GAMMA_A, u_fine.values))


@pytest.fixture(scope="module")
def u_exact(coarse_mesh, fine_mesh, basis):
    """Clean trace of the rate study's default flux, generated on the refined mesh."""
    return refined_mesh_trace(coarse_mesh, fine_mesh, basis, 42)


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


def closed_form_residual(op, u_delta):
    """rho -> the closed-form residual of one datum, through the row forms at R = 1."""
    c, perp_sq = inversion.project_rows(op, u_delta.values[None])
    s_sq = op.whitened_svd[1] ** 2
    return lambda rho: float(inversion._residuals(s_sq, c, perp_sq, np.array([rho]))[0])


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


def oracle_rows(op, data, tau_d=1.5):
    """(rho.hex(), failure) of each (u_delta, delta) from the scalar bisection oracle."""
    rows = []
    for u_delta, delta in data:
        try:
            rows.append((float(scalar_choose_rho_discrepancy(op, u_delta, delta, tau_d)).hex(), ""))
        except BracketFailureError as exc:
            rows.append((float("nan").hex(), str(exc)))
    return rows


def batched_rows(op, data, tau_d=1.5):
    c, perp_sq = inversion.project_rows(op, np.array([u_delta.values for u_delta, _ in data]))
    rho, failures = discrepancy_search(op, c, perp_sq, np.array([delta for _, delta in data]),
                                       tau_d)
    assert all(type(r) is float for r in rho)
    return [(r.hex(), f) for r, f in zip(rho, failures)]


def one_row_rows(op, data, tau_d=1.5):
    rows = []
    for u_delta, delta in data:
        try:
            rho = choose_rho_discrepancy(op, u_delta, delta, tau_d)
        except BracketFailureError as exc:
            rows.append((float("nan").hex(), str(exc)))
        else:
            assert type(rho) is float
            rows.append((rho.hex(), ""))
    return rows


def exit_of(rho_hex, failure):
    """Which way the search left a row."""
    for kind in ("under-resolved", "over-fits", "exhausted"):
        if kind in failure:
            return kind
    return "top of the bracket" if rho_hex == RHO_BRACKET[1].hex() else "bisected"


@pytest.fixture(scope="module", params=[0.1, 0.05, 0.025])
def sweep(request):
    """(h, op, [(u_delta, delta)]) of the lock-step sweep on one mesh size."""
    coarse = generate_annulus_mesh(0.5, 1.0, request.param)
    fine = refine_uniform(coarse)
    basis = build_spectral_basis(coarse)
    op = build_forward_operator(coarse, ProblemData.from_constants(coarse))
    data = []
    for flux_seed, amplitude in SWEEP_FLUXES:
        u_clean = refined_mesh_trace(coarse, fine, basis, flux_seed, amplitude)
        for i, delta in enumerate(SWEEP_DELTAS):
            data += [(add_noise(coarse, u_clean, delta, 1000 * i + j), delta)
                     for j in range(SWEEP_SEEDS)]
    return request.param, op, data


def test_batched_search_has_the_scalar_bisection_bits(sweep):
    h, op, data = sweep
    expected = oracle_rows(op, data)
    assert batched_rows(op, data) == expected
    assert one_row_rows(op, data) == expected
    exits = {exit_of(rho, failure) for rho, failure in expected}
    # only at h = 0.025 does the residual at rho = 1e-14 exceed tau_d * 1e-9
    assert exits == {"over-fits", "top of the bracket", "bisected"} | (
        {"under-resolved"} if h == 0.025 else set())


def test_batched_search_rows_are_independent(sweep):
    """A row's rho and failure do not depend on which rows share its call, or their order."""
    _, op, data = sweep
    expected = batched_rows(op, data)
    order = np.random.default_rng(3).permutation(len(data))
    shuffled = batched_rows(op, [data[k] for k in order])
    assert [shuffled[k] for k in np.argsort(order)] == expected
    assert batched_rows(op, data[::7]) == expected[::7]


def test_exhausted_budget_matches_the_oracle(forward_op, coarse_mesh, u_exact):
    """With a band [delta, tau_d * delta] two floats wide, some rows never land in it."""
    tau_d = float(np.nextafter(1.0, 2.0))
    data = [(add_noise(coarse_mesh, u_exact, delta, 1000 * i + j), delta)
            for i, delta in enumerate(DELTAS) for j in range(4)]
    expected = oracle_rows(forward_op, data, tau_d)
    assert ("nan", "bisection exhausted its iteration budget") in expected
    assert batched_rows(forward_op, data, tau_d) == expected
    assert one_row_rows(forward_op, data, tau_d) == expected


def test_closed_form_residual_has_the_scalar_bits(forward_op, coarse_mesh, u_exact):
    u_delta = add_noise(coarse_mesh, u_exact, 1e-4, 5)
    closed_form, scalar = closed_form_residual(forward_op, u_delta), scalar_residual(
        forward_op, u_delta)
    for rho in [*np.geomspace(*RHO_BRACKET, 41), 1e-3]:
        value = closed_form(rho)
        assert type(value) is float and value.hex() == scalar(rho).hex()


def test_batched_search_rejects_bad_levels(forward_op, coarse_mesh, u_exact):
    (c,), (perp_sq,) = inversion.project_rows(forward_op, u_exact.values[None])
    for bad in (0.0, -1e-4, float("nan")):
        with pytest.raises(ValueError, match=f"delta must be positive, got {bad}"):
            discrepancy_search(forward_op, np.stack([c, c]), np.array([perp_sq] * 2),
                               np.array([1e-3, bad]))
    with pytest.raises(ValueError, match="tau_d must be > 1"):
        discrepancy_search(forward_op, c[None], np.array([perp_sq]), np.array([1e-3]), 1.0)
