"""The batched forms of the rate study's steps against their per-row oracles, bit for bit.

``rates.run_rate_study`` takes noise, projection, Tikhonov solve, error
and admissibility for every row of a sweep in one array pass each; the
per-row functions of ``inversion`` are the one-row calls of those
passes.  The oracles in ``conftest`` are the per-row bodies as they were
before the batched forms existed.
"""

import logging

import numpy as np
import pytest
from conftest import (
    loop_rate_rows,
    scalar_add_noise,
    scalar_admissibility_check,
    scalar_project,
    scalar_tikhonov_solve,
)

from fluxrec import inversion
from fluxrec.errors import (
    DimensionMismatchError,
    ParameterDomainError,
    SolverFailureError,
    TagMismatchError,
)
from fluxrec.fem import BoundaryVector, ProblemData, boundary_l2_norm
from fluxrec.geometry import GAMMA_A, GAMMA_I, generate_annulus_mesh
from fluxrec.rates import ExperimentConfig, run_rate_study
from fluxrec.spectral import build_spectral_basis, sobolev_norm, synthesize_flux_with_smoothness

MESH_SIZES = (0.1, 0.05, 0.025)
# the rate study's default noise grid plus an exact datum, two seeds each
DELTAS = np.repeat([0.0, *np.geomspace(1e-2, 1e-6, 9)], 2)
SEEDS = [1000 * i + j for i in range(len(DELTAS) // 2) for j in range(2)]


@pytest.fixture(scope="module", params=MESH_SIZES, ids=lambda h: f"h={h}")
def problem(request):
    """(mesh, op, basis, q_dag, u_exact) on one annulus mesh, with same-mesh data."""
    mesh = generate_annulus_mesh(0.5, 1.0, request.param)
    op = inversion.build_forward_operator(mesh, ProblemData.from_constants(mesh))
    basis = build_spectral_basis(mesh)
    q_dag = synthesize_flux_with_smoothness(basis, 0.5, 0.01, seed=42)
    return mesh, op, basis, q_dag, op.apply(q_dag)


def _data(problem):
    mesh, _, _, _, u_exact = problem
    return inversion.noisy_rows(mesh, u_exact, DELTAS, SEEDS)


def test_noisy_rows_match_the_per_row_draws(problem):
    mesh, _, _, _, u_exact = problem
    data = _data(problem)
    assert data.shape == (len(DELTAS), len(u_exact.values))
    for row, (delta, seed) in enumerate(zip(DELTAS.tolist(), SEEDS)):
        expected = scalar_add_noise(mesh, u_exact, delta, seed).values
        assert data[row].tobytes() == expected.tobytes()
        assert inversion.add_noise(mesh, u_exact, delta, seed).values.tobytes() \
            == expected.tobytes()


def test_projection_rows_match_the_per_row_projection(problem):
    _, op, _, _, _ = problem
    data = _data(problem)
    c, perp_sq = inversion.project_rows(op, data)
    assert c.shape == (len(data), op.n_a) and perp_sq.shape == (len(data),)
    for row, values in enumerate(data):
        c_row, perp_row = scalar_project(op, BoundaryVector(GAMMA_A, values))
        assert c[row].tobytes() == c_row.tobytes()
        assert perp_sq[row].item().hex() == perp_row.hex()
        (one_c,), (one_perp,) = inversion.project_rows(op, values[None])
        assert (one_c.tobytes(), one_perp.item()) == (c_row.tobytes(), perp_row)


def test_tikhonov_rows_match_the_per_row_solves(problem):
    _, op, _, _, _ = problem
    data = _data(problem)
    c, _ = inversion.project_rows(op, data)
    rhos = np.geomspace(1e-12, 1e2, len(data))
    q, residuals, norms = inversion.tikhonov_rows(op, data, c, rhos)
    for row, (values, rho) in enumerate(zip(data, rhos.tolist())):
        u_delta = BoundaryVector(GAMMA_A, values)
        expected = scalar_tikhonov_solve(op, u_delta, rho)
        assert q[row].tobytes() == expected.q_rec.values.tobytes()
        assert residuals[row].item().hex() == expected.residual_norm.hex()
        assert norms[row].item().hex() == expected.solution_norm.hex()
        one = inversion.tikhonov_solve(op, u_delta, rho)
        assert one.q_rec.tag == GAMMA_I and one.q_rec.values.tobytes() == q[row].tobytes()
        assert [type(x) for x in (one.rho, one.residual_norm, one.solution_norm)] == [float] * 3
        assert (one.rho, one.residual_norm, one.solution_norm) \
            == (rho, expected.residual_norm, expected.solution_norm)


def test_admissible_rows_match_the_per_row_check(problem):
    mesh, op, basis, q_dag, _ = problem
    data = _data(problem)
    c, _ = inversion.project_rows(op, data)
    q, _, _ = inversion.tikhonov_rows(op, data, c, np.full(len(data), 1e-6))
    half = [sobolev_norm(basis, 0.5, BoundaryVector(GAMMA_I, row - q_dag.values)) for row in q]
    # thresholds inside the spread of the rows (one exactly at a row), so both answers occur
    for m0 in (float(np.median(half)), min(half), max(half)):
        expected = [scalar_admissibility_check(BoundaryVector(GAMMA_I, row), q_dag, basis, m0)
                    for row in q]
        assert True in expected
        assert inversion.admissible_rows(q, q_dag, basis, m0).tolist() == expected
        assert [inversion.admissible_rows(row[None], q_dag, basis, m0)[0] for row in q] \
            == expected
    # the lumped L2(GammaI) error the rate study takes over rows
    diff = q - q_dag.values
    errors = np.sqrt((op.w_i * diff * diff).sum(axis=1))
    assert [e.hex() for e in errors.tolist()] == [
        boundary_l2_norm(mesh, BoundaryVector(GAMMA_I, row)).hex() for row in diff]


def test_one_row_calls_return_python_scalars(problem):
    mesh, op, basis, q_dag, u_exact = problem
    assert inversion.admissible_rows(q_dag.values[None], q_dag, basis, 1.0).tolist() == [True]
    u_delta = inversion.add_noise(mesh, u_exact, 1e-3, 7)
    assert isinstance(u_delta, BoundaryVector) and u_delta.tag == GAMMA_A
    assert type(inversion.project_rows(op, u_delta.values[None])[1].tolist()[0]) is float


@pytest.mark.parametrize("n_rows", [90, 900])
def test_stacked_matvec_is_the_per_row_product(problem, n_rows):
    # the batched forms rest on this: numpy's stacked matmul runs one gemv per row, as A @ x
    # does; X @ A.T (one gemm) and np.einsum round differently.  A numpy upgrade that breaks
    # it must fail here first.
    _, op, basis, _, _ = problem
    U, _, Vt = op.whitened_svd
    rng = np.random.default_rng(len(U))
    for A in (U.T, U, Vt.T, op.K, basis.eigenvectors.T):
        X = rng.standard_normal((n_rows, A.shape[1]))
        rows = np.matmul(A, X[:, :, None])[..., 0]
        assert rows.tobytes() == np.array([A @ x for x in X]).tobytes()
        assert inversion._matvecs(A, X).tobytes() == rows.tobytes()


def test_row_sums_are_the_per_row_sums(problem):
    _, op, _, _, _ = problem
    X = np.random.default_rng(3).standard_normal((90, op.n_a))
    sums = (op.w_a * X * X).sum(axis=1)
    assert sums.tobytes() == np.array([(op.w_a * x * x).sum() for x in X]).tobytes()


class _ZeroFirst:
    """A generator whose first ``zeros`` draws are all zero, then those of ``rng``."""

    def __init__(self, rng, zeros):
        self.rng, self.zeros = rng, zeros

    def standard_normal(self, n):
        if self.zeros:
            self.zeros -= 1
            return np.zeros(n)
        return self.rng.standard_normal(n)


def test_zero_noise_draw_is_redrawn_per_row(problem, monkeypatch):
    mesh, _, _, _, u_exact = problem
    real = np.random.default_rng
    # seed 5 draws zero once, seed 6 never; the redraw stays with its own row
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _ZeroFirst(real(seed), int(seed == 5)))
    data = inversion.noisy_rows(mesh, u_exact, [1e-3, 1e-3, 1e-4], [6, 5, 6])
    for row, (delta, seed) in enumerate([(1e-3, 6), (1e-3, 5), (1e-4, 6)]):
        assert data[row].tobytes() == scalar_add_noise(mesh, u_exact, delta, seed).values.tobytes()
    assert not np.array_equal(data[1], u_exact.values)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _ZeroFirst(real(seed), 2 * (seed == 5)))
    with pytest.raises(SolverFailureError, match="degenerate zero noise draw twice in a row"):
        inversion.noisy_rows(mesh, u_exact, [1e-3, 1e-3], [6, 5])
    with pytest.raises(SolverFailureError, match="degenerate zero noise draw twice in a row"):
        inversion.add_noise(mesh, u_exact, 1e-3, 5)


def test_batched_forms_raise_the_per_row_errors(problem):
    mesh, op, basis, q_dag, u_exact = problem
    with pytest.raises(TagMismatchError, match=f"data trace must be tagged {GAMMA_A}"):
        inversion.noisy_rows(mesh, q_dag, [1e-3], [0])
    with pytest.raises(ValueError, match="delta must be finite and >= 0, got nan"):
        inversion.noisy_rows(mesh, u_exact, [1e-3, np.nan], [0, 1])
    short = BoundaryVector(GAMMA_A, u_exact.values[:-1])
    with pytest.raises(DimensionMismatchError, match="boundary vector has"):
        inversion.noisy_rows(mesh, short, [1e-3], [0])
    assert inversion.noisy_rows(mesh, short, [0.0], [0]).tobytes() == short.values.tobytes()
    with pytest.raises(DimensionMismatchError, match=f"data trace length \\({op.n_a - 1},\\)"):
        inversion.project_rows(op, short.values[None])
    bad = np.tile(u_exact.values, (2, 1))
    bad[1, 0] = np.inf
    with pytest.raises(ParameterDomainError, match="non-finite"):
        inversion.project_rows(op, bad)
    data = np.tile(u_exact.values, (2, 1))
    c, _ = inversion.project_rows(op, data)
    with pytest.raises(ValueError, match="rho must be positive and finite, got 0.0"):
        inversion.tikhonov_rows(op, data, c, [1e-3, 0.0])
    with pytest.raises(DimensionMismatchError, match="expected"):
        inversion.admissible_rows(np.zeros((2, op.n_i + 1)), BoundaryVector(
            GAMMA_I, np.zeros(op.n_i + 1)), basis, 1.0)


def _row_bits(row):
    return (row.delta.hex(), row.seed, row.rho.hex(), row.error.hex(), row.residual.hex(),
            row.admissible, row.failed)


@pytest.mark.parametrize("config", [
    # the smallest deltas lie below the model error of h = 0.05 and fail
    ExperimentConfig(h=0.05, delta_grid=(1e-2, 1e-4, 1e-6, 1e-8, 1e-10), seeds_per_delta=3),
    ExperimentConfig(h=0.05, delta_grid=(1e-2, 1e-4, 1e-6), seeds_per_delta=2,
                     rho_rule="fixed", fixed_rho_schedule=(1e-2, 1e-6, 1e-9)),
    ExperimentConfig(h=0.025, delta_grid=(1e-3, 1e-8), seeds_per_delta=2, rho_rule="fixed",
                     fixed_rho_schedule=(1e-5, 1e-12)),
    # every row fails: the batched passes get no row at all
    ExperimentConfig(h=0.05, delta_grid=(1e-10, 1e-11), seeds_per_delta=2),
], ids=["h=0.05-failures", "h=0.05-fixed", "h=0.025-fixed", "h=0.05-all-failed"])
def test_rate_rows_match_the_per_row_oracle_on_every_mesh(config, caplog):
    with caplog.at_level(logging.WARNING, logger="fluxrec.rates"):
        report = run_rate_study(config)
    rows, warnings = loop_rate_rows(config)
    assert [_row_bits(r) for r in report.rows] == [_row_bits(r) for r in rows]
    assert [rec.getMessage() for rec in caplog.records] == warnings
    assert all(type(r.admissible) is bool for r in report.rows)
    assert any(r.failed for r in rows) == (config.rho_rule == "discrepancy")
