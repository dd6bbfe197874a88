"""Affine forward operator and Tikhonov inversion of the inner flux.

The measurement map q -> trace of the solution on GammaA is affine,
A(q) = K q + b, with b the response to zero flux (carrying f and u_a).
K is dense: its columns are the traces of the unit nodal fluxes, solved
in blocks against one sparse LU factorization.

All boundary inner products are the lumped arc-weight L2 products.  The
minimizer of the objective

    (1/rho) ||A(q) - u_delta||_a^2 + (1/2) ||q||_i^2

is taken on the thin SVD of the whitened operator
M_a^(1/2) K M_i^(-1/2) = U S V^T, computed once per operator: with
d = M_a^(1/2) (u_delta - b) and lambda = rho/2 it is the filter solution

    q = M_i^(-1/2) V diag(s / (s^2 + lambda)) U^T d,

and its residual has a closed form in rho, which the discrepancy search
bisects without a solve, in lock step for all rows still open.  Neither
path forms K^T M_a K, whose condition number is the square of the
whitened operator's.

Every step takes R data rows at once: noise (``noisy_rows``), projection
(``project_rows``), rho (``discrepancy_search``), solve (``tikhonov_rows``)
and the H^(1/2) ball test (``admissible_rows``); each per-datum function
is the one-row call of its batched form.  Products over rows are stacked
matrix-vector products, bitwise equal to the one-row products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    BracketFailureError,
    DimensionMismatchError,
    ParameterDomainError,
    SolverFailureError,
    TagMismatchError,
)
from .fem import (
    BoundaryVector,
    FactorizedSystem,
    ProblemData,
    trace,
)
from .geometry import GAMMA_A, GAMMA_I, Mesh, boundary_map
from .spectral import SpectralBasis

RHO_BRACKET = (1e-14, 1e6)


@dataclass(eq=False)
class AffineForwardOperator:
    """Discrete A(q) = K q + b with its boundary weight vectors."""

    mesh: Mesh
    data: ProblemData
    K: np.ndarray               # (n_a, n_i)
    b: np.ndarray               # (n_a,)
    w_a: np.ndarray             # lumped weights on GammaA
    w_i: np.ndarray             # lumped weights on GammaI

    @functools.cached_property
    def whitened_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD factors (U, s, Vt) of M_a^(1/2) K M_i^(-1/2), read-only."""
        white = np.sqrt(self.w_a)[:, None] * self.K / np.sqrt(self.w_i)[None, :]
        try:
            factors = scipy.linalg.svd(white, full_matrices=False)
        except scipy.linalg.LinAlgError as exc:
            raise SolverFailureError(f"SVD of the whitened operator failed: {exc}") from exc
        for arr in factors:
            arr.flags.writeable = False
        return factors

    @property
    def n_i(self) -> int:
        return len(self.w_i)

    @property
    def n_a(self) -> int:
        return len(self.w_a)

    def apply_linear(self, q_values: np.ndarray) -> np.ndarray:
        """K q, the linear part of the forward map."""
        q_values = np.asarray(q_values, dtype=float)
        if q_values.shape != (self.n_i,):
            raise DimensionMismatchError(f"flux length {q_values.shape} != {self.n_i}")
        return self.K @ q_values

    def apply(self, q: BoundaryVector) -> BoundaryVector:
        """A(q) = K q + b on GammaA."""
        if q.tag != GAMMA_I:
            raise TagMismatchError(f"flux must be tagged {GAMMA_I}, got {q.tag}")
        return BoundaryVector(GAMMA_A, self.apply_linear(q.values) + self.b)

    def apply_adjoint(self, w_values: np.ndarray) -> np.ndarray:
        """K* w with respect to the weighted boundary inner products."""
        w_values = np.asarray(w_values, dtype=float)
        if w_values.shape != (self.n_a,):
            raise DimensionMismatchError(f"trace length {w_values.shape} != {self.n_a}")
        return (self.K.T @ (self.w_a * w_values)) / self.w_i


@dataclass(eq=False)
class TikhonovResult:
    """Tikhonov minimizer for one rho, with its residual ||K q + b - u_delta||_a and ||q||_i."""

    q_rec: BoundaryVector
    rho: float
    residual_norm: float
    solution_norm: float


def build_forward_operator(mesh: Mesh, data: ProblemData) -> AffineForwardOperator:
    """Assemble A(q) = K q + b, reusing one factorization for all columns."""
    system = FactorizedSystem(mesh, data)
    bmap_i, bmap_a = boundary_map(mesh, GAMMA_I), boundary_map(mesh, GAMMA_A)
    b = trace(system.solve_flux(None), GAMMA_A).values
    K = np.empty((len(bmap_a), len(bmap_i)))
    for cols, u in system.flux_fields(np.eye(len(bmap_i))):
        K[:, cols] = u[bmap_a.vertex_indices]
    return AffineForwardOperator(mesh, data, K, b, bmap_a.weights, bmap_i.weights)


def adjoint_apply(op: AffineForwardOperator, w: BoundaryVector) -> BoundaryVector:
    """K* w on GammaI, satisfying (Kq, w)_a = (q, K*w)_i exactly."""
    if w.tag != GAMMA_A:
        raise TagMismatchError(f"adjoint input must be tagged {GAMMA_A}, got {w.tag}")
    return BoundaryVector(GAMMA_I, op.apply_adjoint(w.values))


def noisy_rows(mesh: Mesh, u_exact: BoundaryVector, deltas, seeds) -> np.ndarray:
    """R x n_a data: u_exact plus noise of L2(GammaA) norm deltas[r] drawn by default_rng(seeds[r])."""
    if u_exact.tag != GAMMA_A:
        raise TagMismatchError(f"data trace must be tagged {GAMMA_A}, got {u_exact.tag}")
    deltas = np.asarray(deltas, dtype=float)
    for delta in deltas.tolist():
        if not 0.0 <= delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {delta}")
    u = u_exact.values
    out = np.tile(u, (len(deltas), 1))      # a delta = 0 row is the exact trace
    noisy = np.flatnonzero(deltas > 0.0)
    if not noisy.size:
        return out
    w = boundary_map(mesh, GAMMA_A).weights
    if u.shape != w.shape:
        raise DimensionMismatchError(f"boundary vector has {u.shape} values for {w.shape} weights")
    rngs = [np.random.default_rng(seeds[row]) for row in noisy.tolist()]
    xi = np.array([rng.standard_normal(len(u)) for rng in rngs])
    nrm = np.sqrt((w * xi * xi).sum(axis=1))
    for k in np.flatnonzero(~(nrm > 0.0)).tolist():     # a zero draw is drawn once more
        xi[k] = rngs[k].standard_normal(len(u))
        nrm[k] = np.sqrt((w * xi[k] * xi[k]).sum())
        if not nrm[k] > 0.0:
            raise SolverFailureError("degenerate zero noise draw twice in a row")
    with np.errstate(over="ignore"):  # project_rows rejects an inf row
        out[noisy] = u + deltas[noisy, None] * xi / nrm[:, None]
    return out


def add_noise(mesh: Mesh, u_exact: BoundaryVector, delta: float, seed: int) -> BoundaryVector:
    """Gaussian perturbation scaled to exact L2(GammaA) norm delta, the one-row ``noisy_rows``."""
    return BoundaryVector(GAMMA_A, noisy_rows(mesh, u_exact, [delta], [seed])[0])


def tikhonov_objective(op: AffineForwardOperator, q_values: np.ndarray,
                       u_delta: np.ndarray, rho: float) -> float:
    """(1/rho) ||K q + b - u_delta||_a^2 + (1/2) ||q||_i^2."""
    r = op.apply_linear(q_values) + op.b - u_delta
    misfit = float((op.w_a * r * r).sum())
    penalty = float((op.w_i * q_values * q_values).sum())
    return misfit / rho + 0.5 * penalty


def _matvecs(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A x for every row x of X, bitwise the one-row A @ x (X @ A.T, a gemm, is not)."""
    return np.matmul(A, X[:, :, None])[..., 0]


def project_rows(op: AffineForwardOperator, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project the rows d = M_a^(1/2) (u_delta - b) on the whitened SVD: (U^T d, ||d - U U^T d||^2)."""
    if data.shape[1:] != (op.n_a,):
        raise DimensionMismatchError(f"data trace length {data.shape[1:]} != {op.n_a}")
    if not np.isfinite(data).all():
        raise ParameterDomainError("data trace u_delta has non-finite values")
    U = op.whitened_svd[0]
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.sqrt(op.w_a) * (data - op.b)
        c = _matvecs(U.T, d)
        perp_sq = np.sum((d - _matvecs(U, c)) ** 2, axis=1)
        # ||c||^2 + perp_sq bounds the square of every residual of the discrepancy search
        if not np.isfinite(np.sum(c * c, axis=1) + perp_sq).all():
            raise SolverFailureError("the squared norm of the data overflows float64")
    return c, perp_sq


def _one_row(u_delta: BoundaryVector) -> np.ndarray:
    """The 1 x n_a data of one datum, for the row forms at R = 1."""
    if u_delta.tag != GAMMA_A:
        raise TagMismatchError(f"data must be tagged {GAMMA_A}, got {u_delta.tag}")
    return u_delta.values[None]


def tikhonov_rows(op: AffineForwardOperator, data: np.ndarray, c: np.ndarray,
                  rhos) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fluxes q (R x n_i), ||K q + b - u_delta||_a and ||q||_i at rhos; c is project_rows(...)[0]."""
    rhos = np.asarray(rhos, dtype=float)
    for rho in rhos.tolist():
        if not 0.0 < rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {rho}")
    _, s, Vt = op.whitened_svd
    with np.errstate(over="ignore", invalid="ignore"):
        q = _matvecs(Vt.T, s / (s * s + 0.5 * rhos[:, None]) * c) / np.sqrt(op.w_i)
        r = _matvecs(op.K, q) + op.b - data
        norms = np.sqrt((op.w_a * r * r).sum(axis=1)), np.sqrt((op.w_i * q * q).sum(axis=1))
    if not np.isfinite(norms).all():    # a non-finite q has a non-finite norm
        raise SolverFailureError("the Tikhonov solution or its residual overflows float64")
    return q, *norms


def tikhonov_solve(op: AffineForwardOperator, u_delta: BoundaryVector,
                   rho: float) -> TikhonovResult:
    """Minimizer of the Tikhonov objective, the one-row ``tikhonov_rows``."""
    data = _one_row(u_delta)
    q, residual, norm = tikhonov_rows(op, data, project_rows(op, data)[0], [rho])
    return TikhonovResult(BoundaryVector(GAMMA_I, q[0]), float(rho),
                          float(residual[0]), float(norm[0]))


def _residuals(s_sq: np.ndarray, c: np.ndarray, perp_sq: np.ndarray,
               rho: np.ndarray) -> np.ndarray:
    """Tikhonov residuals ||K q_rho + b - u_delta||_a of R rows, without a solve.

    Row r holds data projected onto the whitened SVD, c[r] = U^T d and
    perp_sq[r] = ||d - U c[r]||^2; at lambda = rho[r]/2 its residual is
    sqrt(sum_j (lambda / (s_j^2 + lambda))^2 c_j^2 + perp^2)
    (the complements of the Tikhonov filter factors s^2 / (s^2 + lambda)).
    """
    lam = 0.5 * rho[:, None]
    return np.sqrt(np.sum((lam / (s_sq + lam) * c) ** 2, axis=1) + perp_sq)


def discrepancy_search(op: AffineForwardOperator, c: np.ndarray, perp_sq: np.ndarray,
                       deltas: np.ndarray, tau_d: float = 1.5) -> tuple[list[float], list[str]]:
    """Morozov choice for R projected data (rows of c and perp_sq, see ``project_rows``) at once.

    Each row is bisected on log rho, all in lock step, towards the largest
    rho whose closed-form residual (non-decreasing in rho) stays at or
    below tau_d * delta, so that it sits in [delta, tau_d*delta] near the
    upper edge; a row leaves the loop when its own stopping test holds.
    Returns (rho, failure) per row: a failed row gets NaN and the
    diagnosis of which side failed, a successful row the failure "".
    """
    deltas = np.asarray(deltas, dtype=float)
    for delta in deltas.tolist():
        if not delta > 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
    if not tau_d > 1.0:
        raise ValueError(f"tau_d must be > 1, got {tau_d}")

    s_sq = op.whitened_svd[1] ** 2
    upper = tau_d * deltas
    lo, hi = RHO_BRACKET
    r_lo = _residuals(s_sq, c, perp_sq, np.full(len(deltas), lo))
    r_hi = _residuals(s_sq, c, perp_sq, np.full(len(deltas), hi))
    under = r_lo > upper
    over = ~under & (r_hi < deltas)
    failures = [""] * len(deltas)
    for row in np.flatnonzero(under).tolist():
        failures[row] = (
            f"residual {r_lo[row]:.3e} at rho={lo:.1e} exceeds tau_d*delta={upper[row]:.3e}; "
            "the mesh cannot fit the data this closely (under-resolved mesh)")
    for row in np.flatnonzero(over).tolist():
        failures[row] = (
            f"residual {r_hi[row]:.3e} at rho={hi:.1e} is below delta={deltas[row]:.3e}; "
            "delta lies above the data scale (q = 0 already over-fits)")
    at_hi = ~under & ~over & (r_hi <= upper)
    rho = np.where(at_hi, hi, np.nan)

    # the rows still open; best is NaN until a mid lands in the band
    active = np.flatnonzero(~(under | over | at_hi))
    c, perp_sq, deltas, upper = c[active], perp_sq[active], deltas[active], upper[active]
    best = np.where(r_lo[active] >= deltas, lo, np.nan)
    log_lo = np.full(active.size, np.log10(lo))
    log_hi = np.full(active.size, np.log10(hi))
    for _ in range(200):
        if not active.size:
            break
        # Python's float power is libm pow; numpy's array power differs in the last bit
        mid = np.array([10.0 ** x for x in (0.5 * (log_lo + log_hi)).tolist()])
        r_mid = _residuals(s_sq, c, perp_sq, mid)
        above = r_mid > upper
        log_mid = np.log10(mid)
        log_lo = np.where(above, log_lo, log_mid)
        log_hi = np.where(above, log_mid, log_hi)
        best = np.where(~above & (r_mid >= deltas), mid, best)
        done = (log_hi - log_lo < 1e-3) & ~np.isnan(best)
        rho[active[done]] = best[done]
        keep = ~done
        active, best, log_lo, log_hi = active[keep], best[keep], log_lo[keep], log_hi[keep]
        c, perp_sq, deltas, upper = c[keep], perp_sq[keep], deltas[keep], upper[keep]
    for row in active.tolist():
        failures[row] = "bisection exhausted its iteration budget"
    return rho.tolist(), failures


def choose_rho_discrepancy(op: AffineForwardOperator, u_delta: BoundaryVector,
                           delta: float, tau_d: float = 1.5) -> float:
    """Morozov choice for one datum, the one-row ``discrepancy_search``; raises its failure."""
    data = _one_row(u_delta)
    (rho,), (failure,) = discrepancy_search(op, *project_rows(op, data), np.array([delta]), tau_d)
    if failure:
        raise BracketFailureError(failure)
    return rho


def admissible_rows(fluxes: np.ndarray, q_dag: BoundaryVector, basis: SpectralBasis,
                    m0: float) -> np.ndarray:
    """Closed-ball test ||q - q_dag||_(1/2, GammaI) <= m0 for every row q of fluxes (R x n_i)."""
    diff = fluxes - q_dag.values
    if diff.shape[1:] != (basis.n_modes,):
        raise DimensionMismatchError(
            f"expected {basis.n_modes} boundary values, got {diff.shape[1:]}")
    c = _matvecs(basis.eigenvectors.T, basis.mass_diag * diff)
    # spectral.sobolev_norm's weights lambda^(2s) are lambda at s = 1/2
    return np.sqrt((basis.eigenvalues * c ** 2).sum(axis=1)) <= m0
