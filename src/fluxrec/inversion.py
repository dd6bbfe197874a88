"""Affine forward operator and Tikhonov inversion of the inner flux.

The measurement map q -> trace of the solution on GammaA is affine,
A(q) = K q + b, with b the response to zero flux (carrying f and u_a).
K is dense, assembled from unit nodal fluxes solved _K_BLOCK columns
at a time against one sparse LU factorization.

All boundary inner products are the lumped arc-weight L2 products.  The
minimizer of the objective

    (1/rho) ||A(q) - u_delta||_a^2 + (1/2) ||q||_i^2

is taken on the thin SVD of the whitened operator
M_a^(1/2) K M_i^(-1/2) = U S V^T, computed once per operator: with
d = M_a^(1/2) (u_delta - b) and lambda = rho/2 it is the filter solution

    q = M_i^(-1/2) V diag(s / (s^2 + lambda)) U^T d,

and its residual has a closed form in rho, which the discrepancy search
bisects without a solve.  Neither path forms K^T M_a K, whose condition
number is the square of the whitened operator's.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Callable
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
    boundary_l2_norm,
    flux_load_matrix,
    trace,
)
from .geometry import GAMMA_A, GAMMA_I, Mesh, boundary_map
from .spectral import SpectralBasis, sobolev_norm

logger = logging.getLogger(__name__)

# unit-flux columns per multi-right-hand-side solve; bounds the transient
# load block at n_v x _K_BLOCK instead of n_v x n_i
_K_BLOCK = 64
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

    def misfit_norm(self, trace_values: np.ndarray, u_delta: np.ndarray) -> float:
        d = trace_values - u_delta
        return float(np.sqrt((self.w_a * d * d).sum()))


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
    # the load of unit flux e_j is column j of -B_i; 0 - B_i keeps its zero entries +0.0
    flux_load = flux_load_matrix(mesh)
    K = np.empty((len(bmap_a), flux_load.shape[1]))
    for start in range(0, flux_load.shape[1], _K_BLOCK):
        loads = 0.0 - flux_load[:, start:start + _K_BLOCK].toarray()
        K[:, start:start + _K_BLOCK] = system.solve_block(loads)[bmap_a.vertex_indices, :]
    return AffineForwardOperator(mesh, data, K, b, bmap_a.weights, bmap_i.weights)


def adjoint_apply(op: AffineForwardOperator, w: BoundaryVector) -> BoundaryVector:
    """K* w on GammaI, satisfying (Kq, w)_a = (q, K*w)_i exactly."""
    if w.tag != GAMMA_A:
        raise TagMismatchError(f"adjoint input must be tagged {GAMMA_A}, got {w.tag}")
    return BoundaryVector(GAMMA_I, op.apply_adjoint(w.values))


def add_noise(mesh: Mesh, u_exact: BoundaryVector, delta: float, seed: int) -> BoundaryVector:
    """Gaussian perturbation scaled to exact L2(GammaA) norm delta."""
    if u_exact.tag != GAMMA_A:
        raise TagMismatchError(f"data trace must be tagged {GAMMA_A}, got {u_exact.tag}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    if delta == 0.0:
        return BoundaryVector(GAMMA_A, u_exact.values.copy())
    rng = np.random.default_rng(seed)
    for _ in range(2):
        xi = rng.standard_normal(len(u_exact.values))
        nrm = boundary_l2_norm(mesh, BoundaryVector(GAMMA_A, xi))
        if nrm > 0.0:
            return BoundaryVector(GAMMA_A, u_exact.values + delta * xi / nrm)
    raise SolverFailureError("degenerate zero noise draw twice in a row")


def tikhonov_objective(op: AffineForwardOperator, q_values: np.ndarray,
                       u_delta: np.ndarray, rho: float) -> float:
    """(1/rho) ||K q + b - u_delta||_a^2 + (1/2) ||q||_i^2."""
    r = op.apply_linear(q_values) + op.b - u_delta
    misfit = float((op.w_a * r * r).sum())
    penalty = float((op.w_i * q_values * q_values).sum())
    return misfit / rho + 0.5 * penalty


def _project(op: AffineForwardOperator, u_delta: BoundaryVector) -> tuple[np.ndarray, float]:
    """Project d = M_a^(1/2) (u_delta - b) onto the whitened SVD: (c = U^T d, ||d - U c||^2)."""
    if u_delta.tag != GAMMA_A:
        raise TagMismatchError(f"data must be tagged {GAMMA_A}, got {u_delta.tag}")
    if u_delta.values.shape != (op.n_a,):
        raise DimensionMismatchError(f"data trace length {u_delta.values.shape} != {op.n_a}")
    if not np.isfinite(u_delta.values).all():
        raise ParameterDomainError("data trace u_delta has non-finite values")
    U = op.whitened_svd[0]
    d = np.sqrt(op.w_a) * (u_delta.values - op.b)
    c = U.T @ d
    return c, float(np.sum((d - U @ c) ** 2))


def tikhonov_solve(op: AffineForwardOperator, u_delta: BoundaryVector,
                   rho: float) -> TikhonovResult:
    """Minimizer of the Tikhonov objective as the SVD filter solution."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    c, _ = _project(op, u_delta)
    _, s, Vt = op.whitened_svd
    q = (Vt.T @ (s / (s * s + 0.5 * rho) * c)) / np.sqrt(op.w_i)

    q_rec = BoundaryVector(GAMMA_I, q)
    residual_norm = op.misfit_norm(op.apply_linear(q) + op.b, u_delta.values)
    solution_norm = float(np.sqrt((op.w_i * q * q).sum()))
    return TikhonovResult(q_rec, float(rho), residual_norm, solution_norm)


def closed_form_residual(op: AffineForwardOperator,
                         u_delta: BoundaryVector) -> Callable[[float], float]:
    """rho -> Tikhonov residual ||K q_rho + b - u_delta||_a, without a solve.

    With the data projected once onto the whitened SVD, c = U^T d and
    perp^2 = ||d - U c||^2, the residual at lambda = rho/2 is
    sqrt(sum_j (lambda / (s_j^2 + lambda))^2 c_j^2 + perp^2)
    (the complements of the Tikhonov filter factors s^2 / (s^2 + lambda)).
    """
    c, perp_sq = _project(op, u_delta)
    s_sq = op.whitened_svd[1] ** 2

    def residual(rho: float) -> float:
        lam = 0.5 * rho
        return float(np.sqrt(np.sum((lam / (s_sq + lam) * c) ** 2) + perp_sq))

    return residual


def choose_rho_discrepancy(op: AffineForwardOperator, u_delta: BoundaryVector,
                           delta: float, tau_d: float = 1.5) -> float:
    """Morozov choice by bisection on log rho.

    Converges on the largest rho whose residual stays at or below
    tau_d * delta, so the returned residual sits in [delta, tau_d*delta]
    near its upper edge (the classical "residual matches the noise
    level" rule).  Every residual is taken in closed form, which is
    non-decreasing in rho by construction; failure to bracket raises
    BracketFailureError with a diagnosis of which side failed.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not tau_d > 1.0:
        raise ValueError(f"tau_d must be > 1, got {tau_d}")

    lo, hi = RHO_BRACKET
    residual = closed_form_residual(op, u_delta)
    r_lo = residual(lo)
    if r_lo > tau_d * delta:
        raise BracketFailureError(
            f"residual {r_lo:.3e} at rho={lo:.1e} exceeds tau_d*delta={tau_d * delta:.3e}; "
            "the mesh cannot fit the data this closely (under-resolved mesh)"
        )
    r_hi = residual(hi)
    if r_hi < delta:
        raise BracketFailureError(
            f"residual {r_hi:.3e} at rho={hi:.1e} is below delta={delta:.3e}; "
            "delta lies above the data scale (q = 0 already over-fits)"
        )
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
    raise BracketFailureError("bisection exhausted its iteration budget")


def admissibility_check(q_rec: BoundaryVector, q_dag: BoundaryVector,
                        basis: SpectralBasis, m0: float) -> bool:
    """Closed-ball test ||q_rec - q_dag||_(1/2, GammaI) <= m0."""
    diff = BoundaryVector(GAMMA_I, q_rec.values - q_dag.values)
    return sobolev_norm(basis, 0.5, diff) <= m0
