"""Affine forward operator and Tikhonov inversion of the inner flux.

The measurement map q -> trace of the solution on GammaA is affine,
A(q) = K q + b, with b the response to zero flux (carrying f and u_a).
K is dense, assembled from unit nodal fluxes solved _K_BLOCK columns
at a time against one sparse LU factorization.

All boundary inner products are the lumped arc-weight L2 products, so
the normal equations of the objective

    (1/rho) ||A(q) - u_delta||_a^2 + (1/2) ||q||_i^2

read  (K^T M_a K + (rho/2) M_i) q = K^T M_a (u_delta - b).

The discrepancy search evaluates the residual of those equations in
closed form on the thin SVD of the whitened operator
M_a^(1/2) K M_i^(-1/2) = U S V^T, and falls back to a Cholesky solve
only where the closed-form value lies too close to a threshold for its
side to be certain.
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
    SolverFailureError,
    TagMismatchError,
)
from .fem import (
    BoundaryVector,
    FactorizedSystem,
    ProblemData,
    assemble_rhs,
    boundary_l2_norm,
    trace,
)
from .geometry import GAMMA_A, GAMMA_I, Mesh, boundary_map
from .spectral import SpectralBasis, sobolev_norm

logger = logging.getLogger(__name__)

# unit-flux columns per multi-right-hand-side solve; bounds the transient
# load block at n_v x _K_BLOCK instead of n_v x n_i
_K_BLOCK = 64
RHO_BRACKET = (1e-14, 1e6)
# relative guard band of the closed-form discrepancy residual: see guard_margin
_GUARD_FLOOR = 1e-3
_GUARD_ULPS = 64.0


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
    def whitened_svd(self) -> tuple[np.ndarray, np.ndarray]:
        """Thin SVD factors (U, s) of M_a^(1/2) K M_i^(-1/2), read-only; V is never needed."""
        white = np.sqrt(self.w_a)[:, None] * self.K / np.sqrt(self.w_i)[None, :]
        U, s, _ = scipy.linalg.svd(white, full_matrices=False)
        U.flags.writeable = False
        s.flags.writeable = False
        return U, s

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
    """Solution of the regularized normal equations for one rho."""

    q_rec: BoundaryVector
    rho: float
    residual_norm: float
    solution_norm: float


def build_forward_operator(mesh: Mesh, data: ProblemData) -> AffineForwardOperator:
    """Assemble A(q) = K q + b, reusing one factorization for all columns."""
    system = FactorizedSystem(mesh, data)
    bmap_i = boundary_map(mesh, GAMMA_I)
    bmap_a = boundary_map(mesh, GAMMA_A)
    n_i = len(bmap_i)

    b = trace(system.solve_flux(None), GAMMA_A).values
    zero_data = ProblemData(data.alpha, data.k, np.zeros(mesh.n_vertices),
                            np.zeros(len(bmap_a)))
    K = np.empty((len(bmap_a), n_i))
    for start in range(0, n_i, _K_BLOCK):
        cols = range(start, min(start + _K_BLOCK, n_i))
        loads = np.empty((mesh.n_vertices, len(cols)))
        for c, j in enumerate(cols):
            e = np.zeros(n_i)
            e[j] = 1.0
            loads[:, c] = assemble_rhs(mesh, zero_data, BoundaryVector(GAMMA_I, e))
        K[:, cols.start:cols.stop] = system._lu.solve(loads)[bmap_a.vertex_indices, :]
    return AffineForwardOperator(mesh, data, K, b, bmap_a.weights, bmap_i.weights)


def adjoint_apply(op: AffineForwardOperator, w: BoundaryVector) -> BoundaryVector:
    """K* w on GammaI, satisfying (Kq, w)_a = (q, K*w)_i exactly."""
    if w.tag != GAMMA_A:
        raise TagMismatchError(f"adjoint input must be tagged {GAMMA_A}, got {w.tag}")
    return BoundaryVector(GAMMA_I, op.apply_adjoint(w.values))


def whitened_singular_values(op: AffineForwardOperator) -> np.ndarray:
    """Singular values of M_a^(1/2) K M_i^(-1/2); decay quantifies ill-posedness."""
    return op.whitened_svd[1]


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


def tikhonov_solve(op: AffineForwardOperator, u_delta: BoundaryVector,
                   rho: float) -> TikhonovResult:
    """Minimizer of the Tikhonov objective via the normal equations."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    if u_delta.tag != GAMMA_A:
        raise TagMismatchError(f"data must be tagged {GAMMA_A}, got {u_delta.tag}")
    ud = u_delta.values
    rhs_vec = op.K.T @ (op.w_a * (ud - op.b))

    G = op.K.T @ (op.w_a[:, None] * op.K) + np.diag(0.5 * rho * op.w_i)
    try:
        cho = scipy.linalg.cho_factor(G)
        q = scipy.linalg.cho_solve(cho, rhs_vec)
    except scipy.linalg.LinAlgError as exc:
        raise SolverFailureError(f"normal equations not SPD: {exc}") from exc
    # one refinement step guards the 1e-10 contract near rho ~ 0
    q += scipy.linalg.cho_solve(cho, rhs_vec - G @ q)
    resid = float(np.linalg.norm(G @ q - rhs_vec))
    scale = float(np.linalg.norm(rhs_vec))
    if scale > 0.0 and not (resid / scale <= 1e-10):
        raise SolverFailureError(f"normal-equation residual {resid / scale:.3e} above 1e-10")

    q_rec = BoundaryVector(GAMMA_I, q)
    residual_norm = op.misfit_norm(op.apply_linear(q) + op.b, ud)
    solution_norm = float(np.sqrt((op.w_i * q * q).sum()))
    return TikhonovResult(q_rec, float(rho), residual_norm, solution_norm)


def closed_form_residual(op: AffineForwardOperator,
                         u_delta: BoundaryVector) -> Callable[[float], float]:
    """rho -> Tikhonov residual ||K q_rho + b - u_delta||_a, without a solve.

    With d = M_a^(1/2) (u_delta - b) projected once onto the whitened
    SVD, c = U^T d and perp^2 = ||d - U c||^2, the residual at
    lambda = rho/2 is  sqrt(sum_j (lambda / (s_j^2 + lambda))^2 c_j^2 + perp^2)
    (the complements of the Tikhonov filter factors s^2 / (s^2 + lambda)).
    """
    if u_delta.tag != GAMMA_A:
        raise TagMismatchError(f"data must be tagged {GAMMA_A}, got {u_delta.tag}")
    U, s = op.whitened_svd
    d = np.sqrt(op.w_a) * (u_delta.values - op.b)
    c = U.T @ d
    perp_sq = float(np.sum((d - U @ c) ** 2))
    s_sq = s * s

    def residual(rho: float) -> float:
        lam = 0.5 * rho
        return float(np.sqrt(np.sum((lam / (s_sq + lam) * c) ** 2) + perp_sq))

    return residual


def guard_margin(op: AffineForwardOperator, rho: float) -> float:
    """Relative half-width of the band around a threshold where the search defers to Cholesky.

    The Cholesky residual carries a relative error that grows like
    eps * cond of the normal matrix, (s_max^2 + rho/2) / (s_min^2 + rho/2).
    """
    s = op.whitened_svd[1]
    lam = 0.5 * rho
    cond = float((s[0] ** 2 + lam) / (s[-1] ** 2 + lam))
    return max(_GUARD_FLOOR, _GUARD_ULPS * np.finfo(float).eps * cond)


def choose_rho_discrepancy(op: AffineForwardOperator, u_delta: BoundaryVector,
                           delta: float, tau_d: float = 1.5) -> float:
    """Morozov choice by bisection on log rho.

    Converges on the largest rho whose residual stays at or below
    tau_d * delta, so the returned residual sits in [delta, tau_d*delta]
    near its upper edge (the classical "residual matches the noise
    level" rule).  Each residual is taken in closed form unless it lies
    within the guard band of delta or tau_d * delta, where the Cholesky
    residual of ``tikhonov_solve`` decides the side instead.  The band is
    wider than the rounding error of the Cholesky residual, so every
    comparison falls as it would on Cholesky residuals alone.  The
    residual is non-decreasing in rho, asserted on the Cholesky and the
    closed-form evaluations separately; failure to bracket raises
    BracketFailureError with a diagnosis of which side failed.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not tau_d > 1.0:
        raise ValueError(f"tau_d must be > 1, got {tau_d}")

    lo, hi = RHO_BRACKET
    thresholds = (delta, tau_d * delta)
    closed_form = closed_form_residual(op, u_delta)
    cholesky_evals: list[tuple[float, float]] = []
    closed_form_evals: list[tuple[float, float]] = []

    def residual(rho: float) -> float:
        r = closed_form(rho)
        margin = guard_margin(op, rho)
        # a residual that is not finite also takes the Cholesky path
        if math.isfinite(r) and all(abs(r - t) > margin * t for t in thresholds):
            closed_form_evals.append((rho, r))
            return r
        r = tikhonov_solve(op, u_delta, rho).residual_norm
        cholesky_evals.append((rho, r))
        return r

    def checked(rho: float) -> float:
        _assert_monotone(cholesky_evals)
        _assert_monotone(closed_form_evals)
        return rho

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
        return checked(hi)

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
            return checked(best_in_band)
    raise BracketFailureError("bisection exhausted its iteration budget")


def _assert_monotone(evaluations: list[tuple[float, float]]) -> None:
    evaluations = sorted(evaluations)
    for (r1, v1), (r2, v2) in zip(evaluations, evaluations[1:]):
        if v2 < v1 - 1e-10 * max(v1, 1.0):
            raise SolverFailureError(
                f"residual not monotone in rho: {v1:.6e}@{r1:.3e} vs {v2:.6e}@{r2:.3e}"
            )


def admissibility_check(q_rec: BoundaryVector, q_dag: BoundaryVector,
                        basis: SpectralBasis, m0: float) -> bool:
    """Closed-ball test ||q_rec - q_dag||_(1/2, GammaI) <= m0."""
    diff = BoundaryVector(GAMMA_I, q_rec.values - q_dag.values)
    return sobolev_norm(basis, 0.5, diff) <= m0
