"""Index functions and empirical checks of the variational source condition.

The target inequality, with the L2(GammaI) norm and the forward misfit
on GammaA, is

    (1/4) ||q - qd||^2  <=  (1/2) ||q||^2 - (1/2) ||qd||^2 + Psi(||A(qd) - A(q)||)

over the admissible ball ||q - qd||_(1/2) <= m0.  Psi is built as the
infimum over a spectral cutoff lambda of

    g(lambda) Psi0(t) + coef * f(lambda)^2,
    f(lambda) = ||qd||_{H^s} * lambda^(-s),   g(lambda) = g0 * lambda^(1/2 - s),
    coef = 1 / (2 (1 - beta)),

with Psi0 a logarithmic index function.  The multiplicative constants
are non-constructive in the underlying theory; here they are fitted on
a calibration ensemble and validated on a holdout.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyGridError,
    FitFailureError,
    InadmissibleSampleError,
    ParameterDomainError,
)
from .fem import BoundaryVector, boundary_l2_norm
from .geometry import GAMMA_I
from .inversion import AffineForwardOperator, admissibility_check
from .spectral import SpectralBasis, analyze, sobolev_norm, synthesize, FluxCoefficients

logger = logging.getLogger(__name__)

T_FLOOR = 1e-300


@dataclass(frozen=True)
class IndexFunctionSpec:
    """Parameters of the logarithmic Psi0 and of the infimum construction Psi."""

    C: float
    C0: float
    kappa: float
    s: float = 0.5
    M: float = 1.0
    cprime: float = 1.0
    g0: float = 1.0
    f_coeff: float = 1.0    # ||qd||_{H^s}, the coefficient of f(lambda)
    beta: float = 0.5

    def f(self, lam) -> np.ndarray | float:
        return self.f_coeff * np.asarray(lam, dtype=float) ** (-self.s)

    def g(self, lam) -> np.ndarray | float:
        return self.g0 * np.asarray(lam, dtype=float) ** (0.5 - self.s)

    @property
    def infimum_coef(self) -> float:
        return 1.0 / (2.0 * (1.0 - self.beta))


@dataclass
class PsiValue:
    value: float
    lambda_star: float


def psi0_eval(spec: IndexFunctionSpec, t: float) -> float:
    """Logarithmic index function with linear extension.

    C*M / log(C0*M/t)^kappa on (0, cprime*M], extended linearly with
    matched slope beyond the junction; requires C0/cprime > e^(kappa+1)
    so the log branch is concave up to the junction.
    """
    if t <= 0.0:
        raise ParameterDomainError(f"index functions are defined on (0, inf), got t={t}")
    if spec.C0 / spec.cprime <= math.exp(spec.kappa + 1.0):
        raise ParameterDomainError(
            f"need C0/cprime > e^(kappa+1) = {math.exp(spec.kappa + 1.0):.6g}, "
            f"got {spec.C0 / spec.cprime:.6g}"
        )
    junction = spec.cprime * spec.M
    cm = spec.C * spec.M

    def log_branch(x: float) -> float:
        return cm / math.log(spec.C0 * spec.M / x) ** spec.kappa

    if t <= junction:
        return log_branch(t)
    log_j = math.log(spec.C0 / spec.cprime)
    slope = cm * spec.kappa / (junction * log_j ** (spec.kappa + 1.0))
    return log_branch(junction) + slope * (t - junction)


def psi_infimum(spec: IndexFunctionSpec, t: float, lambda_grid: np.ndarray) -> PsiValue:
    """Psi(t) = min over the grid of g(lambda) Psi0(t) + coef f(lambda)^2."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0:
        raise EmptyGridError("lambda grid is empty")
    psi0 = psi0_eval(spec, t)
    vals = spec.g(lambda_grid) * psi0 + spec.infimum_coef * spec.f(lambda_grid) ** 2
    k = int(np.argmin(vals))
    return PsiValue(float(vals[k]), float(lambda_grid[k]))


def default_lambda_grid(basis: SpectralBasis, extension: float = 1e3,
                        n_points: int = 400) -> np.ndarray:
    """Log grid from lambda_1 to lambda_max * extension (infimum search)."""
    lam_max = float(basis.eigenvalues[-1])
    return np.geomspace(1.0, lam_max * extension, n_points)


@dataclass
class ProjectorConditionRow:
    lam: float
    lhs: float
    rhs: float
    slack: float


@dataclass
class ProjectorConditionReport:
    rows: list[ProjectorConditionRow]

    @property
    def min_slack(self) -> float:
        return min(r.slack for r in self.rows)

    @property
    def ok(self) -> bool:
        return self.min_slack >= -1e-12


def check_projector_conditions(basis: SpectralBasis, q_dag: BoundaryVector, s: float,
                               lambda_grid: np.ndarray) -> ProjectorConditionReport:
    """Verify ||(I - P_lambda) qd|| <= lambda^-s ||qd||_{H^s} on the grid.

    This is an exact discrete identity chain, so slacks are checked at
    round-off tolerance (-1e-12).
    """
    c = analyze(basis, q_dag).values
    lam_n = basis.eigenvalues
    norm_s = float(np.sqrt((lam_n ** (2.0 * s) * c ** 2).sum()))
    rows = []
    for lam in np.asarray(lambda_grid, dtype=float):
        tail = c[lam_n > lam]
        lhs = float(np.sqrt((tail * tail).sum()))
        rhs = lam ** (-s) * norm_s
        rows.append(ProjectorConditionRow(float(lam), lhs, rhs, rhs - lhs))
    return ProjectorConditionReport(rows)


@dataclass
class VscSampleRow:
    sample_id: int
    lhs: float
    rhs: float
    margin: float
    admissible: bool


@dataclass
class VscReport:
    rows: list[VscSampleRow]
    scale: float

    @property
    def min_margin(self) -> float:
        return min(r.margin for r in self.rows)

    @property
    def holds_empirically(self) -> bool:
        return self.min_margin >= -1e-9 * self.scale

    @property
    def fraction_nonnegative(self) -> float:
        return sum(1 for r in self.rows if r.margin >= 0.0) / len(self.rows)


def _sample_terms(op: AffineForwardOperator, q_dag: BoundaryVector,
                  q: BoundaryVector) -> tuple[float, float, float]:
    """(lhs, norm-difference part of rhs, misfit) for one sample."""
    mesh = op.mesh
    diff = BoundaryVector(GAMMA_I, q.values - q_dag.values)
    lhs = 0.25 * boundary_l2_norm(mesh, diff) ** 2
    rhs_norms = 0.5 * boundary_l2_norm(mesh, q) ** 2 - 0.5 * boundary_l2_norm(mesh, q_dag) ** 2
    misfit = op.misfit_norm(op.apply_linear(q.values), op.apply_linear(q_dag.values))
    return lhs, rhs_norms, misfit


def check_vsc_inequality(op: AffineForwardOperator, basis: SpectralBasis,
                         q_dag: BoundaryVector, spec: IndexFunctionSpec,
                         samples: list[BoundaryVector], m0: float = 10.0,
                         lambda_grid: np.ndarray | None = None) -> VscReport:
    """Per-sample margins RHS - LHS of the source-condition inequality.

    Every sample must lie in the admissible ball; the misfit argument of
    Psi is floored at T_FLOOR so the degenerate sample q = qd evaluates.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(basis)
    rows = []
    scale = max(1.0, 0.5 * boundary_l2_norm(op.mesh, q_dag) ** 2)
    for i, q in enumerate(samples):
        if not admissibility_check(q, q_dag, basis, m0):
            raise InadmissibleSampleError(f"sample {i} outside the admissible ball (m0={m0})")
        lhs, rhs_norms, misfit = _sample_terms(op, q_dag, q)
        psi = psi_infimum(spec, max(misfit, T_FLOOR), lambda_grid).value
        rhs = rhs_norms + psi
        rows.append(VscSampleRow(i, lhs, rhs, rhs - lhs, True))
        scale = max(scale, abs(lhs), abs(rhs))
    return VscReport(rows, scale)


def fit_vsc_constants(op: AffineForwardOperator, basis: SpectralBasis,
                      q_dag: BoundaryVector, calibration: list[BoundaryVector],
                      s: float, kappa: float, m0: float = 10.0,
                      lambda_grid: np.ndarray | None = None) -> IndexFunctionSpec:
    """Fit (C0, C, g0) making all calibration margins non-negative.

    The theory guarantees existence but not values, so the smallest
    grid values are chosen lexicographically (C0, then C, then g0).
    M is normalized to 1: only the products C*M, C0*M and cprime*M are
    identifiable, and the fitted constants absorb M.  Validity for a
    fixed C0 reduces to C*g0 >= R(C0) in closed form, which the grid
    scan exploits.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(basis)
    if not calibration:
        raise FitFailureError("empty calibration ensemble")

    terms = []
    for i, q in enumerate(calibration):
        if not admissibility_check(q, q_dag, basis, m0):
            raise InadmissibleSampleError(f"calibration sample {i} outside the admissible ball")
        lhs, rhs_norms, misfit = _sample_terms(op, q_dag, q)
        terms.append((lhs - rhs_norms, max(misfit, T_FLOOR)))

    max_misfit = max(t for _, t in terms)
    if max_misfit <= T_FLOOR:
        raise FitFailureError("all calibration misfits are zero; forward operator degenerate")
    cprime = max_misfit

    f_coeff = sobolev_norm(basis, s, q_dag)
    base = IndexFunctionSpec(C=1.0, C0=1.0, kappa=kappa, s=s,
                             M=1.0, cprime=cprime, g0=1.0, f_coeff=f_coeff)
    lam = np.asarray(lambda_grid, dtype=float)
    f2_term = base.infimum_coef * base.f(lam) ** 2       # independent of C, C0, g0
    g_unit = lam ** (0.5 - s)

    c0_grid = cprime * math.exp(kappa + 1.0) * np.geomspace(1.01, 1e6, 40)
    c_grid = np.geomspace(1e-8, 1e12, 401)
    g0_grid = np.geomspace(1e-4, 1e4, 81)

    for c0 in c0_grid:
        unit = replace(base, C0=float(c0))
        # required product C*g0 so min over lambda of
        #   g0*C*g_unit*psi0_unit(t) + f2_term  covers every deficit
        required = 0.0
        feasible = True
        for deficit, t in terms:
            if deficit <= 0.0:
                continue
            psi0_unit = psi0_eval(replace(unit, C=1.0), t)
            need = (deficit - f2_term) / (g_unit * psi0_unit)
            req = float(need.max())
            if req > required:
                required = req
            if required > c_grid[-1] * g0_grid[-1]:
                feasible = False
                break
        if not feasible:
            continue
        c_idx = int(np.searchsorted(c_grid * g0_grid[-1], required, side="left"))
        if c_idx >= len(c_grid):
            continue
        c_fit = float(c_grid[c_idx])
        g_idx = int(np.searchsorted(c_fit * g0_grid, required, side="left"))
        g_idx = min(g_idx, len(g0_grid) - 1)
        if c_fit * g0_grid[g_idx] < required:
            continue
        fitted = replace(unit, C=c_fit, g0=float(g0_grid[g_idx]))
        report = check_vsc_inequality(op, basis, q_dag, fitted, calibration,
                                      m0=m0, lambda_grid=lambda_grid)
        if report.min_margin >= 0.0:
            logger.info("fitted VSC constants C0=%.4g C=%.4g g0=%.4g cprime=%.4g",
                        fitted.C0, fitted.C, fitted.g0, fitted.cprime)
            return fitted
        # round-off at the feasibility edge: one step up in g0 and retry
        if g_idx + 1 < len(g0_grid):
            fitted = replace(fitted, g0=float(g0_grid[g_idx + 1]))
            report = check_vsc_inequality(op, basis, q_dag, fitted, calibration,
                                          m0=m0, lambda_grid=lambda_grid)
            if report.min_margin >= 0.0:
                return fitted
    raise FitFailureError("no grid point validates the calibration ensemble")


def sample_admissible_fluxes(basis: SpectralBasis, q_dag: BoundaryVector, m0: float,
                             n_samples: int, seed: int) -> list[BoundaryVector]:
    """Random admissible perturbations of qd, diverse in spectral decay.

    Three interleaved families: rough random perturbations with random
    decay, shrinkages toward zero along qd (which stress the inequality
    hardest), and mixtures.  All are scaled into the H^(1/2) ball of
    radius m0 around qd; deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    lam = basis.eigenvalues
    c_dag = analyze(basis, q_dag).values
    dag_half = float(np.sqrt((lam * c_dag ** 2).sum()))
    out = []
    for i in range(n_samples):
        family = i % 3
        if family == 0:
            d = rng.standard_normal(basis.n_modes) * lam ** (-rng.uniform(0.0, 1.5))
        elif family == 1:
            t = rng.uniform(0.0, min(1.0, 0.99 * m0 / max(dag_half, 1e-30)))
            d = -t * c_dag
        else:
            rough = rng.standard_normal(basis.n_modes) * lam ** (-rng.uniform(0.5, 2.0))
            t = rng.uniform(-0.5, 0.5)
            d = t * c_dag + 0.2 * rough
        half = float(np.sqrt((lam * d ** 2).sum()))
        if half > 0.0:
            target = rng.uniform(0.05, 0.999) * m0 if family != 1 else min(half, 0.999 * m0)
            d = d * (target / half) if half > target else d
        q = synthesize(basis, FluxCoefficients(c_dag + d))
        out.append(q)
    return out
