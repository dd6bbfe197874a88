"""Index functions and empirical checks of the variational source condition.

The target inequality, with the L2(GammaI) norm and the forward misfit
on GammaA, is

    (1/4) ||q - qd||^2  <=  (1/2) ||q||^2 - (1/2) ||qd||^2 + Psi(||A(qd) - A(q)||)

over the admissible ball ||q - qd||_(1/2) <= m0.  Psi is built as the
infimum over a spectral cutoff lambda of

    g(lambda) Psi0(t) + f(lambda)^2,
    f(lambda) = ||qd||_{H^s} * lambda^(-s),   g(lambda) = lambda^(1/2 - s),

with Psi0 a logarithmic index function.  The weight 1/(2 (1 - beta)) on
f^2 is 1 at beta = 1/2, and a factor on g would enter Psi only through
its product with C, so neither is a parameter.  The constants are
non-constructive in the underlying theory: fit_vsc_constants determines
C in closed form, and a holdout validates it.
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
    cprime: float = 1.0
    f_coeff: float = 1.0    # ||qd||_{H^s}, the coefficient of f(lambda)

    def f(self, lam) -> np.ndarray | float:
        return self.f_coeff * np.asarray(lam, dtype=float) ** (-self.s)

    def g(self, lam) -> np.ndarray | float:
        return np.asarray(lam, dtype=float) ** (0.5 - self.s)


@dataclass
class PsiValue:
    value: float
    lambda_star: float


def psi0_eval(spec: IndexFunctionSpec, t: float) -> float:
    """Logarithmic index function with linear extension.

    C / log(C0/t)^kappa on (0, cprime], extended linearly with matched
    slope beyond the junction; requires C0/cprime > e^(kappa+1) so the
    log branch is concave up to the junction.  The theory's bound M is
    normalized to 1 (only C*M, C0*M and cprime*M are identifiable).
    """
    if t <= 0.0:
        raise ParameterDomainError(f"index functions are defined on (0, inf), got t={t}")
    if spec.C0 / spec.cprime <= math.exp(spec.kappa + 1.0):
        raise ParameterDomainError(
            f"need C0/cprime > e^(kappa+1) = {math.exp(spec.kappa + 1.0):.6g}, "
            f"got {spec.C0 / spec.cprime:.6g}"
        )
    junction = spec.cprime

    def log_branch(x: float) -> float:
        return spec.C / math.log(spec.C0 / x) ** spec.kappa

    if t <= junction:
        return log_branch(t)
    log_j = math.log(spec.C0 / spec.cprime)
    slope = spec.C * spec.kappa / (junction * log_j ** (spec.kappa + 1.0))
    return log_branch(junction) + slope * (t - junction)


def psi_infimum(spec: IndexFunctionSpec, t: float, lambda_grid: np.ndarray) -> PsiValue:
    """Psi(t) = min over the grid of g(lambda) Psi0(t) + f(lambda)^2."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0:
        raise EmptyGridError("lambda grid is empty")
    psi0 = psi0_eval(spec, t)
    vals = spec.g(lambda_grid) * psi0 + spec.f(lambda_grid) ** 2
    k = int(np.argmin(vals))
    return PsiValue(float(vals[k]), float(lambda_grid[k]))


def default_lambda_grid(basis: SpectralBasis) -> np.ndarray:
    """Log grid of 400 points from lambda_1 to lambda_max * 1e3 (infimum search)."""
    return np.geomspace(1.0, float(basis.eigenvalues[-1]) * 1e3, 400)


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


def _sample_terms(op: AffineForwardOperator, basis: SpectralBasis, q_dag: BoundaryVector,
                  samples: list[BoundaryVector], m0: float) -> list[tuple[float, float, float]]:
    """(lhs, norm-difference part of rhs, misfit) per sample; each must be admissible."""
    mesh = op.mesh
    half_dag = 0.5 * boundary_l2_norm(mesh, q_dag) ** 2
    k_dag = op.apply_linear(q_dag.values)
    terms = []
    for i, q in enumerate(samples):
        if not admissibility_check(q, q_dag, basis, m0):
            raise InadmissibleSampleError(f"sample {i} outside the admissible ball (m0={m0})")
        diff = BoundaryVector(GAMMA_I, q.values - q_dag.values)
        terms.append((0.25 * boundary_l2_norm(mesh, diff) ** 2,
                      0.5 * boundary_l2_norm(mesh, q) ** 2 - half_dag,
                      op.misfit_norm(op.apply_linear(q.values), k_dag)))
    return terms


def check_vsc_inequality(op: AffineForwardOperator, basis: SpectralBasis,
                         q_dag: BoundaryVector, spec: IndexFunctionSpec,
                         samples: list[BoundaryVector], m0: float = 10.0) -> VscReport:
    """Per-sample margins RHS - LHS of the source-condition inequality.

    Every sample must lie in the admissible ball; the misfit argument of
    Psi is floored at T_FLOOR so the degenerate sample q = qd evaluates.
    """
    lambda_grid = default_lambda_grid(basis)
    rows = []
    scale = max(1.0, 0.5 * boundary_l2_norm(op.mesh, q_dag) ** 2)
    for i, (lhs, rhs_norms, misfit) in enumerate(_sample_terms(op, basis, q_dag, samples, m0)):
        psi = psi_infimum(spec, max(misfit, T_FLOOR), lambda_grid).value
        rhs = rhs_norms + psi
        rows.append(VscSampleRow(i, lhs, rhs, rhs - lhs))
        scale = max(scale, abs(lhs), abs(rhs))
    return VscReport(rows, scale)


def _shrink_t_max(basis: SpectralBasis, q_dag: BoundaryVector, m0: float) -> float:
    """Largest t with (1 - t) qd within 0.99 m0 of qd in H^(1/2), capped at t = 1 (q = 0)."""
    return min(1.0, 0.99 * m0 / max(sobolev_norm(basis, 0.5, q_dag), 1e-30))


def fit_vsc_constants(op: AffineForwardOperator, basis: SpectralBasis,
                      q_dag: BoundaryVector, calibration: list[BoundaryVector],
                      s: float, kappa: float, m0: float = 10.0) -> IndexFunctionSpec:
    """Fit the constants of Psi in closed form, validated on the fitted samples.

    The theory guarantees existence but not values.  Every fitted sample
    must be admissible.  cprime is the largest fitted misfit and C0 sits
    on its floor 1.01 e^(kappa+1) cprime.  A sample with deficit
    D = lhs - (norm part of rhs) > 0 then holds iff
    C >= max over lambda of (D - f(lambda)^2) / (g(lambda) Psi0_1(t)),
    with Psi0_1 the index function at C = 1; C is the largest of these
    bounds times (1 + 1e-9), and one check of the margins guards it.

    The fitted terms are the calibration samples plus one anchor, the
    far end (1 - t_max) qd of the shrinkage ray that
    sample_admissible_fluxes draws from.  Along that ray
    D = ||qd||^2 (t - t^2/4) and the bound grows with t while
    t ||K qd|| <= cprime (the anchor enforces this) and
    kappa / log(C0 / (t ||K qd||)) <= (1 - t/2) / (1 - t/4), true for
    every kappa <= 2, so on the whole domain (0, 1) of kappa the anchor
    covers the ray.
    """
    if not calibration:
        raise FitFailureError("empty calibration ensemble")
    terms = _sample_terms(op, basis, q_dag, calibration, m0)
    if max(misfit for *_, misfit in terms) <= T_FLOOR:
        raise FitFailureError("all calibration misfits are zero; forward operator degenerate")

    anchor = BoundaryVector(GAMMA_I, (1.0 - _shrink_t_max(basis, q_dag, m0)) * q_dag.values)
    terms += _sample_terms(op, basis, q_dag, [anchor], m0)
    cprime = max(misfit for *_, misfit in terms)
    unit = IndexFunctionSpec(C=1.0, C0=cprime * math.exp(kappa + 1.0) * 1.01, kappa=kappa,
                             s=s, cprime=cprime, f_coeff=sobolev_norm(basis, s, q_dag))
    lam = default_lambda_grid(basis)
    f2_term = unit.f(lam) ** 2
    g_unit = unit.g(lam)
    required = 0.0
    for lhs, rhs_norms, misfit in terms:
        deficit = lhs - rhs_norms
        if deficit > 0.0:
            need = (deficit - f2_term) / (g_unit * psi0_eval(unit, max(misfit, T_FLOOR)))
            required = max(required, float(need.max()))
    if not required > 0.0:
        raise FitFailureError("no fitted sample has a positive deficit; nothing fixes C")

    fitted = replace(unit, C=required * (1.0 + 1e-9))
    margin = min(rhs_norms + psi_infimum(fitted, max(misfit, T_FLOOR), lam).value - lhs
                 for lhs, rhs_norms, misfit in terms)
    if margin < 0.0:
        raise FitFailureError(f"fitted constants leave a negative margin {margin:.3e}")
    logger.info("fitted VSC constants C0=%.4g C=%.4g cprime=%.4g",
                fitted.C0, fitted.C, fitted.cprime)
    return fitted


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
    t_max = _shrink_t_max(basis, q_dag, m0)
    out = []
    for i in range(n_samples):
        family = i % 3
        if family == 0:
            d = rng.standard_normal(basis.n_modes) * lam ** (-rng.uniform(0.0, 1.5))
        elif family == 1:
            t = rng.uniform(0.0, t_max)
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
