"""Index functions and empirical checks of the variational source condition.

The target inequality, with the L2(GammaI) norm and the forward misfit
on GammaA, is

    (1/4) ||q - qd||^2  <=  (1/2) ||q||^2 - (1/2) ||qd||^2 + Psi(||A(qd) - A(q)||)

over the admissible ball ||q - qd||_(1/2) <= m0.  Psi is the infimum
over a spectral cutoff lambda > 0 of

    g(lambda) Psi0(t) + f(lambda)^2,
    f(lambda) = F lambda^(-s),   g(lambda) = lambda^(1/2 - s),   F = ||qd||_{H^s},

with Psi0 a logarithmic index function; in closed form Psi = k Psi0^p
(_psi_power).  The weight 1/(2 (1 - beta)) on f^2 is 1 at beta = 1/2, and
a factor on g would enter Psi only through its product with C, so neither
is a parameter.  The constants are non-constructive in the underlying
theory; for a linear problem Psi holds iff it covers the worst deficit,
which the exact-data Tikhonov solutions attain (Hohage & Weidling 2017).
fit_vsc_constants takes C in closed form on that curve; a holdout checks it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    FitFailureError,
    InadmissibleSampleError,
    ParameterDomainError,
)
from .fem import BoundaryVector, _column_sums, boundary_l2_norm
from .inversion import AffineForwardOperator, admissible_rows
from .spectral import SpectralBasis, analyze, sobolev_norm

logger = logging.getLogger(__name__)

T_FLOOR = 1e-300
CURVE_POINTS = 1000      # finite lambda values on worst_deficit_curve


@dataclass(frozen=True)
class IndexFunctionSpec:
    """Parameters of the logarithmic Psi0 and of the infimum construction Psi."""

    C: float
    C0: float
    kappa: float
    s: float = 0.5
    cprime: float = 1.0
    f_coeff: float = 1.0    # F = ||qd||_{H^s}, the coefficient of f(lambda)


def psi0_eval(spec: IndexFunctionSpec, t) -> np.ndarray:
    """Logarithmic index function with linear extension, at every entry of t.

    C / log(C0/t)^kappa on (0, cprime], extended linearly with matched
    slope beyond the junction; requires C0/cprime > e^(kappa+1) so the
    log branch is concave up to the junction.  The theory's bound M is
    normalized to 1 (only C*M, C0*M and cprime*M are identifiable).
    """
    t = np.asarray(t, dtype=float)
    outside = t[~(t > 0.0)]
    if outside.size:
        raise ParameterDomainError(
            f"index functions are defined on (0, inf), got t={outside.flat[0]}")
    if spec.C0 / spec.cprime <= math.exp(spec.kappa + 1.0):
        raise ParameterDomainError(
            f"need C0/cprime > e^(kappa+1) = {math.exp(spec.kappa + 1.0):.6g}, "
            f"got {spec.C0 / spec.cprime:.6g}"
        )
    junction = spec.cprime
    log_j = math.log(spec.C0 / junction)
    slope = spec.C * spec.kappa / (junction * log_j ** (spec.kappa + 1.0))
    log_branch = spec.C / np.log(spec.C0 / np.minimum(t, junction)) ** spec.kappa
    return np.where(t <= junction, log_branch,
                    spec.C / log_j ** spec.kappa + slope * (t - junction))


def _psi_power(spec: IndexFunctionSpec) -> tuple[float, float]:
    """(k, p) with Psi = k Psi0^p, the infimum over lambda > 0 in closed form.

    For s < 1/2 it sits where (1/2 - s) g Psi0 = 2s f^2; at s = 1/2, g = 1
    and f^2 -> 0, so Psi = Psi0 (the general k would divide by 1 - 2s = 0).
    """
    s = spec.s
    if s == 0.5:
        return 1.0, 1.0
    e = (1.0 - 2.0 * s) / (1.0 + 2.0 * s)
    k = (1.0 + 2.0 * s) / (4.0 * s) * (4.0 * s / (1.0 - 2.0 * s)) ** e * spec.f_coeff ** (2.0 * e)
    return k, 4.0 * s / (1.0 + 2.0 * s)


def psi_infimum(spec: IndexFunctionSpec, t) -> np.ndarray:
    """Psi(t) = inf over lambda > 0 of g(lambda) Psi0(t) + f(lambda)^2, at every entry of t."""
    k, p = _psi_power(spec)
    return k * psi0_eval(spec, t) ** p


@dataclass(eq=False)
class VscReport:
    """Both sides of the inequality and the margin RHS - LHS, one entry per sample."""

    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    scale: float

    @property
    def min_margin(self) -> float:
        return float(self.margin.min())

    @property
    def holds_empirically(self) -> bool:
        return self.min_margin >= -1e-9 * self.scale

    @property
    def fraction_nonnegative(self) -> float:
        return int(np.count_nonzero(self.margin >= 0.0)) / self.margin.size


def _sample_terms(op: AffineForwardOperator, basis: SpectralBasis, q_dag: BoundaryVector,
                  fluxes: np.ndarray, m0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lhs, norm-difference part of rhs, misfit) per flux column; each must be admissible."""
    fluxes = np.asarray(fluxes, dtype=float)
    if fluxes.ndim != 2 or fluxes.shape[0] != op.n_i:
        raise DimensionMismatchError(f"flux matrix shape {fluxes.shape} needs {op.n_i} rows")
    outside = np.flatnonzero(~admissible_rows(fluxes.T, q_dag, basis, m0))
    if outside.size:
        raise InadmissibleSampleError(f"sample {outside[0]} outside the admissible ball (m0={m0})")
    diff = fluxes - q_dag.values[:, None]
    w_i = op.w_i[:, None]
    half_dag = 0.5 * boundary_l2_norm(op.mesh, q_dag) ** 2
    lhs = 0.25 * np.sqrt(_column_sums(w_i * diff * diff)) ** 2
    rhs_norms = 0.5 * np.sqrt(_column_sums(w_i * fluxes * fluxes)) ** 2 - half_dag
    # K (q - qd) rather than K q - K qd: exactly 0 at q = qd, no cancellation near it
    k_diff = op.K @ diff
    misfit = np.sqrt(_column_sums(op.w_a[:, None] * k_diff * k_diff))
    return lhs, rhs_norms, misfit


def check_vsc_inequality(op: AffineForwardOperator, basis: SpectralBasis,
                         q_dag: BoundaryVector, spec: IndexFunctionSpec,
                         samples: np.ndarray, m0: float = 10.0) -> VscReport:
    """Per-sample margins RHS - LHS of the source-condition inequality.

    samples holds one flux per column.  Every sample must lie in the
    admissible ball; the misfit argument of Psi is floored at T_FLOOR
    so the degenerate sample q = qd evaluates.
    """
    lhs, rhs_norms, misfit = _sample_terms(op, basis, q_dag, samples, m0)
    rhs = rhs_norms + psi_infimum(spec, np.maximum(misfit, T_FLOOR))
    scale = np.max(np.abs(np.concatenate([lhs, rhs])),
                   initial=max(1.0, 0.5 * boundary_l2_norm(op.mesh, q_dag) ** 2))
    return VscReport(lhs, rhs, rhs - lhs, float(scale))


def _svd_coefficients(op: AffineForwardOperator,
                      q_dag: BoundaryVector) -> tuple[np.ndarray, np.ndarray]:
    """(s, a): the whitened singular values and a = V^T M_i^(1/2) qd."""
    _, s, Vt = op.whitened_svd
    return s, Vt @ (np.sqrt(op.w_i) * q_dag.values)


def worst_deficit_curve(op: AffineForwardOperator,
                        q_dag: BoundaryVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda, tau, D*), all ascending: D* is the sup of the deficit over ||K e||_a <= tau.

    The deficit D(e) = lhs - (norm part of rhs) = -(qd, e) - ||e||^2 / 4
    is concave in e = q - qd; its sup is at q = 2 q_lambda - qd, with
    q_lambda the Tikhonov solution for exact data.  With 1 - f_j =
    lambda / (s_j^2 + lambda), D* = sum a_j^2 (1 - f_j)(1 + f_j) and
    tau = 2 ||s (1 - f) a||, at CURVE_POINTS log-spaced lambda on
    [s_min^2 1e-6, s_max^2 1e6] and at lambda = inf (tau_max = 2 ||s a||, D* = ||qd||^2).
    """
    s, a = _svd_coefficients(op, q_dag)
    lam = np.append(np.geomspace(s.min() ** 2 * 1e-6, s.max() ** 2 * 1e6, CURVE_POINTS), np.inf)
    comp = 1.0 / (1.0 + s * s / lam[:, None])
    return (lam, 2.0 * np.sqrt(np.sum((s * comp * a) ** 2, axis=1)),
            np.sum(a * a * comp * (2.0 - comp), axis=1))


def fit_vsc_constants(op: AffineForwardOperator, basis: SpectralBasis,
                      q_dag: BoundaryVector, s: float, kappa: float) -> IndexFunctionSpec:
    """Fit the constants of Psi in closed form, so that Psi >= D* on worst_deficit_curve.

    cprime is the curve's end tau_max, past which D* stays ||qd||^2, and
    C0 sits on its floor 1.01 e^(kappa+1) cprime.  D* and Psi rise with
    tau, so Psi(tau_k) >= D*(tau_(k+1)) covers [tau_k, tau_(k+1)]; below
    tau_0, D* (concave, 0 at 0) lies under its tangent ||a / s|| tau and Psi
    (concave, 0 at 0+) over its chord, so Psi(tau_0) >= ||a / s|| tau_0
    covers (0, tau_0].  A bound D at tau needs C >= (D/k)^(1/p) / Psi0_1(tau),
    Psi0_1 the index function at C = 1; C is the largest such bound times
    (1 + 1e-9), one check of the margins guards it, and a bound that
    leaves float64 fails the fit.  So does a small s: the power 1/p
    multiplies the rounding of D/k, about n_i eps relative, and past 1e-6
    that rounding, not the curve, would set C.
    """
    _, tau, dstar = worst_deficit_curve(op, q_dag)
    if not dstar[-1] > 0.0:
        raise FitFailureError("qd = 0 has no positive deficit; nothing fixes C")
    sv, a = _svd_coefficients(op, q_dag)
    cprime = float(tau[-1])
    unit = IndexFunctionSpec(C=1.0, C0=cprime * math.exp(kappa + 1.0) * 1.01, kappa=kappa,
                             s=s, cprime=cprime, f_coeff=sobolev_norm(basis, s, q_dag))
    k, p = _psi_power(unit)
    at = np.append(tau[0], tau[:-1])
    bound = np.append(np.linalg.norm(a / sv) * tau[0], dstar[1:])
    with np.errstate(over="ignore"):    # an overflow is reported as not representable
        required = float(((bound / k) ** (1.0 / p) / psi0_eval(unit, at)).max())
    rounding = op.n_i * np.finfo(float).eps / p
    if not (0.0 < required < math.inf and rounding <= 1e-6):
        raise FitFailureError(f"at s={s:g} the C that covers the worst-deficit curve is not "
                              f"representable in float64 (it evaluates to {required:g}, "
                              f"with a rounding error of {rounding:.1e} relative)")

    fitted = replace(unit, C=required * (1.0 + 1e-9))
    margin = float((psi_infimum(fitted, at) - bound).min())
    if margin < 0.0:
        raise FitFailureError(f"fitted constants leave a negative margin {margin:.3e}")
    logger.info("fitted VSC constants C0=%.4g C=%.4g cprime=%.4g",
                fitted.C0, fitted.C, fitted.cprime)
    return fitted


def sample_admissible_fluxes(basis: SpectralBasis, q_dag: BoundaryVector, m0: float,
                             n_samples: int, seed: int) -> np.ndarray:
    """Random admissible perturbations of qd, diverse in spectral decay.

    Three interleaved families: rough random perturbations with random
    decay, shrinkages toward zero along qd, and mixtures.  All are scaled
    into the H^(1/2) ball of radius m0 around qd; deterministic per seed.
    Returns the (n_i x n_samples) flux matrix, one sample per column.
    """
    rng = np.random.default_rng(seed)
    lam = basis.eigenvalues
    c_dag = analyze(basis, q_dag)
    # the largest t with (1 - t) qd within 0.99 m0 of qd in H^(1/2), capped at t = 1 (q = 0)
    t_max = min(1.0, 0.99 * m0 / max(sobolev_norm(basis, 0.5, q_dag), 1e-30))
    coeffs = np.empty((basis.n_modes, n_samples))
    for i in range(n_samples):  # draws in sample order: the same samples for each seed
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
        coeffs[:, i] = c_dag + d
    return basis.eigenvectors @ coeffs
