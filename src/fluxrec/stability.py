"""Empirical probe of the logarithmic conditional-stability modulus.

Solutions u of the homogeneous problem (zero source, zero ambient data,
flux q on GammaI) are sampled over mixed boundary frequencies and the
smallest constants (C, C0) with

    ||u||_{1,Omega} <= C * M / log(C0 * M / ||u||_{GammaA})^kappa

over the ensemble are fitted in closed form.  The inaccessible H2 bound
M is replaced by the degree-1 homogeneous surrogate
m_proxy = ||q||_{1/2,GammaI} + ||u||_{1,Omega}, which P1 elements can
evaluate; ensembles are normalized to m_proxy = 1 so the fit sees only
shape, not scale.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnsembleError
from .fem import (
    BoundaryVector,
    FactorizedSystem,
    _norm_matrices,
    boundary_l2_norm,
    flux_load_matrix,
    norms,
    trace,
)
from .geometry import GAMMA_A, boundary_map
from .inversion import _K_BLOCK
from .spectral import SpectralBasis, sobolev_norm

logger = logging.getLogger(__name__)

TRACE_FLOOR = 1e-14


@dataclass(eq=False)
class StabilitySample:
    """The norms of one homogeneous solve entering the modulus fit."""

    h1_norm: float
    trace_norm: float
    m_proxy: float

    def __post_init__(self):
        if min(self.h1_norm, self.trace_norm, self.m_proxy) < 0.0:
            raise ValueError("stability sample norms must be non-negative")


def sample_homogeneous_solution(system: FactorizedSystem, basis: SpectralBasis,
                                q: BoundaryVector) -> StabilitySample:
    """Solve the homogeneous problem for q and collect the norms.

    The shared system must carry f = 0 and u_a = 0; the factorization
    is reused across samples.
    """
    if np.any(system.data.f != 0.0) or np.any(system.data.u_a != 0.0):
        raise ValueError("stability probe requires f = 0 and u_a = 0")
    u = system.solve_flux(q)
    _, h1 = norms(u)
    tr = boundary_l2_norm(system.mesh, trace(u, GAMMA_A))
    m_proxy = sobolev_norm(basis, 0.5, q) + h1
    return StabilitySample(h1, tr, m_proxy)


def generate_probe_ensemble(system: FactorizedSystem, basis: SpectralBasis,
                            n_samples: int, seed: int) -> list[StabilitySample]:
    """Mixed-frequency ensemble normalized to m_proxy = 1.

    Alternates pure eigenmodes (index growing with the sample counter,
    which spreads trace norms over many decades) with random decaying
    mixtures.  Deterministic per seed; linearity makes the
    normalization exact.  The fluxes are the columns of one matrix,
    solved _K_BLOCK at a time; sample_homogeneous_solution computes the
    same norms one flux at a time.
    """
    if np.any(system.data.f != 0.0) or np.any(system.data.u_a != 0.0):
        raise ValueError("stability probe requires f = 0 and u_a = 0")
    rng = np.random.default_rng(seed)
    n_modes = basis.n_modes
    max_pure = min(n_modes - 1, 48)
    coeffs = np.zeros((n_modes, n_samples))
    even = np.arange(0, n_samples, 2)
    coeffs[1 + (even // 2) % max_pure, even] = 1.0
    for i in range(1, n_samples, 2):  # draws in sample order: the same fluxes for each seed
        p = rng.uniform(0.5, 2.0)
        coeffs[:, i] = rng.standard_normal(n_modes) * basis.eigenvalues ** (-p)
    fluxes = basis.eigenvectors @ coeffs
    analyzed = basis.eigenvectors.T @ (basis.mass_diag[:, None] * fluxes)
    half_norm = np.sqrt(_column_sums(basis.eigenvalues[:, None] * analyzed ** 2))

    mesh = system.mesh
    mass, stiffness = _norm_matrices(mesh)
    h1_matrix = mass + stiffness
    flux_load = flux_load_matrix(mesh)
    bmap_a = boundary_map(mesh, GAMMA_A)
    h1 = np.empty(n_samples)
    tr = np.empty(n_samples)
    for start in range(0, n_samples, _K_BLOCK):
        cols = slice(start, start + _K_BLOCK)
        u = system.solve_block(0.0 - flux_load @ fluxes[:, cols])
        h1[cols] = np.sqrt(np.maximum(_column_sums(u * (h1_matrix @ u)), 0.0))
        u_a = u[bmap_a.vertex_indices]
        tr[cols] = np.sqrt(_column_sums(bmap_a.weights[:, None] * u_a * u_a))
    m_proxy = half_norm + h1
    keep = m_proxy != 0.0
    scale = 1.0 / m_proxy[keep]
    return [StabilitySample(h, t, 1.0)
            for h, t in zip((h1[keep] * scale).tolist(), (tr[keep] * scale).tolist())]


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Pairwise sum of each column; a sum over a strided axis 0 adds row by row."""
    return np.ascontiguousarray(x.T).sum(axis=1)


def stability_bound(samples: list[StabilitySample], c: float, c0: float,
                    kappa: float) -> np.ndarray:
    """Per-sample bound C * M / log(C0 * M / trace)^kappa.

    NaN where the trace is zero or the log argument is <= 1: the bound
    does not apply there.
    """
    tr = np.array([s.trace_norm for s in samples])
    m = np.array([s.m_proxy for s in samples])
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = c0 * m / tr
        bound = c * m / np.log(arg) ** kappa
    return np.where((tr > 0.0) & (arg > 1.0), bound, np.nan)


def fit_stability_modulus(samples: list[StabilitySample], kappa: float,
                          min_samples: int = 50) -> tuple[float, float, float]:
    """Fit (C, C0) in closed form over the ensemble; returns max violation.

    C0 sits on its floor e^(kappa+1) * max(trace/M), so every log
    argument is at least e^(kappa+1) (the same largeness margin the
    logarithmic index function needs).  Above that floor every term of
    the requirement max h1 * log(C0 * M / trace)^kappa / M grows with
    C0, so the floor minimizes it; C is that requirement times
    (1 + 1e-9), the smallest constant covering every sample up to
    round-off.
    """
    usable = [s for s in samples if s.trace_norm > TRACE_FLOOR]
    if not usable:
        raise DegenerateEnsembleError("all trace norms are zero")
    if len(usable) < min_samples:
        raise DegenerateEnsembleError(
            f"need >= {min_samples} samples with positive trace, got {len(usable)}"
        )
    h1 = np.array([s.h1_norm for s in usable])
    tr = np.array([s.trace_norm for s in usable])
    m = np.array([s.m_proxy for s in usable])
    c0 = math.exp(kappa + 1.0) * float((tr / m).max())
    req = float((h1 * np.log(c0 * m / tr) ** kappa / m).max())
    if not 0.0 < req < math.inf:
        raise DegenerateEnsembleError(f"required C {req:.3e} is not positive and finite")
    c_fit = req * (1.0 + 1e-9)
    max_violation = float((h1 - stability_bound(usable, c_fit, c0, kappa)).max())
    logger.info("stability fit: C=%.4g C0=%.4g max_violation=%.3e",
                c_fit, c0, max_violation)
    return c_fit, c0, max_violation


def evaluate_stability_bound(samples: list[StabilitySample], c: float, c0: float,
                             kappa: float) -> tuple[int, float]:
    """(violation count, worst excess) of the bound on an ensemble.

    Samples whose log argument falls to or below 1 count as violations:
    the bound does not apply there, which is a failure of the fitted
    domain guard rather than of the sample.
    """
    violations = 0
    worst = -np.inf
    for s in samples:
        if s.trace_norm <= TRACE_FLOOR:
            continue
        arg = c0 * s.m_proxy / s.trace_norm
        if arg <= 1.0:
            violations += 1
            worst = max(worst, np.inf)
            continue
        bound = c * s.m_proxy / math.log(arg) ** kappa
        excess = s.h1_norm - bound
        worst = max(worst, excess)
        if excess > 0.0:
            violations += 1
    return violations, float(worst)


@dataclass
class NearUniquenessReport:
    """Sorted (trace, h1) pairs with a decade-binned upper envelope."""

    trace_norms: np.ndarray
    h1_norms: np.ndarray
    envelope_traces: np.ndarray
    envelope_h1: np.ndarray
    n_excluded: int

    @property
    def envelope_nondecreasing(self) -> bool:
        return bool((np.diff(self.envelope_h1) >= -1e-12).all())


def near_uniqueness_check(samples: list[StabilitySample]) -> NearUniquenessReport:
    """Sort samples by trace norm and bin the h1 upper envelope per decade.

    Zero-trace samples are excluded (they cannot appear on log axes).
    Small Cauchy data forcing small interior norm shows up as a
    non-decreasing envelope.
    """
    usable = sorted((s for s in samples if s.trace_norm > TRACE_FLOOR),
                    key=lambda s: s.trace_norm)
    n_excluded = len(samples) - len(usable)
    if not usable:
        raise DegenerateEnsembleError("no samples with positive trace norm")
    tr = np.array([s.trace_norm for s in usable])
    h1 = np.array([s.h1_norm for s in usable])

    decades = np.floor(np.log10(tr)).astype(int)
    env_t, env_h = [], []
    for d in np.unique(decades):
        sel = decades == d
        env_t.append(10.0 ** d)
        env_h.append(float(h1[sel].max()))
    return NearUniquenessReport(tr, h1, np.array(env_t), np.array(env_h), n_excluded)
