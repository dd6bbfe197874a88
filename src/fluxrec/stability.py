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
from .fem import FactorizedSystem, _column_sums, _norm_matrices
from .geometry import GAMMA_A, boundary_map
from .spectral import SpectralBasis

logger = logging.getLogger(__name__)

TRACE_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class StabilityEnsemble:
    """The norms of the homogeneous solves entering the modulus fit, one entry per sample."""

    h1_norm: np.ndarray
    trace_norm: np.ndarray
    m_proxy: np.ndarray

    def __post_init__(self):
        norms = (self.h1_norm, self.trace_norm, self.m_proxy)
        if any(np.ndim(a) != 1 or len(a) != len(self.h1_norm) for a in norms):
            raise ValueError("stability ensemble norms must be 1-D arrays of one length")
        if not all((a >= 0.0).all() for a in norms):
            raise ValueError("stability sample norms must be non-negative")

    def __len__(self) -> int:
        return len(self.h1_norm)


def generate_probe_ensemble(system: FactorizedSystem, basis: SpectralBasis,
                            n_samples: int, seed: int) -> StabilityEnsemble:
    """Mixed-frequency ensemble normalized to m_proxy = 1.

    Alternates pure eigenmodes (index growing with the sample counter,
    which spreads trace norms over many decades) with random decaying
    mixtures.  Deterministic per seed; linearity makes the
    normalization exact.  The fluxes are the columns of one matrix,
    solved in blocks by FactorizedSystem.flux_fields.
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
    bmap_a = boundary_map(mesh, GAMMA_A)
    h1 = np.empty(n_samples)
    tr = np.empty(n_samples)
    for cols, u in system.flux_fields(fluxes):
        h1[cols] = np.sqrt(np.maximum(_column_sums(u * (h1_matrix @ u)), 0.0))
        u_a = u[bmap_a.vertex_indices]
        tr[cols] = np.sqrt(_column_sums(bmap_a.weights[:, None] * u_a * u_a))
    m_proxy = half_norm + h1
    keep = m_proxy != 0.0
    scale = 1.0 / m_proxy[keep]
    return StabilityEnsemble(h1[keep] * scale, tr[keep] * scale, np.ones(len(scale)))


def stability_bound(samples: StabilityEnsemble, c: float, c0: float,
                    kappa: float) -> np.ndarray:
    """Per-sample bound C * M / log(C0 * M / trace)^kappa.

    NaN where the trace is zero or the log argument is <= 1: the bound
    does not apply there.
    """
    tr, m = samples.trace_norm, samples.m_proxy
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = c0 * m / tr
        bound = c * m / np.log(arg) ** kappa
    return np.where((tr > 0.0) & (arg > 1.0), bound, np.nan)


def fit_stability_modulus(samples: StabilityEnsemble, kappa: float) -> tuple[float, float, float]:
    """Fit (C, C0) in closed form over the ensemble; returns max violation.

    C0 sits on its floor e^(kappa+1) * max(trace/M), so every log
    argument is at least e^(kappa+1) (the same largeness margin the
    logarithmic index function needs).  Above that floor every term of
    the requirement max h1 * log(C0 * M / trace)^kappa / M grows with
    C0, so the floor minimizes it; C is that requirement times
    (1 + 1e-9), the smallest constant covering every sample up to
    round-off.  The fit needs min(50, len(samples)) samples with
    positive trace.
    """
    usable = samples.trace_norm > TRACE_FLOOR
    n_usable = int(usable.sum())
    if not n_usable:
        raise DegenerateEnsembleError("all trace norms are zero")
    min_samples = min(50, len(samples))
    if n_usable < min_samples:
        raise DegenerateEnsembleError(
            f"need >= {min_samples} samples with positive trace, got {n_usable}"
        )
    h1, tr, m = samples.h1_norm[usable], samples.trace_norm[usable], samples.m_proxy[usable]
    c0 = math.exp(kappa + 1.0) * float((tr / m).max())
    req = float((h1 * np.log(c0 * m / tr) ** kappa / m).max())
    if not 0.0 < req < math.inf:
        raise DegenerateEnsembleError(f"required C {req:.3e} is not positive and finite")
    c_fit = req * (1.0 + 1e-9)
    excess = samples.h1_norm - stability_bound(samples, c_fit, c0, kappa)
    max_violation = float(excess[usable].max())
    logger.info("stability fit: C=%.4g C0=%.4g max_violation=%.3e",
                c_fit, c0, max_violation)
    return c_fit, c0, max_violation


def evaluate_stability_bound(samples: StabilityEnsemble, c: float, c0: float,
                             kappa: float) -> tuple[int, float]:
    """(violation count, worst excess) of the bound on an ensemble.

    Samples with trace <= TRACE_FLOOR are skipped.  Samples whose log
    argument falls to or below 1 count as violations with excess inf:
    the bound does not apply there, which is a failure of the fitted
    domain guard rather than of the sample.
    """
    excess = (samples.h1_norm - stability_bound(samples, c, c0, kappa))[
        samples.trace_norm > TRACE_FLOOR]
    excess[np.isnan(excess)] = np.inf
    return int((excess > 0.0).sum()), float(excess.max(initial=-np.inf))
