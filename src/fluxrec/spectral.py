"""Spectral calculus on the inner boundary loop.

The loop GammaI is a closed polygonal curve; its 1D P1 Laplace-Beltrami
stiffness S_i together with the lumped arc-length mass M_i defines the
generalized eigenproblem S_i e = mu M_i e.  The self-adjoint operator of
interest is (I + Laplace-Beltrami)^(1/2) with eigenvalues
lambda_n = sqrt(1 + mu_n) >= 1, which makes the discrete H^(1/2) inner
product  (q, v)_(1/2) = sum lambda_n c_n d_n  hold exactly, where c, d
are eigencoefficients in the M_i inner product.

Fractional Sobolev norms and the tails of the spectral cutoff
projectors P_lambda are exact multiplier operations on the finite
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    EigensolverFailureError,
    InvalidGeometryError,
)
from .fem import BoundaryVector
from .geometry import GAMMA_I, Mesh, boundary_map, per_mesh


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Eigenpairs of the boundary operator on GammaI.

    eigenvalues are ascending with lambda_1 = 1; eigenvector columns are
    orthonormal in the lumped M_i inner product.
    """

    eigenvalues: np.ndarray     # (n,) lambda_n >= 1
    eigenvectors: np.ndarray    # (n, n), column n is e_n per boundary vertex
    mass_diag: np.ndarray       # lumped M_i diagonal (= arc weights)

    def __post_init__(self):
        for arr in (self.eigenvalues, self.eigenvectors, self.mass_diag):
            arr.flags.writeable = False

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def mode(self, n: int) -> BoundaryVector:
        """n-th eigenvector as a boundary vector (0-based)."""
        return BoundaryVector(GAMMA_I, self.eigenvectors[:, n].copy())


@per_mesh
def build_spectral_basis(mesh: Mesh) -> SpectralBasis:
    """Full symmetric generalized eigendecomposition of the loop operator.

    Results are cached per mesh; the basis is immutable and safe to
    share.  Requires at least 8 vertices on GammaI.
    """
    bmap = boundary_map(mesh, GAMMA_I)
    n = len(bmap)
    if n < 8:
        raise InvalidGeometryError(f"GammaI loop has {n} vertices, need >= 8")

    pts = mesh.vertices[bmap.vertex_indices]
    edge_len = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    # edge j joins loop vertices j and j+1 (cyclic) with weight 1/length
    w = 1.0 / edge_len
    stiff = np.diag(w + np.roll(w, 1))
    j = np.arange(n)
    stiff[j, (j + 1) % n] = -w
    stiff[(j + 1) % n, j] = -w

    mass = bmap.weights
    inv_sqrt = 1.0 / np.sqrt(mass)
    sym = inv_sqrt[:, None] * stiff * inv_sqrt[None, :]
    sym = 0.5 * (sym + sym.T)
    try:
        mu, y = scipy.linalg.eigh(sym)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverFailureError(str(exc)) from exc
    # the constant mode carries mu = 0 exactly; snap eigensolver dust
    mu = np.where(mu < 1e-9, 0.0, mu)
    vecs = inv_sqrt[:, None] * y

    # canonical sign: largest-magnitude component positive
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    vecs = np.where(peak < 0.0, -vecs, vecs)

    lambdas = np.sqrt(1.0 + mu)
    gram = vecs.T @ (mass[:, None] * vecs)
    ortho_err = float(np.abs(gram - np.eye(n)).max())
    if ortho_err > 1e-10:
        raise EigensolverFailureError(f"orthonormality residual {ortho_err:.3e}")

    return SpectralBasis(lambdas, vecs, mass)


def _check_dim(basis: SpectralBasis, values: np.ndarray) -> None:
    if values.shape != (basis.n_modes,):
        raise DimensionMismatchError(
            f"expected {basis.n_modes} boundary values, got {values.shape}"
        )


def analyze(basis: SpectralBasis, q: BoundaryVector) -> np.ndarray:
    """Eigencoefficients c_n = (q, e_n); Parseval holds exactly in the lumped norm."""
    _check_dim(basis, q.values)
    return basis.eigenvectors.T @ (basis.mass_diag * q.values)


def synthesize(basis: SpectralBasis, c: np.ndarray) -> BoundaryVector:
    """The flux sum_n c_n e_n with eigencoefficients c."""
    c = np.asarray(c, dtype=float)
    _check_dim(basis, c)
    return BoundaryVector(GAMMA_I, basis.eigenvectors @ c)


def sobolev_norm(basis: SpectralBasis, s: float, q: BoundaryVector) -> float:
    """Discrete H^s(GammaI) norm (sum lambda_n^(2s) c_n^2)^(1/2), s in [-1/2, 1]."""
    if not -0.5 <= s <= 1.0:
        raise ValueError(f"s={s} outside supported range [-1/2, 1]")
    c = analyze(basis, q)
    return float(np.sqrt((basis.eigenvalues ** (2.0 * s) * c ** 2).sum()))


def tail_norm(basis: SpectralBasis, lambda_cut: float, q: BoundaryVector) -> float:
    """||(I - P_lambda) q|| in the lumped L2(GammaI) norm, from coefficients."""
    tail = analyze(basis, q)[basis.eigenvalues > lambda_cut]
    return float(np.sqrt((tail * tail).sum()))


def synthesize_flux_with_smoothness(basis: SpectralBasis, s: float, eps: float,
                                    seed: int) -> BoundaryVector:
    """Random flux of prescribed smoothness, unit L2(GammaI) norm.

    Coefficients are sign-randomized lambda_n^-(s + 1/2 + eps), which
    keeps the H^s norm finite under boundary refinement while norms of
    order above s + eps diverge.  Deterministic per seed.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < s <= 0.5:
        raise ValueError(f"s={s} outside (0, 1/2]")
    rng = np.random.default_rng(seed)
    signs = rng.choice(np.array([-1.0, 1.0]), size=basis.n_modes)
    coeffs = signs * basis.eigenvalues ** (-(s + 0.5 + eps))
    coeffs /= np.linalg.norm(coeffs)
    return synthesize(basis, coeffs)


def band_limited_flux(basis: SpectralBasis, n_modes: int, seed: int) -> BoundaryVector:
    """Random flux supported on the first n_modes eigenmodes, unit L2 norm."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(basis.n_modes)
    coeffs[:n_modes] = rng.standard_normal(n_modes)
    coeffs /= np.linalg.norm(coeffs)
    return synthesize(basis, coeffs)
