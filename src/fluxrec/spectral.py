"""Spectral calculus on the inner boundary loop.

The loop GammaI is a closed polygonal curve; its 1D P1 Laplace-Beltrami
stiffness S_i together with the lumped arc-length mass M_i defines the
generalized eigenproblem S_i e = mu M_i e.  The self-adjoint operator of
interest is (I + Laplace-Beltrami)^(1/2) with eigenvalues
lambda_n = sqrt(1 + mu_n) >= 1, which makes the discrete H^(1/2) inner
product  (q, v)_(1/2) = sum lambda_n c_n d_n  hold exactly, where c, d
are eigencoefficients in the M_i inner product.

The symmetrized operator M_i^(-1/2) S_i M_i^(-1/2) is cyclic
tridiagonal and is formed from its three bands; its dense matrix exists
only as LAPACK's input, which reduces it in place.

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
from .geometry import GAMMA_I, BoundaryVector, Mesh, boundary_map, per_mesh


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


def _loop_operator(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrized loop operator M_i^(-1/2) S_i M_i^(-1/2) and the lumped mass M_i.

    The operator is cyclic tridiagonal: it is formed from its three bands, and the dense
    Fortran-ordered matrix exists only as LAPACK's input, which may overwrite it.  Requires
    at least 8 vertices on GammaI; an entry beyond float64 is an EigensolverFailureError.
    """
    bmap = boundary_map(mesh, GAMMA_I)
    n = len(bmap)
    if n < 8:
        raise InvalidGeometryError(f"GammaI loop has {n} vertices, need >= 8")

    mass = bmap.weights
    with np.errstate(over="ignore", divide="ignore"):  # an inf is rejected below
        # edge j joins loop vertices j and j+1 (cyclic) with weight 1/length
        w = 1.0 / bmap.edge_lengths
        inv_sqrt = 1.0 / np.sqrt(mass)
        inv_next = np.roll(inv_sqrt, -1)
        diag = inv_sqrt * (w + np.roll(w, 1)) * inv_sqrt
        upper = inv_sqrt * -w * inv_next  # entry (j, j+1)
        lower = inv_next * -w * inv_sqrt  # entry (j+1, j)
        # 0.5 * (A + A^T) entry by entry; the sum commutes, so (j+1, j) gets the same bits
        diag = 0.5 * (diag + diag)
        off = 0.5 * (upper + lower)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise EigensolverFailureError("the loop operator on GammaI overflows float64")

    sym = np.zeros((n, n), order="F")
    j = np.arange(n)
    sym[j, j] = diag
    sym[j, (j + 1) % n] = off
    sym[(j + 1) % n, j] = off
    return sym, mass


def _lambdas(mu: np.ndarray) -> np.ndarray:
    # the constant mode carries mu = 0 exactly; snap eigensolver dust
    return np.sqrt(1.0 + np.where(mu < 1e-9, 0.0, mu))


def loop_eigenvalues(mesh: Mesh) -> np.ndarray:
    """The ascending lambda_n of the loop operator, without eigenvectors.

    MRRR (LAPACK dstemr), the method eigh uses with vectors, on the
    Householder tridiagonal form, which dsytrd computes in the operator's
    own matrix.  eigh(eigvals_only=True) takes dsterf instead, whose
    relative error in the smallest nonzero lambda reaches 4e-12 on
    11k-vertex annulus meshes, against 6e-13 for MRRR.
    """
    sym, _ = _loop_operator(mesh)
    lwork, _ = scipy.linalg.lapack.dsytrd_lwork(len(sym), lower=1)
    _, diag, off, _, _ = scipy.linalg.lapack.dsytrd(sym, lower=1, lwork=int(lwork),
                                                    overwrite_a=1)
    try:
        mu = scipy.linalg.eigvalsh_tridiagonal(diag, off, lapack_driver="stemr")
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverFailureError(str(exc)) from exc
    return _lambdas(mu)


@per_mesh
def build_spectral_basis(mesh: Mesh) -> SpectralBasis:
    """Full symmetric generalized eigendecomposition of the loop operator.

    eigh overwrites the operator's matrix.  Results are cached per mesh;
    the basis is immutable and safe to share.  Requires at least 8
    vertices on GammaI.
    """
    sym, mass = _loop_operator(mesh)
    n = len(mass)
    try:
        mu, y = scipy.linalg.eigh(sym, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverFailureError(str(exc)) from exc
    vecs = (1.0 / np.sqrt(mass))[:, None] * y

    # canonical sign: largest-magnitude component positive.  This fixes signs only: the
    # cos/sin pairs of the loop are near-degenerate (31 of 62 gaps below 1e-10 relative at
    # h = 0.1), so eigh's rotation within each pair, and with it every flux synthesized
    # from this basis, follows the round-off of the operator and of the LAPACK build
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    vecs = np.where(peak < 0.0, -vecs, vecs)

    lambdas = _lambdas(mu)
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
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 0.0 < s <= 0.5:
        raise ValueError(f"s={s} outside (0, 1/2]")
    rng = np.random.default_rng(seed)
    signs = rng.choice(np.array([-1.0, 1.0]), size=basis.n_modes)
    coeffs = signs * basis.eigenvalues ** (-(s + 0.5 + eps))
    coeffs /= np.sqrt(coeffs @ coeffs)
    return synthesize(basis, coeffs)


def band_limited_flux(basis: SpectralBasis, n_modes: int, seed: int) -> BoundaryVector:
    """Random flux supported on the first n_modes eigenmodes, unit L2 norm."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(basis.n_modes)
    coeffs[:n_modes] = rng.standard_normal(n_modes)
    coeffs /= np.sqrt(coeffs @ coeffs)
    return synthesize(basis, coeffs)
