"""Dense complex matrix algebra and the Schatten-type spectral functionals.

Every module in this package is built on the operations here.  All spectral
quantities go through full eigendecompositions or SVDs: inputs are desk
scale (dim <= ~256), so exactness beats iterative speed.

The random-matrix samplers live here too, so every random input in the
package draws the same way: ``ginibre`` (complex Gaussian arrays),
``haar_unitary`` and ``haar_pvm`` (Haar-rotated projective measurements).

``resolution_defects`` (orthogonal resolutions of I) and ``psd_defect`` (the
PSD floor) are the single rules for those invariants: kernels raise on a
defect above 1e-6, ``devicemodel.validate_device`` reports one above 1e-9.

Conventions:
  * matrices are square numpy arrays of complex128,
  * Hermiticity / projector checks use an absolute tolerance of 1e-9,
    hard validation errors fire at 1e-6,
  * negative matrix powers follow the support convention (eigenvalues below
    the rank cutoff are treated as exact zeros and stay zero).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERM_TOL = 1e-9
VALIDATION_TOL = 1e-6
RANK_TOL = 1e-12


class MatcoreError(ValueError):
    """Base class for matrix-algebra failures."""


class NonFiniteError(MatcoreError):
    pass


class NonHermitianError(MatcoreError):
    pass


class NegativeEigenvalueError(MatcoreError):
    pass


class NotAResolutionError(MatcoreError):
    pass


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatcoreError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFiniteError("matrix has non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m.T)


def frozen(m: np.ndarray) -> np.ndarray:
    """Return a read-only copy (used to keep validated objects immutable)."""
    a = np.array(m, dtype=np.complex128, copy=True)
    a.setflags(write=False)
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def projector_defect(p: np.ndarray) -> float:
    """max |P - P†| and |P² - P| entrywise; 0 for an exact projector."""
    p = np.asarray(p, dtype=np.complex128)
    return max(hermiticity_defect(p), float(np.max(np.abs(p @ p - p))))


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def herm_eig(m) -> HermEig:
    """Eigendecompose a Hermitian matrix.

    The input is symmetrized as (M + M†)/2 before decomposition; an asymmetry
    beyond 1e-6 raises NonHermitianError instead.
    """
    a = as_matrix(m)
    if hermiticity_defect(a) > VALIDATION_TOL:
        raise NonHermitianError(
            f"matrix is not Hermitian (defect {hermiticity_defect(a):.3e})"
        )
    a = (a + dagger(a)) / 2
    vals, vecs = np.linalg.eigh(a)
    return HermEig(eigenvalues=vals, eigenvectors=vecs)


def psd_defect(eigenvalues: np.ndarray) -> float:
    """How far the least of ascending eigenvalues lies below -(1e-8 max(top, 0) + 1e-14).

    The absolute term keeps near-zero matrices from failing on rounding noise."""
    if not eigenvalues.size:
        return 0.0
    scale = max(float(eigenvalues[-1]), 0.0)
    return max(0.0, -float(eigenvalues[0]) - (1e-8 * scale + 1e-14))


def psd_power(m, p: float) -> np.ndarray:
    """Eigenvalue power of a positive semidefinite matrix.

    Eigenvalues below 1e-12 times the largest one are mapped to 0 even for
    negative p (pseudo-inverse / support convention).  A spectrum with a
    positive ``psd_defect`` raises NegativeEigenvalueError.
    """
    eig = herm_eig(m)
    vals = eig.eigenvalues
    top = float(vals[-1]) if vals.size else 0.0
    if psd_defect(vals) > 0:
        raise NegativeEigenvalueError(
            f"matrix is not PSD (min eigenvalue {vals[0]:.3e}, max {top:.3e})"
        )
    cutoff = RANK_TOL * max(top, 0.0)
    powered = np.zeros_like(vals)
    support = vals > cutoff
    powered[support] = vals[support] ** p
    v = eig.eigenvectors
    out = (v * powered) @ dagger(v)
    return (out + dagger(out)) / 2


def sqrtm_psd(m) -> np.ndarray:
    return psd_power(m, 0.5)


@dataclass(frozen=True)
class SchattenValue:
    bracket: float  # Tr[(Z†Z)^{(1+eps)/2}]
    norm: float  # bracket^{1/(1+eps)}


def schatten(z, eps: float) -> SchattenValue:
    """Schatten (1+eps) bracket and norm of an arbitrary matrix.

    bracket(Z) = Tr[(Z†Z)^{(1+eps)/2}] = sum of singular values^(1+eps),
    norm(Z) = bracket^{1/(1+eps)}.  eps = 0 gives the trace norm.
    """
    if not 0.0 <= eps <= 1.0:
        raise MatcoreError(f"eps must lie in [0, 1], got {eps}")
    a = as_matrix(z)
    s = np.linalg.svd(a, compute_uv=False)
    bracket = float(np.sum(s ** (1.0 + eps)))
    norm = bracket ** (1.0 / (1.0 + eps))
    return SchattenValue(bracket=bracket, norm=norm)


def bracket(z, eps: float) -> float:
    return schatten(z, eps).bracket


def snorm(z, eps: float) -> float:
    return schatten(z, eps).norm


def psd_bracket(m, eps: float) -> float:
    """bracket of a PSD matrix via its eigenvalues (cheaper than an SVD)."""
    vals = herm_eig(m).eigenvalues
    vals = np.clip(vals, 0.0, None)
    return float(np.sum(vals ** (1.0 + eps)))


def resolution_defects(blocks: Sequence[np.ndarray], dim: int) -> tuple[float, float, float]:
    """Worst defects of dim x dim blocks as an orthogonal resolution of I:
    (max projector_defect, |sum_k P_k - I|, max over j < k of |P_j P_k|)."""
    total = np.zeros((dim, dim), dtype=np.complex128)
    proj = 0.0
    for p in blocks:
        proj = max(proj, projector_defect(p))
        total += p
    comp = float(np.max(np.abs(total - np.eye(dim))))
    pairs = itertools.combinations(blocks, 2)
    orth = max((float(np.max(np.abs(p @ q))) for p, q in pairs), default=0.0)
    return proj, comp, orth


def check_resolution(blocks: Sequence[np.ndarray], dim: int) -> None:
    """Raise NotAResolutionError unless blocks form an orthogonal resolution of I."""
    if not blocks:
        raise NotAResolutionError("no blocks given")
    blocks = [as_matrix(p) for p in blocks]
    for k, p in enumerate(blocks):
        if p.shape[0] != dim:
            raise NotAResolutionError(f"block {k} has dim {p.shape[0]}, expected {dim}")
    proj, comp, orth = resolution_defects(blocks, dim)
    if max(proj, comp, orth) > VALIDATION_TOL:
        raise NotAResolutionError(
            f"blocks are not an orthogonal resolution of the identity (projector defect "
            f"{proj:.3e}, completeness {comp:.3e}, orthogonality {orth:.3e})"
        )


def pinch(a, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Apply the pinching channel A -> sum_k P_k A P_k.

    blocks must be pairwise-orthogonal projectors summing to the identity.
    For PSD A the bracket can only decrease under pinching.
    """
    m = as_matrix(a)
    check_resolution(blocks, m.shape[0])
    out = np.zeros_like(m)
    for p in blocks:
        p = np.asarray(p, dtype=np.complex128)
        out += p @ m @ p
    return out


def tensor(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(as_matrix(a), as_matrix(b))


def ginibre(shape: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Array of iid standard complex Gaussians: all real parts, then all imaginary."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix."""
    q, r = np.linalg.qr(ginibre((dim, dim), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_pvm(dim: int, parts: int | Sequence[int], rng: np.random.Generator) -> list[np.ndarray]:
    """Projective measurement from the column blocks of one Haar unitary.

    ``parts`` is read as by ``np.array_split``: a block count gives balanced
    ranks (empty blocks, i.e. zero projectors, when it exceeds ``dim``), and
    a list of split indices gives the blocks between them, so ``[rank]``
    yields a rank-``rank`` projector and its complement.
    """
    return [c @ dagger(c) for c in np.array_split(haar_unitary(dim, rng), parts, axis=1)]


def matrix_to_pairs(m) -> list:
    """Serialize to the shared literal format: nested [re, im] pairs, row-major."""
    a = as_matrix(m)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def matrix_from_pairs(data) -> np.ndarray:
    """Parse the nested [re, im] literal format back into a matrix."""
    rows = []
    for row in data:
        rows.append([complex(float(re), float(im)) for re, im in row])
    return as_matrix(np.array(rows, dtype=np.complex128))
