"""Dense complex matrix algebra and the Schatten-type spectral functionals.

Every module in this package is built on the operations here.  Spectral
quantities go through full eigendecompositions or SVDs: inputs are desk
scale (dim <= ~256), so exactness beats iterative speed.  Brackets and PSD
powers run per orthogonal block: ``support_blocks`` splits a set of
matrices into the connected components of their joint exact nonzero
pattern, and ``block_psd_power`` takes the blocks as one ``(k, s, s)`` stack
per block size, with one batched decomposition per stack.  A bracket
Tr[M^(1+eps)] is split at eps: ``block_psd_spectra`` decomposes L such
matrices from ``(L, k, s, s)`` stacks, one batched eigh per stack, and
``spectral_brackets`` powers and sums the kept eigenvalues at each eps;
``block_psd_brackets`` is the two in turn.  ``block_rank_one`` reads the
unit vector of each rank-1 matrix of such stacks, or finds one of higher
rank.  A dense matrix is the one-block case: ``block_psd_power([m[None]], p)``.
Schatten norms of arbitrary matrices take the same shape: ``schatten_stack``
runs one batched SVD per (k, d, d) stack, a single matrix being a stack of one.

The random-matrix samplers live here too, so every random input in the
package draws the same way: ``ginibre`` (complex Gaussian arrays),
``random_psd`` (Wishart states G†G), ``haar_unitary`` and ``haar_pvm``
(Haar-rotated projective measurements).
``ginibre_from_normals``, ``haar_from_ginibre`` and ``column_pvm`` are their
deterministic halves and take (k, d, d) stacks, so a caller that draws each
trial from its own stream can still combine and decompose in batched calls.

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

from typing import Iterable, Sequence

import numpy as np

HERM_TOL = 1e-9
VALIDATION_TOL = 1e-6
RANK_TOL = 1e-12


class MatcoreError(ValueError):
    """Base class for matrix-algebra failures."""


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise MatcoreError("matrix has non-finite entries")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatcoreError(f"expected a square matrix, got shape {a.shape}")
    return _finite(a)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a (k, s, s) stack."""
    return np.conj(m.swapaxes(-1, -2))


def frozen(m: np.ndarray) -> np.ndarray:
    """Return a read-only copy (used to keep validated objects immutable)."""
    a = np.array(m, dtype=np.complex128, copy=True)
    a.setflags(write=False)
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.abs(m - dagger(m)).max()) if m.size else 0.0


def projector_defect(p: np.ndarray) -> float:
    """max |P - P†| and |P² - P| entrywise; 0 for an exact projector."""
    p = np.asarray(p, dtype=np.complex128)
    return max(hermiticity_defect(p), float(np.max(np.abs(p @ p - p))))


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """(A + A†)/2 of a matrix or stack; an asymmetry beyond 1e-6 raises."""
    defect = hermiticity_defect(a)
    if defect > VALIDATION_TOL:
        raise MatcoreError(f"matrix is not Hermitian (defect {defect:.3e})")
    return (a + dagger(a)) / 2


def _as_stack(a) -> np.ndarray:
    """Coerce to a finite complex128 (k, s, s) stack of square blocks."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise MatcoreError(f"expected square blocks, got stack shape {a.shape}")
    return _finite(a)


def psd_defect(eigenvalues: np.ndarray) -> float:
    """How far the least of ascending eigenvalues lies below -(1e-8 max(top, 0) + 1e-14).

    The absolute term keeps near-zero matrices from failing on rounding noise."""
    if not eigenvalues.size:
        return 0.0
    scale = max(float(eigenvalues[-1]), 0.0)
    return max(0.0, -float(eigenvalues[0]) - (1e-8 * scale + 1e-14))


def support_blocks(mats: Iterable, dim: int) -> tuple[np.ndarray, ...]:
    """Orthogonal blocks shared by dim x dim matrices.

    The blocks are the connected components of the matrices' joint nonzero
    pattern, returned as one read-only (k, s) index stack per block size s,
    sizes ascending; each row is ascending and rows are ordered by their first
    index.  An entry joins the pattern iff it is exactly nonzero, so the split
    involves no tolerance: every matrix is exactly block diagonal on it.
    """
    linked = np.eye(dim, dtype=bool)
    for m in mats:
        m = np.asarray(m)
        if m.shape != (dim, dim):
            raise MatcoreError(f"expected a {dim} x {dim} matrix, got shape {m.shape}")
        linked |= m != 0
    linked |= linked.T
    labels = np.arange(dim)
    while True:
        # least label among the neighbours, then a pointer jump; converges to
        # the least index of each component
        nxt = np.where(linked, labels, dim).min(axis=1)
        nxt = nxt[nxt]
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    stacks = []
    # not np.unique: in numpy 2.x its first plain call imports numpy.ma (~1.2 MB resident)
    for size in sorted(set(sizes.tolist())):
        idx = np.array([order[start:start + size] for start in starts[sizes == size]])
        idx.setflags(write=False)
        stacks.append(idx)
    return tuple(stacks)


def split_blocks(m: np.ndarray, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The diagonal blocks of m: one (k, s, s) stack per (k, s) index stack.
    For an (L, dim, dim) stack m the stacks are (L, k, s, s)."""
    return [m[..., idx[:, :, None], idx[:, None, :]] for idx in blocks]


def block_psd_power(stacks: Sequence[np.ndarray], p: float) -> list[np.ndarray]:
    """Eigenvalue power of a PSD block-diagonal matrix given as (k, s, s) stacks.

    Eigenvalues below 1e-12 times the largest one are mapped to 0 even for
    negative p (pseudo-inverse / support convention).  A spectrum with a
    positive ``psd_defect`` raises MatcoreError.  The cutoff and
    the defect read the least and largest eigenvalues over all blocks, so a
    block split keeps the support of the dense matrix.  One batched eigh runs
    per stack.
    """
    eigs = [np.linalg.eigh(_symmetrized(_as_stack(b))) for b in stacks]
    spectrum = np.sort(np.concatenate([vals.ravel() for vals, _ in eigs]))
    top = float(spectrum[-1]) if spectrum.size else 0.0
    if psd_defect(spectrum) > 0:
        raise MatcoreError(
            f"matrix is not PSD (min eigenvalue {spectrum[0]:.3e}, max {top:.3e})"
        )
    cutoff = RANK_TOL * max(top, 0.0)
    out = []
    for vals, vecs in eigs:
        powered = np.zeros_like(vals)
        support = vals > cutoff
        powered[support] = vals[support] ** p
        m = (vecs * powered[..., None, :]) @ dagger(vecs)
        out.append((m + dagger(m)) / 2)
    return out


def block_psd_spectra(stacks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The eigenvalues of L PSD block-diagonal matrices given as (L, k, s, s)
    stacks, clipped at 0: one (L, k*s) array per stack, row l holding matrix
    l's eigenvalues of that block size, C-ordered.

    One batched eigh runs per stack and only its eigenvalues are read: they
    are those of ``block_psd_power``, where eigvalsh takes another LAPACK route
    with other rounding.  The Hermiticity and finiteness checks cover every
    block of every matrix.  The spectra do not depend on eps, so a caller
    that brackets the same matrices at several eps keeps them and powers
    them with ``spectral_brackets``.
    """
    spectra = []
    for b in stacks:
        b = np.asarray(b)
        if b.ndim != 4:
            raise MatcoreError(f"expected (L, k, s, s) stacks, got shape {b.shape}")
        n, k, s, t = b.shape
        vals = np.linalg.eigh(_symmetrized(_as_stack(b.reshape(n * k, s, t))))[0]
        spectra.append(np.clip(vals, 0.0, None).reshape(n, k * s))
    return spectra


def spectral_brackets(spectra: Sequence[np.ndarray], eps: float) -> np.ndarray:
    """Tr[M^(1+eps)] of each of L matrices from their ``block_psd_spectra``:
    each (L, k*s) array is raised to the power 1 + eps and summed along its
    rows in one reduction, and the stacks are added in order."""
    total = 0.0
    for vals in spectra:
        total = total + np.sum(vals ** (1.0 + eps), axis=-1)
    return total


def block_rank_one(stacks: Sequence[np.ndarray]) -> list[np.ndarray] | None:
    """The unit vectors of L Hermitian block-diagonal matrices of rank at most
    1, given as (L, k, s, s) stacks: one (L, k, s) stack per block size, row l
    holding matrix l's eigenvector of its one eigenvalue of modulus above
    ``RANK_TOL`` in that eigenvalue's block and zeros elsewhere (all zeros
    for a matrix with no such eigenvalue).  None when some matrix has more
    than one such eigenvalue over its blocks.  The cutoff is absolute, as
    suits projectors, whose eigenvalues are 0 and 1.  One batched eigh runs
    per stack.
    """
    eigs = []
    for b in stacks:
        n, k, s, _ = b.shape
        vals, vecs = np.linalg.eigh(_symmetrized(_as_stack(b.reshape(n * k, s, s))))
        eigs.append(((np.abs(vals) > RANK_TOL).reshape(n, k, s), vecs.reshape(n, k, s, s)))
    if np.any(sum(kept.sum(axis=(1, 2)) for kept, _ in eigs) > 1):
        return None
    return [(vecs * kept[:, :, None, :]).sum(axis=-1) for kept, vecs in eigs]


def block_psd_brackets(stacks: Sequence[np.ndarray], eps: float) -> np.ndarray:
    """bracket of each of L PSD block-diagonal matrices given as (L, k, s, s)
    stacks: ``spectral_brackets`` of their ``block_psd_spectra``."""
    return spectral_brackets(block_psd_spectra(stacks), eps)


def schatten_stack(z, eps) -> tuple[list[float], list[float]]:
    """Schatten (1+eps) brackets and norms of each matrix of a (k, d, d) stack.

    ``eps`` is one value for the whole stack or a sequence of one per matrix.
    One batched SVD runs for the stack, and the singular values are raised to
    the power 1 + eps once per distinct eps value, so every exponent is a
    Python float.  Returns the brackets and the norms as lists of floats.
    """
    a = _as_stack(z)
    eps = [float(eps)] * a.shape[0] if np.ndim(eps) == 0 else [float(e) for e in eps]
    distinct = set(eps)
    for e in distinct:
        if not 0.0 <= e <= 1.0:
            raise MatcoreError(f"eps must lie in [0, 1], got {e}")
    if len(eps) != a.shape[0]:
        raise MatcoreError(f"{len(eps)} eps values for a stack of {a.shape[0]} matrices")
    s = np.linalg.svd(a, compute_uv=False)
    powered = np.empty_like(s)
    by_eps = np.array(eps)
    for e in distinct:
        rows = by_eps == e
        powered[rows] = s[rows] ** (1.0 + e)
    brackets = powered.sum(axis=-1).tolist()
    return brackets, [b ** (1.0 / (1.0 + e)) for b, e in zip(brackets, eps)]


def resolution_defects(blocks: Sequence[np.ndarray], dim: int) -> tuple[float, float, float]:
    """Worst defects of dim x dim blocks as an orthogonal resolution of I:
    (max projector_defect, |sum_k P_k - I|, max over j < k of |P_j P_k|).

    A block may also be a (k, dim, dim) stack holding that projector of k
    resolutions; the defects are then the worst over the stack."""
    b = np.asarray(blocks, dtype=np.complex128)
    proj = projector_defect(b) if len(b) else 0.0
    total = sum(b, np.zeros((dim, dim), dtype=np.complex128))
    comp = float(np.max(np.abs(total - np.eye(dim))))
    # each block against all later ones in one product
    orth = max((float(np.max(np.abs(p @ b[j + 1:]))) for j, p in enumerate(b[:-1])), default=0.0)
    return proj, comp, orth


def check_resolution(blocks: Sequence[np.ndarray], dim: int) -> None:
    """Raise MatcoreError unless blocks form an orthogonal resolution of I.

    Each block is a dim x dim matrix, or a (k, dim, dim) stack that checks k
    resolutions at once, as in ``resolution_defects``."""
    if not blocks:
        raise MatcoreError("no blocks given")
    blocks = [as_matrix(p) if np.ndim(p) == 2 else _as_stack(p) for p in blocks]
    for k, p in enumerate(blocks):
        if p.shape[-1] != dim:
            raise MatcoreError(f"block {k} has dim {p.shape[-1]}, expected {dim}")
    proj, comp, orth = resolution_defects(blocks, dim)
    if max(proj, comp, orth) > VALIDATION_TOL:
        raise MatcoreError(
            f"blocks are not an orthogonal resolution of the identity (projector defect "
            f"{proj:.3e}, completeness {comp:.3e}, orthogonality {orth:.3e})"
        )


def ginibre(shape: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Array of iid standard complex Gaussians: all real parts, then all imaginary."""
    return ginibre_from_normals(rng.normal(size=(2, *np.atleast_1d(shape))))


def ginibre_from_normals(x: np.ndarray) -> np.ndarray:
    """x[0] + i x[1]: the array ``ginibre`` makes from its draw x of real normals."""
    return x[0] + 1j * x[1]


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Wishart-style PSD sample G†G with iid standard complex Gaussian G."""
    g = ginibre((dim, dim), rng)
    return dagger(g) @ g


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix."""
    return haar_from_ginibre(ginibre((dim, dim), rng))


def haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """The Haar unitary ``haar_unitary`` makes from the complex Gaussian g, or
    from each matrix of a (k, d, d) stack with one batched QR: Q with the
    phases of R's diagonal moved into its columns."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_pvm(dim: int, parts: int | Sequence[int], rng: np.random.Generator) -> list[np.ndarray]:
    """Projective measurement from the column blocks of one Haar unitary.

    ``parts`` is read as by ``np.array_split``: a block count gives balanced
    ranks (empty blocks, i.e. zero projectors, when it exceeds ``dim``), and
    a list of split indices gives the blocks between them, so ``[rank]``
    yields a rank-``rank`` projector and its complement.
    """
    return column_pvm(haar_unitary(dim, rng), parts)


def column_pvm(u: np.ndarray, parts: int | Sequence[int]) -> list[np.ndarray]:
    """``c @ dagger(c)`` for each column block c of the unitary u, split as by
    ``haar_pvm``; for a (k, d, d) stack of unitaries, one stack per block."""
    return [c @ dagger(c) for c in np.array_split(u, parts, axis=-1)]


def matrix_json_parts(m, pad: str, step: str) -> list[str]:
    """m as nested [re, im] pairs, row-major (the format ``matrix_from_pairs``
    reads), as ``json.dumps`` indents them by ``step`` on a line indented by
    ``pad``, built in bulk from the array: a list of short
    strings (one float repr or separator each) whose join is that text."""
    a = as_matrix(m)
    d = a.shape[0]
    if not d:
        return ["[]"]
    row, pair, num = ("\n" + pad + step * k for k in (1, 2, 3))
    opening = row + "[" + pair + "[" + num
    # the text after each float: within a pair, between the pairs of a row,
    # between rows, and after the last float
    seps = ["," + num, pair + "]," + pair + "[" + num] * d
    seps[-1] = pair + "]" + row + "]," + opening
    seps *= d
    seps[-1] = pair + "]" + row + "]\n" + pad + "]"
    parts = [""] * (4 * d * d + 1)
    parts[0] = "[" + opening
    parts[1::2] = map(float.__repr__, np.stack([a.real, a.imag], -1).ravel().tolist())
    parts[2::2] = seps
    return parts


def matrix_from_pairs(data) -> np.ndarray:
    """Parse the nested [re, im] literal format back into a matrix."""
    rows = []
    for row in data:
        rows.append([complex(float(re), float(im)) for re, im in row])
    return as_matrix(np.array(rows, dtype=np.complex128))
