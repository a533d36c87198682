"""Dense real-matrix helpers with reproducible eigendecompositions.

The heavy numerical work is delegated to LAPACK through numpy; this module
pins down the conventions everything else relies on: validated float64
inputs, eigenvalues sorted in descending order, and a deterministic sign
for every eigenvector column so repeated runs produce identical bits.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegeneracyError, DimensionError

# Largest tolerated relative asymmetry before sym_eig refuses the input.
SYMMETRY_RTOL = 1e-10
# Imaginary parts above this fraction of the spectral scale mean the matrix
# was not similar to a symmetric one.
EIG_IMAG_RTOL = 1e-8


def to_float64(a, name: str, order: str = "K") -> np.ndarray:
    """``a`` as float64 in order ``order``, copied only to convert; DataError names ``name``."""
    try:
        return np.asarray(a, dtype=np.float64, order=order)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{name} is not a numeric array ({exc})") from None


def as_array(a, name: str, ndim: int) -> np.ndarray:
    """``a`` as a non-empty, finite, C-contiguous float64 array of ``ndim`` dimensions.

    Copies only to convert. Errors name ``name``: DataError for an entry that
    does not convert or is not finite, DimensionError for the shape.
    """
    arr = to_float64(a, name, order="C")
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got {arr.ndim}-D")
    if arr.size == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """:func:`as_array` of a square matrix."""
    arr = as_array(a, name, 2)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got {arr.shape[0]}x{arr.shape[1]}")
    return arr


def fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip signs in place so each column's largest-magnitude entry is positive.

    Ties resolve to the lowest row index, which removes the arbitrary sign
    freedom of eigenvector columns across platforms and backends.
    """
    peaks = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.where(vectors[peaks, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix.

    ``values`` are sorted descending; column ``i`` of ``vectors`` pairs with
    ``values[i]`` and the columns form an orthonormal set.
    """

    values: np.ndarray
    vectors: np.ndarray


def symmetrized(a: np.ndarray, name: str) -> np.ndarray:
    """``(a + a.T) / 2``; DataError if ``a`` is asymmetric beyond ``SYMMETRY_RTOL``.

    Both come from the halved entries, whose sums and differences cannot
    overflow for finite ``a``; for entries in the normal range the bits are
    those of the plain formulas.
    """
    scale = float(np.abs(a).max())
    half = 0.5 * a
    asym = 2.0 * float(np.abs(half - half.T).max())
    if asym > SYMMETRY_RTOL * scale:
        raise DataError(
            f"{name} is not symmetric: max asymmetry {asym:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} of its largest entry {scale:.3e}"
        )
    return half + half.T


def sym_eig(a, name: str = "matrix") -> SymEig:
    """Full eigendecomposition of a symmetric matrix.

    The input must be square and symmetric to within ``SYMMETRY_RTOL``
    relative to its largest entry; it is symmetrized by averaging with its
    transpose before factorization, so tiny roundoff asymmetry is harmless.
    Output is deterministic for identical input bits.
    """
    a = as_matrix(a, name)
    w, q = np.linalg.eigh(symmetrized(a, name))
    # eigh returns ascending order
    values = np.ascontiguousarray(w[::-1])
    vectors = np.ascontiguousarray(q[:, ::-1])
    fix_column_signs(vectors)
    return SymEig(values=values, vectors=vectors)


def general_eig_real(a) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenpairs of a square matrix similar to a symmetric one.

    Intended for products of an inverted positive-definite block diagonal
    with a full covariance, whose spectra are real by similarity. Uses the
    general LAPACK eigensolver so it stays an independent cross-check of the
    symmetric whitening route.

    Returns ``(values, vectors)`` with values descending and real vector
    columns. Conjugate pairs whose imaginary part is within
    ``EIG_IMAG_RTOL`` of the spectral scale are folded into two real columns
    spanning the same invariant subspace; larger imaginary parts raise
    :class:`DegeneracyError`, which signals that the upstream block diagonal
    was not positive definite.
    """
    w, v = np.linalg.eig(as_matrix(a))
    scale = float(np.abs(w).max())
    worst = float(np.abs(w.imag).max())
    if worst > EIG_IMAG_RTOL * scale:
        raise DegeneracyError(
            f"complex eigenvalue detected (imag {worst:.3e} vs spectral "
            f"scale {scale:.3e}); the block diagonal is not positive definite"
        )
    # LAPACK emits each conjugate pair adjacently, with one real part and the
    # positive imaginary part first; that vector's real and imaginary parts
    # span the pair's 2-D invariant subspace.
    vectors = v.real.copy()
    first = np.flatnonzero(w.imag > 0.0)
    vectors[:, first + 1] = v[:, first].imag
    order = np.argsort(-w.real, kind="stable")
    values = np.ascontiguousarray(w.real[order])
    vectors = np.ascontiguousarray(vectors[:, order])
    fix_column_signs(vectors)
    return values, vectors
