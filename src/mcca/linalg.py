"""Dense real-matrix helpers with reproducible eigendecompositions.

The heavy numerical work is delegated to LAPACK through numpy; this module
pins down the conventions everything else relies on: validated float64
inputs, eigenvalues sorted in descending order, and a deterministic sign
for every eigenvector column, so repeated runs at a fixed BLAS thread count
produce identical bits (the thread count can change the last bits).

:func:`finite` tests a large array on every available core, with threads
started for the call and joined before it returns or raises; its output
bits do not depend on how many run.
"""

import os
import threading

import numpy as np

from .errors import DataError, DegeneracyError, DimensionError

# Largest tolerated relative asymmetry before sym_eig refuses the input.
SYMMETRY_RTOL = 1e-10
# Imaginary parts above this fraction of the spectral scale mean the matrix
# was not similar to a symmetric one.
EIG_IMAG_RTOL = 1e-8
# Bytes per piece of `finite`: a piece just copied is still in L2 when it is tested.
_PIECE_BYTES = 256 << 10
# Pieces (4 MiB) per thread of `finite` at the least: a smaller share saves
# less time than starting and joining the thread costs.
_WORKER_PIECES = 16


def to_float64(a, name: str, order: str = "K") -> np.ndarray:
    """``a`` as float64 in order ``order``, copied only to convert; DataError names ``name``."""
    try:
        return np.asarray(a, dtype=np.float64, order=order)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{name} is not a numeric array ({exc})") from None


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no sched_getaffinity
        return os.cpu_count() or 1


def finite(arr: np.ndarray, name: str, copy: bool = False) -> np.ndarray:
    """``arr``, or with ``copy`` a C-contiguous copy of it, once every entry
    tests finite; DataError names ``name`` otherwise.

    The one owner of the finiteness rule for arrays that enter the package.
    It walks ``arr`` (float64, in any layout, of one or more dimensions) in
    pieces of whole rows of about ``_PIECE_BYTES``, each copied and then
    tested while it is still in cache, so each input byte is read from
    memory once and no temporary is larger than a piece (or one row).

    The rows are split into one contiguous range of whole pieces per
    worker: as many workers as CPUs available, but no more than one per
    ``_WORKER_PIECES`` pieces, so an array under twice that runs on the
    calling thread alone. The calling thread walks the first range, a
    thread started for the call walks each other one, and every thread is
    joined before this returns or raises. Numpy releases the interpreter
    lock for the copy and the test, and the output bits are the same for
    any number of workers.
    """
    out = np.empty(arr.shape) if copy else arr
    rows = max(1, _PIECE_BYTES // max(1, arr[:1].nbytes))
    pieces = -(-len(arr) // rows)
    workers = max(1, min(_cpu_count(), pieces // _WORKER_PIECES))
    cuts = [min(len(arr), rows * (pieces * w // workers)) for w in range(workers + 1)]
    failed = threading.Event()
    errors = []

    def walk(w: int) -> None:
        try:
            for a in range(cuts[w], cuts[w + 1], rows):
                if failed.is_set():
                    return
                piece = out[a : a + rows]
                if copy:
                    piece[...] = arr[a : a + rows]
                if not np.isfinite(piece).all():
                    failed.set()
        except Exception as exc:  # raised again by the calling thread
            errors.append(exc)
            failed.set()

    threads = [threading.Thread(target=walk, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        walk(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    if failed.is_set():
        raise DataError(f"{name} contains non-finite entries")
    return out


def as_array(a, name: str, ndim: int, copy: bool = False) -> np.ndarray:
    """``a`` as a non-empty, finite, C-contiguous float64 array of ``ndim`` dimensions.

    Copies only to convert, or with ``copy``, in the same pass as the
    :func:`finite` test. Errors name ``name``: DataError for an entry that
    does not convert or is not finite, DimensionError for the shape, which
    is checked first.
    """
    arr = to_float64(a, name, order="C")
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got {arr.ndim}-D")
    if arr.size == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {arr.shape}")
    return finite(arr, name, copy)


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


def sym_eig(a, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix.

    Returns ``(values, vectors)``: values descending, and column ``i`` of
    the orthonormal ``vectors`` paired with ``values[i]``. The input must be
    square and symmetric to within ``SYMMETRY_RTOL`` relative to its largest
    entry; it is symmetrized by averaging with its transpose before
    factorization, so tiny roundoff asymmetry is harmless. Output is
    deterministic for identical input bits at a fixed BLAS thread count.
    """
    a = as_matrix(a, name)
    w, q = np.linalg.eigh(symmetrized(a, name))
    # eigh returns ascending order
    values = np.ascontiguousarray(w[::-1])
    vectors = np.ascontiguousarray(q[:, ::-1])
    fix_column_signs(vectors)
    return values, vectors


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
