"""Multi-set data containers, mean-centering, and covariance block assembly.

A "multi-set" holds N >= 2 data sets observed over the same T exemplars;
set l contributes a T x d_l block. Covariances are unnormalized sums over
exemplars (no 1/(T-1) factor): correlations and the eigenstructure built on
top are invariant to that common scale, and keeping raw sums makes the
block algebra exact for integer test fixtures.

``load`` copies each set that may share the caller's memory and tests it
for non-finite entries in the same pass (:func:`linalg.finite`), so it
reads each set from memory once; a set of 8 MiB or more is split among
threads started for the call, at most one per available CPU, with the
same bits out. ``covariance`` builds R and the means from sets held in
memory in one pass: a Gram product of the shifted rows and a column of
ones, which yields the column sums too.
:class:`CovarianceAccumulator` builds them from row batches, as
``mcca fit`` reads them, and never needs all T rows at once.
``batch_rows`` sizes the batches in which the CLI makes and projects rows.
"""

import mmap
import sys
from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

from .errors import DataError, DimensionError
from .linalg import as_array, as_matrix, finite, symmetrized, to_float64

_CHUNK_BYTES = 8 << 20  # see `CovarianceAccumulator`
_SHIFT_SAMPLES = 1024  # about this many evenly spaced rows give `covariance` its shift
_BATCH_BYTES = 1 << 20  # see `batch_rows`
_BATCH_BLOCKS = 128  # of 16 rows: at most 2048 rows per batch


def block_slices(dims) -> list[slice]:
    """Column slices of the concatenated layout for per-set dims."""
    return [slice(a, b) for a, b in pairwise(accumulate(dims, initial=0))]


def batch_rows(width: int) -> int:
    """Rows per batch where rows of ``width`` columns are made or projected
    one batch at a time: about ``_BATCH_BYTES`` of float64, in a multiple
    of 16 rows, and at most 2048 rows.

    OpenBLAS's small-matrix kernels take the rows of a product in blocks,
    and a batch edge inside a block changes the bits of the rows there. With
    batches of whole blocks, and a last batch of at least two rows (numpy
    takes a one-row product elsewhere), the batched product equals the
    whole one bit for bit whenever both take the same kernel.
    """
    return 16 * min(_BATCH_BLOCKS, max(1, _BATCH_BYTES // (128 * width)))


def _chunk_rows(width: int) -> int:
    """Rows of ``width`` float64 columns in ``_CHUNK_BYTES``, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * width))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _is_int(x) -> bool:
    """A Python or numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A Python or numpy integer or float, but not a bool."""
    return _is_int(x) or isinstance(x, (float, np.floating))


def _is_number(x) -> bool:
    """A finite real number; in Python scalars, so the range test is exact
    for huge integers and casts no numpy float."""
    return _is_real(x) and abs(int(x) if _is_int(x) else float(x)) <= sys.float_info.max


def _sequence(x, name: str, kind: str) -> tuple:
    """``tuple(x)``; DataError naming ``name`` if ``x`` is not iterable."""
    try:
        return tuple(x)
    except TypeError:
        raise DataError(f"{name} must be a sequence of {kind}, got {x!r}") from None


def _check_dims(dims) -> tuple:
    """``dims`` as a tuple of ints; DataError unless 2+ integer entries >= 1."""
    dims = _sequence(dims, "dims", "integers")
    for l, d in enumerate(dims):
        if not (_is_int(d) and d >= 1):
            raise DataError(f"dims entry {l + 1} must be an integer >= 1, got {d!r}")
    if len(dims) < 2:
        raise DataError("need at least 2 data sets")
    return tuple(map(int, dims))


@dataclass(frozen=True)
class MultiSetData:
    """N data sets over shared exemplars.

    ``sets[l]`` is a T x d_l block with exemplars as rows. ``means`` holds
    the per-set row vectors that were subtracted when ``centered`` is true;
    it is ``None`` for raw data.
    """

    sets: tuple
    means: tuple | None

    @property
    def centered(self) -> bool:
        return self.means is not None

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    @property
    def n_exemplars(self) -> int:
        return self.sets[0].shape[0]

    @property
    def dims(self) -> tuple:
        return tuple(b.shape[1] for b in self.sets)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def load(sets) -> MultiSetData:
    """Validate and store raw multi-set data.

    Every block must share the exemplar count T >= 2, have at least one
    column, and contain only finite values. At least two sets are required;
    inter-set correlation needs pairs of distinct sets.

    A set that may share the caller's memory is copied, and the copy is
    tested for non-finite entries in the same pass, piece by piece
    (:func:`linalg.finite`), so each input byte is read from memory once; a
    set that had to be converted to C-ordered float64 is tested in place.
    A large set is split among the available CPUs, on threads started and
    joined within the call; the loaded bits do not depend on how many.
    The shape of a set is checked before its entries.
    """
    blocks = list(sets)
    if len(blocks) < 2:
        raise DimensionError(f"need at least 2 data sets, got {len(blocks)}")
    out = []
    for l, block in enumerate(blocks):
        name = f"data set {l + 1}"
        arr = to_float64(block, name, "C")
        shared = arr is block or arr.base is not None  # may share the caller's memory
        arr = as_array(arr.reshape(-1, 1) if arr.ndim == 1 else arr, name, 2, copy=shared)
        if out and arr.shape[0] != out[0].shape[0]:
            raise DimensionError(f"{name} has {arr.shape[0]} exemplars, expected {out[0].shape[0]}")
        out.append(_freeze(arr))
    if out[0].shape[0] < 2:
        raise DimensionError(f"need at least 2 exemplars, got {out[0].shape[0]}")
    return MultiSetData(sets=tuple(out), means=None)


def center(data: MultiSetData) -> MultiSetData:
    """Subtract per-set column means, recording them for later reuse.

    Centering already-centered data is effectively a no-op: the freshly
    computed deltas are near zero and fold into the stored means.
    """
    mus = [block.mean(axis=0) for block in data.sets]
    bases = data.means if data.means is not None else [0.0] * data.n_sets
    return MultiSetData(
        sets=tuple(_freeze(block - mu) for block, mu in zip(data.sets, mus)),
        means=tuple(_freeze(base + mu) for base, mu in zip(bases, mus)),
    )


@dataclass(frozen=True)
class CovarianceBlocks:
    """The covariance of a multi-set, stored once as ``R``.

    ``R`` is the total_dim x total_dim sum of outer products of the centered
    concatenated sets; its block (l, k) is the d_l x d_k cross-covariance of
    sets l and k. D, the block diagonal part of R, is only ever applied
    block by block, through :meth:`d_dot`. ``means`` carries the training
    means so fitted models can be applied to new data.

    Construction checks the shapes only: ``dims`` by :func:`_check_dims`,
    which also stores them as a tuple of ints, ``R`` square of side
    ``sum(dims)``, and one mean of length d_l per set (DataError or
    DimensionError). Finiteness and symmetry are checked where R is made,
    as :func:`covariance_from_matrix` does.
    """

    R: np.ndarray
    dims: tuple
    means: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", _check_dims(self.dims))  # as a tuple of ints
        total = sum(self.dims)
        if np.shape(self.R) != (total, total):
            raise DimensionError(f"covariance must be {total}x{total}, got {np.shape(self.R)}")
        means = _sequence(self.means, "means", "vectors")
        if [np.shape(m) for m in means] != [(d,) for d in self.dims]:
            raise DimensionError("means do not match dims")

    @property
    def n_sets(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def d_dot(self, v: np.ndarray) -> np.ndarray:
        """``D @ v`` as one d_l x d_l by d_l x K product per set."""
        out = np.empty(v.shape)
        for sl in block_slices(self.dims):
            out[sl] = self.R[sl, sl] @ v[sl]
        return out


class CovarianceAccumulator:
    """Count, column sums and co-moment of multi-set rows, one batch at a time.

    What ``mcca fit`` and other batch callers use when the rows are never
    all in memory. :meth:`add` copies each batch of rows (the sets' columns
    side by side) into a buffer of ``_CHUNK_BYTES`` (or one row) and folds
    the buffer in whenever it fills; :meth:`covariance` folds in the rest
    and returns R. Memory is that buffer and a few total_dim x total_dim
    arrays, whatever the number of rows: 8 MiB is 1024 rows at 1024
    columns, enough for full-speed BLAS.

    Folding in the buffer is the pairwise update of Chan, Golub & LeVeque
    (1979), taken about the running mean: the buffered rows are centered in
    place by the mean of all rows so far and their Gram product added to
    the co-moment, and the old co-moment moves to that mean by
    ``L e' + e L' + count e e'``, with e the change of mean and L the old
    rows' summed deviations from the old mean. L is zero but for rounding;
    kept, it makes the move exact, so a mean rounded at a large offset
    costs no accuracy. The column sums go into each fold's reduction as the
    buffer's first row, so the means come out as numpy's ``mean(axis=0)``
    of each set, bit for bit, for sets of two or more columns; a one-column
    set's mean is numpy's only when one fold takes every row, as numpy sums
    a single column pairwise. With one fold, R is :func:`covariance`'s
    exactly.
    """

    def __init__(self, dims):
        self.dims = _check_dims(dims)
        self.count = 0
        total = sum(self.dims)
        self.sums = np.zeros(total)
        self.comoment = np.zeros((total, total))
        self.deviations = np.zeros(total)
        self._slices = block_slices(self.dims)
        # row 0 carries the column sums into each fold's reduction. Rows
        # may never come: an anonymous map takes memory only for the rows
        # written, where numpy would ask for huge pages for an array this
        # large and take memory 2 MB at a time
        shape = (1 + _chunk_rows(total), total)
        self._buf = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1])).reshape(shape)
        self._fill = 0

    def add(self, rows: np.ndarray) -> None:
        """Add a 2-D batch of finite rows, ``total_dim`` columns each (zero or
        one row is fine); otherwise DimensionError or DataError names the row batch."""
        rows = to_float64(rows, "row batch")
        if rows.ndim != 2 or rows.shape[1] != len(self.sums):
            raise DimensionError(f"row batch has shape {rows.shape}, not (rows, {len(self.sums)})")
        finite(rows, "row batch")
        cap = len(self._buf) - 1
        while len(rows):
            take = min(len(rows), cap - self._fill)
            self._buf[1 + self._fill : 1 + self._fill + take] = rows[:take]
            self._fill += take
            rows = rows[take:]
            if self._fill == cap:
                self._fold()

    def _fold(self) -> None:
        """Fold the buffered rows into the count, sums, co-moment and deviations."""
        n, buf = self._fill, self._buf
        if not n:
            return
        buf[0] = self.sums
        first = 0 if self.count else 1
        sums = np.concatenate([buf[first : 1 + n, sl].sum(axis=0) for sl in self._slices])
        count = self.count + n
        mean = sums / count
        if self.count:  # move the old rows' co-moment and deviations to the new mean
            e = self.sums / self.count - mean
            self.comoment += np.outer(self.deviations, e)
            self.comoment += np.outer(e, self.deviations + self.count * e)
            self.deviations += self.count * e
        rows = buf[1 : 1 + n]
        rows -= mean
        self.comoment += rows.T @ rows
        self.deviations += rows.sum(axis=0)
        self.count, self.sums, self._fill = count, sums, 0

    def covariance(self) -> CovarianceBlocks:
        """R of every row added, symmetrized so R == R.T holds exactly, and
        the column means. DimensionError if fewer than 2 rows were added.
        """
        self._fold()
        if self.count < 2:
            raise DimensionError(f"need at least 2 exemplars, got {self.count}")
        mean = self.sums / self.count
        r = 0.5 * (self.comoment + self.comoment.T)
        means = tuple(_freeze(mean[sl]) for sl in self._slices)
        return CovarianceBlocks(R=_freeze(r), dims=self.dims, means=means)


def covariance(data: MultiSetData) -> CovarianceBlocks:
    """Cross-covariance blocks of (internally centered) multi-set data.

    One pass over the loaded sets, by the shifted-data algorithm of Chan,
    Golub & LeVeque (1983). The shift c is the column means of every
    ceil(T / ``_SHIFT_SAMPLES``)-th row, for centered data too, which
    keeps its own ``means``. Each row chunk, shifted by c, is written into one
    reused buffer of ``_CHUNK_BYTES`` whose last column holds ones, and the
    buffer's Gram product G is added up, so G carries the shifted column
    sums s in its last row as well. Then the means are c + s / T and
    R = G - T dev dev' for dev = s / T, which is as accurate as two passes
    while c lies within a fraction of a standard deviation of the mean.
    If 16 T dev_j^2 > R_jj for any column j, the pass runs once more with
    c + dev as the shift, and that result stands; past this guard
    G_jj <= 17/16 R_jj, so the correction cannot cancel. A column whose
    16 T dev_j^2 is below eps times the largest R_ii of its own set, as a
    constant column's is, does not trip the guard: all the correction can
    cancel there lies below roundoff at that set's scale. The data is
    never copied or concatenated whole.
    """
    t, total = data.n_exemplars, data.total_dim
    stride = -(-t // _SHIFT_SAMPLES)
    shift = np.concatenate([b[::stride].mean(axis=0) for b in data.sets])
    # reuses resident heap pages, unlike a map
    buf = np.empty((min(_chunk_rows(total + 1), t), total + 1))
    buf[:, -1] = 1.0
    r, dev = _shifted_gram(data, shift, buf)
    diag = np.diag(r)
    set_max = np.repeat([diag[sl].max() for sl in block_slices(data.dims)], data.dims)
    if np.any(16 * t * dev**2 > np.maximum(diag, np.finfo(np.float64).eps * set_max)):
        shift = shift + dev
        r, dev = _shifted_gram(data, shift, buf)
    mean = shift + dev
    means = data.means if data.centered else tuple(_freeze(mean[sl]) for sl in block_slices(data.dims))
    return CovarianceBlocks(R=_freeze(r), dims=data.dims, means=means)


def _shifted_gram(data: MultiSetData, shift: np.ndarray, buf: np.ndarray):
    """R of ``data`` and the deviation of its column means from ``shift``,
    from one pass of row chunks shifted into ``buf``, whose last column is ones."""
    t, rows = data.n_exemplars, len(buf)
    g = np.zeros((buf.shape[1], buf.shape[1]))
    for a in range(0, t, rows):
        chunk = buf[: min(rows, t - a)]
        for block, sl in zip(data.sets, block_slices(data.dims)):
            np.subtract(block[a : a + rows], shift[sl], out=chunk[:, sl])
        g += chunk.T @ chunk
    dev = g[-1, :-1] / t
    return g[:-1, :-1] - t * np.outer(dev, dev), dev


def covariance_from_matrix(r, dims, means=None) -> CovarianceBlocks:
    """Build :class:`CovarianceBlocks` from an explicit covariance matrix.

    Handy when the covariance is specified directly rather than estimated
    from data, e.g. analytic test instances. ``r`` must be square with side
    ``sum(dims)`` and symmetric up to roundoff; ``means`` defaults to zeros.
    """
    dims = _check_dims(dims)
    r = symmetrized(as_matrix(r, "covariance"), "covariance")
    means = _sequence([np.zeros(d) for d in dims] if means is None else means, "means", "vectors")
    means = tuple(
        _freeze(as_array(m, f"means of set {l + 1}", 1).copy()) for l, m in enumerate(means)
    )
    return CovarianceBlocks(R=_freeze(r), dims=dims, means=means)
