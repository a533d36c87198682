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
same bits out. :class:`CovarianceAccumulator` is the one covariance
kernel: it builds R and the means from a Gram product of the shifted rows
and a column of ones, which yields the column sums too. It takes row
batches, as ``mcca fit`` reads them, and never needs all T rows at once;
``covariance`` runs it in one pass over sets held in memory, and rows
that fit its one buffer give the same bits either way. It makes R once
per ``load`` output with total_dim <= T, whose frozen sets cannot
change, and returns that same object to every later call.
``batch_rows`` sizes the batches in which the CLI makes and projects rows.
"""

import mmap
import sys
from dataclasses import dataclass, field, replace
from itertools import accumulate, pairwise

import numpy as np

from .errors import DataError, DimensionError
from .linalg import as_array, as_matrix, finite, symmetrized, to_float64

_CHUNK_BYTES = 8 << 20  # see `CovarianceAccumulator`
_SHIFT_SAMPLES = 1024  # about this many evenly spaced rows give the shift: see `_shift`
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
    # set by `load` alone: where `covariance` keeps the one R of its sets
    _memo: list | None = field(default=None, init=False, compare=False, repr=False)

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

    No writable view of the returned sets is left outside, so when
    total_dim <= T :func:`covariance` makes their R once (see there).
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
    data = MultiSetData(sets=tuple(out), means=None)
    if data.total_dim <= data.n_exemplars:  # R is then no larger than the sets
        object.__setattr__(data, "_memo", [])
    return data


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
    """R and the column means of multi-set rows, one batch at a time: the
    package's one covariance kernel.

    What ``mcca fit`` and other batch callers use when the rows are never
    all in memory, and what :func:`covariance` runs on sets held in
    memory. Rows (the sets' columns side by side), minus a shift c, go
    into a buffer of ``_CHUNK_BYTES`` (or one row) whose last column takes
    ones when it is folded in, and each fold adds the buffer's Gram product
    into G, so G carries the shifted column sums s and the row count T in
    its last row as well. Then the means are c + dev and R = G - T dev dev'
    for dev = s / T (the shifted-data algorithm of Chan, Golub & LeVeque,
    1983), which is as accurate as two passes while c lies within a
    fraction of a standard deviation of the mean. R comes out exactly
    symmetric, as every Gram product and move keeps G so. Memory is that
    buffer and one (total_dim + 1)-square array, whatever the number of
    rows: 8 MiB is 1024 rows at 1023 columns, enough for full-speed BLAS.

    :meth:`add` copies the first buffer's rows as they come, and the
    first fold shifts them in place by their own means (:func:`_shift`);
    later rows are shifted as they are copied. A stream cannot read its
    rows again, so the guard of :meth:`_dev` is tested after each of its
    folds, and on a miss G moves to the shift c + dev (see :meth:`_fold`).
    Rows that fit one buffer take the same shift and make the same fold
    as in :func:`covariance`, and so give its R and means bit for bit.
    """

    def __init__(self, dims):
        self.dims = _check_dims(dims)
        self._slices = block_slices(self.dims)
        total = sum(self.dims)
        self._g = np.zeros((total + 1, total + 1))
        self._shift = None  # c, taken at the first fold
        # rows may never come: an anonymous map takes memory only for the
        # rows written, where numpy would ask for huge pages for an array
        # this large and take memory 2 MB at a time
        shape = (max(1, _CHUNK_BYTES // (8 * (total + 1))), total + 1)
        self._buf = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1])).reshape(shape)
        self._fill = 0

    def add(self, rows: np.ndarray) -> None:
        """Add a 2-D batch of finite rows, ``total_dim`` columns each (zero or
        one row is fine); otherwise DimensionError or DataError names the row batch."""
        rows = to_float64(rows, "row batch")
        if rows.ndim != 2 or rows.shape[1] != len(self._g) - 1:
            raise DimensionError(f"row batch has shape {rows.shape}, not (rows, {len(self._g) - 1})")
        finite(rows, "row batch")
        while len(rows):
            take = min(len(rows), len(self._buf) - self._fill)
            shift = 0.0 if self._shift is None else self._shift
            np.subtract(rows[:take], shift, out=self._buf[self._fill : self._fill + take, :-1])
            self._fill += take
            rows = rows[take:]
            if self._fill == len(self._buf):
                self._fold()

    def _fold(self, move: bool = True) -> bool:
        """Add the Gram product of the filled rows, with ones in the last
        column, into G; whether dev then misses the guard of :meth:`_dev`.
        On a miss, with ``move``, G moves to the shift c + dev: with step =
        (c + dev) - c as rounded, the shifted Gram product loses
        step s' + s step' - T step step' and s loses T step."""
        rows, self._fill = self._buf[: self._fill], 0
        if self._shift is None:
            self._shift = _shift([rows[:, sl] for sl in self._slices], len(rows))
            rows[:, :-1] -= self._shift
        rows[:, -1] = 1.0
        self._g += rows.T @ rows
        dev, miss = self._dev()
        if move and miss:
            t, s, shift = self._g[-1, -1], self._g[-1, :-1], self._shift + dev
            step = shift - self._shift
            self._g[:-1, :-1] -= np.outer(step, s) + np.outer(s, step) - t * np.outer(step, step)
            self._g[-1, :-1] = self._g[:-1, -1] = s - t * step
            self._shift = shift
        return miss

    def _dev(self):
        """dev = s / T, and whether it misses the guard: 16 T dev_j^2 > R_jj
        for some column j. Past the guard G_jj <= 17/16 R_jj, so R's
        correction cannot cancel. A column whose 16 T dev_j^2 is below eps
        times the largest R_ii of its own set, as a constant column's is,
        does not trip it: all the correction can cancel there lies below
        roundoff at that set's scale."""
        t = self._g[-1, -1]
        dev = self._g[-1, :-1] / t
        diag = np.diag(self._g)[:-1] - t * dev**2
        set_max = np.repeat([diag[sl].max() for sl in self._slices], self.dims)
        return dev, np.any(16 * t * dev**2 > np.maximum(diag, np.finfo(np.float64).eps * set_max))

    def _read(self, sets, shift) -> bool:
        """G afresh from ``sets`` held in memory, shifted by ``shift`` one
        buffer at a time, and never moved; whether dev misses the guard."""
        self._g[:] = 0.0
        self._shift, rows = shift, len(self._buf)
        for a in range(0, len(sets[0]), rows):
            for block, sl in zip(sets, self._slices):
                chunk = block[a : a + rows]
                np.subtract(chunk, shift[sl], out=self._buf[: len(chunk), sl])
            self._fill = len(chunk)
            miss = self._fold(move=False)
        return miss

    def covariance(self) -> CovarianceBlocks:
        """R of every row added, with R == R.T exactly, and the column
        means. DimensionError if fewer than 2 rows were added.
        """
        if self._fill:
            self._fold()
        t = self._g[-1, -1]
        if t < 2:
            raise DimensionError(f"need at least 2 exemplars, got {int(t)}")
        dev, _ = self._dev()
        r = self._g[:-1, :-1] - t * np.outer(dev, dev)
        mean = self._shift + dev
        means = tuple(_freeze(mean[sl]) for sl in self._slices)
        return CovarianceBlocks(R=_freeze(r), dims=self.dims, means=means)


def _shift(blocks, rows: int) -> np.ndarray:
    """The shift c: the column means of each set's rows in ``blocks``, of
    all of them when they fit a buffer of ``rows`` rows, else of every
    ceil(n / ``_SHIFT_SAMPLES``)-th of the n rows."""
    n = len(blocks[0])
    stride = 1 if n <= rows else -(-n // _SHIFT_SAMPLES)
    return np.concatenate([b[::stride].mean(axis=0) for b in blocks])


def covariance(data: MultiSetData) -> CovarianceBlocks:
    """Cross-covariance blocks of (internally centered) multi-set data.

    One pass over the loaded sets through :class:`CovarianceAccumulator`'s
    kernel, each row chunk shifted straight into one reused buffer. The
    shift c is :func:`_shift`'s: the exact column means when the T rows fit
    one buffer, else those of about ``_SHIFT_SAMPLES`` evenly spaced rows,
    for centered data too, which keeps its own ``means``. If the guard
    misses, the pass runs once more with c + dev as the shift, and that
    result stands. The data is never copied or concatenated whole.

    A :func:`load` output with total_dim <= T keeps the first call's
    result (total_dim^2 floats, no more than the sets) and gets it back
    from every later call while its sets stay read-only. Other data takes
    the pass on every call.
    """
    # a copy or an unpickled load output has writable sets: its R may change
    memo = None if any(b.flags.writeable for b in data.sets) else data._memo
    if memo:
        return memo[0]
    acc = CovarianceAccumulator(data.dims)
    rows = len(acc._buf)
    # reuses resident heap pages, unlike a map
    acc._buf = np.empty((min(rows, data.n_exemplars), data.total_dim + 1))
    if acc._read(data.sets, _shift(data.sets, rows)):
        acc._read(data.sets, acc._shift + acc._dev()[0])
    # freed first, so that a kept R is not made above it and pins it in the heap
    acc._buf = None
    cov = acc.covariance()
    if memo is not None:
        memo.append(cov)
    return replace(cov, means=data.means) if data.centered else cov


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
