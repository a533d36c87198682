"""Multi-set data containers, mean-centering, and covariance block assembly.

A "multi-set" holds N >= 2 data sets observed over the same T exemplars;
set l contributes a T x d_l block. Covariances are unnormalized sums over
exemplars (no 1/(T-1) factor): correlations and the eigenstructure built on
top are invariant to that common scale, and keeping raw sums makes the
block algebra exact for integer test fixtures.
"""

from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

from .errors import DataError, DimensionError
from .linalg import as_array, as_matrix, symmetrized

_CHUNK_BYTES = 8 << 20  # see `covariance`


def block_slices(dims) -> list[slice]:
    """Column slices of the concatenated layout for per-set dims."""
    return [slice(a, b) for a, b in pairwise(accumulate(dims, initial=0))]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _is_int(x) -> bool:
    """A Python or numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A Python or numpy integer or float, but not a bool."""
    return _is_int(x) or isinstance(x, (float, np.floating))


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
    """
    blocks = list(sets)
    if len(blocks) < 2:
        raise DimensionError(f"need at least 2 data sets, got {len(blocks)}")
    out = []
    for l, block in enumerate(blocks):
        name = f"data set {l + 1}"
        try:  # load's one copy; as_array copies nothing more
            arr = np.array(block, dtype=np.float64, order="C", copy=True)
        except (TypeError, ValueError, OverflowError):
            arr = as_array(block, name, 2)  # fails alike, with a DataError naming the set
        arr = as_array(arr.reshape(-1, 1) if arr.ndim == 1 else arr, name, 2)
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
    """

    R: np.ndarray
    dims: tuple
    means: tuple

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


def covariance(data: MultiSetData) -> CovarianceBlocks:
    """Cross-covariance blocks of (internally centered) multi-set data.

    Each block is the plain sum over exemplars of centered outer products,
    taken in two passes: one for the column means (centered data keeps its
    ``means``), then one that centers each row chunk into a reused buffer of
    at most ``_CHUNK_BYTES`` (or one row) and adds its Gram product into R;
    8 MiB is 1024 rows at 1024 columns, enough for full-speed BLAS. Beyond
    the input, memory is that buffer and a few total_dim x total_dim arrays:
    the data is never copied. R is symmetrized so R == R.T holds exactly.
    """
    means = data.means if data.centered else [b.mean(axis=0) for b in data.sets]
    shifts = [0.0] * data.n_sets if data.centered else means
    rows = max(1, _CHUNK_BYTES // (8 * data.total_dim))
    buf = np.empty((min(rows, data.n_exemplars), data.total_dim))
    r = np.zeros((data.total_dim, data.total_dim))
    for a in range(0, data.n_exemplars, rows):
        chunk = buf[: min(rows, data.n_exemplars - a)]
        for block, shift, sl in zip(data.sets, shifts, block_slices(data.dims)):
            np.subtract(block[a : a + rows], shift, out=chunk[:, sl])
        r += chunk.T @ chunk
    r = 0.5 * (r + r.T)
    return CovarianceBlocks(R=_freeze(r), dims=data.dims, means=tuple(map(_freeze, means)))


def covariance_from_matrix(r, dims, means=None) -> CovarianceBlocks:
    """Build :class:`CovarianceBlocks` from an explicit covariance matrix.

    Handy when the covariance is specified directly rather than estimated
    from data, e.g. analytic test instances. ``r`` must be square with side
    ``sum(dims)`` and symmetric up to roundoff; ``means`` defaults to zeros.
    """
    dims = _check_dims(dims)
    r = symmetrized(as_matrix(r, "covariance"), "covariance")
    total = sum(dims)
    if r.shape != (total, total):
        raise DimensionError(f"covariance must be {total}x{total}, got {r.shape}")
    means = _sequence([np.zeros(d) for d in dims] if means is None else means, "means", "vectors")
    means = tuple(
        _freeze(as_array(m, f"means of set {l + 1}", 1).copy()) for l, m in enumerate(means)
    )
    if tuple(len(m) for m in means) != dims:
        raise DimensionError("means do not match dims")
    return CovarianceBlocks(R=_freeze(r), dims=dims, means=means)
