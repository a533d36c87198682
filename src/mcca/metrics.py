"""Component projections and inter-set correlation (ISC).

ISC measures how correlated one projected component is across data sets:
the sum of between-set covariances of the component signals over all
ordered pairs of distinct sets, divided by (N - 1) times the summed
within-set variances. The 1/(N - 1) factor normalizes the maximum to 1.

One kernel scores every ISC here: :func:`_isc_columns`, on a covariance.
:func:`isc` takes the covariance of the signals themselves with the
package's one covariance kernel (:func:`data.covariance`) and scores it
there. Nothing here refers to the eigensolver, so the solver's analytic
correlations can be cross-validated against these computations.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import MultiSetData, _is_int, block_slices, covariance
from .errors import DimensionError, UndefinedIscError
from .linalg import as_array, to_float64

if TYPE_CHECKING:
    from .solver import MccaModel


@dataclass(frozen=True)
class Projections:
    """Per-set component signals: one T x K float64 block per data set; only shapes are checked."""

    signals: tuple

    def __post_init__(self):
        signals = tuple(
            to_float64(s, f"signal block of set {l + 1}") for l, s in enumerate(self.signals)
        )
        object.__setattr__(self, "signals", signals)
        shapes = [s.shape for s in signals]
        if len(shapes) < 2 or len(set(shapes)) != 1 or len(shapes[0]) != 2:
            raise DimensionError(
                f"projections need >= 2 sets with a common T x K shape, got {shapes}"
            )

    @property
    def n_components(self) -> int:
        return self.signals[0].shape[1]


@dataclass(frozen=True)
class IscBreakdown:
    """Between-set covariance sum, within-set variance sum, and their ratio."""

    r_between: float
    r_within: float
    rho: float


def transform(model: "MccaModel", data: MultiSetData) -> Projections:
    """Project multi-set data through a fitted model.

    The model's training means are subtracted before projecting, so new raw
    data is handled the same way the training data was. Data that was
    centered by its own means is shifted back onto the training means first.
    """
    if data.dims != model.dims:
        for l, (have, want) in enumerate(zip(data.dims, model.dims)):
            if have != want:
                raise DimensionError(
                    f"data set {l + 1} has {have} features, model expects {want}"
                )
        raise DimensionError(
            f"data has {data.n_sets} sets, model expects {len(model.dims)}"
        )
    signals = []
    slices = block_slices(model.dims)
    for l, block in enumerate(data.sets):
        offset = -model.means[l]
        if data.centered:
            offset = offset + data.means[l]
        signals.append((block + offset) @ model.V[slices[l], :])
    return Projections(signals=tuple(signals))


def _check_component(n, count: int) -> None:
    """DimensionError unless ``n`` is an integer component index in [0, count)."""
    if not (_is_int(n) and 0 <= n < count):
        raise DimensionError(
            f"component index must be an integer in [0, {count}), got {n!r}"
        )


def isc(proj: Projections, n: int) -> IscBreakdown:
    """ISC of component ``n`` (0-based), from the signals themselves.

    Signals are re-centered by their own sample means, making the metric
    self-contained on held-out data. The between-set sum runs over ordered
    pairs (l, k), l != k, so each unordered pair contributes twice.

    The T x N block of the N sets' signals is scaled by one common 2^-k
    that brings its largest |entry| into [1, 2). The scaling is exact and a
    common factor leaves rho unchanged, so no signal scale can overflow or
    underflow the sums. :func:`covariance` of the scaled block is then
    scored by :func:`_isc_columns` with every weight 2^k, which gives the
    sums of the signals themselves: ±inf or 0 where they fall outside the
    float range, while rho stays finite. UndefinedIscError when the
    within-set variance lies at that kernel's roundoff floor.
    """
    _check_component(n, proj.n_components)
    y = np.column_stack([s[:, n] for s in proj.signals])
    y = as_array(y, f"signal block of component {n}", 2)
    k = np.frexp(np.abs(y).max())[1] - 1  # not frexp's own exponent: 2^1024 is no float
    y = np.ldexp(y, -k)
    cov = covariance(MultiSetData(tuple(y[:, l : l + 1] for l in range(y.shape[1])), None))
    parts = _isc_columns(cov, np.full((y.shape[1], 1), np.ldexp(1.0, k)))
    if np.isnan(parts.rho[0]):
        raise UndefinedIscError(
            "within-set variance is zero (all sets constant); ISC undefined"
        )
    return IscBreakdown(float(parts.r_between[0]), float(parts.r_within[0]), float(parts.rho[0]))


def _isc_columns(cov, v: np.ndarray) -> IscBreakdown:
    """Covariance-form ISC of every column of the total_dim x K matrix ``v``.

    Column n is first scaled by 2^-e_n, where 2^e_n is the power of two from
    ``np.frexp`` just above its largest |entry|; the scaling is exact, so
    the quadratic forms can neither overflow nor underflow through ``v``,
    and rho and the variance-floor test come out as for the unscaled
    column. The between- and within-set sums are the column-wise diagonals
    of u'(R - D)u and u'Du for the scaled columns u, from one product with
    R and one blockwise product with D, then multiplied back by 4^e_n.

    Returns an :class:`IscBreakdown` of length-K arrays: the sums for ``v``
    itself (±inf where they exceed the float range; rho stays finite) and
    rho, NaN where the projected within-set variance is at roundoff: at most
    eps max|R| |u|^2 total_dim, the rounding error of u'Du itself. A column
    in D's null space has a within-set variance made of rounding alone, and
    its ratio would mean nothing (it can read far above 1).
    """
    _, exp = np.frexp(np.abs(v).max(axis=0))
    u = np.ldexp(v, -exp)
    r_within = np.einsum("ij,ij->j", u, cov.d_dot(u))
    r_between = np.einsum("ij,ij->j", u, cov.R @ u) - r_within
    floor = (
        np.finfo(np.float64).eps
        * float(np.abs(cov.R).max())
        * np.einsum("ij,ij->j", u, u)
        * cov.total_dim
    )
    defined = r_within > floor
    rho = np.full(r_within.shape, np.nan)
    np.divide(r_between, (cov.n_sets - 1) * r_within, out=rho, where=defined)
    with np.errstate(over="ignore"):  # sums beyond the float range become ±inf
        r_between, r_within = np.ldexp([r_between, r_within], 2 * exp)
    return IscBreakdown(r_between=r_between, r_within=r_within, rho=rho)


def isc_from_cov(cov, v) -> IscBreakdown:
    """ISC of one projection vector, evaluated from covariance blocks.

    ``v`` is the concatenation of the per-set projection vectors. The
    between-set part is v'(R - D)v, the sum of v_l' R_lk v_k over ordered
    pairs l != k, and the within-set part is v'Dv, the sum of the
    diagonal-block quadratic forms; the result matches :func:`isc` applied
    to the projected signals. This is :func:`_isc_columns` on a single
    column, so the sums overflow to ±inf, and rho stays finite, for a ``v``
    whose quadratic forms exceed the float range.
    """
    v = as_array(v, "projection vector", 1)
    if v.shape[0] != cov.total_dim:
        raise DimensionError(
            f"projection vector has length {v.shape[0]}, expected {cov.total_dim}"
        )
    parts = _isc_columns(cov, v.reshape(-1, 1))
    if np.isnan(parts.rho[0]):
        raise UndefinedIscError("projected within-set variance is zero; ISC undefined")
    return IscBreakdown(float(parts.r_between[0]), float(parts.r_within[0]), float(parts.rho[0]))
