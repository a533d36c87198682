"""Fitting shared correlated components across N data sets.

Both routes solve the same generalized symmetric eigenproblem
R v = D v lambda, where R is the covariance of the concatenated centered
data and D its block diagonal. Eigenvalues relate to the inter-set
correlation by lambda = (N - 1) rho + 1, so sorting descending puts the
most correlated component first, and the eigenvectors jointly diagonalize
D, which makes the component signals within each set mutually uncorrelated.

* The two-step route (default) whitens each set by its own
  eigendecomposition, optionally dropping near-null directions, and then
  runs a second symmetric eigendecomposition on the whitened concatenated
  covariance. It never inverts anything ill-conditioned and is the
  numerically safe choice.
* The one-step route forms inv(D) R explicitly and hands it to the general
  real eigensolver. It requires D to be positive definite and is kept as a
  faithful, independent cross-check of the two-step results.

Optional ridge shrinkage with ``gamma > 0`` adds gamma * I to every
diagonal block (in both R and D), which regularizes the pencil without
touching the cross-covariances.
"""

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .data import CovarianceBlocks, MultiSetData, _freeze, _is_int, _is_number, _is_real, block_slices, covariance
from .errors import (
    DataError,
    DegeneracyError,
    DegenerateSetError,
    DimensionError,
    RankDeficiencyError,
)
from .linalg import fix_column_signs, general_eig_real, sym_eig
from .metrics import _check_component, _isc_columns

# Relative eigenvalue threshold below which a diagonal block counts as
# singular for the one-step route.
PD_RTOL = 1e-10
# Eigenvalues closer than this fraction of the largest one are treated as a
# degenerate cluster; any orthogonal basis of the cluster's eigenspace is
# acceptable, so the basis is fixed deterministically. A route whose
# eigenvalues carry larger errors widens it (see `_orthonormalize_ties`).
TIE_RTOL = 1e-10
# How far an entry of V'(D + gamma I)V may stray from the identity's
# before the fit refuses its components; the bound of acceptance criterion 4.
ORTHO_ATOL = 1e-7
# How far an eigenvalue may leave [0, N], where a covariance puts every
# one, before the fit refuses it; the band of acceptance criterion 6.
SPECTRUM_ATOL = 1e-8

DEFAULT_RANK_TOL = 1e-9

TWO_STEP = "two-step"
ONE_STEP = "one-step"


@dataclass(frozen=True)
class RegularizationRecord:
    """How the fit guarded against rank deficiency.

    ``rank_tol`` is None for the one-step route, which truncates nothing;
    ``ranks`` lists the per-set retained dimensionality.
    """

    gamma: float
    rank_tol: float | None
    ranks: tuple


@dataclass(frozen=True)
class MccaModel:
    """Fitted projections and their correlation spectrum.

    ``V`` stacks the per-set projection blocks (d_l rows each); column n is
    component n. Columns are sorted by descending eigenvalue, normalized to
    v' D v = 1 against the (gamma-regularized) block diagonal, and jointly
    diagonalize it: V' D V = I up to roundoff. ``rho_analytic`` is
    (lambda - 1)/(N - 1) of the solved problem; ``rho_empirical`` is the
    inter-set correlation each column achieves on the unregularized
    covariance (NaN where the projected within-set variance is at roundoff,
    as it is for a column in D's null space).
    """

    V: np.ndarray
    lambdas: np.ndarray
    rho_analytic: np.ndarray
    rho_empirical: np.ndarray
    dims: tuple
    means: tuple
    method: str
    reg: RegularizationRecord

    @property
    def n_components(self) -> int:
        return int(self.lambdas.shape[0])


@dataclass(frozen=True)
class WhitenedBasis:
    """Per-set eigenstructure used to whiten the block diagonal.

    ``maps[l]`` sends set l's features to its retained whitened
    coordinates, and ``rtilde`` is the covariance of the whitened
    concatenated data; its diagonal blocks are identities by construction.
    """

    eigvals: tuple
    ranks: tuple
    maps: tuple
    rtilde: np.ndarray


def _check_options(method=TWO_STEP, rank_tol=DEFAULT_RANK_TOL, gamma=0.0, k=None) -> None:
    """DataError or DimensionError for an option of :func:`fit` that it would
    refuse; each caller passes the options it takes."""
    if method not in (TWO_STEP, ONE_STEP):
        raise DataError(f"unknown method {method!r}; expected {TWO_STEP!r} or {ONE_STEP!r}")
    if not (_is_number(gamma) and gamma >= 0.0):
        raise DataError(f"gamma must be a finite number >= 0, got {gamma!r}")
    if not (_is_real(rank_tol) and 0.0 < rank_tol < 1.0):
        raise DataError(f"rank_tol must lie strictly between 0 and 1, got {rank_tol!r}")
    if not (k is None or _is_int(k)):
        raise DataError(f"k must be an integer, got {k!r}")
    if k is not None and k < 1:
        raise DimensionError(f"k must be at least 1, got {k}")


def _diag_eigs(r: np.ndarray, dims: tuple):
    """Yield ``(l, slice, values, vectors)``, the :func:`sym_eig` of the
    diagonal block of r, per set l."""
    for l, sl in enumerate(block_slices(dims)):
        yield l, sl, *sym_eig(r[sl, sl], name=f"diagonal block of set {l + 1}")


def whiten(cov: CovarianceBlocks, rank_tol: float = DEFAULT_RANK_TOL, gamma: float = 0.0) -> WhitenedBasis:
    """Eigendecompose each diagonal block and build whitening maps.

    Directions whose eigenvalue is at most ``rank_tol`` times the block's
    largest eigenvalue are dropped. A set whose block has no retained
    direction at all raises :class:`DegenerateSetError` naming the set.
    """
    _check_options(rank_tol=rank_tol, gamma=gamma)
    slices = block_slices(cov.dims)
    r_reg = cov.R + gamma * np.eye(cov.total_dim)
    eigvals, ranks, maps = [], [], []
    for l, _, w, q in _diag_eigs(r_reg, cov.dims):
        r = int(np.count_nonzero(w > rank_tol * w[0]))
        if r == 0:
            cause = "its covariance block is zero" if w[0] <= 0.0 else "all variance falls below the rank tolerance"
            raise DegenerateSetError(f"data set {l + 1} of {cov.n_sets} is degenerate: {cause}")
        eigvals.append(w)
        ranks.append(r)
        maps.append(q[:, :r] / np.sqrt(w[:r]))
    wslices = block_slices(ranks)
    total = sum(ranks)
    # rtilde = M'(R + gamma I)M for the block diagonal M of the maps, one
    # set at a time: first the columns of (R + gamma I)M, then M's rows.
    half = np.empty((cov.total_dim, total))
    for sk, wk, mk in zip(slices, wslices, maps):
        half[:, wk] = r_reg[:, sk] @ mk
    rtilde = np.empty((total, total))
    for sl, wl, ml in zip(slices, wslices, maps):
        rtilde[wl, :] = ml.T @ half[sl, :]
    rtilde = 0.5 * (rtilde + rtilde.T)
    return WhitenedBasis(
        eigvals=tuple(_freeze(w) for w in eigvals),
        ranks=tuple(ranks),
        maps=tuple(_freeze(m) for m in maps),
        rtilde=_freeze(rtilde),
    )


def fit_two_step(
    cov: CovarianceBlocks,
    rank_tol: float = DEFAULT_RANK_TOL,
    gamma: float = 0.0,
    k: int | None = None,
) -> MccaModel:
    """Fit by whitening each set, then eigendecomposing the whitened covariance.

    Parameters
    ----------
    cov : CovarianceBlocks
        Covariance blocks of the (centered) training data.
    rank_tol : float
        Relative eigenvalue cutoff for per-set rank truncation.
    gamma : float
        Ridge added to every diagonal block before whitening.
    k : int, optional
        Number of components to keep; defaults to everything retained by
        the truncation. Asking for more than that is an error.

    Returns
    -------
    MccaModel
    """
    _check_options(rank_tol=rank_tol, gamma=gamma, k=k)
    wb = whiten(cov, rank_tol=rank_tol, gamma=gamma)
    values, vectors = sym_eig(wb.rtilde, name="whitened covariance")
    v = np.zeros((cov.total_dim, len(values)))
    slices = block_slices(cov.dims)
    wslices = block_slices(wb.ranks)
    for l in range(cov.n_sets):
        v[slices[l], :] = wb.maps[l] @ vectors[wslices[l], :]
    reg = RegularizationRecord(gamma=float(gamma), rank_tol=float(rank_tol), ranks=wb.ranks)
    return _finish(cov, values, v, k, TWO_STEP, reg)


def fit_one_step(
    cov: CovarianceBlocks,
    gamma: float = 0.0,
    k: int | None = None,
) -> MccaModel:
    """Fit from the eigenvectors of inv(D) R.

    Requires every (gamma-shifted) diagonal block to be positive definite,
    with an inverse that does not overflow (as on subnormal data); otherwise
    a :class:`RankDeficiencyError` points at the failing set and suggests
    the two-step route or ``gamma > 0``. Kept primarily as an independent
    cross-check of :func:`fit_two_step`. The general eigensolver's errors
    grow with the blocks' condition number, so the components are checked
    by :func:`_check_orthonormal` before they are returned.
    """
    _check_options(gamma=gamma, k=k)
    r_reg = cov.R + gamma * np.eye(cov.total_dim)
    m = np.empty_like(r_reg)
    kappa = 1.0  # the largest condition number of a shifted diagonal block
    for l, sl, w, q in _diag_eigs(r_reg, cov.dims):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            inverse = (q / w) @ q.T
        singular = w[0] <= 0.0 or w[-1] <= PD_RTOL * w[0]
        if singular or not np.isfinite(inverse).all():
            cause = "is singular" if singular else "has an inverse that overflows"
            raise RankDeficiencyError(
                f"diagonal covariance block of data set {l + 1} {cause} (smallest "
                f"eigenvalue {w[-1]:.3e} vs largest {w[0]:.3e}); "
                "use fit_two_step or gamma > 0"
            )
        m[sl, :] = inverse @ r_reg[sl, :]
        kappa = max(kappa, float(w[0] / w[-1]))
    values, vectors = general_eig_real(m)
    reg = RegularizationRecord(gamma=float(gamma), rank_tol=None, ranks=cov.dims)
    model = _finish(cov, values, vectors, k, ONE_STEP, reg, kappa)
    _check_orthonormal(cov, model, kappa)
    return model


def fit(
    data: MultiSetData | CovarianceBlocks,
    method: str = TWO_STEP,
    rank_tol: float = DEFAULT_RANK_TOL,
    gamma: float = 0.0,
    k: int | None = None,
) -> MccaModel:
    """Fit with ``method``: the one route dispatch.

    ``data`` is multi-set data, which is centered and reduced to its
    covariance blocks, or covariance blocks built already (as ``mcca fit``
    accumulates them from its input). The options are checked, on either
    route, before the covariance is built, by :func:`_check_options`.
    """
    _check_options(method, rank_tol, gamma, k)
    cov = data if isinstance(data, CovarianceBlocks) else covariance(data)
    if method == TWO_STEP:
        return fit_two_step(cov, rank_tol=rank_tol, gamma=gamma, k=k)
    return fit_one_step(cov, gamma=gamma, k=k)


def stationarity_residual(cov: CovarianceBlocks, model: MccaModel, n: int) -> float:
    """How far component ``n`` is from satisfying the optimality condition.

    At a solution, the averaged cross-covariance response of every set
    equals rho times its own-covariance response:
    (N - 1)^-1 sum_{k != l} R_lk v_k = (R_ll + gamma I) v_l rho.
    In matrix form the left side is (R - D) v / (N - 1), so the violation
    comes from one product with R and one blockwise product with D.
    Returns its max-norm, normalized by the largest covariance entry and
    the vector's max-norm; near zero at a true solution.

    Each set is first brought to unit scale by an exact power of two
    2^-e_l, from the largest entry of its diagonal block: block (l, k) of
    R is multiplied by 2^-(e_l + e_k), v_l by 2^e_l, and the ridge of
    block l becomes gamma 4^-e_l. A solution stays a solution, and set l's
    violation is multiplied by 2^-e_l, so the residual means the same
    whatever the scale of each set.
    """
    _check_component(n, model.n_components)
    if cov.dims != model.dims:
        raise DimensionError("covariance dims do not match model dims")
    rho = float(model.rho_analytic[n])
    exps = [np.frexp(float(np.abs(cov.R[sl, sl]).max()))[1] // 2 for sl in block_slices(cov.dims)]
    e = np.repeat(exps, cov.dims)
    unit = CovarianceBlocks(R=np.ldexp(cov.R, -np.add.outer(e, e)), dims=cov.dims, means=cov.means)
    v = np.ldexp(model.V[:, n], e)
    gamma = np.ldexp(model.reg.gamma, -2 * e)
    dv = unit.d_dot(v)
    g = (unit.R @ v - dv) / (cov.n_sets - 1) - (dv + gamma * v) * rho
    scale = max(float(np.abs(unit.R).max()), float(gamma.max()))
    vinf = float(np.abs(v).max())
    return float(np.abs(g).max()) / max(scale * vinf, np.finfo(np.float64).tiny)


def _finish(
    cov: CovarianceBlocks,
    values: np.ndarray,
    vectors: np.ndarray,
    k: int | None,
    method: str,
    reg: RegularizationRecord,
    kappa: float = 1.0,
) -> MccaModel:
    """Normalize, fix degenerate clusters, truncate to k, and wrap up.

    For a covariance, 0 <= R + gamma I <= N (D + gamma I) in the Loewner
    order, so an eigenvalue outside [0, N] by more than ``SPECTRUM_ATOL``
    raises DataError: the covariance is not positive semidefinite.
    Columns are scaled to v'(D + gamma I)v = 1, with D applied block by
    block. ``rho_empirical`` of all k kept columns comes from one batched
    covariance-form ISC of V on the unregularized covariance (the diagonals
    of V'(R - D)V and V'DV), NaN where a column's projected within-set
    variance is at roundoff (see :func:`metrics._isc_columns`).

    ``kappa``, the largest condition number of the diagonal blocks the
    route inverts (1 for the two-step route), widens the tie tolerance of
    :func:`_orthonormalize_ties`.
    """
    if values[-1] < -SPECTRUM_ATOL or values[0] > cov.n_sets + SPECTRUM_ATOL:
        raise DataError(
            f"covariance is not positive semidefinite: eigenvalues span "
            f"[{values[-1]:.3e}, {values[0]:.3e}], outside [0, {cov.n_sets}]"
        )
    q = np.einsum("ij,ij->j", vectors, cov.d_dot(vectors) + reg.gamma * vectors)
    if np.any(q <= 0.0):
        raise DegeneracyError("eigenvector with non-positive block-diagonal energy")
    vectors = vectors / np.sqrt(q)
    _orthonormalize_ties(values, vectors, cov, reg.gamma, kappa)
    fix_column_signs(vectors)

    available = int(values.shape[0])
    k = available if k is None else k
    if k > available:
        raise DimensionError(
            f"requested {k} components but only {available} are available"
        )
    values = values[:k]
    vectors = np.ascontiguousarray(vectors[:, :k])

    rho_a = (values - 1.0) / (cov.n_sets - 1)
    rho_e = _isc_columns(cov, vectors).rho
    return MccaModel(
        V=_freeze(vectors),
        lambdas=_freeze(values.copy()),
        rho_analytic=_freeze(rho_a),
        rho_empirical=_freeze(rho_e),
        dims=cov.dims,
        means=cov.means,
        method=method,
        reg=reg,
    )


def _orthonormalize_ties(
    values: np.ndarray, vectors: np.ndarray, cov: CovarianceBlocks, gamma: float, kappa: float = 1.0
) -> None:
    """Make near-degenerate clusters (D + gamma I)-orthonormal, in place.

    Eigenvectors for well-separated eigenvalues of the symmetric pencil are
    D-orthogonal automatically; within a degenerate cluster the backend's
    basis is arbitrary, so a symmetric orthogonalization pins it down
    without leaving the cluster's eigenspace.

    Values closer than max(``TIE_RTOL``, u kappa N) times the largest
    |value| form a cluster, where kappa is the largest condition number
    of the diagonal blocks the route inverted (1 for the two-step route's
    whitened blocks): a general eigensolver's values carry errors of
    about u kappa N.
    """
    rtol = max(TIE_RTOL, 0.5 * np.finfo(np.float64).eps * kappa * cov.n_sets)
    tol = rtol * max(abs(float(values[0])), abs(float(values[-1])))
    # a cluster ends where the next value falls by more than tol
    edges = np.flatnonzero(np.diff(values, prepend=np.inf, append=-np.inf) < -tol)
    for start, stop in pairwise(edges):
        if stop - start > 1:
            vc = vectors[:, start:stop]
            gram = vc.T @ (cov.d_dot(vc) + gamma * vc)
            gram = 0.5 * (gram + gram.T)
            w, qmat = np.linalg.eigh(gram)
            if w[0] <= 1e-12 * w[-1]:
                raise DegeneracyError(
                    "linearly dependent eigenvectors in a degenerate cluster"
                )
            vectors[:, start:stop] = vc @ (qmat / np.sqrt(w)) @ qmat.T


def _check_orthonormal(cov: CovarianceBlocks, model: MccaModel, kappa: float) -> None:
    """DegeneracyError unless the model's V'(D + gamma I)V is the identity
    within ``ORTHO_ATOL``: the one-step route's postcondition.

    The general eigensolver leaves errors of about u ``kappa`` in every
    column, so a tie it splits by more than the tie tolerance, or a column
    it gets wrong, can show anywhere in V'(D + gamma I)V, and all of it is
    checked.
    """
    v = model.V
    gram = v.T @ (cov.d_dot(v) + model.reg.gamma * v)
    worst = float(np.abs(gram - np.eye(model.n_components)).max())
    if not worst <= ORTHO_ATOL:
        raise DegeneracyError(
            f"one-step components are not (D + gamma I)-orthonormal: an entry of "
            f"V'(D + gamma I)V is {worst:.3e} from the identity's, beyond {ORTHO_ATOL:.0e} "
            f"(largest condition number of a shifted diagonal block {kappa:.3e}); "
            "use fit_two_step, which whitens each set instead of inverting its block"
        )
