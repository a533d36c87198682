"""Edge-case inputs on both routes: a model within bounds, or a typed refusal.

Each input is multi-set data that is finite but awkward: duplicated,
constant or nearly equal columns, sets of one column, T at the total rank,
a set with no variance, and a set scaled far from 1. Every fit must give
one of two results, with ``RuntimeWarning`` raised as an error. One is a
model within the bounds of acceptance criteria 4-5: V'(D + gamma I)V = I
within 1e-7, and every component's stationarity residual at most 1e-7.
The other is a DegeneracyError whose message names the set at fault,
always set 1 here.
"""

import dataclasses

import numpy as np
import pytest

import mcca
from helpers import random_instance
from mcca import DegeneracyError, RankDeficiencyError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BOUND = 1e-7


def sets_of(dims, t, seed=0):
    return [np.array(s) for s in random_instance(np.random.default_rng(seed), dims, t).sets]


def duplicated_column():
    s = sets_of((3, 2), 40)
    return [np.hstack([s[0], s[0][:, :1]]), *s[1:]]


def constant_column():
    s = sets_of((3, 2), 40)
    s[0][:, 1] = 5.0
    return s


def near_tied_columns():
    s = sets_of((3, 2), 40)
    noise = np.random.default_rng(1).standard_normal(40)
    return [np.hstack([s[0], s[0][:, :1] + 1e-9 * noise[:, None]]), *s[1:]]


def all_constant_set():
    s = sets_of((3, 2), 40)
    return [np.full((40, 3), 2.0), *s[1:]]


def scaled_set(factor):
    s = sets_of((3, 2, 2), 40)
    return [s[0] * factor, *s[1:]]


# name: (sets, gamma, routes expected to refuse)
CASES = {
    "duplicated column": (duplicated_column, 0.0, {"one-step"}),
    "constant column": (constant_column, 0.0, {"one-step"}),
    "three one-column sets": (lambda: sets_of((1, 1, 1), 30), 0.0, set()),
    "T = total rank + 1": (lambda: sets_of((3, 2), 6), 0.0, set()),
    "T = total rank": (lambda: sets_of((3, 2), 5), 0.0, set()),
    "columns equal up to 1e-9": (near_tied_columns, 0.0, {"one-step"}),
    "all-constant set": (all_constant_set, 0.0, {"one-step", "two-step"}),
    "duplicated column, gamma 1": (duplicated_column, 1.0, set()),
    "set scaled by 1e-150": (lambda: scaled_set(1e-150), 0.0, set()),
    "set scaled by 1e150": (lambda: scaled_set(1e150), 0.0, set()),
}


@pytest.mark.parametrize("method", ["two-step", "one-step"])
@pytest.mark.parametrize("case", list(CASES))
def test_model_within_bounds_or_typed_refusal(case, method):
    make, gamma, refused_by = CASES[case]
    cov = mcca.covariance(mcca.load(make()))
    if method in refused_by:
        with pytest.raises(DegeneracyError, match="data set 1"):
            mcca.fit(cov, method=method, gamma=gamma)
        return
    model = mcca.fit(cov, method=method, gamma=gamma)
    v = model.V
    gram = v.T @ (cov.d_dot(v) + gamma * v)
    assert np.abs(gram - np.eye(model.n_components)).max() <= BOUND
    residuals = [mcca.stationarity_residual(cov, model, n) for n in range(model.n_components)]
    assert max(residuals) <= BOUND


@pytest.mark.parametrize("method", ["two-step", "one-step"])
@pytest.mark.parametrize("factor", [1e-150, 1e150])
def test_scaled_set_keeps_the_spectrum(factor, method):
    # MCCA is invariant to the scale of each set, so scaling one set far
    # from 1 must leave the spectrum as it was
    base = mcca.fit(mcca.load(scaled_set(1.0)), method=method)
    model = mcca.fit(mcca.load(scaled_set(factor)), method=method)
    assert np.abs(model.lambdas - base.lambdas).max() <= BOUND


@pytest.mark.parametrize("method", ["two-step", "one-step"])
@pytest.mark.parametrize("factor", [1e-150, 1.0, 1e150])
def test_stationarity_residual_tells_right_from_wrong_at_any_scale(factor, method):
    cov = mcca.covariance(mcca.load(scaled_set(factor)))
    model = mcca.fit(cov, method=method)
    v = model.V.copy()
    v[cov.dims[0] :] *= 1.5  # the rows of the sets not scaled
    wrong = dataclasses.replace(model, V=v)
    assert mcca.stationarity_residual(cov, model, 0) <= BOUND
    assert mcca.stationarity_residual(cov, wrong, 0) > 1e-2


def test_one_step_names_the_set_whose_subnormal_block_overflows():
    # every set times 1e-160: each diagonal block of R is subnormal, so its
    # inverse overflows; the refusal names the first such set, with no warning
    rng = np.random.default_rng(5)
    signal = rng.standard_normal((500, 1))
    sets = [
        (signal @ rng.standard_normal((1, 4)) + rng.standard_normal((500, 4))) * 1e-160
        for _ in range(3)
    ]
    with pytest.raises(RankDeficiencyError, match="data set 1 has an inverse that overflows"):
        mcca.fit(mcca.load(sets), method="one-step")
