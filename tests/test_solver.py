import warnings

import numpy as np
import pytest

import mcca
from helpers import (
    dense_d,
    eigenvalue_clusters,
    isc_from_cov_loops,
    orthonormalize_ties_loop,
    principal_angle,
    random_instance,
    stationarity_residual_loops,
)
from mcca import (
    DataError,
    DegeneracyError,
    DegenerateSetError,
    DimensionError,
    RankDeficiencyError,
    covariance,
    covariance_from_matrix,
    fit_one_step,
    fit_two_step,
    load,
    stationarity_residual,
    transform,
    whiten,
)


def perfect_pair():
    x = np.array([1.0, 2.0, 3.0])
    return load([x, 3.0 * x])


class TestWhiten:
    def test_diagonal_blocks_become_identity(self):
        rng = np.random.default_rng(0)
        cov = covariance(load([rng.standard_normal((20, d)) for d in (3, 2, 4)]))
        wb = whiten(cov)
        offset = 0
        for r in wb.ranks:
            block = wb.rtilde[offset : offset + r, offset : offset + r]
            assert np.abs(block - np.eye(r)).max() <= 1e-8
            offset += r

    def test_truncation_drops_small_directions(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((15, 2))
        dup = np.hstack([base, base[:, :1]])
        cov = covariance(load([dup, rng.standard_normal((15, 2))]))
        wb = whiten(cov)
        assert wb.ranks == (2, 2)
        assert wb.eigvals[0][2] <= 1e-9 * wb.eigvals[0][0]

    def test_retained_values_above_threshold(self):
        rng = np.random.default_rng(2)
        cov = covariance(load([rng.standard_normal((12, 3)), rng.standard_normal((12, 3))]))
        wb = whiten(cov, rank_tol=1e-9)
        for vals, r in zip(wb.eigvals, wb.ranks):
            assert np.all(vals[:r] > 1e-9 * vals[0])

    def test_degenerate_set_named(self):
        data = load([np.ones((5, 2)), np.arange(5.0)])
        with pytest.raises(DegenerateSetError, match="data set 1 of 2"):
            whiten(covariance(data))

    @pytest.mark.parametrize(
        "r, cause",
        [
            ([[0.0, 0.0], [0.0, 1.0]], "its covariance block is zero"),
            ([[3 * 2.0**-1074, 0.0], [0.0, 1.0]], "all variance falls below the rank tolerance"),
        ],
        ids=["zero", "subnormal"],
    )
    def test_degenerate_set_cause_named(self, r, cause):
        # 0.9 times three of the smallest subnormal rounds back to three
        with pytest.raises(DegenerateSetError) as info:
            fit_two_step(covariance_from_matrix(r, (1, 1)), rank_tol=0.9)
        assert str(info.value) == f"data set 1 of 2 is degenerate: {cause}"

    def test_opts_validated(self):
        cov = covariance_from_matrix(np.eye(2), (1, 1))
        with pytest.raises(DataError):
            whiten(cov, rank_tol=0.0)
        with pytest.raises(DataError):
            whiten(cov, gamma=-1.0)


class TestFitTwoStep:
    def test_perfectly_correlated_pair(self):
        model = fit_two_step(covariance(perfect_pair()))
        assert np.abs(model.lambdas - np.array([2.0, 0.0])).max() <= 1e-12
        assert abs(model.rho_analytic[0] - 1.0) <= 1e-9

    def test_uncorrelated_pair(self):
        x1 = np.array([1.0, -1.0, 1.0, -1.0])
        x2 = np.array([1.0, 1.0, -1.0, -1.0])
        model = fit_two_step(covariance(load([x1, x2])))
        assert np.abs(model.lambdas - 1.0).max() <= 1e-12
        assert np.abs(model.rho_analytic).max() <= 1e-12

    def test_equicorrelation_analytic(self):
        c = 0.4
        r = np.full((3, 3), c)
        np.fill_diagonal(r, 1.0)
        cov = covariance_from_matrix(r, (1, 1, 1))
        model = fit_two_step(cov)
        # analytic spectrum 1 + 2c, 1 - c, 1 - c, confirmed by brute force
        brute = np.sort(np.linalg.eigvalsh(r))[::-1]
        assert abs(model.lambdas[0] - (1.0 + 2.0 * c)) <= 1e-12
        assert np.abs(model.lambdas - brute).max() <= 1e-12
        assert abs(model.rho_analytic[0] - c) <= 1e-12

    def test_matches_classical_cca(self):
        from helpers import cca_top_correlation

        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal((40, 4))
        y[:, 1] += 0.6 * x[:, 0]
        model = mcca.fit(load([x, y]))
        assert abs(model.rho_analytic[0] - cca_top_correlation(x, y)) <= 1e-9

    def test_k_selection(self):
        rng = np.random.default_rng(4)
        cov = covariance(load([rng.standard_normal((20, 3)), rng.standard_normal((20, 3))]))
        full = fit_two_step(cov)
        top2 = fit_two_step(cov, k=2)
        assert top2.n_components == 2
        assert np.abs(top2.lambdas - full.lambdas[:2]).max() <= 1e-12
        assert np.abs(top2.V - full.V[:, :2]).max() <= 1e-12

    def test_k_out_of_range(self):
        rng = np.random.default_rng(5)
        cov = covariance(load([rng.standard_normal((10, 2)), rng.standard_normal((10, 2))]))
        with pytest.raises(DimensionError):
            fit_two_step(cov, k=5)
        with pytest.raises(DimensionError):
            fit_two_step(cov, k=0)

    def test_model_is_frozen(self):
        model = fit_two_step(covariance(perfect_pair()))
        with pytest.raises(ValueError):
            model.V[0, 0] = 1.0
        with pytest.raises(ValueError):
            model.lambdas[0] = 9.0


class TestFitOneStep:
    def test_perfectly_correlated_pair(self):
        model = fit_one_step(covariance(perfect_pair()))
        assert np.abs(model.lambdas - np.array([2.0, 0.0])).max() <= 1e-10

    def test_identity_covariance(self):
        cov = covariance_from_matrix(np.eye(4), (2, 2))
        model = fit_one_step(cov)
        assert np.abs(model.lambdas - 1.0).max() <= 1e-12
        d_gram = model.V.T @ dense_d(cov) @ model.V
        assert np.abs(d_gram - np.eye(4)).max() <= 1e-7

    def test_singular_block_rejected_with_guidance(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((12, 2))
        dup = np.hstack([base, base[:, :1]])
        cov = covariance(load([dup, rng.standard_normal((12, 2))]))
        with pytest.raises(RankDeficiencyError, match="two_step|gamma"):
            fit_one_step(cov)

    def test_gamma_rescues_singular_block(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((12, 2))
        dup = np.hstack([base, base[:, :1]])
        cov = covariance(load([dup, rng.standard_normal((12, 2))]))
        model = fit_one_step(cov, gamma=1e-3 * np.abs(cov.R).max())
        assert model.n_components == 5

    def test_overflowing_inverse_rejected_with_guidance(self):
        data = random_instance(np.random.default_rng(5), (4, 4, 4), 500)
        tiny = covariance(load([s * 1e-160 for s in data.sets]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RankDeficiencyError, match=r"data set \d.*fit_two_step"):
                fit_one_step(tiny)

    def test_degenerate_ties_still_decorrelated(self):
        r = np.eye(4)
        r[0, 2] = r[2, 0] = 0.5
        r[1, 3] = r[3, 1] = 0.5
        cov = covariance_from_matrix(r, (2, 2))
        model = fit_one_step(cov)
        assert np.abs(model.lambdas - np.array([1.5, 1.5, 0.5, 0.5])).max() <= 1e-12
        gram = model.V.T @ dense_d(cov) @ model.V
        assert np.abs(gram - np.eye(4)).max() <= 1e-10


class TestOrthonormalizeTies:
    # TIE_RTOL * 3 = 3e-10 is the tie tolerance for these spectra
    @pytest.mark.parametrize(
        "values, clusters",
        [
            ([3.0, 3.0 - 1e-12, 2.0, 1.5, 1.0, 0.5], [(0, 2)]),
            ([3.0, 2.0, 1.5, 1.0, 0.5, 0.5 - 1e-12], [(4, 6)]),
            ([3.0, 2.0, 2.0 - 2e-10, 2.0 - 4e-10, 2.0 - 6e-10, 1.0], [(1, 5)]),
            ([3.0, 2.5, 2.0, 1.5, 1.0, 0.5], []),
            ([3.0, 2.0, 2.0 - 4e-10, 1.5, 1.0, 0.5], []),
        ],
        ids=["first", "last", "chain", "none", "gap_over_tol"],
    )
    def test_matches_per_value_loop(self, values, clusters):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((20, 6))
        cov = covariance_from_matrix(x.T @ x, (3, 3))
        values = np.array(values)
        before = rng.standard_normal((6, 6))
        want = before.copy()
        orthonormalize_ties_loop(values, want, cov, 0.25)
        got = before.copy()
        mcca.solver._orthonormalize_ties(values, got, cov, 0.25)
        assert np.array_equal(got, want)
        changed = [j for j in range(6) if not np.array_equal(got[:, j], before[:, j])]
        assert changed == [j for a, b in clusters for j in range(a, b)]


def near_tied_pair(seed):
    """Two sets, 2 and 5 dims, sharing one signal, with a column of set 2
    repeated times (1 + 1e-9): three eigenvalues are exactly 1, and set 2's
    block, shifted by gamma = 1e-3, has a condition number near 1e7."""
    rng = np.random.default_rng(seed)
    t = int(rng.integers(8, 16))
    s = rng.standard_normal((t, 1))
    x = rng.standard_normal((t, 2)) + 10 * s @ rng.standard_normal((1, 2))
    y = rng.standard_normal((t, 5)) + 10 * s @ rng.standard_normal((1, 5))
    y[:, 4] = y[:, 0] * (1 + 1e-9)
    return covariance(load([x, y]))


def d_orthonormality_error(cov, model):
    """max |V'(D + gamma I)V - I| of a model."""
    d = dense_d(cov) + model.reg.gamma * np.eye(cov.total_dim)
    return float(np.abs(model.V.T @ d @ model.V - np.eye(model.n_components)).max())


class TestOneStepOrthonormality:
    """Criterion 4 on the one-step route with gamma > 0: ties joined within
    the general eigensolver's accuracy, and a refusal where that is not enough."""

    def test_ties_within_the_solvers_accuracy_are_joined(self):
        cov = near_tied_pair(0)
        model = fit_one_step(cov, gamma=1e-3)
        assert np.abs(model.lambdas[2:5] - 1.0).max() <= 1e-8
        assert d_orthonormality_error(cov, model) <= 1e-7

    def test_every_seed_fits_within_the_bound_or_is_refused(self):
        refused = 0
        for seed in range(400):
            cov = near_tied_pair(seed)
            try:
                model = fit_one_step(cov, gamma=1e-3)
            except DegeneracyError as exc:
                assert "one-step components are not (D + gamma I)-orthonormal" in str(exc)
                refused += 1
                continue
            assert d_orthonormality_error(cov, model) <= 1e-7, seed
        assert refused < 100

    def test_refusal_names_the_worst_entry_and_kappa(self):
        # seed 5 leaves 2.6e-7 between the top component and the tie at 1
        cov = near_tied_pair(5)
        w = np.linalg.eigvalsh(dense_d(cov)[2:, 2:] + 1e-3 * np.eye(5))
        with pytest.raises(DegeneracyError) as info:
            fit_one_step(cov, gamma=1e-3)
        worst = float(str(info.value).split("V'(D + gamma I)V is ")[1].split()[0])
        assert 1e-7 < worst < 1e-5
        assert f"{w[-1] / w[0]:.3e}" in str(info.value)
        assert "use fit_two_step" in str(info.value)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_two_step_route_meets_the_bound(self, seed):
        cov = near_tied_pair(seed)
        assert d_orthonormality_error(cov, fit_two_step(cov, gamma=1e-3)) <= 1e-7


class TestRouteEquivalence:
    def test_eigenvalues_and_subspaces(self):
        rng = np.random.default_rng(8)
        cases = [
            ((1, 1), 2),
            ((2, 4), 3),
            ((2, 2, 4), 5),
            ((1, 2, 4, 2, 1), 7),
        ]
        for dims, seed_shift in cases:
            data = random_instance(
                np.random.default_rng(100 + seed_shift), dims, sum(dims) + 15
            )
            cov = covariance(data)
            m2 = fit_two_step(cov)
            m1 = fit_one_step(cov)
            scale = max(abs(m2.lambdas[0]), 1.0)
            assert np.abs(m1.lambdas - m2.lambdas).max() <= 1e-7 * scale
            for group in eigenvalue_clusters(m2.lambdas, 1e-6):
                angle = principal_angle(m2.V[:, group], m1.V[:, group])
                assert angle < 1e-5

    def test_gamma_consistency_across_routes(self):
        rng = np.random.default_rng(9)
        data = random_instance(rng, (3, 2, 3), 30)
        cov = covariance(data)
        gamma = 0.05 * float(np.abs(cov.R).max())
        m2 = fit_two_step(cov, gamma=gamma)
        m1 = fit_one_step(cov, gamma=gamma)
        assert np.abs(m1.lambdas - m2.lambdas).max() <= 1e-7 * max(m2.lambdas[0], 1.0)


class TestModelInvariants:
    def test_lambda_rho_consistency(self):
        for seed, dims in ((0, (1, 1)), (1, (2, 3)), (2, (2, 2, 2)), (3, (4, 1, 3, 2, 2))):
            data = random_instance(np.random.default_rng(seed), dims, 40)
            model = mcca.fit(data)
            proj = transform(model, data)
            n_sets = len(dims)
            for n in range(model.n_components):
                rho = mcca.isc(proj, n).rho
                expect = (model.lambdas[n] - 1.0) / (n_sets - 1)
                assert abs(rho - expect) <= 1e-8

    def test_decorrelation(self):
        for seed, dims in ((4, (2, 2)), (5, (3, 4, 2)), (6, (1, 1, 1, 1))):
            data = random_instance(np.random.default_rng(seed), dims, 35)
            cov = covariance(data)
            model = fit_two_step(cov)
            gram = model.V.T @ dense_d(cov) @ model.V
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() <= 1e-7
            assert np.abs(np.diag(gram) - 1.0).max() <= 1e-7

    def test_eigenvalue_range(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n_sets = int(rng.integers(2, 6))
            dims = tuple(int(rng.integers(1, 4)) for _ in range(n_sets))
            data = random_instance(rng, dims, sum(dims) + 10)
            model = mcca.fit(data)
            assert model.lambdas[0] <= n_sets + 1e-8
            assert model.lambdas[-1] >= -1e-8
            assert model.rho_analytic[0] <= 1.0 + 1e-8
            assert model.rho_analytic[-1] >= -1.0 / (n_sets - 1) - 1e-8

    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    @pytest.mark.parametrize(
        "r, dims, span",
        [
            ([[1, 2], [2, 1]], (1, 1), r"\[-1.000e\+00, 3.000e\+00\], outside \[0, 2\]"),
            ([[1, 0.9, 0.9], [0.9, 1, -0.9], [0.9, -0.9, 1]], (1, 1, 1),
             r"\[-8.000e-01, 1.900e\+00\], outside \[0, 3\]"),
        ],
    )
    def test_indefinite_covariance_refused(self, method, r, dims, span):
        # lambda of a covariance lies in [0, N]; these give rho = +-2 or lambda < 0
        match = "covariance is not positive semidefinite: eigenvalues span " + span
        with pytest.raises(DataError, match=match):
            mcca.fit(covariance_from_matrix(r, dims), method=method)

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        sets = [rng.standard_normal((30, d)) for d in (3, 2, 4)]
        shared = rng.standard_normal(30)
        sets = [s + 0.7 * np.outer(shared, rng.standard_normal(s.shape[1])) for s in sets]
        base = mcca.fit(load(sets))
        mixed = []
        for s in sets:
            d = s.shape[1]
            a = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
            mixed.append(s @ a + rng.standard_normal(d))
        moved = mcca.fit(load(mixed))
        scale = max(base.lambdas[0], 1.0)
        assert np.abs(base.lambdas - moved.lambdas).max() <= 1e-7 * scale

    def test_rank_deficient_robustness(self):
        rng = np.random.default_rng(12)
        sets = [rng.standard_normal((25, 3)), rng.standard_normal((25, 2))]
        shared = rng.standard_normal(25)
        sets = [s + 0.5 * np.outer(shared, rng.standard_normal(s.shape[1])) for s in sets]
        base = mcca.fit(load(sets))
        dup = [np.hstack([sets[0], sets[0][:, 1:2]]), sets[1]]
        redundant = mcca.fit(load(dup))
        assert redundant.n_components == base.n_components
        assert np.abs(base.lambdas - redundant.lambdas).max() <= 1e-6

    def test_unnormalized_vs_normalized_covariance(self):
        # inserting the 1/(T-1) factor leaves lambda and rho unchanged and
        # rescales eigenvectors only
        rng = np.random.default_rng(13)
        data = random_instance(rng, (2, 3), 20)
        cov = covariance(data)
        scaled = covariance_from_matrix(cov.R / 19.0, cov.dims)
        a = fit_two_step(cov)
        b = fit_two_step(scaled)
        assert np.abs(a.lambdas - b.lambdas).max() <= 1e-9
        assert np.abs(b.V - np.sqrt(19.0) * a.V).max() <= 1e-6 * np.abs(b.V).max()

    def test_maximality_of_top_component(self):
        rng = np.random.default_rng(14)
        data = random_instance(rng, (2, 3, 2), 30)
        cov = covariance(data)
        model = fit_two_step(cov)
        v = model.V[:, 0]
        rho = mcca.isc_from_cov(cov, v).rho
        for _ in range(200):
            delta = rng.standard_normal(v.shape[0])
            delta *= 1e-2 * np.linalg.norm(v) / np.linalg.norm(delta)
            perturbed = mcca.isc_from_cov(cov, v + delta).rho
            assert perturbed <= rho + 1e-9


class TestStationarityResidual:
    def test_exact_solution(self):
        rng = np.random.default_rng(15)
        data = random_instance(rng, (3, 2, 2), 30)
        cov = covariance(data)
        for model in (fit_two_step(cov), fit_one_step(cov)):
            for n in range(model.n_components):
                assert stationarity_residual(cov, model, n) <= 1e-8

    def test_perturbed_solution_detected(self):
        rng = np.random.default_rng(16)
        data = random_instance(rng, (3, 3), 30)
        cov = covariance(data)
        model = fit_two_step(cov)
        v = model.V.copy()
        v[:, 0] += 1e-3 * np.abs(v[:, 0]).max() * rng.standard_normal(v.shape[0])
        bent = mcca.MccaModel(
            V=v,
            lambdas=model.lambdas,
            rho_analytic=model.rho_analytic,
            rho_empirical=model.rho_empirical,
            dims=model.dims,
            means=model.means,
            method=model.method,
            reg=model.reg,
        )
        assert stationarity_residual(cov, bent, 0) > 1e-6

    def test_perfect_pair_top_component(self):
        cov = covariance(perfect_pair())
        model = fit_two_step(cov)
        assert stationarity_residual(cov, model, 0) <= 1e-8

    def test_index_validated(self):
        cov = covariance(perfect_pair())
        model = fit_two_step(cov)
        with pytest.raises(DimensionError):
            stationarity_residual(cov, model, 5)

    @pytest.mark.parametrize("n", [0.5, 1.0, True, -1, 2])
    def test_index_must_be_an_integer_in_range(self, n):
        cov = covariance(perfect_pair())
        model = fit_two_step(cov)
        assert model.n_components == 2
        with pytest.raises(DimensionError, match=r"component index must be an integer in \[0, 2\)"):
            stationarity_residual(cov, model, n)

    def test_covariance_dims_must_match_model(self):
        model = fit_two_step(covariance(perfect_pair()))
        cov = covariance_from_matrix(np.eye(3), (1, 2))
        with pytest.raises(DimensionError, match="covariance dims do not match model dims"):
            stationarity_residual(cov, model, 0)

    def test_numpy_integer_index(self):
        cov = covariance(perfect_pair())
        model = fit_two_step(cov)
        assert stationarity_residual(cov, model, np.int64(1)) == stationarity_residual(cov, model, 1)


def constant_set_instance():
    """Sets of 3 and 2 noise columns plus a set of 2 constant columns."""
    rng = np.random.default_rng(19)
    return load(
        [
            rng.standard_normal((200, 3)),
            rng.standard_normal((200, 2)),
            np.tile(rng.standard_normal(2), (200, 1)),
        ]
    )


class TestCovarianceAlgebra:
    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    @pytest.mark.parametrize(
        "case, gamma", [("shared", 0.0), ("shared", 0.5), ("constant", 0.5)]
    )
    def test_matches_block_loops(self, method, case, gamma):
        if case == "shared":
            data = random_instance(np.random.default_rng(20), (1, 3, 2), 60)
        else:
            data = constant_set_instance()
        cov = covariance(data)
        model = mcca.fit(data, method=method, gamma=gamma)
        ref = [isc_from_cov_loops(cov, model.V[:, n]) for n in range(model.n_components)]
        ref_rho = np.array([r[2] for r in ref])
        assert np.array_equal(np.isnan(model.rho_empirical), np.isnan(ref_rho))
        assert np.isnan(ref_rho).sum() == (2 if case == "constant" else 0)
        ok = ~np.isnan(ref_rho)
        assert np.abs(model.rho_empirical[ok] - ref_rho[ok]).max() <= 1e-12
        for n in np.flatnonzero(ok):
            out = mcca.isc_from_cov(cov, model.V[:, n])
            r_between, r_within, rho = ref[n]
            assert abs(out.rho - rho) <= 1e-12
            assert abs(out.r_between - r_between) <= 1e-12 * r_within
            assert abs(out.r_within - r_within) <= 1e-12 * r_within
        for n in range(model.n_components):
            assert abs(
                stationarity_residual(cov, model, n)
                - stationarity_residual_loops(cov, model, n)
            ) <= 1e-12

    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    def test_noiseless_ridge_fit_reads_no_rho_above_one(self, method):
        # most components lie in D's null space, where u'Du is rounding alone
        spec = mcca.SynthSpec(seed=911, dims=(16,) * 4, n_exemplars=6000, n_components=1)
        model = mcca.fit(mcca.generate(spec).data, method=method, gamma=0.5)
        rho = model.rho_empirical
        assert np.all(np.isnan(rho) | (rho <= 1 + 1e-12))

    def test_tiny_scale_raises_no_runtime_warning(self):
        data = random_instance(np.random.default_rng(21), (4, 4, 4), 500)
        tiny = load([s * 1e-160 for s in data.sets])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = mcca.fit(tiny)
            out = mcca.isc_from_cov(covariance(tiny), model.V[:, 0])
        assert np.isfinite(model.rho_empirical).all()
        assert abs(out.rho - model.rho_empirical[0]) <= 1e-12


class TestOptionTypes:
    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    @pytest.mark.parametrize(
        "opt, value",
        [("gamma", "1"), ("gamma", None), ("gamma", True), ("k", 2.5), ("k", 2.0), ("k", True), ("k", "2")],
    )
    def test_bad_types_named(self, method, opt, value):
        data = random_instance(np.random.default_rng(19), (2, 2), 25)
        with pytest.raises(DataError, match=opt):
            mcca.fit(data, method=method, **{opt: value})

    @pytest.mark.parametrize("value", ["x", None, True])
    def test_bad_rank_tol_named(self, value):
        data = random_instance(np.random.default_rng(19), (2, 2), 25)
        with pytest.raises(DataError, match="rank_tol"):
            mcca.fit(data, rank_tol=value)

    @pytest.mark.parametrize("value", ["x", None, 0, 1])
    def test_one_step_checks_rank_tol(self, value):
        data = random_instance(np.random.default_rng(19), (2, 2), 25)
        with pytest.raises(DataError, match="rank_tol"):
            mcca.fit(data, method="one-step", rank_tol=value)

    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    def test_numpy_scalars_accepted(self, method):
        data = random_instance(np.random.default_rng(19), (2, 2), 25)
        plain = mcca.fit(data, method=method, rank_tol=1e-9, gamma=0.5, k=2)
        numpy = mcca.fit(data, method=method, rank_tol=np.float32(1e-9), gamma=np.float64(0.5), k=np.int64(2))
        assert np.array_equal(plain.V, numpy.V)
        assert type(numpy.reg.gamma) is float and numpy.reg.gamma == 0.5
        assert mcca.fit(data, method=method, gamma=np.int64(0)).reg.gamma == 0.0

    @pytest.mark.parametrize("route", [fit_two_step, fit_one_step])
    @pytest.mark.parametrize("value", [10**20, 2**64])
    def test_huge_integer_gamma_fits_as_its_float(self, route, value):
        cov = covariance(random_instance(np.random.default_rng(19), (2, 2), 25))
        model = route(cov, gamma=value)
        assert model.reg.gamma == float(value)
        assert np.array_equal(model.V, route(cov, gamma=float(value)).V)

    @pytest.mark.parametrize("route", [mcca.fit, fit_two_step, fit_one_step, whiten])
    @pytest.mark.parametrize("value", [-(2**63) - 1, 10**400], ids=["-2**63-1", "1e400"])
    def test_integer_gamma_out_of_float_range_refused(self, route, value):
        cov = covariance(random_instance(np.random.default_rng(19), (2, 2), 25))
        with pytest.raises(DataError, match="gamma must be a finite number >= 0, got"):
            route(cov, gamma=value)


class TestFitFrontend:
    def test_method_dispatch(self):
        data = perfect_pair()
        assert mcca.fit(data, method="two-step").method == "two-step"
        assert mcca.fit(data, method="one-step").method == "one-step"
        with pytest.raises(DataError):
            mcca.fit(data, method="magic")

    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    def test_covariance_blocks_fit_as_their_data(self, method):
        data = random_instance(np.random.default_rng(23), (2, 3), 30)
        from_data = mcca.fit(data, method=method, k=2)
        from_cov = mcca.fit(mcca.covariance(data), method=method, k=2)
        assert np.array_equal(from_cov.V, from_data.V)
        assert all(np.array_equal(a, b) for a, b in zip(from_cov.means, from_data.means))

    @pytest.mark.parametrize(
        "opt, value",
        [("method", "nope"), ("gamma", -1.0), ("rank_tol", 2.0), ("k", 2.5), ("k", True)],
    )
    def test_options_checked_before_covariance(self, monkeypatch, opt, value):
        def refuse(data):
            raise AssertionError("covariance built before the options were checked")

        monkeypatch.setattr(mcca.solver, "covariance", refuse)
        with pytest.raises(DataError, match=opt):
            mcca.fit(perfect_pair(), **{opt: value})

    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_checked_before_covariance(self, monkeypatch, method, k):
        def refuse(data):
            raise AssertionError("covariance built before k was checked")

        monkeypatch.setattr(mcca.solver, "covariance", refuse)
        with pytest.raises(DimensionError, match=f"k must be at least 1, got {k}"):
            mcca.fit(perfect_pair(), method=method, k=k)

    @pytest.mark.parametrize("route", [fit_two_step, fit_one_step])
    def test_k_below_one_checked_before_eigensolve(self, monkeypatch, route):
        cov = covariance(perfect_pair())

        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve run before k was checked")

        monkeypatch.setattr(mcca.solver, "sym_eig", refuse)
        with pytest.raises(DimensionError, match="k must be at least 1, got 0"):
            route(cov, k=0)

    def test_rho_empirical_stored(self):
        rng = np.random.default_rng(17)
        data = random_instance(rng, (2, 2), 25)
        model = mcca.fit(data)
        assert np.abs(model.rho_empirical - model.rho_analytic).max() <= 1e-8

    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    def test_largest_finite_gamma_gives_the_ridge_limit(self, method):
        # R + gamma I stays finite, but a + a.T of it would overflow
        data = random_instance(np.random.default_rng(19), (3, 3, 3), 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = mcca.fit(data, method=method, gamma=1e308)
        assert np.abs(model.lambdas - 1.0).max() <= 1e-14
        assert np.abs(model.rho_analytic).max() <= 1e-14
        assert np.isfinite(model.rho_empirical).all()

    def test_gamma_separates_analytic_and_empirical(self):
        rng = np.random.default_rng(18)
        data = random_instance(rng, (3, 3), 30)
        cov = covariance(data)
        gamma = 0.5 * float(np.abs(cov.R).max())
        model = fit_two_step(cov, gamma=gamma)
        # heavy shrinkage pulls analytic rho toward 0; empirical stays put
        assert model.rho_analytic[0] < model.rho_empirical[0]
