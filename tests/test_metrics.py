import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcca
from helpers import isc_literal
from mcca import (
    DataError,
    DimensionError,
    MccaModel,
    Projections,
    RegularizationRecord,
    UndefinedIscError,
    covariance,
    isc,
    isc_from_cov,
    load,
    transform,
)


def manual_model(v_blocks, means, method="two-step", gamma=0.0):
    """Assemble a model directly from per-set projection blocks."""
    v = np.vstack(v_blocks)
    k = v.shape[1]
    dims = tuple(b.shape[0] for b in v_blocks)
    return MccaModel(
        V=v,
        lambdas=np.ones(k),
        rho_analytic=np.zeros(k),
        rho_empirical=np.zeros(k),
        dims=dims,
        means=tuple(np.asarray(m, dtype=float) for m in means),
        method=method,
        reg=RegularizationRecord(gamma=gamma, rank_tol=1e-9, ranks=dims),
    )


class TestTransform:
    def test_identity_on_1d_sets(self):
        x1 = np.array([1.0, 2.0, 3.0])
        x2 = np.array([5.0, 5.0, 8.0])
        data = load([x1, x2])
        model = manual_model(
            [np.array([[1.0]]), np.array([[1.0]])],
            [[x1.mean()], [x2.mean()]],
        )
        proj = transform(model, data)
        assert np.allclose(proj.signals[0][:, 0], x1 - x1.mean())
        assert np.allclose(proj.signals[1][:, 0], x2 - x2.mean())

    def test_linearity_in_v(self):
        rng = np.random.default_rng(0)
        data = load([rng.standard_normal((6, 2)), rng.standard_normal((6, 3))])
        blocks = [rng.standard_normal((2, 2)), rng.standard_normal((3, 2))]
        means = [np.zeros(2), np.zeros(3)]
        base = transform(manual_model(blocks, means), data)
        scaled = transform(manual_model([3.0 * b for b in blocks], means), data)
        for a, b in zip(base.signals, scaled.signals):
            assert np.abs(3.0 * a - b).max() <= 1e-12

    def test_training_means_applied_to_new_data(self):
        rng = np.random.default_rng(1)
        train = load([rng.standard_normal((30, 2)) + 5.0, rng.standard_normal((30, 2))])
        model = mcca.fit(train)
        fresh = load([rng.standard_normal((4, 2)), rng.standard_normal((4, 2))])
        direct = transform(model, fresh)
        # centering new data by its own means must not change the result
        recentred = transform(model, mcca.center(fresh))
        for a, b in zip(direct.signals, recentred.signals):
            assert np.abs(a - b).max() <= 1e-10

    def test_dimension_mismatch_names_set(self):
        model = manual_model(
            [np.ones((2, 1)), np.ones((3, 1))], [np.zeros(2), np.zeros(3)]
        )
        data = load([np.zeros((4, 2)), np.zeros((4, 2))])
        with pytest.raises(DimensionError, match="set 2"):
            transform(model, data)

    def test_set_count_mismatch(self):
        model = manual_model(
            [np.ones((2, 1)), np.ones((3, 1))], [np.zeros(2), np.zeros(3)]
        )
        data = load([np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((4, 1))])
        with pytest.raises(DimensionError, match="data has 3 sets, model expects 2"):
            transform(model, data)


class TestIsc:
    def test_identical_signals_three_sets(self):
        y = np.arange(5.0).reshape(5, 1)
        out = isc(Projections((y, y.copy(), y.copy())), 0)
        assert abs(out.rho - 1.0) <= 1e-12

    def test_anticorrelated_pair(self):
        y = np.array([[1.0], [2.0], [4.0]])
        out = isc(Projections((y, -y)), 0)
        assert abs(out.rho + 1.0) <= 1e-12

    def test_hand_case_verified_by_brute_force(self):
        y1 = [1.0, 2.0, 3.0]
        y2 = [1.0, 3.0, 2.0]
        rb, rw, rho = isc_literal([y1, y2])
        # independent literal sums first
        assert rb == 2.0 and rw == 4.0 and rho == 0.5
        out = isc(
            Projections((np.array(y1).reshape(3, 1), np.array(y2).reshape(3, 1))), 0
        )
        assert abs(out.r_between - 2.0) <= 1e-12
        assert abs(out.r_within - 4.0) <= 1e-12
        assert abs(out.rho - 0.5) <= 1e-12

    def test_matches_literal_sums_random(self):
        rng = np.random.default_rng(2)
        for n_sets in (2, 3, 5):
            cols = [rng.standard_normal(7) for _ in range(n_sets)]
            rb, rw, rho = isc_literal(cols)
            out = isc(Projections(tuple(c.reshape(7, 1) for c in cols)), 0)
            assert abs(out.r_between - rb) <= 1e-10 * max(1.0, abs(rb))
            assert abs(out.r_within - rw) <= 1e-10 * rw
            assert abs(out.rho - rho) <= 1e-10

    def test_one_dimensional_signals_rejected(self):
        with pytest.raises(DimensionError, match="common T x K shape"):
            isc(Projections((np.ones(5), np.arange(5.0))), 0)

    def test_list_signals_score_as_arrays(self):
        y1 = [[1.0, 0.5], [2.0, -1.0], [4.0, 3.0]]
        y2 = [[1.0, 2.0], [3.0, 0.0], [4.5, 1.0]]
        lists = Projections((y1, y2))
        arrays = Projections((np.array(y1), np.array(y2)))
        for n in (0, 1):
            assert isc(lists, n) == isc(arrays, n)

    def test_array_signals_kept_without_copy(self):
        y = np.arange(6.0).reshape(3, 2)
        z = -y
        proj = Projections((y, z))
        assert proj.signals[0] is y and proj.signals[1] is z

    @pytest.mark.parametrize("bad", ["abc", [["a"], ["b"]], [[1.0], [2.0, 3.0]], [[{}], [1.0]]])
    def test_unconvertible_signals_name_the_set(self, bad):
        with pytest.raises(DataError, match="signal block of set 2 is not a numeric array"):
            Projections(([[1.0], [2.0]], bad))

    def test_non_finite_signals_rejected(self):
        y = np.arange(10.0).reshape(5, 2)
        z = -y
        z[2, 1] = np.nan
        proj = Projections((y, z))
        assert np.isfinite(isc(proj, 0).rho)
        with pytest.raises(DataError, match="signal block of component 1 contains non-finite entries"):
            isc(proj, 1)

    def test_constant_signals_rejected(self):
        y = np.ones((4, 1))
        with pytest.raises(UndefinedIscError):
            isc(Projections((y, y.copy())), 0)

    def test_component_index_validated(self):
        y = np.zeros((3, 2))
        with pytest.raises(DimensionError):
            isc(Projections((y, y.copy())), 2)

    @pytest.mark.parametrize("n", [0.5, 1.0, True, -1, 2])
    def test_component_index_must_be_an_integer_in_range(self, n):
        y = np.arange(6.0).reshape(3, 2)
        with pytest.raises(DimensionError, match=r"component index must be an integer in \[0, 2\)"):
            isc(Projections((y, -y)), n)

    def test_numpy_integer_component_index(self):
        y = np.arange(6.0).reshape(3, 2)
        proj = Projections((y, -y))
        assert isc(proj, np.int64(1)) == isc(proj, 1)

    def test_recenters_by_own_means(self):
        rng = np.random.default_rng(3)
        y1 = rng.standard_normal((8, 1))
        y2 = rng.standard_normal((8, 1))
        base = isc(Projections((y1, y2)), 0)
        shifted = isc(Projections((y1 + 100.0, y2 - 50.0)), 0)
        assert abs(base.rho - shifted.rho) <= 1e-6

    def test_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n_sets = int(rng.integers(2, 6))
            cols = tuple(rng.standard_normal((6, 1)) for _ in range(n_sets))
            out = isc(Projections(cols), 0)
            assert out.rho <= 1.0 + 1e-10
            assert out.r_within > 0

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(min_value=0.01, max_value=100.0), flip=st.booleans())
    def test_common_scaling_leaves_rho_unchanged(self, c, flip):
        rng = np.random.default_rng(5)
        cols = tuple(rng.standard_normal((9, 1)) for _ in range(3))
        factor = -c if flip else c
        base = isc(Projections(cols), 0)
        scaled = isc(Projections(tuple(factor * y for y in cols)), 0)
        assert abs(base.rho - scaled.rho) <= 1e-9

    @staticmethod
    def _correlated_columns():
        rng = np.random.default_rng(5)
        cols = [rng.standard_normal((500, 1)) for _ in range(3)]
        cols[1] += 0.7 * cols[0]
        return cols

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_exact_under_power_of_two_scaling(self, k):
        cols = self._correlated_columns()
        base = isc(Projections(tuple(cols)), 0)
        scaled = isc(Projections(tuple(np.ldexp(c, k) for c in cols)), 0)
        assert scaled.rho == base.rho
        for got, unscaled in ((scaled.r_within, base.r_within), (scaled.r_between, base.r_between)):
            with np.errstate(over="ignore"):
                want = np.ldexp(unscaled, 2 * k)
            assert got == want  # np.ldexp reads ±inf past the float range
        assert np.isinf(scaled.r_within) == (k == 1000)

    @pytest.mark.parametrize("s", [1e155, 1e-155, 1e200, 1e-200, 1e300, 1e-300])
    def test_decimal_scales_keep_rho(self, s):
        cols = self._correlated_columns()
        base = isc(Projections(tuple(cols)), 0)
        scaled = isc(Projections(tuple(s * c for c in cols)), 0)
        assert abs(scaled.rho - base.rho) <= 1e-14
        for got, unscaled in ((scaled.r_within, base.r_within), (scaled.r_between, base.r_between)):
            with np.errstate(over="ignore"):
                want = unscaled * s * s  # ±inf or 0 past the float range
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_one_exemplar_rejected(self):
        y = np.ones((1, 1))
        with pytest.raises(DimensionError, match="need at least 2 exemplars, got 1"):
            isc(Projections((y, y.copy())), 0)

    def test_single_set_scaling_recomputed(self):
        rng = np.random.default_rng(6)
        cols = [rng.standard_normal(10) for _ in range(3)]
        scaled_cols = [2.0 * cols[0]] + cols[1:]
        out = isc(Projections(tuple(c.reshape(10, 1) for c in scaled_cols)), 0)
        rb, rw, rho = isc_literal(scaled_cols)
        assert abs(out.r_between - rb) <= 1e-9 * max(1.0, abs(rb))
        assert abs(out.r_within - rw) <= 1e-9 * rw
        assert abs(out.rho - rho) <= 1e-10


class TestIscFromCov:
    def test_eigenpair_identity(self):
        rng = np.random.default_rng(7)
        data = load([rng.standard_normal((25, d)) for d in (2, 3, 2)])
        cov = covariance(data)
        model = mcca.fit_two_step(cov)
        out = isc_from_cov(cov, model.V[:, 0])
        assert abs(out.rho - model.rho_analytic[0]) <= 1e-10

    def test_zero_cross_blocks(self):
        r = np.eye(4) * 2.0
        cov = mcca.covariance_from_matrix(r, (2, 2))
        out = isc_from_cov(cov, np.ones(4))
        assert out.r_between == 0.0 and out.rho == 0.0

    def test_path_equality_with_signal_isc(self):
        rng = np.random.default_rng(8)
        for dims in ((1, 1), (2, 3), (2, 2, 2), (1, 2, 3, 1, 2)):
            sets = [rng.standard_normal((12, d)) for d in dims]
            data = load(sets)
            cov = covariance(data)
            v = rng.standard_normal(sum(dims))
            from_cov = isc_from_cov(cov, v)
            offset = 0
            cols = []
            for s in sets:
                d = s.shape[1]
                cols.append((s - s.mean(axis=0)) @ v[offset : offset + d])
                offset += d
            from_signals = isc(Projections(tuple(c.reshape(12, 1) for c in cols)), 0)
            assert abs(from_cov.rho - from_signals.rho) <= 1e-10
            assert abs(from_cov.r_between - from_signals.r_between) <= 1e-10 * max(
                1.0, abs(from_signals.r_between)
            )

    @pytest.mark.parametrize("k", [-500, -1, 0, 1, 500])
    def test_exact_under_power_of_two_scaling(self, k):
        rng = np.random.default_rng(9)
        cov = covariance(load([rng.standard_normal((20, d)) for d in (2, 3, 2)]))
        v = rng.standard_normal(7)
        base, scaled = isc_from_cov(cov, v), isc_from_cov(cov, np.ldexp(v, k))
        assert scaled.r_between == np.ldexp(base.r_between, 2 * k)
        assert scaled.r_within == np.ldexp(base.r_within, 2 * k)
        assert scaled.rho == base.rho

    def test_sums_beyond_the_float_range_overflow_silently(self):
        cov = mcca.covariance_from_matrix(np.eye(4) + 0.5, (2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = isc_from_cov(cov, np.full(4, 1e300))
        assert out.r_between == out.r_within == np.inf
        assert out.rho == isc_from_cov(cov, np.ones(4)).rho == 0.5

    def test_wrong_length_rejected(self):
        cov = mcca.covariance_from_matrix(np.eye(3), (1, 2))
        with pytest.raises(DimensionError):
            isc_from_cov(cov, np.ones(4))

    def test_non_finite_vector_is_a_data_error(self):
        cov = mcca.covariance_from_matrix(np.eye(4) + 0.5, (2, 2))
        with pytest.raises(DataError, match="projection vector contains non-finite entries"):
            isc_from_cov(cov, [np.nan, 0.0, 0.0, 1.0])

    def test_zero_vector_rejected(self):
        cov = mcca.covariance_from_matrix(np.eye(3), (1, 2))
        with pytest.raises(UndefinedIscError):
            isc_from_cov(cov, np.zeros(3))
