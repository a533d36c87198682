import numpy as np
import pytest

from mcca import DataError, DegeneracyError, DimensionError
from mcca.linalg import as_matrix, fix_column_signs, general_eig_real, sym_eig


class TestAsMatrix:
    def test_coerces_lists(self):
        a = as_matrix([[1, 2], [3, 4]])
        assert a.dtype == np.float64
        assert a.flags.c_contiguous

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            as_matrix([[1.0, np.nan]])


class TestSymEig:
    def test_identity(self):
        values, vectors = sym_eig(np.eye(2))
        assert np.allclose(values, [1.0, 1.0])
        assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        values, vectors = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(values, [3.0, 1.0])
        # sign convention makes the columns exactly +e1, +e2
        assert np.allclose(np.abs(vectors), np.eye(2), atol=1e-12)
        assert vectors[0, 0] > 0 and vectors[1, 1] > 0

    def test_analytic_2x2(self):
        values, vectors = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(values, [3.0, 1.0], atol=1e-12)
        assert np.allclose(vectors[:, 0], [s, s], atol=1e-12)
        # tie on magnitude resolves to positive lowest index
        assert np.allclose(vectors[:, 1], [s, -s], atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            sym_eig(np.zeros((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(DataError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_asymmetry_beyond_the_float_range_rejected(self):
        # a - a.T overflows here; the check must not warn, only refuse
        with pytest.raises(DataError, match="is not symmetric"):
            sym_eig(np.array([[1.0, 1e308], [-1e308, 1.0]]))

    def test_tiny_asymmetry_tolerated(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        values, _ = sym_eig(a)
        assert np.allclose(values, [3.0, 1.0], atol=1e-9)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 8, 13, 20):
            a = rng.standard_normal((n, n))
            a = a + a.T
            values, vectors = sym_eig(a)
            scale = max(1.0, float(np.abs(a).max()))
            recon = vectors @ np.diag(values) @ vectors.T
            assert np.abs(recon - a).max() <= 1e-8 * scale
            assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= 1e-10
            assert np.all(np.diff(values) <= 1e-12)

    def test_recovers_constructed_spectrum(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        lam = np.array([9.0, 6.5, 4.0, 2.5, 1.0, 0.25])
        values, _ = sym_eig(q @ np.diag(lam) @ q.T)
        assert np.abs(values - lam).max() <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 7))
        a = a + a.T
        values1, vectors1 = sym_eig(a)
        values2, vectors2 = sym_eig(a.copy())
        assert np.array_equal(values1, values2)
        assert np.array_equal(vectors1, vectors2)


class TestFixColumnSigns:
    def test_flips_negative_peak(self):
        v = np.array([[0.1, -0.9], [-0.8, 0.2]])
        fix_column_signs(v)
        assert v[1, 0] > 0 and v[0, 1] > 0

    def test_tie_breaks_to_lowest_index(self):
        v = np.array([[-0.5], [0.5]])
        fix_column_signs(v)
        assert v[0, 0] == 0.5 and v[1, 0] == -0.5

    def test_only_ever_flips_whole_columns(self):
        # stress across shapes: each column must come out exactly equal
        # to +/- its input, never mixed or rescaled
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            k = int(rng.integers(1, 12))
            v = rng.standard_normal((n, k))
            ref = v.copy()
            for j in range(k):
                i = int(np.argmax(np.abs(ref[:, j])))
                if ref[i, j] < 0.0:
                    ref[:, j] = -1.0 * ref[:, j].copy()
            fix_column_signs(v)
            assert np.array_equal(v, ref)

    def test_strided_view_flips_in_place(self):
        # a non-contiguous view (reversed, every other column) must be
        # flipped in its base array, column by column
        base = np.array([[0.1, 5.0, -0.9, 1.0], [-0.8, 6.0, 0.2, -2.0]])
        view = base[:, ::-2]
        fix_column_signs(view)
        assert np.array_equal(base, [[0.1, 5.0, -0.9, -1.0], [-0.8, 6.0, 0.2, 2.0]])


class TestGeneralEigReal:
    def test_diagonal(self):
        values, vectors = general_eig_real(np.diag([5.0, 2.0]))
        assert np.allclose(values, [5.0, 2.0])
        assert np.allclose(np.abs(vectors), np.eye(2), atol=1e-12)

    def test_identity(self):
        values, _ = general_eig_real(np.eye(3))
        assert np.allclose(values, [1.0, 1.0, 1.0])

    def test_residual_bound(self):
        rng = np.random.default_rng(23)
        # similar to symmetric: inv(D) R with D positive definite
        d = rng.standard_normal((6, 6))
        d = d @ d.T + 6 * np.eye(6)
        r = rng.standard_normal((6, 6))
        r = r + r.T
        a = np.linalg.inv(d) @ r
        values, vectors = general_eig_real(a)
        scale = float(np.abs(a).max())
        for j in range(6):
            v = vectors[:, j]
            resid = np.linalg.norm(a @ v - values[j] * v)
            assert resid <= 1e-7 * scale * np.linalg.norm(v)
        assert np.all(np.diff(values) <= 1e-12)

    def test_agrees_with_whitened_route(self):
        # eigenvalues of inv(D) R equal those of the two-sided
        # symmetric whitening D^(-1/2) R D^(-1/2)
        rng = np.random.default_rng(29)
        blocks = [rng.standard_normal((30, d)) for d in (2, 3)]
        x = np.hstack(blocks)
        r = x.T @ x
        r = r + np.eye(5) * 0.5
        dmat = np.zeros_like(r)
        dmat[:2, :2] = r[:2, :2]
        dmat[2:, 2:] = r[2:, 2:]
        values, _ = general_eig_real(np.linalg.inv(dmat) @ r)
        d_values, d_vectors = sym_eig(dmat)
        w = d_vectors / np.sqrt(d_values)
        ref, _ = sym_eig(w.T @ r @ w)
        assert np.abs(values - ref).max() <= 1e-7 * max(abs(ref[0]), 1.0)

    @staticmethod
    def assert_pairs_folded(a, want, pairs):
        """Check values, residual, and that each folded pair spans its subspace.

        ``pairs`` maps the first output column of each folded pair to an
        orthonormal basis of that pair's invariant subspace.
        """
        w = np.linalg.eig(a)[0]
        assert np.count_nonzero(w.imag > 0) == len(pairs)  # the fold is reached
        values, vectors = general_eig_real(a)
        assert np.abs(values - want).max() <= 1e-12 * max(want)
        resid = a @ vectors - vectors * values
        assert np.abs(resid).max() <= 1e-10 * np.abs(a).max()
        for col, basis in pairs.items():
            folded = vectors[:, col : col + 2]
            assert np.linalg.cond(folded) <= 1e3
            assert np.abs(folded - basis @ (basis.T @ folded)).max() <= 1e-10

    def test_conjugate_pair_folded(self):
        a = np.array([[1.0, -1e-12, 0.0], [1e-12, 1.0, 0.0], [0.0, 0.0, 3.0]])
        self.assert_pairs_folded(a, [3.0, 1.0, 1.0], {1: np.eye(3)[:, :2]})

    def test_two_conjugate_pairs_folded(self):
        # an antisymmetric 1e-13 nudge turns both double eigenvalues of a
        # symmetric matrix into conjugate pairs; their subspaces move ~1e-13
        q, _ = np.linalg.qr(np.random.default_rng(31).standard_normal((6, 6)))
        a = q @ np.diag([5.0, 2.0, 2.0, 1.0, 1.0, 0.5]) @ q.T
        a[0, 1] += 1e-13
        a[1, 0] -= 1e-13
        want = [5.0, 2.0, 2.0, 1.0, 1.0, 0.5]
        self.assert_pairs_folded(a, want, {1: q[:, 1:3], 3: q[:, 3:5]})

    def test_complex_spectrum_rejected(self):
        with pytest.raises(DegeneracyError):
            general_eig_real(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            general_eig_real(np.zeros((2, 3)))
