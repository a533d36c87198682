import copy
import os
import pickle
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcca.data
import mcca.fileio
import mcca.linalg
from helpers import cov_blocks, covariance_errors, covariance_two_pass
from mcca import (
    DataError,
    DimensionError,
    center,
    covariance,
    covariance_from_matrix,
    load,
)
from mcca.data import CovarianceAccumulator, block_slices
from mcca.linalg import sym_eig

U = np.finfo(float).eps / 2  # the unit roundoff


class TestBlockSlices:
    def test_layout(self):
        assert block_slices((2, 3, 1)) == [slice(0, 2), slice(2, 5), slice(5, 6)]

    def test_one_pass_iterable(self):
        assert block_slices(d for d in (2, 3, 1)) == [slice(0, 2), slice(2, 5), slice(5, 6)]


class TestLoad:
    def test_two_1d_sets(self):
        data = load([np.ones((3, 1)), np.zeros((3, 1))])
        assert data.n_sets == 2
        assert data.n_exemplars == 3
        assert data.dims == (1, 1)
        assert not data.centered and data.means is None

    def test_1d_arrays_become_columns(self):
        data = load([np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])])
        assert data.dims == (1, 1)

    def test_exemplar_mismatch(self):
        with pytest.raises(DimensionError):
            load([np.zeros((3, 1)), np.zeros((4, 1))])

    def test_single_set_rejected(self):
        with pytest.raises(DimensionError):
            load([np.zeros((3, 1))])

    def test_non_finite_rejected(self):
        bad = np.ones((3, 1))
        bad[1, 0] = np.inf
        with pytest.raises(DataError):
            load([np.ones((3, 1)), bad])

    def test_too_few_exemplars(self):
        with pytest.raises(DimensionError):
            load([np.ones((1, 2)), np.ones((1, 2))])

    def test_one_copy(self):
        # load keeps one private copy of each set; a second copy of any set
        # would push the traced peak to 1.5 times the input's bytes
        sets = [np.ones((20000, 64)), np.zeros((20000, 64))]
        tracemalloc.start()
        try:
            load(sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * sum(s.nbytes for s in sets)

    # each makes a fresh 4 x 3 (or length-4) block in one layout or type
    CALLER_BLOCKS = {
        "list": lambda: np.arange(12.0).reshape(4, 3).tolist(),
        "int": lambda: np.arange(12).reshape(4, 3),
        "float32": lambda: np.arange(12, dtype=np.float32).reshape(4, 3),
        "float64-c": lambda: np.arange(12.0).reshape(4, 3),
        "float64-c-view": lambda: np.arange(24.0).reshape(8, 3)[2:6],
        "float64-fortran": lambda: np.asfortranarray(np.arange(12.0).reshape(4, 3)),
        "float64-strided": lambda: np.arange(24.0).reshape(4, 6)[:, ::2],
        "matrix": lambda: np.matrix(np.arange(12.0).reshape(4, 3)),
        "memoryview": lambda: memoryview(np.arange(12.0).reshape(4, 3)),
        "bytearray": lambda: np.frombuffer(bytearray(96), dtype=np.float64).reshape(4, 3),
        "float64-1d": lambda: np.arange(4.0),
    }

    @pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
    @pytest.mark.parametrize("make", CALLER_BLOCKS.values(), ids=CALLER_BLOCKS.keys())
    def test_sets_never_share_the_callers_memory(self, make):
        block = make()
        data = load([block, block])
        assert not any(np.shares_memory(s, block) for s in data.sets)
        if not isinstance(block, list):
            assert np.asarray(block).flags.writeable

    @pytest.mark.parametrize(
        "block, error, match",
        [
            ([["a"], ["b"], ["c"]], DataError, "data set 2 is not a numeric array"),
            ([[1.0], [2.0, 3.0], [4.0]], DataError, "data set 2 is not a numeric array"),
            (np.ones((3, 2, 1)), DimensionError, "data set 2 must be 2-D, got 3-D"),
            (np.ones((3, 0)), DimensionError, r"data set 2 must be non-empty, got shape \(3, 0\)"),
            ([1.0, np.nan, 2.0], DataError, "data set 2 contains non-finite entries"),
            ([[10**400], [1], [2]], DataError, "data set 2 is not a numeric array"),
        ],
    )
    def test_array_rule_names_the_set(self, block, error, match):
        with pytest.raises(error, match=match):
            load([np.ones((3, 1)), block])

    def test_copies_and_freezes(self):
        src = np.ones((3, 2))
        data = load([src, np.zeros((3, 1))])
        src[0, 0] = 99.0
        assert data.sets[0][0, 0] == 1.0
        with pytest.raises(ValueError):
            data.sets[0][0, 0] = 5.0


PIECE_ROWS = mcca.linalg._PIECE_BYTES // (8 * 7)  # rows of 7 columns per piece of linalg.finite
T_PIECES = 2 * PIECE_ROWS + 3  # two pieces and part of a third


class TestSinglePass:
    """load copies and tests each set piece by piece (``linalg.finite``)."""

    BOUNDARY = 7 * PIECE_ROWS  # flat index of the second piece's first entry
    WHERE = {"first": 0, "before a boundary": BOUNDARY - 1, "after a boundary": BOUNDARY, "last": -1}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", WHERE.values(), ids=WHERE.keys())
    def test_non_finite_found_in_any_piece(self, bad, where):
        block = np.ones((T_PIECES, 7))
        assert len(block) % PIECE_ROWS  # the last piece is short
        block.flat[where] = bad
        with pytest.raises(DataError, match="data set 2 contains non-finite entries"):
            load([np.ones((T_PIECES, 1)), block])

    FORMS = {
        "float64-c": lambda x: x,
        "float64-1d": lambda x: x[:, 0].copy(),
        "float32": lambda x: x.astype(np.float32),
        "float64-fortran": np.asfortranarray,
        "float64-c-view": lambda x: np.vstack([x, x])[3 : 3 + len(x)],
        "float64-strided": lambda x: np.hstack([x, x])[:, ::2],
    }

    @pytest.mark.parametrize("make", FORMS.values(), ids=FORMS.keys())
    def test_non_finite_found_in_every_form(self, make):
        x = np.ones((T_PIECES, 7))
        x[-1, -1] = np.nan
        x[-1, 0] = np.nan  # the last row of the 1-D form too
        with pytest.raises(DataError, match="data set 2 contains non-finite entries"):
            load([np.ones(T_PIECES), make(x)])

    @pytest.mark.parametrize("make", FORMS.values(), ids=FORMS.keys())
    def test_loaded_bits_layout_and_ownership(self, make):
        x = np.random.default_rng(5).standard_normal((T_PIECES, 7))
        x[0, :3] = -0.0, 5e-324, -1e30
        block = make(x)
        want = np.asarray(block, dtype=np.float64).reshape(T_PIECES, -1)
        data = load([block, block])
        for s in data.sets:
            assert s.view(np.uint64).tolist() == want.view(np.uint64).tolist()
            assert s.flags.c_contiguous and not s.flags.writeable
            assert not np.shares_memory(s, block)
        assert block.flags.writeable

    @pytest.mark.parametrize(
        "block, match",
        [
            (np.full((3, 2, 1), np.nan), "data set 1 must be 2-D, got 3-D"),
            (np.empty((3, 0)), r"data set 1 must be non-empty, got shape \(3, 0\)"),
            (np.empty(0), r"data set 1 must be non-empty, got shape \(0, 1\)"),
        ],
        ids=["3-D", "no columns", "1-D empty"],
    )
    def test_shape_refused_before_any_finiteness_test(self, monkeypatch, block, match):
        def never(*args, **kwargs):
            raise AssertionError("finiteness tested before the shape")

        monkeypatch.setattr(mcca.linalg, "finite", never)
        with pytest.raises(DimensionError, match=match):
            load([block, np.full((3, 1), np.nan)])

    def test_accumulator_takes_no_row_of_a_refused_batch(self):
        acc = CovarianceAccumulator((2, 1))
        rows = np.ones((3 * PIECE_ROWS, 3))  # more than one piece
        rows[-1, -1] = np.nan
        with pytest.raises(DataError, match="row batch contains non-finite entries"):
            acc.add(rows)
        # G's corner counts the rows folded in
        assert (acc._g[-1, -1], acc._fill) == (0, 0)
        acc.add(np.ones((0, 3)))
        assert (acc._g[-1, -1], acc._fill) == (0, 0)
        acc.add(np.ones((1, 3)))
        assert (acc._g[-1, -1], acc._fill) == (0, 1)


class TestSplit:
    """``linalg.finite`` splits a large array's rows among 2 or 3 workers:
    the calling thread and one started thread per further range."""

    ROWS = 4  # rows of 7 columns per piece under the patched piece size
    T = ROWS * 3 * mcca.linalg._WORKER_PIECES + 3  # 3 ranges of 16 pieces and part of one more

    @pytest.fixture
    def started(self, monkeypatch):
        """The threads started so far."""
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Spy)
        return started

    def split(self, monkeypatch, cpus):
        """``cpus`` CPUs, and pieces of ROWS rows of 7 columns."""
        monkeypatch.setattr(mcca.linalg, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(mcca.linalg, "_PIECE_BYTES", self.ROWS * 8 * 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_non_finite_found_in_every_row(self, monkeypatch, started, cpus, bad):
        # every row of every range, so the first and last rows of each too
        self.split(monkeypatch, cpus)
        threads = threading.active_count()
        ok = np.ones((self.T, 1))  # under the minimum: one worker
        for row in range(self.T):
            block = np.ones((self.T, 7))
            block[row, row % 7] = bad
            with pytest.raises(DataError, match="^data set 2 contains non-finite entries$"):
                load([ok, block])
            assert threading.active_count() == threads
        assert len(started) == self.T * (cpus - 1)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_copies_bits_layout_and_ownership(self, monkeypatch, started, cpus):
        self.split(monkeypatch, cpus)
        threads = threading.active_count()
        x = np.random.default_rng(6).standard_normal((self.T, 7))
        x[[0, -1], :3] = -0.0, 5e-324, -1e30
        for block in (x, np.vstack([x, x])[self.T :]):  # the caller's array and a view
            data = load([block, block])
            for s in data.sets:
                assert s.view(np.uint64).tolist() == x.view(np.uint64).tolist()
                assert s.flags.c_contiguous and not s.flags.writeable
                assert not np.shares_memory(s, block)
        assert len(started) == 4 * (cpus - 1)
        assert threading.active_count() == threads

    def test_error_in_a_started_thread_waited_for_and_raised_by_the_caller(self, monkeypatch, started):
        self.split(monkeypatch, 3)
        threads = threading.active_count()
        isfinite = np.isfinite

        def failing(a):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)  # still running when the calling thread is done
                raise MemoryError("in a started thread")
            return isfinite(a)

        monkeypatch.setattr(np, "isfinite", failing)
        with pytest.raises(MemoryError, match="in a started thread"):
            load([np.ones((self.T, 7)), np.ones((self.T, 7))])
        assert len(started) == 2
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_under_the_minimum_runs_on_the_calling_thread(self, monkeypatch, started, cpus):
        monkeypatch.setattr(mcca.linalg, "_cpu_count", lambda: cpus)
        least = 2 * mcca.linalg._WORKER_PIECES  # pieces that two workers take
        for width in (1, 7, 64, 1024):
            # the largest batches of the CLI: read for the accumulator, and regrouped to project
            acc = CovarianceAccumulator((width, 1))
            acc.add(np.ones((mcca.fileio._BATCH_FIELDS // (width + 1), width + 1)))
            acc.add(np.ones((0, width + 1)))
            load([np.ones((mcca.data.batch_rows(width) + 1, width))] * 2)
            piece_rows = mcca.linalg._PIECE_BYTES // (8 * width)
            load([np.ones(((least - 1) * piece_rows, width))] * 2)
            assert not started
        rows = least * mcca.linalg._PIECE_BYTES // (8 * 7)  # two workers' pieces of 7 columns
        load([np.ones((rows, 7)), np.ones((rows, 1))])
        assert len(started) == 1

    def test_cpu_count_falls_back_without_sched_getaffinity(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert mcca.linalg._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert mcca.linalg._cpu_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert mcca.linalg._cpu_count() == 1


class TestCenter:
    def test_hand_case(self):
        data = center(load([np.array([1.0, 2.0, 3.0]), np.zeros(3)]))
        assert np.allclose(data.sets[0][:, 0], [-1.0, 0.0, 1.0])
        assert data.means[0][0] == 2.0
        assert data.centered

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        once = center(load([rng.standard_normal((10, 3)), rng.standard_normal((10, 2))]))
        twice = center(once)
        for a, b in zip(once.sets, twice.sets):
            assert np.abs(a - b).max() <= 1e-12
        for a, b in zip(once.means, twice.means):
            assert np.abs(a - b).max() <= 1e-12

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(1)
        block = 100.0 + 5.0 * rng.standard_normal((50, 4))
        data = center(load([block, rng.standard_normal((50, 2))]))
        scale = np.abs(block).max()
        assert np.abs(data.sets[0].sum(axis=0)).max() <= 1e-9 * 50 * scale


class TestCovariance:
    def test_hand_case(self):
        data = load([np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0])])
        cov = covariance(data)
        assert np.isclose(cov_blocks(cov)[0][0][0, 0], 2.0, atol=1e-12)
        assert np.isclose(cov_blocks(cov)[1][1][0, 0], 8.0, atol=1e-12)
        assert np.isclose(cov_blocks(cov)[0][1][0, 0], 4.0, atol=1e-12)

    def test_duplicated_set(self):
        rng = np.random.default_rng(2)
        block = rng.standard_normal((8, 3))
        cov = covariance(load([block, block]))
        assert np.abs(cov_blocks(cov)[0][1] - cov_blocks(cov)[0][0]).max() <= 1e-12

    def test_matches_concatenated_gram(self):
        rng = np.random.default_rng(3)
        sets = [rng.standard_normal((20, d)) for d in (2, 4, 3)]
        cov = covariance(load(sets))
        xc = np.hstack([s - s.mean(axis=0) for s in sets])
        ref = xc.T @ xc
        assert np.abs(cov.R - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(4)
        cov = covariance(load([rng.standard_normal((15, 3)), rng.standard_normal((15, 2))]))
        assert np.array_equal(cov.R, cov.R.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        cov = covariance(load([rng.standard_normal((10, 4)), rng.standard_normal((10, 4))]))
        values, _ = sym_eig(cov.R)
        assert values[-1] >= -1e-8 * values[0]

    def test_d_is_block_diagonal_part(self):
        rng = np.random.default_rng(6)
        cov = covariance(load([rng.standard_normal((12, 2)), rng.standard_normal((12, 3))]))
        d = np.zeros_like(cov.R)
        d[:2, :2] = cov.R[:2, :2]
        d[2:, 2:] = cov.R[2:, 2:]
        assert np.array_equal(cov.d_dot(np.eye(5)), d)

    def test_scaling_one_set(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((9, 2))
        b = rng.standard_normal((9, 3))
        base = covariance(load([a, b]))
        scaled = covariance(load([2.0 * a, b]))
        assert np.abs(cov_blocks(scaled)[0][0] - 4.0 * cov_blocks(base)[0][0]).max() <= 1e-10
        assert np.abs(cov_blocks(scaled)[0][1] - 2.0 * cov_blocks(base)[0][1]).max() <= 1e-10
        assert np.abs(cov_blocks(scaled)[1][1] - cov_blocks(base)[1][1]).max() <= 1e-10

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((11, 3))
        b = rng.standard_normal((11, 2))
        perm = rng.permutation(11)
        base = covariance(load([a, b]))
        shuffled = covariance(load([a[perm], b[perm]]))
        assert np.abs(base.R - shuffled.R).max() <= 1e-12 * max(1.0, np.abs(base.R).max())

    def test_centers_internally(self):
        rng = np.random.default_rng(9)
        sets = [rng.standard_normal((10, 2)) + 7.0, rng.standard_normal((10, 2))]
        raw = covariance(load(sets))
        pre = covariance(center(load(sets)))
        assert np.abs(raw.R - pre.R).max() <= 1e-9 * np.abs(raw.R).max()
        assert np.allclose(raw.means[0], sets[0].mean(axis=0))


class TestChunkedCovariance:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(1, 4), min_size=2, max_size=4),
        rows=st.integers(3, 6),
        t_case=st.one_of(
            st.sampled_from([-1, 0, 1]).map(lambda j: (1, j)),
            st.tuples(st.integers(2, 6), st.integers(-1, 1)),
        ),
        offset=st.floats(-1e8, 1e8),
        pre_centered=st.booleans(),
    )
    def test_matches_gram_across_chunk_boundaries(
        self, seed, dims, rows, t_case, offset, pre_centered
    ):
        n_chunks, extra = t_case
        t = n_chunks * rows + extra
        rng = np.random.default_rng(seed)
        sets = [offset + rng.standard_normal((t, d)) for d in dims]
        data = load(sets)
        if pre_centered:
            data = center(data)
            xc = np.hstack(data.sets)
            means = data.means
        else:
            xc = np.hstack([s - s.mean(axis=0) for s in data.sets])
            means = [s.mean(axis=0) for s in data.sets]
        with pytest.MonkeyPatch.context() as mp:
            # chunks of `rows` rows: the buffer holds a column of ones as well
            mp.setattr(mcca.data, "_CHUNK_BYTES", rows * 8 * (sum(dims) + 1))
            cov = covariance(data)
        ref = xc.T @ xc
        assert np.abs(cov.R - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(cov.R, cov.R.T)
        for block, got, want in zip(data.sets, cov.means, means):
            # numpy's mean and the shifted sums differ by rounding only
            assert np.abs(got - want).max() <= t * np.finfo(float).eps * np.abs(block).max()

    def test_peak_memory_below_one_copy_of_the_data(self):
        rng = np.random.default_rng(10)
        data = load([rng.standard_normal((20000, d)) for d in (32, 32, 64)])
        data_bytes = sum(s.nbytes for s in data.sets)
        tracemalloc.start()
        try:
            covariance(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data_bytes


def _spikes_on_the_sample_stride(rng, t):
    """Sets whose rows on the stride k of ``covariance``'s shift sample lie
    1e3 above the others, so a sampled mean misses the mean by sqrt(k - 1)
    standard deviations (8 at T = 65536) and the guard must run a second pass."""
    sets = [rng.standard_normal((t, 3)), rng.standard_normal((t, 2))]
    sets[0][:: -(-t // mcca.data._SHIFT_SAMPLES)] += 1e3
    return sets


def _with_column(rng, t, column):
    sets = [rng.standard_normal((t, 3)), rng.standard_normal((t, 2))]
    sets[0][:, 1] = column(t)
    return sets


# family -> (sets of T rows, passes `covariance` takes when the T rows
# overflow one buffer, so that its shift is sampled)
HOSTILE = {
    "offset+1e8": (lambda rng, t: [1e8 + rng.standard_normal((t, d)) for d in (3, 2)], 1),
    "offset-1e8": (lambda rng, t: [-1e8 + rng.standard_normal((t, d)) for d in (3, 2)], 1),
    "step": (lambda rng, t: _with_column(rng, t, lambda t: np.repeat([0.0, 1e4], [t // 2, t - t // 2])), 1),
    "random-walk": (lambda rng, t: _with_column(rng, t, lambda t: rng.standard_normal(t).cumsum()), 1),
    "spikes": (_spikes_on_the_sample_stride, 2),
    "constant": (lambda rng, t: _with_column(rng, t, lambda t: np.full(t, 0.1)), 1),
}


def _late_offset(rng, t):
    """Unit noise whose rows after the first T/40 lie 1e6 higher: a stream's
    first buffer then takes a shift far from the mean of what follows."""
    sets = [rng.standard_normal((t, d)) for d in (3, 2)]
    for s in sets:
        s[t // 40 :] += 1e6
    return sets


class TestCovarianceAccumulator:
    """Row batches fed to the accumulator against the two-pass oracle."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(1, 4), min_size=2, max_size=4),
        chunk_rows=st.integers(1, 12),
        t=st.integers(2, 40),
        batch_rows=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        offsets=st.lists(st.floats(-1e8, 1e8), min_size=4, max_size=4),
    )
    def test_matches_two_pass_oracle(self, seed, dims, chunk_rows, t, batch_rows, offsets):
        rng = np.random.default_rng(seed)
        sets = [off + rng.standard_normal((t, d)) for d, off in zip(dims, offsets)]
        x = np.hstack(sets)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcca.data, "_CHUNK_BYTES", chunk_rows * 8 * sum(dims))
            acc = CovarianceAccumulator(dims)
            a, i = 0, 0
            while a < t:  # batch sizes cycle through batch_rows
                acc.add(x[a : a + batch_rows[i % len(batch_rows)]])
                a += batch_rows[i % len(batch_rows)]
                i += 1
            cov = acc.covariance()
            one_buffer = t <= len(acc._buf)
        ref, means = covariance_two_pass(load(sets))
        assert np.abs(cov.R - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(cov.R, cov.R.T)
        assert cov.dims == tuple(dims)
        for block, got, want in zip(sets, cov.means, means):
            # the shifted sums and numpy's mean differ by rounding only
            bound = 2 * t * np.finfo(float).eps * np.abs(block).mean()
            assert np.abs(got - want).max() <= bound
        if one_buffer:  # the in-memory path folds the same rows, shifted the same way
            mem = covariance(load(sets))
            assert np.array_equal(cov.R, mem.R)
            assert all(map(np.array_equal, cov.means, mem.means))

    @pytest.mark.parametrize("dims", [(2,), (2, -1), 3])
    def test_dims_rule(self, dims):
        with pytest.raises(DataError):
            CovarianceAccumulator(dims)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_needs_two_rows(self, rows):
        acc = CovarianceAccumulator((2, 1))
        acc.add(np.ones((rows, 3)))
        with pytest.raises(DimensionError, match=f"need at least 2 exemplars, got {rows}"):
            acc.covariance()

    @pytest.mark.parametrize(
        "rows, error, match",
        [
            (np.ones(3), DimensionError, r"row batch has shape \(3,\), not \(rows, 3\)"),
            (np.ones((3, 4)), DimensionError, r"row batch has shape \(3, 4\), not \(rows, 3\)"),
            ([[1.0, np.nan, 2.0]], DataError, "row batch contains non-finite entries"),
        ],
        ids=["1-D", "4-columns", "NaN"],
    )
    def test_bad_batch_refused_and_not_added(self, rows, error, match):
        good = np.random.default_rng(4).standard_normal((5, 3))
        acc, ref = CovarianceAccumulator((2, 1)), CovarianceAccumulator((2, 1))
        acc.add(good)
        ref.add(good)
        with pytest.raises(error, match=match):
            acc.add(rows)
        assert np.array_equal(acc.covariance().R, ref.covariance().R)

    @pytest.mark.parametrize("buffers", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize("t", [2048, 65536])
    @pytest.mark.parametrize("family", [*HOSTILE, "late-offset"])
    def test_stream_is_as_accurate_as_two_pass(self, monkeypatch, family, t, buffers):
        make = _late_offset if family == "late-offset" else HOSTILE[family][0]
        data = load(make(np.random.default_rng(15), t))
        rows = -(-t // buffers)
        monkeypatch.setattr(mcca.data, "_CHUNK_BYTES", rows * 8 * (data.total_dim + 1))
        acc = CovarianceAccumulator(data.dims)
        x = np.hstack(data.sets)
        for a in range(0, t, 64):
            acc.add(x[a : a + 64])
        cov = acc.covariance()
        got = covariance_errors(cov.R, cov.means, data)
        want = covariance_errors(*covariance_two_pass(data), data)
        assert got[0] <= max(2 * want[0], 128 * U)
        assert got[1] <= max(2 * want[1], 128 * U)
        assert np.array_equal(cov.R, cov.R.T)

    def test_covariance_is_as_accurate_as_two_pass(self):
        # in memory, the whole data is one batch, whatever the chunk size
        rng = np.random.default_rng(11)
        data = load([5.0 + rng.standard_normal((50, d)) for d in (1, 3, 2)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcca.data, "_CHUNK_BYTES", 7 * 8 * 7)
            cov = covariance(data)
        ref, means = covariance_two_pass(data, chunk_bytes=7 * 8 * 6)
        got_errors = covariance_errors(cov.R, cov.means, data)
        ref_errors = covariance_errors(ref, means, data)
        for got, want in zip(got_errors, ref_errors):
            assert got <= max(2 * want, 8 * U)


class TestSinglePassCovariance:
    """``covariance`` in one pass, against the extended-precision two-pass
    reference: at most twice the plain two-pass method's error, or 8 u."""

    @staticmethod
    def passes(monkeypatch):
        calls = []
        read = CovarianceAccumulator._read
        monkeypatch.setattr(CovarianceAccumulator, "_read", lambda *a: calls.append(1) or read(*a))
        return calls

    def assert_as_accurate_as_two_pass(self, data, cov):
        got = covariance_errors(cov.R, cov.means, data)
        want = covariance_errors(*covariance_two_pass(data), data)
        assert got[0] <= max(2 * want[0], 8 * U)
        assert got[1] <= max(2 * want[1], 8 * U)
        assert np.array_equal(cov.R, cov.R.T)

    @pytest.mark.parametrize("family", list(HOSTILE))
    def test_hostile_family(self, monkeypatch, family):
        make, _ = HOSTILE[family]
        data = load(make(np.random.default_rng(12), 65536))
        calls = self.passes(monkeypatch)
        cov = covariance(data)
        self.assert_as_accurate_as_two_pass(data, cov)
        # 65536 rows of 5 columns fit one buffer: the shift is the exact mean
        assert len(calls) == 1

    def test_centered_data_keeps_its_means(self, monkeypatch):
        data = center(load(HOSTILE["offset+1e8"][0](np.random.default_rng(13), 3000)))
        calls = self.passes(monkeypatch)
        cov = covariance(data)
        assert cov.means is data.means
        assert len(calls) == 1
        got = covariance_errors(cov.R, data.means, data)[0]
        want = covariance_errors(covariance_two_pass(data)[0], data.means, data)[0]
        assert got <= max(2 * want, 8 * U)

    @pytest.mark.parametrize("t", [2, 3, 100, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("family", ["offset+1e8", "spikes"])
    def test_few_exemplars(self, family, t):
        data = load(HOSTILE[family][0](np.random.default_rng(t), t))
        self.assert_as_accurate_as_two_pass(data, covariance(data))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("n_chunks", [1, 2, 3])
    @pytest.mark.parametrize("family", list(HOSTILE))
    def test_chunk_boundaries(self, monkeypatch, family, n_chunks, extra):
        make, passes = HOSTILE[family]
        data = load(make(np.random.default_rng(14), 2 * mcca.data._SHIFT_SAMPLES))
        rows = len(data.sets[0]) // n_chunks + extra
        monkeypatch.setattr(mcca.data, "_CHUNK_BYTES", rows * 8 * (data.total_dim + 1))
        calls = self.passes(monkeypatch)
        cov = covariance(data)
        self.assert_as_accurate_as_two_pass(data, cov)
        assert len(calls) == (passes if rows < data.n_exemplars else 1)


class TestCovarianceOfLoadedData:
    """R is computed once per `load` output whose total_dim is at most T;
    other data takes a pass on every call."""

    @staticmethod
    def sets(t):
        rng = np.random.default_rng(16)
        return [5.0 + rng.standard_normal((t, d)) for d in (3, 2, 4)]

    @pytest.mark.parametrize("t", [9, 40])
    def test_fits_and_residual_share_one_pass(self, monkeypatch, t):
        data = load(self.sets(t))
        calls = TestSinglePassCovariance.passes(monkeypatch)
        two = mcca.fit(data, k=2)
        mcca.fit(data, method="one-step", gamma=0.5)
        cov = covariance(data)
        assert cov is covariance(data)
        assert mcca.stationarity_residual(covariance(data), two, 0) < 1e-12
        assert len(calls) == 1
        # the memo shows in no public field, in repr or in equality
        plain = mcca.MultiSetData(sets=data.sets, means=None)
        assert repr(data) == repr(plain) and data == plain

    @pytest.mark.parametrize(
        "t, make",
        [
            (40, lambda sets: mcca.MultiSetData(sets=tuple(sets), means=None)),
            (40, lambda sets: replace(load(sets))),
            (40, lambda sets: center(load(sets))),
            (8, load),  # total_dim 9 > T: R would outweigh the sets
        ],
        ids=["built", "replaced", "centered", "wider-than-tall"],
    )
    def test_other_data_takes_a_pass_per_call(self, monkeypatch, t, make):
        data = make(self.sets(t))
        calls = TestSinglePassCovariance.passes(monkeypatch)
        first, second = covariance(data), covariance(data)
        assert first is not second and np.array_equal(first.R, second.R)
        assert len(calls) == 2

    @pytest.mark.parametrize("thaw", [copy.deepcopy, lambda data: pickle.loads(pickle.dumps(data))])
    def test_copy_with_writable_sets_takes_a_pass(self, thaw):
        data = load(self.sets(40))
        cov = covariance(data)
        copied = thaw(data)
        copied.sets[0][:, 0] *= 2.0
        assert not np.array_equal(covariance(copied).R, cov.R)
        assert covariance(data) is cov


class TestCovarianceFromMatrix:
    def test_blocks_and_means_default(self):
        r = np.array(
            [
                [1.0, 0.3, 0.2],
                [0.3, 1.0, 0.1],
                [0.2, 0.1, 1.0],
            ]
        )
        cov = covariance_from_matrix(r, (1, 2))
        assert cov_blocks(cov)[0][1].shape == (1, 2)
        assert np.allclose(cov.means[0], 0.0)
        assert cov.total_dim == 3

    def test_dims_mismatch(self):
        with pytest.raises(DimensionError):
            covariance_from_matrix(np.eye(3), (2, 2))

    @pytest.mark.parametrize(
        "dims, match",
        [
            ((2.7, 2), "dims entry 1 must be an integer >= 1, got 2.7"),
            ((True, 3), "dims entry 1 must be an integer >= 1, got True"),
            (("2", 2), "dims entry 1 must be an integer >= 1, got '2'"),
            ((0, 4), "dims entry 1 must be an integer >= 1, got 0"),
            ((4,), "need at least 2 data sets"),
            (4, "dims must be a sequence of integers, got 4"),
            (None, "dims must be a sequence of integers, got None"),
        ],
    )
    def test_dims_rule(self, dims, match):
        with pytest.raises(DataError, match=match):
            covariance_from_matrix(np.eye(4), dims)

    def test_non_square_refused_before_dims_comparison(self):
        with pytest.raises(DimensionError, match="covariance must be square, got 4x3"):
            covariance_from_matrix(np.ones((4, 3)), (2, 2))

    def test_asymmetric_rejected(self):
        r = np.eye(2)
        r[0, 1] = 0.5
        # the same check and message as sym_eig
        with pytest.raises(DataError, match="covariance is not symmetric: max asymmetry 5.000e-01"):
            covariance_from_matrix(r, (1, 1))

    def test_non_finite_means_rejected(self):
        with pytest.raises(DataError, match="means of set 1 contains non-finite entries"):
            covariance_from_matrix(np.eye(4) + 0.5, (2, 2), means=[[np.nan, 0], [0, 0]])

    @pytest.mark.parametrize("means", [5, 2.5])
    def test_non_iterable_means_named(self, means):
        with pytest.raises(DataError, match="means must be a sequence of vectors"):
            covariance_from_matrix(np.eye(4) + 0.5, (2, 2), means=means)

    @pytest.mark.parametrize("means", [[np.zeros(3), np.zeros(1)], [np.zeros(2)]])
    def test_means_must_match_dims(self, means):
        with pytest.raises(DimensionError, match="means do not match dims"):
            covariance_from_matrix(np.eye(4), (2, 2), means=means)

    def test_means_not_aliased(self):
        mu = np.array([1.0, 2.0])
        cov = covariance_from_matrix(np.eye(4), (2, 2), means=[mu, mu])
        mu[0] = 7.0
        assert mu.flags.writeable and cov.means[0][0] == 1.0

    def test_non_finite_rejected(self):
        r = np.eye(2)
        r[0, 0] = np.nan
        with pytest.raises(DataError):
            covariance_from_matrix(r, (1, 1))


class TestCovarianceBlocks:
    ZEROS = (np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize(
        "r, dims, means, error, match",
        [
            (np.eye(5), (2, 2), ZEROS, DimensionError, r"covariance must be 4x4, got \(5, 5\)"),
            (np.ones(4), (2, 2), ZEROS, DimensionError, r"covariance must be 4x4, got \(4,\)"),
            (np.eye(4), (2, 2), ZEROS[:1], DimensionError, "means do not match dims"),
            (np.eye(4), (2, 2), (np.zeros(3), np.zeros(1)), DimensionError, "means do not match dims"),
            (np.eye(4), (2, 2), (np.zeros((2, 1)), np.zeros(2)), DimensionError, "means do not match dims"),
            (np.eye(4), (2, 2), None, DataError, "means must be a sequence of vectors, got None"),
            (np.eye(4), (4,), (np.zeros(4),), DataError, "need at least 2 data sets"),
            (np.eye(4), (2, 0, 2), ZEROS, DataError, "dims entry 2 must be an integer >= 1, got 0"),
        ],
    )
    def test_shapes_checked_on_construction(self, r, dims, means, error, match):
        # built directly, as mcca.fit accepts it, not through covariance_from_matrix
        with pytest.raises(error, match=match):
            mcca.data.CovarianceBlocks(R=r, dims=dims, means=means)

    def test_dims_stored_as_a_tuple(self):
        cov = mcca.data.CovarianceBlocks(R=np.eye(4), dims=[2, np.int64(2)], means=self.ZEROS)
        assert cov.dims == (2, 2) and type(cov.dims) is tuple
        model = mcca.fit(cov)
        assert model.dims == (2, 2)
        assert mcca.stationarity_residual(covariance_from_matrix(np.eye(4), (2, 2)), model, 0) < 1e-12
