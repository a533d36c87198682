import dataclasses
import hashlib
import math

import numpy as np
import pytest

import mcca
from helpers import next_u64, normals_scalar, recovery_score_loops, uniform
from mcca import DataError, Projections, SynthSpec, generate, isc, recovery_score
from mcca.synth import Xoshiro256StarStar, _jump_matrix, _lane_draws, _packed_jump, _splitmix64

# Published reference outputs of splitmix64 for state 0.
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)

# The first five xoshiro256** outputs from the state (1, 2, 3, 4), by the
# generator's definition. By hand: rotl(5 * 2, 7) * 9 = 11520; the step
# gives s1 = s1 ^ s2 ^ s0 = 2 ^ 3 ^ 1 = 0, so the second output is 0; the next
# step gives s1 = 2**18 + 5, so the third is rotl(5 * s1, 7) * 9 = 1509978240.
XOSHIRO_1234 = (11520, 0, 1509978240, 1215971899390074240, 1216172134540287360)


# SHA-256 of the little-endian float64 bytes of every set in order, then of
# the latents, as produced by the scalar draw-by-draw generator.
GOLDEN_MIXING = (
    np.array([[1.0, 0.5], [0.0, 2.0], [-1.0, 0.25]]),
    np.array([[0.0, 1.0], [3.0, 0.0]]),
)
GOLDEN_SPECS = {
    "odd_tk": dict(seed=3, dims=(3, 5), n_exemplars=7, n_components=1, snr=2.0),
    "d_one": dict(seed=4, dims=(1, 3, 2), n_exemplars=11, n_components=1, snr=10.0),
    "mixing": dict(seed=5, dims=(3, 2), n_exemplars=9, n_components=2, snr=1.0,
                   mixing=GOLDEN_MIXING),
    "snr_zero": dict(seed=6, dims=(2, 3), n_exemplars=13, n_components=2, snr=0.0),
    "snr_inf": dict(seed=7, dims=(4, 2), n_exemplars=10, n_components=2, snr=np.inf),
    "cli": dict(seed=1, dims=(16, 16, 16, 16), n_exemplars=6000, n_components=2, snr=4.0),
}
GOLDEN_SHA256 = {
    "odd_tk": "a6bc118d1c1feaf751cc70cf91b8b673824b9cea5b0c9eabbbea6b849ee76c1f",
    "d_one": "a6680222a678e3bc5b68cfa6da4688acdfcc0779989caabc6bce0729c571b94e",
    "mixing": "1eb275a834c943dc7d9b02d6a9483bcba7429ccde38d2e0ef6d21d7269e02424",
    "snr_zero": "2bd98f1dd3172e7796b48b1b6f95d922b88b09b43384ae356e3fb080ee2f5837",
    "snr_inf": "8c4ab65e84dfc9b698e7d80eac4a1f82502d3624d45cced897d08c3e3bf130df",
    "cli": "f88574b52217bdec0e24dc0e52a589a5407900b63f193f50caca9409136ccffa",
}


def planted_isc(result, q):
    """Brute-force ISC of planted component q via the pseudo-inverse rows."""
    cols = tuple(
        ((s - s.mean(axis=0)) @ result.unmixing[l][q]).reshape(-1, 1)
        for l, s in enumerate(result.data.sets)
    )
    return isc(Projections(cols), 0).rho


class TestPrng:
    def test_splitmix64_reference_vectors(self):
        sm = _splitmix64(0)
        assert tuple(next(sm) for _ in range(4)) == SPLITMIX64_SEED0

    def test_xoshiro_reference_values(self):
        raw, _ = _lane_draws([1, 2, 3, 4], 5)
        assert raw.tolist() == list(XOSHIRO_1234)
        oracle = Xoshiro256StarStar(0)
        oracle._s = [1, 2, 3, 4]
        assert tuple(next_u64(oracle) for _ in range(5)) == XOSHIRO_1234

    def test_uniforms_in_unit_interval(self):
        rng = Xoshiro256StarStar(123)
        u = [uniform(rng) for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in u)

    def test_stream_is_seed_dependent(self):
        a = Xoshiro256StarStar(1)
        b = Xoshiro256StarStar(2)
        assert [next_u64(a) for _ in range(4)] != [next_u64(b) for _ in range(4)]

    def test_box_muller_convention(self):
        # recompute the first four normals from the raw uniform stream
        # with the documented transform
        draws = Xoshiro256StarStar(99).normals(4)
        stream = Xoshiro256StarStar(99)
        u = [uniform(stream) for _ in range(4)]
        expect = []
        for u1, u2 in ((u[0], u[1]), (u[2], u[3])):
            r = math.sqrt(-2.0 * math.log1p(-u1))
            expect.extend([r * math.cos(2.0 * math.pi * u2),
                           r * math.sin(2.0 * math.pi * u2)])
        assert np.abs(draws - np.array(expect)).max() <= 1e-15

    def test_odd_count_discards_trailing_draw(self):
        full = Xoshiro256StarStar(7).normals(4)
        odd = Xoshiro256StarStar(7).normals(3)
        assert np.array_equal(odd, full[:3])

    # 1, 2, then both sides of every power of two up to 2**14: the lane
    # length and the lane count each change at powers of two of the draws
    LANE_COUNTS = sorted(
        {1, 2, 1000, 30001}
        | {c for k in range(1, 15) for c in (2**k - 1, 2**k, 2**k + 1)}
    )

    @pytest.mark.parametrize("count", LANE_COUNTS)
    def test_lanes_match_scalar_stream(self, count):
        lanes = Xoshiro256StarStar(2718)
        scalar = Xoshiro256StarStar(2718)
        assert np.array_equal(lanes.normals(count), normals_scalar(scalar, count))
        assert lanes._s == scalar._s

    def test_jump_matrices_match_fmod_chain(self):
        chain = _jump_matrix(0)
        for j in range(21):
            if j:
                chain = np.fmod(chain @ chain, 2.0)
            jump = _jump_matrix(j)
            assert jump.dtype == chain.dtype and jump.tobytes() == chain.tobytes()

    def test_lanes_from_sparse_state(self):
        # No seed reaches a state this sparse: splitmix64 maps four distinct
        # consecutive states through a bijection, so at most one of the four
        # words is 0. The state (1, 0, 0, 0) is set directly.
        lanes = Xoshiro256StarStar(0)
        scalar = Xoshiro256StarStar(0)
        lanes._s = [1, 0, 0, 0]
        scalar._s = [1, 0, 0, 0]
        assert np.array_equal(lanes.normals(4099), normals_scalar(scalar, 4099))
        assert lanes._s == scalar._s

    def test_successive_calls_keep_draw_order(self):
        # odd counts still consume whole pairs: 4 + 6 outputs
        rng = Xoshiro256StarStar(31)
        first, second = rng.normals(3), rng.normals(5)
        oracle = Xoshiro256StarStar(31)
        assert np.array_equal(first, normals_scalar(oracle, 3))
        assert np.array_equal(second, normals_scalar(oracle, 5))
        stream = Xoshiro256StarStar(31)
        for _ in range(10):
            next_u64(stream)
        assert rng._s == stream._s == oracle._s

    @pytest.mark.parametrize("steps", [0, 1, 2, 5, 64, 1000, 4099])
    def test_jump_matches_scalar_steps(self, steps):
        jumped = Xoshiro256StarStar(77)
        jumped.jump(steps)
        stepped = Xoshiro256StarStar(77)
        for _ in range(steps):
            next_u64(stepped)
        assert jumped._s == stepped._s

    def test_jump_cache_is_bit_packed(self):
        for j in (0, 7, 12):
            packed = _packed_jump(j)
            assert packed.dtype == np.uint8 and packed.nbytes == 8192
            assert np.array_equal(np.unpackbits(packed, axis=1), _jump_matrix(j))

    def test_numpy_integer_count(self):
        a = Xoshiro256StarStar(4).normals(np.int64(7))
        assert np.array_equal(a, Xoshiro256StarStar(4).normals(7))

    def test_normal_moments(self):
        z = Xoshiro256StarStar(2024).normals(100000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02


class TestSynthSpec:
    def test_k_exceeding_min_dim(self):
        with pytest.raises(DataError):
            SynthSpec(seed=0, dims=(4, 2), n_exemplars=10, n_components=3)

    def test_negative_snr(self):
        with pytest.raises(DataError):
            SynthSpec(seed=0, dims=(2, 2), n_exemplars=10, n_components=1, snr=-1.0)

    def test_too_few_exemplars(self):
        with pytest.raises(DataError):
            SynthSpec(seed=0, dims=(2, 2), n_exemplars=1, n_components=1)

    def test_single_set_rejected(self):
        with pytest.raises(DataError):
            SynthSpec(seed=0, dims=(2,), n_exemplars=10, n_components=1)

    @pytest.mark.parametrize("field", ["seed", "n_exemplars", "n_components"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None])
    def test_non_integer_sizes_named(self, field, value):
        sizes = {"seed": 1, "n_exemplars": 10, "n_components": 1, field: value}
        with pytest.raises(DataError, match=field):
            SynthSpec(dims=(2, 2), **sizes)

    @pytest.mark.parametrize("value", [True, "1", None, 10**400], ids=["True", "1", "None", "1e400"])
    def test_non_number_snr_named(self, value):
        with pytest.raises(DataError, match="snr"):
            SynthSpec(seed=1, dims=(2, 2), n_exemplars=10, n_components=1, snr=value)

    @pytest.mark.parametrize("value", [3, 2.5, np.float32(0.5), np.float64(4.0), np.int64(2), np.inf, 2**64])
    def test_number_snr_accepted(self, value):
        spec = SynthSpec(seed=1, dims=(2, 2), n_exemplars=10, n_components=1, snr=value)
        assert type(spec.snr) is float and spec.snr == value
        assert all(np.isfinite(s).all() for s in generate(spec).data.sets)

    @pytest.mark.parametrize("value", [2.7, 2.0, True, "2", None])
    def test_non_integer_dims_named(self, value):
        with pytest.raises(DataError, match="dims entry 2"):
            SynthSpec(seed=1, dims=(2, value), n_exemplars=10, n_components=1)

    @pytest.mark.parametrize("value", [4, None])
    def test_non_iterable_dims_refused(self, value):
        with pytest.raises(DataError, match="dims must be a sequence of integers"):
            SynthSpec(seed=1, dims=value, n_exemplars=10, n_components=1)

    def test_numpy_integer_sizes_accepted(self):
        plain = generate(SynthSpec(seed=1, dims=(2, 2), n_exemplars=10, n_components=1))
        spec = SynthSpec(
            seed=np.uint64(1),
            dims=(np.int64(2), np.int8(2)),
            n_exemplars=np.int64(10),
            n_components=np.int32(1),
        )
        assert spec.dims == (2, 2) and all(type(d) is int for d in spec.dims)
        numpy = generate(spec)
        for a, b in zip(plain.data.sets, numpy.data.sets):
            assert np.array_equal(a, b)

    def test_mixing_shape_checked(self):
        with pytest.raises(DataError):
            SynthSpec(
                seed=0,
                dims=(2, 2),
                n_exemplars=10,
                n_components=1,
                mixing=(np.ones((2, 1)), np.ones((3, 1))),
            )

    def test_mixing_count_checked(self):
        with pytest.raises(DataError, match="one mixing matrix per set is required"):
            SynthSpec(seed=1, dims=(2, 2), n_exemplars=10, n_components=1, mixing=(np.ones((2, 1)),))

    def test_non_numeric_mixing_named(self):
        with pytest.raises(DataError, match="mixing matrix for set 1 is not a numeric array"):
            SynthSpec(
                seed=1, dims=(2, 2), n_exemplars=10, n_components=1, mixing=(["a", "b"], [1, 2])
            )

    def test_non_finite_mixing_named(self):
        bad = np.array([[1.0], [np.inf]])
        with pytest.raises(DataError, match="mixing matrix for set 2 contains non-finite entries"):
            SynthSpec(seed=1, dims=(2, 2), n_exemplars=10, n_components=1, mixing=(np.ones((2, 1)), bad))

    @pytest.mark.parametrize("value", [5, 2.5])
    def test_non_iterable_mixing_named(self, value):
        with pytest.raises(DataError, match="mixing must be a sequence of matrices"):
            SynthSpec(seed=1, dims=(2, 2), n_exemplars=10, n_components=1, mixing=value)

    def test_mixing_not_aliased(self):
        a = np.ones((2, 1))
        spec = SynthSpec(seed=1, dims=(2, 2), n_exemplars=10, n_components=1, mixing=(a, a))
        a[0, 0] = 3.0
        assert a.flags.writeable and spec.mixing[0][0, 0] == 1.0

    def test_sigma_conventions(self):
        base = dict(seed=0, dims=(2, 2), n_exemplars=10, n_components=1)
        assert SynthSpec(snr=np.inf, **base).sigma == 0.0
        assert SynthSpec(snr=0.0, **base).sigma == 1.0
        assert SynthSpec(snr=4.0, **base).sigma == 0.5


class TestGenerate:
    def test_deterministic(self):
        spec = SynthSpec(seed=5, dims=(3, 4), n_exemplars=20, n_components=2, snr=10.0)
        a = generate(spec)
        b = generate(spec)
        for x, y in zip(a.data.sets, b.data.sets):
            assert np.array_equal(x, y)
        assert np.array_equal(a.latents, b.latents)

    def test_mixing_columns_unit_norm(self):
        spec = SynthSpec(seed=6, dims=(4, 5), n_exemplars=15, n_components=3)
        res = generate(spec)
        for a in res.mixing:
            assert np.abs(np.linalg.norm(a, axis=0) - 1.0).max() <= 1e-12

    def test_supplied_mixing_used_exactly(self):
        a1 = np.array([[1.0], [0.0]])
        a2 = np.array([[0.0], [2.0]])
        spec = SynthSpec(
            seed=7, dims=(2, 2), n_exemplars=12, n_components=1, mixing=(a1, a2)
        )
        res = generate(spec)
        assert np.array_equal(res.mixing[0], a1)
        assert np.array_equal(res.mixing[1], a2)

    def test_snr_decomposition_identity(self):
        # with supplied mixing the stream layout is identical across snr,
        # so x(snr) = x(inf) + sigma * x(0) exactly
        mix = (np.eye(3)[:, :2], np.eye(4)[:, :2])
        base = dict(seed=11, dims=(3, 4), n_exemplars=25, n_components=2, mixing=mix)
        clean = generate(SynthSpec(snr=np.inf, **base))
        noise = generate(SynthSpec(snr=0.0, **base))
        noisy = generate(SynthSpec(snr=10.0, **base))
        sigma = 1.0 / math.sqrt(10.0)
        for x, s, e in zip(noisy.data.sets, clean.data.sets, noise.data.sets):
            assert np.abs(x - (s + sigma * e)).max() <= 1e-12

    @pytest.mark.parametrize("name", list(GOLDEN_SPECS))
    def test_golden_bytes(self, name):
        res = generate(SynthSpec(**GOLDEN_SPECS[name]))
        h = hashlib.sha256()
        for block in (*res.data.sets, res.latents):
            h.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
        assert h.hexdigest() == GOLDEN_SHA256[name]

    def test_unmixing_inverts_mixing(self):
        spec = SynthSpec(seed=8, dims=(4, 3), n_exemplars=10, n_components=2)
        res = generate(spec)
        for a, pinv in zip(res.mixing, res.unmixing):
            assert np.abs(pinv @ a - np.eye(2)).max() <= 1e-10


class TestRecovery:
    def test_noiseless_single_component(self):
        spec = SynthSpec(seed=42, dims=(3, 3), n_exemplars=100, n_components=1)
        res = generate(spec)
        model = mcca.fit(res.data)
        assert abs(model.rho_analytic[0] - 1.0) <= 1e-6
        assert recovery_score(res, model)[0] >= 0.999

    def test_noisy_instance_oracle(self):
        spec = SynthSpec(
            seed=3, dims=(4, 4, 4), n_exemplars=2000, n_components=2, snr=10.0
        )
        res = generate(spec)
        model = mcca.fit(res.data)
        # top-2 clearly exceed the third component
        assert model.rho_analytic[1] > model.rho_analytic[2] + 0.5
        # the fit can only beat the planted projection it optimizes over
        oracle = [planted_isc(res, q) for q in range(2)]
        assert model.rho_analytic[0] >= max(oracle) - 1e-9
        assert model.rho_analytic[1] >= min(oracle) - 0.02
        assert min(oracle) > 0.7

    def test_signal_free_data_scores_low(self):
        # at snr=0 the observations are pure noise, so no projection of
        # them should track the (discarded) latents beyond sampling noise
        spec = SynthSpec(
            seed=1, dims=(4, 4, 4), n_exemplars=2000, n_components=2, snr=0.0
        )
        res = generate(spec)
        model = mcca.fit(res.data, gamma=1e-6)
        assert recovery_score(res, model).max() < 0.3

    @pytest.mark.parametrize("snr", [np.inf, 10.0, 0.5, 0.0])
    def test_matches_loop_oracle(self, snr):
        spec = SynthSpec(seed=5, dims=(5, 4, 3), n_exemplars=300, n_components=3, snr=snr)
        res = generate(spec)
        model = mcca.fit(res.data, gamma=1e-6)
        got = recovery_score(res, model)
        assert np.abs(got - recovery_score_loops(res, model)).max() <= 1e-12

    def test_dead_columns_score_zero_like_oracle(self):
        # a constant planted latent and an all-zero fitted component sit
        # below the floor on both routes; the rest must still agree
        res = generate(SynthSpec(seed=6, dims=(4, 4), n_exemplars=200, n_components=2))
        latents = res.latents.copy()
        latents[:, 1] = 3.0
        res = dataclasses.replace(res, latents=latents)
        model = mcca.fit(res.data)
        v = model.V.copy()
        v[:, 0] = 0.0
        model = dataclasses.replace(model, V=v)
        got = recovery_score(res, model)
        assert got[1] == 0.0
        assert np.abs(got - recovery_score_loops(res, model)).max() <= 1e-12

    def test_snr_monotonicity(self):
        def mean_top_rho(snr):
            total = 0.0
            for seed in range(20):
                spec = SynthSpec(
                    seed=seed, dims=(3, 3), n_exemplars=200, n_components=1, snr=snr
                )
                total += mcca.fit(generate(spec).data).rho_analytic[0]
            return total / 20.0

        assert mean_top_rho(10.0) > mean_top_rho(0.1)
