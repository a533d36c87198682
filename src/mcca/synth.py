"""Deterministic synthetic multi-set data with planted shared components.

The generator plants K shared latent signals into every set through
per-set mixing matrices and adds white Gaussian noise:

    x_i^l = A^l s_i + sigma * e_i^l

Latents and noise are standard normal (unit power in expectation), mixing
columns are normalized to unit Euclidean norm, and sigma = 1/sqrt(snr), so
``snr`` is the ratio of each planted component's per-set signal power to
the per-feature noise variance. Two edge conventions: snr = inf means no
noise (sigma = 0); snr = 0 means pure noise (signal term dropped,
sigma = 1).

Randomness comes from a self-contained xoshiro256** generator seeded via
splitmix64, with Gaussian variates by the Box-Muller transform:

    u1, u2 uniform in [0, 1)
    r  = sqrt(-2 ln(1 - u1))
    z0 = r cos(2 pi u2),  z1 = r sin(2 pi u2)

consumed in (z0, z1) pairs, the trailing z1 discarded for odd counts. The
draw order is fixed: the T x K latent matrix row-major, then for each set
in order its mixing entries row-major (skipped when mixing is supplied)
followed by its T x d_l noise matrix row-major. The noise block is drawn
even when sigma = 0, so changing snr under a fixed seed rescales the very
same realizations.

``normals`` computes its draws lane-parallel, bit-identical to the scalar
definition (one output per step, kept with the tests as their reference).
The xoshiro256** state transition is linear over GF(2) (Blackman & Vigna,
"Scrambled Linear Pseudorandom Number Generators", arXiv:1805.01407), so
the 256 x 256 bit matrices of 2**j steps, built once by repeated squaring
and kept bit-packed, give the start states of contiguous lanes of the
stream; all lanes then step together on numpy uint64 arrays.

The same jumps place each stream anywhere: ``row_batches`` starts the
latents and every set's noise at their offsets in the stream and draws
the instance one row batch at a time, so ``mcca synth`` holds one batch;
``generate`` concatenates the same batches.
"""

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

from .data import MultiSetData, _check_dims, _freeze, _is_int, _is_number, _is_real, _sequence, batch_rows, load
from .errors import DataError
from .linalg import as_array
from .metrics import transform

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * np.pi
_TWO_POW_M53 = 1.0 / 9007199254740992.0


def _splitmix64(state: int):
    """Yield the splitmix64 stream starting from ``state``."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    """Rotate the words of a uint64 array left by ``k``."""
    return (x << k) | (x >> (64 - k))


def _step_lanes(s: np.ndarray, out: np.ndarray) -> None:
    """Advance every lane of the 4 x L uint64 state ``s`` one step, in place.

    The lanes' xoshiro256** outputs, from the state before the step, are
    written to ``out``.
    """
    s0, s1, s2, s3 = s
    np.multiply(_rotl(s1 * 5, 7), 9, out=out)
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3[:] = _rotl(s3, 45)


def _to_bits(s: np.ndarray) -> np.ndarray:
    """4 x L uint64 states as L x 256 float32 bit rows, bit 64*w + b of word w."""
    octets = np.ascontiguousarray(s.T, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little").astype(np.float32)


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of ``_to_bits``: L x 256 bit rows back to 4 x L uint64 states."""
    octets = np.packbits(bits.astype(bool), axis=1, bitorder="little")
    return np.ascontiguousarray(octets.view("<u8").T, dtype=np.uint64)


def _mod2(x: np.ndarray) -> np.ndarray:
    """``x`` mod 2 in place, for exact integers 0 to 256 (uint8 would overflow)."""
    x[...] = x.astype(np.uint16) & 1
    return x


@functools.cache
def _packed_jump(j: int) -> np.ndarray:
    """The 256 x 256 GF(2) matrix of 2**j steps, bit-packed along rows (8 KiB).

    The step is linear over GF(2), so ``bits @ _jump_matrix(j)`` reduced mod
    2 is the state 2**j steps on. Row i is the image of unit state i. Every
    product of 0/1 matrices sums at most 256 ones, which float32 holds
    exactly, so the reduction is exact.
    """
    if j == 0:
        unit = _from_bits(np.eye(256, dtype=np.float32))
        _step_lanes(unit, np.empty(256, dtype=np.uint64))
        out = _to_bits(unit)
    else:
        half = _jump_matrix(j - 1)
        out = _mod2(half @ half)
    packed = np.packbits(out.astype(bool), axis=1)
    packed.setflags(write=False)
    return packed


def _jump_matrix(j: int) -> np.ndarray:
    """:func:`_packed_jump` unpacked to a 0/1 float32 matrix, for one product."""
    return np.unpackbits(_packed_jump(j), axis=1).astype(np.float32)


def _advance(bits: np.ndarray, steps: int) -> np.ndarray:
    """L x 256 bit-row states ``steps`` >= 0 steps on: one jump-matrix product per set bit."""
    for j in range(steps.bit_length()):
        if steps >> j & 1:
            bits = _mod2(bits @ _jump_matrix(j))
    return bits


def _lane_draws(state: list, n: int) -> tuple:
    """The next ``n`` >= 1 outputs of the stream at ``state``, and the state after.

    The outputs are cut into L contiguous lanes of S = 2**p steps (the last
    lane may run past ``n``; its surplus is dropped). Lane starts come from
    ``state`` by doubling: the first 2**j lanes jumped 2**(p+j) steps give
    the next 2**j. All lanes then step together, S times.
    """
    # S near sqrt(n) / 2 balances the doubling, whose cost grows with the
    # lanes, against the step loop, whose Python overhead grows with the steps
    p = max(0, (n.bit_length() - 1) // 2 - 1)
    steps = 1 << p
    lanes = -(-n // steps)
    starts = _to_bits(np.array(state, dtype=np.uint64).reshape(4, 1))
    while len(starts) < lanes:  # len(starts) * S is a power of two: one product
        starts = np.vstack([starts, _advance(starts[: lanes - len(starts)], len(starts) * steps)])
    s = _from_bits(starts)
    out = np.empty((steps, lanes), dtype=np.uint64)
    last = n - (lanes - 1) * steps  # steps the last lane takes within n
    for i in range(steps):
        _step_lanes(s, out[i])
        if i + 1 == last:
            after = s[:, -1].tolist()
    return out.T.ravel()[:n], after


class Xoshiro256StarStar:
    """Portable 64-bit PRNG (xoshiro256**), state seeded via splitmix64.

    The integer stream is exact across platforms; uniforms take the top
    53 bits of each output. ``normals`` computes the stream lane-parallel.
    Its one caller is :func:`row_batches`, whose :class:`SynthSpec` has
    already checked the seed and the sizes, so it checks neither again.
    """

    def __init__(self, seed: int):
        # splitmix64 maps four distinct states through a bijection, so at
        # most one of the four words is 0: no seed gives the all-zero state
        sm = _splitmix64(int(seed) & _MASK64)
        self._s = [next(sm) for _ in range(4)]

    def jump(self, steps: int) -> None:
        """Skip ``steps`` >= 0 outputs."""
        bits = _advance(_to_bits(np.array(self._s, dtype=np.uint64).reshape(4, 1)), steps)
        self._s = _from_bits(bits)[:, 0].tolist()

    def normals(self, count: int) -> np.ndarray:
        """Draw ``count`` >= 1 standard normals by pairwise Box-Muller.

        Consumes ``2 * ceil(count / 2)`` outputs of the stream, one uniform
        from each.
        """
        pairs = (int(count) + 1) // 2
        raw, self._s = _lane_draws(self._s, 2 * pairs)
        u = (raw >> 11) * _TWO_POW_M53
        radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        angle = _TWO_PI * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        return z[:count]


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic instance; generation is pure in this."""

    seed: int
    dims: tuple
    n_exemplars: int
    n_components: int
    snr: float = np.inf
    mixing: tuple | None = field(default=None)

    def __post_init__(self):
        for name in ("seed", "n_exemplars", "n_components"):
            if not _is_int(value := getattr(self, name)):
                raise DataError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        dims = _check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        if self.n_exemplars < 2:
            raise DataError(f"need at least 2 exemplars, got {self.n_exemplars}")
        if not 1 <= self.n_components <= min(dims):
            raise DataError(
                f"shared component count {self.n_components} must lie in "
                f"[1, {min(dims)}], the smallest set dimension"
            )
        snr = self.snr
        if not (_is_real(snr) and snr >= 0.0 and (snr == np.inf or _is_number(snr))):
            raise DataError(f"snr must be a number >= 0, got {snr!r}")
        object.__setattr__(self, "snr", float(snr))
        if self.mixing is not None:
            mixing = _sequence(self.mixing, "mixing", "matrices")
            if len(mixing) != len(dims):
                raise DataError("one mixing matrix per set is required")
            frozen = []
            for l, a in enumerate(mixing):
                name, want = f"mixing matrix for set {l + 1}", (dims[l], self.n_components)
                arr = as_array(a, name, 2)
                if arr.shape != want:
                    raise DataError(f"{name} has shape {arr.shape}, expected {want}")
                frozen.append(_freeze(arr.copy()))  # the caller's array stays writable
            object.__setattr__(self, "mixing", tuple(frozen))

    @property
    def sigma(self) -> float:
        if self.snr == 0.0:
            return 1.0
        return 1.0 / np.sqrt(self.snr)


@dataclass(frozen=True)
class SynthResult:
    """Generated data plus the ground truth that produced it.

    ``unmixing[l]`` holds the pseudo-inverse of set l's mixing matrix; its
    rows recover the planted latents from noiseless data.
    """

    data: MultiSetData
    latents: np.ndarray
    mixing: tuple
    unmixing: tuple


def row_batches(spec: SynthSpec) -> tuple:
    """The mixing matrices, and an iterator of ``(latents, sets)`` row batches.

    Batches are :func:`~mcca.data.batch_rows` rows long and the last takes
    the rest, joined to the batch before it if that rest is one row.
    ``latents`` is the batch's B x K latent rows and ``sets`` its B x d_l
    block of each set. The draw order fixes where the latents and each
    set's noise start in the stream, so one generator jumps there for
    each, and each batch draws its rows from every one of them in turn.
    Every batch but the last has an even row count, so no batch splits a
    Box-Muller pair.
    """
    t, k = spec.n_exemplars, spec.n_components
    rng = Xoshiro256StarStar(spec.seed)
    streams = [copy.copy(rng)]
    rng.jump(2 * ((t * k + 1) // 2))  # past the latents' pairs
    mixing = []
    for l, d in enumerate(spec.dims):
        if spec.mixing is None:
            a = rng.normals(d * k).reshape(d, k)
            norms = np.sqrt(np.einsum("ij,ij->j", a, a))
            if np.any(norms <= 0.0):
                raise DataError(f"degenerate zero mixing column in set {l + 1}")
            a = a / norms
        else:
            a = spec.mixing[l]
        mixing.append(a)
        streams.append(copy.copy(rng))
        if l + 1 < len(spec.dims):
            rng.jump(2 * ((t * d + 1) // 2))  # past this set's noise pairs
    return tuple(mixing), _draw_batches(spec, mixing, streams)


def _draw_batches(spec: SynthSpec, mixing: list, streams: list):
    t, k = spec.n_exemplars, spec.n_components
    signal_on = 0.0 if spec.snr == 0.0 else 1.0
    starts = list(range(0, t - 1, batch_rows(sum(spec.dims))))
    for a, b in zip(starts, starts[1:] + [t]):
        latents = streams[0].normals((b - a) * k).reshape(b - a, k)
        sets = [
            signal_on * (latents @ mix.T) + spec.sigma * noise.normals((b - a) * d).reshape(b - a, d)
            for d, mix, noise in zip(spec.dims, mixing, streams[1:])
        ]
        yield latents, sets


def generate(spec: SynthSpec) -> SynthResult:
    """Generate one instance; a pure function of ``spec`` including seed.

    The data and latents are the concatenated :func:`row_batches`.
    """
    mixing, batches = row_batches(spec)
    parts = list(batches)
    latents = np.concatenate([lat for lat, _ in parts])
    sets = [np.concatenate([part[l] for _, part in parts]) for l in range(len(spec.dims))]
    del parts  # before load copies the sets
    return SynthResult(
        data=load(sets),
        latents=_freeze(latents),
        mixing=tuple(_freeze(np.array(a)) for a in mixing),
        unmixing=tuple(_freeze(np.linalg.pinv(a)) for a in mixing),
    )


def recovery_score(result: SynthResult, model) -> np.ndarray:
    """How well fitted components recover each planted latent.

    For planted component q, returns the maximum over fitted components of
    the absolute Pearson correlation between the planted latent and the
    across-set average of the fitted component signal. Values lie in
    [0, 1]; a fitted signal with zero variance contributes 0.
    """
    proj = transform(model, result.data)
    averaged = np.mean(proj.signals, axis=0)
    averaged = averaged - averaged.mean(axis=0)
    latents = result.latents - result.latents.mean(axis=0)
    a_norm = np.sqrt(np.einsum("ij,ij->j", averaged, averaged))
    l_norm = np.sqrt(np.einsum("ij,ij->j", latents, latents))
    floor = 1e-12 * max(float(a_norm.max(initial=0.0)), float(l_norm.max(initial=0.0)))
    live = np.outer(l_norm > floor, a_norm > floor)
    norms = np.where(live, np.outer(l_norm, a_norm), 1.0)
    corr = np.where(live, np.abs(latents.T @ averaged) / norms, 0.0)
    return np.minimum(corr.max(axis=1, initial=0.0), 1.0)
