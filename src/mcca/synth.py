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
definition. The xoshiro256** state transition is linear over GF(2)
(Blackman & Vigna, "Scrambled Linear Pseudorandom Number Generators",
arXiv:1805.01407), so the 256 x 256 bit matrices of 2**j steps, built once
by repeated squaring, give the start states of contiguous lanes of the
stream; all lanes then step together on numpy uint64 arrays. The scalar
``next_u64`` and ``uniform`` are the reference the tests compare against.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .data import MultiSetData, _check_dims, _freeze, _is_int, _is_real, load
from .errors import DataError
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


def _rotl(x, k: int):
    """Rotate 64-bit words left by ``k``: a Python int or a uint64 array."""
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _step_lanes(s: np.ndarray, out: np.ndarray | None = None) -> None:
    """Advance every lane of the 4 x L uint64 state ``s`` one step, in place.

    Where ``out`` is given, the lanes' xoshiro256** outputs (from the state
    before the step) are written to it.
    """
    s0, s1, s2, s3 = s
    if out is not None:
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


@functools.cache
def _jump_matrix(j: int) -> np.ndarray:
    """The 256 x 256 GF(2) matrix of 2**j steps, as 0/1 float32.

    The step is linear over GF(2), so ``bits @ _jump_matrix(j)`` reduced mod
    2 is the state 2**j steps on. Row i is the image of unit state i. Every
    product of 0/1 matrices sums at most 256 ones, which float32 holds
    exactly, so the reduction is exact.
    """
    if j == 0:
        unit = _from_bits(np.eye(256, dtype=np.float32))
        _step_lanes(unit)
        out = _to_bits(unit)
    else:
        half = _jump_matrix(j - 1)
        out = np.fmod(half @ half, 2.0)
    out.setflags(write=False)
    return out


def _lane_draws(state: list, n: int) -> tuple:
    """The next ``n`` >= 1 outputs of the stream at ``state``, and the state after.

    The outputs are cut into L contiguous lanes of S = 2**p steps (the last
    lane may run past ``n``; its surplus is dropped). Lane starts come from
    ``state`` by doubling: the first 2**j lanes jumped 2**(p+j) steps give
    the next 2**j. All lanes then step together, S times.
    """
    # S near sqrt(n) balances the doubling, whose cost grows with the lanes,
    # against the step loop, whose Python overhead grows with the steps
    p = (n.bit_length() - 1) // 2
    steps = 1 << p
    lanes = -(-n // steps)
    starts = _to_bits(np.array(state, dtype=np.uint64).reshape(4, 1))
    j = p
    while len(starts) < lanes:
        jumped = starts[: lanes - len(starts)] @ _jump_matrix(j)
        starts = np.vstack([starts, np.fmod(jumped, 2.0, out=jumped)])
        j += 1
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
    53 bits of each output. ``next_u64`` and ``uniform`` are the scalar
    definition; ``normals`` computes the same stream lane-parallel.
    """

    def __init__(self, seed: int):
        if not _is_int(seed):
            raise DataError(f"seed must be an integer, got {seed!r}")
        sm = _splitmix64(int(seed) & _MASK64)
        self._s = [next(sm) for _ in range(4)]
        if not any(self._s):
            self._s[0] = 1

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        # top 53 bits give a double in [0, 1)
        return (self.next_u64() >> 11) * _TWO_POW_M53

    def normals(self, count: int) -> np.ndarray:
        """Draw ``count`` standard normals by pairwise Box-Muller.

        Consumes ``2 * ceil(count / 2)`` outputs, the same values and the
        same state advance as that many ``uniform`` calls.
        """
        if not (_is_int(count) and count >= 0):
            raise DataError(f"cannot draw {count!r} normal variates")
        pairs = (int(count) + 1) // 2
        if pairs == 0:
            return np.empty(0)
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
        dims = _check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        if self.n_exemplars < 2:
            raise DataError(f"need at least 2 exemplars, got {self.n_exemplars}")
        if not 1 <= self.n_components <= min(dims):
            raise DataError(
                f"shared component count {self.n_components} must lie in "
                f"[1, {min(dims)}], the smallest set dimension"
            )
        if not (_is_real(self.snr) and self.snr >= 0.0):
            raise DataError(f"snr must be a number >= 0, got {self.snr!r}")
        if self.mixing is not None:
            if len(self.mixing) != len(dims):
                raise DataError("one mixing matrix per set is required")
            frozen = []
            for l, a in enumerate(self.mixing):
                arr = np.array(a, dtype=np.float64)
                want = (dims[l], self.n_components)
                if arr.shape != want:
                    raise DataError(
                        f"mixing matrix for set {l + 1} has shape {arr.shape}, "
                        f"expected {want}"
                    )
                if not np.all(np.isfinite(arr)):
                    raise DataError(f"mixing matrix for set {l + 1} is not finite")
                frozen.append(_freeze(arr))
            object.__setattr__(self, "mixing", tuple(frozen))

    @property
    def n_sets(self) -> int:
        return len(self.dims)

    @property
    def sigma(self) -> float:
        if self.snr == 0.0:
            return 1.0
        if np.isinf(self.snr):
            return 0.0
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
    sigma: float


def generate(spec: SynthSpec) -> SynthResult:
    """Generate one instance; a pure function of ``spec`` including seed."""
    rng = Xoshiro256StarStar(spec.seed)
    t, k = spec.n_exemplars, spec.n_components
    latents = rng.normals(t * k).reshape(t, k)
    signal_on = 0.0 if spec.snr == 0.0 else 1.0
    sigma = spec.sigma
    sets, mixing = [], []
    for l, d in enumerate(spec.dims):
        if spec.mixing is None:
            a = rng.normals(d * k).reshape(d, k)
            norms = np.sqrt(np.einsum("ij,ij->j", a, a))
            if np.any(norms <= 0.0):
                raise DataError(f"degenerate zero mixing column in set {l + 1}")
            a = a / norms
        else:
            a = spec.mixing[l]
        noise = rng.normals(t * d).reshape(t, d)
        sets.append(signal_on * (latents @ a.T) + sigma * noise)
        mixing.append(a)
    return SynthResult(
        data=load(sets),
        latents=_freeze(latents),
        mixing=tuple(_freeze(np.array(a)) for a in mixing),
        unmixing=tuple(_freeze(np.linalg.pinv(a)) for a in mixing),
        sigma=float(sigma),
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
