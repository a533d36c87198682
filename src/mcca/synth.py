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
"""

from dataclasses import dataclass, field

import numpy as np

from .data import MultiSetData, _freeze, load
from .errors import DataError
from .metrics import transform

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * np.pi


def _splitmix64(state: int):
    """Yield the splitmix64 stream starting from ``state``."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


class Xoshiro256StarStar:
    """Portable 64-bit PRNG (xoshiro256**), state seeded via splitmix64.

    The integer stream is exact across platforms; uniforms take the top
    53 bits of each output.
    """

    def __init__(self, seed: int):
        sm = _splitmix64(int(seed) & _MASK64)
        self._s = [next(sm) for _ in range(4)]
        if not any(self._s):
            self._s[0] = 1

    def next_u64(self) -> int:
        s = self._s
        result = (self._rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = self._rotl(s[3], 45)
        return result

    @staticmethod
    def _rotl(x: int, k: int) -> int:
        return ((x << k) | (x >> (64 - k))) & _MASK64

    def uniform(self) -> float:
        # top 53 bits give a double in [0, 1)
        return (self.next_u64() >> 11) * (1.0 / 9007199254740992.0)

    def normals(self, count: int) -> np.ndarray:
        """Draw ``count`` standard normals by pairwise Box-Muller."""
        if count < 0:
            raise DataError(f"cannot draw {count} normal variates")
        pairs = (count + 1) // 2
        u = np.array([self.uniform() for _ in range(2 * pairs)])
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
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise DataError("need at least 2 data sets")
        if any(d < 1 for d in dims):
            raise DataError(f"set dimensions must be >= 1, got {dims}")
        if self.n_exemplars < 2:
            raise DataError(f"need at least 2 exemplars, got {self.n_exemplars}")
        if not 1 <= self.n_components <= min(dims):
            raise DataError(
                f"shared component count {self.n_components} must lie in "
                f"[1, {min(dims)}], the smallest set dimension"
            )
        if not (self.snr >= 0.0):
            raise DataError(f"snr must be >= 0, got {self.snr}")
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
    scores = np.zeros(latents.shape[1])
    for q in range(latents.shape[1]):
        if l_norm[q] <= floor:
            continue
        best = 0.0
        for m in range(averaged.shape[1]):
            if a_norm[m] <= floor:
                continue
            c = abs(float(latents[:, q] @ averaged[:, m]) / (l_norm[q] * a_norm[m]))
            best = max(best, c)
        scores[q] = min(best, 1.0)
    return scores
