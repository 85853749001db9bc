"""Working precision and deterministic randomness.

Tensors are plain numpy arrays in row-major (C) order.  32-bit floats are
the working precision for training and inference; 64-bit arrays serve the
finite-difference gradient checks.  Layers are built in float32 and take
64-bit precision from assigned float64 parameter arrays and float64 input.

Randomness comes from ``RngStream``, a counter-based SplitMix64 generator.
Output ``i`` of a stream is ``mix64(seed + (i + 1) * GOLDEN)``, so the
sequence depends only on the 64-bit seed and the draw index: identical on
every platform, cheap to fork, and safe to vectorise.  Consumers that must
not interleave draws (batch sampling, augmentation, noise, dropout) each
own a fork keyed by a label.

``gaussian32`` is the one normal sampler.  It draws float32 normals, one
raw output per pair: the top 24 bits of its high half give u1 and the top
24 bits of its low half give u2, each a float32 uniform on a 2**-24 grid,
and Box-Muller runs in float32, so |z| <= sqrt(-2 ln 2**-24) ~= 5.77.
Noise for a 3x512x512 composite takes 12.7 ms; a float64 Box-Muller on
one raw output per uniform took 52.6 ms (median of 25, 2-vCPU host).  The
finite-difference gradient checks draw from it too, cast to float64.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

DEFAULT_DTYPE = np.float32

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_U64 = np.uint64
_TWO53 = float(1 << 53)
_TWO_M24 = 2.0 ** -24


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser, in place on the uint64 array z, which it returns.
    uint64 arithmetic wraps mod 2**64 by design."""
    t = np.empty_like(z)
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, _U64(shift), out=t)
        z ^= t
        z *= mul
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z


def _label_hash(label: str) -> np.uint64:
    h = _FNV_OFFSET
    for b in label.encode("utf-8"):
        h = (h ^ _U64(b)) * _FNV_PRIME
    return h


class RngStream:
    """Counter-based SplitMix64 stream with a 64-bit seed.

    The stream is single-owner: never share one instance between
    concurrent consumers; fork a child per consumer instead.
    """

    def __init__(self, seed: int):
        self.seed = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def fork(self, label: str) -> "RngStream":
        """Derive an independent child stream keyed by a label.

        Forking does not consume draws from the parent, so sibling forks
        and the parent never interleave.
        """
        with np.errstate(over="ignore"):
            child = _mix64(np.array([self.seed ^ _label_hash(label)], dtype=np.uint64))[0]
        return RngStream(int(child))

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs; advances the counter by n."""
        if n < 0:
            raise InvalidParameterError("draw count must be >= 0")
        z = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            z *= _GOLDEN
            z += self.seed
            return _mix64(z)

    def uniform(self, n: int) -> np.ndarray:
        """Next n doubles in [0, 1), from the top 53 bits of each raw draw."""
        return (self.raw(n) >> _U64(11)).astype(np.float64) / _TWO53

    def gaussian32(self, n: int) -> np.ndarray:
        """Next n standard normal float32s via Box-Muller, one raw draw per pair.

        Pair i reads raw draw i: u1 = 1 - (bits 63..40) * 2**-24 in (0, 1]
        and u2 = (bits 31..8) * 2**-24 in [0, 1), both exact in float32.
        The first ceil(n/2) outputs are r*cos(theta), the rest r*sin(theta).
        """
        if n < 0:
            raise InvalidParameterError("draw count must be >= 0")
        pairs = (n + 1) // 2
        bits = self.raw(pairs)
        r = (bits >> _U64(40)).astype(np.float32)
        bits >>= _U64(8)
        bits &= _U64(0xFFFFFF)
        theta = bits.astype(np.float32)
        r *= np.float32(-_TWO_M24)
        r += np.float32(1.0)
        np.log(r, out=r)
        r *= np.float32(-2.0)
        np.sqrt(r, out=r)
        theta *= np.float32(2.0 * np.pi * _TWO_M24)
        out = np.empty(2 * pairs, dtype=np.float32)
        np.multiply(r, np.cos(theta), out=out[:pairs])
        np.sin(theta, out=theta)
        np.multiply(r, theta, out=out[pairs:])
        return out[:n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """Next n integers uniform on [0, bound)."""
        if bound < 1:
            raise InvalidParameterError("bound must be >= 1")
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)
