"""Working precision and deterministic randomness.

Tensors are plain numpy arrays in row-major (C) order.  32-bit floats are
the working precision for training and inference; 64-bit arrays serve the
finite-difference gradient checks.  Layers are built in float32 and take
64-bit precision from assigned float64 parameter arrays and float64 input.

Randomness comes from ``RngStream``, a counter-based SplitMix64 generator.
Output ``i`` of a stream is ``mix64(seed + (i + 1) * GOLDEN)``, so the
sequence depends only on the 64-bit seed and the draw index: identical on
every platform, cheap to fork, and safe to vectorise.  Consumers that must
not interleave draws (weight init, batch sampling, augmentation, dropout)
each own a fork keyed by a label.
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


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finaliser; uint64 arithmetic wraps mod 2**64 by design.
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


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
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self.seed + idx * _GOLDEN)

    def uniform(self, n: int) -> np.ndarray:
        """Next n doubles in [0, 1), from the top 53 bits of each raw draw."""
        return (self.raw(n) >> _U64(11)).astype(np.float64) / _TWO53

    def gaussian(self, n: int) -> np.ndarray:
        """Next n standard normal doubles via Box-Muller on uniform pairs."""
        if n < 0:
            raise InvalidParameterError("draw count must be >= 0")
        pairs = (n + 1) // 2
        u = self.uniform(2 * pairs)
        u1 = 1.0 - u[:pairs]  # (0, 1]: keeps log() finite
        u2 = u[pairs:]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """Next n integers uniform on [0, bound)."""
        if bound < 1:
            raise InvalidParameterError("bound must be >= 1")
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)
