"""Deterministic, platform-independent pseudo-random numbers.

Every stochastic choice in the package (weight init, shuffling, data
synthesis, augmentation) draws from :class:`DetRng`, a counter-based
generator built on the splitmix64 mixing function.  The i-th output is
``mix64(seed + (i+1) * GOLDEN)`` where GOLDEN = 0x9E3779B97F4A7C15, so a
stream is a pure function of its seed: identical seeds give bit-identical
streams on every platform, and independent substreams are derived by
re-mixing the seed with an integer key.

Gaussian variates use the Box-Muller transform on 53-bit uniforms, again a
fixed algorithm with no platform-dependent branches.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_NEG53 = 2.0 ** -53


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (pure Python, wrapping)."""
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Fold integer keys into a seed, one mix per key."""
    s = seed & _MASK
    for k in keys:
        s = mix64(s ^ mix64(k & _MASK))
    return s


def _mix64_array(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps silently for numpy arrays
    z = x + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class DetRng:
    """Counter-based splitmix64 stream with vectorized draws."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64_array(np.uint64(self._seed) + idx * np.uint64(_GOLDEN))

    def random(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1) with 53-bit resolution."""
        return ((self._raw(n) >> np.uint64(11)).astype(np.float64)) * _TWO_NEG53

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        return low + (high - low) * self.random(n)

    def normal(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller."""
        pairs = (n + 1) // 2
        u1 = (self._raw(pairs) >> np.uint64(11)).astype(np.float64)
        u2 = (self._raw(pairs) >> np.uint64(11)).astype(np.float64)
        # shift u1 into (0, 1] so the log is finite
        r = np.sqrt(-2.0 * np.log((u1 + 1.0) * _TWO_NEG53))
        theta = (2.0 * math.pi) * (u2 * _TWO_NEG53)
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n ints uniform on [0, bound); multiply-shift, bias < 2**-53."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return np.minimum((self.random(n) * bound).astype(np.int64), bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic shuffle of range(n) by sorting random keys."""
        return np.argsort(self.random(n), kind="stable")
