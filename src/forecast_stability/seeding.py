"""Bit-exact seed derivation and random streams.

Every stochastic operation in this package draws from a splitmix64 stream,
so any result is a pure function of the 64-bit seed that created it. The
mixing function below is the splitmix64 reference finalizer; keeping it
self-contained (instead of delegating to a library RNG) makes seed streams
trivially portable and reproducible across processes and platforms.

All arithmetic is wrapping 64-bit unsigned. Scalar paths use Python ints
masked to 64 bits; vectorized paths use numpy uint64 arrays, whose
elementwise ops wrap silently.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(value: int) -> int:
    """One splitmix64 step: increment by the golden-ratio constant, then mix.

    ``splitmix64(s)`` equals the first output of the reference generator
    seeded with ``s``. Inputs are reduced modulo 2**64.
    """
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, stream_tag: int) -> int:
    """Derive an independent 64-bit seed for a named stream.

    Defined as ``splitmix64(master XOR stream_tag)``. Equal inputs always
    produce equal outputs; distinct tags give well-separated streams.
    """
    return splitmix64((master ^ stream_tag) & _MASK64)


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of ``text``.

    Used to turn human-readable model labels into stream tags. Stated
    explicitly so independent implementations agree bit-for-bit.
    """
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def _mix_array(states: np.ndarray) -> np.ndarray:
    z = (states ^ (states >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class Rng:
    """Sequential splitmix64 stream with scalar and batched draws.

    A batch of ``n`` raw draws consumes exactly the same ``n`` states as
    ``n`` scalar calls, so mixing scalar and batched access stays
    reproducible. Derived draws (uniforms, normals, permutations) consume a
    fixed, documented number of raw draws per call.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = ((self._state ^ (self._state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def u64_array(self, n: int) -> np.ndarray:
        steps = np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self._state) + steps * np.uint64(_GOLDEN)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return _mix_array(states)

    def uniform(self) -> float:
        """One float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        return (self.u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller; consumes 2*n raw draws."""
        u1 = self.uniforms(n)
        u2 = self.uniforms(n)
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        return radius * np.cos(2.0 * np.pi * u2)

    def normal(self) -> float:
        return float(self.normals(1)[0])

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection; unbiased."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % n

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of ``n`` raw draws.

        The draws are always distinct: their states differ by distinct
        multiples of the odd golden constant, and the finalizer is a
        bijection. So any sort, stable or not, gives the same order.
        """
        keys = self.u64_array(n)
        return np.argsort(keys)
