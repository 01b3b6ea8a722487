"""Bit-exact seed derivation and random streams.

Every stochastic operation in this package draws from a splitmix64 stream,
so any result is a pure function of the 64-bit seed that created it. The
mixing function below is the splitmix64 reference finalizer; keeping it
self-contained (instead of delegating to a library RNG) makes seed streams
trivially portable and reproducible across processes and platforms.

All arithmetic is wrapping 64-bit unsigned. Scalar paths use Python ints
masked to 64 bits; vectorized paths use numpy uint64 arrays, whose
elementwise ops wrap silently, and mix their states in place.

A permutation is the argsort of distinct raw draws. It is computed by one
plain sort of words that pack each draw's high bits with its row index,
which gives the argsort's order unless two draws share their high bits;
then it falls back to ``np.argsort``.
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


def _mix_in_place(z: np.ndarray) -> np.ndarray:
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _argsort_distinct(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys)`` of distinct uint64 keys, through one plain sort.

    Each key's high bits are packed with its row index in the low
    ``(n - 1).bit_length()`` bits, so sorting the packed words orders the
    rows by key. That order is the argsort's unless two keys share their
    high bits; then this falls back to ``np.argsort(keys)``.
    """
    n = keys.size
    bits = max(n - 1, 0).bit_length()
    low = np.uint64((1 << bits) - 1)
    packed = keys & ~low
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    high = packed >> np.uint64(bits)
    if np.any(high[1:] == high[:-1]):
        return np.argsort(keys)
    packed &= low
    return packed.view(np.intp)


class Rng:
    """Sequential splitmix64 stream drawn in batches.

    A batch of ``n`` raw draws consumes the next ``n`` states, so
    consecutive batches continue one stream: ``u64_array(a)`` then
    ``u64_array(b)`` draws what ``u64_array(a + b)`` would. Derived draws
    (uniforms, normals, permutations) consume a fixed, documented number of
    raw draws per call.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def u64_array(self, n: int) -> np.ndarray:
        states = np.arange(1, n + 1, dtype=np.uint64)
        states *= np.uint64(_GOLDEN)
        states += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return _mix_in_place(states)

    def uniforms(self, n: int) -> np.ndarray:
        draws = self.u64_array(n)
        draws >>= np.uint64(11)
        return np.multiply(draws, 2.0**-53, out=draws.view(np.float64))

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller; consumes 2*n raw draws."""
        u1 = self.uniforms(n)
        u2 = self.uniforms(n)
        # sqrt(-2 log1p(-u1)) * cos(2 pi u2), in place and in that order.
        np.negative(u1, out=u1)
        np.log1p(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)
        u2 *= 2.0 * np.pi
        np.cos(u2, out=u2)
        u1 *= u2
        return u1

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of ``n`` raw draws.

        The draws are always distinct: their states differ by distinct
        multiples of the odd golden constant, and the finalizer is a
        bijection. So any sort, stable or not, gives the same order.
        """
        return _argsort_distinct(self.u64_array(n))
