"""Seedable deterministic PRNG used everywhere randomness is needed.

The generator is SplitMix64. Its whole behaviour is pinned down here so a
stream can be reproduced bit-exactly outside this package:

  state := (state + 0x9E3779B97F4A7C15) mod 2^64
  z := state
  z := ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
  z := ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
  output := z xor (z >> 31)

Derived draws:
  uniform():   (next_u64() >> 11) * 2^-53, in [0, 1)
  normal():    Box-Muller cosine branch; consumes exactly two uniforms,
               with u1 = ((next_u64() >> 11) + 1) * 2^-53 in (0, 1]
  randint(n):  next_u64() mod n
  shuffle(xs): Fisher-Yates from the top, j = randint(i + 1) for
               i = len-1 .. 1
  sample(xs,k): shuffle a copy, take the first k
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53 = float(1 << 53)


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / _TWO53

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        u1 = ((self.next_u64() >> 11) + 1) / _TWO53
        u2 = (self.next_u64() >> 11) / _TWO53
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randint(self, n: int) -> int:
        if n <= 0:
            raise DomainError(f"randint needs n > 0, got {n}")
        return self.next_u64() % n

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randint(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample(self, xs, k: int) -> list:
        if k > len(xs):
            raise DomainError(f"cannot sample {k} items from {len(xs)}")
        pool = list(xs)
        self.shuffle(pool)
        return pool[:k]

    def normal_array(self, shape, sigma: float = 1.0) -> np.ndarray:
        """Row-major array of normal(0, sigma) draws, bit-equal to calling
        ``normal(0.0, sigma)`` once per element.

        The 2n raw outputs are mixed as uint64 arrays (which wrap mod 2^64);
        the transcendental functions stay the scalar ``math`` ones.
        """
        n = 1
        for s in shape:
            n *= s
        z = np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + 2 * n * _GAMMA) & _MASK64
        z = (z ^ (z >> 30)) * np.uint64(_MIX1)
        z = (z ^ (z >> 27)) * np.uint64(_MIX2)
        z = (z ^ (z >> 31)) >> 11
        u1 = ((z[0::2] + 1) / _TWO53).tolist()
        u2 = (z[1::2] / _TWO53).tolist()
        two_pi = 2.0 * math.pi
        out = [0.0 + sigma * math.sqrt(-2.0 * math.log(a)) * math.cos(two_pi * b)
               for a, b in zip(u1, u2)]
        return np.array(out, dtype=np.float64).reshape(shape)
