"""Seedable deterministic PRNG used everywhere randomness is needed.

The generator is SplitMix64. Its whole behaviour is pinned down here so a
stream can be reproduced bit-exactly outside this package:

  state := (state + 0x9E3779B97F4A7C15) mod 2^64
  z := state
  z := ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
  z := ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
  output := z xor (z >> 31)

Output i is a pure function of seed + i * 0x9E3779B97F4A7C15, so the class
mixes outputs in blocks of numpy uint64 arithmetic (which wraps mod 2^64)
and serves them in stream order: the stream is the one defined above.

Derived draws:
  uniform():   (next_u64() >> 11) * 2^-53, in [0, 1)
  normal():    Box-Muller cosine branch; consumes exactly two uniforms,
               with u1 = ((next_u64() >> 11) + 1) * 2^-53 in (0, 1]
               (normal_array draws one normal(0, sigma) per element)
  randint(n):  next_u64() mod n, for an integer n >= 1
  shuffle(xs): Fisher-Yates from the top, j = randint(i + 1) for
               i = len-1 .. 1
  sample(xs,k): shuffle a copy, take the first k, for 0 <= k <= len(xs)
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
_BLOCK = 1024   # outputs next_u64 mixes at once


def _mix(state: int, count: int) -> np.ndarray:
    """The next ``count`` outputs after ``state``, as a uint64 array."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(state)
    z = (z ^ (z >> 30)) * np.uint64(_MIX1)
    z = (z ^ (z >> 27)) * np.uint64(_MIX2)
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer. ``_block`` holds mixed
    outputs not yet served, the next one last, and a copy gets its own;
    ``_state`` is the state after them."""

    __slots__ = ("_state", "_block")

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64
        self._block: list[int] = []

    def __copy__(self) -> SplitMix64:
        twin = SplitMix64(self._state)
        twin._block = self._block.copy()
        return twin

    def next_u64(self) -> int:
        if not self._block:
            self._block = _mix(self._state, _BLOCK)[::-1].tolist()
            self._state = (self._state + _BLOCK * _GAMMA) & _MASK64
        return self._block.pop()

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / _TWO53

    def randint(self, n: int) -> int:
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"randint needs an integer n >= 1, got {n!r}")
        return self.next_u64() % n

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample(self, xs, k: int) -> list:
        if not 0 <= k <= len(xs):
            raise DomainError(f"cannot sample {k} items from {len(xs)}")
        pool = list(xs)
        self.shuffle(pool)
        return pool[:k]

    def normal_array(self, shape, sigma: float = 1.0) -> np.ndarray:
        """Row-major array of normal(0, sigma) draws, one per element, the held
        block's outputs first; the transcendental functions stay the ``math`` ones."""
        if any(s < 0 for s in shape):
            raise DomainError(f"normal_array needs non-negative dimensions, got {shape}")
        n = 2 * math.prod(shape)
        held = [self._block.pop() for _ in range(min(n, len(self._block)))]
        z = np.concatenate([np.array(held, dtype=np.uint64),
                            _mix(self._state, n - len(held))]) >> 11
        self._state = (self._state + (n - len(held)) * _GAMMA) & _MASK64
        u1 = ((z[0::2] + 1) / _TWO53).tolist()
        u2 = (z[1::2] / _TWO53).tolist()
        out = [0.0 + sigma * math.sqrt(-2.0 * math.log(a)) * math.cos(math.tau * b)
               for a, b in zip(u1, u2)]
        return np.array(out, dtype=np.float64).reshape(shape)
