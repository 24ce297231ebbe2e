"""Self-contained deterministic PRNG: xoshiro256** seeded through splitmix64.

The whole library draws randomness through this generator instead of the
platform default so that initializations, data partitions and minibatch
selections reproduce bit-for-bit across runs, machines and implementations.

Constants (all arithmetic mod 2**64):

* splitmix64: state increment ``0x9E3779B97F4A7C15``, mixers
  ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB`` with shifts 30/27/31.
* xoshiro256**: scrambler ``rotl(s1 * 5, 7) * 9``, state update with
  ``t = s1 << 17`` and ``rotl(s3, 45)``.

Doubles are produced as ``(next_u64() >> 11) * 2**-53`` (uniform in [0, 1)),
normals by the Box-Muller transform on consecutive uniform pairs, and bounded
integers by rejection sampling (no modulo bias). Fisher-Yates drives shuffles
and sampling without replacement.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64_mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Rng:
    """xoshiro256** stream with explicit, serializable state."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        sm = seed & _MASK
        state = []
        for _ in range(4):
            sm = (sm + _GOLDEN) & _MASK
            state.append(_splitmix64_mix(sm))
        if not any(state):
            state[0] = _GOLDEN
        self._s = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: int | None = None):
        if size is None:
            return low + (high - low) * self.random()
        vals = [low + (high - low) * self.random() for _ in range(size)]
        return np.array(vals, dtype=np.float64)

    def normal(self, size: int | None = None):
        n = 1 if size is None else size
        out = np.empty(n, dtype=np.float64)
        for i in range(0, n, 2):
            u1 = 1.0 - self.random()  # (0, 1], keeps log finite
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            out[i] = r * math.cos(2.0 * math.pi * u2)
            if i + 1 < n:
                out[i + 1] = r * math.sin(2.0 * math.pi * u2)
        return out[0] if size is None else out

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = ((1 << 64) // n) * n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, arr) -> None:
        """In-place Fisher-Yates shuffle (descending index order)."""
        for i in range(len(arr) - 1, 0, -1):
            j = self.randint(i + 1)
            arr[i], arr[j] = arr[j], arr[i]

    def sample(self, n: int, k: int) -> np.ndarray:
        """k distinct integers from [0, n), in draw order (partial Fisher-Yates).

        The swapped positions of the virtual pool ``range(n)`` live in a dict,
        so a draw costs O(k) whatever n is.
        """
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        moved: dict[int, int] = {}
        out = []
        for i in range(k):
            j = i + self.randint(n - i)
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)  # position i is never read again
        return np.array(out, dtype=np.int64)

    def spawn(self, key: int) -> "Rng":
        """Derive an independent child stream keyed by a small integer."""
        child_seed = _splitmix64_mix((self._s[0] + (key + 1) * _GOLDEN) & _MASK)
        return Rng(child_seed)

    def getstate(self) -> tuple[int, int, int, int]:
        return tuple(self._s)

    def setstate(self, state) -> None:
        if len(state) != 4:
            raise ValueError("state must have 4 words")
        self._s = [int(w) & _MASK for w in state]
