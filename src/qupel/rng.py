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

Bulk draws. ``normal(size)`` and ``uniform(low, high, size)`` with ``size`` at
least ``_BULK_MIN`` give the same values, and leave the same state, as the
one-at-a-time loops that smaller sizes run, but draw on numpy ``uint64``
lanes:

* The xoshiro256** update is linear over GF(2), so one step is the 256 x 256
  bit matrix T (row j: the state one step after the unit state e_j), and
  ``state @ T^k`` is the state k steps on. ``_square(k)`` caches T^(2^k).
* Each of up to ``_LANES`` lanes takes B = 2^b draws, the power of two at
  least ``ceil(n / _LANES)``. Lane l starts at ``s @ T^(l B)``; the starts
  double, ``S <- [S, S @ T^(2^j B)]``, so every jump is a cached T^(2^k).
* The lanes step together with the scalar update and scrambler, and the
  output is read lane-major: element i is draw i. The stream ends in the
  state of the lane holding draw n - 1 just after that draw, which is
  ``s @ T^n``.
* GF(2) products run as float32 GEMMs of 0/1 matrices followed by ``& 1``.
  No sum exceeds 256, so every BLAS kernel, in any summation order and with
  or without FMA, gives the exact counts: the draws do not depend on the BLAS
  build. The GEMMs are 64 x 64 x 64 blocks, so they stay on the calling
  thread.
* Box-Muller maps ``math.log``, ``math.cos`` and ``math.sin`` over the
  uniforms, as the loop does: ``np.log`` differed from ``math.log`` on 317
  of 80 000 uniforms, which moved 134 of 80 000 normals by 1-2 ulp. The
  square root is ``np.sqrt``, correctly rounded like ``math.sqrt``.
* The cache holds T^(2^k) for k up to ``max(6, floor(log2(n - 1)))``, n the
  largest bulk draw, at 8 KB each: 104 KB after ``make_blobs``' 8000-normal
  draws, and at most 64 matrices (512 KB) for any n below 2^64.
* ``_BULK_MIN = 1000``: on a 2-vCPU Xeon host, once the first call has
  built the cache (about 2-3 ms), ``normal(n)`` took 0.81 / 0.83 / 0.98 /
  1.95 ms on lanes against 0.81 / 1.10 / 2.26 / 8.90 ms in the loop for
  n = 750 / 1000 / 2000 / 8000.
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


_LANES = 128
_BULK_MIN = 1000  # the smallest size drawn on lanes

# _SQUARES[k] is T^(2^k) over GF(2) with its rows packed as states, (256, 4) '<u8'
_SQUARES: list[np.ndarray] = []


def _bits(words: np.ndarray) -> np.ndarray:
    """(r, 4) states -> (r, 256) 0/1 bytes; bit 64*w + b is bit b of word w."""
    return np.unpackbits(np.ascontiguousarray(words, dtype="<u8").view(np.uint8),
                         axis=1, bitorder="little")


def _words(bits: np.ndarray) -> np.ndarray:
    """Inverse of ``_bits``: (r, 256) 0/1 -> (r, 4) '<u8' states."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product over GF(2) of 0/1 matrices: float32 GEMMs, then ``& 1``.

    Each entry sums at most 256 products of 0 and 1, and float32 holds every
    integer up to 2**24, so the GEMMs are exact in any order of summation.
    They run on 64 x 64 x 64 blocks: BLAS keeps GEMMs that small on the
    calling thread, and no temporary exceeds 64 KB.
    """
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.uint8)
    cols = [b[:, j:j + 64].astype(np.float32) for j in range(0, b.shape[1], 64)]
    for i in range(0, a.shape[0], 64):
        rows = a[i:i + 64].astype(np.float32)
        for j, col in zip(range(0, b.shape[1], 64), cols):
            acc = rows[:, :64] @ col[:64]
            for k in range(64, a.shape[1], 64):
                acc += rows[:, k:k + 64] @ col[k:k + 64]
            out[i:i + 64, j:j + 64] = acc.astype(np.uint16) & 1
    return out


def _walk(states: np.ndarray, steps: int):
    """Step every row of the (r, 4) ``states`` together, ``steps`` times.

    Yields the word arrays ``s0, s1, s2, s3`` after each step. The next step
    overwrites them, so copy what must outlive it.
    """
    s0, s1, s2, s3 = (np.array(states[:, w], dtype=np.uint64) for w in range(4))
    t = np.empty_like(s1)
    for _ in range(steps):
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)  # s3 = rotl(s3, 45)
        s3 >>= 19
        s3 |= t
        yield s0, s1, s2, s3


def _square(k: int) -> np.ndarray:
    """T^(2^k), where row j of T is the state one step after the unit state e_j."""
    if not _SQUARES:
        # row j of T^K is e_j after K steps, so the first powers step the identity
        for count, words in enumerate(_walk(_words(np.eye(256, dtype=np.uint8)), 64), 1):
            if count & (count - 1) == 0:
                _SQUARES.append(np.stack(words, axis=1).astype("<u8"))
    while len(_SQUARES) <= k:
        t = _bits(_SQUARES[-1])
        _SQUARES.append(_words(_gf2_matmul(t, t)))
    return _SQUARES[k]


def _jump(states: np.ndarray, k: int) -> np.ndarray:
    """Each row of the (r, 4) ``states`` advanced by 2^k steps."""
    return _words(_gf2_matmul(_bits(states), _bits(_square(k))))


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

    def _uniforms(self, n: int) -> np.ndarray:
        """The next n values of ``random()``, drawn on up to ``_LANES`` lanes."""
        b = (-(-n // _LANES) - 1).bit_length()
        steps = 1 << b  # draws per lane, the power of two >= ceil(n / _LANES)
        lanes = -(-n // steps)
        starts = np.array([self._s], dtype="<u8")
        while len(starts) < lanes:  # lane l starts l * steps draws in
            starts = np.concatenate([starts, _jump(starts, b + len(starts).bit_length() - 1)])
        draws = np.empty((steps, lanes), dtype=np.uint64)
        draws[0] = starts[:lanes, 1]
        last, final = lanes - 1, n - (lanes - 1) * steps
        for step, (s0, s1, s2, s3) in enumerate(_walk(starts[:lanes], steps), 1):
            if step < steps:
                draws[step] = s1
            if step == final:  # the last lane has just drawn draw n - 1
                self._s = [int(s0[last]), int(s1[last]), int(s2[last]), int(s3[last])]
        x = draws.T.ravel()[:n]  # lane-major: element i is draw i
        x *= 5
        x = (x << 7) | (x >> 57)
        x *= 9
        x >>= 11
        return x.astype(np.float64) * 2.0**-53

    def uniform(self, low: float, high: float, size: int | None = None):
        if size is None:
            return low + (high - low) * self.random()
        if size >= _BULK_MIN:
            # the loop's scalar arithmetic, in float32 for float32 bounds, then float64
            u = self._uniforms(size).astype(np.result_type(high - low, 1.0), copy=False)
            return np.asarray(low + (high - low) * u, dtype=np.float64)
        vals = [low + (high - low) * self.random() for _ in range(size)]
        return np.array(vals, dtype=np.float64)

    def normal(self, size: int | None = None):
        if size is not None and size >= _BULK_MIN:
            u = self._uniforms(size + (size & 1))
            cos_n, sin_n = len(u) // 2, size // 2
            # memoryviews hand math's functions Python floats without building lists
            log_u1 = np.fromiter(map(math.log, memoryview(1.0 - u[0::2])), np.float64, cos_n)
            theta = memoryview((2.0 * math.pi) * u[1::2])
            r = np.sqrt(-2.0 * log_u1)
            out = np.empty(size, dtype=np.float64)
            out[0::2] = r * np.fromiter(map(math.cos, theta), np.float64, cos_n)
            out[1::2] = r[:sin_n] * np.fromiter(map(math.sin, theta[:sin_n]), np.float64, sin_n)
            return out
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
