"""Scalar soft/hard quantizers with analytic partial derivatives.

The soft quantizer is a sigmoid staircase over a sorted vector of centers
``c_1 < ... < c_m``:

    Qs(x)_i = c_1 + sum_{j=2..m} (c_j - c_{j-1}) * sigmoid(P * (x_i - (c_j + c_{j-1}) / 2))

``P`` controls the sharpness: for small P the map is nearly affine, for large
P it approaches the nearest-center (hard) quantizer. The hard quantizer maps
each coordinate to its nearest center, breaking exact midpoint ties toward
the smaller center so results are deterministic.

Only ``soft_quantize`` and ``hard_quantize`` check that x is finite; the
trainers check each iterate once per step instead. ``quantize_assignments``
sends +inf and NaN to the top center and -inf to the bottom one. A
``CenterVector`` checks its values and computes its midpoints once, when built.

A population's centers for one parameter group stack as a ``CenterStack``, one
row per client, padded to the largest m. The stacked operations answer for every
row in one call: ``assign_rows`` counts the midpoints below each coordinate,
``hard_grad_c_rows`` is one offset ``bincount``, and ``soft_quantize_rows``,
``soft_grad_x_rows`` and ``soft_grad_c_rows`` run one batched product per ``by_m``
block. The one-vector functions are their one-row case.

All functions here are pure and thread-safe; none mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CenterVector",
    "CenterStack",
    "QuantConfig",
    "sigmoid",
    "soft_quantize",
    "soft_quantize_rows",
    "hard_quantize",
    "quantize_assignments",
    "assign_rows",
    "take_rows",
    "grad_soft_quantize_x",
    "grad_soft_quantize_c",
    "soft_grad_x_rows",
    "soft_grad_c_rows",
    "hard_grad_c",
    "hard_grad_c_rows",
]

DEFAULT_C_MAX = 10.0


def sigmoid(t: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (no overflow at large |t|)."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))  # exp(-t) where t >= 0, exp(t) below: never above 1
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class CenterVector:
    """Sorted quantization centers for one parameter group.

    Invariants: strictly increasing, finite, bounded by ``c_max`` in absolute
    value, and m >= 1. ``log2(m)`` is the number of bits per parameter.
    """

    values: np.ndarray
    c_max: float = DEFAULT_C_MAX

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("centers must be a nonempty 1-d vector")
        if not (self.c_max > 0 and np.isfinite(self.c_max)):
            raise ValueError("c_max must be a positive finite real")
        # increasing from >= -c_max to <= c_max also means finite (NaN fails every comparison)
        if not (vals[0] >= -self.c_max and vals[-1] <= self.c_max
                and (vals[1:] > vals[:-1]).all()):
            raise ValueError(f"centers must be strictly increasing within "
                             f"[-{self.c_max}, {self.c_max}]")
        mids = (vals[1:] + vals[:-1]) / 2.0
        vals.flags.writeable = mids.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_midpoints", mids)

    @property
    def m(self) -> int:
        return int(self.values.size)

    @property
    def bits(self) -> float:
        return float(np.log2(self.m))

    def midpoints(self) -> np.ndarray:
        return self._midpoints


class CenterStack:
    """One parameter group's centers for a population, one row per client, in id order.

    ``values`` is (n, m_max): row i holds client i's m_i centers, then zeros.
    ``mids`` is (n, m_max - 1): row i's midpoints, then +inf, so ``assign_rows``
    never picks a pad for a finite coordinate. ``m`` and ``c_max`` are (n, 1)
    columns, and ``by_m`` lists ``(m, rows)`` per distinct m, the rows as a slice
    when every row has that m. Pads stay out of every sum, sort and bincount bin.
    """

    def __init__(self, values: np.ndarray, mids: np.ndarray, m: np.ndarray,
                 c_max: np.ndarray, by_m: list):
        self.values, self.mids, self.m, self.c_max, self.by_m = values, mids, m, c_max, by_m

    @classmethod
    def of(cls, vectors: list["CenterVector"]) -> "CenterStack":
        if len(vectors) == 1:  # one row has no pads: the vector's own arrays
            c = vectors[0]
            return cls(c.values[None], c.midpoints()[None], np.array([[c.m]]),
                       np.array([[c.c_max]]), [(c.m, slice(None))])
        m = np.array([[c.m] for c in vectors])
        values = np.zeros((len(vectors), int(m.max())))
        for row, c in zip(values, vectors):
            row[:c.m] = c.values
        by_m = [(mv, slice(None) if (m == mv).all() else np.flatnonzero(m[:, 0] == mv))
                for mv in sorted(set(m[:, 0].tolist()))]
        return cls(values, None, m, np.array([[c.c_max] for c in vectors]),
                   by_m).with_values(values)

    def with_values(self, values: np.ndarray) -> "CenterStack":
        """The same clients and m at new center values."""
        mids = (values[:, 1:] + values[:, :-1]) / 2.0
        if len(self.by_m) > 1:
            mids[np.arange(mids.shape[1]) >= self.m - 1] = np.inf
        return CenterStack(values, mids, self.m, self.c_max, self.by_m)

    def row(self, i: int) -> "CenterVector":
        return CenterVector(self.values[i, :int(self.m[i, 0])], c_max=float(self.c_max[i, 0]))


@dataclass(frozen=True)
class QuantConfig:
    """Soft-quantizer sharpness P plus the P-to-infinity switch.

    With ``hard_limit`` set, P is ignored: the quantizer is the exact
    nearest-center map, its x-derivative is taken as zero, and its
    c-derivative becomes an indicator sum over assigned coordinates.
    """

    sharpness: float = 1.0
    hard_limit: bool = False

    def __post_init__(self):
        if not (self.sharpness > 0 and np.isfinite(self.sharpness)):
            raise ValueError("sharpness P must be a positive finite real")


def _check_input(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a 1-d parameter vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite values in input vector")
    return x


def _soft_blocks(y: np.ndarray, c: CenterStack, sharpness: float):
    """Each ``by_m`` block of y's rows: ``(rows, values, widths, s)``, with values (r, m),
    widths (r, m - 1, 1) and s = sigmoid(P * (y - mid)) (r, d, m - 1), free of pads."""
    for m, rows in c.by_m:
        values = c.values[rows, :m]
        s = sigmoid(sharpness * (y[rows, :, None] - c.mids[rows, None, :m - 1]))
        yield rows, values, np.diff(values, axis=1)[:, :, None], s


def _soft_jac_c(s: np.ndarray, widths: np.ndarray, sharpness: float) -> np.ndarray:
    """A block's (r, m, d) center Jacobians from its sigmoids; see ``grad_soft_quantize_c``."""
    s = s.transpose(0, 2, 1)
    jac = np.zeros((s.shape[0], s.shape[1] + 1, s.shape[2]))
    jac[:, 0, :] = 1.0          # sigma(+inf) term for the lowest center
    jac[:, 1:, :] += s          # midpoint shared with the center below
    jac[:, :-1, :] -= s         # midpoint shared with the center above
    width_term = (sharpness / 2.0) * widths * (s * (1.0 - s))
    jac[:, :-1, :] -= width_term
    jac[:, 1:, :] -= width_term
    return jac


def soft_quantize_rows(y: np.ndarray, c: CenterStack, sharpness: float) -> np.ndarray:
    """``soft_quantize`` of every row of y (n, d) at its own centers; no input check."""
    out = np.empty(y.shape)
    for rows, v, widths, s in _soft_blocks(y, c, sharpness):
        out[rows] = v if v.shape[1] == 1 else v[:, :1] + np.matmul(s, widths)[:, :, 0]
    return out


def soft_grad_x_rows(y: np.ndarray, c: CenterStack, sharpness: float) -> np.ndarray:
    """``grad_soft_quantize_x`` of every row of y (n, d) at its own centers."""
    out = np.empty(y.shape)
    for rows, _, widths, s in _soft_blocks(y, c, sharpness):
        out[rows] = sharpness * np.matmul(s * (1.0 - s), widths)[:, :, 0]
    return out


def soft_grad_c_rows(y: np.ndarray, c: CenterStack, sharpness: float, upstream) -> np.ndarray:
    """Row i's center Jacobian at y[i] times ``upstream[i]``, every row: (n, m_max), 0 pads."""
    out = np.zeros(c.values.shape)
    for rows, values, widths, s in _soft_blocks(y, c, sharpness):
        jac = _soft_jac_c(s, widths, sharpness)
        out[rows, :values.shape[1]] = np.matmul(jac, upstream[rows][:, :, None])[:, :, 0]
    return out


def soft_quantize(x: np.ndarray, c: CenterVector, cfg: QuantConfig) -> np.ndarray:
    """Differentiable sigmoid-staircase quantization of each coordinate, the one-row
    case of ``soft_quantize_rows``."""
    if cfg.hard_limit:
        raise ValueError("soft_quantize requires hard_limit=False")
    return soft_quantize_rows(_check_input(x)[None], CenterStack.of([c]), cfg.sharpness)[0]


def assign_rows(y: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Nearest-center index of every coordinate of every row: (n, d) against (n, m - 1).

    Row i's midpoints ascend and end in +inf pads. The index is the count of real
    midpoints strictly below the coordinate, so a coordinate exactly at a midpoint
    takes the lower cell; +inf takes the top center and -inf the bottom one. NaN
    counts no midpoint at or above it and takes the last slot, the top center of a
    row without pads and a pad slot of a padded row.
    """
    if len(y) == 1:  # one row has no pads: a binary search counts the same midpoints
        return mids[0].searchsorted(y[0], side="left")[None]
    k = mids.shape[1]
    above = np.zeros(y.shape, dtype=np.uint8 if k < 256 else np.int64)  # midpoints >= y
    hit = np.empty(y.shape, dtype=bool)
    for j in range(k):
        np.less_equal(y, mids[:, j, None], out=hit)
        above += hit.view(np.uint8)
    return k - above.astype(np.int64)


def take_rows(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[i, index[i, j]]`` for every row i: each row looks up its own centers."""
    n, width = values.shape
    if n == 1:
        return values[0][index]
    return np.take(values, index + np.arange(0, n * width, width)[:, None])


def quantize_assignments(x: np.ndarray, c: CenterVector) -> np.ndarray:
    """Index of the nearest center per coordinate, midpoint ties to the smaller center;
    the one-row case of ``assign_rows``."""
    x = np.asarray(x, dtype=np.float64)
    return assign_rows(x[None], c.midpoints()[None])[0]


def hard_quantize(x: np.ndarray, c: CenterVector) -> np.ndarray:
    return c.values[quantize_assignments(_check_input(x), c)]


def grad_soft_quantize_x(x: np.ndarray, c: CenterVector, cfg: QuantConfig) -> np.ndarray:
    """Diagonal of the soft-quantizer Jacobian w.r.t. x.

    Entry i equals ``P * sum_j (c_j - c_{j-1}) * sigmoid'(P * (x_i - mid_j))``,
    which is nonnegative and bounded by ``P * (c_m - c_1) / 4``.
    """
    if cfg.hard_limit:
        raise ValueError("grad_soft_quantize_x requires hard_limit=False")
    x = np.asarray(x, dtype=np.float64)
    return soft_grad_x_rows(x[None], CenterStack.of([c]), cfg.sharpness)[0]


def grad_soft_quantize_c(x: np.ndarray, c: CenterVector, cfg: QuantConfig) -> np.ndarray:
    """Jacobian of the soft quantizer w.r.t. the centers, shape (m, d).

    Entry (j, i) collects the sigmoid of the midpoint shared with the center
    below, minus the sigmoid of the midpoint shared with the center above,
    minus the two midpoint-width corrections. Boundary rows use the natural
    conventions sigmoid(+inf) = 1 below c_1 and sigmoid(-inf) = 0 above c_m.
    For m = 1 the quantizer is identically c_1, so the Jacobian is a row of
    ones.
    """
    if cfg.hard_limit:
        raise ValueError("grad_soft_quantize_c requires hard_limit=False")
    x = np.asarray(x, dtype=np.float64)
    [(_, _, widths, s)] = _soft_blocks(x[None], CenterStack.of([c]), cfg.sharpness)
    return _soft_jac_c(s, widths, cfg.sharpness)[0]


def hard_grad_c(assignments: np.ndarray, upstream_grad: np.ndarray, m: int) -> np.ndarray:
    """P-to-infinity center gradient: sum upstream entries per assigned center."""
    assignments = np.asarray(assignments, dtype=np.int64)
    upstream_grad = np.asarray(upstream_grad, dtype=np.float64)
    if assignments.shape != upstream_grad.shape:
        raise ValueError("assignments and upstream gradient differ in length")
    if m < 1:
        raise ValueError("m must be >= 1")
    if assignments.size and (assignments.min() < 0 or assignments.max() >= m):
        raise ValueError("assignment index out of range")
    return hard_grad_c_rows(assignments[None], upstream_grad[None], m)[0]


def hard_grad_c_rows(assignments: np.ndarray, upstream: np.ndarray, width: int) -> np.ndarray:
    """``hard_grad_c`` of every row in one ``bincount``: row i's entries land in bins
    ``i * width + assignment``, in order, so each bin sums what row i's own call would."""
    n = assignments.shape[0]
    offsets = np.arange(0, n * width, width)[:, None]
    flat = np.bincount((assignments + offsets).ravel(), weights=upstream.ravel(),
                       minlength=n * width)
    return flat.reshape(n, width)
