"""Quantization regularizer and the two closed-form proximal operators.

The regularizer is half the l1 distance from each coordinate to its nearest
center. Its prox in the weights is a soft-thresholding step toward the
nearest center; its prox in the centers is solved through a first-order
surrogate around the previous centers, which nudges each center by
``lambda * eta / 2`` times the count imbalance of assigned weights strictly
above versus strictly below it (coordinates exactly on the center count in
neither set); one signed bincount gives that imbalance.

Both proxes run on a population at once, one row per client: ``prox_x_rows``
and ``prox_c_rows`` take ``CenterStack`` rows, and ``prox_x`` and ``prox_c``
are their one-row case. The module keeps no state: ``prox_c_rows`` returns which
rows crossed, and its caller logs their total once through ``_report_crossings``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .quantizer import (
    CenterStack,
    CenterVector,
    assign_rows,
    hard_grad_c_rows,
    hard_quantize,
    quantize_assignments,
    take_rows,
)

__all__ = [
    "ProxParams",
    "regularizer",
    "prox_x",
    "prox_x_rows",
    "prox_c",
    "prox_c_rows",
]

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class ProxParams:
    """Step size eta and regularization weight lambda for one prox call."""

    eta: float
    lam: float

    def __post_init__(self):
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError("eta must be a positive finite real")
        if not (self.lam >= 0 and np.isfinite(self.lam)):
            raise ValueError("lambda must be a nonnegative finite real")

    @property
    def threshold(self) -> float:
        return self.lam * self.eta / 2.0


def regularizer(x: np.ndarray, c: CenterVector) -> float:
    """R(x, c) = 1/2 * sum_i min_j |x_i - c_j|; zero iff x lies on the centers."""
    x = np.asarray(x, dtype=np.float64)
    q = hard_quantize(x, c)
    return 0.5 * float(np.sum(np.abs(x - q)))


def prox_x(y: np.ndarray, c: CenterVector, p: ProxParams) -> np.ndarray:
    """Soft-threshold each coordinate toward its nearest center.

    With q the nearest center and t = lambda * eta / 2: subtract t when
    y >= q + t, add t when y <= q - t, and snap to q otherwise.
    """
    y = np.asarray(y, dtype=np.float64)[None]
    return prox_x_rows(y, c.values[None], assign_rows(y, c.midpoints()[None]), p.threshold)[0]


def prox_x_rows(y: np.ndarray, values: np.ndarray, assign: np.ndarray, t: float) -> np.ndarray:
    """``prox_x`` of every row: row i moves toward its centers ``values[i]``, at the
    nearest-center indices ``assign`` of y."""
    q = take_rows(values, assign)
    return np.where(y >= q + t, y - t, np.where(y <= q - t, y + t, q))


def _strictly_increasing(values: np.ndarray, c_max: float) -> np.ndarray:
    return _strictly_increasing_rows(values[None], np.array([[c_max]]))[0]


def _strictly_increasing_rows(values: np.ndarray, c_max: np.ndarray) -> np.ndarray:
    """Each row, ascending, made strictly increasing: a value at or below its left
    neighbour moves one ulp above it; a row pushed past its ``c_max`` ends at c_max and
    spreads down one ulp per collision instead."""
    out = values.copy()
    if not ((out[:, 1:] <= out[:, :-1]).any() or (out[:, -1:] > c_max).any()):
        return out
    for j in range(1, out.shape[1]):
        tied = out[:, j] <= out[:, j - 1]
        out[tied, j] = np.nextafter(out[tied, j - 1], np.inf)
    over = np.flatnonzero(out[:, -1] > c_max[:, 0])
    if over.size:  # collided against the upper bound
        out[over, -1] = c_max[over, 0]
        for j in range(out.shape[1] - 2, -1, -1):
            tied = over[out[over, j] >= out[over, j + 1]]
            out[tied, j] = np.nextafter(out[tied, j + 1], -np.inf)
    return out


def prox_c(
    mu: np.ndarray,
    x_new: np.ndarray,
    c_prev: CenterVector,
    p: ProxParams,
) -> CenterVector:
    """First-order surrogate prox of the regularizer in the centers.

    Assignments are taken from ``quantize_assignments(x_new, c_prev)`` (not
    recomputed at mu). With A_j / B_j counting assigned coordinates strictly
    above / strictly below the previous center (exact matches in neither),
    the linearized subgradient of the regularizer in c_j is
    ``(lambda/2) * (B_j - A_j)``, so component j moves by
    ``+lambda*eta/2 * (A_j - B_j)``: toward the median of its assigned
    weights. The result is clipped to the compact set ``[-c_max, c_max]``;
    a center below its left neighbour (a crossing) is fixed by one stable
    sort, and a call that crossed logs one warning, not an error.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != c_prev.values.shape:
        raise ValueError("mu must have one entry per center")
    x_new = np.asarray(x_new, dtype=np.float64)
    new, crossed = prox_c_rows(mu[None], x_new[None], CenterStack.of([c_prev]),
                               quantize_assignments(x_new, c_prev)[None], p.threshold)
    if crossed[0]:
        logger.warning("center crossing: prox_c output required re-sorting")
    return CenterVector(new[0], c_max=c_prev.c_max)


def prox_c_rows(mu: np.ndarray, x_new: np.ndarray, c_prev: CenterStack, assign: np.ndarray,
                t: float) -> tuple[np.ndarray, np.ndarray]:
    """``prox_c`` of every row: (n, m_max) center values with ``c_prev``'s pads, and
    which rows crossed, for the caller to count and report; it logs nothing.

    ``assign`` holds the nearest-center indices of ``x_new`` under ``c_prev``; one
    offset ``bincount`` gives every row's imbalance, and each crossing row is sorted
    on its own.
    """
    at = take_rows(c_prev.values, assign)
    # A_j - B_j: +1 per coordinate strictly above its previous center, -1 strictly below
    imbalance = hard_grad_c_rows(assign, (x_new > at).astype(np.float64) - (x_new < at),
                                 mu.shape[1])
    new = np.clip(mu + t * imbalance, -c_prev.c_max, c_prev.c_max)
    crossed = np.zeros(new.shape[0], dtype=bool)
    for m, rows in c_prev.by_m:
        block = new[rows, :m]
        crossed[rows] = cross = (block[:, 1:] < block[:, :-1]).any(axis=1)
        if cross.any():
            block[cross] = np.sort(block[cross], axis=1, kind="stable")
        new[rows, :m] = _strictly_increasing_rows(block, c_prev.c_max[rows])
    return new, crossed


def _report_crossings(ids, crossings: np.ndarray) -> None:
    """One WARNING with the total of the per-row ``crossings`` and the rows' ``ids``, if any."""
    if crossings.any():
        logger.warning("center crossings: %d, on clients %s (prox_c output required re-sorting)",
                       int(crossings.sum()), [ids[i] for i in np.flatnonzero(crossings)])
