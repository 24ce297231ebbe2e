"""Quantization regularizer and the two closed-form proximal operators.

The regularizer is half the l1 distance from each coordinate to its nearest
center. Its prox in the weights is a soft-thresholding step toward the
nearest center; its prox in the centers is solved through a first-order
surrogate around the previous centers, which nudges each center by
``lambda * eta / 2`` times the count imbalance of assigned weights strictly
above versus strictly below it (coordinates exactly on the center count in
neither set); one signed bincount gives that imbalance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .quantizer import CenterVector, hard_quantize, quantize_assignments

__all__ = [
    "ProxParams",
    "regularizer",
    "prox_x",
    "prox_c",
]

logger = logging.getLogger(__name__)

_crossing_logged = False


def _warn_crossing():
    # first crossing at WARNING, the rest at DEBUG to avoid flooding long runs
    global _crossing_logged
    if _crossing_logged:
        logger.debug("center crossing: prox_c output required re-sorting")
    else:
        logger.warning("center crossing: prox_c output required re-sorting")
        _crossing_logged = True


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
    y = np.asarray(y, dtype=np.float64)
    q = c.values[quantize_assignments(y, c)]
    t = p.threshold
    return np.where(y >= q + t, y - t, np.where(y <= q - t, y + t, q))


def _strictly_increasing(values: np.ndarray, c_max: float) -> np.ndarray:
    out = values.copy()
    for j in range(1, out.size):
        if out[j] <= out[j - 1]:
            out[j] = np.nextafter(out[j - 1], np.inf)
    if out[-1] > c_max:
        # collided against the upper bound; spread downward instead
        out[-1] = c_max
        for j in range(out.size - 2, -1, -1):
            if out[j] >= out[j + 1]:
                out[j] = np.nextafter(out[j + 1], -np.inf)
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
    a center below its left neighbour (a crossing) is logged as a warning,
    not an error, and fixed by one stable sort.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != c_prev.values.shape:
        raise ValueError("mu must have one entry per center")
    assign = quantize_assignments(x_new, c_prev)
    x_new = np.asarray(x_new, dtype=np.float64)
    at = c_prev.values[assign]
    # A_j - B_j: +1 per coordinate strictly above its previous center, -1 strictly below
    imbalance = np.bincount(assign, weights=(x_new > at).astype(np.float64) - (x_new < at),
                            minlength=c_prev.m)
    new = np.clip(mu + p.threshold * imbalance, -c_prev.c_max, c_prev.c_max)
    if (new[1:] < new[:-1]).any():
        _warn_crossing()
        new = np.sort(new, kind="stable")
    new = _strictly_increasing(new, c_prev.c_max)
    return CenterVector(new, c_max=c_prev.c_max)
