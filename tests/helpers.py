"""Builders and the bitwise result comparison shared by the test modules."""

import json

import numpy as np

from qupel.losses import QuadraticLoss
from qupel.quantizer import CenterVector, QuantConfig
from qupel.rng import Rng


def centers(*vals, c_max=10.0):
    return CenterVector(np.array(vals, dtype=float), c_max=c_max)


def hard_cfg():
    return QuantConfig(hard_limit=True)


def clustered_quadratic(seed, m, d=10):
    """Separable quadratic whose targets sit in m tight clusters."""
    rng = Rng(seed)
    clusters = np.sort(rng.uniform(-1.2, 1.2, m))
    for j in range(1, m):
        clusters[j] = max(clusters[j], clusters[j - 1] + 0.5)
    a = np.array([clusters[rng.randint(m)] + 0.02 * (2 * rng.random() - 1) for _ in range(d)])
    h = rng.uniform(0.5, 2.0, d)
    x0 = a + rng.uniform(-0.1, 0.1, d)
    c0 = CenterVector(np.sort(clusters + rng.uniform(-0.05, 0.05, m)), c_max=3.0)
    return QuadraticLoss(a, h), x0, c0


def _arrays(result):
    return [result.x_final, result.x_hard, *(c.values for c in result.centers_final)]


def results_identical(a, b) -> bool:
    """Whether two ``TrainResult``s agree bit for bit: every array, and every
    field of every history record (``json.dumps`` tells -0.0 from 0.0)."""
    arrays_a, arrays_b = _arrays(a), _arrays(b)
    return (len(arrays_a) == len(arrays_b)
            and all(u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
                    for u, v in zip(arrays_a, arrays_b))
            and json.dumps(a.history) == json.dumps(b.history))
