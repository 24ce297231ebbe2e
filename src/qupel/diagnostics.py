"""Verification tooling: finite-difference checks, prox oracle, metrics export.

The finite-difference checker and the dense-grid prox oracle are the
independent references against which every analytic gradient and the
closed-form prox are validated, both in the test suite and through the
``gradcheck`` CLI command.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .losses import (
    LogisticLoss,
    MlpLoss,
    QuadraticLoss,
    QuantLayout,
    loss_quant_gradient_c,
    loss_quant_gradient_x,
    quantize_grouped,
)
from .proxops import ProxParams, prox_x
from .quantizer import CenterVector, QuantConfig, hard_quantize
from .rng import Rng

__all__ = [
    "GradCheckReport",
    "finite_diff_check",
    "prox_oracle_1d",
    "evaluate_accuracy",
    "export_metrics",
    "write_atomic",
    "run_gradient_suite",
    "run_prox_suite",
]


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_coord: int
    passed: bool


def finite_diff_check(fn, grad_fn, point, step: float = 1e-6, tol: float = 1e-5) -> GradCheckReport:
    """Compare an analytic gradient against central differences per coordinate.

    Relative error uses the denominator max(1, |analytic|, |numeric|) so that
    near-zero gradients are judged on absolute error.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=np.float64)
    analytic = np.asarray(grad_fn(point), dtype=np.float64)
    worst = 0.0
    worst_i = -1
    for i in range(point.size):
        delta = np.zeros_like(point)
        delta[i] = step
        num = (fn(point + delta) - fn(point - delta)) / (2.0 * step)
        denom = max(1.0, abs(analytic[i]), abs(num))
        err = abs(analytic[i] - num) / denom
        if err > worst:
            worst, worst_i = err, i
    return GradCheckReport(max_rel_err=worst, worst_coord=worst_i, passed=worst < tol)


def prox_oracle_1d(y: float, c: CenterVector, eta_lambda: float, grid_step: float = 1e-4) -> float:
    """Dense-grid argmin of 1/2 (u - y)^2 + (eta*lambda/2) * min_j |u - c_j|.

    The grid covers [min(y, c_1) - 1, max(y, c_m) + 1], which always brackets
    the argmin (the prox lands between y and its nearest center).
    """
    lo = min(float(c.values.min()), y) - 1.0
    hi = max(float(c.values.max()), y) + 1.0
    grid = np.arange(lo, hi + grid_step, grid_step)
    dist = np.min(np.abs(grid[:, None] - c.values[None, :]), axis=1)
    obj = 0.5 * (grid - y) ** 2 + (eta_lambda / 2.0) * dist
    return float(grid[np.argmin(obj)])


def evaluate_accuracy(model, params, test) -> float:
    """Fraction of correct predictions of a classifier loss on a test dataset."""
    if test.features.shape[0] == 0:
        raise ValueError("empty test set")
    pred = model.predict(np.asarray(params, dtype=np.float64), test.features)
    return float(np.mean(pred == test.labels))


def write_atomic(path, chunks) -> None:
    """Write the text ``chunks`` to ``path`` whole, or leave ``path`` as it was.

    The chunks go one at a time into ``<path>.tmp`` beside ``path``, which
    ``os.replace`` then moves over ``path``; a write that raises removes the
    temporary file. There is no fsync: a killed process leaves whole files,
    which is not durability across a power loss.
    """
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def export_metrics(records, path) -> None:
    """Write metric records (dicts, a ``TrainResult.history``) to ``path`` as JSONL.

    One record per line, streamed through ``write_atomic``; values round-trip
    exactly through JSON parsing.
    """
    write_atomic(path, (json.dumps(rec) + "\n" for rec in records))


# ---------------------------------------------------------------------------
# oracle suites (shared by the test suite and the gradcheck CLI command)


@dataclass
class SuiteReport:
    n_instances: int
    max_err: float
    elapsed_s: float
    passed: bool
    detail: str = ""


def _random_centers(rng: Rng, m: int, span: float = 2.0, min_gap: float = 0.15) -> CenterVector:
    vals = np.sort(rng.uniform(-span, span, m))
    for j in range(1, m):
        if vals[j] - vals[j - 1] < min_gap:
            vals[j] = vals[j - 1] + min_gap
    return CenterVector(vals, c_max=max(10.0, float(np.max(np.abs(vals))) + 1.0))


def _random_loss(rng: Rng, d: int, kind: int):
    if kind == 0:
        a = rng.uniform(-1.5, 1.5, d)
        h = rng.uniform(0.5, 3.0, d)
        return QuadraticLoss(a, h)
    if kind == 1:
        n = 8
        z = rng.normal(n * d).reshape(n, d)
        y = np.where(rng.uniform(0, 1, n) < 0.5, -1.0, 1.0)
        return LogisticLoss(z, y, l2=0.01)
    n, classes = 6, 3
    hidden = 4
    z = rng.normal(n * d).reshape(n, d)
    y = np.array([rng.randint(classes) for _ in range(n)], dtype=np.int64)
    return MlpLoss([d, hidden, classes], z, y)


def run_gradient_suite(
    n_instances: int = 1000,
    tol: float = 1e-5,
    seed: int = 20240,
    broken: bool = False,
) -> SuiteReport:
    """Check every analytic gradient against central differences on random draws.

    Each instance draws a loss (quadratic / logistic / MLP), a parameter
    point, centers and a sharpness, then verifies the plain loss gradient and
    the two chain-rule gradients through the soft quantizer. ``broken``
    injects a wrong-sign gradient to confirm the detector trips.
    """
    rng = Rng(seed)
    started = time.perf_counter()
    worst = 0.0
    detail = ""
    for i in range(n_instances):
        d = 2 + rng.randint(6)
        m = 1 + rng.randint(4)
        loss = _random_loss(rng, d, kind=i % 3)
        x = rng.uniform(-2.0, 2.0, loss.dim)
        c = _random_centers(rng, m)
        cfg = QuantConfig(sharpness=0.5 + 15.0 * rng.random())
        layout = QuantLayout.full(loss.dim)
        centers = [c]

        sign = -1.0 if broken else 1.0
        checks = [
            (loss.value, lambda p: sign * loss.gradient(p)),
            (
                lambda p: loss.value(quantize_grouped(p, centers, layout, cfg)),
                lambda p: sign * loss_quant_gradient_x(loss, p, centers, layout, cfg),
            ),
        ]
        for fn, gfn in checks:
            rep = finite_diff_check(fn, gfn, x, tol=tol)
            if rep.max_rel_err > worst:
                worst = rep.max_rel_err
                detail = f"instance {i}, x-side coord {rep.worst_coord}"

        def fn_c(cv, x=x, loss=loss, cfg=cfg, layout=layout, c=c):
            cand = CenterVector(np.sort(cv), c_max=c.c_max)
            return loss.value(quantize_grouped(x, [cand], layout, cfg))

        def gfn_c(cv, x=x, loss=loss, cfg=cfg, layout=layout, c=c):
            cand = CenterVector(np.sort(cv), c_max=c.c_max)
            return sign * loss_quant_gradient_c(loss, x, [cand], layout, cfg)[0]

        rep = finite_diff_check(fn_c, gfn_c, c.values.copy(), tol=tol)
        if rep.max_rel_err > worst:
            worst = rep.max_rel_err
            detail = f"instance {i}, c-side coord {rep.worst_coord}"
    elapsed = time.perf_counter() - started
    return SuiteReport(n_instances, worst, elapsed, passed=worst < tol, detail=detail)


def run_prox_suite(
    n_instances: int = 1000,
    seed: int = 77,
    grid_step: float = 1e-4,
) -> SuiteReport:
    """Check prox_x against the 1-d grid oracle and the large-lambda collapse."""
    rng = Rng(seed)
    started = time.perf_counter()
    worst = 0.0
    detail = ""
    for i in range(n_instances):
        m = 1 + rng.randint(5)
        c = _random_centers(rng, m)
        y = float(rng.uniform(-3.0, 3.0))
        eta_lambda = float(rng.uniform(0.0, 1.5))
        p = ProxParams(eta=1.0, lam=eta_lambda)
        got = float(prox_x(np.array([y]), c, p)[0])
        want = prox_oracle_1d(y, c, eta_lambda, grid_step)
        err = abs(got - want)
        if err > worst:
            worst = err
            detail = f"instance {i}: y={y}, eta*lambda={eta_lambda}"
        # collapse: threshold at least the distance to the nearest center
        yv = np.array([y])
        gap = float(np.abs(yv - hard_quantize(yv, c))[0])
        big = ProxParams(eta=1.0, lam=2.0 * gap + 1.0)
        if prox_x(yv, c, big)[0] != hard_quantize(yv, c)[0]:
            return SuiteReport(n_instances, np.inf, time.perf_counter() - started, False,
                               f"collapse failed at instance {i}")
    elapsed = time.perf_counter() - started
    return SuiteReport(n_instances, worst, elapsed, passed=worst < 2.0 * grid_step, detail=detail)
