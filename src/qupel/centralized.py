"""What a training run is configured by and returns, and the one-client run.

``LambdaSchedule`` and ``HyperParams`` configure a run; ``TrainResult`` and
``DivergenceError`` are what it returns or raises. ``run_centralized`` runs
one client of the trainer loop in ``qupel.federated`` without the server:
a population of one row, stepped by the same stacked kernel as a federation.
The kernel, ``client_local_step`` and that loop live there, beside their
only callers; the loop owns the per-step record, the metrics cadence, the
divergence rule and the checkpoint, so this module does no I/O. Beside
these sit the stationarity gap (``stationarity_gap_rows`` for every row of
a population, ``stationarity_gap`` its one-row case), the safe step-size
estimator and the initializers, whose quantiles follow numpy's ``linear``
rule without importing ``numpy.ma``.

Each value is checked once, where it enters (``LambdaSchedule``,
``HyperParams``, each client's start) or where the step makes it (the gradient
iterate, each ``CenterVector``). ``HyperParams`` bounds lambda(t) times each
step size over the run, so no ``ProxParams`` built inside a run can fail.

Runs are single-threaded and deterministic: identical inputs produce
bitwise-identical results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .losses import (
    QuantLayout,
    hard_quantize_grouped,
    loss_quant_gradient_c,
    loss_quant_gradient_x,
)
from .proxops import _strictly_increasing
from .quantizer import CenterStack, CenterVector, QuantConfig
from .rng import Rng

__all__ = [
    "LambdaSchedule",
    "HyperParams",
    "TrainResult",
    "DivergenceError",
    "run_centralized",
    "stationarity_gap",
    "stationarity_gap_rows",
    "safe_step_sizes",
    "init_weights",
    "init_centers_from_weights",
]


class DivergenceError(RuntimeError):
    """Raised when the objective blows past the divergence threshold."""


@dataclass(frozen=True)
class LambdaSchedule:
    """Regularization weight as a function of the step index:
    ``lam(t) = min(base * t + value, cap)``, which never decreases.

    The factories set one part each: ``constant(v)`` is the level ``value``,
    ``linear(base, cap)`` a capped ramp from 0 (the ProxQuant schedule).
    """

    base: float = 0.0
    cap: float = float("inf")
    value: float = 0.0

    def __post_init__(self):
        if not all(0.0 <= v < np.inf for v in (self.base, self.value)):
            raise ValueError("lambda values must be finite and >= 0")
        if not self.cap >= 0.0:
            raise ValueError("lambda cap must be >= 0 or +inf")

    @classmethod
    def constant(cls, value: float) -> "LambdaSchedule":
        return cls(value=value)

    @classmethod
    def linear(cls, base: float, cap: float = float("inf")) -> "LambdaSchedule":
        return cls(base=base, cap=cap)

    def lam(self, t: int) -> float:
        return min(self.base * t + self.value, self.cap)


@dataclass(frozen=True)
class HyperParams:
    """Step sizes, schedules and sizes for a training run.

    ``eta2 = 0`` freezes the centers (used by the frozen-center baseline);
    ``eta3`` and ``lambda_p`` only matter to the federated protocol.
    ``fine_tune_start = None`` disables fine-tuning. Since lambda(t) never
    decreases, lambda(steps - 1) times each step size bounds every step.
    """

    eta1: float
    eta2: float
    steps: int
    eta3: float = 0.0
    lambda_schedule: LambdaSchedule = field(default_factory=LambdaSchedule)
    lambda_p: float = 0.0
    tau: int = 1
    fine_tune_start: int | None = None
    quant_cfg: QuantConfig = field(default_factory=lambda: QuantConfig(hard_limit=True))
    divergence_factor: float = 1e6
    metrics_every: int = 1
    batch_size: int | None = None
    checkpoint_every: int | None = None

    def __post_init__(self):
        if not (self.eta1 > 0 and np.isfinite(self.eta1)):
            raise ValueError("eta1 must be positive")
        if not all(0.0 <= v < np.inf for v in (self.eta2, self.eta3, self.lambda_p)):
            raise ValueError("eta2, eta3 and lambda_p must be finite and nonnegative")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.tau < 1:
            raise ValueError("tau must be a positive integer")
        if self.fine_tune_start is not None and not (0 <= self.fine_tune_start <= self.steps):
            raise ValueError("fine_tune_start must lie in [0, steps]")
        if self.metrics_every < 1:
            raise ValueError("metrics_every must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if not self.divergence_factor > 0:
            raise ValueError("divergence_factor must be positive")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 when set")
        if self.steps:  # the run's last, and so largest, lambda(t) bounds every product
            lam_max = self.lam(self.steps - 1)
            if not np.isfinite([lam_max * self.eta1, lam_max * self.eta2]).all():
                raise ValueError("lambda(t) * eta1 and lambda(t) * eta2 must stay finite "
                                 "for every step of the run")

    def lam(self, t: int) -> float:
        return self.lambda_schedule.lam(t)

    def ft_start(self) -> int:
        return self.steps if self.fine_tune_start is None else self.fine_tune_start

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class TrainResult:
    """Final full-precision iterate, centers, hard-quantized model, and ``history``: the
    run's ``metrics.jsonl`` records, dicts in the file's key order."""

    x_final: np.ndarray
    centers_final: list[CenterVector]
    x_hard: np.ndarray
    history: list[dict]


def stationarity_gap(x_prev, x_next, c_prev, c_next, hp: HyperParams) -> float:
    """Prox-residual stationarity measure ||z_next - z_prev||^2 / min(eta)^2; centers as
    lists. The one-row case of ``stationarity_gap_rows``."""
    x_prev = np.asarray(x_prev, dtype=np.float64)[None]
    x_next = np.asarray(x_next, dtype=np.float64)[None]
    return float(stationarity_gap_rows(x_prev, x_next, [CenterStack.of([c]) for c in c_prev],
                                       [CenterStack.of([c]) for c in c_next], hp)[0])


def stationarity_gap_rows(x_prev, x_next, c_prev: list[CenterStack],
                          c_next: list[CenterStack], hp: HyperParams) -> np.ndarray:
    """``stationarity_gap`` of every row; each row's squared norms are row dot products,
    taken over its own m centers per group."""
    dx = x_next - x_prev
    total = np.vecdot(dx, dx)
    for cp, cn in zip(c_prev, c_next):
        dc = cn.values - cp.values
        for m, rows in cp.by_m:
            total[rows] += np.vecdot(dc[rows, :m], dc[rows, :m])
    eta_min = hp.eta1 if hp.eta2 == 0 else min(hp.eta1, hp.eta2)
    return total / (eta_min * eta_min)


def run_centralized(loss, init_x, init_c, hp: HyperParams, *,
                    layout: QuantLayout | None = None, test=None, rng: Rng | None = None,
                    checkpoint_path=None) -> TrainResult:
    """Run the full alternating scheme for ``hp.steps`` steps.

    ``init_c`` is a list of CenterVectors, one per group of ``layout`` (default:
    the whole vector as one group). ``test`` enables accuracy metrics every
    ``hp.metrics_every`` steps for classifier losses. The minibatches come from
    a copy of ``rng``, which is not advanced. Aborts with DivergenceError when the
    objective exceeds ``divergence_factor`` times max(1, |F_0|). The run is
    client 0 of the trainer loop in ``qupel.federated``, without the server;
    ``checkpoint_path`` receives its state every ``hp.checkpoint_every`` steps.
    """
    from .federated import ClientState, _train  # qupel.federated imports this module

    x = np.array(init_x, dtype=np.float64)
    client = ClientState(id=0, x=x, centers=init_c, w_local=x, loss=loss, layout=layout,
                         test=test, data_rng=rng)
    return _train([client], hp, federated=False, checkpoint_path=checkpoint_path).per_client[0]


# ---------------------------------------------------------------------------
# step-size estimation ("safe mode")


def _power_iteration(hvp, dim, rng: Rng) -> float:
    v = rng.normal(dim)
    v /= max(np.linalg.norm(v), 1e-12)
    eig = 0.0
    for _ in range(30):
        w = hvp(v)
        nw = np.linalg.norm(w)
        if nw < 1e-14:
            return 0.0
        eig = float(v @ w)
        v = w / nw
    return abs(eig)


def safe_step_sizes(loss, x0, centers0, *, cfg: QuantConfig,
                    layout: QuantLayout | None = None, lambda_p: float = 0.0,
                    safety: float = 2.0) -> tuple[float, float]:
    """Estimate smoothness constants and return eta1 = 1/(2 Lx), eta2 = 1/(2 Lc).

    Curvature of x -> f(x) + f(Qs(x)) (plus the coupling strength 2*lambda_p
    in the federated case) and of c -> f(Qs(x)) is measured by power
    iteration on finite-difference Hessian-vector products of the analytic
    gradients, maximized over probe points, then inflated by ``safety``.
    Probes cover the start point, its hard-quantized image, two random
    perturbations, and (in soft mode) points pushed onto the center
    midpoints where the quantizer's curvature peaks.
    """
    if layout is None:
        layout = QuantLayout.full(loss.dim)
    centers = layout.check_centers(centers0)
    rng = Rng(314)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = 1e-5

    def grad_x(x):
        return loss.gradient(x) + loss_quant_gradient_x(loss, x, centers, layout, cfg)

    def grad_c_flat(cvals_list):
        cvs = [CenterVector(np.sort(v), c_max=c.c_max) for v, c in zip(cvals_list, centers)]
        return loss_quant_gradient_c(loss, x0, cvs, layout, cfg)

    probes = [x0, hard_quantize_grouped(x0, centers, layout)]
    probes += [x0 + 0.3 * rng.normal(x0.size) for _ in range(2)]
    if not cfg.hard_limit:
        for (start, stop), c in zip(layout.groups, centers):
            for mid in c.midpoints():
                p = x0.copy()
                # park the group on the sigmoid wall, slightly off its crest
                p[start:stop] = mid + 0.8 / cfg.sharpness
                probes.append(p)
    lx = 0.0
    for p in probes:
        def hvp(v, p=p):
            return (grad_x(p + eps * v) - grad_x(p - eps * v)) / (2 * eps)
        lx = max(lx, _power_iteration(hvp, x0.size, rng))
    lx = safety * lx + 2.0 * lambda_p
    eta1 = 1.0 / (2.0 * max(lx, 1e-9))

    lc = 0.0
    for gi, c in enumerate(centers):
        def hvp_c(v, gi=gi):
            vals = [c2.values.copy() for c2 in centers]
            up = [w.copy() for w in vals]
            dn = [w.copy() for w in vals]
            up[gi] = up[gi] + eps * v
            dn[gi] = dn[gi] - eps * v
            return (grad_c_flat(up)[gi] - grad_c_flat(dn)[gi]) / (2 * eps)
        lc = max(lc, _power_iteration(hvp_c, c.m, rng))
    lc = safety * lc
    eta2 = 1.0 / (2.0 * max(lc, 1e-9))
    return eta1, eta2


# ---------------------------------------------------------------------------
# initialization


def init_weights(dim: int, rng: Rng) -> np.ndarray:
    """Seeded uniform(-0.5, 0.5) initialization of the parameter vector."""
    return rng.uniform(-0.5, 0.5, dim)


def _quantiles(values: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(values, qs)`` by numpy's default ``linear`` rule, bit for bit,
    without the ``np.unique`` call through which ``np.quantile`` imports ``numpy.ma``."""
    s = np.array(values, dtype=np.float64).ravel()
    n = s.size
    if n == 1:
        return np.full(qs.shape, s[0])
    v = (n - 1) * qs
    lo = np.floor(v).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    s.partition(sorted({0, n - 1, *lo.tolist(), *hi.tolist()}))
    if np.isnan(s[-1]):  # NaN sorts last, and np.quantile answers NaN for it
        return np.full(qs.shape, np.nan)
    a, b, g = s[lo], s[hi], v - lo
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


def init_centers_from_weights(x_group: np.ndarray, m: int, c_max: float = 10.0) -> CenterVector:
    """Centers at the m empirical quantiles (j - 1/2)/m of the group's weights."""
    x_group = np.asarray(x_group, dtype=np.float64)
    qs = (np.arange(1, m + 1) - 0.5) / m
    vals = _quantiles(x_group, qs)
    vals = np.clip(vals, -c_max, c_max)
    # enforce strict sortedness for degenerate groups
    span = max(float(vals[-1] - vals[0]), 1e-3)
    for j in range(1, m):
        if vals[j] <= vals[j - 1]:
            vals[j] = min(vals[j - 1] + 1e-6 * span, c_max)
    return CenterVector(_strictly_increasing(vals, c_max), c_max=c_max)
